#!/usr/bin/env python3
"""Compare the working tree against a git revision on benchmark workloads.

    python3 scripts/bench_pairs.py --base HEAD --workload overlay-flood \\
        --pairs 10 --seconds 6 --seed-start 1

``--workload`` takes one workload or a comma-separated list, run in
turn from the same two extracted trees.

Extracts ``--base`` with ``git archive`` into a temporary directory, and
the working tree beside it the same way (a ``git stash create`` snapshot
of the tracked files, so ``git add`` a new file for it to be included),
then runs ``perfbench/run.py --trace 0`` from each of the two trees, once
each per pair. Extracting both keeps the two runs' surroundings alike.
Pair i uses seed ``seed-start + i`` for both trees,
and which tree runs first alternates from pair to pair, so a drift in
host speed does not favour either side. Prints, per end-to-end metric,
the median of each side, the change of the medians in percent, how many
pairs the working tree won (in the direction BENCHMARK.json gives) and
the interquartile range of the base runs; then whether both trees
printed the same output digest on each seed, and whether every run
reported itself correct with no failed operation. A workload's output
ends with one JSON line with the same facts, each side's quartiles
included, for a BENCH_*.json file. Stdlib only.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> bytes:
    done = subprocess.run(["git", *args], cwd=ROOT, capture_output=True)
    if done.returncode != 0:
        sys.exit(f"git {' '.join(args)} failed: {done.stderr.decode().strip()}")
    return done.stdout


def extract(rev: str, into: Path) -> None:
    """Write the files of ``rev`` under ``into``, as ``git archive`` lists them."""
    into.mkdir()
    data = git("archive", "--format=tar", rev)
    with tarfile.open(fileobj=io.BytesIO(data)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(into, filter="data")
        else:
            tar.extractall(into)


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> Dict:
    """One untraced benchmark run from ``tree``: its digest and result line."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(cmd)} in {tree} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.splitlines()
    digest = next(line.split(" ", 2)[2] for line in lines if line.startswith("digest "))
    result = json.loads(lines[-1])
    result["digest"] = digest
    return result


def quartiles(values: List[float]) -> List[float]:
    """[q1, median, q3]; one value stands for all three."""
    if len(values) < 2:
        return [statistics.median(values)] * 3
    return statistics.quantiles(values, n=4)


def compare(trees: Dict[str, Path], workload: str, args: argparse.Namespace,
            better: Dict[str, str], snapshot: str) -> bool:
    """Run ``args.pairs`` alternated pairs of ``workload`` from the two
    trees and print their table and JSON line; True when every run was
    correct with no failed operation and every seed's digests matched."""
    runs: Dict[str, List[Dict]] = {"base": [], "change": []}
    print(f"{workload}: base {args.base} against the working tree "
          f"({snapshot[:12]}), {args.pairs} pairs of {args.seconds} s runs")
    for i in range(args.pairs):
        seed = args.seed_start + i
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            runs[side].append(run_once(trees[side], workload, seed, args.seconds))
        base, change = runs["base"][-1], runs["change"][-1]
        same = "same digest" if base["digest"] == change["digest"] else "DIGESTS DIFFER"
        print(f"pair {i + 1} seed {seed} ({order[0]} first): wall_s "
              f"{base['metrics']['wall_s']['value']:.4g} -> "
              f"{change['metrics']['wall_s']['value']:.4g}, {same}")

    print(f"{'metric':<12} {'base':>10} {'change':>10} {'change%':>8} {'wins':>6} {'base_iqr':>9}")
    metrics = {}
    for name, direction in better.items():
        base = [r["metrics"][name]["value"] for r in runs["base"]]
        change = [r["metrics"][name]["value"] for r in runs["change"]]
        bq, cq = quartiles(base), quartiles(change)
        b, c = statistics.median(base), statistics.median(change)
        pct = 100.0 * (c - b) / b if b else None
        wins = sum((y < x) if direction == "lower" else (y > x) for x, y in zip(base, change))
        print(f"{name:<12} {b:>10.4g} {c:>10.4g} "
              f"{'n/a' if pct is None else f'{pct:+.1f}%':>8} {wins:>3}/{args.pairs} "
              f"{bq[2] - bq[0]:>9.3g}")
        metrics[name] = {
            "better": direction,
            "base": {"median": b, "q1": bq[0], "q3": bq[2]},
            "change": {"median": c, "q1": cq[0], "q3": cq[2]},
            "change_pct": pct,
            "wins": wins,
        }

    mismatched = [args.seed_start + i for i, (x, y) in enumerate(zip(runs["base"], runs["change"]))
                  if x["digest"] != y["digest"]]
    print("digests: " + (f"differ on seeds {mismatched}" if mismatched
                         else f"match on all {args.pairs} seeds"))
    all_ok = True
    clean = {}
    for side, results in runs.items():
        ok = sum(r["correct"] is True and r["failed"] == 0 for r in results)
        all_ok = all_ok and ok == len(results)
        clean[side] = ok
        print(f"{side}: {ok}/{len(results)} runs correct with no failed operation")
    print(json.dumps({
        "workload": workload,
        "base": git("rev-parse", args.base).decode().strip(),
        "change": git("rev-parse", snapshot).decode().strip(),
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seeds": [args.seed_start, args.seed_start + args.pairs - 1],
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "metrics": metrics,
        "digests_match": not mismatched,
        "mismatched_seeds": mismatched,
        "runs_clean": clean,
    }, sort_keys=True), flush=True)
    return all_ok and not mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--workload", required=True,
                        help="a workload, or several separated by commas, compared in turn")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=6)
    parser.add_argument("--seed-start", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or args.seconds < 1:
        parser.error("--pairs and --seconds must be >= 1")
    workloads = args.workload.split(",")
    if not all(workloads):
        parser.error("--workload names an empty workload")

    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    # a commit of the working tree's tracked files; empty when nothing changed
    snapshot = git("stash", "create").decode().strip() or "HEAD"
    all_ok = True
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        # equal name lengths: the same code read peak_rss_mb 0.1 MB apart
        # from two paths of different lengths
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "work"}
        extract(args.base, trees["base"])
        extract(snapshot, trees["change"])
        for workload in workloads:
            all_ok = compare(trees, workload, args, better, snapshot) and all_ok
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
