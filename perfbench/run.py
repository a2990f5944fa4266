#!/usr/bin/env python3
"""oscl-sim benchmark: one seeded workload per run, one JSON result line.

Run from the repository root:

    python3 perfbench/run.py --workload overlay-flood --seed 1 --seconds 25 --trace 0

The simulator is imported from ``src/`` next to this directory. With
``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced run. Earlier
lines give the environment, the output digest, the checks and every
metric under its workload-specific name. See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import probe
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_DIR = ROOT / ".perfbench-work"

SETUP_REPEATS = 5
MIN_EPISODES = 2
EPISODE_CAP_S = 60.0  # past this, a run stops after its first episode

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "wall_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER = {  # name -> unit
    "topology.bfs_calls": "count",
    "topology.bfs_us": "us",
    "topology.bfs_share": "share",
    "topology.us_per_draw": "us",
    "topology.us_per_draw_d3": "us",
    "topology.us_per_draw_d5": "us",
    "topology.link_ratio": "share",
    "ndn.on_interest_calls": "count",
    "ndn.on_interest_us": "us",
    "ndn.on_data_calls": "count",
    "ndn.on_data_us": "us",
    "ndn.cs_hits": "count",
    "ndn.aggregated": "count",
    "ndn.drop.loop": "count",
    "ndn.drop.no-route": "count",
    "ndn.drop.unsolicited": "count",
    "ndn.pit_entries_end": "count",
    "overlay.run_calls": "count",
    "overlay.traversals": "count",
    "overlay.loop_self_us_per_traversal": "us",
    "overlay.useful_share": "share",
    "overlay.drops_len_end": "count",
    "overlay.fallback_share": "share",
    "overlay.us_per_traversal_first": "us",
    "overlay.us_per_traversal_last": "us",
    "scl.append_calls": "count",
    "scl.append_us": "us",
    "scl.centralized_discover_calls": "count",
    "scl.centralized_discover_us": "us",
    "scl.resolve_us": "us",
    "scl.counter_records": "count",
    "scl.log_len_end": "count",
    "names.lpm_calls": "count",
    "names.lpm_us": "us",
    "names.parse_us": "us",
    "scenarios.run_scenario_us": "us",
    "cli.write_csv_us": "us",
    "cli.bytes_written": "bytes",
    "runtime.gc_s": "s",
    "runtime.gc_collections": "count",
    "runtime.gc_share": "share",
    "trace.overhead_s": "s",
    "trace.overhead_share": "share",
    "workload.failed_share": "share",
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def environment() -> Dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "oscl_sim").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
        lines = done.stdout.split()
        if done.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "interpreter": f"{platform.python_implementation()} {platform.python_version()}",
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def run_episodes(workload, mods, state, tracer, seconds: float, minimum: int) -> list:
    """Repeat episodes until the next one would end past ``seconds``."""
    episodes = []
    started = time.perf_counter()
    while True:
        gc.collect()
        begin = time.perf_counter()
        episodes.append(workload.episode(mods, state, tracer))
        took = time.perf_counter() - begin
        elapsed = time.perf_counter() - started
        if took > EPISODE_CAP_S or (len(episodes) >= minimum and elapsed + took > seconds):
            return episodes


class Timings:
    """Operation times of a run, rescaled by the speed probe (index 0)
    or raw host seconds without probe time (index 1)."""

    def __init__(self, speed, setup_spans, episodes) -> None:
        self.setup = [speed.nominal(a, b) for a, b in setup_spans]
        self.ops = [
            [speed.nominal(a, b) for a, b in zip(ep.op_begin, ep.op_end)] for ep in episodes
        ]
        self.work = [ep.op_work for ep in episodes]

    def walls(self, which: int = 0) -> List[float]:
        return [sum(op[which] for op in ops) for ops in self.ops]

    def end_to_end(self, which: int) -> Dict[str, float]:
        op_ms = [1e3 * op[which] for ops in self.ops for op in ops]
        walls = self.walls(which)
        return {
            "setup_s": statistics.median(s[which] for s in self.setup),
            "wall_s": statistics.median(walls),
            "ops_per_s": statistics.median(
                sum(work) / wall for work, wall in zip(self.work, walls)
            ),
            "op_p50_ms": percentile(op_ms, 0.50),
            "op_p99_ms": percentile(op_ms, 0.99),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }

    def growth(self, index: int) -> Tuple[float, float]:
        """Nominal µs per unit of work over the first and last quarter of
        one episode's operations."""
        ops, work = self.ops[index], self.work[index]
        quarter = len(ops) // 4
        head = 1e6 * sum(op[0] for op in ops[:quarter]) / sum(work[:quarter])
        tail = 1e6 * sum(op[0] for op in ops[-quarter:]) / sum(work[-quarter:])
        return head, tail


def per_layer(workload, tracer, speed, timings: Timings, traced: list) -> Dict[str, float]:
    """Per-layer metrics of a traced run whose first episode ran untraced.

    Counts are per traced episode, except ``topology.bfs_calls``, which
    is per topology experiment run. Span times are rescaled by the run's
    median probe speed and include the probe's own share of about 1.5%.
    """
    episodes = len(traced)
    counts = tracer.counts
    scale = speed.speed()
    walls = timings.walls()
    untraced_wall, traced_wall = walls[0], statistics.median(walls[1:])

    def per_episode(value: float) -> float:
        return value / episodes

    def fact(key: str) -> float:
        return statistics.median(ep.facts.get(key, 0) for ep in traced)

    def peak(key: str) -> float:
        return max(ep.facts.get(key, 0) for ep in traced)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def mean_us(name: str) -> float:
        return scale * tracer.mean_us(name)

    runs = {d: tracer.spans.get(f"topology.run.d{d}", [0, 0.0, 0.0]) for d in (3, 5)}
    run_calls = sum(r[0] for r in runs.values())
    run_s = scale * sum(r[1] for r in runs.values())
    draws = {d: counts[f"topology.draws.d{d}"] for d in runs}
    traversals = fact("traversals")
    first, last = timings.growth(0) if workload.work_unit == "traversals" else (0.0, 0.0)
    return {
        "topology.bfs_calls": ratio(tracer.calls("topology.bfs"), run_calls),
        "topology.bfs_us": mean_us("topology.bfs"),
        "topology.bfs_share": ratio(scale * tracer.inclusive_s("topology.bfs"), run_s),
        "topology.us_per_draw": ratio(1e6 * run_s, sum(draws.values())),
        "topology.us_per_draw_d3": ratio(1e6 * scale * runs[3][1], draws[3]),
        "topology.us_per_draw_d5": ratio(1e6 * scale * runs[5][1], draws[5]),
        "topology.link_ratio": ratio(counts["topology.links"], sum(draws.values())),
        "ndn.on_interest_calls": per_episode(tracer.calls("ndn.on_interest")),
        "ndn.on_interest_us": mean_us("ndn.on_interest"),
        "ndn.on_data_calls": per_episode(tracer.calls("ndn.on_data")),
        "ndn.on_data_us": mean_us("ndn.on_data"),
        "ndn.cs_hits": per_episode(counts["ndn.cs_hits"]),
        "ndn.aggregated": per_episode(counts["ndn.aggregated"]),
        "ndn.drop.loop": per_episode(counts["ndn.drop.loop"]),
        "ndn.drop.no-route": per_episode(counts["ndn.drop.no-route"]),
        "ndn.drop.unsolicited": per_episode(counts["ndn.drop.unsolicited"]),
        "ndn.pit_entries_end": peak("pit_entries_end"),
        "overlay.run_calls": per_episode(tracer.calls("overlay.run")),
        "overlay.traversals": traversals,
        "overlay.loop_self_us_per_traversal": ratio(
            1e6 * scale * per_episode(tracer.self_s("overlay.run")), traversals
        ),
        "overlay.useful_share": ratio(fact("received"), fact("received") + fact("dropped")),
        "overlay.drops_len_end": peak("drops_len_end"),
        "overlay.fallback_share": ratio(fact("fallbacks"), fact("discovers")),
        "overlay.us_per_traversal_first": first,
        "overlay.us_per_traversal_last": last,
        "scl.append_calls": per_episode(tracer.calls("scl.append")),
        "scl.append_us": mean_us("scl.append"),
        "scl.centralized_discover_calls": per_episode(tracer.calls("scl.centralized_discover")),
        "scl.centralized_discover_us": mean_us("scl.centralized_discover"),
        "scl.resolve_us": mean_us("scl.resolve"),
        "scl.counter_records": per_episode(counts["scl.counter_records"]),
        "scl.log_len_end": peak("log_len_end"),
        "names.lpm_calls": per_episode(tracer.calls("names.lpm")),
        "names.lpm_us": mean_us("names.lpm"),
        "names.parse_us": mean_us("names.parse"),
        "scenarios.run_scenario_us": mean_us("scenarios.run_scenario"),
        "cli.write_csv_us": mean_us("cli.write_csv"),
        "cli.bytes_written": fact("bytes_written"),
        "runtime.gc_s": scale * per_episode(tracer.gc_s),
        "runtime.gc_collections": per_episode(tracer.gc_collections),
        "runtime.gc_share": ratio(scale * per_episode(tracer.gc_s), traced_wall),
        "trace.overhead_s": traced_wall - untraced_wall,
        "trace.overhead_share": ratio(traced_wall - untraced_wall, untraced_wall),
        "workload.failed_share": ratio(
            sum(ep.missed for ep in traced), sum(ep.promised for ep in traced)
        ),
    }


def report(workload, episodes: list, timings: Timings, speed, metrics: Dict[str, float],
           trace: bool) -> None:
    """Human-readable lines; the JSON result follows them."""
    print(f"digest {workload.name} {' '.join(sorted({ep.digest for ep in episodes}))}")
    samples = sum(len(ep.op_work) for ep in episodes)
    promised = sum(ep.promised for ep in episodes)
    missed = sum(ep.missed for ep in episodes)
    counted = "notifications" if workload.name == "metering-notify" else f"{workload.op_name}s"
    print(f"episodes {len(episodes)} {workload.op_name}s {samples} "
          f"host_speed {speed.speed():.4f} probes {len(speed.durations)}")
    print(f"metric failed_share {missed / promised:.6f} share ({missed} of {promised} {counted})")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"metric {name} {metrics[name]:.6g} {unit}")
        return
    raw = timings.end_to_end(1)
    aliases = {
        "ops_per_s": f"{workload.work_unit}_per_s",
        "op_p50_ms": f"{workload.op_name}_p50_ms",
        "op_p99_ms": f"{workload.op_name}_p99_ms",
    }
    for name, unit in END_TO_END.items():
        note = f" (n={samples})" if name in ("op_p50_ms", "op_p99_ms") else ""
        if name != "peak_rss_mb":
            note += f" raw_host {raw[name]:.6g}"
        print(f"metric {aliases.get(name, name)} {metrics[name]:.6g} {unit}{note}")


def measure(workload, seed: int, seconds: float, trace: bool) -> Dict:
    work_dir = str(WORK_DIR)
    with probe.SpeedProbe() as speed:
        setup_spans = []
        for _ in range(SETUP_REPEATS):
            begin = time.perf_counter()
            mods = workloads.fresh_import()
            state = workload.setup(mods, seed, work_dir)
            setup_spans.append((begin, time.perf_counter()))
        started = time.perf_counter()

        if not trace:
            episodes = run_episodes(workload, mods, state, spans.NullTracer(), seconds,
                                    MIN_EPISODES)
        else:
            untraced = workload.episode(mods, state, spans.NullTracer())
            tracer = spans.Tracer()
            try:
                # a traced set-up pass: on overlay-flood, topology runs only there
                setup_tracer = spans.Tracer()
                spans.instrument(setup_tracer, mods)
                try:
                    state = workload.setup(mods, seed, work_dir)
                finally:
                    setup_tracer.restore()
                tracer.absorb(setup_tracer, "topology.")
                spans.instrument(tracer, mods)
                remaining = seconds - (time.perf_counter() - started)
                traced = run_episodes(workload, mods, state, tracer, remaining, 1)
            finally:
                tracer.restore()
            episodes = [untraced] + traced

    timings = Timings(speed, setup_spans, episodes)
    if trace:
        metrics, units = per_layer(workload, tracer, speed, timings, traced), PER_LAYER
    else:
        metrics, units = timings.end_to_end(0), END_TO_END
    report(workload, episodes, timings, speed, metrics, trace)
    return {
        "correct": len({ep.digest for ep in episodes}) == 1
        and not any(ep.failed for ep in episodes),
        "attempted": sum(ep.attempted for ep in episodes),
        "failed": sum(ep.failed for ep in episodes),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "oscl_sim" / "__init__.py").is_file():
        print(f"error: simulator sources not found under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))

    workload = workloads.WORKLOADS[args.workload]()
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    try:
        result = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
