"""Command-line front end: experiments, scenarios, and replays.

Every command writes its outputs plus a manifest.json into --out; a
manifest is enough to re-run the command and get byte-identical CSV
bodies. Exit codes: 0 success, 1 runtime failure, 2 bad flags or a bad
input file (links file, replay manifest).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time
from typing import Dict, List, Optional, Sequence, Tuple

from . import __version__
from .overlay import LinkMetrics
from .scenarios import NSCL_ID, SCENARIO_NAMES, SCENARIOS, ScenarioConfig, run_scenario
from .topology import (
    AT_MOST,
    COMPARISONS,
    ExperimentConfig,
    default_pair_count,
    predicted_degree,
    run_topology_experiment,
)

SERIES_HEADER = ["N", "D", "seed", "pair_index", "avg_degree"]
SUMMARY_HEADER = ["N", "D", "seed", "final_degree", "predicted", "ratio", "saturated"]
MESSAGES_HEADER = ["time_ms", "src", "dst", "relayer", "msg_type", "name"]
COUNTERS_HEADER = ["node", "msg_type", "role", "count"]

BUDGET_ENV = "OSCL_SIM_BUDGET_SECS"


class FlagError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    import csv

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _write_manifest(out_dir: str, command: str, config: Dict, outputs: List[str], started: float) -> None:
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": outputs,
        "duration_secs": time.monotonic() - started,
    }
    path = os.path.join(out_dir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _ensure_out(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path


def _read_text(path: str, what: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise FlagError(f"{path}: cannot read {what}: {exc.strerror}") from None


# ===== topology =====


def _run_topology(config: Dict, out_dir: str) -> int:
    started = time.monotonic()
    exp = ExperimentConfig(
        n_nodes=config["n"],
        max_hops=config["d"],
        seed=config["seed"],
        pair_count=config["pairs"],
        comparison=config["comparison"],
    )
    stats = run_topology_experiment(exp)
    predicted = predicted_degree(exp.n_nodes, exp.max_hops)
    ratio = stats.final_degree / predicted

    series_rows = [
        (exp.n_nodes, exp.max_hops, exp.seed, idx, degree)
        for idx, degree in stats.degree_series
    ]
    summary_rows = [
        (exp.n_nodes, exp.max_hops, exp.seed, stats.final_degree, predicted, ratio, stats.saturated)
    ]
    _write_csv(os.path.join(out_dir, "series.csv"), SERIES_HEADER, series_rows)
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, summary_rows)
    _write_manifest(out_dir, "topology", config, ["series.csv", "summary.csv"], started)
    print(
        f"n={exp.n_nodes} d={exp.max_hops} seed={exp.seed}: "
        f"degree={stats.final_degree:.4f} predicted={predicted:.4f} "
        f"ratio={ratio:.4f} saturated={stats.saturated}"
    )
    if not stats.saturated:
        print("warning: run ended before saturation; increase --pairs", file=sys.stderr)
    return 0


def cmd_topology(args: argparse.Namespace) -> int:
    if args.n < 2:
        raise FlagError("--n must be >= 2")
    if args.d < 1:
        raise FlagError("--d must be >= 1")
    if args.pairs is not None and args.pairs < 1:
        raise FlagError("--pairs must be >= 1")
    config = {
        "n": args.n,
        "d": args.d,
        "seed": args.seed,
        "pairs": args.pairs,
        "comparison": args.comparison,
    }
    return _run_topology(config, _ensure_out(args.out))


# ===== sweep =====


def _sweep_jobs(config: Dict) -> List[Tuple[int, int, int]]:
    return [
        (n, d, seed)
        for n in config["n"]
        for d in config["d"]
        for seed in range(config["seeds"])
    ]


def _run_sweep(config: Dict, out_dir: str) -> int:
    """Run every (n, d, seed) job that fits the time budget.

    Jobs run cheapest first so a tight budget still yields the small
    sizes; the manifest records exactly which jobs ran, and replay uses
    that list instead of re-timing, keeping outputs reproducible.
    """
    started = time.monotonic()
    budget = config["budget_secs"]
    fixed_jobs = config.get("jobs")  # replay path: no timing decisions
    jobs = (
        [tuple(j) for j in fixed_jobs]
        if fixed_jobs is not None
        else sorted(_sweep_jobs(config), key=lambda j: (default_pair_count(j[0]), j[1], j[2]))
    )

    rows = []
    ran: List[Tuple[int, int, int]] = []
    skipped: List[Tuple[int, int, int]] = []
    draws_done = 0
    for n, d, seed in jobs:
        draws = default_pair_count(n)
        if fixed_jobs is None and budget is not None:
            elapsed = time.monotonic() - started
            rate = (elapsed / draws_done) if draws_done else 0.0
            if elapsed + draws * rate > budget:
                skipped.append((n, d, seed))
                continue
        stats = run_topology_experiment(
            ExperimentConfig(n_nodes=n, max_hops=d, seed=seed, comparison=config["comparison"])
        )
        predicted = predicted_degree(n, d)
        rows.append(
            (n, d, seed, stats.final_degree, predicted, stats.final_degree / predicted, stats.saturated)
        )
        ran.append((n, d, seed))
        draws_done += draws
        if not stats.saturated:
            print(f"warning: n={n} d={d} seed={seed} not saturated", file=sys.stderr)

    rows.sort(key=lambda r: (r[1], r[0], r[2]))
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, rows)
    manifest_config = dict(config)
    manifest_config["jobs"] = [list(j) for j in ran]
    _write_manifest(out_dir, "sweep", manifest_config, ["summary.csv"], started)

    for d in config["d"]:
        by_size: Dict[int, List[float]] = {}
        for n, dd, seed, degree, predicted, ratio, _sat in rows:
            if dd == d:
                by_size.setdefault(n, []).append(degree / predicted)
        if not by_size:
            continue
        ratios = [sum(v) / len(v) for v in by_size.values()]
        spread = max(ratios) / min(ratios)
        print(f"d={d}: spread={spread:.4f} over {len(by_size)} sizes")
    if skipped:
        names = ", ".join(f"(n={n}, d={d}, seed={s})" for n, d, s in skipped)
        print(f"warning: budget exhausted, skipped {names}", file=sys.stderr)
    return 0


def _parse_int_list(text: str, flag: str) -> List[int]:
    items = [t for t in text.split(",") if t.strip()]
    if not items:
        raise FlagError(f"{flag} needs at least one value")
    try:
        values = [int(t) for t in items]
    except ValueError as exc:
        raise FlagError(f"{flag}: {exc}") from None
    for i, value in enumerate(values):
        if value in values[:i]:
            raise FlagError(f"{flag} repeats the value {value}")
    return values


def cmd_sweep(args: argparse.Namespace) -> int:
    sizes = _parse_int_list(args.n, "--n")
    hops = _parse_int_list(args.d, "--d")
    if any(n < 2 for n in sizes):
        raise FlagError("--n values must be >= 2")
    if any(d < 1 for d in hops):
        raise FlagError("--d values must be >= 1")
    if args.seeds < 1:
        raise FlagError("--seeds must be >= 1")
    env_budget = os.environ.get(BUDGET_ENV)
    if env_budget is not None:
        try:
            budget: Optional[float] = float(env_budget)
        except ValueError:
            raise FlagError(f"{BUDGET_ENV} must be a number, got {env_budget!r}") from None
        source = BUDGET_ENV
    else:
        budget = args.time_budget
        source = "--time-budget"
    if budget is not None and not budget >= 0:  # also catches NaN
        raise FlagError(f"{source} must be a number >= 0, got {budget!r}")
    config = {
        "n": sizes,
        "d": hops,
        "seeds": args.seeds,
        "seed": None,
        "comparison": args.comparison,
        "budget_secs": budget,
    }
    return _run_sweep(config, _ensure_out(args.out))


# ===== scenario =====


def _parse_links_file(path: str, nodes: Sequence[str]) -> List[List]:
    """key=value escape hatch for custom overlay links.

    Each non-comment line: `link <u> <v> [delay_ms=X] [loss=X] [capacity=X]`.
    Omitted keys take the LinkMetrics defaults, and every line must
    make a valid LinkMetrics. Once every line parses, each link must
    join two distinct ``nodes`` that no earlier line linked.
    """
    parsed: List[Tuple[int, List]] = []  # (line number, link)
    for lineno, raw in enumerate(_read_text(path, "links file").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "link" or len(parts) < 3:
            raise FlagError(f"{path}:{lineno}: expected 'link <u> <v> [k=v ...]'")
        spec = dataclasses.asdict(LinkMetrics())
        try:
            for kv in parts[3:]:
                if "=" not in kv:
                    raise FlagError(f"{path}:{lineno}: expected key=value, got {kv!r}")
                key, value = kv.split("=", 1)
                if key not in spec:
                    raise FlagError(f"{path}:{lineno}: unknown key {key!r}")
                spec[key] = float(value)
            metrics = LinkMetrics(**spec)
        except ValueError as exc:  # not a number, or out of LinkMetrics' range
            raise FlagError(f"{path}:{lineno}: {exc}") from None
        link = [parts[1], parts[2], metrics.delay_ms, metrics.loss, metrics.capacity]
        parsed.append((lineno, link))

    seen: Dict[Tuple[str, str], int] = {}  # (u, v) with u <= v -> line number
    for lineno, (u, v, *_) in parsed:
        for node in (u, v):
            if node not in nodes:
                raise FlagError(
                    f"{path}:{lineno}: unknown node {node!r}; the scenario has {', '.join(nodes)}"
                )
        if u == v:
            raise FlagError(f"{path}:{lineno}: self link {u} -- {v}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise FlagError(f"{path}:{lineno}: repeats the link {u} -- {v} of line {seen[pair]}")
        seen[pair] = lineno
    return [link for _, link in parsed]


def _run_scenario(config: Dict, out_dir: str) -> int:
    started = time.monotonic()
    links = config.get("links")
    result = run_scenario(
        ScenarioConfig(
            scenario=config["name"],
            oscl_enabled=config["oscl"] == "on",
            appends=config["appends"],
            seed=config["seed"],
            links=tuple(tuple(l) for l in links) if links else None,
        )
    )
    system = result.system
    message_rows = [
        (rec.time_ms, rec.src, rec.dst, rec.relayer, rec.msg_type, rec.name)
        for rec in system.log
    ]
    _write_csv(os.path.join(out_dir, "messages.csv"), MESSAGES_HEADER, message_rows)
    _write_csv(os.path.join(out_dir, "counters.csv"), COUNTERS_HEADER, system.counters.rows())
    _write_manifest(out_dir, "scenario", config, ["messages.csv", "counters.csv"], started)

    relayed_notify = system.counters.get(NSCL_ID, "notify", "relayed")
    received_data = system.counters.get(result.subscriber.node_id, "data", "received")
    method = result.discovery.method if result.discovery else "-"
    hops = result.discovery.path_hops if result.discovery else None
    print(
        f"{config['name']} oscl={config['oscl']} appends={config['appends']}: "
        f"discovery={method} path_hops={hops} new_links={result.new_links} "
        f"nscl_relayed_notify={relayed_notify} subscriber_data_received={received_data}"
    )
    return 0


def cmd_scenario(args: argparse.Namespace) -> int:
    if args.name not in SCENARIO_NAMES:
        raise FlagError(f"scenario must be one of {', '.join(SCENARIO_NAMES)}")
    if args.appends < 1:
        raise FlagError("--appends must be >= 1")
    config = {
        "name": args.name,
        "oscl": args.oscl,
        "appends": args.appends,
        "seed": args.seed,
        "links": _parse_links_file(args.links, SCENARIOS[args.name].nodes) if args.links else None,
    }
    return _run_scenario(config, _ensure_out(args.out))


# ===== replay =====


# command -> (runner, the config keys it reads unconditionally)
REPLAYABLE = {
    "topology": (_run_topology, ("n", "d", "seed", "pairs", "comparison")),
    "sweep": (_run_sweep, ("n", "d", "seeds", "comparison", "budget_secs")),
    "scenario": (_run_scenario, ("name", "oscl", "appends", "seed")),
}


def cmd_replay(args: argparse.Namespace) -> int:
    path = args.manifest
    try:
        manifest = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise FlagError(f"{path}:{exc.lineno}: not JSON: {exc.msg}") from None
    if not isinstance(manifest, dict):
        raise FlagError(f"{path}: manifest must be a JSON object, got {type(manifest).__name__}")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in REPLAYABLE:
        raise FlagError(f"{path}: manifest command {command!r} is not replayable")
    runner, keys = REPLAYABLE[command]
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise FlagError(f"{path}: manifest config must be a JSON object")
    missing = [key for key in keys if key not in config]
    if missing:
        raise FlagError(f"{path}: manifest config lacks {', '.join(map(repr, missing))}")
    out_dir = _ensure_out(args.out if args.out else os.path.dirname(os.path.abspath(path)))
    return runner(config, out_dir)


# ===== parser =====


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="oscl-sim",
        description="Simulate an information-centric overlay for M2M service layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topology", help="one topology-formation experiment")
    p_topo.add_argument("--n", type=int, required=True, help="node count (>= 2)")
    p_topo.add_argument("--d", type=int, required=True, help="hop budget (>= 1)")
    p_topo.add_argument("--seed", type=int, default=0)
    p_topo.add_argument("--pairs", type=int, default=None, help="override pair draws")
    p_topo.add_argument("--comparison", choices=COMPARISONS, default=AT_MOST)
    p_topo.add_argument("--out", required=True, help="output directory")
    p_topo.set_defaults(func=cmd_topology)

    p_sweep = sub.add_parser("sweep", help="degree scaling sweep over n and d")
    p_sweep.add_argument("--n", required=True, help="comma-separated node counts")
    p_sweep.add_argument("--d", required=True, help="comma-separated hop budgets")
    p_sweep.add_argument("--seeds", type=int, default=3, help="seeds 0..k-1 per point")
    p_sweep.add_argument("--comparison", choices=COMPARISONS, default=AT_MOST)
    p_sweep.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help=f"seconds; skip jobs projected past it ({BUDGET_ENV} overrides)",
    )
    p_sweep.add_argument("--out", required=True, help="output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_scen = sub.add_parser("scenario", help="replay a smart-metering use case")
    p_scen.add_argument("name", help=f"one of: {', '.join(SCENARIO_NAMES)}")
    p_scen.add_argument("--oscl", choices=("on", "off"), default="on")
    p_scen.add_argument("--appends", type=int, default=5, help="content instances to append")
    p_scen.add_argument("--seed", type=int, default=0)
    p_scen.add_argument("--links", default=None, help="custom overlay links file")
    p_scen.add_argument("--out", required=True, help="output directory")
    p_scen.set_defaults(func=cmd_scenario)

    p_replay = sub.add_parser("replay", help="re-run a command from its manifest")
    p_replay.add_argument("manifest", help="path to manifest.json")
    p_replay.add_argument("--out", default=None, help="output directory (default: manifest's)")
    p_replay.set_defaults(func=cmd_replay)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
