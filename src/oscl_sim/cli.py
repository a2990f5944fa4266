"""Command-line front end: experiments, scenarios, and replays.

Every command writes its outputs plus a manifest.json into --out; a
manifest is enough to re-run the command and get byte-identical CSV
bodies. Exit codes: 0 success, 1 runtime failure, 2 bad flags or a bad
input file (links file, replay manifest).

A rerun into the same directory rewrites each output in place: the
file is opened without truncation, written, and cut at its new end, so
a shorter output leaves no stale tail. The manifest is written last
and marks a finished run: before a command touches any output, an
existing manifest.json is moved aside to manifest.json.tmp; the new
manifest is written over that file and renamed to manifest.json once
every output is written. A run that fails part way leaves no
manifest.json, and its manifest.json.tmp is its recipe: the next
command into that directory exits 2 rather than write over it, unless
it replays that very file. Truncating an existing file and renaming
over one are the two replace patterns that ext4's auto_da_alloc
flushes; on an ext4 root mounted with discard each cost about ten
times an in-place rewrite.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import math
import os
import sys
import time
from itertools import chain, islice
from typing import Dict, Iterator, List, Optional, Sequence, TextIO, Tuple

from . import __version__
from .overlay import LinkMetrics
from .scenarios import NSCL_ID, SCENARIO_NAMES, SCENARIOS, ScenarioConfig, run_scenario
from .topology import (
    ExperimentConfig,
    TopologyStats,
    default_pair_count,
    predicted_degree,
    run_topology_experiment,
    seed_mean_spread,
)

SERIES_HEADER = ["N", "D", "seed", "pair_index", "avg_degree"]
SUMMARY_HEADER = ["N", "D", "seed", "final_degree", "predicted", "ratio", "saturated"]
MESSAGES_HEADER = ["time_ms", "src", "dst", "relayer", "msg_type", "name"]
COUNTERS_HEADER = ["node", "msg_type", "role", "count"]
MANIFEST = "manifest.json"


class FlagError(Exception):
    """Invalid flag combination or value; maps to exit code 2."""


@contextlib.contextmanager
def _rewritten(path: str) -> Iterator[TextIO]:
    """``path`` opened for text output over its old bytes, if any.

    The one way an output is written. The file is created if missing
    and never truncated on open; once the body has all been written, it
    is cut at the final position, so a shorter output leaves no stale
    tail. If writing raises, the file is left as it stands.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", newline="") as fh:
        yield fh
        fh.truncate()


# rows formatted and written per block: bounds the text held at once
# (about 100 KB for messages.csv) while keeping one write per block
_CSV_BLOCK_ROWS = 1024


def _write_csv(path: str, header: Sequence[str], rows) -> None:
    r"""Write ``header`` and ``rows`` as ``csv.writer(lineterminator="\n")``
    would: its bytes are the oracle.

    Every row has one field per header column, and each field is a str,
    int or float, written as stored: csv writes a float as its repr and
    an int as its str, as ``%s`` does, so only a bool needs formatting
    first (see ``_csv_bool``). A block of rows is filled into a
    ``%s,...,%s\n`` template in one step, and that text is csv's when
    no field needs quoting: the block's comma and newline counts show
    that no field holds a delimiter or a line break, and it must hold no
    ``"`` and no ``\r``, which csv 3.11 leaves bare but a newer csv may
    quote. Any other block, and every one-column table, where a row of
    one empty field is written ``""``, goes through csv.writer.

    An existing file at ``path`` is rewritten in place (``_rewritten``):
    not truncated first, and cut at the end of the new table.
    """
    import csv  # on first use: importing the package alone does not load it

    width = len(header)
    template = ",".join(["%s"] * width) + "\n"
    with _rewritten(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        pending = chain((header,), rows)
        while True:
            block = list(islice(pending, _CSV_BLOCK_ROWS))
            if not block:
                break
            count = len(block)
            if width > 1:
                text = (template * count) % tuple(chain.from_iterable(block))
                if not (
                    '"' in text
                    or "\r" in text
                    or text.count(",") != (width - 1) * count
                    or text.count("\n") != count
                ):
                    fh.write(text)
                    continue
            writer.writerows(block)


def _csv_bool(value: bool) -> str:
    return "true" if value else "false"


def _write_manifest(out_dir: str, command: str, config: Dict, outputs: List[str], started: float) -> None:
    """Write the run's manifest.json, after every other output.

    The manifest is serialised first, so one that is refused (NaN and
    Infinity are not JSON) touches no file. The text is then written in
    place over manifest.json.tmp, where ``_ensure_out`` moved the old
    manifest, and renamed to manifest.json, which no longer exists: the
    rename replaces nothing, and a manifest.json present means the run
    that wrote it finished.
    """
    manifest = {
        "command": command,
        "config": config,
        "seed": config.get("seed"),
        "version": __version__,
        "outputs": outputs,
        "duration_secs": time.monotonic() - started,
    }
    text = json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False) + "\n"
    path = os.path.join(out_dir, MANIFEST)
    tmp = path + ".tmp"
    with _rewritten(tmp) as fh:
        fh.write(text)
    os.replace(tmp, path)


def _ensure_out(path: str) -> str:
    """Make the output directory ``path`` and move aside its manifest.

    Every command calls this before it touches any output, so an
    existing manifest.json is renamed to manifest.json.tmp until
    ``_write_manifest`` writes the new manifest over it in place and
    renames it back. Outputs are then rewritten in place, and a
    directory holds a manifest.json only while the outputs beside it
    are the ones it describes. A manifest.json.tmp with no manifest.json
    beside it is the recipe of a run that failed part way: rather than
    write over it, this raises FlagError (exit 2). A replay of that
    file into its own directory does not call this and goes ahead.
    """
    manifest = os.path.join(path, MANIFEST)
    try:
        os.makedirs(path, exist_ok=True)
        try:
            os.replace(manifest, manifest + ".tmp")
        except FileNotFoundError:  # a fresh directory, or one a run failed in
            if os.path.exists(manifest + ".tmp"):
                raise FlagError(
                    f"{manifest}.tmp is the recipe of the previous run into {path}, "
                    "which failed: replay it or remove it"
                ) from None
    except OSError as exc:
        raise FlagError(f"{path}: cannot use as output directory: {exc.strerror}") from None
    return path


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FlagError(f"{path}: cannot read {what}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FlagError(f"{path}: cannot read {what}: not UTF-8 text") from None


# Each command checks its config in one function, whether the config
# came from the command line or from a manifest being replayed.


def _check_int(value, flag: str, low: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise FlagError(f"{flag} must be an integer{bound}, got {value!r}")


def _check_choice(value, flag: str, choices: Sequence[str]) -> None:
    if value not in choices:
        raise FlagError(f"{flag} must be one of {', '.join(choices)}, got {value!r}")


# ===== topology =====


def _run_job(n: int, d: int, seed: int, pairs: Optional[int]) -> Tuple[TopologyStats, Tuple]:
    """One (n, d, seed) experiment: its stats and its SUMMARY_HEADER row."""
    stats = run_topology_experiment(
        ExperimentConfig(n_nodes=n, max_hops=d, seed=seed, pair_count=pairs)
    )
    predicted = predicted_degree(n, d)
    ratio = stats.final_degree / predicted
    return stats, (n, d, seed, stats.final_degree, predicted, ratio, _csv_bool(stats.saturated))


def _run_topology(config: Dict, out_dir: str) -> int:
    started = time.monotonic()
    n, d, seed = config["n"], config["d"], config["seed"]
    stats, row = _run_job(n, d, seed, config["pairs"])
    series_rows = [(n, d, seed, idx, degree) for idx, degree in stats.degree_series]
    _write_csv(os.path.join(out_dir, "series.csv"), SERIES_HEADER, series_rows)
    _write_csv(os.path.join(out_dir, "summary.csv"), SUMMARY_HEADER, [row])
    _write_manifest(out_dir, "topology", config, ["series.csv", "summary.csv"], started)
    degree, predicted, ratio = row[3:6]
    print(
        f"n={n} d={d} seed={seed}: degree={degree:.4f} predicted={predicted:.4f} "
        f"ratio={ratio:.4f} saturated={stats.saturated}"
    )
    if not stats.saturated:
        print("warning: run ended before saturation; increase --pairs", file=sys.stderr)
    return 0


def _check_topology(config: Dict) -> None:
    _check_int(config["n"], "--n", 2)
    _check_int(config["d"], "--d", 1)
    _check_int(config["seed"], "--seed")
    if config["pairs"] is not None:
        _check_int(config["pairs"], "--pairs", 1)


def cmd_topology(args: argparse.Namespace) -> int:
    config = {
        "n": args.n,
        "d": args.d,
        "seed": args.seed,
        "pairs": args.pairs,
    }
    _check_topology(config)
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
        stats, row = _run_job(n, d, seed, None)
        rows.append(row)
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
        ratios = [(row[0], row[5]) for row in rows if row[1] == d]
        if ratios:
            spread = seed_mean_spread(ratios)
            print(f"d={d}: spread={spread:.4f} over {len({n for n, _ in ratios})} sizes")
    if skipped:
        names = ", ".join(f"(n={n}, d={d}, seed={s})" for n, d, s in skipped)
        print(f"warning: budget exhausted, skipped {names}", file=sys.stderr)
    return 0


def _parse_int_list(text: str, flag: str) -> List[int]:
    try:
        return [int(t) for t in text.split(",") if t.strip()]
    except ValueError as exc:
        raise FlagError(f"{flag}: {exc}") from None


def _check_int_list(values, flag: str, low: int) -> None:
    if not isinstance(values, list):
        raise FlagError(f"{flag} must be a list of integers, got {values!r}")
    if not values:
        raise FlagError(f"{flag} needs at least one value")
    for i, value in enumerate(values):
        _check_int(value, f"{flag} values", low)
        if value in values[:i]:
            raise FlagError(f"{flag} repeats the value {value}")


def _check_sweep(config: Dict) -> None:
    _check_int_list(config["n"], "--n", 2)
    _check_int_list(config["d"], "--d", 1)
    _check_int(config["seeds"], "--seeds", 1)
    budget = config["budget_secs"]  # None: no budget
    if budget is not None and (
        isinstance(budget, bool)
        or not isinstance(budget, (int, float))
        or not 0 <= budget < math.inf  # NaN and infinity fail too
    ):
        raise FlagError(f"--time-budget must be a finite number >= 0, got {budget!r}")
    jobs = config.get("jobs")  # a replayed manifest's record of the jobs that ran
    if jobs is not None:
        if not isinstance(jobs, list):
            raise FlagError(f"jobs must be a list of [n, d, seed], got {jobs!r}")
        named = set(_sweep_jobs(config))
        for i, job in enumerate(jobs):
            if not isinstance(job, list) or len(job) != 3:
                raise FlagError(f"jobs[{i}] must be [n, d, seed], got {job!r}")
            for value, what, low in zip(job, ("n", "d", "seed"), (2, 1, 0)):
                _check_int(value, f"jobs[{i}] {what}", low)
            if tuple(job) not in named:
                raise FlagError(f"jobs[{i}] {job!r} is not a job of --n, --d and --seeds")
            if job in jobs[:i]:
                raise FlagError(f"jobs[{i}] repeats the job {job!r}")


def cmd_sweep(args: argparse.Namespace) -> int:
    sizes = _parse_int_list(args.n, "--n")
    hops = _parse_int_list(args.d, "--d")
    config = {
        "n": sizes,
        "d": hops,
        "seeds": args.seeds,
        "seed": None,
        "budget_secs": args.time_budget,
    }
    _check_sweep(config)
    return _run_sweep(config, _ensure_out(args.out))


# ===== scenario =====


def _parse_links_file(path: str) -> Tuple[List[List], List[int]]:
    """key=value escape hatch for custom overlay links.

    Each non-comment line: `link <u> <v> [delay_ms=X] [loss=X] [capacity=X]`.
    Omitted keys take the LinkMetrics defaults. Returns the links as
    [u, v, delay_ms, loss, capacity] lists, for ``_check_links``, and
    the line number of each.
    """
    links: List[List] = []
    lines: List[int] = []
    for lineno, raw in enumerate(_read_text(path, "links file").split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] != "link" or len(parts) < 3:
            raise FlagError(f"{path}:{lineno}: expected 'link <u> <v> [k=v ...]'")
        spec = dataclasses.asdict(LinkMetrics())
        given = set()
        for kv in parts[3:]:
            if "=" not in kv:
                raise FlagError(f"{path}:{lineno}: expected key=value, got {kv!r}")
            key, value = kv.split("=", 1)
            if key not in spec:
                raise FlagError(f"{path}:{lineno}: unknown key {key!r}")
            if key in given:
                raise FlagError(f"{path}:{lineno}: repeats the key {key!r}")
            given.add(key)
            try:
                spec[key] = float(value)
            except ValueError as exc:
                raise FlagError(f"{path}:{lineno}: {exc}") from None
        links.append([parts[1], parts[2], *spec.values()])
        lines.append(lineno)
    return links, lines


def _check_links(links, nodes: Sequence[str], source: Optional[Tuple[str, List[int]]]) -> None:
    """Each link must make a valid LinkMetrics and join two distinct
    ``nodes`` that no earlier link joined. Messages name a link
    `links[i]`, or `path:line` when ``source`` gives the links file and
    each link's line in it."""
    if not isinstance(links, list):
        raise FlagError(f"links must be a list, got {links!r}")
    if source is None:
        where = names = [f"links[{i}]" for i in range(len(links))]
    else:
        path, lines = source
        where = [f"{path}:{lineno}" for lineno in lines]
        names = [f"line {lineno}" for lineno in lines]
    seen: Dict[Tuple[str, str], int] = {}  # (u, v) with u <= v -> link index
    for i, link in enumerate(links):
        if not (
            isinstance(link, list)
            and len(link) == 5
            and all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in link[2:])
        ):
            raise FlagError(f"{where[i]}: expected [u, v, delay_ms, loss, capacity], got {link!r}")
        u, v, *metrics = link
        try:
            LinkMetrics(*metrics)
        except ValueError as exc:
            raise FlagError(f"{where[i]}: {exc}") from None
        for node in (u, v):
            if node not in nodes:
                raise FlagError(
                    f"{where[i]}: unknown node {node!r}; the scenario has {', '.join(nodes)}"
                )
        if u == v:
            raise FlagError(f"{where[i]}: self link {u} -- {v}")
        pair = (min(u, v), max(u, v))
        if pair in seen:
            raise FlagError(f"{where[i]}: repeats the link {u} -- {v} of {names[seen[pair]]}")
        seen[pair] = i


def _check_scenario(config: Dict, links_source: Optional[Tuple[str, List[int]]] = None) -> None:
    _check_choice(config["name"], "scenario", SCENARIO_NAMES)
    _check_choice(config["oscl"], "--oscl", ("on", "off"))
    _check_int(config["appends"], "--appends", 1)
    _check_int(config["seed"], "--seed")
    if config.get("links") is not None:
        _check_links(config["links"], SCENARIOS[config["name"]].nodes, links_source)


def _run_scenario(config: Dict, out_dir: str) -> int:
    started = time.monotonic()
    links = config.get("links")
    result = run_scenario(
        ScenarioConfig(
            scenario=config["name"],
            oscl_enabled=config["oscl"] == "on",
            appends=config["appends"],
            seed=config["seed"],
            links=None if links is None else tuple(tuple(l) for l in links),
        )
    )
    system = result.system
    _write_csv(os.path.join(out_dir, "messages.csv"), MESSAGES_HEADER, system.log.rows())
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
    links, lines = _parse_links_file(args.links) if args.links else (None, None)
    config = {
        "name": args.name,
        "oscl": args.oscl,
        "appends": args.appends,
        "seed": args.seed,
        "links": links,
    }
    _check_scenario(config, (args.links, lines))
    return _run_scenario(config, _ensure_out(args.out))


# ===== replay =====


# command -> (config check, runner, the config keys both read
# unconditionally, the keys they read when present)
REPLAYABLE = {
    "topology": (_check_topology, _run_topology, ("n", "d", "seed", "pairs"), ()),
    "sweep": (_check_sweep, _run_sweep, ("n", "d", "seeds", "budget_secs"), ("seed", "jobs")),
    "scenario": (_check_scenario, _run_scenario, ("name", "oscl", "appends", "seed"), ("links",)),
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
    check, runner, keys, optional = REPLAYABLE[command]
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise FlagError(f"{path}: manifest config must be a JSON object")
    missing = [key for key in keys if key not in config]
    if missing:
        raise FlagError(f"{path}: manifest config lacks {', '.join(map(repr, missing))}")
    # a key no runner reads would be ignored, and copied into the new manifest
    unknown = [key for key in config if key not in keys and key not in optional]
    if unknown:
        raise FlagError(
            f"{path}: manifest config has {', '.join(map(repr, unknown))}, "
            f"which {command} does not read"
        )
    try:
        check(config)
    except FlagError as exc:
        raise FlagError(f"{path}: {exc}") from None
    out_dir = args.out if args.out else os.path.dirname(os.path.abspath(path))
    if os.path.abspath(path) == os.path.abspath(os.path.join(out_dir, MANIFEST + ".tmp")):
        # a failed run's recipe, replayed over what it left: it already
        # lies where _ensure_out moves a manifest aside
        return runner(config, out_dir)
    return runner(config, _ensure_out(out_dir))


# ===== parser =====


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    reads it but never changes it."""
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
    p_topo.add_argument("--out", required=True, help="output directory")
    p_topo.set_defaults(func=cmd_topology)

    p_sweep = sub.add_parser("sweep", help="degree scaling sweep over n and d")
    p_sweep.add_argument("--n", required=True, help="comma-separated node counts")
    p_sweep.add_argument("--d", required=True, help="comma-separated hop budgets")
    p_sweep.add_argument("--seeds", type=int, default=3, help="seeds 0..k-1 per point")
    p_sweep.add_argument(
        "--time-budget",
        type=float,
        default=None,
        help="seconds; skip jobs projected past it",
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
