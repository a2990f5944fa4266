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
manifest.json, and its manifest.json.tmp, the recipe of the last run
that finished there, stays: the next command into that directory exits
2 rather than write over it, unless it replays that very file.
Truncating an existing file and renaming over one are the two replace
patterns that ext4's auto_da_alloc flushes; on an ext4 root mounted
with discard each cost about ten times an in-place rewrite.
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
from typing import Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Sequence, TextIO, Tuple

from . import __version__
from .overlay import LinkMetrics
from .scenarios import NSCL_ID, SCENARIO_NAMES, SCENARIOS, ScenarioConfig, run_scenario
from .scl import MSG_DATA, MSG_NOTIFY, ROLE_RECEIVED, ROLE_RELAYED, MessageRecord
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
MESSAGES_HEADER = [f.name for f in dataclasses.fields(MessageRecord)]
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
    beside it is the recipe of the last run that finished there, moved
    aside by one that failed: rather than write over it, this raises
    FlagError (exit 2) with ``_recipe``. A replay of that file into its
    own directory does not call this and goes ahead.
    """
    manifest = os.path.join(path, MANIFEST)
    try:
        os.makedirs(path, exist_ok=True)
        try:
            os.replace(manifest, manifest + ".tmp")
        except FileNotFoundError:  # a fresh directory, or one a run failed in
            if os.path.exists(manifest + ".tmp"):
                raise FlagError(_recipe(path)) from None
    except OSError as exc:
        raise FlagError(f"{path}: cannot use as output directory: {exc.strerror}") from None
    return path


def _recipe(out_dir: str) -> str:
    """What a manifest.json.tmp alone in ``out_dir`` is, and what to do with it."""
    return (f"{os.path.join(out_dir, MANIFEST)}.tmp is the recipe of {out_dir}'s "
            "last finished run: replay it or remove it")


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise FlagError(f"{path}: cannot read {what}: {exc.strerror}") from None
    except UnicodeDecodeError:
        raise FlagError(f"{path}: cannot read {what}: not UTF-8 text") from None


def _check_int(value, flag: str, low: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int) or (low is not None and value < low):
        bound = "" if low is None else f" >= {low}"
        raise FlagError(f"{flag} must be an integer{bound}, got {value!r}")


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


def _check_jobs(jobs, config: Dict) -> None:
    """A replayed sweep's record of the jobs that ran: each one a job
    of the sweep's sizes, hop budgets and seeds, none twice."""
    if not isinstance(jobs, list):
        raise FlagError(f"jobs must be a list of [n, d, seed], got {jobs!r}")
    seen = set()
    for i, job in enumerate(jobs):
        if not isinstance(job, list) or len(job) != 3:
            raise FlagError(f"jobs[{i}] must be [n, d, seed], got {job!r}")
        for value, what, low in zip(job, ("n", "d", "seed"), (2, 1, 0)):
            _check_int(value, f"jobs[{i}] {what}", low)
        n, d, seed = job
        if n not in config["n"] or d not in config["d"] or seed >= config["seeds"]:
            raise FlagError(f"jobs[{i}] {job!r} is not a job of --n, --d and --seeds")
        if (n, d, seed) in seen:
            raise FlagError(f"jobs[{i}] repeats the job {job!r}")
        seen.add((n, d, seed))


# ===== scenario =====


def _parse_links_file(path: str) -> Tuple[List[List], Tuple[str, List[int]]]:
    """key=value escape hatch for custom overlay links.

    Each non-comment line: `link <u> <v> [delay_ms=X] [loss=X] [capacity=X]`.
    Omitted keys take the LinkMetrics defaults. Returns the links as
    [u, v, delay_ms, loss, capacity] lists and, for ``_check_links``,
    ``path`` with the line number of each.
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
    return links, (path, lines)


def _check_links(links, config: Dict, source: Optional[Tuple[str, List[int]]]) -> None:
    """Each link must make a valid LinkMetrics and join two distinct
    nodes of the config's scenario that no earlier link joined.
    Messages name a link `links[i]`, or `path:line` when ``source``
    gives the links file and each link's line in it."""
    if not isinstance(links, list):
        raise FlagError(f"links must be a list, got {links!r}")
    nodes = SCENARIOS[config["name"]].nodes
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

    relayed_notify = system.counters.get(NSCL_ID, MSG_NOTIFY, ROLE_RELAYED)
    received_data = system.counters.get(result.subscriber.node_id, MSG_DATA, ROLE_RECEIVED)
    print(
        f"{config['name']} oscl={config['oscl']} appends={config['appends']}: "
        f"discovery={result.discovery.method} path_hops={result.discovery.path_hops} "
        f"new_links={result.new_links} "
        f"nscl_relayed_notify={relayed_notify} subscriber_data_received={received_data}"
    )
    return 0


# ===== parameter tables =====

INTS, LINKS, JOBS, FIXED = "int list", "links", "jobs", "fixed"


class Param(NamedTuple):
    """One config key of a command: the one place it is named.

    ``flag`` sets it on the command line: an option, or a positional
    argument's name (shown as the key), or None. ``kind`` is int; float,
    a finite number; INTS, comma-separated on the command line; LINKS, a
    links file there and its links in the config; JOBS, the jobs a sweep
    ran, which its runner records; FIXED, the default alone; or a tuple
    of strings to choose from. ``low`` is the least int or float, or
    INTS value. ``default`` is MISSING when the command line requires
    the key, and a key whose default is None may be null. A replayed
    manifest may leave out an ``optional`` key.
    """

    key: str
    flag: Optional[str]
    kind: Any
    low: Optional[int] = None
    default: Any = dataclasses.MISSING
    optional: bool = False
    help: Optional[str] = None


class Command(NamedTuple):
    help: str
    params: Tuple[Param, ...]
    runner: Callable[[Dict, str], int]


COMMANDS = {
    "topology": Command("one topology-formation experiment", (
        Param("n", "--n", int, 2, help="node count (>= 2)"),
        Param("d", "--d", int, 1, help="hop budget (>= 1)"),
        Param("seed", "--seed", int, 0, ExperimentConfig.seed, help="RNG seed (>= 0)"),
        Param("pairs", "--pairs", int, 1, ExperimentConfig.pair_count, help="override pair draws"),
    ), _run_topology),
    "sweep": Command("degree scaling sweep over n and d", (
        Param("n", "--n", INTS, 2, help="comma-separated node counts"),
        Param("d", "--d", INTS, 1, help="comma-separated hop budgets"),
        Param("seeds", "--seeds", int, 1, 3, help="seeds 0..k-1 per point"),
        Param("seed", None, FIXED, default=None, optional=True),
        Param("budget_secs", "--time-budget", float, 0, None,
              help="seconds; skip jobs projected past it"),
        Param("jobs", None, JOBS, default=None, optional=True),
    ), _run_sweep),
    "scenario": Command("replay a smart-metering use case", (
        Param("name", "scenario", SCENARIO_NAMES, help=f"one of: {', '.join(SCENARIO_NAMES)}"),
        Param("oscl", "--oscl", ("on", "off"),
              default="on" if ScenarioConfig.oscl_enabled else "off"),
        Param("appends", "--appends", int, 1, ScenarioConfig.appends,
              help="content instances to append"),
        Param("seed", "--seed", int, 0, ScenarioConfig.seed, help="RNG seed (>= 0)"),
        Param("links", "--links", LINKS, default=ScenarioConfig.links, optional=True,
              help="custom overlay links file"),
    ), _run_scenario),
}


def _check(params: Sequence[Param], config: Dict, links_file=None) -> None:
    """Check each key of ``config`` by its row, in table order, so a key
    checked against others comes after them. ``links_file`` is the links
    file and each link's line in it, when the links came from one."""
    for param in params:
        value, kind, label = config.get(param.key), param.kind, param.flag or param.key
        if value is None and param.default is None:
            continue
        if kind is int:
            _check_int(value, label, param.low)
        elif kind is float:  # a bool's type is bool; NaN and infinity fail the bounds
            if type(value) not in (int, float) or not param.low <= value < math.inf:
                raise FlagError(f"{label} must be a finite number >= {param.low}, got {value!r}")
        elif kind == INTS:
            if not isinstance(value, list):
                raise FlagError(f"{label} must be a list of integers, got {value!r}")
            if not value:
                raise FlagError(f"{label} needs at least one value")
            seen = set()
            for item in value:
                _check_int(item, f"{label} values", param.low)
                if item in seen:
                    raise FlagError(f"{label} repeats the value {item}")
                seen.add(item)
        elif kind == LINKS:
            _check_links(value, config, links_file)
        elif kind == JOBS:
            _check_jobs(value, config)
        elif kind == FIXED:
            if value != param.default:
                raise FlagError(f"{label} must be {json.dumps(param.default)}, got {value!r}")
        elif value not in kind:
            raise FlagError(f"{label} must be one of {', '.join(kind)}, got {value!r}")


def _from_manifest(path: str) -> Tuple[str, Dict]:
    """The command and checked config of the manifest at ``path``."""
    try:
        manifest = json.loads(_read_text(path, "manifest"))
    except json.JSONDecodeError as exc:
        raise FlagError(f"{path}:{exc.lineno}: not JSON: {exc.msg}") from None
    except RecursionError:  # the decoder recurses once per nested array or object
        raise FlagError(f"{path}: not JSON: nested too deeply") from None
    if not isinstance(manifest, dict):
        raise FlagError(f"{path}: manifest must be a JSON object, got {type(manifest).__name__}")
    command = manifest.get("command")
    if not isinstance(command, str) or command not in COMMANDS:
        raise FlagError(f"{path}: manifest command {command!r} is not replayable")
    config = manifest.get("config", {})
    if not isinstance(config, dict):
        raise FlagError(f"{path}: manifest config must be a JSON object")
    params = COMMANDS[command].params
    missing = [param.key for param in params if not param.optional and param.key not in config]
    if missing:
        raise FlagError(f"{path}: manifest config lacks {', '.join(map(repr, missing))}")
    # a key no runner reads would be ignored, and copied into the new manifest
    unknown = [key for key in config if key not in {param.key for param in params}]
    if unknown:
        raise FlagError(
            f"{path}: manifest config has {', '.join(map(repr, unknown))}, "
            f"which {command} does not read"
        )
    try:
        _check(params, config)
    except FlagError as exc:
        raise FlagError(f"{path}: {exc}") from None
    return command, config


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    reads it but never changes it."""
    parser = argparse.ArgumentParser(
        prog="oscl-sim",
        description="Simulate an information-centric overlay for M2M service layers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, params, _) in COMMANDS.items():
        p_command = sub.add_parser(command, help=summary)
        for param in (param for param in params if param.flag is not None):
            options = {"type": param.kind} if isinstance(param.kind, type) else {}
            if not param.flag.startswith("-"):  # a positional, whose choice is checked later
                options["metavar"] = param.key
            elif param.default is dataclasses.MISSING:
                options["required"] = True
            else:
                options["default"] = param.default
                if isinstance(param.kind, tuple):
                    options["choices"] = param.kind
            p_command.add_argument(param.flag, help=param.help, **options)
        p_command.add_argument("--out", required=True, help="output directory")

    p_replay = sub.add_parser("replay", help="re-run a command from its manifest")
    p_replay.add_argument("manifest", help="path to manifest.json")
    p_replay.add_argument("--out", default=None, help="output directory (default: manifest's)")
    return parser


def _run(args: argparse.Namespace) -> int:
    """Run a parsed command line and return its exit code: build the
    config from the command's flags by its table, or read it from a
    replayed manifest, check it by the table's rows either way, make the
    output directory and call the runner."""
    # only replay's --out may be left out: a replay then writes beside its manifest
    out = os.path.dirname(os.path.abspath(args.manifest)) if args.out is None else args.out
    try:
        if args.command == "replay":
            command, config = _from_manifest(args.manifest)
            # a failed run's recipe, replayed over what it left, already
            # lies where _ensure_out moves a manifest aside
            recipe = os.path.join(out, MANIFEST + ".tmp")
            if os.path.abspath(args.manifest) != os.path.abspath(recipe):
                _ensure_out(out)
        else:
            command, config, links_file = args.command, {}, None
            params = COMMANDS[command].params
            for param in params:
                value = param.default
                if param.flag is not None:  # the attribute argparse stores the flag's value in
                    value = getattr(args, param.flag.lstrip("-").replace("-", "_"))
                if param.kind == INTS:
                    try:
                        value = [int(t) for t in value.split(",") if t.strip()]
                    except ValueError as exc:
                        raise FlagError(f"{param.flag}: {exc}") from None
                elif param.kind == LINKS and value is not None:
                    value, links_file = _parse_links_file(value)
                config[param.key] = value
            _check(params, config, links_file)
            _ensure_out(out)
        return COMMANDS[command].runner(config, out)
    except FlagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure, not a usage problem
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        manifest = os.path.join(out, MANIFEST)
        if os.path.exists(manifest + ".tmp") and not os.path.exists(manifest):
            print(f"note: {_recipe(out)}", file=sys.stderr)
        return 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return _run(args)


if __name__ == "__main__":
    sys.exit(main())
