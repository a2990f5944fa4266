import ast
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given
from hypothesis import strategies as st

import oscl_sim
from oscl_sim import cli
from oscl_sim.cli import build_parser, main
from oscl_sim.topology import (
    ExperimentConfig,
    predicted_degree,
    run_topology_experiment,
    seed_mean_spread,
)

RUNS = Path(__file__).resolve().parents[1] / "runs"
GOLDEN = RUNS / "usecases"


def _read(path):
    return path.read_bytes()


# ===== flag validation, exit code 2 =====


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


def test_topology_rejects_tiny_n(tmp_path, capsys):
    code = main(["topology", "--n", "1", "--d", "3", "--out", str(tmp_path)])
    assert code == 2
    err = capsys.readouterr().err
    assert "--n" in err and ">= 2" in err


def test_topology_rejects_zero_d(tmp_path, capsys):
    assert main(["topology", "--n", "8", "--d", "0", "--out", str(tmp_path)]) == 2
    assert ">= 1" in capsys.readouterr().err


def test_topology_rejects_zero_pairs(tmp_path, capsys):
    code = main(["topology", "--n", "8", "--d", "3", "--pairs", "0", "--out", str(tmp_path)])
    assert code == 2
    assert "--pairs" in capsys.readouterr().err


def test_topology_requires_out(capsys):
    assert main(["topology", "--n", "8", "--d", "3"]) == 2
    capsys.readouterr()


def test_sweep_rejects_empty_and_bad_lists(tmp_path, capsys):
    assert main(["sweep", "--n", ",", "--d", "3", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--n", "8,x", "--d", "3", "--out", str(tmp_path)]) == 2
    assert main(["sweep", "--n", "8", "--d", "3", "--seeds", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sweep", "--n", "8,16,8", "--d", "1,2", "--seeds", "1"], "--n repeats the value 8"),
        (["sweep", "--n", "8,16", "--d", "2,1,2", "--seeds", "1"], "--d repeats the value 2"),
        # no command takes --comparison: --d alone sets the hop rule
        (
            ["topology", "--n", "8", "--d", "2", "--comparison", "strictly-less-d"],
            "unrecognized arguments: --comparison strictly-less-d",
        ),
        (
            ["sweep", "--n", "8", "--d", "2", "--comparison", "at-most-d"],
            "unrecognized arguments: --comparison at-most-d",
        ),
    ],
    ids=["n", "d", "topology-comparison", "sweep-comparison"],
)
def test_sweep_rejects_repeated_values(tmp_path, capsys, argv, message):
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# leaving the flag out means no budget, so no value stands for "unbounded"
@pytest.mark.parametrize("budget", ["-1", "nan", "inf"], ids=["flag--1", "flag-nan", "flag-inf"])
def test_sweep_rejects_negative_or_nan_budget(tmp_path, capsys, budget):
    argv = ["sweep", "--n", "8", "--d", "1", "--seeds", "1", "--out", str(tmp_path / "out")]
    assert main(argv + ["--time-budget", budget]) == 2
    assert "--time-budget must be a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_scenario_rejects_unknown_name_and_bad_oscl(tmp_path, capsys):
    assert main(["scenario", "usecase9", "--out", str(tmp_path)]) == 2
    assert main(["scenario", "usecase1", "--oscl", "maybe", "--out", str(tmp_path)]) == 2
    assert main(["scenario", "usecase1", "--appends", "0", "--out", str(tmp_path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "body, message",
    [
        (None, "manifest.json: cannot read manifest: No such file or directory"),
        ('{"command": "scenario",\n "config": {', "manifest.json:2: not JSON"),
        ('["scenario"]', "manifest.json: manifest must be a JSON object, got list"),
        ('{"command": "scenario", "config": {"oscl": "on", "appends": 3, "seed": 0}}',
         "manifest.json: manifest config lacks 'name'"),
        (b"\xff\xfe", "manifest.json: cannot read manifest: not UTF-8 text"),
    ],
    ids=["missing", "not-json", "not-object", "config-key", "not-utf8"],
)
def test_replay_bad_manifest_is_flag_error(tmp_path, capsys, body, message):
    manifest = tmp_path / "manifest.json"
    if isinstance(body, bytes):
        manifest.write_bytes(body)
    elif body is not None:
        manifest.write_text(body)
    assert main(["replay", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{tmp_path}/{message}" in err
    assert not (tmp_path / "out").exists()


_TOPOLOGY = {"n": 16, "d": 3, "seed": 0, "pairs": None}
_SWEEP = {"n": [8], "d": [1], "seeds": 1, "budget_secs": None}
_SCENARIO = {"name": "usecase1", "oscl": "on", "appends": 3, "seed": 0}


@pytest.mark.parametrize(
    "command, config, message",
    [
        ("topology", {**_TOPOLOGY, "n": "abc"}, "--n must be an integer >= 2, got 'abc'"),
        ("topology", {**_TOPOLOGY, "n": 1}, "--n must be an integer >= 2, got 1"),
        ("sweep", {**_SWEEP, "jobs": [[1, 1, 0]]}, "jobs[0] n must be an integer >= 2, got 1"),
        (
            "sweep",
            {**_SWEEP, "budget_secs": -1},
            "--time-budget must be a finite number >= 0, got -1",
        ),
        (
            "sweep",
            {**_SWEEP, "budget_secs": math.inf},  # json.dumps writes Infinity
            "--time-budget must be a finite number >= 0, got inf",
        ),
        (
            "sweep",
            {**_SWEEP, "jobs": [[8, 1, 0], [64, 7, 5]]},
            "jobs[1] [64, 7, 5] is not a job of --n, --d and --seeds",
        ),
        ("sweep", {**_SWEEP, "jobs": [[8, 1, 0], [8, 1, 0]]}, "jobs[1] repeats the job [8, 1, 0]"),
        ("scenario", {**_SCENARIO, "appends": 0}, "--appends must be an integer >= 1, got 0"),
        (
            "scenario",
            {**_SCENARIO, "links": [["Dscl1", "Gscl9", 5.0, 0.0, 100.0]]},
            "links[0]: unknown node 'Gscl9'",
        ),
        (
            "scenario",
            {
                **_SCENARIO,
                "links": [["Dscl1", "Gscl1", 5.0, 0.0, 100.0], ["Gscl1", "Dscl1", 1.0, 0.0, 100.0]],
            },
            "links[1]: repeats the link Gscl1 -- Dscl1 of links[0]",
        ),
        (
            "scenario",
            {**_SCENARIO, "links": [["Dscl1", "Gscl1", 5.0]]},
            "links[0]: expected [u, v, delay_ms, loss, capacity], got ['Dscl1', 'Gscl1', 5.0]",
        ),
        (
            "topology",
            {**_TOPOLOGY, "links": None},
            "manifest config has 'links', which topology does not read",
        ),
        (
            "sweep",
            {**_SWEEP, "note": math.inf},  # json.dumps writes Infinity
            "manifest config has 'note', which sweep does not read",
        ),
        (
            "scenario",
            {**_SCENARIO, "apends": 500, "jobs": []},
            "manifest config has 'apends', 'jobs', which scenario does not read",
        ),
        # a manifest from a version that still had --comparison
        (
            "topology",
            {**_TOPOLOGY, "comparison": "at-most-d"},
            "manifest config has 'comparison', which topology does not read",
        ),
        (
            "sweep",
            {**_SWEEP, "comparison": "at-most-d"},
            "manifest config has 'comparison', which sweep does not read",
        ),
    ],
    ids=[
        "topology-n-text",
        "topology-n-1",
        "sweep-job",
        "sweep-budget",
        "sweep-budget-infinity",
        "sweep-foreign-job",
        "sweep-repeated-job",
        "scenario-appends-0",
        "scenario-unknown-node",
        "scenario-repeated-link",
        "scenario-short-link",
        "topology-unread-key",
        "sweep-unread-key",
        "scenario-misspelt-key",
        "topology-comparison",
        "sweep-comparison",
    ],
)
def test_replay_checks_config_values(tmp_path, capsys, command, config, message):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": command, "config": config}))
    assert main(["replay", str(manifest), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert f"{manifest}: {message}" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["topology", "sweep", "scenario", "replay"])
@pytest.mark.parametrize("kind", ["file", "under-file"])
def test_unusable_out_is_flag_error(tmp_path, capsys, command, kind):
    blocker = tmp_path / "taken"
    blocker.write_text("")
    out = blocker if kind == "file" else blocker / "x"
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"command": "topology", "config": _TOPOLOGY}))
    argv = {
        "topology": ["topology", "--n", "4", "--d", "2"],
        "sweep": ["sweep", "--n", "4", "--d", "2", "--seeds", "1"],
        "scenario": ["scenario", "usecase1"],
        "replay": ["replay", str(manifest)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert f"error: {out}: cannot use as output directory: " in capsys.readouterr().err
    assert blocker.read_text() == ""


@pytest.mark.parametrize("kind", ["missing", "directory", "not-utf8"])
def test_unreadable_links_file_is_flag_error(tmp_path, capsys, kind):
    links = tmp_path / "links.txt"
    if kind == "directory":
        links.mkdir()
    elif kind == "not-utf8":
        links.write_bytes(b"link Dscl1 Gscl1 \xff\n")
    code = main(["scenario", "usecase1", "--links", str(links), "--out", str(tmp_path / "out")])
    assert code == 2
    assert f"{links}: cannot read links file: " in capsys.readouterr().err


def test_bad_links_file_reports_line(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text("# ok\nlink A B\nedge A C\n")
    code = main(
        ["scenario", "usecase1", "--links", str(links), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert f"{links}:3" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", ["delay_ms=abc", "delay_ms=nan", "delay_ms=inf", "loss=2", "capacity=0", "capacity=inf"]
)
def test_bad_links_value_reports_line(tmp_path, capsys, bad):
    links = tmp_path / "links.txt"
    links.write_text(f"link Dscl1 Gscl1\nlink Gscl1 Nscl {bad}\n")
    code = main(
        ["scenario", "usecase1", "--links", str(links), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert f"{links}:2" in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "line, message",
    [
        ("link Dscl1 Gscl9", "unknown node 'Gscl9'"),
        ("link Gscl1 Gscl1", "self link Gscl1 -- Gscl1"),
        ("link Gscl1 Dscl1 delay_ms=1", "repeats the link Gscl1 -- Dscl1 of line 1"),
        ("link Gscl1 Nscl delay_ms=1 delay_ms=50", "repeats the key 'delay_ms'"),
    ],
    ids=["unknown-node", "self-link", "repeated-link", "repeated-key"],
)
def test_bad_links_line_reports_line(tmp_path, capsys, line, message):
    links = tmp_path / "links.txt"
    links.write_text(f"link Dscl1 Gscl1\n{line}\n")
    code = main(
        ["scenario", "usecase1", "--links", str(links), "--out", str(tmp_path / "out")]
    )
    assert code == 2
    assert f"{links}:2: {message}" in capsys.readouterr().err


# ===== output files =====


_CSV_TEXT = st.text(st.sampled_from([",", '"', "\r", "\n", "a", "\u00e9", " "])) | st.text()
_CSV_FIELD = st.one_of(_CSV_TEXT, st.just(""), st.integers(), st.floats())


@st.composite
def _csv_tables(draw):
    width = draw(st.integers(1, 4))
    header = draw(st.lists(_CSV_TEXT, min_size=width, max_size=width))
    rows = draw(st.lists(st.tuples(*[_CSV_FIELD] * width), max_size=12))
    return header, rows


@given(_csv_tables(), st.integers(1, 4))
def test_write_csv_bytes_are_the_csv_modules(table, block_rows):
    """Small blocks put quoted and plain rows in one table, so blocks of
    both kinds meet at block boundaries. The table is written twice: into
    a fresh file, and over a longer one, whose tail must not survive."""
    header, rows = table
    with tempfile.TemporaryDirectory() as tmp:
        expected, path = os.path.join(tmp, "expected.csv"), os.path.join(tmp, "out.csv")
        with open(expected, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
        want = Path(expected).read_bytes()
        for old in (None, want + b"stale,tail\n" * 3):
            if old is not None:
                Path(path).write_bytes(old)
            with mock.patch.object(cli, "_CSV_BLOCK_ROWS", block_rows):
                cli._write_csv(path, header, iter(rows))
            assert Path(path).read_bytes() == want


def test_manifest_refuses_non_json_numbers(tmp_path):
    with pytest.raises(ValueError):
        cli._write_manifest(str(tmp_path), "sweep", {"note": math.inf}, [], 0.0)
    assert list(tmp_path.iterdir()) == []


def test_manifest_over_a_longer_one_holds_only_the_new_json(tmp_path):
    """The old manifest is moved aside and written over in place; the
    new one ends where its JSON ends."""
    old = json.dumps({"config": {"note": "x" * 4096}}, indent=2)
    (tmp_path / "manifest.json").write_text(old)
    cli._ensure_out(str(tmp_path))
    cli._write_manifest(str(tmp_path), "topology", dict(_TOPOLOGY), ["summary.csv"], 0.0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json"]
    text = (tmp_path / "manifest.json").read_text()
    assert len(text) < len(old)
    manifest = json.loads(text)
    assert manifest["config"] == _TOPOLOGY and manifest["outputs"] == ["summary.csv"]
    assert text == json.dumps(manifest, indent=2, sort_keys=True) + "\n"


def test_failed_rerun_leaves_no_manifest(tmp_path, capsys):
    out = tmp_path / "run"
    argv = ["scenario", "usecase1", "--appends", "3", "--out", str(out)]
    assert main(argv) == 0
    write_csv = cli._write_csv

    def fail_on_counters(path, header, rows):
        if os.path.basename(path) == "counters.csv":
            raise OSError("disk full")
        write_csv(path, header, rows)

    with mock.patch.object(cli, "_write_csv", fail_on_counters):
        assert main(argv) == 1
    assert "error: OSError: disk full" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()
    assert main(["replay", str(out / "manifest.json")]) == 2
    assert "cannot read manifest" in capsys.readouterr().err


def test_failed_replay_keeps_its_recipe(tmp_path, capsys):
    out, fresh = tmp_path / "run", tmp_path / "fresh"
    assert main(["scenario", "usecase1", "--appends", "7", "--out", str(out)]) == 0
    write_csv = cli._write_csv

    def fail_on_counters(path, header, rows):
        if os.path.basename(path) == "counters.csv":
            raise OSError("disk full")
        write_csv(path, header, rows)

    with mock.patch.object(cli, "_write_csv", fail_on_counters):
        assert main(["replay", str(out / "manifest.json")]) == 1
    capsys.readouterr()
    recipe = out / "manifest.json.tmp"
    assert main(["scenario", "usecase1", "--appends", "3", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"{recipe} is the recipe of the previous run" in err
    assert "replay it or remove it" in err
    assert json.loads(recipe.read_text())["config"]["appends"] == 7
    assert not (out / "manifest.json").exists()

    assert main(["replay", str(recipe)]) == 0
    assert json.loads((out / "manifest.json").read_text())["config"]["appends"] == 7
    assert not recipe.exists()
    assert main(["scenario", "usecase1", "--appends", "7", "--out", str(fresh)]) == 0
    for name in ("messages.csv", "counters.csv"):
        assert (out / name).read_bytes() == (fresh / name).read_bytes()


# ===== topology outputs =====


def test_topology_writes_csvs_and_manifest(tmp_path, capsys):
    out = tmp_path / "t1"
    code = main(
        ["topology", "--n", "32", "--d", "3", "--seed", "7", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "n=32 d=3 seed=7" in stdout

    series = (out / "series.csv").read_text()
    lines = series.split("\n")
    assert lines[0] == "N,D,seed,pair_index,avg_degree"
    assert lines[1].startswith("32,3,7,32,")
    assert series.endswith("\n") and "\r" not in series

    summary = (out / "summary.csv").read_text()
    head, row, tail = summary.split("\n")
    assert head == "N,D,seed,final_degree,predicted,ratio,saturated"
    fields = row.split(",")
    assert fields[:3] == ["32", "3", "7"]
    assert fields[4] == repr(6.0532946359034066)
    assert fields[6] in ("true", "false")
    assert tail == ""

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "topology"
    assert manifest["seed"] == 7
    assert manifest["config"]["n"] == 32
    assert sorted(manifest["outputs"]) == ["series.csv", "summary.csv"]
    assert manifest["duration_secs"] >= 0
    assert "version" in manifest


def test_topology_same_seed_same_bytes(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["topology", "--n", "16", "--d", "2", "--seed", "3", "--out", str(out)]) == 0
    capsys.readouterr()
    assert _read(a / "series.csv") == _read(b / "series.csv")
    assert _read(a / "summary.csv") == _read(b / "summary.csv")


def test_topology_replay_is_byte_identical(tmp_path, capsys):
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main(["topology", "--n", "16", "--d", "3", "--seed", "1", "--out", str(first)]) == 0
    assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == 0
    capsys.readouterr()
    assert _read(first / "series.csv") == _read(again / "series.csv")
    assert _read(first / "summary.csv") == _read(again / "summary.csv")


def test_topology_unsaturated_warns(tmp_path, capsys):
    out = tmp_path / "short"
    assert main(
        ["topology", "--n", "16", "--d", "3", "--pairs", "30", "--out", str(out)]
    ) == 0
    captured = capsys.readouterr()
    assert "saturated=False" in captured.out
    assert "saturation" in captured.err


# ===== sweep outputs =====


def test_topology_row_and_criterion_1_spread_are_the_sweeps(tmp_path, capsys):
    one, many = tmp_path / "one", tmp_path / "many"
    assert main(["topology", "--n", "16", "--d", "3", "--seed", "1", "--out", str(one)]) == 0
    assert main(["sweep", "--n", "16,32", "--d", "3", "--seeds", "2", "--out", str(many)]) == 0
    printed = capsys.readouterr().out
    topology_row = (one / "summary.csv").read_text().splitlines()[1]
    rows = (many / "summary.csv").read_text().splitlines()[1:]
    assert rows[1] == topology_row  # n=16, seed 1
    # criterion 1's spread, from the experiment runs, as test_acceptance computes it
    criterion_1 = seed_mean_spread(
        (n, run_topology_experiment(ExperimentConfig(n, 3, seed)).final_degree
         / predicted_degree(n, 3))
        for n in (16, 32)
        for seed in (0, 1)
    )
    fields = [row.split(",") for row in rows]
    assert seed_mean_spread((int(f[0]), float(f[5])) for f in fields) == criterion_1
    assert f"d=3: spread={criterion_1:.4f} over 2 sizes" in printed


def test_sweep_rows_and_spread(tmp_path, capsys):
    out = tmp_path / "sweep"
    code = main(
        ["sweep", "--n", "8,16", "--d", "1,2", "--seeds", "2", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "d=1: spread=" in stdout
    assert "d=2: spread=" in stdout

    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 8  # header + 2 sizes x 2 budgets x 2 seeds
    keys = [tuple(map(int, line.split(",")[:3])) for line in lines[1:]]
    assert keys == sorted(keys, key=lambda k: (k[1], k[0], k[2]))

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sweep"
    assert len(manifest["config"]["jobs"]) == 8


def test_sweep_saturated_column_reads_true_false(tmp_path, capsys):
    out = tmp_path / "sweep"
    # n=8 saturates within its default draws; n=512 at d=3 does not
    assert main(["sweep", "--n", "8,512", "--d", "3", "--seeds", "1", "--out", str(out)]) == 0
    assert "n=512 d=3 seed=0 not saturated" in capsys.readouterr().err
    rows = [line.split(",") for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert [(row[0], row[6]) for row in rows] == [("8", "true"), ("512", "false")]


def test_sweep_zero_budget_skips_everything(tmp_path, capsys):
    out = tmp_path / "sweep0"
    code = main(
        [
            "sweep", "--n", "8,16", "--d", "1", "--seeds", "1",
            "--time-budget", "0", "--out", str(out),
        ]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "skipped" in captured.err
    lines = (out / "summary.csv").read_text().strip().split("\n")
    assert len(lines) == 1  # header only
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["jobs"] == []


def test_sweep_replay_ignores_budget(tmp_path, capsys):
    first = tmp_path / "first"
    assert main(
        ["sweep", "--n", "8,16", "--d", "2", "--seeds", "2", "--out", str(first)]
    ) == 0
    again = tmp_path / "again"
    # replay must rerun the recorded jobs even though the stored budget
    # would now be exhausted instantly
    manifest = json.loads((first / "manifest.json").read_text())
    manifest["config"]["budget_secs"] = 0.0
    (first / "manifest.json").write_text(json.dumps(manifest))
    assert main(["replay", str(first / "manifest.json"), "--out", str(again)]) == 0
    capsys.readouterr()
    assert _read(first / "summary.csv") == _read(again / "summary.csv")


# ===== scenario outputs =====


def test_scenario_outputs_and_replay(tmp_path, capsys):
    out = tmp_path / "s1"
    code = main(
        ["scenario", "usecase1", "--oscl", "off", "--appends", "3", "--out", str(out)]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "usecase1 oscl=off appends=3" in stdout
    assert "nscl_relayed_notify=3" in stdout
    assert "subscriber_data_received=" in stdout

    messages = (out / "messages.csv").read_text()
    assert messages.startswith("time_ms,src,dst,relayer,msg_type,name\n")
    counters = (out / "counters.csv").read_text()
    assert counters.startswith("node,msg_type,role,count\n")

    again = tmp_path / "s1-again"
    assert main(["replay", str(out / "manifest.json"), "--out", str(again)]) == 0
    capsys.readouterr()
    assert _read(out / "messages.csv") == _read(again / "messages.csv")
    assert _read(out / "counters.csv") == _read(again / "counters.csv")


@pytest.mark.parametrize("variant", ["usecase1-on", "usecase1-off", "usecase2-on", "usecase2-off"])
def test_scenario_matches_committed_outputs(tmp_path, capsys, variant):
    name, oscl = variant.split("-")
    assert main(["scenario", name, "--oscl", oscl, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    for output in ("messages.csv", "counters.csv"):
        assert _read(tmp_path / output) == _read(GOLDEN / variant / output)


@pytest.mark.slow
def test_standard_sweep_matches_committed_summary(tmp_path, capsys):
    # the grid scripts/run_degree_sweep.py runs into runs/degree_sweep
    argv = ["sweep", "--n", "32,128,512,2048", "--d", "3,5", "--seeds", "3"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert _read(tmp_path / "summary.csv") == _read(RUNS / "degree_sweep" / "summary.csv")


def test_scenario_with_overlay_prints_summary(tmp_path, capsys):
    out = tmp_path / "s2"
    assert main(["scenario", "usecase2", "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "discovery=distributed" in stdout
    assert "path_hops=3" in stdout
    assert "new_links=0" in stdout
    assert "nscl_relayed_notify=0" in stdout


def test_scenario_links_file_round_trip(tmp_path, capsys):
    links = tmp_path / "links.txt"
    links.write_text(
        "# star through the second gateway\n"
        "link Dscl1 Gscl2 delay_ms=2 capacity=10\n"
        "link Gscl2 Gscl1 delay_ms=2 capacity=10\n"
    )
    out = tmp_path / "custom"
    assert main(
        ["scenario", "usecase2", "--links", str(links), "--out", str(out)]
    ) == 0
    assert "path_hops=2" in capsys.readouterr().out
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["links"] == [
        ["Dscl1", "Gscl2", 2.0, 0.0, 10.0],
        ["Gscl2", "Gscl1", 2.0, 0.0, 10.0],
    ]
    # replay reads links from the manifest, not the file
    links.unlink()
    again = tmp_path / "custom-again"
    assert main(["replay", str(out / "manifest.json"), "--out", str(again)]) == 0
    capsys.readouterr()
    assert _read(out / "messages.csv") == _read(again / "messages.csv")


def test_empty_links_file_means_no_links(tmp_path, capsys):
    # a links file with no link lines is an empty overlay, not the default chain
    links = tmp_path / "links.txt"
    links.write_text("# no links\n")
    out = tmp_path / "bare"
    assert main(["scenario", "usecase2", "--links", str(links), "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    assert "discovery=centralized" in stdout
    assert "new_links=1" in stdout
    assert json.loads((out / "manifest.json").read_text())["config"]["links"] == []
    again = tmp_path / "bare-again"
    assert main(["replay", str(out / "manifest.json"), "--out", str(again)]) == 0
    capsys.readouterr()
    for name in ("messages.csv", "counters.csv"):
        assert _read(out / name) == _read(again / name)


# ===== repeated in-process calls =====


def test_repeated_calls_start_from_the_defaults(tmp_path, capsys):
    assert build_parser() is build_parser()  # the calls below share one parser
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["scenario", "usecase1", "--appends", "7", "--out", str(first)]) == 0
    assert main(["scenario", "usecase1", "--out", str(second)]) == 0
    capsys.readouterr()
    assert json.loads((first / "manifest.json").read_text())["config"]["appends"] == 7
    assert json.loads((second / "manifest.json").read_text())["config"]["appends"] == 5


def test_flag_error_after_a_successful_call(tmp_path, capsys):
    assert main(["scenario", "usecase1", "--out", str(tmp_path / "ok")]) == 0
    capsys.readouterr()
    assert main(["scenario", "usecase1", "--appends", "x", "--out", str(tmp_path / "x")]) == 2
    assert "argument --appends: invalid int value: 'x'" in capsys.readouterr().err
    assert main(["scenario", "usecase1", "--appends", "0", "--out", str(tmp_path / "0")]) == 2
    assert "--appends must be an integer >= 1, got 0" in capsys.readouterr().err
    assert not (tmp_path / "x").exists() and not (tmp_path / "0").exists()


# ===== module entry point =====


def test_module_is_runnable(tmp_path):
    out = tmp_path / "m"
    proc = subprocess.run(
        [
            sys.executable, "-m", "oscl_sim.cli",
            "topology", "--n", "8", "--d", "2", "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (out / "summary.csv").exists()


def test_module_usage_error_exit_code():
    proc = subprocess.run(
        [sys.executable, "-m", "oscl_sim.cli", "topology", "--n", "1", "--d", "3", "--out", "/tmp/x"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2


def test_package_imports_only_the_standard_library():
    package = Path(oscl_sim.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                modules = [node.module]
            else:
                continue
            for module in modules:
                top = module.split(".")[0]
                assert top in sys.stdlib_module_names, f"{path.name} imports {module}"
