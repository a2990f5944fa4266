"""Golden digests of long scenario runs.

The committed `runs/usecases` outputs stop at 5 appends. These runs go
on long enough for the subscription, the subscribe Interest's pending
entry at the producer, to lapse (after about 265 appends on usecase2
and about 800 on usecase1), so the producer stops notifying and later
readings never reach the subscriber. Each digest is the sha256 of
`messages.csv` followed by `counters.csv`, as written by the
`scenario` command.
"""

import hashlib

from oscl_sim.cli import main

GOLDEN_SHA256 = {
    ("usecase1", "on", 300): "1d10f776e238e98be9985b8207410df603a968a4e5108890415d370e9f2d60bd",
    ("usecase1", "on", 900): "5261f0509126c66cadcf7e0b5bbbc1be59c6293bc398dafc2119f1b10cf2d1c4",
    ("usecase1", "off", 300): "ba847e3f554ba7ffb0b2e49d15aa69016246e59cc944cc43450f10ce9d5c511c",
    ("usecase1", "off", 900): "7fed91b52d559aba22e8a1eedcc3de8448905617794db69b8dafe5942665a2d3",
    ("usecase2", "on", 300): "f4b21d5a88e6f071af8cb540797b194ca9cdecb061331dd52851c1d6ae9f518b",
    ("usecase2", "on", 900): "f4b21d5a88e6f071af8cb540797b194ca9cdecb061331dd52851c1d6ae9f518b",
    ("usecase2", "off", 300): "7c64c6b60f971f245be9723f8decf0064f3356dae6b9410a1397c6df2e9eff83",
    ("usecase2", "off", 900): "9c88a271a9d2376e2f2754e5b9b3bbbc925555ba1547a0b699c55c9a10b1ed5c",
}


def test_long_scenarios_match_golden_digests(tmp_path, capsys):
    digests = {}
    received = {}  # the subscriber's data,received count, overlay runs only
    for name, oscl, appends in GOLDEN_SHA256:
        out = tmp_path / f"{name}-{oscl}-{appends}"
        argv = ["scenario", name, "--oscl", oscl, "--appends", str(appends), "--out", str(out)]
        assert main(argv) == 0
        messages = (out / "messages.csv").read_bytes()
        counters = (out / "counters.csv").read_bytes()
        digests[(name, oscl, appends)] = hashlib.sha256(messages + counters).hexdigest()
        # the producer never sends a notification its own forwarder drops
        assert b"Gscl1,data,dropped," not in counters
        if oscl == "on":
            [received[(name, oscl, appends)]] = [
                int(line.rsplit(b",", 1)[1])
                for line in counters.splitlines()
                if line.startswith(b"Dscl1,data,received,")
            ]
    capsys.readouterr()
    # the runs reach the lapse on usecase2 by 300 appends and usecase1 by
    # 900 (usecase2's count includes the discovery answer); usecase1's
    # subscriber gets all 300
    lapsed = {run for run, count in received.items() if count < run[2]}
    assert lapsed == {("usecase2", "on", 300), ("usecase2", "on", 900), ("usecase1", "on", 900)}
    assert received[("usecase1", "on", 300)] == 300
    assert digests == GOLDEN_SHA256


LOSSY_LINKS = """\
# usecase2's chain with two lossy links and one zero-delay link
link Dscl1 Gscl3 loss=0.2
link Gscl3 Gscl2 delay_ms=0
link Gscl2 Gscl1 loss=0.2
"""

# sha256 of messages.csv + counters.csv, per seed, for 50 appends
LOSSY_SHA256 = {
    0: "80216daf4474b55d67613b2799aecefc4698501c31f8062f8f7b70c9207fd120",
    1: "c4d61adce9f2fdb03700350bdfc47f2093f70962baf64425196e69ce05413744",
    2: "e622c658563e692214c626976da7b4304b43cd2c13ef459a2aea3077eabad0dc",
    3: "7547bb59e17d871d3988f900e700e52001d681cc74db0f2c7c67b25663f9f51c",
}


def test_lossy_links_scenario_matches_golden_digests(tmp_path, capsys):
    links = tmp_path / "lossy.links"
    links.write_text(LOSSY_LINKS)
    digests = {}
    lost = set()
    for seed in LOSSY_SHA256:
        out = tmp_path / f"seed{seed}"
        argv = ["scenario", "usecase2", "--links", str(links), "--appends", "50",
                "--seed", str(seed), "--out", str(out)]
        assert main(argv) == 0
        messages = (out / "messages.csv").read_bytes()
        counters = (out / "counters.csv").read_bytes()
        digests[seed] = hashlib.sha256(messages + counters).hexdigest()
        if b",data,dropped," in counters:
            lost.add(seed)
    capsys.readouterr()
    # seed 0 keeps the lossy chain and loses notifications on it; the
    # other seeds' probes bring up a direct link that carries them
    assert lost == {0}
    assert digests == LOSSY_SHA256
