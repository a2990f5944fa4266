"""Golden digests of long scenario runs.

The committed `runs/usecases` outputs stop at 5 appends. These runs go
on long enough for the subscriber's pending Interest to expire (after
about 265 appends on usecase2 and about 800 on usecase1), so later
notifications die as unsolicited Data on the way back. Each digest is
the sha256 of `messages.csv` followed by `counters.csv`, as written by
the `scenario` command.
"""

import hashlib

from oscl_sim.cli import main

GOLDEN_SHA256 = {
    ("usecase1", "on", 300): "1d10f776e238e98be9985b8207410df603a968a4e5108890415d370e9f2d60bd",
    ("usecase1", "on", 900): "7edc4a270130853b196fd37b9d3284fe7bbcdc50e55a22ad10a1fdd317bac75a",
    ("usecase1", "off", 300): "ba847e3f554ba7ffb0b2e49d15aa69016246e59cc944cc43450f10ce9d5c511c",
    ("usecase1", "off", 900): "7fed91b52d559aba22e8a1eedcc3de8448905617794db69b8dafe5942665a2d3",
    ("usecase2", "on", 300): "741b91453d331e78c6683c54a451df6b95d1635523849d4e1d2f730e1acb694d",
    ("usecase2", "on", 900): "1c419916ea6c77f7c1d4a6e8f228edbd5f4cc62ab66952782f5ab3987b52c1db",
    ("usecase2", "off", 300): "7c64c6b60f971f245be9723f8decf0064f3356dae6b9410a1397c6df2e9eff83",
    ("usecase2", "off", 900): "9c88a271a9d2376e2f2754e5b9b3bbbc925555ba1547a0b699c55c9a10b1ed5c",
}


def test_long_scenarios_match_golden_digests(tmp_path, capsys):
    digests = {}
    unsolicited = set()
    for name, oscl, appends in GOLDEN_SHA256:
        out = tmp_path / f"{name}-{oscl}-{appends}"
        argv = ["scenario", name, "--oscl", oscl, "--appends", str(appends), "--out", str(out)]
        assert main(argv) == 0
        messages = (out / "messages.csv").read_bytes()
        counters = (out / "counters.csv").read_bytes()
        digests[(name, oscl, appends)] = hashlib.sha256(messages + counters).hexdigest()
        if b"Gscl1,data,dropped," in counters:
            unsolicited.add((name, oscl, appends))
    capsys.readouterr()
    # the runs reach the expiry: the producer drops notifications it
    # can no longer send back on usecase2 by 300 appends, usecase1 by 900
    assert {("usecase2", "on", 300), ("usecase1", "on", 900)} <= unsolicited
    assert ("usecase1", "on", 300) not in unsolicited
    assert digests == GOLDEN_SHA256
