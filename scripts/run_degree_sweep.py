#!/usr/bin/env python3
"""Reproduce the degree scaling measurement.

With no arguments this runs the standard grid (n up to 2048, hop
budgets 3 and 5, three seeds) into runs/degree_sweep, whose summary.csv
and manifest.json are committed; a manifest that would change only in
its duration is left as it is (see golden.py). Any arguments are
forwarded to the sweep command instead, e.g.

    scripts/run_degree_sweep.py --n 32,128 --d 3 --seeds 1 --out /tmp/quick
"""

import sys

import golden
from oscl_sim.cli import main

STANDARD = ["--n", "32,128,512,2048", "--d", "3,5", "--seeds", "3"]
OUT = "runs/degree_sweep"

if __name__ == "__main__":
    if len(sys.argv) > 1:
        sys.exit(main(["sweep", *sys.argv[1:]]))
    sys.exit(golden.run(["sweep", *STANDARD], OUT))
