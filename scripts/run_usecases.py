#!/usr/bin/env python3
"""Run both metering scenarios with the overlay on and off.

Writes message logs, counters and manifests for the four variants
under runs/usecases/, one directory per variant, and prints the
summary line of each. The counter columns are what the two modes are
compared on: hub relaying drops to zero once subscriptions go direct.
A manifest that would change only in its duration is left as it is
(see golden.py).
"""

import sys

import golden


def run_all() -> int:
    worst = 0
    for name in ("usecase1", "usecase2"):
        for oscl in ("on", "off"):
            out = f"runs/usecases/{name}-{oscl}"
            code = golden.run(["scenario", name, "--oscl", oscl], out)
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(run_all())
