"""Recompute the Appendix C reference table the benchmark checks against.

The table holds, for every Fig 3a cell (drum/push/pull x
x in {0, 16, 32, 64, 128}, n=120, alpha=0.1, 10 % malicious), the
expected number of rounds until 99 % of the correct processes hold the
message and its standard deviation, from the exact round-by-round
recursion in ``repro.analysis.numerical`` (``refined=True``), which
gives the whole distribution of that propagation time.  The object_stacks
exact runs use the x=128 cells of the same table.

It takes about two minutes, mostly the pull cells, so it is computed once
and stored beside this file rather than on every benchmark run::

    PYTHONPATH=src python3 perfbench/appendix_c.py
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
TABLE_PATH = os.path.join(HERE, "appendix_c.json")

SETTINGS = {
    "n": 120,
    "alpha": 0.1,
    "malicious_fraction": 0.1,
    "fan_out": 4,
    "loss": 0.01,
    "coverage": 0.99,
    "protocols": ["drum", "push", "pull"],
    "rates": [0, 16, 32, 64, 128],
}
#: The recursion runs until this little probability mass has not yet
#: reached coverage, doubling its horizon as needed.
TAIL_MASS = 1e-6


def propagation_time(protocol, x, settings=SETTINGS):
    """(mean, standard deviation, horizon) of the rounds to coverage."""
    from repro.adversary.attacks import AttackSpec
    from repro.analysis import coverage_curve_attack, coverage_curve_no_attack

    n = settings["n"]
    common = dict(fan_out=settings["fan_out"], loss=settings["loss"],
                  refined=True, track_completion=settings["coverage"])
    rounds = 60
    while True:
        if x == 0:
            # Fig 3a's x=0 column has no attack and no malicious members.
            curves = coverage_curve_no_attack(
                protocol, n, 0, rounds=rounds, **common)
        else:
            b = int(round(settings["malicious_fraction"] * n))
            curves = coverage_curve_attack(
                protocol, n, b, AttackSpec(alpha=settings["alpha"], x=x),
                rounds=rounds, **common)
        if curves.completion[-1] >= 1.0 - TAIL_MASS:
            break
        rounds *= 2
    mean = curves.expected_rounds_to_completion()
    # P(T > t) for t = 0 .. rounds - 1; E[T^2] = sum (2t + 1) P(T > t).
    survival = 1.0 - curves.completion[:-1]
    second = float(((2 * np.arange(rounds) + 1) * survival).sum())
    return mean, math.sqrt(max(0.0, second - mean * mean)), rounds


def main():
    started = time.time()
    means, sds = {}, {}
    for protocol in SETTINGS["protocols"]:
        means[protocol], sds[protocol] = {}, {}
        for x in SETTINGS["rates"]:
            mean, sd, rounds = propagation_time(protocol, x)
            means[protocol][str(x)] = mean
            sds[protocol][str(x)] = sd
            print(f"{protocol:5s} x={x:<4d} E[rounds]={mean:.4f} "
                  f"sd={sd:.4f} (horizon {rounds})", file=sys.stderr)
    table = {"settings": SETTINGS, "expected_rounds": means,
             "sd_rounds": sds}
    with open(TABLE_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {TABLE_PATH} in {time.time() - started:.1f} s",
          file=sys.stderr)


def load_table():
    """``{protocol: {x: (mean, sd)}}`` from the stored table."""
    with open(TABLE_PATH, encoding="utf-8") as handle:
        table = json.load(handle)
    if table["settings"] != SETTINGS:
        raise ValueError(
            f"{TABLE_PATH} was computed for other settings; recompute it "
            f"with: PYTHONPATH=src python3 perfbench/appendix_c.py"
        )
    return {p: {int(x): (mean, table["sd_rounds"][p][x])
                for x, mean in row.items()}
            for p, row in table["expected_rounds"].items()}


if __name__ == "__main__":
    main()
