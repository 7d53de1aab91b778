#!/usr/bin/env python3
"""Run the soliton decay scenario end to end and post-process it.

Integrates scripts/soliton_decay.cfg, then runs the analyzer on the
records it wrote. Prints the headline numbers: the integrated decay, the
dyadic minima of the localized energy, and the measured F(200)/F(10)
against the window prediction.
"""

import argparse
import json
import math
import os
import sys

from bovirial.experiment_cli import main as cli

HERE = os.path.dirname(os.path.abspath(__file__))


def run(out_dir: str) -> int:
    cfg = os.path.join(HERE, "soliton_decay.cfg")
    code = cli(["run", "--config", cfg, "--out", out_dir])
    if code != 0:
        return code
    records = os.path.join(out_dir, "soliton_decay.csv")
    code = cli(["analyze", "--records", records, "--a", "0.0", "--c", "1.0",
                "--out", out_dir])
    if code != 0:
        return code

    with open(os.path.join(out_dir, "summary.json")) as fh:
        summary = json.load(fh)
    minima = summary["dyadic_minima"]
    print()
    print(f"integrated decay     {summary['integrated_decay']:.6f}")
    print(f"dyadic minima        " +
          ", ".join(f"F({t:.0f})={f:.4f}" for t, f in minima))
    print(f"monotone             {summary['minima_monotone']}")

    with open(os.path.join(out_dir, "F_vs_t.dat")) as fh:
        lines = fh.read().split()
    f10, f200 = float(lines[1]), float(lines[-1])
    predicted = (1.0 + math.log(10.0) ** 2) / (1.0 + math.log(200.0) ** 2)
    print(f"F(200)/F(10)         {f200 / f10:.4f}  (window prediction "
          f"{predicted:.4f})")
    if summary["flags"]:
        print("flags:", *summary["flags"], sep="\n  ")
    return 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="decay_study",
                        help="output directory (default ./decay_study)")
    args = parser.parse_args()
    sys.exit(run(args.out))
