"""Set-up probe: do what a workload's CLI process does before its first
call into the integrating or checking layer, then exit.

    python3 perfbench/probe.py config FILE            load_config + initial_condition
    python3 perfbench/probe.py corpus N LENGTH SEED   make_grid + build_corpus

The benchmark times this process from launch to exit, so the figure covers
interpreter start, the numpy and bovirial imports and the input set-up.
"""

import sys

from bovirial import experiment_cli as cli


def main(argv: list[str]) -> None:
    if argv[0] == "config":
        cli.initial_condition(cli.load_config(argv[1]))
    elif argv[0] == "corpus":
        cli.build_corpus(cli.make_grid(int(argv[1]), float(argv[2])), seed=int(argv[3]))
    else:
        raise SystemExit(f"unknown probe {argv[0]!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
