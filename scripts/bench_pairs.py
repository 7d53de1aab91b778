#!/usr/bin/env python3
"""Run the benchmark in alternating pairs on a reference tree and this tree,
and write a BENCH file.

    python3 scripts/bench_pairs.py REF_TREE --workloads W [W ...] --pairs N [N ...]
        --seconds S --seed-base K [--claim METRIC WORKLOAD] --out BENCH_<n>.json

REF_TREE is a source tree of the commit to compare against, for example
`mkdir ../ref && git archive HEAD~1 | tar -x -C ../ref`. For each workload W,
pair i runs

    python3 perfbench/run.py --workload W --seed K+i --seconds S --trace 0

once in REF_TREE (the parent side) and once in this tree (the change side),
the side that goes first alternating from pair to pair. `--pairs` takes one
count for every workload or one count per workload. Every run's exit code
and last stdout line (perfbench's JSON result, or null) are kept.

Per workload and end-to-end metric of BENCHMARK.json (this tree's), the
summary holds each side's median and quartiles (inclusive method), the pairs
in which the change was better, how much worse the change's median is than
the parent's (a share of the parent's, negative when better), the parent's
quartile spread over its median, the metric's bound and a verdict:

  * `unresolved: parent spread exceeds bound` when the parent's spread is
    wider than the bound, so a regression at the bound could not show,
    unless every run of the change reads better than every run of the
    parent;
  * else `worse than bound` when the change's median is worse by more than
    the bound;
  * else `within bound`.

The claimed (METRIC, WORKLOAD), if any, reads `gain` instead where the change
was better in at least 9 of 10 pairs and its median differs from the
parent's by more than the parent's quartile spread. Each workload also gets
the attempted and failed counts per side, a run with no JSON result counting
as one attempted and failed. The file records the host's cpu count, the
python and numpy versions and whether PYTHONDONTWRITEBYTECODE is set. Stdlib
only.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
COMMAND = "python3 perfbench/run.py --workload {} --seed {} --seconds {:g} --trace 0"


def _run(tree: str, workload: str, seed: int, seconds: float) -> dict:
    """One perfbench run in `tree`: its exit code and its JSON result."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    run = {"returncode": done.returncode, "json": result}
    if done.returncode or result is None:
        run["stderr_tail"] = done.stderr.strip().splitlines()[-5:]
    return run


def _quartiles(values: list[float]) -> list[float]:
    if len(values) == 1:
        return values * 3
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, median, q3]


def _compare(pairs: dict, better: str, bound: float, claimed: bool) -> dict:
    """One metric's summary from {pair: {side: value}}, pairs where a side
    has no value left out."""
    pairs = [p for p in pairs.values() if len(p) == 2]
    if not pairs:
        return {"pairs": 0, "bound": bound, "verdict": "unresolved: no pair of runs"}
    sign = 1.0 if better == "lower" else -1.0  # sign * (change - parent) > 0: worse
    q = {side: _quartiles([p[side] for p in pairs]) for side in SIDES}
    parent, change = q["parent"][1], q["change"][1]
    spread = q["parent"][2] - q["parent"][0]
    wins = sum(sign * (p["change"] - p["parent"]) < 0 for p in pairs)
    # every change run better than every parent run resolves even a wide spread
    apart = max(sign * p["change"] for p in pairs) < min(sign * p["parent"] for p in pairs)
    worse_by = sign * (change - parent) / parent
    if claimed and 10 * wins >= 9 * len(pairs) and sign * (parent - change) > spread:
        verdict = "gain"
    elif spread / parent > bound and not apart:
        verdict = "unresolved: parent spread exceeds bound"
    elif worse_by > bound:
        verdict = "worse than bound"
    else:
        verdict = "within bound"
    return {**{side: {"q1_median_q3": q[side]} for side in SIDES},
            "change_better_pairs": wins, "pairs": len(pairs),
            "median_change_worse_by": worse_by, "parent_iqr_over_median": spread / parent,
            "bound": bound, "verdict": verdict}


def summarize(runs: list[dict], metrics: list[dict], claim=None) -> dict:
    """Per workload of `runs` (dicts with workload, pair, side, json), each
    metric of `metrics` (BENCHMARK.json's end_to_end entries) compared
    across the pairs, plus attempted and failed counts per side. `claim` is
    a (metric, workload) pair or None."""
    summary = {}
    for workload in dict.fromkeys(run["workload"] for run in runs):
        mine = [run for run in runs if run["workload"] == workload]
        entry = {}
        for metric in metrics:
            pairs = {}
            for run in mine:
                value = (run["json"] or {}).get("metrics", {}).get(metric["name"], {}).get("value")
                if value is not None:
                    pairs.setdefault(run["pair"], {})[run["side"]] = value
            entry[metric["name"]] = _compare(pairs, metric["better"], metric["bound"],
                                             claim == (metric["name"], workload))
        for key in ("failed", "attempted"):
            entry[key] = {side: sum((run["json"] or {}).get(key, 1) for run in mine
                                    if run["side"] == side) for side in SIDES}
        summary[workload] = entry
    return summary


def host() -> dict:
    """The host the pairs ran on. `dont_write_bytecode` says whether
    PYTHONDONTWRITEBYTECODE was set (to a non-empty value, as python reads
    it): where it is, every launch compiles bovirial again, which each
    `setup_s` includes."""
    return {"cpu_count": os.cpu_count(), "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"), "machine": platform.machine(),
            "dont_write_bytecode": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("ref_tree")
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--pairs", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seed-base", type=int, required=True)
    parser.add_argument("--claim", nargs=2, metavar=("METRIC", "WORKLOAD"))
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    if len(args.pairs) not in (1, len(args.workloads)):
        parser.error("--pairs takes one count, or one count per workload")
    counts = args.pairs * len(args.workloads) if len(args.pairs) == 1 else args.pairs
    with open(os.path.join(HERE, "BENCHMARK.json"), encoding="utf-8") as fh:
        metrics = json.load(fh)["end_to_end"]
    trees = {"parent": os.path.abspath(args.ref_tree), "change": HERE}

    runs = []
    for workload, count in zip(args.workloads, counts):
        for pair in range(count):
            seed = args.seed_base + pair
            for order, side in enumerate(SIDES[::-1] if pair % 2 else SIDES):
                run = _run(trees[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "pair": pair, "side": side,
                             "first_in_pair": order == 0, **run})
                print(f"{workload} seed {seed} {side}: exit {run['returncode']}",
                      file=sys.stderr, flush=True)

    bench = {
        "command": COMMAND.format("WORKLOAD", "SEED", args.seconds),
        "host": host(),
        "claim": None if args.claim is None else {"metric": args.claim[0],
                                                  "workload": args.claim[1]},
        "seeds": {workload: [args.seed_base, args.seed_base + count - 1]
                  for workload, count in zip(args.workloads, counts)},
        "summary": summarize(runs, metrics, tuple(args.claim) if args.claim else None),
        "runs": runs,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(bench, fh, indent=1)
        fh.write("\n")
    for workload, entry in bench["summary"].items():
        for metric in metrics:
            print(f"{workload} {metric['name']}: {entry[metric['name']]['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
