"""bovirial benchmark: run one workload through the CLI, as a user would,
check its outputs, and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in workloads.py, or `all`. Run from the root
of a source checkout; the package is imported from ./src, so nothing needs
installing. Every run makes its inputs from --seed, writes under
perfbench/_work/ and removes what it wrote when it ends.

--trace 0 measures the end-to-end metrics: it repeats the whole workload
for about S seconds, times the workload's set-up in separate probe
processes launched between the repetitions, and reports medians.
--trace 1 repeats pairs of one untraced and one traced (tracer.py) run,
alternating which runs first, for about S seconds and at least three
pairs, and reports the median per-layer metrics and the median tracing
overhead. Either way each run of the workload passes the workload's
correctness gate and a determinism check (sha256 of every CSV written,
compared across runs of one seed on one source tree), or counts as failed.
The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from datetime import datetime

import tracer
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, "_work")
CLI = ["-m", "bovirial.experiment_cli"]
SETUP_SHARE = 0.1        # share of a --trace 0 run spent on set-up probes
OVERHEAD_PAIRS = 3       # least untraced/traced pairs in a --trace 1 run
COMMAND_TIMEOUT_S = 150.0

E2E_UNITS = {"time_to_result_s": "s", "setup_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    **{k: "count" for k in ("spectral_core.fft_calls", "spectral_core.fft_per_step",
                            "spectral_core.fft_per_record", "spectral_core.fft_per_check")},
    **{f"spectral_core.op_calls.{op}": "count" for op in tracer.OPS},
    **{f"spectral_core.op_s.{op}": "s" for op in tracer.OPS},
    "spectral_core.fft_s": "s",
    "bo_solver.run_trajectory_s": "s",
    "bo_solver.step_us": "us",
    "bo_solver.fft_share": "ratio",
    "bo_solver.retained_mb": "MB",
    "virial_diagnostics.diag_record_us": "us",
    "virial_diagnostics.mass_budget_us": "us",
    "virial_diagnostics.energy_budget_us": "us",
    "virial_diagnostics.busy_s": "s",
    "inequality_harness.build_corpus_s": "s",
    **{f"inequality_harness.run_check_us.{t}": "us" for t in tracer.CHECK_TAGS},
    "inequality_harness.calibrate_s": "s",
    "inequality_harness.useful_check_ratio": "ratio",
    "experiment_cli.load_config_s": "s",
    "experiment_cli.initial_condition_s": "s",
    "experiment_cli.write_s": "s",
    "experiment_cli.csv_bytes": "bytes",
    "experiment_cli.analyze_s": "s",
    "experiment_cli.pool_efficiency": "ratio",
    "tracing.overhead_ratio": "ratio",
}


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def spawn(argv: list[str], log: str) -> tuple[int, float, float]:
    """Run argv to completion; return (exit code, wall s, peak RSS MB).

    The peak RSS comes from wait4 on this child, so it is the largest
    resident set among the child and the descendants it waited for. A
    command still running after COMMAND_TIMEOUT_S is killed with its
    process group."""
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=_env(), stdout=fh,
                                stderr=subprocess.STDOUT, start_new_session=True)
        timer = threading.Timer(COMMAND_TIMEOUT_S, _kill_group, (proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return proc.returncode, wall, usage.ru_maxrss * 1024 / 1e6


def _tail(log: str) -> str:
    with open(log, encoding="utf-8", errors="replace") as fh:
        return " | ".join(fh.read().strip().splitlines()[-3:])


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    """Identifies the code under test: package sources and numpy version."""
    import numpy

    h = hashlib.sha256(numpy.__version__.encode())
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "bovirial", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


class DigestStore:
    """CSV digests per (workload, seed, source tree), kept across runs so a
    rerun that writes different bytes is caught."""

    def __init__(self, workload: str, seed: int):
        self.path = os.path.join(WORK, "digests.json")
        self.key = f"{workload}/{seed}/{source_digest()}"

    def check(self, digests: dict) -> str | None:
        try:
            with open(self.path, encoding="utf-8") as fh:
                store = json.load(fh)
        except FileNotFoundError:
            store = {}
        known = store.get(self.key)
        if known is None:
            store[self.key] = digests
            tmp = f"{self.path}.{os.getpid()}"
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(store, fh, indent=1, sort_keys=True)
            os.replace(tmp, self.path)
            return None
        if known != digests:
            changed = sorted(k for k in digests if digests[k] != known.get(k))
            return f"CSV bytes differ from an earlier run of this seed: {changed}"
        return None


def run_workload_once(plan, work: str, tag: str, store: DigestStore, spans_dir: str | None = None) -> dict:
    """One full run of the workload's commands, gated and digested."""
    out = os.path.join(work, tag)
    os.makedirs(out)
    log = os.path.join(work, tag + ".log")
    wall = rss = 0.0
    problems = []
    for cmd in plan.commands:
        args = [a.replace("{out}", out) for a in cmd]
        if spans_dir is None:
            argv = [sys.executable, *CLI, *args]
        else:
            argv = [sys.executable, os.path.join(HERE, "tracer.py"), spans_dir, *args]
        code, w, r = spawn(argv, log)
        wall, rss = wall + w, max(rss, r)
        if code != 0:
            problems.append(f"`{args[0]}` exited {code}: {_tail(log)}")
            break
    if not problems:
        problems += plan.gate(out)
    if not problems:
        mismatch = store.check({n: _sha256(os.path.join(out, n)) for n in plan.csv_files})
        if mismatch:
            problems.append(mismatch)
    return {"out": out, "wall": wall, "rss": rss, "problems": problems}


class SetupProbe:
    """Launch-to-exit times of the workload's set-up probe, and its failures."""

    def __init__(self, plan, work: str):
        self.argv = [sys.executable, os.path.join(HERE, "probe.py"), *plan.probe]
        self.log = os.path.join(work, "probe.log")
        self.times: list[float] = []

    def launch(self, keep: bool = True) -> list[str]:
        code, wall, _ = spawn(self.argv, self.log)
        if keep:
            self.times.append(wall)
        return [f"set-up probe exited {code}: {_tail(self.log)}"] if code else []


def pool_efficiency(out: str, jobs: int, wall: float) -> float:
    """Sum over configs of manifest (finished - started), over jobs x wall."""
    busy = 0.0
    for path in glob.glob(os.path.join(out, "*.manifest.json")):
        with open(path, encoding="utf-8") as fh:
            m = json.load(fh)
        busy += (datetime.fromisoformat(m["finished"])
                 - datetime.fromisoformat(m["started"])).total_seconds()
    return busy / (jobs * wall)


def csv_bytes(out: str) -> int:
    return sum(os.path.getsize(p) for p in glob.glob(os.path.join(out, "*.csv")))


def measure(name: str, seed: int, seconds: float, work: str) -> tuple[list[dict], dict, list[str]]:
    """--trace 0: end-to-end metrics."""
    plan = WORKLOADS[name](seed, ROOT, work)
    store = DigestStore(name, seed)
    probe = SetupProbe(plan, work)
    warmup_problems = probe.launch(keep=False)  # warms the file cache and byte-code
    runs = []
    start = time.perf_counter()
    while True:
        run = run_workload_once(plan, work, f"run{len(runs)}", store)
        shutil.rmtree(run["out"])
        runs.append(run)
        # Set-up probes follow every repetition, so they see the same host
        # state as the timed runs; they take about SETUP_SHARE of the time.
        run["problems"] += probe.launch()
        while sum(probe.times) < SETUP_SHARE * sum(r["wall"] for r in runs):
            run["problems"] += probe.launch()
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > seconds:
            break
    runs[0]["problems"] += warmup_problems
    walls = [r["wall"] for r in runs]
    setup_s = statistics.median(probe.times)
    work_count = getattr(plan, plan.work_unit)
    metrics = {
        "time_to_result_s": statistics.median(walls),
        "setup_s": setup_s,
        "work_per_s": statistics.median(work_count / (w - setup_s) for w in walls),
        "peak_rss_mb": statistics.median(r["rss"] for r in runs),
    }
    failed = sum(1 for r in runs if r["problems"])
    lines = [f"workload {name}  seed {seed}  runs {len(runs)}  failed {failed}"]
    lines.append(f"  time_to_result_s  {metrics['time_to_result_s']:.4f} s  "
                 f"(median of {len(runs)}; max {max(walls):.4f})")
    lines.append("  each run, s       " + " ".join(f"{w:.3f}" for w in walls))
    lines.append(f"  setup_s           {setup_s:.4f} s  (median of {len(probe.times)} probes; "
                 f"max {max(probe.times):.4f})")
    for unit in ("steps", "records", "checks"):
        count = getattr(plan, unit)
        if count:
            rate = statistics.median(count / (w - setup_s) for w in walls)
            lines.append(f"  {unit}_per_s{' ' * (12 - len(unit))}{rate:.2f} 1/s  ({count} {unit} a run)")
    lines.append(f"  work_per_s        {metrics['work_per_s']:.2f} 1/s  ({plan.work_unit})")
    lines.append(f"  peak_rss_mb       {metrics['peak_rss_mb']:.2f} MB  "
                 f"(largest process of the workload's tree)")
    lines.append(f"  error_rate        {failed / len(runs):g}  ({failed}/{len(runs)})")
    return runs, {k: (v, E2E_UNITS[k]) for k, v in metrics.items()}, lines


def trace(name: str, seed: int, seconds: float, work: str) -> tuple[list[dict], dict, list[str]]:
    """--trace 1: per-layer metrics from traced runs, each paired with an
    untraced run. Pairs repeat for about `seconds`, at least OVERHEAD_PAIRS
    times; every metric is the median over the pairs."""
    plan = WORKLOADS[name](seed, ROOT, work)
    store = DigestStore(name, seed)
    runs, layers, overheads, pool = [], [], [], []
    start = time.perf_counter()
    while True:
        i = len(overheads)
        spans_dir = os.path.join(work, f"spans{i}")
        os.makedirs(spans_dir)
        # Every other pair runs the traced side first, so a trend in host
        # speed does not land on one side. The digest store also holds the
        # traced run to the untraced run's bytes.
        sides = [("untraced", None), ("traced", spans_dir)]
        pair = {side: run_workload_once(plan, work, f"{side}{i}", store, spans)
                for side, spans in (sides if i % 2 == 0 else sides[::-1])}
        plain, traced = pair["untraced"], pair["traced"]
        runs += [plain, traced]
        layer = tracer.summarize(spans_dir)
        layer["experiment_cli.csv_bytes"] = csv_bytes(plain["out"])
        layers.append(layer)
        overheads.append(traced["wall"] / plain["wall"] - 1.0)
        if plan.jobs > 1:
            pool.append(pool_efficiency(plain["out"], plan.jobs, plain["wall"]))
        for r in (plain, traced):
            shutil.rmtree(r["out"])
        elapsed = time.perf_counter() - start
        if len(overheads) >= OVERHEAD_PAIRS and elapsed + elapsed / len(overheads) > seconds:
            break
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    metrics["experiment_cli.pool_efficiency"] = statistics.median(pool) if pool else 0.0
    metrics["tracing.overhead_ratio"] = statistics.median(overheads)
    lines = [f"workload {name}  seed {seed}  traced  ({len(overheads)} untraced/traced pairs)",
             "  untraced, s " + " ".join(f"{r['wall']:.3f}" for r in runs[0::2]),
             "  traced, s   " + " ".join(f"{r['wall']:.3f}" for r in runs[1::2])]
    for key, value in metrics.items():
        lines.append(f"  {key:44s} {value:.6g} {LAYER_UNITS[key]}")
    return runs, {k: (v, LAYER_UNITS[k]) for k, v in metrics.items()}, lines


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    work = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        runs, metrics, lines = trace(name, seed, seconds, work) if traced else measure(name, seed, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for r in runs:
        for p in r["problems"]:
            lines.append(f"  FAILED: {p}")
    print("\n".join(lines), flush=True)
    failed = sum(1 for r in runs if r["problems"])
    return {"correct": failed == 0, "attempted": len(runs), "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = [os.path.join(ROOT, "src", "bovirial", "experiment_cli.py"),
              os.path.join(ROOT, "scripts", "soliton_decay.cfg")]
    missing = [p for p in needed if not os.path.isfile(p)]
    if missing:
        print(f"error: not a bovirial source checkout; missing {missing}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {n: run_one(n, args.seed, args.seconds, bool(args.trace)) for n in names}
    if len(results) == 1:
        result = results[names[0]]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
