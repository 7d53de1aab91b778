"""The four benchmark workloads: inputs made from a seed, the CLI commands
that run them, and the correctness gate each run must pass.

A workload's seed picks only the inputs named in its docstring; grid
sizes, spans and strides are fixed, so every seed does the same amount of
work. Commands are bovirial CLI argument lists (the part after
`python3 -m bovirial.experiment_cli`).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
from dataclasses import dataclass, field

LEMMA_LAMBDAS = (1, 2, 5, 10, 20, 50, 100, 200)
LEMMA_TAGS = ("KM1", "KM2", "COMM", "KEY")
CORPUS_SIZE = 32
I1_DRIFT_MAX = 1e-10
BUDGET_CLOSURE_MAX = 1e-6
F_RATIO_TOLERANCE = 0.10


@dataclass
class Plan:
    """Everything one run of a workload needs, made from one seed."""

    commands: list[list[str]]   # CLI argument lists, run in order
    probe: list[str]            # probe.py arguments: the workload's set-up
    steps: int                  # IF-RK4 steps per run
    records: int                # CSV rows with full budgets per run
    checks: int                 # lemma table rows per run
    jobs: int                   # worker processes of the `run` command
    work_unit: str              # which count work_per_s divides: steps, records or checks
    gate: callable              # gate(out_dir) -> list of failure messages
    csv_files: list[str] = field(default_factory=list)  # digested outputs


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    return path


def _read_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _floats(rows: list[dict], column: str) -> list[float]:
    return [float(r[column]) for r in rows if r[column] != ""]


def _check_run_output(out: str, prefix: str, rows_expected: int) -> tuple[list[str], list[dict]]:
    """Manifest status, row count and mass drift of one `run` output."""
    problems = []
    manifest_path = os.path.join(out, prefix + ".manifest.json")
    csv_path = os.path.join(out, prefix + ".csv")
    if not (os.path.isfile(manifest_path) and os.path.isfile(csv_path)):
        return [f"{prefix}: missing CSV or manifest"], []
    with open(manifest_path, encoding="utf-8") as fh:
        manifest = json.load(fh)
    if manifest.get("status") != "completed":
        problems.append(f"{prefix}: manifest status {manifest.get('status')!r}")
    rows = _read_csv(csv_path)
    if len(rows) != rows_expected:
        problems.append(f"{prefix}: {len(rows)} rows, expected {rows_expected}")
    i1 = _floats(rows, "I1")
    drift = max((abs(v - i1[0]) for v in i1), default=math.inf)
    if not drift <= I1_DRIFT_MAX:
        problems.append(f"{prefix}: max |dI1| = {drift:.3e} above {I1_DRIFT_MAX:g}")
    return problems, rows


def _closure(rows: list[dict], residual: str, terms: tuple[str, ...]) -> float:
    """max |residual| over max |budget term|, over the rows with budgets."""
    res = max(abs(v) for v in _floats(rows, residual))
    scale = max(abs(v) for t in terms for v in _floats(rows, t))
    return res / scale


def soliton_long(seed: int, root: str, work: str) -> Plan:
    """Stock soliton_decay.cfg (n=8192, L=800, 9,500 steps, 191 records),
    then `analyze`. The seed moves soliton.x0 within [-11, -9]."""
    x0 = random.Random(seed).uniform(-11.0, -9.0)
    with open(os.path.join(root, "scripts", "soliton_decay.cfg"), encoding="utf-8") as fh:
        stock = fh.read().splitlines()
    lines = [f"soliton.x0 = {x0!r}" if ln.split("=")[0].strip() == "soliton.x0" else ln
             for ln in stock]
    cfg = _write(os.path.join(work, "soliton_long.cfg"), "\n".join(lines) + "\n")
    prefix = "soliton_decay"

    def gate(out: str) -> list[str]:
        problems, rows = _check_run_output(out, prefix, 191)
        if not rows:
            return problems
        summary_path = os.path.join(out, "summary.json")
        if not os.path.isfile(summary_path):
            return problems + ["analyze wrote no summary.json"]
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        if summary.get("minima_monotone") is not True:
            problems.append("dyadic minima of F are not monotone")
        # The wave (speed -1) sits at x0 - (t - t0) and is narrow next to
        # the window, so F(t) follows phi'(x(t)/lambda(t)).
        first, last = rows[0], rows[-1]
        x_end = x0 - (float(last["t"]) - float(first["t"]))
        predicted = (1.0 + (x0 / float(first["lambda"])) ** 2) / \
            (1.0 + (x_end / float(last["lambda"])) ** 2)
        measured = float(last["F"]) / float(first["F"])
        if not abs(measured / predicted - 1.0) <= F_RATIO_TOLERANCE:
            problems.append(f"F(end)/F(start) = {measured:.4f}, window predicts {predicted:.4f}")
        return problems

    return Plan(
        commands=[
            ["run", "--config", cfg, "--out", "{out}"],
            ["analyze", "--records", os.path.join("{out}", prefix + ".csv"),
             "--a", "0.0", "--c", "1.0", "--out", "{out}"],
        ],
        probe=["config", cfg],
        steps=9500, records=189, checks=0, jobs=1, work_unit="steps", gate=gate,
        csv_files=[prefix + ".csv"],
    )


def budget_dense(seed: int, root: str, work: str) -> Plan:
    """Gaussian at n=2048, L=400, dt=0.001, t 30 -> 32, record_every=1:
    2,001 records, each with full budgets. The seed picks amplitude in
    [0.2, 0.4] and center in [-20, 20]."""
    rng = random.Random(seed)
    amplitude, center = rng.uniform(0.2, 0.4), rng.uniform(-20.0, 20.0)
    prefix = "budget_dense"
    cfg = _write(os.path.join(work, "budget_dense.cfg"), "\n".join([
        "scenario = gaussian", "grid.n = 2048", "grid.length = 400.0",
        "solver.dt = 0.001", "solver.t0 = 30.0", "solver.t_end = 32.0",
        "solver.record_every = 1", "weight.a = 0.25", "weight.c_scale = 1.0",
        f"gaussian.amplitude = {amplitude!r}", "gaussian.width = 10.0",
        f"gaussian.center = {center!r}", f"output.prefix = {prefix}",
    ]) + "\n")

    def gate(out: str) -> list[str]:
        problems, rows = _check_run_output(out, prefix, 2001)
        if not rows:
            return problems
        for name, residual, terms in (
            ("mass", "mass_residual", ("a1", "a2", "a3", "a4")),
            ("energy", "energy_residual", ("b1", "b2", "b3", "b4")),
        ):
            ratio = _closure(rows, residual, terms)
            if not ratio <= BUDGET_CLOSURE_MAX:
                problems.append(f"{name} budget closes to {ratio:.3e} of its largest term")
        return problems

    return Plan(
        commands=[["run", "--config", cfg, "--out", "{out}"]],
        probe=["config", cfg],
        steps=2000, records=1999, checks=0, jobs=1, work_unit="records", gate=gate,
        csv_files=[prefix + ".csv"],
    )


def lemma_sweep(seed: int, root: str, work: str) -> Plan:
    """`check-lemmas` at n=8192, L=800 over eight window scales: the
    32 x 4 x 8 table, then `calibrate` over the same checks. The seed is
    the corpus seed."""
    corpus_seed = random.Random(seed).randrange(1, 2 ** 31)
    lams = ",".join(str(l) for l in LEMMA_LAMBDAS)
    rows_expected = CORPUS_SIZE * len(LEMMA_TAGS) * len(LEMMA_LAMBDAS)

    def gate(out: str) -> list[str]:
        report = os.path.join(out, "lemma_report.csv")
        summary_path = os.path.join(out, "lemma_summary.json")
        if not (os.path.isfile(report) and os.path.isfile(summary_path)):
            return ["missing lemma_report.csv or lemma_summary.json"]
        problems = []
        rows = _read_csv(report)
        if len(rows) != rows_expected:
            problems.append(f"{len(rows)} table rows, expected {rows_expected}")
        if not all(math.isfinite(float(r[c])) for r in rows for c in ("lhs", "rhs_unit", "ratio")):
            problems.append("non-finite entry in the lemma table")
        with open(summary_path, encoding="utf-8") as fh:
            summary = json.load(fh)
        for tag in LEMMA_TAGS:
            sup, cal = summary["sup_ratio"].get(tag), summary["calibrate"].get(tag)
            if sup is None or sup != cal:
                problems.append(f"{tag}: sup_ratio {sup!r} differs from calibrate {cal!r}")
        return problems

    return Plan(
        commands=[["check-lemmas", "--seed", str(corpus_seed), "--grid-n", "8192",
                   "--grid-length", "800", "--lambdas", lams, "--out", "{out}"]],
        probe=["corpus", "8192", "800", str(corpus_seed)],
        steps=0, records=0, checks=rows_expected, jobs=1, work_unit="checks", gate=gate,
        csv_files=["lemma_report.csv"],
    )


def random_ensemble(seed: int, root: str, work: str) -> Plan:
    """Four band-limited random configs (n=4096, L=400, dt=0.004, t 2 -> 22,
    21 records each) in one `run --jobs 2`. The seed picks the four
    random.seed values."""
    rng = random.Random(seed)
    prefixes, cfgs = [], []
    for i in range(4):
        prefix = f"ensemble{i}"
        prefixes.append(prefix)
        cfgs.append(_write(os.path.join(work, prefix + ".cfg"), "\n".join([
            "scenario = random", "grid.n = 4096", "grid.length = 400.0",
            "solver.dt = 0.004", "solver.t0 = 2.0", "solver.t_end = 22.0",
            "solver.record_every = 250", f"random.seed = {rng.randrange(2 ** 31)}",
            "random.bandwidth = 128", "random.amplitude = 0.5",
            f"output.prefix = {prefix}",
        ]) + "\n"))

    def gate(out: str) -> list[str]:
        problems = []
        for prefix in prefixes:
            problems += _check_run_output(out, prefix, 21)[0]
        return problems

    command = ["run"]
    for cfg in cfgs:
        command += ["--config", cfg]
    return Plan(
        commands=[command + ["--jobs", "2", "--out", "{out}"]],
        probe=["config", cfgs[0]],
        steps=4 * 5000, records=4 * 19, checks=0, jobs=2, work_unit="steps", gate=gate,
        csv_files=[p + ".csv" for p in prefixes],
    )


# name -> function making the plan from (seed, source root, work dir)
WORKLOADS = {f.__name__: f for f in (soliton_long, budget_dense, lemma_sweep, random_ensemble)}
