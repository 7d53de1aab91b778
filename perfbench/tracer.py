"""Run one bovirial CLI command in-process with a span around every call
into a traced layer, and reduce the spans to the per-layer metrics.

    python3 perfbench/tracer.py SPANS_DIR <bovirial CLI arguments>

Spans are recorded from outside the package: the module attributes that
callers look up at call time (`experiment_cli.run_trajectory`,
`inequality_harness.run_check`, `numpy.fft.rfft`, ...) are replaced by
timing wrappers before the CLI's `main` runs. Each span is
(name, start, end, parent, note); the layer is the part of the name
before the first dot. Spans stay in memory and are written as JSON when
the command ends. Worker processes of `run --jobs N` are forked from this
one, inherit the wrappers, and write their own spans each time their
outermost traced call (`_run_one`) returns.
"""

from __future__ import annotations

import functools
import glob
import json
import os
import sys
import time
from collections import Counter, defaultdict

OPS = ("hilbert", "deriv", "frac_deriv", "dealias")
CHECK_TAGS = ("KM1", "KM2", "COMM", "KEY")
FFT = ("spectral_core.rfft", "spectral_core.irfft")
RUN_TRAJECTORY = "bo_solver.run_trajectory"
RECORD_CALLS = ("virial_diagnostics.diag_record", "virial_diagnostics.mass_budget",
                "virial_diagnostics.energy_budget")
RUN_CHECK = "inequality_harness.run_check"
# calls whose FFTs are counted per call
FFT_UNITS = (RUN_TRAJECTORY, RUN_CHECK) + RECORD_CALLS


def _traced_attributes():
    """(module, attribute, span name) for every call boundary traced."""
    import numpy as np

    from bovirial import experiment_cli as cli
    from bovirial import inequality_harness as ih
    from bovirial import virial_diagnostics as vd

    table = [(np.fft, "rfft", FFT[0]), (np.fft, "irfft", FFT[1])]
    # spectral operators as called from the diagnostics and the harness
    for module in (vd, ih):
        for op in OPS:
            attr = "spectral_dealias" if op == "dealias" else op
            table.append((module, attr, f"spectral_core.op.{op}"))
    table.append((cli, "run_trajectory", RUN_TRAJECTORY))
    for attr in ("diag_record", "mass_budget", "energy_budget", "integrated_decay", "lambda_at"):
        table.append((cli, attr, f"virial_diagnostics.{attr}"))
    for attr in ("phi", "phi_prime", "window_prime"):
        table.append((ih, attr, f"virial_diagnostics.{attr}"))
    for attr in ("build_corpus", "run_check", "calibrate"):
        table.append((cli, attr, f"inequality_harness.{attr}"))
    # calibrate's own sweep
    table.append((ih, "run_check", RUN_CHECK))
    for attr in ("_run_one", "load_config", "initial_condition", "run_scenario",
                 "analyze_records", "check_lemmas_cmd"):
        table.append((cli, attr, f"experiment_cli.{attr}"))
    return table


def _note_trajectory(args, kwargs, result):
    u0, cfg = args[0], args[1]
    return {"steps": round((cfg.t_end - cfg.t0) / cfg.dt), "states": len(result), "n": u0.grid.n}


def _note_check(args, kwargs, result):
    return {"tag": args[0], "key": [kwargs.get("input_id", ""), float(args[2])]}


NOTES = {RUN_TRAJECTORY: _note_trajectory, RUN_CHECK: _note_check}


class Recorder:
    """Spans of one process, kept in memory until written."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.main_pid = self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.flushes = 0

    def _own(self) -> None:
        if os.getpid() != self.pid:  # a forked worker starts its own record
            self.pid, self.spans, self.stack, self.flushes = os.getpid(), [], [], 0

    def wrap(self, name: str, fn):
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._own()
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None])
            self.stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                self.spans[idx][1:3] = start, end
            if note is not None:
                self.spans[idx][4] = note(args, kwargs, result)
            if not self.stack and self.pid != self.main_pid:
                self.flush()
            return result

        return traced

    def flush(self) -> None:
        path = os.path.join(self.out_dir, f"spans-{self.pid}-{self.flushes}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))
        self.flushes += 1
        self.spans = []


def main(argv: list[str]) -> int:
    out_dir, cli_args = argv[0], argv[1:]
    rec = Recorder(out_dir)
    for module, attr, name in _traced_attributes():
        setattr(module, attr, rec.wrap(name, getattr(module, attr)))
    from bovirial import experiment_cli

    try:
        return rec.wrap("experiment_cli.main", experiment_cli.main)(cli_args)
    finally:
        rec.flush()


def _ancestor(spans: list, i: int, match) -> int:
    """Index of the nearest ancestor of span i whose name satisfies `match`, or -1."""
    p = spans[i][3]
    while p >= 0 and not match(spans[p][0]):
        p = spans[p][3]
    return p


def _diagnostics(name: str) -> bool:
    return name.startswith("virial_diagnostics.")


def summarize(out_dir: str) -> dict[str, float]:
    """Per-layer metrics from every span file a traced command wrote."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    fft_in: Counter = Counter()       # FFTs per enclosing FFT_UNITS call name
    fft_s_in: defaultdict = defaultdict(float)
    diagnostics_busy = 0.0            # outermost calls into virial_diagnostics
    self_s: defaultdict = defaultdict(float)
    tag_calls: Counter = Counter()
    tag_s: defaultdict = defaultdict(float)
    distinct_checks: set = set()
    steps = retained = 0

    for path in sorted(glob.glob(os.path.join(out_dir, "spans-*.json"))):
        with open(path, encoding="utf-8") as fh:
            spans = json.load(fh)
        child_s = defaultdict(float)
        for name, start, end, parent, _ in spans:
            child_s[parent] += end - start
        for i, (name, start, end, parent, note) in enumerate(spans):
            dur = end - start
            calls[name] += 1
            total[name] += dur
            self_s[name] += dur - child_s[i]
            if _diagnostics(name) and _ancestor(spans, i, _diagnostics) < 0:
                diagnostics_busy += dur
            if name in FFT:
                unit = _ancestor(spans, i, FFT_UNITS.__contains__)
                if unit >= 0:
                    fft_in[spans[unit][0]] += 1
                    fft_s_in[spans[unit][0]] += dur
            elif name == RUN_TRAJECTORY:
                steps += note["steps"]
                retained = max(retained, note["states"] * note["n"] * 8)
            elif name == RUN_CHECK:
                tag_calls[note["tag"]] += 1
                tag_s[note["tag"]] += dur
                distinct_checks.add((note["tag"], *note["key"]))

    def per_call(name: str) -> float:
        return total[name] / calls[name] if calls[name] else 0.0

    m: dict[str, float] = {
        "spectral_core.fft_calls": sum(calls[f] for f in FFT),
        "spectral_core.fft_s": sum(total[f] for f in FFT),
        "spectral_core.fft_per_step": fft_in[RUN_TRAJECTORY] / steps if steps else 0.0,
        "spectral_core.fft_per_record": sum(
            fft_in[f] / calls[f] for f in RECORD_CALLS if calls[f]),
        "spectral_core.fft_per_check": fft_in[RUN_CHECK] / calls[RUN_CHECK]
        if calls[RUN_CHECK] else 0.0,
    }
    for op in OPS:
        m[f"spectral_core.op_calls.{op}"] = calls[f"spectral_core.op.{op}"]
        m[f"spectral_core.op_s.{op}"] = total[f"spectral_core.op.{op}"]
    rt = total[RUN_TRAJECTORY]
    m.update({
        "bo_solver.run_trajectory_s": rt,
        "bo_solver.step_us": rt / steps * 1e6 if steps else 0.0,
        "bo_solver.fft_share": fft_s_in[RUN_TRAJECTORY] / rt if rt else 0.0,
        "bo_solver.retained_mb": retained / 1e6,
        "virial_diagnostics.diag_record_us": per_call(RECORD_CALLS[0]) * 1e6,
        "virial_diagnostics.mass_budget_us": per_call(RECORD_CALLS[1]) * 1e6,
        "virial_diagnostics.energy_budget_us": per_call(RECORD_CALLS[2]) * 1e6,
        "virial_diagnostics.busy_s": diagnostics_busy,
        "inequality_harness.build_corpus_s": total["inequality_harness.build_corpus"],
    })
    for tag in CHECK_TAGS:
        m[f"inequality_harness.run_check_us.{tag}"] = (
            tag_s[tag] / tag_calls[tag] * 1e6 if tag_calls[tag] else 0.0)
    m.update({
        "inequality_harness.calibrate_s": total["inequality_harness.calibrate"],
        "inequality_harness.useful_check_ratio": (
            len(distinct_checks) / calls[RUN_CHECK] if calls[RUN_CHECK] else 0.0),
        "experiment_cli.load_config_s": total["experiment_cli.load_config"],
        "experiment_cli.initial_condition_s": total["experiment_cli.initial_condition"],
        "experiment_cli.write_s": self_s["experiment_cli.run_scenario"]
        + self_s["experiment_cli.check_lemmas_cmd"],
        "experiment_cli.analyze_s": total["experiment_cli.analyze_records"],
    })
    return m


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
