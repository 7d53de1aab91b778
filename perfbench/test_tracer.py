"""Self-test of the traced run: FFT counts seen from outside the package
repeat exactly and match the known per-call costs (8 per IF-RK4 step plus
one per recorded state, 26 per budget record, 5.75 per lemma check).

    python3 -m pytest perfbench -q

Small grids keep it to a few seconds; the counts do not depend on n.
"""

import os
import subprocess
import sys

import pytest

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

GAUSSIAN = """scenario = gaussian
grid.n = 256
grid.length = 400.0
solver.dt = 0.01
solver.t0 = 30.0
solver.t_end = 30.2
solver.record_every = 2
weight.a = 0.25
gaussian.amplitude = 0.3
gaussian.width = 10.0
output.prefix = {prefix}
"""
STEPS, STATES = 20, 11


def traced(tmp_path, name: str, args: list[str]) -> dict:
    spans = tmp_path / name
    spans.mkdir()
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    args = [a.replace("{out}", str(tmp_path / (name + "_out"))) for a in args]
    subprocess.run([sys.executable, os.path.join(HERE, "tracer.py"), str(spans), *args],
                   cwd=ROOT, env=env, check=True, capture_output=True)
    return tracer.summarize(str(spans))


def counts(m: dict) -> dict:
    return {k: v for k, v in m.items() if "fft_per" in k or "calls" in k}


@pytest.fixture
def configs(tmp_path):
    paths = []
    for prefix in ("a", "b"):
        path = tmp_path / f"{prefix}.cfg"
        path.write_text(GAUSSIAN.format(prefix=prefix))
        paths.append(str(path))
    return paths


def test_run_counts_repeat_and_match(tmp_path, configs):
    args = ["run", "--config", configs[0], "--out", "{out}"]
    first, second = traced(tmp_path, "r1", args), traced(tmp_path, "r2", args)
    assert counts(first) == counts(second)
    assert first["spectral_core.fft_per_step"] == (8 * STEPS + STATES) / STEPS
    assert first["spectral_core.fft_per_record"] == 26
    assert first["bo_solver.retained_mb"] == STATES * 256 * 8 / 1e6


def test_pool_workers_report_their_spans(tmp_path, configs):
    one = traced(tmp_path, "one", ["run", "--config", configs[0], "--out", "{out}"])
    pool = traced(tmp_path, "pool", ["run", "--config", configs[0], "--config", configs[1],
                                     "--jobs", "2", "--out", "{out}"])
    assert pool["spectral_core.fft_calls"] == 2 * one["spectral_core.fft_calls"]
    assert pool["spectral_core.fft_per_step"] == one["spectral_core.fft_per_step"]


def test_lemma_counts_repeat_and_match(tmp_path):
    args = ["check-lemmas", "--grid-n", "256", "--grid-length", "400",
            "--lambdas", "1,5", "--out", "{out}"]
    first, second = traced(tmp_path, "l1", args), traced(tmp_path, "l2", args)
    assert counts(first) == counts(second)
    assert first["spectral_core.fft_per_check"] == 5.75
    # check-lemmas writes the table, then calibrate runs every check again
    assert first["inequality_harness.useful_check_ratio"] == 0.5
