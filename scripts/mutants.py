#!/usr/bin/env python3
"""Run tier-1 on each mutant of a catalogue of one-line bugs in src.

    python3 scripts/mutants.py [--tree TREE] [NAME ...]

Each entry of MUTANTS names a file under `src/bovirial/`, one line of it
(compared without its indentation), the line that replaces it, and why the
bug is plausible. For each mutant (every one, or those NAMEd) the script
copies TREE's `src/`, `tests/` and what the tests read (`scripts/`,
`perfbench/`, `pyproject.toml`) into a new temporary directory, swaps the
line there, and runs tier-1 in that copy, less `tests/test_mutants.py`,
which fails on every mutant by design:

    python -m pytest -q -p no:cacheprovider --continue-on-collection-errors

It prints one table row per mutant: `killed` when any test fails or
errors beyond the by-design failures of BY_DESIGN, else `survived`, with
the number of such tests. A mutant whose old line is not exactly once in
TREE's file reads `not applicable` (a catalogue entry written for a later
tree), and a run that exceeds TIMEOUT seconds reads `killed (timeout)`.
TREE defaults to the tree that holds this script; a tree of an earlier
commit can be made offline with
`mkdir ../ref && git archive HEAD~1 | tar -x -C ../ref`.

Nothing is written inside TREE: each copy is removed after its run, and
the run's process group is killed after it, on a timeout and on SIGTERM
too, so no budgets process outlives it. Stdlib only; one mutant takes about as long as tier-1 (10-30 s
on two cores). Not part of tier-1; `tests/test_mutants.py` only checks that
every entry still names a line of this tree.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
from typing import NamedTuple

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
COPIED = ("src", "tests", "scripts", "perfbench", "pyproject.toml")
TIMEOUT = 600
# tier-1's two by-design failures (README, "Known limitations")
BY_DESIGN = frozenset({
    "tests/test_acceptance.py::test_criterion_2_transform_of_window_bump",
    "tests/test_acceptance.py::test_criterion_6_km1_supremum_uniform_in_window_scale",
})


class Mutant(NamedTuple):
    name: str
    path: str  # under src/bovirial/
    old: str  # one line of the file, without its indentation
    new: str
    why: str


MUTANTS = (
    Mutant("dealias_at_half", "spectral_core.py",
           "hil, dx, keep = -1j * ((k > 0) & paired), 1j * xi_r * paired, 1.0 * (k <= n // 3)",
           "hil, dx, keep = -1j * ((k > 0) & paired), 1j * xi_r * paired, 1.0 * (k <= n // 2)",
           "the 2/3 rule mistaken for a Nyquist cut: the quadratic flux then aliases"),
    Mutant("rk4_stage2_no_factor", "bo_solver.py",
           "self.flux(mul(e1, add(vh, mul(0.5 * dt, k1, out=y), out=y), out=y), k2)",
           "self.flux(add(vh, mul(0.5 * dt, k1, out=y), out=y), k2)",
           "an integrating factor left out of one IF-RK4 stage still gives a stable step"),
    Mutant("rk4_stage4_no_factor", "bo_solver.py",
           "self.flux(add(e2vh, mul(dt, mul(e1, k3, out=y), out=y), out=y), k4)",
           "self.flux(add(e2vh, mul(dt, k3, out=y), out=y), k4)",
           "as above, in the last stage, where k3 sits half a step behind"),
    Mutant("eta_log_power", "virial_diagnostics.py",
           "return 1.0 / (t * math.log(t))",
           "return 1.0 / (t * math.log(t) ** 1.1)",
           "the integrable measure 1/(t log^1.1 t) in place of the paper's borderline one"),
    Mutant("half_derivative_exponent", "spectral_core.py",
           '("_half_sym", xi_r ** 0.5)):',
           '("_half_sym", xi_r ** 0.51)):',
           "a mistyped exponent of D^{1/2}, which every energy and KM/COMM pairing uses"),
    Mutant("fourier_l1_not_doubled", "spectral_core.py",
           "total = mag[0] + 2.0 * float(np.sum(mag[1:-1])) + mag[-1]",
           "total = mag[0] + float(np.sum(mag[1:-1])) + mag[-1]",
           "the half spectrum's negative-k partners forgotten in an l1 norm"),
    Mutant("display_energy_cubic_half", "bo_solver.py",
           "e = spacing * np.array([np.dot(row, row) for row in dh]) - cubic / 3.0",
           "e = spacing * np.array([np.dot(row, row) for row in dh]) - cubic / 2.0",
           "the cubic coefficient of the other normalization of the equation"),
    Mutant("centred_difference_span", "virial_diagnostics.py",
           "(m, e), two_h = terms, 2.0 * h",
           "(m, e), two_h = terms, 2.0001 * h",
           "a centred difference over a span that is not the neighbours' distance"),
    Mutant("b3_lambda_scale", "virial_diagnostics.py",
           '"b3": -w * (d31 + d32 / lams), "d31": d31, "d32": d32, "d322": d322,',
           '"b3": -w * (d31 + d32 / (1.01 * lams)), "d31": d31, "d32": d32, "d322": d322,',
           "the window scale taken at a slightly different time than the pairing"),
    Mutant("flux_scale", "bo_solver.py",
           "return np.multiply(np.fft.rfft(square, out=out), sym, out=out)",
           "return np.multiply(np.fft.rfft(square, out=out), 1.001 * sym, out=out)",
           "a nonlinearity off by a constant factor, as with the other normalization"),
    Mutant("growth_bracket_power", "bo_solver.py",
           "bracket = np.sqrt(1.0 + ts * ts)",
           "bracket = np.sqrt(1.0 + ts * ts) ** 1.05",
           "<t> raised to a stray power: the L1 growth exponent comes out 4.8% low"),
    Mutant("growth_bracket_shift", "bo_solver.py",
           "bracket = np.sqrt(1.0 + ts * ts)",
           "bracket = np.sqrt(10.0 + ts * ts)",
           "sqrt(10 + t^2) for <t>, which a fit of zero slope cannot tell apart"),
    Mutant("load_rule_t0_alone", "experiment_cli.py",
           "if min(solver.t0, t1 - (t1 - solver.t0)) <= 1.0:",
           "if solver.t0 <= 1.0:",
           "the load rule on t0 alone, blind to the first t - h rounding to 1"),
    Mutant("received_times_shifted", "experiment_cli.py",
           "times = (t for _, t in _record_times(cfg.solver))",
           "times = (t for _, t in itertools.islice(_record_times(cfg.solver), 1, None))",
           "the budgets process's schedule off by one record, t0's state counted twice"),
)


def _mutated(text: str, m: Mutant) -> str | None:
    """`text` with the one line m.old (indentation aside) replaced, or None
    unless m.old is exactly one line of it."""
    lines = text.split("\n")
    hits = [i for i, line in enumerate(lines) if line.strip() == m.old]
    if len(hits) != 1:
        return None
    line = lines[hits[0]]
    lines[hits[0]] = line[: len(line) - len(line.lstrip())] + m.new
    return "\n".join(lines)


def _failures(output: str) -> set[str]:
    """The ids pytest's short summary names as failed or errored."""
    return set(re.findall(r"^(?:FAILED|ERROR) (\S+)", output, re.MULTILINE))


def run(tree: str, m: Mutant) -> str:
    """m's verdict in `tree`, as the table cell: killed, survived or not applicable."""
    with open(os.path.join(tree, "src", "bovirial", m.path), encoding="utf-8") as fh:
        text = _mutated(fh.read(), m)
    if text is None:
        return "not applicable"
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        for name in COPIED:
            src, dst = os.path.join(tree, name), os.path.join(tmp, name)
            if os.path.isdir(src):
                shutil.copytree(src, dst, ignore=shutil.ignore_patterns("__pycache__", "test_mutants.py"))
            elif os.path.exists(src):
                shutil.copy(src, dst)
        with open(os.path.join(tmp, "src", "bovirial", m.path), "w", encoding="utf-8") as fh:
            fh.write(text)
        env = dict(os.environ, PYTHONPATH=os.path.join(tmp, "src"), PYTHONDONTWRITEBYTECODE="1")
        env.pop("BOVIRIAL_OUT", None)
        cmd = [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
               "--continue-on-collection-errors"]
        proc = subprocess.Popen(cmd, cwd=tmp, env=env, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True, start_new_session=True)
        try:
            output, _ = proc.communicate(timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            return "killed (timeout)"
        finally:
            # forked budgets processes share the group: none outlives the run
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
    beyond = len(_failures(output) - BY_DESIGN)
    if beyond == 0 and proc.returncode not in (0, 1):
        return f"killed (pytest exit {proc.returncode})"
    return f"killed ({beyond})" if beyond else "survived"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", default=HERE, help="source tree to mutate (default: this one)")
    parser.add_argument("names", nargs="*", help="mutants to run (default: all)")
    args = parser.parse_args(argv)
    # stopped by a signal, it still removes its copy and kills the run's group
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    known = {m.name for m in MUTANTS}
    unknown = [name for name in args.names if name not in known]
    if unknown:
        parser.error(f"unknown mutants: {', '.join(unknown)}")
    print("| mutant | file | verdict (tests failing beyond the by-design two) |")
    print("|---|---|---|")
    for m in MUTANTS:
        if not args.names or m.name in args.names:
            print(f"| {m.name} | {m.path} | {run(os.path.abspath(args.tree), m)} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
