#!/usr/bin/env python3
"""Check that this tree's program writes the same bytes as a reference tree.

    python3 scripts/compare_outputs.py REF_TREE

Both `REF_TREE/src` and `./src` run the same commands, each into its own
temporary directory:

  * `run` on the three stock configs in `scripts/` (taken from this tree,
    so only the program differs), once serially into `run/` and once with
    `--jobs 2` into `run_jobs2/`: configs run one at a time, or two at
    once in a pool, each streaming its records to a budgets process;
  * `run` on three gaussian configs that share grid and solver settings
    (written by this script into the temporary directory), serially into
    `aborted/` and with `--jobs 2` into `aborted_jobs2/`, each run
    expected to exit 3. Two blow up: at amplitude 300 the diagnostics
    overflow first, at amplitude 120 the field does, and either way the
    budgets process cuts the rows. At amplitude 1 the run completes its
    201 records. Serially the three run as one stack (or, on fewer than
    three cores, as the stacks 300 + 1 and 120), and under `--jobs 2` as
    those two stacks, so the stable config always shares its stack with
    a blowup whose row rides that stack to its end;
  * `run` on four random configs that share grid and solver settings
    (also written by this script), serially into `ensemble/` (one stack
    of four, or stacks of one config per core run one after another on a
    machine with fewer than four cores) and with `--jobs 2` into
    `ensemble_jobs2/` (two stacks of two);
  * `run` on two record-dense gaussian configs (n = 2048, a record every
    step, 301 records each; written by this script), each alone into
    `dense/` and both at once into `dense_stack/` (one stack of two on a
    machine with two cores or more). Every state is a CSV row with
    budgets, and the budgets process, forked holding the first state,
    takes the others in blocks of sixteen (32768 // n), each sent as its
    half spectrum;
  * `run` on two gaussian configs whose budget cells are easy to get
    wrong (written by this script), into `edges/`: one record-every-step
    at n = 32768, 11 records, which the budgets process takes in blocks of
    one state, each block's first budgets needing the state before it;
    and one whose record spacing (5) exceeds its first record's time, so
    that t - h misses the record before it by rounding;
  * `check-lemmas` with its defaults;
  * `analyze` on the `soliton_decay` records;
  * `soliton-test --c 1 --validate-family`, its stdout kept as
    `soliton_test.txt`.

Every output file is then compared byte for byte. Manifests are compared
as JSON without their `started` and `finished` timestamps and their
`cpu_s` CPU seconds. Each file of this tree's `run_jobs2/`,
`aborted_jobs2/`, `ensemble_jobs2/` and `dense_stack/` is also compared
with the reference's `run/`, `aborted/`, `ensemble/` and `dense/`, so
pooled and stacked scheduling answer to the reference's serial one. A command that
exits with another code than the one expected stops the script with its
stderr. The script
prints one line per file; under a differing CSV or `.dat` file it also
prints, for each column whose cells differ, the largest absolute
difference (the tolerance a reordering of floating-point operations is
held to), and under any other differing file a unified diff of its
lines (a manifest's without its timing keys). It then prints the line
totals of `src/bovirial/*.py` in both trees (the size the code should
shrink by) and the length of each tree's `bovirial.__all__` (the public
surface), and exits 1 on any output difference, 0 otherwise.
Stdlib only; both trees together take about a minute on two cores
(most of it the `soliton_decay` run). A reference
tree of an earlier commit can be made offline, for example with
`git worktree add ../ref HEAD~1` or
`mkdir ../ref && git archive HEAD~1 | tar -x -C ../ref`.
"""

from __future__ import annotations

import difflib
import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STOCK = ("soliton_decay.cfg", "gaussian_budget.cfg", "random_field.cfg")
BLOWUP_AMPLITUDES = (300, 120, 1)
BLOWUP = """\
scenario = gaussian
grid.n = 256
grid.length = 100.0
solver.dt = 0.05
solver.t0 = 2.0
solver.t_end = 12.0
gaussian.amplitude = {amp}
gaussian.width = 5.0
output.prefix = blowup_{amp}
"""
ENSEMBLE_SEEDS = (11, 12, 13, 14)
ENSEMBLE = """\
scenario = random
grid.n = 512
grid.length = 100.0
solver.dt = 0.01
solver.t0 = 2.0
solver.t_end = 4.0
solver.record_every = 10
random.seed = {seed}
random.amplitude = 0.5
output.prefix = ensemble_{seed}
"""
DENSE_AMPLITUDES = (0.3, 0.25)
DENSE = """\
scenario = gaussian
grid.n = 2048
grid.length = 400.0
solver.dt = 0.001
solver.t0 = 30.0
solver.t_end = 30.3
weight.a = 0.25
gaussian.amplitude = {amp}
gaussian.width = 10.0
gaussian.center = 5.0
output.prefix = dense_{amp}
"""
EDGES = {"wide": """\
scenario = gaussian
grid.n = 32768
grid.length = 400.0
solver.dt = 0.001
solver.t0 = 30.0
solver.t_end = 30.01
weight.a = 0.25
gaussian.amplitude = 0.3
gaussian.width = 10.0
output.prefix = wide
""", "coarse": """\
scenario = gaussian
grid.n = 1024
grid.length = 400.0
solver.dt = 0.1
solver.t0 = 1.537629414362398
solver.t_end = 41.5376294143624
solver.record_every = 50
gaussian.amplitude = 0.5
gaussian.width = 4.0
output.prefix = coarse
"""}
# pooled or stacked output: serial or lone twin
TWINS = {"run_jobs2": "run", "aborted_jobs2": "aborted", "ensemble_jobs2": "ensemble",
         "dense_stack": "dense"}
# manifest keys that differ between runs of the same config
TIMING = ("started", "finished", "cpu_s")


def _write_configs(tmp: str, texts: dict) -> list[str]:
    """`--config` arguments for `texts`, config texts by name, each written
    under `tmp` as NAME.cfg."""
    args = []
    for name, text in texts.items():
        path = os.path.join(tmp, f"{name}.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        args += ["--config", path]
    return args


def _produce(tree: str, out: str, blowups: list[str], ensemble: list[str],
             dense: list[str], edges: list[str]) -> None:
    """Write every compared output of the program in `tree/src` under `out`."""
    env = _env(tree)
    cli = [sys.executable, "-m", "bovirial.experiment_cli"]
    configs = [arg for cfg in STOCK
               for arg in ("--config", os.path.join(HERE, "scripts", cfg))]
    runs = os.path.join(out, "run")
    for args, code in ((["run", *configs, "--out", runs], 0),
                       (["run", *configs, "--jobs", "2", "--out", os.path.join(out, "run_jobs2")],
                        0),
                       (["run", *blowups, "--out", os.path.join(out, "aborted")], 3),
                       (["run", *blowups, "--jobs", "2", "--out",
                         os.path.join(out, "aborted_jobs2")], 3),
                       (["run", *ensemble, "--out", os.path.join(out, "ensemble")], 0),
                       (["run", *ensemble, "--jobs", "2", "--out",
                         os.path.join(out, "ensemble_jobs2")], 0),
                       (["run", *dense[:2], "--out", os.path.join(out, "dense")], 0),
                       (["run", *dense[2:], "--out", os.path.join(out, "dense")], 0),
                       (["run", *dense, "--out", os.path.join(out, "dense_stack")], 0),
                       (["run", *edges, "--out", os.path.join(out, "edges")], 0),
                       (["check-lemmas", "--out", os.path.join(out, "lemmas")], 0),
                       (["analyze", "--records", os.path.join(runs, "soliton_decay.csv"),
                         "--out", os.path.join(out, "analyze")], 0)):
        proc = subprocess.run(cli + args, env=env, cwd=out, stderr=subprocess.PIPE, text=True)
        if proc.returncode != code:
            sys.exit(f"{proc.stderr}{tree}/src: {' '.join(args)} exited {proc.returncode}, "
                     f"expected {code}")
    with open(os.path.join(out, "soliton_test.txt"), "wb") as fh:
        subprocess.run(cli + ["soliton-test", "--c", "1", "--validate-family"],
                       env=env, cwd=out, check=True, stdout=fh)


def _env(tree: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("BOVIRIAL_OUT", None)
    return env


def _export_count(tree: str) -> int:
    """len(bovirial.__all__) of the package in `tree/src`, read in its own process."""
    code = "import bovirial; print(len(bovirial.__all__))"
    out = subprocess.run([sys.executable, "-c", code], env=_env(tree), check=True,
                         capture_output=True, text=True).stdout
    return int(out)


def _src_lines(tree: str) -> int:
    """Newline count over `tree/src/bovirial/*.py`, as `wc -l` totals it."""
    total = 0
    for path in glob.glob(os.path.join(tree, "src", "bovirial", "*.py")):
        with open(path, "rb") as fh:
            total += fh.read().count(b"\n")
    return total


def _files(root: str) -> set[str]:
    return {os.path.relpath(os.path.join(d, f), root)
            for d, _, names in os.walk(root) for f in names}


def _manifest(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return {k: v for k, v in json.load(fh).items() if k not in TIMING}


def _same(a: str, b: str) -> bool:
    if a.endswith(".manifest.json"):
        return _manifest(a) == _manifest(b)
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def _unified_diff(a: str, b: str) -> list[str]:
    """The lines of a unified diff from reference file `a` to this tree's `b`."""
    texts = []
    for path in (a, b):
        if path.endswith(".manifest.json"):
            texts.append(json.dumps(_manifest(path), indent=2, sort_keys=True) + "\n")
        else:
            with open(path, encoding="utf-8") as fh:
                texts.append(fh.read())
    return [line.rstrip("\n") for line in difflib.unified_diff(
        texts[0].splitlines(keepends=True), texts[1].splitlines(keepends=True),
        "reference", "this tree")]


def _table(path: str) -> tuple[list[str], list[list[str]]]:
    """(column names, rows of cells) of a CSV with a header line or of a
    whitespace-separated `.dat` file, whose columns are named by position."""
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if path.endswith(".csv"):
        return lines[0].split(","), [ln.split(",") for ln in lines[1:]]
    rows = [ln.split() for ln in lines]
    return [f"column {i + 1}" for i in range(max(map(len, rows), default=0))], rows


def _column_maxima(a: str, b: str) -> list[str]:
    """'name max|diff|' for each column whose cells differ between two tables,
    or one line saying why the tables cannot be lined up."""
    (names, rows_a), (names_b, rows_b) = _table(a), _table(b)
    if names != names_b or [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return ["columns or rows differ in number"]
    out = []
    for j, name in enumerate(names):
        pairs = [(ra[j], rb[j]) for ra, rb in zip(rows_a, rows_b) if ra[j] != rb[j]]
        if not pairs:
            continue
        try:
            worst = max(abs(float(x) - float(y)) for x, y in pairs)
        except ValueError:  # a blank or non-numeric cell on one side only
            out.append(f"{name} blank or non-numeric on one side")
            continue
        out.append(f"{name} {worst:.3g}")
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src")):
        print("usage: python3 scripts/compare_outputs.py REF_TREE", file=sys.stderr)
        return 2
    ref_tree = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        ref_out, new_out = os.path.join(tmp, "ref"), os.path.join(tmp, "new")
        blowups = _write_configs(tmp, {f"amp_{a}": BLOWUP.format(amp=a)
                                       for a in BLOWUP_AMPLITUDES})
        ensemble = _write_configs(tmp, {f"seed_{seed}": ENSEMBLE.format(seed=seed)
                                        for seed in ENSEMBLE_SEEDS})
        dense = _write_configs(tmp, {f"dense_{a}": DENSE.format(amp=a) for a in DENSE_AMPLITUDES})
        edges = _write_configs(tmp, EDGES)
        for tree, out in ((ref_tree, ref_out), (HERE, new_out)):
            os.makedirs(out)
            _produce(tree, out, blowups, ensemble, dense, edges)
        ref_files, new_files = _files(ref_out), _files(new_out)
        pairs = [(rel, rel) for rel in sorted(ref_files | new_files)]
        for rel in sorted(new_files):
            top, _, name = rel.partition(os.sep)
            if top in TWINS:
                pairs.append((os.path.join(TWINS[top], name), rel))
        differ = 0
        for ref_rel, rel in pairs:
            if ref_rel not in ref_files or rel not in new_files:
                verdict = "only in " + ("reference" if ref_rel in ref_files else "this tree")
            else:
                verdict = "identical" if _same(os.path.join(ref_out, ref_rel),
                                               os.path.join(new_out, rel)) else "DIFFERS"
            differ += verdict != "identical"
            against = "" if ref_rel == rel else f"  (against reference {ref_rel})"
            print(f"{verdict:>12}  {rel}{against}")
            if verdict == "DIFFERS":
                a, b = os.path.join(ref_out, ref_rel), os.path.join(new_out, rel)
                if rel.endswith((".csv", ".dat")):
                    for line in _column_maxima(a, b):
                        print(f"{'':>14}max |diff|  {line}")
                else:
                    for line in _unified_diff(a, b):
                        print(f"{'':>14}{line}")
    print(f"{len(pairs) - differ} identical, {differ} differing")
    print(f"src lines: {_src_lines(ref_tree)} in reference, {_src_lines(HERE)} in this tree")
    print(f"bovirial.__all__ names: {_export_count(ref_tree)} in reference, "
          f"{_export_count(HERE)} in this tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
