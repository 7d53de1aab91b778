#!/usr/bin/env python3
"""Check that this tree's program writes the same bytes as a reference tree.

    python3 scripts/compare_outputs.py REF_TREE

Both `REF_TREE/src` and `./src` run the same commands, each into its own
temporary directory:

  * `run` on the three stock configs in `scripts/` (taken from this tree,
    so only the program differs);
  * `check-lemmas` with its defaults;
  * `analyze` on the `soliton_decay` records;
  * `soliton-test --c 1 --validate-family`, its stdout kept as
    `soliton_test.txt`.

Every output file is then compared byte for byte. Manifests are compared
as JSON without their `started` and `finished` timestamps. The script
prints one line per file, then the line totals of `src/bovirial/*.py` in
both trees (the size the code should shrink by), and exits 1 on any
output difference, 0 otherwise.
Stdlib only; both trees together take about half a minute on two cores
(most of it the `soliton_decay` run). A reference
tree of an earlier commit can be made offline, for example with
`git worktree add ../ref HEAD~1` or
`mkdir ../ref && git archive HEAD~1 | tar -x -C ../ref`.
"""

from __future__ import annotations

import glob
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
STOCK = ("soliton_decay.cfg", "gaussian_budget.cfg", "random_field.cfg")
TIMESTAMPS = ("started", "finished")


def _produce(tree: str, out: str) -> None:
    """Write every compared output of the program in `tree/src` under `out`."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    env.pop("BOVIRIAL_OUT", None)
    cli = [sys.executable, "-m", "bovirial.experiment_cli"]
    configs = [arg for cfg in STOCK
               for arg in ("--config", os.path.join(HERE, "scripts", cfg))]
    runs = os.path.join(out, "run")
    for args in (["run", *configs, "--out", runs],
                 ["check-lemmas", "--out", os.path.join(out, "lemmas")],
                 ["analyze", "--records", os.path.join(runs, "soliton_decay.csv"),
                  "--out", os.path.join(out, "analyze")]):
        subprocess.run(cli + args, env=env, cwd=out, check=True)
    with open(os.path.join(out, "soliton_test.txt"), "wb") as fh:
        subprocess.run(cli + ["soliton-test", "--c", "1", "--validate-family"],
                       env=env, cwd=out, check=True, stdout=fh)


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


def _same(a: str, b: str) -> bool:
    if a.endswith(".manifest.json"):
        docs = []
        for path in (a, b):
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
            docs.append({k: v for k, v in doc.items() if k not in TIMESTAMPS})
        return docs[0] == docs[1]
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not os.path.isdir(os.path.join(argv[0], "src")):
        print("usage: python3 scripts/compare_outputs.py REF_TREE", file=sys.stderr)
        return 2
    ref_tree = os.path.abspath(argv[0])
    with tempfile.TemporaryDirectory() as tmp:
        ref_out, new_out = os.path.join(tmp, "ref"), os.path.join(tmp, "new")
        for tree, out in ((ref_tree, ref_out), (HERE, new_out)):
            os.makedirs(out)
            _produce(tree, out)
        ref_files, new_files = _files(ref_out), _files(new_out)
        differ = 0
        for rel in sorted(ref_files | new_files):
            if rel not in ref_files or rel not in new_files:
                verdict = "only in " + ("reference" if rel in ref_files else "this tree")
            else:
                verdict = "identical" if _same(os.path.join(ref_out, rel),
                                               os.path.join(new_out, rel)) else "DIFFERS"
            differ += verdict != "identical"
            print(f"{verdict:>12}  {rel}")
    print(f"{len(ref_files | new_files) - differ} identical, {differ} differing")
    print(f"src lines: {_src_lines(ref_tree)} in reference, {_src_lines(HERE)} in this tree")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
