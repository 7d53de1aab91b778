"""Command-line surface: scenario runs, lemma sweeps, record analysis.

Subcommands:

  run           integrate a configured scenario, writing a CSV of
                per-record diagnostics plus a JSON manifest
  check-lemmas  sweep the inequality harness over the seeded corpus
  analyze       post-process a records CSV: decay integral, dyadic
                minima, growth exponent, conservation drift
  soliton-test  report traveling-wave residuals for both parameter
                conventions

Config files are flat `key = value` text with dotted keys and '#'
comments. Records are CSV with a fixed column order and floats written in
shortest round-trip form, so identical configs produce byte-identical
files. Exit codes: 0 success, 2 configuration error, 3 numerical abort.
The BOVIRIAL_OUT environment variable supplies the default output
directory when --out is omitted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bo_solver import (
    BlowupError,
    SolverConfig,
    check_stability,
    l1_growth_fit,
    profile_residual,
    run_trajectory,
    soliton,
    soliton_profile,
)
from .inequality_harness import (
    DEFAULT_LAMBDAS,
    DEFAULT_SEED,
    TAGS,
    build_corpus,
    calibrate,
    run_check,
)
from .spectral_core import Field, Grid, _band_limited, _positive, make_grid
from .virial_diagnostics import (
    DiagRecord,
    WeightSchedule,
    diag_record,
    energy_budget,
    integrated_decay,
    lambda_at,
    mass_budget,
)

__all__ = ["ConfigError", "ScenarioConfig", "parse_config_text", "build_config", "main"]

CSV_COLUMNS = (
    "t", "I1", "I2", "E", "L1", "lambda", "F",
    "a1", "a2", "a3", "a4", "mass_residual",
    "b1", "b2", "b3", "d31", "d32", "d321", "d322", "b4", "energy_residual",
)

SCENARIOS = ("soliton", "gaussian", "random", "custom")

_REQUIRED = object()

# every key the parser accepts: (type, owning scenario or None for all,
# default); a callable default is computed from the keys above it
_KEYS = {
    "scenario": (str, None, _REQUIRED),
    "grid.n": (int, None, _REQUIRED),
    "grid.length": (float, None, _REQUIRED),
    "solver.dt": (float, None, _REQUIRED),
    "solver.t0": (float, None, _REQUIRED),
    "solver.t_end": (float, None, _REQUIRED),
    "solver.record_every": (int, None, 1),
    "weight.a": (float, None, 0.0),
    "weight.c_scale": (float, None, 1.0),
    "output.prefix": (str, None, lambda vals: vals["scenario"]),
    "soliton.c": (float, "soliton", _REQUIRED),
    "soliton.x0": (float, "soliton", 0.0),
    "gaussian.amplitude": (float, "gaussian", _REQUIRED),
    "gaussian.width": (float, "gaussian", _REQUIRED),
    "gaussian.center": (float, "gaussian", 0.0),
    "random.seed": (int, "random", 0),
    "random.bandwidth": (int, "random", lambda vals: vals["grid.n"] // 8),
    "random.amplitude": (float, "random", 1.0),
    "custom.samples_file": (str, "custom", _REQUIRED),
}


class ConfigError(ValueError):
    """Configuration problem; maps to exit code 2."""


def parse_config_text(text: str) -> dict[str, str]:
    """Flat key = value lines; '#' starts a comment; later duplicate keys
    are errors, not overrides."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line.strip()!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value
    return raw


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    grid: Grid
    solver: SolverConfig
    weight: WeightSchedule
    params: dict
    out_prefix: str
    raw: dict  # the parsed key=value pairs, echoed into the manifest


def build_config(raw: dict[str, str]) -> ScenarioConfig:
    """Accept or reject a parsed config. Every key must be known, parse as
    its type and belong to the scenario; absent keys take their defaults
    from `_KEYS`. The initial field is built once here, so every
    configuration error, initial data included, raises ConfigError before
    any run starts."""
    for key in raw:
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigError(f"scenario must be one of {SCENARIOS}, got {scenario!r}")

    vals: dict = {}
    for key, (kind, owner, default) in _KEYS.items():
        if owner not in (None, scenario):
            if key in raw:
                raise ConfigError(f"key {key!r} does not apply to scenario {scenario!r}")
        elif key in raw:
            try:
                vals[key] = kind(raw[key])
            except ValueError:
                raise ConfigError(f"key {key!r}: cannot parse {raw[key]!r} "
                                  f"as {kind.__name__}") from None
        elif default is _REQUIRED:
            raise ConfigError(f"missing required key {key!r}")
        else:
            vals[key] = default(vals) if callable(default) else default
    params = {key.partition(".")[2]: v for key, v in vals.items()
              if key.startswith(scenario + ".")}

    try:
        grid = make_grid(vals["grid.n"], vals["grid.length"])
        solver = SolverConfig(dt=vals["solver.dt"], t0=vals["solver.t0"],
                              t_end=vals["solver.t_end"],
                              record_every=vals["solver.record_every"])
        check_stability(solver, grid)
        if solver.t0 <= 1.0:
            raise ValueError("solver.t0 must exceed 1 (window weights are undefined below)")
        if scenario == "gaussian":
            _positive(params["width"], "gaussian.width")
        for key in ("gaussian.center", "soliton.x0"):
            if key in vals and not -0.5 * grid.length <= vals[key] < 0.5 * grid.length:
                raise ValueError(f"{key} must lie in [-L/2, L/2), got {vals[key]!r}")
        if scenario == "soliton":
            # keep the wave L/8 clear of the periodic seam for the whole run
            reach = abs(params["x0"]) + params["c"] * (solver.t_end - solver.t0)
            if reach >= 0.375 * grid.length:
                raise ValueError(f"soliton reaches |x| = |x0| + c (t_end - t0) = {reach:g}, "
                                 f"not below 3L/8 = {0.375 * grid.length:g}")
        if scenario == "random" and not 1 <= params["bandwidth"] <= grid.n // 3:
            raise ValueError("random.bandwidth must lie in [1, n/3]")
        cfg = ScenarioConfig(
            scenario=scenario, grid=grid, solver=solver,
            weight=WeightSchedule(a=vals["weight.a"], c_scale=vals["weight.c_scale"]),
            params=params, out_prefix=vals["output.prefix"], raw=dict(raw))
        initial_condition(cfg)
    except (ValueError, OSError) as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def _read_text(path: str) -> str:
    """The whole input file as UTF-8 text; an unreadable file is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read input file: {exc}") from None


def load_config(path: str) -> ScenarioConfig:
    return build_config(parse_config_text(_read_text(path)))


def initial_condition(cfg: ScenarioConfig) -> Field:
    """The sampled initial field. Raises ValueError on data that cannot
    start a run (too wide a soliton, non-finite or wrongly sized samples)
    and OSError on an unreadable samples file."""
    grid = cfg.grid
    p = cfg.params
    if cfg.scenario == "soliton":
        _, certified = soliton(p["c"], p["x0"], grid)
        return soliton_profile(certified, grid)
    if cfg.scenario == "gaussian":
        x = grid.coords
        return Field(grid, p["amplitude"] * np.exp(-(((x - p["center"]) / p["width"]) ** 2)))
    if cfg.scenario == "random":
        f = _band_limited(np.random.default_rng(p["seed"]), grid, p["bandwidth"])
        nrm = math.sqrt(grid.spacing * float(np.sum(f * f)))
        if nrm > 0 and p["amplitude"] != 0:
            f = f * (p["amplitude"] / nrm)
        else:
            f = np.zeros(grid.n)
        return Field(grid, f)
    return Field(grid, np.loadtxt(p["samples_file"]))  # custom


def _fmt(x) -> str:
    return repr(float(x))


_RECORD_CELLS = ("t", "I1", "I2", "E", "L1", "lam", "F")
_MASS_CELLS = ("a1", "a2", "a3", "a4", "residual")
_ENERGY_CELLS = ("b1", "b2", "b3", "d31", "d32", "d321", "d322", "b4", "residual")


def _cells(names, compute, *args) -> str | None:
    """The named fields of compute(*args) as comma-separated CSV cells, or
    None when one is not finite or an operator result overflowed on the way."""
    try:
        result = compute(*args)
    except ValueError:
        return None
    values = [getattr(result, name) for name in names]
    return ",".join(map(_fmt, values)) if all(map(math.isfinite, values)) else None


def _write_records(path: str, states, sched: WeightSchedule) -> int:
    """Write one CSV line per recorded state, budget cells filled where it has
    two equally spaced neighbors, and return the row count. Rows stop before
    the first state whose diagnostics are not all finite (near a blowup the
    cubic functionals overflow first), so no cell is ever inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        rows = []
        for st in states:
            cells = _cells(_RECORD_CELLS, diag_record, st.u, st.t, sched)
            if cells is None:
                break
            rows.append(cells)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\n")
            for i, cells in enumerate(rows):
                budget = "," * (len(CSV_COLUMNS) - len(_RECORD_CELLS))
                if 0 < i < len(rows) - 1:
                    prev, st, nxt = states[i - 1 : i + 2]
                    h_prev, h_next = st.t - prev.t, nxt.t - st.t
                    if abs(h_next - h_prev) <= 1e-9 * max(h_prev, h_next):
                        args = (prev.u, st.u, nxt.u, st.t, h_prev, sched)
                        mass = _cells(_MASS_CELLS, mass_budget, *args)
                        energy = _cells(_ENERGY_CELLS, energy_budget, *args)
                        if mass is None or energy is None:
                            return i
                        budget = f",{mass},{energy}"
                fh.write(cells + budget + "\n")
    return len(rows)


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> int:
    os.makedirs(out_dir, exist_ok=True)
    records_path = os.path.join(out_dir, cfg.out_prefix + ".csv")
    manifest_path = os.path.join(out_dir, cfg.out_prefix + ".manifest.json")
    started = _now()
    u0 = initial_condition(cfg)
    status = "completed"
    try:
        states = run_trajectory(u0, cfg.solver)
    except BlowupError as exc:
        states = exc.partial
        status = "aborted"
        print(f"error: {exc}", file=sys.stderr)
    rows = _write_records(records_path, states, cfg.weight)
    if rows < len(states):
        status = "aborted"
        print(f"error: diagnostics not finite at t={states[rows].t:g}; "
              f"records stop after {rows} of {len(states)} states", file=sys.stderr)
    manifest = {
        "config": cfg.raw,
        "version": __version__,
        "started": started,
        "finished": _now(),
        "records": rows,
        "status": status,
    }
    _write_json(manifest_path, manifest)
    return 0 if status == "completed" else 3


def _run_one(args: tuple[ScenarioConfig, str]) -> int:
    """Pool entry: run one loaded config into its output directory."""
    return run_scenario(*args)


def _load(path: str):
    """Pool entry: the loaded config, or the ConfigError that rejects it."""
    try:
        return load_config(path)
    except ConfigError as exc:
        return exc


def _load_runs(paths: list[str], out_dir: str, mapper) -> tuple[list[int], list[tuple]]:
    """Load every config, through `mapper` (`map` or a pool's), before any
    run starts: exit codes of the configs that fail to load, and one task
    per config that loads. Two configs writing the same output prefix are
    rejected outright, since the later run would overwrite (or, under
    --jobs, race) the earlier one."""
    codes, tasks, owners = [], [], {}
    for path, cfg in zip(paths, mapper(_load, paths)):
        if isinstance(cfg, ConfigError):
            print(f"error: {path}: {cfg}", file=sys.stderr)
            codes.append(2)
            continue
        prefix = os.path.normpath(cfg.out_prefix)
        if prefix in owners:
            raise ConfigError(f"{owners[prefix]} and {path} both write output prefix "
                              f"{cfg.out_prefix!r}")
        owners[prefix] = path
        tasks.append((cfg, out_dir))
    return codes, tasks


def parse_records(path: str):
    """Read a records CSV back into (DiagRecord list, row dicts).

    Raises ConfigError on malformed files: wrong header, bad or non-finite
    floats, non-increasing times."""
    lines = _read_text(path).split("\n")
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ConfigError("records file has a wrong or missing header")
    diags: list[DiagRecord] = []
    rows: list[dict] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ConfigError(f"line {lineno}: expected {len(CSV_COLUMNS)} cells")
        row = {}
        for name, cell in zip(CSV_COLUMNS, cells):
            if cell == "":
                row[name] = None
                continue
            try:
                row[name] = float(cell)
            except ValueError:
                raise ConfigError(f"line {lineno}: bad float {cell!r}") from None
            if not math.isfinite(row[name]):
                raise ConfigError(f"line {lineno}: {name} is not finite ({cell!r})")
        try:
            diags.append(DiagRecord(t=row["t"], I1=row["I1"], I2=row["I2"],
                                    E=row["E"], L1=row["L1"], F=row["F"],
                                    lam=row["lambda"]))
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
        rows.append(row)
    if not diags:
        raise ConfigError("records file contains no data rows")
    ts = [d.t for d in diags]
    if any(b <= a for a, b in zip(ts, ts[1:])):
        raise ConfigError("record times are not strictly increasing")
    return diags, rows


def _write_dat(path: str, pairs) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for x, y in pairs:
            fh.write(f"{_fmt(x)} {_fmt(y)}\n")


def analyze_records(records_path: str, a: float, c_scale: float, out_dir: str) -> int:
    diags, rows = parse_records(records_path)
    try:
        sched = WeightSchedule(a=a, c_scale=c_scale)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    decay_part = [d for d in diags if d.t >= 10.0]
    if not decay_part or decay_part[-1].t < 16.0:
        raise ConfigError(
            "records must span at least one dyadic block past t = 10 "
            f"(last t = {diags[-1].t:g})"
        )
    integral, minima = integrated_decay(decay_part)
    minima_f = [f for _, f in minima]
    monotone = all(b < a_ for a_, b in zip(minima_f, minima_f[1:]))

    flags: list[str] = []
    try:
        exponent = l1_growth_fit(diags)
    except ValueError as exc:
        exponent = None
        flags.append(f"l1 fit unavailable: {exc}")

    lam_mismatch = max(
        abs(d.lam - lambda_at(sched, d.t)) / d.lam for d in diags if d.t > 1.0
    )
    if lam_mismatch > 1e-9:
        flags.append(
            f"lambda column disagrees with schedule a={a:g}, c={c_scale:g} "
            f"(max rel {lam_mismatch:.3e})"
        )

    i1_0, i2_0, e_0 = diags[0].I1, diags[0].I2, diags[0].E
    i1_drift = max(abs(d.I1 - i1_0) for d in diags)
    i2_drift = max(abs(d.I2 - i2_0) for d in diags) / max(abs(i2_0), 1e-300)
    e_drift = max(abs(d.E - e_0) for d in diags) / max(abs(e_0), 1e-300)
    if i1_drift > 1e-10:
        flags.append(f"I1 drift {i1_drift:.3e} above 1e-10")
    if i2_drift > 1e-8:
        flags.append(f"I2 drift {i2_drift:.3e} above 1e-8")
    if e_drift > 1e-6:
        flags.append(f"E drift {e_drift:.3e} above 1e-6")

    os.makedirs(out_dir, exist_ok=True)
    summary = {
        "records": len(diags),
        "t_range": [diags[0].t, diags[-1].t],
        "integrated_decay": integral,
        "dyadic_minima": [[t, f] for t, f in minima],
        "minima_monotone": monotone,
        "l1_exponent": exponent,
        "drift": {"I1_abs": i1_drift, "I2_rel": i2_drift, "E_rel": e_drift},
        "flags": flags,
        "schedule": {"a": a, "c_scale": c_scale},
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)

    _write_dat(os.path.join(out_dir, "F_vs_t.dat"), [(d.t, d.F) for d in diags])
    _write_dat(os.path.join(out_dir, "mass_residual_vs_t.dat"),
               [(r["t"], r["mass_residual"]) for r in rows if r["mass_residual"] is not None])
    _write_dat(os.path.join(out_dir, "energy_residual_vs_t.dat"),
               [(r["t"], r["energy_residual"]) for r in rows if r["energy_residual"] is not None])
    _write_dat(os.path.join(out_dir, "l1_loglog.dat"),
               [(math.log(math.sqrt(1.0 + d.t * d.t)), math.log(d.L1))
                for d in diags if d.L1 > 0])
    return 0


def check_lemmas_cmd(seed: int, grid_n: int, grid_length: float, lams, out_dir: str) -> int:
    if not lams:
        raise ConfigError("need at least one lambda value")
    if seed < 0:
        raise ConfigError(f"--seed must be >= 0, got {seed}")
    # a grid on which a corpus entry samples to zero is bad input too: no
    # report is written for it
    try:
        for lam in lams:
            _positive(lam, "lambda")
        with np.errstate(over="ignore", invalid="ignore"):
            corpus = build_corpus(make_grid(grid_n, grid_length), seed=seed)
            reports = [run_check(tag, f, lam, input_id=label) for tag in TAGS
                       for label, f in zip(corpus.labels, corpus.entries) for lam in lams]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    os.makedirs(out_dir, exist_ok=True)
    sups: dict[str, float] = {}
    with open(os.path.join(out_dir, "lemma_report.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("input_id,tag,lambda,lhs,rhs_unit,ratio\n")
        for rep in reports:
            fh.write(f"{rep.input_id},{rep.tag},{_fmt(rep.lam)},{_fmt(rep.lhs)},"
                     f"{_fmt(rep.rhs_unit)},{_fmt(rep.ratio)}\n")
            if rep.tag not in sups or rep.ratio > sups[rep.tag]:
                sups[rep.tag] = rep.ratio
    summary = {
        "seed": seed,
        "grid": {"n": grid_n, "length": grid_length},
        "lambdas": list(lams),
        "sup_ratio": sups,
        "calibrate": {tag: calibrate(corpus, tag, lams) for tag in TAGS},
    }
    _write_json(os.path.join(out_dir, "lemma_summary.json"), summary)
    return 0


def soliton_test_cmd(c: float, validate_family: bool) -> int:
    grid = make_grid(4096, 400.0)
    try:
        classical, certified = soliton(c, 0.0, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    r_cert = profile_residual(certified, grid)
    r_class = profile_residual(classical, grid)
    print(f"certified  amplitude={certified.amplitude:g} speed={certified.speed:g} "
          f"residual={r_cert:.6e}")
    print(f"classical  amplitude={classical.amplitude:g} speed={classical.speed:g} "
          f"residual={r_class:.6e} (reported only)")
    ok = r_cert <= 1e-6
    if validate_family:
        for b in (0.5, 1.0, 2.0, 4.0):
            r = profile_residual(soliton(b, 0.0, grid)[1], grid)
            good = r <= 1e-6
            ok = ok and good
            print(f"family B={b:g} residual={r:.6e} {'ok' if good else 'FAIL'}")
    if not ok:
        print("error: certified family residual above 1e-6", file=sys.stderr)
        return 3
    return 0


def _default_out(value) -> str:
    if value:
        return value
    return os.environ.get("BOVIRIAL_OUT", ".")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bovirial",
        description="Benjamin-Ono pseudo-spectral runs and virial/decay diagnostics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate a configured scenario")
    p_run.add_argument("--config", action="append", required=True,
                       help="config file (repeat to fan out several runs)")
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1,
                       help="parallel workers for multiple configs")

    p_chk = sub.add_parser("check-lemmas", help="sweep the inequality harness")
    p_chk.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_chk.add_argument("--grid-n", type=int, default=1024)
    p_chk.add_argument("--grid-length", type=float, default=400.0)
    p_chk.add_argument("--lambdas", default=",".join(str(l) for l in DEFAULT_LAMBDAS),
                       help="comma-separated window scales")
    p_chk.add_argument("--out", default=None)

    p_ana = sub.add_parser("analyze", help="post-process a records CSV")
    p_ana.add_argument("--records", required=True)
    p_ana.add_argument("--a", type=float, default=0.0, help="weight exponent a")
    p_ana.add_argument("--c", type=float, default=1.0, help="window scale factor c")
    p_ana.add_argument("--out", default=None)

    p_sol = sub.add_parser("soliton-test", help="traveling-wave residual report")
    p_sol.add_argument("--c", type=float, required=True)
    p_sol.add_argument("--validate-family", action="store_true")

    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            out_dir = _default_out(args.out)
            if args.jobs < 1:
                raise ConfigError("--jobs must be >= 1")
            if args.jobs > 1 and len(args.config) > 1:
                # workers load too: random initial data imports numpy.random
                # (about 6 MB resident), which the parent then never holds
                with ProcessPoolExecutor(max_workers=args.jobs) as pool:
                    codes, tasks = _load_runs(args.config, out_dir, pool.map)
                    codes += pool.map(_run_one, tasks)
            else:
                codes, tasks = _load_runs(args.config, out_dir, map)
                codes += map(_run_one, tasks)
            return max(codes)
        if args.command == "check-lemmas":
            try:
                lams = [float(tok) for tok in args.lambdas.split(",") if tok.strip()]
            except ValueError:
                raise ConfigError(f"cannot parse --lambdas {args.lambdas!r}") from None
            return check_lemmas_cmd(args.seed, args.grid_n, args.grid_length,
                                    lams, _default_out(args.out))
        if args.command == "analyze":
            return analyze_records(args.records, args.a, args.c, _default_out(args.out))
        return soliton_test_cmd(args.c, args.validate_family)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
