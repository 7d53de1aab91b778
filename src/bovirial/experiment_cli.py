"""Command-line surface: scenario runs, lemma sweeps, record analysis.

Subcommands:

  run           integrate a configured scenario, writing a CSV of
                per-record diagnostics plus a JSON manifest
  check-lemmas  sweep the inequality harness over the seeded corpus
  analyze       post-process a records CSV: decay integral, dyadic
                minima, growth exponent, conservation drift
  soliton-test  report the traveling-wave residual of the certified
                soliton and, optionally, of its scale family

Config files are flat `key = value` text with dotted keys and '#'
comments. Records are CSV with a fixed column order and floats written in
shortest round-trip form, so identical configs produce byte-identical
files. Rows are written and flushed as the run goes by a second process,
one per config, that computes every cell from the states fed over a
pipe, a block of states per spectral pass. Configs that share grid
and solver settings (dt, t0, t_end, record_every) are integrated together
as one stacked spectrum: `run` deals each such group round robin into
min(N, group size) stacks, N from `--jobs` (default 1), or into more so
that no stack holds more configs than there are cores. Serially the
stacks run one after another; with N above 1 a pool runs them, at most N
at once. Exit codes:
0 success, 1 failed budgets process, 2 configuration error, 3 numerical
abort. The BOVIRIAL_OUT environment variable supplies the default output
directory when --out is omitted.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import fcntl
import itertools
import json
import math
import multiprocessing
import os
import resource
import sys
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bo_solver import (
    BlowupError,
    SolverConfig,
    TrajectoryState,
    _iter_stack,
    check_stability,
    l1_growth_fit,
    profile_residual,
    soliton,
    soliton_profile,
)
from .inequality_harness import (
    DEFAULT_LAMBDAS,
    DEFAULT_SEED,
    TAGS,
    build_corpus,
    calibrate,
    lemma_table,
)
from .spectral_core import Field, Grid, _band_limited, _positive, make_grid
from .virial_diagnostics import (
    DiagRecord,
    WeightSchedule,
    _block,
    integrated_decay,
    lambda_at,
)
# unused here, but perfbench's tracer wraps them as this module's attributes
from .bo_solver import run_trajectory  # noqa: F401
from .inequality_harness import run_check  # noqa: F401
from .virial_diagnostics import diag_record, energy_budget, mass_budget  # noqa: F401

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
    # the prefix names files inside --out: a directory part would fail in the
    # budgets process, or write outside --out
    if os.path.dirname(vals["output.prefix"]):
        raise ConfigError(f"output.prefix must be a file name without a directory part, "
                          f"got {vals['output.prefix']!r}")

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
    start a run (too wide or narrow a soliton, non-finite or wrongly sized samples)
    and OSError on an unreadable samples file."""
    grid = cfg.grid
    p = cfg.params
    if cfg.scenario == "soliton":
        return soliton_profile(soliton(p["c"], p["x0"], grid), grid)
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
_NO_BUDGET = "," * (len(CSV_COLUMNS) - len(_RECORD_CELLS))

_BLOCK_SAMPLES = 32768  # the most samples one block of records holds (see _received)


def _joined(values) -> str | None:
    """Floats as comma-separated CSV cells, or None when one is not finite."""
    return ",".join(map(repr, values)) if all(map(math.isfinite, values)) else None


def _pass_rows(window: list, sched: WeightSchedule, records: slice) -> list[tuple]:
    """One _block pass over `window`, consecutive states: the time, record
    cells and budget cells of each row that `records` selects. Budget cells
    are "," and the cells, or _NO_BUDGET where the row lacks two equally
    spaced neighbors; cells are None where a value is not finite."""
    ts = [st.t for st in window]
    hs = [b - a for a, b in zip(ts, ts[1:])]
    with np.errstate(over="ignore", invalid="ignore"):
        record, mass, energy = _block(np.array([st.u.samples for st in window]), ts, hs[:-1],
                                      sched, window[0].u.grid, records)
    if mass is not None:
        terms = np.column_stack([mass[name] for name in _MASS_CELLS]
                                + [energy[name] for name in _ENERGY_CELLS]).tolist()
    values = np.column_stack([record[name] for name in _RECORD_CELLS]).tolist()
    rows = []
    for j, cells in enumerate(map(_joined, values), start=records.indices(len(ts))[0]):
        budget = _NO_BUDGET
        if 0 < j < len(ts) - 1 and abs(hs[j] - hs[j - 1]) <= 1e-9 * max(hs[j - 1], hs[j]):
            terms_j = _joined(terms[j - 1])
            budget = None if terms_j is None else "," + terms_j
        rows.append((ts[j], cells, budget))
    return rows


def _row_cells(blocks, sched: WeightSchedule):
    """For each state of `blocks`, lists of consecutive states, yield its
    time, record cells and budget cells (see _pass_rows).

    Each block takes one pass together with the two states before it,
    which gives the cells of every state that then has both neighbors. A
    state is yielded once it has both, or once the blocks end, so only the
    last two states are held between blocks. A BlowupError (see _states)
    ends the blocks read: it is yielded last, with no cells, as a cut."""
    held, first, lost = [], 0, None
    for block in blocks:
        lost = block.pop() if isinstance(block[-1], BlowupError) else None
        window, rows = held + block, []
        if block and len(window) > 1:
            # the first state's row takes its record cells with no budgets
            rows, first = _pass_rows(window, sched, slice(first, -1)), 1
        held = window[-2:]
        del block, window  # hold no more than the two states while the next block comes
        yield from rows
        if lost:
            break
    if held:
        yield from _pass_rows(held, sched, slice(-1, None))
    if lost:
        yield lost.t, None, None


def _write_rows(path: str, blocks, cfg: ScenarioConfig) -> tuple[int, float | None]:
    """Write one CSV line per state of `blocks`, lists of consecutive
    recorded states, with the cells _row_cells computes; each line is
    flushed as it is written. Return the row count, and the time of the
    first state left out (None when none is).

    A row's budget cells are filled where its state has two equally spaced
    neighbors. A row is written once the next state's record cells are
    known, which takes the state after that, so rows trail the states by
    two: the two states before a block and the block are all that is held,
    whatever the length of the run. Rows stop before the first state whose
    record cells or budgets are not all finite (near a blowup the cubic
    functionals overflow first), or whose samples are not, so no cell is
    ever inf or nan; `blocks` is read no further than the block that holds
    the state after it. The bytes do not depend on how the states are
    grouped into blocks."""
    cur = cut = None  # the (time, record cells, budget cells) of the last state read
    rows = 0
    with open(path, "w", encoding="utf-8", newline="\n", buffering=1) as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for t, cells, budget in _row_cells(blocks, cfg.weight):
            if cells is None:
                cut = t
                break
            if cur is not None:
                cur_t, cur_cells, cur_budget = cur
                if cur_budget is None:
                    return rows, cur_t
                fh.write(cur_cells + cur_budget + "\n")
                rows += 1
            cur = t, cells, budget
        if cur is not None:
            fh.write(cur[1] + _NO_BUDGET + "\n")
            rows += 1
    return rows, cut


def _cpu_s() -> float:
    """User plus system CPU seconds of this process so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


class _Stream:
    """One config's run, streamed to a budgets process of its own that runs
    _write_rows on the states, so this process only integrates while the
    other computes every cell of the rows and writes them. Forked holding
    the initial field, it receives each later recorded state over a
    _states_pipe as the bytes t | half spectrum (no transform here per
    record); an empty message ends the stream. `finish` collects the result
    from a second pipe, writes the manifest and returns the exit code."""

    def __init__(self, cfg: ScenarioConfig, u0: Field, out_dir: str, others: list):
        """Start the budgets process, forked holding `u0`. `others` are the pipe
        ends of the streams started before this one, which it closes."""
        self.cfg = cfg
        self.records_path = os.path.join(out_dir, cfg.out_prefix + ".csv")
        self.manifest_path = os.path.join(out_dir, cfg.out_prefix + ".manifest.json")
        self.started = _now()
        self.open = True
        self.message = np.empty(cfg.grid.n + 3)  # t | half spectrum
        # forked, it starts from this process's memory, where a spawned process
        # would import numpy and the package again
        fork = multiprocessing.get_context("fork")
        states_in, self.states = _states_pipe(fork)
        self.results, results_out = fork.Pipe(duplex=False)
        self.consumer = fork.Process(target=_consume, args=(
            states_in, results_out, self.records_path, cfg, [u0],
            others + [self.states, self.results]))
        self.consumer.start()
        states_in.close()
        results_out.close()

    def send(self, entry) -> None:
        """Stream one recorded state, an entry (t, half spectrum) of
        _iter_stack. The stream ends once the budgets process stops reading:
        after a failure, or after the state where it cut the rows."""
        t, values = entry
        message = self.message
        message[0], message[1:] = t, values.view(np.float64)  # real and imaginary parts
        try:
            self.states.send_bytes(message)
        except ConnectionError:
            self.open = False  # the budgets process stopped reading: finish says why

    def end(self) -> None:
        """Send the empty message that ends the stream, unless it has ended."""
        if self.open:
            self.open = False
            with contextlib.suppress(ConnectionError):
                self.states.send_bytes(b"")

    def finish(self, cpu_s: float) -> int:
        """End the stream, wait for the budgets process and write the
        manifest, with `cpu_s` as the integrating process's CPU seconds."""
        self.end()
        try:
            result = self.results.recv()
        except (EOFError, ConnectionError):
            result = None
        self.close()
        rows, cut, budgets_cpu_s = result if isinstance(result, tuple) else (None, None, None)
        if cut is not None:
            print(f"error: {self.records_path}: diagnostics not finite at t={cut:g}; "
                  f"records stop after {rows} states", file=sys.stderr)
        if not isinstance(result, tuple):
            print(f"error: budgets process failed; {self.records_path} keeps the rows "
                  f"written so far, and no manifest is written\n"
                  f"{result or f'it exited with code {self.consumer.exitcode}'}",
                  file=sys.stderr)
            return 1
        aborted = cut is not None
        _write_json(self.manifest_path, {
            "config": self.cfg.raw,
            "version": __version__,
            "started": self.started,
            "finished": _now(),
            "records": rows,
            "status": "aborted" if aborted else "completed",
            "cpu_s": {"integrating": cpu_s, "budgets": budgets_cpu_s},
        })
        return 3 if aborted else 0

    def close(self) -> None:
        """Close the pipes and wait for the budgets process, which reads the
        close as the end of an unfinished stream."""
        self.states.close()
        self.results.close()
        self.consumer.join()


def _states_pipe(context):
    """A one-way pipe (reading end, sending end) of 1 MiB, any user's default
    limit, which holds two blocks up to n = 32768: the integrating process
    sends on while the budgets process works. Where refused, the default size."""
    reader, sender = context.Pipe(duplex=False)
    with contextlib.suppress(AttributeError, OSError):
        fcntl.fcntl(sender.fileno(), fcntl.F_SETPIPE_SZ, 1 << 20)
    return reader, sender


def _consume(states, results, path: str, cfg: ScenarioConfig, held: list,
             inherited: list) -> None:
    """The budgets process: write the rows of the field it takes out of
    `held`, a list of one, and of the states a _Stream sends, then send back
    _write_rows' result and its CPU seconds, or the traceback if it raised.
    It ends without a word when the sender closes the pipe early, having
    first closed the pipe ends it was forked holding, so that it sees that."""
    for end in inherited:
        end.close()
    first = iter([[TrajectoryState(held.pop(), cfg.solver.t0)]])  # u0 dropped after its pass
    blocks = itertools.chain(first, _received(states, cfg.grid))
    try:
        result = (*_write_rows(path, blocks, cfg), _cpu_s())
    except EOFError:
        return
    except Exception:
        result = traceback.format_exc()
    results.send(result)


def _received(conn, grid: Grid):
    """The states a _Stream sends, up to its empty message, in consecutive
    _states blocks of max(1, _BLOCK_SAMPLES // n), whatever the timing; the
    pipe is read no further than the block that holds the state after a cut."""
    size = max(1, _BLOCK_SAMPLES // grid.n)
    values = (np.frombuffer(message, np.float64) for message in iter(conn.recv_bytes, b""))
    # unlike a generator's loop, this holds no block while it reads the next
    return iter(lambda: _states(grid, list(itertools.islice(values, size))), [])


def _states(grid: Grid, values: list) -> list:
    """The states of a block of messages t | half spectrum: one stacked
    irfft, each row bit for bit the 1-D one, inverts the spectra. A state
    whose samples are not finite (its spectrum or its irfft overflowed)
    ends the block as a BlowupError, the cut _row_cells reads."""
    if not values:  # the read after the last block
        return []
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.fft.irfft(np.array([v[1:] for v in values]).view(np.complex128), grid.n)
    states = []
    for v, s in zip(values, samples):
        try:
            states.append(TrajectoryState(Field(grid, s), float(v[0])))
        except ValueError:  # the step is not sent, and the cut's message does not need it
            return states + [BlowupError(float(v[0]), None)]
    return states


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _now() -> str:
    return datetime.now(timezone.utc).isoformat()


def _keep_freed_heap() -> None:
    """Have glibc keep the heap a run frees, here and in forked processes.
    With no stored state above them, a step's freed temporaries were trimmed
    and faulted back every step (728k minor faults, 1.8 s of system time on
    the stock soliton run; 6k with this). Setting the trim threshold stops
    glibc raising the mmap threshold itself, so that is set too, keeping
    arrays of 128 KB and more (n >= 16384) off per-array mmaps."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD
    mallopt(-3, 1 << 25)  # M_MMAP_THRESHOLD, glibc's largest on 64-bit


def run_scenario(cfgs: list[ScenarioConfig], out_dir: str) -> list[int]:
    """Run a stack of configs that share grid and solver settings into an
    existing output directory, and return their exit codes. The stack
    integrates as one (B, n/2+1) half spectrum, a lone config as a 1-D one.
    Each config streams to its own budgets process, forked holding its
    initial field, which writes its records CSV and makes every cut; its
    stream ends alone, after its spectrum stops being finite or once its
    budgets process stops reading. The manifests carry the CPU seconds this
    process spent on the stack."""
    streams: list[_Stream] = []
    cpu_s = _cpu_s()
    fields = [initial_condition(cfg) for cfg in cfgs]
    try:
        for cfg, u0 in zip(cfgs, fields):
            others = [end for s in streams for end in (s.states, s.results)]
            streams.append(_Stream(cfg, u0, out_dir, others))
        records = _iter_stack(fields, cfgs[0].solver)
        del fields, u0
        for states in records:
            for stream, st in zip(streams, states):
                if st is None:
                    stream.end()
                elif stream.open:
                    stream.send(st)
            del states, st  # hold no sent state while the next is integrated
            if not any(stream.open for stream in streams):
                break
        cpu_s = _cpu_s() - cpu_s
        return [stream.finish(cpu_s) for stream in streams]
    finally:
        for stream in streams:
            stream.close()


def _run_one(task: tuple[list[ScenarioConfig], str]) -> list[int]:
    """Mapped by _run_configs: run_scenario on one (stack, output directory)."""
    return run_scenario(*task)


# the most configs one stack holds, one per core: each has a budgets process,
# and two pipe ends and a process sentinel open here, for as long as its stack
# runs, so a sweep of hundreds of configs must not become one stack
_STACK_MAX = os.cpu_count() or 1


def _load(path: str):
    """Mapped by _run_configs: the loaded config, or the ConfigError that rejects it."""
    try:
        return load_config(path)
    except ConfigError as exc:
        return exc


def _run_configs(paths: list[str], out_dir: str, mapper, jobs: int) -> int:
    """Load and then run every config through `mapper` (`map`, or a pool's to
    run several at once) and return the worst exit code. Every config loads
    before any run starts, and the output directory is made between the two.
    Configs that share grid and solver settings (dt, t0, t_end,
    record_every) form a group, dealt round robin into min(jobs, group size)
    stacks, or into more where that would put over _STACK_MAX configs in
    one, each run by one `_run_one`. Two
    configs writing the same output prefix are rejected outright, since the
    later run would overwrite (or race) the earlier one."""
    codes, groups, owners = [], {}, {}
    for path, cfg in zip(paths, mapper(_load, paths)):
        if isinstance(cfg, ConfigError):
            print(f"error: {path}: {cfg}", file=sys.stderr)
            codes.append(2)
            continue
        if cfg.out_prefix in owners:
            raise ConfigError(f"{owners[cfg.out_prefix]} and {path} both write output prefix "
                              f"{cfg.out_prefix!r}")
        owners[cfg.out_prefix] = path
        groups.setdefault((cfg.grid.n, cfg.grid.length, cfg.solver), []).append(cfg)
    stacks = []
    for group in groups.values():
        k = max(min(jobs, len(group)), -(-len(group) // _STACK_MAX))
        stacks += [(group[i::k], out_dir) for i in range(k)]
    if stacks:
        _make_out_dir(out_dir)
    for stack_codes in mapper(_run_one, stacks):
        codes += stack_codes
    return max(codes)


def _make_out_dir(path: str) -> None:
    """Make the output directory and its parents; one that cannot be made
    is a ConfigError naming the path and the reason."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {path!r}: "
                          f"{exc.strerror}") from None


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


def _schedule(records_path: str, a: float | None, c_scale: float | None) -> WeightSchedule:
    """The window schedule the lambda column is checked against. When
    X.manifest.json sits beside X.csv, the run's config decides, and an
    explicit --a or --c that contradicts it is a ConfigError. Otherwise the
    flags decide, defaulting like the config keys."""
    given = {"weight.a": ("--a", a), "weight.c_scale": ("--c", c_scale)}
    values = {key: _KEYS[key][2] if value is None else value
              for key, (_, value) in given.items()}
    manifest = os.path.splitext(records_path)[0] + ".manifest.json"
    if os.path.exists(manifest):
        text = _read_text(manifest)
        try:
            config = json.loads(text)["config"]
            values = {key: float(config.get(key, _KEYS[key][2])) for key in given}
        except (ValueError, KeyError, TypeError, AttributeError):
            raise ConfigError(f"{manifest}: no readable weight schedule in its config") from None
        for key, (flag, value) in given.items():
            if value is not None and value != values[key]:
                raise ConfigError(f"{flag} {value:g} contradicts {key} = {values[key]:g} "
                                  f"in {manifest}")
    try:
        return WeightSchedule(a=values["weight.a"], c_scale=values["weight.c_scale"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def analyze_records(records_path: str, a: float | None, c_scale: float | None,
                    out_dir: str) -> int:
    diags, rows = parse_records(records_path)
    sched = _schedule(records_path, a, c_scale)

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
            f"lambda column disagrees with schedule a={sched.a:g}, c={sched.c_scale:g} "
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

    _make_out_dir(out_dir)
    summary = {
        "records": len(diags),
        "t_range": [diags[0].t, diags[-1].t],
        "integrated_decay": integral,
        "dyadic_minima": [[t, f] for t, f in minima],
        "minima_monotone": monotone,
        "l1_exponent": exponent,
        "drift": {"I1_abs": i1_drift, "I2_rel": i2_drift, "E_rel": e_drift},
        "flags": flags,
        "schedule": {"a": sched.a, "c_scale": sched.c_scale},
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
    # a grid on which a corpus entry samples to zero, or a lambda outside the
    # harness's [L/n, L/2], is bad input too: no report is written
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            corpus = build_corpus(make_grid(grid_n, grid_length), seed=seed)
            reports = lemma_table(corpus, lams)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    _make_out_dir(out_dir)
    with open(os.path.join(out_dir, "lemma_report.csv"), "w", encoding="utf-8", newline="\n") as fh:
        fh.write("input_id,tag,lambda,lhs,rhs_unit,ratio\n")
        for rep in reports:
            fh.write(f"{rep.input_id},{rep.tag},{_fmt(rep.lam)},{_fmt(rep.lhs)},"
                     f"{_fmt(rep.rhs_unit)},{_fmt(rep.ratio)}\n")
    # the table's supremum per tag, kept under both of the summary's names
    sups = {tag: calibrate(reports, tag) for tag in TAGS}
    summary = {
        "seed": seed,
        "grid": {"n": grid_n, "length": grid_length},
        "lambdas": list(lams),
        "sup_ratio": sups,
        "calibrate": sups,
    }
    _write_json(os.path.join(out_dir, "lemma_summary.json"), summary)
    return 0


def soliton_test_cmd(c: float, validate_family: bool) -> int:
    grid = make_grid(4096, 400.0)
    try:
        certified = soliton(c, 0.0, grid)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    r_cert = profile_residual(certified, grid)
    print(f"certified  amplitude={certified.amplitude:g} speed={certified.speed:g} "
          f"residual={r_cert:.6e}")
    ok = r_cert <= 1e-6
    if validate_family:
        for b in (0.5, 1.0, 2.0, 4.0):
            r = profile_residual(soliton(b, 0.0, grid), grid)
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
                       help="how many processes integrate at once; configs that share "
                            "grid and solver settings are split into up to this many stacks "
                            "(more if a stack would exceed one config per core), each "
                            "integrated as one")

    p_chk = sub.add_parser("check-lemmas", help="sweep the inequality harness")
    p_chk.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p_chk.add_argument("--grid-n", type=int, default=1024)
    p_chk.add_argument("--grid-length", type=float, default=400.0)
    p_chk.add_argument("--lambdas", default=",".join(str(l) for l in DEFAULT_LAMBDAS),
                       help="comma-separated window scales")
    p_chk.add_argument("--out", default=None)

    p_ana = sub.add_parser("analyze", help="post-process a records CSV")
    p_ana.add_argument("--records", required=True)
    p_ana.add_argument("--a", type=float, default=None,
                       help="weight exponent a (default: the run manifest's, else 0)")
    p_ana.add_argument("--c", type=float, default=None,
                       help="window scale factor c (default: the run manifest's, else 1)")
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
            _keep_freed_heap()
            if args.jobs > 1 and len(args.config) > 1:
                # workers load too: random initial data imports numpy.random
                # (about 6 MB resident), which the parent then never holds
                with ProcessPoolExecutor(max_workers=min(args.jobs, len(args.config))) as pool:
                    return _run_configs(args.config, out_dir, pool.map, args.jobs)
            return _run_configs(args.config, out_dir, map, 1)
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
