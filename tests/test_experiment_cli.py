"""End-to-end checks of the command surface: configs, files, exit codes."""

import glob
import importlib.util
import itertools
import json
import math
import multiprocessing
import os
import signal
import time
import warnings
import weakref
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import bovirial as bv
from bovirial import experiment_cli
from bovirial.experiment_cli import (
    CSV_COLUMNS,
    ConfigError,
    build_config,
    load_config,
    main,
    parse_config_text,
    parse_records,
)
from bovirial.virial_diagnostics import lambda_at

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"

SOLITON_CFG = """\
# traveling wave, short horizon
scenario = soliton
grid.n = 1024
grid.length = 200.0
solver.dt = 0.005
solver.t0 = 2.0
solver.t_end = 12.0         # inline comment
solver.record_every = 200
soliton.c = 1.0
soliton.x0 = -5.0
output.prefix = wave
"""


GRID_AND_SOLVER = """\
grid.n = 1024
grid.length = 200.0
solver.dt = 0.005
solver.t0 = 2.0
solver.t_end = 2.05
"""

# records at steps 0, 3, 6, 9 and 10: the last spacing is one step, so the
# row before the final one has uneven neighbors and no budget cells
GAUSSIAN_UNEVEN_CFG = GRID_AND_SOLVER + """\
solver.record_every = 3
scenario = gaussian
gaussian.amplitude = 0.5
gaussian.width = 4.0
output.prefix = uneven
"""

# records 50 steps of 0.1 apart from t0 = 1.537..., 9 of them: the spacing
# exceeds the first record's time, so the first interior row's t - h is not
# the time of the record before it in floating point
COARSE_CFG = """\
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
"""

# scripts/compare_outputs.py's configs that blow up, at amplitudes 300 and 120
BLOWUP_CFG = """\
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

# initial data that passes every key check but cannot start a run
HOSTILE_INITIAL_DATA = {
    "custom_wrong_size": "scenario = custom\ncustom.samples_file = {short}\n",
    "soliton_too_wide": "scenario = soliton\nsoliton.c = 0.05\n",
    # width 1/c = 0.1 below the grid spacing L/n = 0.195: a spike, not a wave
    "soliton_too_narrow": "scenario = soliton\nsoliton.c = 10.0\n",
    "gaussian_nan": "scenario = gaussian\ngaussian.amplitude = nan\ngaussian.width = 2.0\n",
    "random_overflow": "scenario = random\nrandom.amplitude = 1e308\n",
    # a centre outside the box [-L/2, L/2) = [-100, 100) would give
    # (nearly) all-zero records
    "gaussian_center_inf": "scenario = gaussian\ngaussian.amplitude = 1.0\n"
                           "gaussian.width = 2.0\ngaussian.center = inf\n",
    "soliton_x0_outside": "scenario = soliton\nsoliton.c = 1.0\nsoliton.x0 = 1000\n",
    # inside the box, but within L/8 of the periodic seam
    "soliton_near_seam": "scenario = soliton\nsoliton.c = 1.0\nsoliton.x0 = 90\n",
}


def hostile_cfg_text(tmp_path, case):
    short = tmp_path / "short.txt"
    np.savetxt(short, np.zeros(100))
    return GRID_AND_SOLVER + HOSTILE_INITIAL_DATA[case].format(short=short)


def sent_states_kept(tmp_path, monkeypatch, prefixes):
    """Run one serial stack of record-every-step configs, one per prefix, and
    return, for each record after t0, how many earlier records' half spectra
    are still alive in this process."""
    integrate, refs, kept = experiment_cli._iter_stack, [], []

    def watched(fields, solver):
        records = integrate(fields, solver)
        del fields
        for t, vh in records:
            kept.append(sum(r() is not None for r in refs))
            refs.append(weakref.ref(vh))
            yield t, vh

    monkeypatch.setattr(experiment_cli, "_iter_stack", watched)
    text = GAUSSIAN_UNEVEN_CFG.replace("solver.record_every = 3", "solver.record_every = 1")
    args = []
    for prefix in prefixes:
        args += ["--config", write_cfg(tmp_path, text.replace("uneven", prefix), f"{prefix}.cfg")]
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == 0
    return kept


def records_drawn(tmp_path, monkeypatch, amps):
    """Run the BLOWUP_CFG configs of `amps`, which share grid and solver
    settings, as one serial stack that exits 3, and return how many
    records the run drew from _iter_stack."""
    integrate, drawn = experiment_cli._iter_stack, []

    def counted(fields, solver):
        for record in integrate(fields, solver):
            drawn.append(None)
            yield record

    monkeypatch.setattr(experiment_cli, "_iter_stack", counted)
    args = []
    for amp in amps:
        args += ["--config", write_cfg(tmp_path, BLOWUP_CFG.format(amp=amp), f"{amp}.cfg")]
    assert main(["run", *args, "--out", str(tmp_path / "out")]) == 3
    return len(drawn)


def pid_logged(fn, path):
    """fn, appending the pid of each process that calls it to `path`; forked
    processes inherit the patch that installs it."""
    def call(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        return fn(*args, **kwargs)
    return call


def blocks_of(states, size):
    """`states` as (times, samples) blocks of `size`, as _received yields
    them, holding none of a block's samples once it is read."""
    states = iter(states)
    while block := list(itertools.islice(states, size)):
        yield [st.t for st in block], np.array([st.u.samples for st in block])


def states_alive(monkeypatch, seen):
    """Patch _block to note how many states are alive at each pass, and
    return the notes with a wrapper for blocks, (times, samples) pairs.
    `seen` holds weak references to the arrays met so far: the blocks read,
    the blocks passed and the states passed as the one before a block. A
    note counts the rows of those still alive, a view counting as the array
    it views: at each pass once its block and the state before it are
    added, at each read of a block before the block read is."""
    alive, block = [], experiment_cli._block

    def rows():
        arrays = {}
        for a in (ref() for ref in seen):
            if a is not None:
                a = a if a.base is None else a.base
                arrays[id(a)] = a
        return sum(a.size // a.shape[-1] for a in arrays.values())

    def passed(samples, ts, hs, s, grid, before):
        seen.extend(weakref.ref(a) for a in (samples, *([] if before is None else [before[2]])))
        alive.append(rows())
        return block(samples, ts, hs, s, grid, before)

    def read(blocks):
        for times, samples in blocks:
            alive.append(rows())
            seen.append(weakref.ref(samples))
            yield times, samples
            del times, samples

    monkeypatch.setattr(experiment_cli, "_block", passed)
    return alive, read


def dense_text(n, steps):
    """GAUSSIAN_UNEVEN_CFG on n points over `steps` steps, with a record at
    each: steps + 1 records, evenly spaced."""
    text = GAUSSIAN_UNEVEN_CFG.replace("solver.record_every = 3", "solver.record_every = 1")
    return text.replace("grid.n = 1024", f"grid.n = {n}").replace(
        "solver.t_end = 2.05", f"solver.t_end = {2.0 + 0.005 * steps!r}")


def sent_messages(cfg):
    """The messages a _Stream sends over its states pipe for cfg's run, up to
    the empty one that ends the stream."""
    sent = []
    stream = object.__new__(experiment_cli._Stream)
    stream.open = True
    stream.states = SimpleNamespace(send_bytes=lambda message: sent.append(bytes(message)))
    for _, vh in experiment_cli._iter_stack([experiment_cli.initial_condition(cfg)],
                                            cfg.solver):
        stream.send(vh)
    stream.end()
    return sent


def stub_conn(sent):
    """A receiving end that returns the messages `sent`, one per recv_bytes."""
    return SimpleNamespace(recv_bytes=iter(sent).__next__)


def consumed(path, cfg, held, sent):
    """_write_rows' result as the budgets process of cfg's run computes it in
    this process: forked holding the initial field, the one item of `held`,
    it reads the messages `sent`."""
    results = []
    experiment_cli._consume(stub_conn(sent), SimpleNamespace(send=results.append), str(path),
                            cfg, held, [])
    (result,) = results
    assert isinstance(result, tuple), result
    return result[:2]


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfigParsing:
    def test_comments_and_inline_comments(self):
        raw = parse_config_text(SOLITON_CFG)
        assert raw["solver.t_end"] == "12.0"
        assert "scenario" in raw

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("a.b = 1\na.b = 2\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("scenario soliton\n")

    def test_unknown_key_rejected(self):
        raw = parse_config_text(SOLITON_CFG + "nope.key = 3\n")
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_missing_required_key_rejected(self):
        with pytest.raises(ConfigError):
            build_config({"scenario": "soliton"})

    def test_key_from_other_scenario_rejected(self):
        raw = parse_config_text(SOLITON_CFG + "gaussian.width = 2\n")
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_early_start_rejected(self):
        raw = parse_config_text(SOLITON_CFG.replace("solver.t0 = 2.0",
                                                    "solver.t0 = 0.5"))
        with pytest.raises(ConfigError, match="t0"):
            build_config(raw)

    def test_unstable_dt_rejected(self):
        raw = parse_config_text(SOLITON_CFG.replace("solver.dt = 0.005",
                                                    "solver.dt = 0.1"))
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_non_tiling_dt_rejected(self):
        raw = parse_config_text(SOLITON_CFG.replace("solver.dt = 0.005",
                                                    "solver.dt = 0.003"))
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_unsupported_format_rejected(self):
        raw = parse_config_text(SOLITON_CFG + "output.format = parquet\n")
        with pytest.raises(ConfigError):
            build_config(raw)

    def test_absent_keys_take_their_defaults(self):
        cfg = build_config(parse_config_text(GRID_AND_SOLVER + "scenario = random\n"))
        assert cfg.params == {"seed": 0, "bandwidth": 1024 // 8, "amplitude": 1.0}
        assert (cfg.weight.a, cfg.weight.c_scale) == (0.0, 1.0)
        assert (cfg.solver.record_every, cfg.out_prefix) == (1, "random")

    @pytest.mark.parametrize("case", sorted(HOSTILE_INITIAL_DATA))
    def test_initial_data_rejected_at_load(self, tmp_path, case):
        raw = parse_config_text(hostile_cfg_text(tmp_path, case))
        with pytest.raises(ConfigError):
            build_config(raw)

    @pytest.mark.parametrize("prefix", ["sub/g", "../x"])
    def test_prefix_with_a_directory_part_exits_2_before_any_run(self, tmp_path, capsys,
                                                                  prefix):
        # the prefix names files inside --out: "sub/g" would fail in the budgets
        # process, "../x" would write outside --out
        text = (SCRIPTS / "gaussian_budget.cfg").read_text().replace(
            "output.prefix = gaussian_budget", f"output.prefix = {prefix}")
        with pytest.raises(ConfigError, match="directory part"):
            build_config(parse_config_text(text))
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 2
        assert "output.prefix" in capsys.readouterr().err
        assert not out.exists() and glob.glob(str(tmp_path / "*.csv")) == []

    @pytest.mark.parametrize("name", ["soliton_decay", "gaussian_budget", "random_field"])
    def test_stock_config_loads(self, name):
        # no load rule may reject a config the repository ships
        assert load_config(str(SCRIPTS / f"{name}.cfg")).out_prefix == name

    def test_compare_outputs_configs_load(self):
        # every config scripts/compare_outputs.py writes loads, the coarse
        # one among them: its first record's t - h misses t0 by rounding,
        # and the run weighs that time, which is still above 1
        spec = importlib.util.spec_from_file_location("compare_outputs",
                                                      SCRIPTS / "compare_outputs.py")
        co = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(co)
        texts = ([co.BLOWUP.format(amp=a) for a in co.BLOWUP_AMPLITUDES]
                 + [co.ENSEMBLE.format(seed=s) for s in co.ENSEMBLE_SEEDS]
                 + [co.DENSE.format(amp=a) for a in co.DENSE_AMPLITUDES] + list(co.EDGES.values())
                 + [co.WIDE.format(amp=a) for a in co.WIDE_AMPLITUDES])
        assert len({build_config(parse_config_text(text)).out_prefix for text in texts}) == 13
        solver = build_config(parse_config_text(co.EDGES["coarse"])).solver
        t1 = solver.t0 + solver.record_every * solver.dt
        assert 1.0 < t1 - (t1 - solver.t0) < solver.t0


def file_in_the_way(tmp_path):
    """An --out path that is a regular file, so no directory can be made there."""
    path = tmp_path / "taken"
    path.write_text("not a directory\n")
    return path


def assert_out_refused(capsys, path):
    """One error line that names the path and the reason; the file is untouched."""
    err = capsys.readouterr().err
    assert err == f"error: cannot make output directory {str(path)!r}: File exists\n"
    assert path.read_text() == "not a directory\n"


class TestRun:
    def test_completes_and_writes_both_files(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        csv_path = os.path.join(out, "wave.csv")
        man_path = os.path.join(out, "wave.manifest.json")
        assert os.path.isfile(csv_path)
        manifest = json.load(open(man_path))
        assert manifest["status"] == "completed"
        assert manifest["version"] == bv.__version__
        assert manifest["config"]["scenario"] == "soliton"
        with open(csv_path) as fh:
            header = fh.readline().rstrip("\n")
        assert header == ",".join(CSV_COLUMNS)
        assert manifest["records"] == sum(1 for _ in open(csv_path)) - 1

    def test_reruns_are_byte_identical(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
        assert main(["run", "--config", cfg, "--out", out1]) == 0
        assert main(["run", "--config", cfg, "--out", out2]) == 0
        a = open(os.path.join(out1, "wave.csv"), "rb").read()
        b = open(os.path.join(out2, "wave.csv"), "rb").read()
        assert a == b

    def test_interior_rows_carry_budgets(self, tmp_path):
        # the budget cells of every interior row must be exactly what the
        # library computes from the recorded snapshots with the record
        # spacing as the step. The soliton records every other step; the
        # coarse gaussian's record spacing, 5, exceeds the first record's
        # time, so t - h misses the previous record's time by rounding there
        soliton = SOLITON_CFG.replace("solver.t_end = 12.0", "solver.t_end = 2.05").replace(
            "solver.record_every = 200", "solver.record_every = 2")
        for text, records in ((soliton, 6), (COARSE_CFG, 9)):
            cfg = build_config(parse_config_text(text))
            out = str(tmp_path / cfg.out_prefix)
            assert main(["run", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
            _, rows = parse_records(os.path.join(out, cfg.out_prefix + ".csv"))
            assert rows[0]["mass_residual"] is None
            assert rows[-1]["energy_residual"] is None
            states = bv.run_trajectory(experiment_cli.initial_condition(cfg), cfg.solver)
            assert len(rows) == len(states) == records
            ts = [st.t for st in states]
            assert (ts[1] - (ts[1] - ts[0]) != ts[0]) == (text is COARSE_CFG)
            for i in range(1, records - 1):
                mass, energy = bv.budgets(states[i - 1].u, states[i].u, states[i + 1].u, ts[i],
                                          ts[i] - ts[i - 1], cfg.weight)
                want = [getattr(mass, name) for name in ("a1", "a2", "a3", "a4", "residual")] + [
                    getattr(energy, name) for name in
                    ("b1", "b2", "b3", "d31", "d32", "d321", "d322", "b4", "residual")]
                # repr round-trips, so the cells are the library's bits
                assert [rows[i][name] for name in CSV_COLUMNS[7:]] == want

    def test_lambda_column_matches_schedule(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        out = str(tmp_path / "out")
        main(["run", "--config", cfg, "--out", out])
        diags, _ = parse_records(os.path.join(out, "wave.csv"))
        sched = bv.WeightSchedule(a=0.0, c_scale=1.0)
        for d in diags:
            assert d.lam == pytest.approx(lambda_at(sched, d.t), rel=1e-12)

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "scenario = nope\n")
        assert main(["run", "--config", cfg]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_config_that_is_not_utf8_exits_2(self, tmp_path):
        path = tmp_path / "binary.cfg"
        path.write_bytes(b"scenario = soliton\n\xff\xfe\n")
        assert main(["run", "--config", str(path)]) == 2

    def test_blowup_exits_3_with_aborted_manifest(self, tmp_path, capsys):
        text = """\
scenario = gaussian
grid.n = 256
grid.length = 100.0
solver.dt = 0.05
solver.t0 = 2.0
solver.t_end = 400.0
gaussian.amplitude = 1e120
gaussian.width = 2.0
output.prefix = boom
"""
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 3
        manifest = json.load(open(os.path.join(out, "boom.manifest.json")))
        assert manifest["status"] == "aborted"
        assert os.path.isfile(os.path.join(out, "boom.csv"))

    @pytest.mark.parametrize("t_end", ["400.0", "2.1"])
    def test_blowup_writes_only_finite_cells(self, tmp_path, capsys, t_end):
        # the third recorded state (t = 2.1) still has finite samples, but its
        # I2, E and F overflow; the records stop before it and say so, also
        # when the run ends there instead of blowing up one step later
        text = f"""\
scenario = gaussian
grid.n = 256
grid.length = 100.0
solver.dt = 0.05
solver.t0 = 2.0
solver.t_end = {t_end}
gaussian.amplitude = 300.0
gaussian.width = 2.0
"""
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 3
        assert "not finite at t=2.1" in capsys.readouterr().err
        manifest = json.load(open(os.path.join(out, "gaussian.manifest.json")))
        assert manifest["status"] == "aborted"
        with open(os.path.join(out, "gaussian.csv")) as fh:
            rows = [line.rstrip("\n").split(",") for line in fh][1:]
        assert manifest["records"] == len(rows) == 2
        assert all(math.isfinite(float(c)) for row in rows for c in row if c)

    def test_stacked_blowups_write_what_lone_runs_write(self, tmp_path, monkeypatch, capsys):
        # scripts/compare_outputs.py's blowup pair shares grid, dt and span, so a
        # serial run integrates it as one stack: at amplitude 300 the record cells
        # overflow first, at 120 the field does, and each ends only its own run,
        # both cut by their budgets process
        integrate, firsts = experiment_cli._iter_stack, []

        def logged(fields, solver):
            firsts.append(fields)
            return integrate(fields, solver)

        monkeypatch.setattr(experiment_cli, "_iter_stack", logged)
        paths = [write_cfg(tmp_path, BLOWUP_CFG.format(amp=amp), f"{amp}.cfg")
                 for amp in (300, 120)]
        stacked = tmp_path / "stacked"
        assert main(["run", "--config", paths[0], "--config", paths[1],
                     "--out", str(stacked)]) == 3
        assert [len(fields) for fields in firsts] == [2]
        # each message names the records of the config it ends
        err = capsys.readouterr().err.splitlines()
        assert sorted(err) == [
            f"error: {stacked / 'blowup_120.csv'}: diagnostics not finite at t=2.15; "
            f"records stop after 3 states",
            f"error: {stacked / 'blowup_300.csv'}: diagnostics not finite at t=2.1; "
            f"records stop after 2 states"]
        for amp, path in zip((300, 120), paths):
            alone = tmp_path / f"alone{amp}"
            assert main(["run", "--config", path, "--out", str(alone)]) == 3
            name = f"blowup_{amp}"
            assert (stacked / f"{name}.csv").read_bytes() == (alone / f"{name}.csv").read_bytes()
            manifests = [json.loads((out / f"{name}.manifest.json").read_text())
                         for out in (stacked, alone)]
            for manifest in manifests:
                assert manifest.pop("started") and manifest.pop("finished")
                assert set(manifest.pop("cpu_s")) == {"integrating", "budgets"}
            assert manifests[0] == manifests[1] and manifests[0]["status"] == "aborted"

    def test_stacked_blowup_ends_its_stream_at_once(self, tmp_path, monkeypatch):
        # the field at amplitude 120 blows up at its third record, amid a block
        # of the budgets process (128 at n = 256); its stream ends right after
        # that record, so its budgets process cuts and exits while the stable
        # member, and the blown-up row beside it, still integrate
        start, integrate, streams, exits = experiment_cli._Stream.__init__, \
            experiment_cli._iter_stack, [], []

        def kept(self, *args):
            start(self, *args)
            streams.append(self)

        def stack(fields, solver):
            for states in integrate(fields, solver):
                yield states
            streams[0].consumer.join(timeout=20)
            exits.append(streams[0].consumer.exitcode)

        monkeypatch.setattr(experiment_cli._Stream, "__init__", kept)
        monkeypatch.setattr(experiment_cli, "_iter_stack", stack)
        paths = [write_cfg(tmp_path, BLOWUP_CFG.format(amp=amp), f"{amp}.cfg")
                 for amp in (120, 1)]
        assert main(["run", "--config", paths[0], "--config", paths[1],
                     "--out", str(tmp_path / "out")]) == 3
        assert exits == [0]
        manifest = json.loads((tmp_path / "out" / "blowup_1.manifest.json").read_text())
        assert (manifest["status"], manifest["records"]) == ("completed", 201)

    def test_stack_ends_when_every_member_has(self, tmp_path, monkeypatch):
        # both fields stop being finite at their third record (t = 2.15) of
        # 200: each stream ends right after it, and the stack stops there
        assert records_drawn(tmp_path, monkeypatch, (300, 120)) == 3

    def test_lone_blowup_stops_integrating_at_once(self, tmp_path, monkeypatch):
        assert records_drawn(tmp_path, monkeypatch, (120,)) == 3

    def test_error_while_streaming_ends_every_budgets_process(self, tmp_path, monkeypatch):
        # the error closes every pipe, and each budgets process reads that as the
        # end of its stream: none is left waiting, so the run does not hang
        send, calls = experiment_cli._Stream.send, []

        def failing(self, values):
            calls.append(None)
            if len(calls) == 5:  # the third record of the first of two stacked configs
                raise RuntimeError("injected integration failure")
            return send(self, values)

        def hung(signum, frame):
            # not TimeoutError: Process.join would swallow an OSError
            raise AssertionError("a budgets process is still waiting for records")

        monkeypatch.setattr(experiment_cli._Stream, "send", failing)
        one = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG, "one.cfg")
        two = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG.replace("uneven", "uneven2"), "two.cfg")
        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            with pytest.raises(RuntimeError, match="injected"):
                main(["run", "--config", one, "--config", two, "--out", str(tmp_path / "out")])
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
            for child in multiprocessing.active_children():
                child.kill()
        assert multiprocessing.active_children() == []

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        out = str(tmp_path / "envout")
        monkeypatch.setenv("BOVIRIAL_OUT", out)
        assert main(["run", "--config", cfg]) == 0
        assert os.path.isfile(os.path.join(out, "wave.csv"))

    def test_empty_out_dir_from_environment_is_unset(self, tmp_path, monkeypatch):
        # as an empty --out does, an empty BOVIRIAL_OUT falls back to "."
        monkeypatch.setenv("BOVIRIAL_OUT", "")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--config", write_cfg(tmp_path, SOLITON_CFG)]) == 0
        assert os.path.isfile(tmp_path / "wave.csv")

    def test_parallel_fanout_matches_serial(self, tmp_path):
        # serial runs and pool workers both stream the records to a budgets
        # process: both schedules must write the same bytes
        cfg1 = write_cfg(tmp_path, SOLITON_CFG, "one.cfg")
        cfg2 = write_cfg(
            tmp_path, SOLITON_CFG.replace("wave", "wave2"), "two.cfg")
        cfg3 = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG, "three.cfg")
        configs = ["--config", cfg1, "--config", cfg2, "--config", cfg3]
        serial, par = str(tmp_path / "s"), str(tmp_path / "p")
        assert main(["run", *configs, "--out", serial]) == 0
        assert main(["run", *configs, "--out", par, "--jobs", "2"]) == 0
        for name in ("wave.csv", "wave2.csv", "uneven.csv"):
            a = open(os.path.join(serial, name), "rb").read()
            b = open(os.path.join(par, name), "rb").read()
            assert a == b
        _, rows = parse_records(os.path.join(par, "uneven.csv"))
        assert [r["energy_residual"] is None for r in rows] == [True, False, False, True, True]

    def test_budgets_process_failure_exits_1_and_keeps_rows(self, tmp_path, monkeypatch,
                                                             capfd):
        # serially each config streams to a budgets process of its own
        self.check_budgets_failure(tmp_path, monkeypatch, capfd, "1")

    def test_pool_worker_budgets_failure_exits_1_and_keeps_rows(self, tmp_path, monkeypatch,
                                                                capfd):
        # under --jobs 2 each pool worker's config streams to one too
        self.check_budgets_failure(tmp_path, monkeypatch, capfd, "2")

    @staticmethod
    def check_budgets_failure(tmp_path, monkeypatch, capfd, jobs):
        """Only the failing config fails: it exits 1, names its CSV, which
        keeps its rows, and gets no manifest, while the other config runs to
        its end. capfd, not capsys, reads a pool worker's stderr. With
        blocks of one state, the cells of each state take one _block call."""
        text = SOLITON_CFG.replace("solver.t_end = 12.0", "solver.t_end = 2.5")
        cfg = write_cfg(tmp_path, text.replace("solver.record_every = 200",
                                               "solver.record_every = 1"))
        other = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG + "weight.c_scale = 2\n", "other.cfg")
        ref, out = str(tmp_path / "ref"), str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--config", other, "--out", ref]) == 0
        block, calls = experiment_cli._block, []

        def failing(*args, **kwargs):
            # runs where the cells are computed, which counts its own calls
            # of the soliton config (window scale factor 1)
            if args[3].c_scale == 1.0:
                calls.append(None)
                if len(calls) == 5:
                    raise RuntimeError("injected budgets failure")
            return block(*args, **kwargs)

        monkeypatch.setattr(experiment_cli, "_BLOCK_SAMPLES", 1)
        monkeypatch.setattr(experiment_cli, "_block", pid_logged(failing, tmp_path / "cells.pids"))
        monkeypatch.setattr(experiment_cli, "_iter_stack", pid_logged(
            experiment_cli._iter_stack, tmp_path / "integrate.pids"))
        assert main(["run", "--config", cfg, "--config", other, "--out", out,
                     "--jobs", jobs]) == 1
        # no process that integrates computes a record's cells
        assert set((tmp_path / "integrate.pids").read_text().split()).isdisjoint(
            (tmp_path / "cells.pids").read_text().split())
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert err.count("budgets process failed") == 1 and "injected budgets failure" in err
        assert os.path.join(out, "wave.csv") in err
        # rows 0 (no budgets), 1 and 2 were written before the fifth call raised:
        # row k by call k + 2, the pass over the window that holds the state
        # after it (call 1 is u0's, alone)
        with open(os.path.join(ref, "wave.csv")) as fh:
            want = fh.read().splitlines()[:4]
        with open(os.path.join(out, "wave.csv")) as fh:
            assert fh.read().splitlines() == want
        assert not os.path.exists(os.path.join(out, "wave.manifest.json"))
        # the other config completes, with the same bytes as without the failure
        assert open(os.path.join(out, "uneven.csv"), "rb").read() == \
            open(os.path.join(ref, "uneven.csv"), "rb").read()
        with open(os.path.join(out, "uneven.manifest.json")) as fh:
            assert json.load(fh)["status"] == "completed"

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_no_process_both_integrates_and_computes_budgets(self, tmp_path, monkeypatch,
                                                              jobs):
        # every config streams its states to a budgets process, whether it
        # runs serially or in a pool worker; forked processes inherit the patches
        monkeypatch.setattr(experiment_cli, "_iter_stack", pid_logged(
            experiment_cli._iter_stack, tmp_path / "integrate.pids"))
        monkeypatch.setattr(experiment_cli, "_block", pid_logged(
            experiment_cli._block, tmp_path / "budgets.pids"))
        monkeypatch.setattr(experiment_cli, "_BLOCK_SAMPLES", 1)
        one = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG, "one.cfg")
        two = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG.replace("uneven", "uneven2"), "two.cfg")
        assert main(["run", "--config", one, "--config", two, "--jobs", jobs,
                     "--out", str(tmp_path / "out")]) == 0
        integrating = (tmp_path / "integrate.pids").read_text().split()
        budgeting = (tmp_path / "budgets.pids").read_text().split()
        # one integration per stack: serially the two configs form one stack,
        # under --jobs 2 two stacks of one; in blocks of one, a cells pass per
        # record, 5 per config, each config's in a process of its own, and
        # none in a process that integrates: it computes no record cells
        assert len(integrating) == (1 if jobs == "1" else 2) and len(budgeting) == 10
        assert len(set(budgeting)) == 2
        assert set(integrating).isdisjoint(budgeting)
        # serially this process integrates, in a pool only the workers do
        assert (str(os.getpid()) in integrating) == (jobs == "1")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_out_that_is_a_file_exits_2_before_any_run(self, tmp_path, capsys, jobs):
        one = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG, "one.cfg")
        two = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG.replace("uneven", "uneven2"), "two.cfg")
        out = file_in_the_way(tmp_path)
        assert main(["run", "--config", one, "--config", two, "--jobs", jobs,
                     "--out", str(out)]) == 2
        assert_out_refused(capsys, out)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("jobs, configs", [(8, 2), (2, 3)])
    def test_pool_starts_one_worker_per_config_at_most_jobs(self, tmp_path, monkeypatch,
                                                            jobs, configs):
        sizes = []

        class InProcessPool:
            """ProcessPoolExecutor's surface that run uses, starting no process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        run_one, stacks = experiment_cli._run_one, []

        def recorded(task):
            stacks.append([cfg.out_prefix for cfg in task[0]])
            return run_one(task)

        monkeypatch.setattr(experiment_cli, "ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr(experiment_cli, "_run_one", recorded)
        args = []
        for i in range(configs):
            text = GAUSSIAN_UNEVEN_CFG.replace("uneven", f"g{i}")
            args += ["--config", write_cfg(tmp_path, text, f"g{i}.cfg")]
        out = str(tmp_path / "out")
        assert main(["run", *args, "--jobs", str(jobs), "--out", out]) == 0
        assert sizes == [min(jobs, configs)]
        # the configs share grid and solver settings: one group, dealt round
        # robin into min(jobs, configs) stacks
        k = min(jobs, configs)
        assert stacks == [[f"g{i}" for i in range(j, configs, k)] for j in range(k)]
        assert sorted(os.listdir(out)) == sorted(
            f"g{i}.{ext}" for i in range(configs) for ext in ("csv", "manifest.json"))

    def test_writer_holds_at_most_two_states(self, tmp_path, monkeypatch):
        # blocks of one: u0 alone, then each state with the state before it,
        # a copy of one row; while a block is read no earlier block, and no
        # state passed before the last pass, is alive
        monkeypatch.setattr(experiment_cli, "_BLOCK_SAMPLES", 1)
        alive = self.states_held_by_writer(tmp_path, monkeypatch, 10)
        assert alive == [0, 1] + [0, 2] * 10 and max(alive) == 2

    def test_writer_holds_a_block_and_one_state(self, tmp_path, monkeypatch):
        # at the default cap, 16 states at n = 2048: the 41 records come in
        # blocks of 16, 16 and 9, each passed with the state before it
        assert max(1, experiment_cli._BLOCK_SAMPLES // 2048) == 16
        alive = self.states_held_by_writer(tmp_path, monkeypatch, 40)
        assert alive == [0, 16, 0, 17, 0, 10] and max(alive) == 16 + 1

    def test_reader_holds_a_block_and_one_state(self, tmp_path, monkeypatch):
        # the budgets process's own states: u0, which it is forked holding,
        # then the blocks _received makes of the sent messages. At n = 2048
        # (cap 16) the 41 records take passes of u0 alone, then of each
        # block with the state before it: 1, 16 + 1, 16 + 1 and 8 + 1
        # states, for 41 records as for any number. u0 is let go after its
        # own pass, and no earlier block is alive while a block is read. The
        # stacked irfft gives every state the bits of iter_trajectory's, so
        # the CSV is the one its states make
        cfg = build_config(parse_config_text(dense_text(2048, 40)))
        states = bv.run_trajectory(experiment_cli.initial_condition(cfg), cfg.solver)
        sent = sent_messages(cfg)
        assert [len(message) for message in sent] == [16 * 1025] * 40 + [0]
        held = [bv.Field(cfg.grid, states[0].u.samples)]  # a copy that only `held` keeps
        alive, read = states_alive(monkeypatch, [weakref.ref(held[0].samples)])
        receive, same = experiment_cli._received, []

        def received(conn, grid):
            for times, samples in read(receive(conn, grid)):
                same.extend(t == st.t and np.array_equal(row, st.u.samples)
                            for t, row, st in zip(times, samples, states[1 + len(same):]))
                yield times, samples
                del times, samples

        monkeypatch.setattr(experiment_cli, "_received", received)
        path, ref = tmp_path / "uneven.csv", tmp_path / "ref.csv"
        assert consumed(path, cfg, held, sent) == (41, None)
        assert held == [] and same == [True] * 40
        assert alive == [1, 0, 17, 0, 17, 0, 9] and max(alive) == 16 + 1
        assert experiment_cli._write_rows(str(ref), blocks_of(states, 1), cfg) == (41, None)
        assert path.read_bytes() == ref.read_bytes()

    @staticmethod
    def states_held_by_writer(tmp_path, monkeypatch, steps):
        """The states alive at each pass and each read (see states_alive)
        while _write_rows takes a record-every-step run (n = 2048) in blocks
        of the cap; its CSV must match a real run's, whose states crossed
        the pipe."""
        text = dense_text(2048, steps)
        cfg = build_config(parse_config_text(text))
        states = bv.iter_trajectory(experiment_cli.initial_condition(cfg), cfg.solver)
        path = tmp_path / "uneven.csv"
        cap = max(1, experiment_cli._BLOCK_SAMPLES // cfg.grid.n)
        with monkeypatch.context() as patch:
            alive, read = states_alive(patch, [])
            assert experiment_cli._write_rows(str(path), read(blocks_of(states, cap)), cfg) == (
                steps + 1, None)
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 0
        assert path.read_bytes() == (out / "uneven.csv").read_bytes()
        return alive

    def test_csv_bytes_do_not_depend_on_the_blocks(self, tmp_path, monkeypatch):
        # records every other step, at steps 0, 2, ..., 72 and 73: the last
        # spacing is uneven. Written in blocks of one and in blocks of the
        # default cap (32 at n = 1024: the 38 records in 32 and 6)
        text = GAUSSIAN_UNEVEN_CFG.replace("solver.record_every = 3", "solver.record_every = 2")
        text = text.replace("solver.t_end = 2.05", "solver.t_end = 2.365")
        cfg = write_cfg(tmp_path, text)
        with monkeypatch.context() as patch:
            patch.setattr(experiment_cli, "_BLOCK_SAMPLES", 1)
            assert main(["run", "--config", cfg, "--out", str(tmp_path / "one")]) == 0
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "cap")]) == 0
        csvs = [(tmp_path / out / "uneven.csv").read_bytes() for out in ("one", "cap")]
        assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 39
        _, rows = parse_records(str(tmp_path / "cap" / "uneven.csv"))
        assert [r["energy_residual"] is None for r in rows] == [True] + [False] * 35 + [True] * 2

    def test_pass_schedule_does_not_depend_on_timing(self, tmp_path, monkeypatch):
        # 41 records at n = 1024, cap 32: a _block pass for u0 alone, then
        # one for each block of 32 and 8 sent states with the states before
        # it, both when the budgets process keeps up and when the
        # integration sleeps 20 ms per record
        cfg, csvs = write_cfg(tmp_path, dense_text(1024, 40)), []
        integrate = experiment_cli._iter_stack

        def slow(fields, solver):
            for record in integrate(fields, solver):
                time.sleep(0.02)
                yield record

        for name, stack in (("fast", integrate), ("slow", slow)):
            pids = tmp_path / f"{name}.pids"
            with monkeypatch.context() as patch:
                patch.setattr(experiment_cli, "_iter_stack", stack)
                patch.setattr(experiment_cli, "_block", pid_logged(experiment_cli._block, pids))
                assert main(["run", "--config", cfg, "--out", str(tmp_path / name)]) == 0
            calls = pids.read_text().split()
            assert len(calls) == 3 and str(os.getpid()) not in calls
            csvs.append((tmp_path / name / "uneven.csv").read_bytes())
        assert csvs[0] == csvs[1] and csvs[0].count(b"\n") == 42

    def test_blowup_cut_inside_a_block(self, tmp_path, monkeypatch, capsys):
        # the record cells overflow at the third state (t = 2.1), the field one
        # step later; at the default cap (128 at n = 256) the budgets process
        # gets the three states in one block, and cuts where blocks of one do,
        # with the same rows, manifest, message (not the blowup's, which the
        # integration met after) and exit code
        text = BLOWUP_CFG.format(amp=300).replace("gaussian.width = 5.0", "gaussian.width = 2.0")
        cfg, outs = write_cfg(tmp_path, text), []
        for cap in (1, None):
            out = tmp_path / f"cap{cap}"
            with monkeypatch.context() as patch:
                if cap == 1:
                    patch.setattr(experiment_cli, "_BLOCK_SAMPLES", 1)
                assert main(["run", "--config", cfg, "--out", str(out)]) == 3
            err = capsys.readouterr().err.splitlines()
            assert err == [f"error: {out / 'blowup_300.csv'}: diagnostics not finite at t=2.1; "
                           f"records stop after 2 states"]
            manifest = json.loads((out / "blowup_300.manifest.json").read_text())
            assert manifest.pop("started") and manifest.pop("finished") and manifest.pop("cpu_s")
            outs.append(((out / "blowup_300.csv").read_bytes(), manifest))
        assert outs[0] == outs[1]
        assert outs[0][1]["status"] == "aborted" and outs[0][1]["records"] == 2

    def test_cut_inside_a_block_writes_what_blocks_of_one_write(self, tmp_path):
        # a state whose record cells overflow (finite samples, square past
        # 1e308) amid the run: in any blocks, the rows stop before it, the row
        # before it has no budget cells, and no later state is written. It
        # is first in its block in blocks of five, where the row before it
        # is the last of the window before
        text = GAUSSIAN_UNEVEN_CFG.replace("solver.record_every = 3", "solver.record_every = 1")
        cfg = build_config(parse_config_text(text))
        states = bv.run_trajectory(experiment_cli.initial_condition(cfg), cfg.solver)
        states[5] = bv.TrajectoryState(bv.Field(cfg.grid, 1e200 * states[5].u.samples),
                                       states[5].t)
        written = []
        for size in (1, 4, 5, 8):
            path = tmp_path / f"blocks{size}.csv"
            assert experiment_cli._write_rows(str(path), blocks_of(states, size), cfg) == (
                5, states[5].t)
            written.append(path.read_bytes())
        assert written[1:] == written[:1] * 3
        _, rows = parse_records(str(tmp_path / "blocks1.csv"))
        assert [r["energy_residual"] is None for r in rows] == [True, False, False, False, True]

    def test_budget_cells_that_overflow_are_a_cut(self, tmp_path):
        # a mode at 20 of 64 on a box of length 1e-98 and amplitude 1e102:
        # every record cell is finite, but (H u_x) u_x, in d31, overflows. The
        # rows stop before the second state, the first with budgets, in any
        # blocks; in blocks of two its budgets wait for the next block
        grid = bv.make_grid(64, 1e-98)
        u = bv.Field(grid, 1e102 * np.sin(40.0 * np.pi * grid.coords / grid.length))
        states = [bv.TrajectoryState(u, t) for t in (9.99, 10.0, 10.01, 10.02)]
        cfg = SimpleNamespace(grid=grid, weight=bv.WeightSchedule(a=0.25))
        written = []
        for size in (1, 2, 3):
            path = tmp_path / f"blocks{size}.csv"
            assert experiment_cli._write_rows(str(path), blocks_of(states, size), cfg) == (
                1, 10.0)
            written.append(path.read_text().splitlines())
        assert written[1:] == written[:1] * 2
        assert written[0][0] == ",".join(CSV_COLUMNS) and len(written[0]) == 2
        assert written[0][1].startswith("9.99,") and written[0][1].endswith(",,,,")

    def test_interior_row_takes_nine_transforms(self, tmp_path, transforms, transform_rows):
        # every state enters one pass, which takes 9 transform calls however
        # many states it serves: 9 transformed rows a state (3 rfft, 6
        # irfft), the state before a block entering through its integrals
        # alone. 11 states in blocks of one, four (4, 4 and 3) and the cap,
        # 32 at n = 1024
        cfg = build_config(parse_config_text(dense_text(1024, 10)))
        states = bv.run_trajectory(experiment_cli.initial_condition(cfg), cfg.solver)
        path = str(tmp_path / "uneven.csv")
        for size, passes in ((1, 11), (4, 3), (32, 1)):
            transforms.clear()
            transform_rows.clear()
            assert experiment_cli._write_rows(path, blocks_of(states, size), cfg) == (11, None)
            assert transform_rows == {"rfft": 3 * 11, "irfft": 6 * 11}
            assert transforms == {"rfft": 3 * passes, "irfft": 6 * passes}
        # as the budgets process reads a run of 41 states: u0, which it is
        # forked holding, alone, then the 40 sent in blocks of 32 and 8, each
        # block's half spectra inverted by one stacked irfft call of its rows
        cfg = build_config(parse_config_text(dense_text(1024, 40)))
        sent = sent_messages(cfg)
        transforms.clear()
        transform_rows.clear()
        assert consumed(path, cfg, [experiment_cli.initial_condition(cfg)], sent) == (41, None)
        assert transform_rows == {"rfft": 3 * 41, "irfft": 6 * 41 + 40}
        assert transforms == {"rfft": 3 * 3, "irfft": 6 * 3 + 2}

    def test_integration_takes_eight_transforms_a_step_and_none_a_record(self, tmp_path,
                                                                           transforms):
        # counted in this process, which integrates a serial run: an rfft of
        # u0, then per step four flux evaluations of an irfft and an rfft
        # each, and nothing for the 11 records it sends; the budgets process
        # counts its own transforms in its forked copy of the counter
        cfg = write_cfg(tmp_path, dense_text(1024, 10))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert transforms == {"rfft": 1 + 4 * 10, "irfft": 4 * 10}

    @pytest.mark.parametrize("n", [2048, 8192])
    def test_states_pipe_takes_two_blocks_without_blocking(self, n):
        # a sending end that would block raises instead: two blocks of
        # messages, each a half spectrum, fit in the resized pipe (the
        # default 64 KiB takes three whole states at n = 2048)
        reader, sender = experiment_cli._states_pipe(multiprocessing.get_context("fork"))
        try:
            os.set_blocking(sender.fileno(), False)
            message = np.zeros(n // 2 + 1, np.complex128)
            for _ in range(2 * max(1, experiment_cli._BLOCK_SAMPLES // n)):
                sender.send_bytes(message)
        finally:
            reader.close()
            sender.close()

    @pytest.mark.parametrize("block", [1, 4, 5, None])
    def test_spectrum_whose_samples_overflow_is_a_cut(self, tmp_path, monkeypatch, capsys,
                                                      block):
        # the sixth state, the fifth sent, is a finite half spectrum whose
        # irfft overflows: the budgets process meets it, and the rows stop
        # before it as at any cut, the fifth row without budgets, exit 3. It
        # is alone in its block in blocks of one, first in it in blocks of
        # four (after u0's block of its own), last in it in blocks of five,
        # and amid the one block of 10 at the default cap (32 at n = 1024)
        if block:
            monkeypatch.setattr(experiment_cli, "_BLOCK_SAMPLES", block * 1024)
        text = dense_text(1024, 10)
        cfg = build_config(parse_config_text(text))
        integrate = experiment_cli._iter_stack

        def overflowing(fields, solver):
            for k, (t, vh) in enumerate(integrate(fields, solver), start=1):
                if k == 5:
                    vh = vh * (1e308 / np.abs(vh).max())
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert np.isfinite(vh).all()
                        assert not np.isfinite(np.fft.irfft(vh, cfg.grid.n)).all()
                yield t, vh

        monkeypatch.setattr(experiment_cli, "_iter_stack", overflowing)
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, text), "--out", str(out)]) == 3
        assert capsys.readouterr().err == (f"error: {out / 'uneven.csv'}: diagnostics not "
                                           f"finite at t=2.025; records stop after 5 states\n")
        manifest = json.loads((out / "uneven.manifest.json").read_text())
        assert (manifest["status"], manifest["records"]) == ("aborted", 5)
        states = bv.run_trajectory(experiment_cli.initial_condition(cfg), cfg.solver)[:5]
        ref = tmp_path / "ref.csv"
        assert experiment_cli._write_rows(str(ref), blocks_of(states, 1), cfg) == (5, None)
        assert (out / "uneven.csv").read_bytes() == ref.read_bytes()

    def test_serial_parent_keeps_no_sent_state(self, tmp_path, monkeypatch):
        assert sent_states_kept(tmp_path, monkeypatch, ["uneven"]) == [0] * 10

    def test_serial_parent_keeps_no_sent_state_of_a_stack(self, tmp_path, monkeypatch):
        assert sent_states_kept(tmp_path, monkeypatch, ["uneven", "uneven2"]) == [0] * 10

    def test_stacks_hold_at_most_stack_max_configs(self, tmp_path, monkeypatch):
        # five compatible configs run serially as stacks of 2, 2 and 1, one
        # after another, so at most two budgets processes are alive at once
        start, alive = experiment_cli._Stream.__init__, []

        def counted(self, *args):
            start(self, *args)
            alive.append(len(multiprocessing.active_children()))

        monkeypatch.setattr(experiment_cli, "_STACK_MAX", 2)
        monkeypatch.setattr(experiment_cli._Stream, "__init__", counted)
        args = []
        for i in range(5):
            text = GAUSSIAN_UNEVEN_CFG.replace("uneven", f"g{i}")
            args += ["--config", write_cfg(tmp_path, text, f"g{i}.cfg")]
        out = tmp_path / "out"
        assert main(["run", *args, "--out", str(out)]) == 0
        assert alive == [1, 2, 1, 2, 1]
        assert multiprocessing.active_children() == []
        ref = tmp_path / "ref"
        assert main(["run", "--config", args[1], "--out", str(ref)]) == 0
        assert (out / "g0.csv").read_bytes() == (ref / "g0.csv").read_bytes()

    def test_fanout_reports_worst_exit_code(self, tmp_path):
        good = write_cfg(tmp_path, SOLITON_CFG, "good.cfg")
        bad = write_cfg(tmp_path, "scenario = nope\n", "bad.cfg")
        out = str(tmp_path / "out")
        assert main(["run", "--config", good, "--config", bad,
                     "--out", out]) == 2

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_initial_data_exits_2_while_good_config_runs(self, tmp_path, capsys, jobs):
        good = write_cfg(tmp_path, SOLITON_CFG, "good.cfg")
        bad = write_cfg(tmp_path, hostile_cfg_text(tmp_path, "gaussian_nan")
                        + "output.prefix = bad\n", "bad.cfg")
        out = str(tmp_path / "out")
        assert main(["run", "--config", good, "--config", bad, "--out", out,
                     "--jobs", jobs]) == 2
        assert "bad.cfg" in capsys.readouterr().err
        assert os.path.isfile(os.path.join(out, "wave.csv"))
        assert glob.glob(os.path.join(out, "bad.*")) == []

    def test_soliton_narrower_than_a_grid_cell_exits_2_at_load(self, tmp_path, capsys):
        # unchecked, it sampled a single spike (I1 = -390.66, not the wave's
        # -2 pi) and aborted with exit 3 after 2 rows
        text = """\
scenario = soliton
grid.n = 256
grid.length = 100.0
solver.dt = 0.01
solver.t0 = 2.0
solver.t_end = 2.02
soliton.c = 500.0
"""
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"error: {cfg}: profile too narrow for the grid: width 1/c = 0.002 is below "
            f"length/n = 0.390625\n")
        assert not out.exists()

    def test_t0_weighed_at_1_by_rounding_exits_2_at_load(self, tmp_path, capsys):
        # t0 exceeds 1, but the first record's t - h, h = t - t0, rounds to
        # 1.0, where the window weights are undefined. Unchecked, the budgets
        # process raised there: exit 1, a traceback and a header-only CSV
        text = """\
scenario = gaussian
grid.n = 256
grid.length = 100.0
solver.dt = 0.1
solver.t0 = 1.0000000000000002
solver.t_end = 5.2
solver.record_every = 21
gaussian.amplitude = 0.5
gaussian.width = 4.0
"""
        t1 = 1.0000000000000002 + 21 * 0.1
        assert t1 - (t1 - 1.0000000000000002) == 1.0
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {cfg}: solver.t0 must exceed 1") and "1.0 " in err
        assert not out.exists() and glob.glob(str(tmp_path / "**" / "*.csv"), recursive=True) == []
        assert glob.glob(str(tmp_path / "**" / "*.json"), recursive=True) == []

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_duplicate_prefix_exits_2_before_any_run(self, tmp_path, capsys, jobs):
        # the first names its prefix, the second falls back to the scenario name
        one = write_cfg(tmp_path, SOLITON_CFG.replace("wave", "soliton"), "one.cfg")
        two = write_cfg(tmp_path, SOLITON_CFG.replace("output.prefix = wave\n", ""), "two.cfg")
        out = str(tmp_path / "out")
        assert main(["run", "--config", one, "--config", two, "--out", out,
                     "--jobs", jobs]) == 2
        assert "'soliton'" in capsys.readouterr().err
        assert glob.glob(os.path.join(out, "*.csv")) == []

    def test_custom_scenario_round_trip(self, tmp_path):
        g = bv.make_grid(512, 100.0)
        samples = 0.4 * np.exp(-((g.coords / 3.0) ** 2))
        data = tmp_path / "init.txt"
        np.savetxt(data, samples)
        text = f"""\
scenario = custom
grid.n = 512
grid.length = 100.0
solver.dt = 0.01
solver.t0 = 2.0
solver.t_end = 2.1
custom.samples_file = {data}
output.prefix = custom
"""
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--out", out]) == 0
        diags, _ = parse_records(os.path.join(out, "custom.csv"))
        want = bv.invariants(bv.Field(g, samples))[1]
        assert diags[0].I2 == pytest.approx(want, rel=1e-12)

    def test_custom_scenario_wrong_size_rejected(self, tmp_path):
        data = tmp_path / "init.txt"
        np.savetxt(data, np.zeros(100))
        text = f"""\
scenario = custom
grid.n = 512
grid.length = 100.0
solver.dt = 0.01
solver.t0 = 2.0
solver.t_end = 2.1
custom.samples_file = {data}
"""
        cfg = write_cfg(tmp_path, text)
        assert main(["run", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestParseRecords:
    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("t,I1\n1.0,2.0\n")
        with pytest.raises(ConfigError):
            parse_records(str(p))

    def test_rejects_bad_float(self, tmp_path):
        p = tmp_path / "r.csv"
        row = ",".join(["xyz"] + ["1.0"] * (len(CSV_COLUMNS) - 1))
        p.write_text(",".join(CSV_COLUMNS) + "\n" + row + "\n")
        with pytest.raises(ConfigError):
            parse_records(str(p))

    def test_rejects_unordered_times(self, tmp_path):
        p = tmp_path / "r.csv"

        def row(t):
            cells = [repr(t)] + [repr(1.0)] * 6 + [""] * (len(CSV_COLUMNS) - 7)
            return ",".join(cells)

        p.write_text(",".join(CSV_COLUMNS) + "\n" + row(3.0) + "\n" + row(2.0) + "\n")
        with pytest.raises(ConfigError):
            parse_records(str(p))


def synthetic_records(path, a=0.0, c=1.0, n=2000):
    """Constant F = 1 records from t = 10 to 10^4 on the given schedule."""
    sched = bv.WeightSchedule(a=a, c_scale=c)
    ts = np.geomspace(10.0, 1e4, n)
    with open(path, "w") as fh:
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for t in ts:
            lam = lambda_at(sched, float(t))
            cells = [repr(float(t)), repr(0.5), repr(2.0), repr(0.25),
                     repr(1.0), repr(lam), repr(1.0)]
            cells += [""] * (len(CSV_COLUMNS) - 7)
            fh.write(",".join(cells) + "\n")


class TestAnalyze:
    def test_rows_carry_the_lemma_ratios_of_their_states(self, tmp_path):
        # with q = (F - d321)/lambda = (1/lambda) int phi' u^2, an interior
        # row's d32 and |d31| are KM1's and KM2's lhs and q their rhs_unit on
        # the row's own state, so KM1 and KM2 read off the CSV untransformed
        text = """\
scenario = random
grid.n = 512
grid.length = 100.0
solver.dt = 0.005
solver.t0 = 2.0
solver.t_end = 3.0
solver.record_every = 20
random.seed = 3
random.amplitude = 0.5
output.prefix = lemmas
"""
        cfg, out = write_cfg(tmp_path, text), tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        _, rows = parse_records(str(out / "lemmas.csv"))
        loaded = load_config(cfg)
        states = bv.run_trajectory(experiment_cli.initial_condition(loaded), loaded.solver)
        interior = [(row, st) for row, st in zip(rows, states) if row["d32"] is not None]
        assert len(rows) == len(states) == 11 and len(interior) == 9
        for row, st in interior:
            assert row["t"] == st.t
            lam, q = row["lambda"], (row["F"] - row["d321"]) / row["lambda"]
            for tag, lhs in (("KM1", row["d32"]), ("KM2", abs(row["d31"]))):
                rep = bv.run_check(tag, st.u, lam)
                assert rep.lhs == pytest.approx(lhs, rel=1e-12, abs=0)
                assert rep.rhs_unit == pytest.approx(q, rel=1e-12, abs=0)

    @pytest.mark.parametrize("column, cell", [("E", "nan"), ("F", "inf")])
    def test_non_finite_cell_exits_2(self, tmp_path, capsys, column, cell):
        rec = tmp_path / "r.csv"
        synthetic_records(str(rec))
        lines = rec.read_text().splitlines()
        cells = lines[40].split(",")
        cells[CSV_COLUMNS.index(column)] = cell
        lines[40] = ",".join(cells)
        rec.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["analyze", "--records", str(rec), "--out", str(out)]) == 2
        assert "line 41" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_constant_decay_integral_is_log_four(self, tmp_path):
        rec = tmp_path / "r.csv"
        synthetic_records(str(rec))
        out = str(tmp_path / "out")
        assert main(["analyze", "--records", str(rec), "--a", "0.0",
                     "--c", "1.0", "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["integrated_decay"] == pytest.approx(
            math.log(4.0), rel=1e-4)
        assert summary["minima_monotone"] is False  # constant F never decays
        assert summary["l1_exponent"] == pytest.approx(0.0, abs=1e-10)
        assert not summary["flags"]
        for name in ("F_vs_t.dat", "mass_residual_vs_t.dat",
                     "energy_residual_vs_t.dat", "l1_loglog.dat"):
            assert os.path.isfile(os.path.join(out, name))

    def test_schedule_mismatch_flagged(self, tmp_path):
        rec = tmp_path / "r.csv"
        synthetic_records(str(rec), a=0.0)
        out = str(tmp_path / "out")
        assert main(["analyze", "--records", str(rec), "--a", "0.25",
                     "--c", "1.0", "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert any("lambda" in f for f in summary["flags"])

    def test_schedule_comes_from_the_run_manifest(self, tmp_path, capsys):
        # gaussian_budget runs with a = 0.25; read against the flags' default
        # a = 0 its lambda column used to raise a false mismatch flag
        run_out = tmp_path / "run"
        assert main(["run", "--config", str(SCRIPTS / "gaussian_budget.cfg"),
                     "--out", str(run_out)]) == 0
        records = str(run_out / "gaussian_budget.csv")

        def analyze(*flags):
            out = tmp_path / f"ana{len(flags)}"
            code = main(["analyze", "--records", records, *flags, "--out", str(out)])
            return code, (json.loads((out / "summary.json").read_text()) if code == 0 else None)

        code, summary = analyze()
        assert code == 0
        assert summary["schedule"] == {"a": 0.25, "c_scale": 1.0}
        assert not any("lambda" in f for f in summary["flags"])
        assert analyze("--a", "0.25", "--c", "1")[0] == 0
        assert analyze("--a", "0.0")[0] == 2
        assert "--a 0 contradicts weight.a = 0.25" in capsys.readouterr().err
        manifest = run_out / "gaussian_budget.manifest.json"
        manifest.write_text("{}")
        assert analyze()[0] == 2
        assert "no readable weight schedule" in capsys.readouterr().err
        # without the manifest the flags decide, as before
        manifest.unlink()
        code, summary = analyze()
        assert code == 0
        assert any("lambda column disagrees" in f and "1.360e+00" in f for f in summary["flags"])

    @pytest.mark.parametrize("status", ["completed", "aborted"])
    def test_aborted_run_is_flagged(self, tmp_path, status):
        # an aborted run's rows stop at its cut, so its minima read like a
        # finished run's; a completed manifest changes no byte of the summary
        rec = tmp_path / "r.csv"
        synthetic_records(str(rec))

        def summary(out):
            assert main(["analyze", "--records", str(rec), "--out", str(tmp_path / out)]) == 0
            return (tmp_path / out / "summary.json").read_bytes()

        bare = summary("bare")
        (tmp_path / "r.manifest.json").write_text(
            json.dumps({"config": {}, "records": 2000, "status": status}))
        got = summary("run")
        if status == "completed":
            assert got == bare
        else:
            got, want = json.loads(got), json.loads(bare)
            assert want.pop("flags") == []
            assert got.pop("flags") == ["run aborted after 2000 records (last t = 10000)"]
            assert got == want

    def test_short_horizon_exits_2(self, tmp_path):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        run_out = str(tmp_path / "run")
        main(["run", "--config", cfg, "--out", run_out])
        assert main(["analyze", "--records",
                     os.path.join(run_out, "wave.csv"),
                     "--a", "0.0", "--c", "1.0",
                     "--out", str(tmp_path / "ana")]) == 2

    def test_records_not_utf8_exits_2(self, tmp_path, capsys):
        rec = tmp_path / "r.csv"
        synthetic_records(str(rec))
        rec.write_bytes(rec.read_bytes() + b"\xff\xfe\n")
        out = tmp_path / "out"
        assert main(["analyze", "--records", str(rec), "--out", str(out)]) == 2
        assert "cannot read" in capsys.readouterr().err
        assert not (out / "summary.json").exists()

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        rec = tmp_path / "r.csv"
        synthetic_records(str(rec))
        out = file_in_the_way(tmp_path)
        assert main(["analyze", "--records", str(rec), "--out", str(out)]) == 2
        assert_out_refused(capsys, out)

    def test_missing_records_exits_2(self, tmp_path):
        assert main(["analyze", "--records", str(tmp_path / "no.csv"),
                     "--a", "0.0", "--c", "1.0",
                     "--out", str(tmp_path)]) == 2

    def test_real_run_summary_drift(self, tmp_path):
        text = SOLITON_CFG.replace("solver.t_end = 12.0", "solver.t_end = 22.0")
        cfg = write_cfg(tmp_path, text)
        run_out = str(tmp_path / "run")
        main(["run", "--config", cfg, "--out", run_out])
        out = str(tmp_path / "ana")
        assert main(["analyze", "--records", os.path.join(run_out, "wave.csv"),
                     "--a", "0.0", "--c", "1.0", "--out", out]) == 0
        summary = json.load(open(os.path.join(out, "summary.json")))
        assert summary["drift"]["I1_abs"] < 1e-10
        assert summary["records"] == 21


class TestCheckLemmas:
    def test_report_and_summary(self, tmp_path):
        out = str(tmp_path / "lem")
        assert main(["check-lemmas", "--seed", "7", "--grid-n", "512",
                     "--grid-length", "400", "--lambdas", "1,20",
                     "--out", out]) == 0
        lines = open(os.path.join(out, "lemma_report.csv")).read().splitlines()
        assert lines[0] == "input_id,tag,lambda,lhs,rhs_unit,ratio"
        assert len(lines) == 1 + 4 * 32 * 2
        summary = json.load(open(os.path.join(out, "lemma_summary.json")))
        assert summary["seed"] == 7
        for tag in ("KM1", "KM2", "COMM", "KEY"):
            assert summary["sup_ratio"][tag] == summary["calibrate"][tag]

    def test_empty_lambda_list_exits_2(self, tmp_path):
        assert main(["check-lemmas", "--lambdas", "",
                     "--out", str(tmp_path)]) == 2

    def test_negative_lambda_exits_2(self, tmp_path):
        assert main(["check-lemmas", "--lambdas", "1,-4",
                     "--out", str(tmp_path)]) == 2

    def test_weight_that_misses_every_entry_sample_exits_2(self, tmp_path, capsys):
        # at lam = 1e-300 phi'(x/lam) is non-zero only at x = 0, where gauss2
        # underflows to 0; the scale is below the spacing L/n = 1.5625
        out = tmp_path / "lem"
        assert main(["check-lemmas", "--grid-n", "256", "--grid-length", "400",
                     "--lambdas", "1e-300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: window scale lam = 1e-300 is outside [L/n, L/2] = " \
                      "[1.5625, 200] for this grid\n"
        assert not out.exists()

    def test_weight_flat_on_the_grid_exits_2(self, tmp_path, capsys):
        # at lam = 1e300 phi'(x/lam) is 1 on every sample, and the ratios
        # were meaningless (sup KM1 7.97e299); the scale is above L/2 = 200
        out = tmp_path / "lem"
        assert main(["check-lemmas", "--grid-n", "256", "--grid-length", "400",
                     "--lambdas", "5,1e300", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "error: window scale lam = 1e+300 is outside [L/n, L/2] = " \
                      "[1.5625, 200] for this grid\n"
        assert not out.exists()

    def test_entry_whose_rows_overflow_exits_2(self, tmp_path, capsys, monkeypatch):
        # a corpus entry of amplitude 1e200 overflows f^2: its rows are not
        # finite, so no report is written
        def huge(grid, seed):
            return bv.Corpus((bv.Field(grid, 1e200 * np.exp(-(grid.coords / 5.0) ** 2)),),
                             ("huge",))

        monkeypatch.setattr(experiment_cli, "build_corpus", huge)
        out = tmp_path / "lem"
        assert main(["check-lemmas", "--grid-n", "256", "--grid-length", "400",
                     "--lambdas", "5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "error: KM1 on entry 'huge' at lam = 5 is not finite (lhs = nan, ")
        assert not out.exists()

    def test_scales_at_the_bounds_run(self, tmp_path):
        out = tmp_path / "lem"
        assert main(["check-lemmas", "--grid-n", "256", "--grid-length", "400",
                     "--lambdas", "1.5625,200", "--out", str(out)]) == 0
        summary = json.load(open(out / "lemma_summary.json"))
        assert summary["lambdas"] == [1.5625, 200.0]

    def test_out_that_is_a_file_exits_2(self, tmp_path, capsys):
        out = file_in_the_way(tmp_path)
        assert main(["check-lemmas", "--grid-n", "256", "--grid-length", "400",
                     "--lambdas", "2,5", "--out", str(out)]) == 2
        assert_out_refused(capsys, out)

    @pytest.mark.parametrize("args", [["--seed", "-1"],
                                      ["--grid-n", "64", "--grid-length", "1e308"]],
                             ids=["seed", "grid_length"])
    def test_bad_input_exits_2(self, tmp_path, capsys, args):
        out = tmp_path / "lem"
        # the error alone explains the input: no numpy overflow warnings
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["check-lemmas", *args, "--lambdas", "1", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        if args[0] == "--seed":
            assert "--seed" in err
        assert not (out / "lemma_summary.json").exists()


class TestSolitonTest:
    def test_certified_family_passes(self, capsys):
        assert main(["soliton-test", "--c", "1.0", "--validate-family"]) == 0
        out = capsys.readouterr().out
        assert "certified" in out
        assert "classical" not in out
        assert out.count("ok") == 4

    def test_invalid_speed_exits_2(self, capsys):
        assert main(["soliton-test", "--c", "-1.0"]) == 2

    def test_soliton_narrower_than_a_grid_cell_exits_2(self, capsys):
        # unchecked, the profile overflowed and the residual read nan (exit 3)
        assert main(["soliton-test", "--c", "1e160"]) == 2
        assert capsys.readouterr().err == (
            "error: profile too narrow for the grid: width 1/c = 1e-160 is below "
            "length/n = 0.0976562\n")
