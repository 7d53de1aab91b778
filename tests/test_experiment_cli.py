"""End-to-end checks of the command surface: configs, files, exit codes."""

import glob
import json
import math
import multiprocessing
import os
import warnings
import weakref
from pathlib import Path

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

# initial data that passes every key check but cannot start a run
HOSTILE_INITIAL_DATA = {
    "custom_wrong_size": "scenario = custom\ncustom.samples_file = {short}\n",
    "soliton_too_wide": "scenario = soliton\nsoliton.c = 0.05\n",
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

    @pytest.mark.parametrize("name", ["soliton_decay", "gaussian_budget", "random_field"])
    def test_stock_config_loads(self, name):
        # no load rule may reject a config the repository ships
        assert load_config(str(SCRIPTS / f"{name}.cfg")).out_prefix == name


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
        # the budget cells must be exactly what the library computes from
        # the recorded snapshots with the record spacing as the step
        text = SOLITON_CFG.replace("solver.t_end = 12.0", "solver.t_end = 2.05")
        text = text.replace("solver.record_every = 200",
                            "solver.record_every = 2")
        cfg = write_cfg(tmp_path, text)
        out = str(tmp_path / "out")
        main(["run", "--config", cfg, "--out", out])
        diags, rows = parse_records(os.path.join(out, "wave.csv"))
        assert rows[0]["mass_residual"] is None
        assert rows[-1]["energy_residual"] is None
        interior = rows[1:-1]
        assert interior

        g = bv.make_grid(1024, 200.0)
        p = bv.soliton(1.0, -5.0, g)
        u0 = bv.soliton_profile(p, g)
        solver = bv.SolverConfig(dt=0.005, t0=2.0, t_end=2.05, record_every=2)
        states = bv.run_trajectory(u0, solver)
        sched = bv.WeightSchedule(a=0.0, c_scale=1.0)
        h = states[1].t - states[0].t
        mb = bv.mass_budget(states[0].u, states[1].u, states[2].u,
                            states[1].t, h, sched)
        eb = bv.energy_budget(states[0].u, states[1].u, states[2].u,
                              states[1].t, h, sched)
        row = rows[1]
        assert row["mass_residual"] == mb.residual  # repr round-trip is exact
        assert row["a3"] == mb.a3
        assert row["energy_residual"] == eb.residual
        assert row["d321"] == eb.d321

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

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        cfg = write_cfg(tmp_path, SOLITON_CFG)
        out = str(tmp_path / "envout")
        monkeypatch.setenv("BOVIRIAL_OUT", out)
        assert main(["run", "--config", cfg]) == 0
        assert os.path.isfile(os.path.join(out, "wave.csv"))

    def test_parallel_fanout_matches_serial(self, tmp_path):
        # serial runs stream the records to a budgets process, pool workers
        # write them in-process: both feeders must write the same bytes
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
        # serially the budgets run in a second process per config
        self.check_budgets_failure(tmp_path, monkeypatch, capfd, "1")

    def test_pool_worker_budgets_failure_exits_1_and_keeps_rows(self, tmp_path, monkeypatch,
                                                                capfd):
        # under --jobs 2 they run in the pool worker of each config
        self.check_budgets_failure(tmp_path, monkeypatch, capfd, "2")

    @staticmethod
    def check_budgets_failure(tmp_path, monkeypatch, capfd, jobs):
        """Only the failing config fails: it exits 1, names its CSV, which
        keeps its rows, and gets no manifest, while the other config runs to
        its end. capfd, not capsys, reads a pool worker's stderr."""
        text = SOLITON_CFG.replace("solver.t_end = 12.0", "solver.t_end = 2.5")
        cfg = write_cfg(tmp_path, text.replace("solver.record_every = 200",
                                               "solver.record_every = 1"))
        other = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG + "weight.c_scale = 2\n", "other.cfg")
        ref, out = str(tmp_path / "ref"), str(tmp_path / "out")
        assert main(["run", "--config", cfg, "--config", other, "--out", ref]) == 0
        budgets, calls = experiment_cli.budgets, []

        def failing(*args):
            # runs where the budgets are computed, which counts its own calls
            # of the soliton config (window scale factor 1)
            if args[-1].c_scale == 1.0:
                calls.append(None)
                if len(calls) == 3:
                    raise RuntimeError("injected budgets failure")
            return budgets(*args)

        monkeypatch.setattr(experiment_cli, "budgets", failing)
        assert main(["run", "--config", cfg, "--config", other, "--out", out,
                     "--jobs", jobs]) == 1
        assert multiprocessing.active_children() == []
        err = capfd.readouterr().err
        assert err.count("budgets process failed") == 1 and "injected budgets failure" in err
        assert os.path.join(out, "wave.csv") in err
        # rows 0 (no budgets), 1 and 2 were written before the third call raised
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

        monkeypatch.setattr(experiment_cli, "ProcessPoolExecutor", InProcessPool)
        args = []
        for i in range(configs):
            text = GAUSSIAN_UNEVEN_CFG.replace("uneven", f"g{i}")
            args += ["--config", write_cfg(tmp_path, text, f"g{i}.cfg")]
        out = str(tmp_path / "out")
        assert main(["run", *args, "--jobs", str(jobs), "--out", out]) == 0
        assert sizes == [min(jobs, configs)]
        assert sorted(os.listdir(out)) == sorted(
            f"g{i}.{ext}" for i in range(configs) for ext in ("csv", "manifest.json"))

    def test_writer_holds_at_most_three_states(self, tmp_path):
        text = GAUSSIAN_UNEVEN_CFG.replace("solver.record_every = 3", "solver.record_every = 1")
        cfg = build_config(parse_config_text(text))
        refs, alive = [], []

        def records():
            for st in bv.iter_trajectory(experiment_cli.initial_condition(cfg), cfg.solver):
                refs.append(weakref.ref(st.u))
                alive.append(sum(r() is not None for r in refs))
                cells = experiment_cli._cells(experiment_cli._record_values, st.u, st.t,
                                              cfg.weight)
                yield st, cells

        path = str(tmp_path / "uneven.csv")
        assert experiment_cli._write_rows(path, records(), cfg) == (11, None)
        # prev, cur and the next state, which completes cur's budgets
        assert max(alive) == 3
        out = str(tmp_path / "out")
        assert main(["run", "--config", write_cfg(tmp_path, text), "--out", out]) == 0
        assert open(path, "rb").read() == open(os.path.join(out, "uneven.csv"), "rb").read()

    def test_serial_parent_keeps_no_sent_state(self, tmp_path, monkeypatch):
        integrate, refs, kept = bv.iter_trajectory, [], []

        def watched(u0, solver):
            states = integrate(u0, solver)
            del u0
            for st in states:
                # the states sent before this one, still alive in this process
                kept.append(sum(r() is not None for r in refs))
                refs.append(weakref.ref(st.u))
                yield st

        monkeypatch.setattr(experiment_cli, "iter_trajectory", watched)
        cfg = write_cfg(tmp_path, GAUSSIAN_UNEVEN_CFG.replace("solver.record_every = 3",
                                                             "solver.record_every = 1"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
        assert kept == [0] * 11

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

    def test_scales_at_the_bounds_run(self, tmp_path):
        out = tmp_path / "lem"
        assert main(["check-lemmas", "--grid-n", "256", "--grid-length", "400",
                     "--lambdas", "1.5625,200", "--out", str(out)]) == 0
        summary = json.load(open(out / "lemma_summary.json"))
        assert summary["lambdas"] == [1.5625, 200.0]

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
