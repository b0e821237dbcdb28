import contextlib
import csv
import os
import shutil

import numpy as np
import pytest

from vmlandau import cli, lab
from vmlandau.collision import CollisionParams, assemble_L, sigma_field
from vmlandau.grid import build_grid


def _tiny_cfg(outdir) -> lab.ExperimentConfig:
    """One shell, two directions, two midpoint steps on a 9^3 lattice."""
    return lab.ExperimentConfig(n=9, shells=(0.5,), directions_per_shell=2, T=0.5, dt=0.25,
                                save_interval=0.25, outdir=str(outdir))


def _blas_counts(controls) -> list:
    return [get_threads() for _, get_threads in controls]


@contextlib.contextmanager
def _blas_threads(count):
    """Set every loaded OpenBLAS to ``count`` threads; restore the old counts after."""
    controls = lab._openblas_controls()
    saved = _blas_counts(controls)
    for set_threads, _ in controls:
        set_threads(count)
    try:
        yield controls
    finally:
        for (set_threads, _), old in zip(controls, saved):
            set_threads(old)


def _same_mode_files(dir_a, dir_b, names):
    for name in names:
        a = open(os.path.join(dir_a, name), "rb").read()
        b = open(os.path.join(dir_b, name), "rb").read()
        assert a == b, name


needs_openblas = pytest.mark.skipif(
    not lab._openblas_controls(),
    reason="no OpenBLAS is loaded, so there is no BLAS thread count to hold")


@pytest.fixture(scope="module")
def op9(params):
    return assemble_L(build_grid(7.0, 9), params)


@pytest.fixture(scope="module")
def sweeps(op9, tmp_path_factory):
    """The tiny sweep run serially and on two forked workers, keyed by VML_THREADS."""
    out = {}
    for workers in ("1", "2"):
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("VML_THREADS", workers)
            outdir = tmp_path_factory.mktemp(f"sweep_w{workers}")
            out[workers] = lab.run_sweep(_tiny_cfg(outdir), op9)
    return out


class TestRunSweep:
    def test_archive_bytes_do_not_depend_on_worker_count(self, sweeps):
        serial, forked = sweeps["1"], sweeps["2"]
        assert not serial.failures and not forked.failures
        names = sorted(os.path.basename(p) for p in serial.mode_csvs + serial.checkpoints)
        assert names == ["mode_0000.ckpt", "mode_0000.csv", "mode_0001.ckpt", "mode_0001.csv"]
        assert names == sorted(os.path.basename(p) for p in forked.mode_csvs + forked.checkpoints)
        _same_mode_files(serial.outdir, forked.outdir, names)

    @needs_openblas
    def test_archive_bytes_do_not_depend_on_caller_blas_threads(self, tmp_path, monkeypatch):
        # op=None: each sweep assembles its own operator, under the caller's BLAS count
        monkeypatch.setenv("VML_THREADS", "1")
        archives = {}
        for count in (1, 2):
            with _blas_threads(count):
                archives[count] = lab.run_sweep(_tiny_cfg(tmp_path / f"blas{count}"))
        assert not archives[1].failures and not archives[2].failures
        names = sorted(os.path.basename(p)
                       for p in archives[1].mode_csvs + archives[1].checkpoints)
        assert len(names) == 4
        _same_mode_files(archives[1].outdir, archives[2].outdir, names)

    @needs_openblas
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_each_mode_runs_on_one_blas_thread(self, workers, op9, tmp_path, monkeypatch):
        monkeypatch.setenv("VML_THREADS", workers)
        log = tmp_path / "threads"
        log.mkdir()
        integrate = lab.integrate_mode

        def recording(state0, *args, **kwargs):
            # forked workers inherit this wrapper, so each mode writes its own record
            counts = _blas_counts(lab._openblas_controls())
            name = "_".join(f"{x:g}" for x in state0.k)
            (log / name).write_text(",".join(map(str, counts)))
            return integrate(state0, *args, **kwargs)

        monkeypatch.setattr(lab, "integrate_mode", recording)
        with _blas_threads(2) as controls:
            archive = lab.run_sweep(_tiny_cfg(tmp_path / "run"), op9)
            after = _blas_counts(controls)
        assert not archive.failures
        records = {p.name: [int(c) for c in p.read_text().split(",")] for p in log.iterdir()}
        assert len(records) == 2
        for counts in records.values():
            assert counts == [1] * len(controls)
        assert after == [2] * len(controls)


    def test_foreign_operator_is_refused(self, op11_soft, tmp_path):
        cfg = lab.ExperimentConfig(n=9, R=7.0, gamma=-3.0, shells=(0.5,), directions_per_shell=2,
                                   T=0.5, dt=0.25, save_interval=0.25, outdir=str(tmp_path / "run"))
        with pytest.raises(ValueError, match="operator built for R = 6.0, n = 11"):
            lab.run_sweep(cfg, op11_soft)
        assert not list(tmp_path.rglob("mode_*"))
        assert not (tmp_path / "run" / "config.cfg").exists()


class TestCli:
    def test_report_counts_shells_not_k_vectors(self, sweeps):
        outdir = sweeps["1"].outdir
        assert cli.main(["report", "--archive", outdir]) == 0
        with open(os.path.join(outdir, "fit_summary.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["m"] for row in rows] == ["0", "1"]
        assert all(row["n_shells"] == "1" for row in rows)
        assert len(lab.load_archive(outdir).k_set) == 2

    def test_mode_run_writes_the_sweep_mode(self, sweeps, tmp_path):
        out = tmp_path / "mode"
        with _blas_threads(1):
            code = cli.main(["mode-run", "--k", "0,0,0.5", "--family", "mixed", "--n", "9",
                             "--T", "0.5", "--dt", "0.25", "--save-interval", "0.25",
                             "--out", str(out)])
        assert code == 0
        _same_mode_files(sweeps["1"].outdir, out, ["mode_0000.csv", "mode_0000.ckpt"])

    def test_sigma_table_writes_sigma_along_the_ray(self, tmp_path):
        out = tmp_path / "sigma.csv"
        assert cli.main(["sigma-table", "--n", "9", "--rmax", "7", "--ray", "1,0,0",
                         "--out", str(out)]) == 0
        with open(out) as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        grid = build_grid(7.0, 9)
        sigma = sigma_field(grid, CollisionParams(gamma=-3.0, c_phi=1.0))
        pairs = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
        for j, row in enumerate(rows):
            node = (4 + j) * 81 + 4 * 9 + 4   # the centre node plus j steps along xi1
            S = sigma.matrix_at(node)
            assert [float(row[f"xi{i + 1}"]) for i in range(3)] == list(grid.xi[:, node])
            assert [float(row[f"s{a + 1}{b + 1}"]) for a, b in pairs] == [S[a, b] for a, b in pairs]

    def test_spectrum_check_runs_and_annihilates_the_null_space(self):
        assert cli.main(["spectrum-check", "--n", "9", "--samples", "3"]) == 0
        res = cli.spectrum_suite(9, 7.0, -3.0, n_random=3)
        assert len(res["null_residuals"]) == 6
        assert max(res["null_residuals"]) <= 1e-12

    def test_fit_exits_1_when_inconclusive(self, sweeps, capsys):
        # T = 0.5 puts no sample inside the default window (20, 200)
        assert cli.main(["fit", "--archive", sweeps["1"].outdir]) == 1
        assert "inconclusive" in capsys.readouterr().out


class TestSynthesis:
    def test_missing_mode_is_refused(self, sweeps, tmp_path):
        outdir = tmp_path / "run"
        shutil.copytree(sweeps["1"].outdir, outdir)
        (outdir / "mode_0001.csv").unlink()
        archive = lab.load_archive(outdir)
        with pytest.raises(ValueError, match=r"modes \[1\] have no series; they carry 0\.5 "):
            lab.synthesize_norms(archive, 0)


class TestConfigText:
    def test_round_trip(self, tmp_path):
        cfg = lab.ExperimentConfig(gamma=-2.5, n=13, shells=(0.1, 0.35, 0.7),
                                   directions_per_shell=2, family="micro-only",
                                   scheme="imex-euler", dt=0.02, lin_tol=3.7e-9,
                                   max_steps=777, T=0.4, outdir="runs/other")
        path = tmp_path / "run.cfg"
        path.write_text(lab.config_to_text(cfg))
        parsed = lab.parse_config(path)
        assert parsed == cfg
        assert lab.config_to_text(parsed) == path.read_text()
        assert (type(parsed.n), type(parsed.shells), type(parsed.scheme),
                type(parsed.lin_tol)) == (int, tuple, str, float)

    @pytest.mark.parametrize("line, message", [
        ("bogus = 1", "unknown key 'bogus'"),
        ("n 25", "expected 'key = value'"),
        ("n = 2.5", "bad value for 'n'"),
        ("tau = 0.0", "unknown key 'tau'"),
    ])
    def test_bad_line_names_its_number(self, tmp_path, line, message):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\ndt = 0.5\n{line}\n")
        with pytest.raises(lab.ConfigError, match=f":3: {message}"):
            lab.parse_config(path)


    @pytest.mark.parametrize("key, value, message", [
        ("scheme", "imex-bogus", "unknown scheme 'imex-bogus'"),
        ("dt", -1.0, "dt must be positive"),
        ("lin_tol", 0.0, "tolerances must be positive"),
    ])
    def test_invalid_stepper_field_names_its_line(self, tmp_path, key, value, message):
        with pytest.raises(lab.ConfigError, match=message):
            lab.ExperimentConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\nn = 9\n{key} = {value}\nT = 0.5\n")
        with pytest.raises(lab.ConfigError, match=f"bad.cfg:3: {message}"):
            lab.parse_config(path)


class TestDecayFit:
    times = np.arange(0.0, 301.0, 5.0)
    window = (20.0, 200.0)

    @pytest.mark.parametrize("m, sigma", [(0, 0.6), (1, 1.3)])
    def test_recovers_an_exact_power_law(self, m, sigma):
        series = 3.5 * (1.0 + self.times) ** (-2.0 * sigma)
        fit = lab.decay_fit(self.times, series, self.window, m=m, shells_used=3)
        assert fit.conclusive
        assert abs(fit.sigma_hat - sigma) <= 1e-10
        assert fit.sigma_target == 0.75 + 0.5 * m
        assert (fit.window, fit.shells_used) == (self.window, 3)

    def test_too_little_decay_is_inconclusive(self):
        series = (1.0 + self.times) ** -0.1   # falls by 1.6x inside the window
        fit = lab.decay_fit(self.times, series, self.window, min_decay=5.0)
        assert not fit.conclusive
        assert np.isnan(fit.sigma_hat)

    def test_reports_the_window_it_fitted(self):
        times = self.times[self.times <= 100.0]
        fit = lab.decay_fit(times, (1.0 + times) ** -2.0, self.window)
        assert fit.conclusive
        assert fit.window == (20.0, 100.0)

    @pytest.mark.parametrize("window", [(200.0, 20.0), (50.0, 50.0)])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError, match="t2 > t1"):
            lab.decay_fit(self.times, np.ones_like(self.times), window)
