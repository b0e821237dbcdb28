import contextlib
import csv
import dataclasses
import json
import multiprocessing
import os
import re
import shutil
import tempfile
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from vmlandau import cli, lab, mode
from vmlandau.checkpoint import read_checkpoint
from vmlandau.collision import CollisionParams, LinearizedOperator, assemble_L, sigma_field
from vmlandau.grid import build_grid
from vmlandau.macro import macro_residuals
from vmlandau.mode import ModeEnergyReport, ModeState, mode_rhs

from conftest import lattice_image, profile_frame

AXES = [np.array(v, dtype=float) for v in
        ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]


def _tiny_cfg(outdir) -> lab.ExperimentConfig:
    """One shell, two directions, two midpoint steps on a 9^3 lattice."""
    return lab.ExperimentConfig(n=9, shells=(0.5,), directions_per_shell=2, T=0.5, dt=0.25,
                                save_interval=0.25, outdir=str(outdir))


def _two_shell_cfg(outdir, **changes) -> lab.ExperimentConfig:
    """_tiny_cfg on the shells 0.5 and 1.0: two orbits, so two solves."""
    return lab.ExperimentConfig(**{**vars(_tiny_cfg(outdir)), "shells": (0.5, 1.0), **changes})


def _write_run(cfg, times, series) -> None:
    """A finished run of ``cfg`` in cfg.outdir whose mode CSVs carry f_l2sq = series(k)."""
    outdir = Path(cfg.outdir)
    (outdir / "config.cfg").write_text(lab.config_to_text(cfg))
    z = np.zeros_like(times)
    for idx, (k, _w) in enumerate(lab.build_k_set(cfg)):
        rep = ModeEnergyReport(k=k, rho=0.0, times=times, f_l2sq=series(k), em_sq=z,
                               micro_D=z, macro_abc=z, a_diff=z,
                               E_term=z, B_term=z, gauss_E=z, gauss_B=z)
        (outdir / f"mode_{idx:04d}.csv").write_text(lab._mode_csv_text(rep))
    lab.report(lab._archive(outdir, cfg, []))   # the manifest marks the run finished


def _at_blas_threads(count, fn, *args):
    """fn(*args), in a child that its parent started with OPENBLAS_NUM_THREADS=count."""
    assert os.environ["OPENBLAS_NUM_THREADS"] == str(count)
    return fn(*args)


def _in_children(children, fn, outdir, *args) -> dict:
    """{count: fn(outdir / f"blas{count}", *args)} from each of the ``blas_children``, run
    at once."""
    jobs = {count: child.submit(_at_blas_threads, count, fn, Path(outdir) / f"blas{count}",
                                *args)
            for count, child in children.items()}
    return {count: job.result(timeout=300) for count, job in jobs.items()}


def _tiny_sweep(outdir) -> list:
    """The tiny sweep's file names, serial, operator assembly included."""
    cfg = _tiny_cfg(outdir)
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("VML_THREADS", "1")
        archive = lab.run_sweep(cfg, assemble_L(build_grid(cfg.R, cfg.n),
                                                cfg.collision_params()))
    assert not archive.failures
    return sorted(os.path.basename(p) for p in archive.mode_csvs + archive.checkpoints)


def _threads_per_call(outdir, op, workers) -> list:
    """The OS threads of the process that made each call of init_data, of the D-ILU set-up
    and of mode_energy_report in the two-shell sweep on ``workers`` workers: once per
    solve, and two shells make two solves (on two workers, with workers = "2")."""
    outdir.mkdir()

    def recording(fn):
        # forked workers inherit these wrappers, so each call writes its own record
        def wrapper(*args, **kwargs):
            fd, _ = tempfile.mkstemp(dir=outdir, prefix=fn.__name__)
            os.write(fd, str(len(os.listdir("/proc/self/task"))).encode())
            os.close(fd)
            return fn(*args, **kwargs)
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("VML_THREADS", workers)
        mp.setattr(lab, "init_data", recording(lab.init_data))
        mp.setattr(mode, "_DiagonalILU", recording(mode._DiagonalILU))
        mp.setattr(lab, "mode_energy_report", recording(lab.mode_energy_report))
        archive = lab.run_sweep(_two_shell_cfg(outdir / "run"), op)
    assert not archive.failures and len(archive.mode_csvs) == 4
    return [int(p.read_text()) for p in outdir.iterdir() if p.is_file()]


def _final_state(outdir, op) -> None:
    """Two midpoint steps at k = 0.5 e3, a frame each; writes the final state's bytes to
    outdir/final and those of macro_residuals' series to outdir/series."""
    cfg = lab.ExperimentConfig(n=op.grid.n, T=0.5, dt=0.25)
    state0 = lab.init_data(cfg, [0.0, 0.0, 0.5], op.grid)
    outdir.mkdir()
    hist = mode.integrate_mode(state0, cfg.stepper(), cfg.T, op, sample_interval=cfg.dt)
    (outdir / "final").write_bytes(hist.frames[-1].flat().tobytes())
    series = macro_residuals(hist.frames, hist.k, op).series
    (outdir / "series").write_bytes(b"".join(series[name].tobytes() for name in sorted(series)))


def _orbit_files(outdir, op) -> None:
    """run_orbit's CSV and checkpoint at k = 0.5 e3, two midpoint steps, in outdir."""
    outdir.mkdir()
    cfg = lab.ExperimentConfig(n=op.grid.n, T=0.5, dt=0.25, save_interval=0.25,
                               outdir=str(outdir))
    lab.run_orbit(cfg, [0.0, 0.0, 0.5], [(0, [0.0, 0.0, 0.5])], op)


def _printed_run():
    """What mode-run prints of a run_orbit result: a report's energy columns and a
    one-step history's solver figures."""
    return (SimpleNamespace(f_l2sq=np.ones(1), em_sq=np.zeros(1)),
            SimpleNamespace(solve_iters=np.ones((1, 2), dtype=int),
                            solve_residual=np.zeros((1, 2)), refinements=np.zeros(1, dtype=int)))


def _same_mode_files(dir_a, dir_b, names):
    for name in names:
        a = open(os.path.join(dir_a, name), "rb").read()
        b = open(os.path.join(dir_b, name), "rb").read()
        assert a == b, name


@pytest.fixture(scope="module")
def op9(params):
    return assemble_L(build_grid(7.0, 9), params)


@pytest.fixture(scope="module")
def op23(params):
    # OpenBLAS splits a dot product above 10^4 entries among its threads, and a block
    # at n = 23 has 23^3: the bit tests' size, at which a run-path sum in BLAS would show
    return assemble_L(build_grid(7.0, 23), params)


@pytest.fixture(scope="class")
def blas_children():
    """{count: a fresh interpreter whose OpenBLAS starts at ``count`` threads} for count = 1
    and 2; OPENBLAS_NUM_THREADS is read when the library loads.  One pair serves every
    test of the class, so the interpreters start once."""
    ctx = multiprocessing.get_context("spawn")
    with contextlib.ExitStack() as stack:
        children = {}
        for count in (1, 2):
            children[count] = stack.enter_context(ProcessPoolExecutor(1, mp_context=ctx))
            with pytest.MonkeyPatch.context() as mp:
                # a spawning pool starts its process at the first submit, so under this
                # setting; its workers, unlike a multiprocessing.Pool's, may fork their own
                mp.setenv("OPENBLAS_NUM_THREADS", str(count))
                children[count].submit(int)
        yield children


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
    def test_archive_bytes_do_not_depend_on_worker_count(self, op9, tmp_path, monkeypatch):
        # two shells, so that two workers each get an orbit
        archives = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("VML_THREADS", workers)
            archives[workers] = lab.run_sweep(_two_shell_cfg(tmp_path / f"w{workers}"), op9)
        serial, forked = archives["1"], archives["2"]
        assert not serial.failures and not forked.failures
        names = sorted(os.path.basename(p) for p in serial.mode_csvs + serial.checkpoints)
        # a CSV per mode, a checkpoint per solve: the +e3 members 0 and 2
        assert names == sorted([f"mode_{i:04d}.csv" for i in range(4)]
                               + ["mode_0000.ckpt", "mode_0002.ckpt"])
        assert names == sorted(os.path.basename(p) for p in forked.mode_csvs + forked.checkpoints)
        _same_mode_files(serial.outdir, forked.outdir, names)

    def test_archive_bytes_do_not_depend_on_caller_blas_threads(self, blas_children, tmp_path):
        # each sweep's operator is assembled under the caller's BLAS count too
        names = _in_children(blas_children, _tiny_sweep, tmp_path)
        assert names[1] == names[2] == ["mode_0000.ckpt", "mode_0000.csv", "mode_0001.csv"]
        _same_mode_files(tmp_path / "blas1", tmp_path / "blas2", names[1])

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="no /proc/self/task to count a process's threads")
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_forked_workers_start_no_blas_threads(self, workers, blas_children, op9, tmp_path):
        # the caller runs at 1 and at 2 BLAS threads, and its workers inherit that count
        for threads in _in_children(blas_children, _threads_per_call, tmp_path, op9,
                                    workers).values():
            assert len(threads) == 3 * 2
            if workers == "2":
                # a forked worker that starts no BLAS thread pool has its main thread only
                assert threads == [1] * 6

    def test_mode_bits_do_not_depend_on_caller_blas_threads(self, blas_children, op23,
                                                            tmp_path):
        _in_children(blas_children, _final_state, tmp_path, op23)
        _same_mode_files(tmp_path / "blas1", tmp_path / "blas2", ["final", "series"])

    def test_mode_files_do_not_depend_on_caller_blas_threads(self, blas_children, op23,
                                                             tmp_path):
        # run_orbit also builds the initial data and the report (its gauss_E
        # charge is a dot product over n^3 entries) outside integrate_mode
        _in_children(blas_children, _orbit_files, tmp_path, op23)
        _same_mode_files(tmp_path / "blas1", tmp_path / "blas2",
                         ["mode_0000.csv", "mode_0000.ckpt"])

    def test_failed_mode_checkpoint_is_in_the_manifest(self, op9, tmp_path, monkeypatch):
        monkeypatch.setenv("VML_THREADS", "1")
        integrate = lab.integrate_mode

        def failing(state0, *args, **kwargs):
            if np.linalg.norm(state0.k) > 0.75:   # the solve of the shell 1.0
                raise RuntimeError("solve failed")
            return integrate(state0, *args, **kwargs)

        monkeypatch.setattr(lab, "integrate_mode", failing)
        outdir = tmp_path / "run"
        manifest = lab.report(lab.run_sweep(_two_shell_cfg(outdir), op9))
        # both members of the failed orbit; the solved one, +e3, with the checkpoint it opened
        traces = [f.pop("traceback") for f in manifest["failures"]]
        assert manifest["failures"] == [
            {"mode": idx, "error": "RuntimeError: solve failed", "checkpoint": ckpt}
            for idx, ckpt in ((2, "mode_0002.ckpt"), (3, None))]
        for trace in traces:   # down to the function that raised
            assert re.search(r'line \d+, in failing\n +raise RuntimeError\("solve failed"\)\n'
                             r'RuntimeError: solve failed\n$', trace), trace
        assert manifest["n_modes"] == 2
        on_disk = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
        assert sorted(manifest["files"]) == on_disk
        assert "mode_0002.ckpt" in on_disk and "mode_0003.ckpt" not in on_disk

    def test_failed_mode_is_reported_by_fit_and_report(self, op9, tmp_path, monkeypatch,
                                                        capsys):
        monkeypatch.setenv("VML_THREADS", "1")
        integrate = lab.integrate_mode

        def failing(state0, *args, **kwargs):
            if np.linalg.norm(state0.k) > 0.75:   # the solve of the shell 1.0
                raise RuntimeError("solve failed")
            return integrate(state0, *args, **kwargs)

        monkeypatch.setattr(lab, "integrate_mode", failing)
        outdir = tmp_path / "run"
        manifest = lab.report(lab.run_sweep(_two_shell_cfg(outdir), op9))
        saved = (outdir / "manifest.json").read_bytes()
        assert lab.load_archive(outdir).failures == manifest["failures"] != []
        capsys.readouterr()
        for argv in (["fit"], ["report"]):
            assert cli.main(argv + ["--archive", str(outdir)]) == 1
            err = capsys.readouterr().err
            # the shell 1.0 carries 1^2 / (0.5^2 + 1^2) of the weight
            assert "modes [2, 3] have no series; they carry 0.8 " in err
            # the orbit's one failure under its modes, then its traceback, indented, once
            assert re.search(r"  modes 2, 3 failed: RuntimeError: solve failed\n"
                             r"    Traceback \(most recent call last\):\n(    .*\n)*"
                             r"    RuntimeError: solve failed\n", err), err
            assert err.count("Traceback (most recent call last)") == 1, err
        assert (outdir / "manifest.json").read_bytes() == saved

    def test_stale_checkpoint_of_a_mode_that_never_opened_one_is_not_claimed(
            self, op9, tmp_path, monkeypatch):
        monkeypatch.setenv("VML_THREADS", "1")
        init_data = lab.init_data

        def failing(cfg, kvec, grid):
            if np.linalg.norm(kvec) > 0.75:   # the data of the shell 1.0
                raise RuntimeError("bad data")
            return init_data(cfg, kvec, grid)

        monkeypatch.setattr(lab, "init_data", failing)
        outdir = tmp_path / "run"
        outdir.mkdir()
        (outdir / "mode_0003.ckpt").write_bytes(b"from an earlier run")
        manifest = lab.report(lab.run_sweep(_two_shell_cfg(outdir), op9))
        assert all("in failing" in f.pop("traceback") for f in manifest["failures"])
        assert manifest["failures"] == [{"mode": idx, "error": "RuntimeError: bad data",
                                         "checkpoint": None} for idx in (2, 3)]
        assert "mode_0003.ckpt" not in manifest["files"]
        assert not (outdir / "mode_0002.ckpt").exists()
        assert not (outdir / "mode_0003.ckpt").exists()   # the sweep deleted it first
        assert manifest["n_modes"] == 2

    def test_foreign_operator_is_refused(self, op11_soft, tmp_path):
        cfg = lab.ExperimentConfig(n=9, R=7.0, gamma=-3.0, shells=(0.5,), directions_per_shell=2,
                                   T=0.5, dt=0.25, save_interval=0.25, outdir=str(tmp_path / "run"))
        with pytest.raises(ValueError, match="operator built for R = 6.0, n = 11"):
            lab.run_sweep(cfg, op11_soft)
        assert not list(tmp_path.rglob("mode_*"))
        assert not (tmp_path / "run" / "config.cfg").exists()

    def test_worker_cap_is_the_cpus_this_process_may_run_on(self, monkeypatch):
        monkeypatch.delenv("VML_THREADS", raising=False)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert lab.max_workers() == 1
        monkeypatch.setenv("VML_THREADS", "3")
        assert lab.max_workers() == 3

    def test_malformed_thread_count_is_refused_before_the_run_directory(self, op9, tmp_path,
                                                                       monkeypatch):
        monkeypatch.setenv("VML_THREADS", "two")
        outdir = tmp_path / "run"
        with pytest.raises(ValueError, match="VML_THREADS must be an integer, got 'two'"):
            lab.run_sweep(_tiny_cfg(outdir), op9)
        assert not (outdir / "config.cfg").exists()
        assert not outdir.exists()


class TestCli:
    def test_report_counts_shells_not_k_vectors(self, sweeps):
        outdir = sweeps["1"].outdir
        assert cli.main(["report", "--archive", outdir, "--window", "0,0.5"]) == 0
        with open(os.path.join(outdir, "fit_summary.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["m"] for row in rows] == ["0", "1"]
        assert all(row["n_shells"] == "1" for row in rows)
        assert len(lab.load_archive(outdir).k_set) == 2

    def test_mode_run_writes_the_sweep_mode(self, sweeps, tmp_path):
        out = tmp_path / "mode"
        code = cli.main(["mode-run", "--k", "0,0,0.5", "--family", "mixed", "--n", "9",
                         "--T", "0.5", "--dt", "0.25", "--save-interval", "0.25",
                         "--out", str(out)])
        assert code == 0
        _same_mode_files(sweeps["1"].outdir, out, ["mode_0000.csv", "mode_0000.ckpt"])

    def test_mode_run_prints_how_its_solvers_behaved(self, op9, tmp_path, capsys):
        # the line's figures against an integrate_mode run of the same config
        argv = ["mode-run", "--k", "0,0,0.5", "--n", "9", "--T", "1", "--dt",
                "0.25", "--save-interval", "0.25", "--out", str(tmp_path / "mode")]
        assert cli.main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        cfg = lab.ExperimentConfig(n=9, T=1.0, dt=0.25, shells=(0.5,))
        hist = mode.integrate_mode(lab.init_data(cfg, [0.0, 0.0, 0.5], op9.grid),
                                   cfg.stepper(), cfg.T, op9)
        iters, resid = hist.solve_iters, hist.solve_residual
        assert out.splitlines()[-1] == (
            f"solver: GMRES iterations a step, sum block {iters[:, 0].mean():.2f} "
            f"(max {iters[:, 0].max()}), difference block {iters[:, 1].mean():.2f} "
            f"(max {iters[:, 1].max()}); largest residual {resid.max() / cfg.lin_tol:.3g} "
            f"lin_tol; {hist.refinements.sum()} refinement passes")
        assert iters.shape == (4, 2) and resid.max() <= cfg.lin_tol
        # the CSV keeps its columns
        assert (tmp_path / "mode" / "mode_0000.csv").read_text().splitlines()[0] == \
            lab.MODE_CSV_HEADER

    @pytest.mark.parametrize("leave_out", [None, "manifest.json"], ids=["finished", "unfinished"])
    def test_mode_run_refuses_another_runs_directory(self, sweeps, tmp_path, monkeypatch, capsys,
                                                     leave_out):
        # its mode_0000.* would replace the sweep's, which load_archive still reads
        def refuse(cfg):
            raise AssertionError("operator built")

        monkeypatch.setattr(cli, "_operator", refuse)
        outdir = tmp_path / "run"
        shutil.copytree(sweeps["1"].outdir, outdir)
        if leave_out:
            (outdir / leave_out).unlink()
        before = {p.name: p.read_bytes() for p in outdir.iterdir()}
        capsys.readouterr()
        assert cli.main(["mode-run", "--k", "0,0,2", "--n", "9", "--T", "0.5", "--dt", "0.25",
                         "--save-interval", "0.25", "--out", str(outdir)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"vml: {outdir} holds another run (config.cfg")
        assert err.count("\n") == 1
        assert {p.name: p.read_bytes() for p in outdir.iterdir()} == before

    @pytest.mark.parametrize("argv, message", [
        (["spectrum-check", "--n", "9", "8"], "points_per_axis must be an odd integer >= 3, got 8"),
        (["sigma-table", "--gamma", "-1"], "gamma must satisfy -3 <= gamma < -2, got -1.0"),
        (["sigma-table", "--n", "35"], "points_per_axis must be at most 33, got 35"),
        (["mode-run", "--k", "0,0,0.5", "--n", "35"], "points_per_axis must be at most 33, got 35"),
        (["decay-sweep"], "sweep.cfg:1: points_per_axis must be at most 33, got 35"),
    ], ids=["spectrum-check-even-n", "sigma-table-gamma", "sigma-table-n", "mode-run-n",
            "decay-sweep-n"])
    def test_grid_or_kernel_that_cannot_be_built_is_a_usage_error(self, tmp_path, monkeypatch,
                                                                  capsys, argv, message):
        # one stderr line and exit 2, before any work: no grid, no file, no directory
        def refuse(*args):
            raise AssertionError("work started")

        for name in ("build_grid", "assemble_L", "spectrum_suite"):
            monkeypatch.setattr(cli, name, refuse)
        out = tmp_path / "out"
        config = tmp_path / "sweep.cfg"
        config.write_text(f"n = 35\noutdir = {out}\n")
        flags = {"mode-run": ["--out", str(out)], "sigma-table": ["--out", str(out)],
                 "decay-sweep": ["--config", str(config)]}.get(argv[0], [])
        assert cli.main(argv + flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("vml: ") and message in err and err.count("\n") == 1, err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]

    @pytest.mark.parametrize("ray", ["0,0,0", "0.5,0,0"])
    def test_ray_off_the_lattice_is_a_usage_error(self, tmp_path, monkeypatch, capsys, ray):
        def refuse(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(cli, "build_grid", refuse)
        out = tmp_path / "sigma.csv"
        assert cli.main(["sigma-table", "--n", "9", "--ray", ray, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "vml: ray must be a nonzero integer lattice direction, e.g. 1,0,0 or 1,1,0\n"
        assert not out.exists()

    def test_sweep_config_that_cannot_be_read_is_a_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.cfg"
        assert cli.main(["decay-sweep", "--config", str(missing)]) == 2
        err = capsys.readouterr().err
        assert err == f"vml: {missing}: cannot read: No such file or directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_mode_run_flags_left_out_take_the_config_defaults(self, tmp_path, monkeypatch):
        seen = []

        def capture(cfg, k, members, op):   # no run: the report and history mode-run prints
            seen.append(cfg)
            return _printed_run()

        monkeypatch.setattr(cli, "run_orbit", capture)
        out = str(tmp_path / "mode")
        assert cli.main(["mode-run", "--k", "0,0,0.5", "--n", "9", "--out", out]) == 0
        assert seen == [lab.ExperimentConfig(n=9, shells=(0.5,), outdir=out)]

    def test_runs_print_the_operator_set_up_time(self, tmp_path, monkeypatch, capsys):
        ops = []

        def orbit(cfg, k, members, op):   # no run: the report and history mode-run prints
            ops.append(op)
            return _printed_run()

        def sweep(cfg, op):
            ops.append(op)
            return SimpleNamespace(mode_csvs=[], failures=[], outdir=cfg.outdir)

        monkeypatch.setattr(cli, "run_orbit", orbit)
        monkeypatch.setattr(cli, "run_sweep", sweep)
        config = tmp_path / "sweep.cfg"
        config.write_text(f"n = 9\nshells = 0.5\noutdir = {tmp_path / 'run'}\n")
        assert cli.main(["mode-run", "--k", "0,0,0.5", "--n", "9",
                         "--out", str(tmp_path / "mode")]) == 0
        assert cli.main(["decay-sweep", "--config", str(config)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [bool(re.fullmatch(r"operator set-up: \d+\.\d{3}s at n = 9", line))
                for line in lines] == [True, False, False, True, False]
        params = CollisionParams(gamma=-3.0, c_phi=1.0)
        assert [(op.grid.n, op.params) for op in ops] == [(9, params)] * 2

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

    def test_spectrum_check_runs_and_annihilates_the_null_space(self, capsys):
        assert cli.main(["spectrum-check", "--n", "9"]) == 0
        out = capsys.readouterr().out
        nulls = re.search(r"null residuals: (.*)", out).group(1).split(", ")
        assert len(nulls) == 6
        assert max(float(r) for r in nulls) <= 1e-12
        # the 14 odd-even fields: L nearly annihilates their micro parts at n = 9
        lo, hi = re.search(r"odd-even micro <Lm, m>/\|m\|_D\^2: \[(\S+), (\S+)\]", out).groups()
        assert 0.0 < float(lo) <= float(hi) < 1e-9

    def test_spectrum_check_exits_1_when_an_identity_breaks(self, monkeypatch, capsys):
        apply_raw = LinearizedOperator.apply_raw
        # L plus 1e-9 of the constant field: no longer annihilates the null space
        monkeypatch.setattr(LinearizedOperator, "apply_raw",
                            lambda self, values: apply_raw(self, values) + 1e-9)
        assert cli.main(["spectrum-check", "--n", "9"]) == 1
        err = capsys.readouterr().err
        assert "spectrum-check failed: n=9: null residual" in err
        assert "exceeds 1e-12" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    def test_non_finite_k_is_a_usage_error_naming_k(self, tmp_path, capsys, bad):
        # the shell is derived from |k|, so a non-finite k must be refused as --k itself
        with pytest.raises(SystemExit) as exc:
            cli.main(["mode-run", "--k", f"{bad},0,0", "--n", "9", "--out", str(tmp_path / "o")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --k: expected three finite numbers x,y,z, got '{bad},0,0'" in err, err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["fit", "report"])
    @pytest.mark.parametrize("window", ["200,20", "1,2,3"])
    def test_bad_window_is_a_usage_error(self, tmp_path, capsys, command, window):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--archive", str(tmp_path), "--window", window])
        assert exc.value.code == 2
        assert f"expected a window t1,t2 with t2 > t1, got '{window}'" in capsys.readouterr().err

    def test_fit_exits_1_when_inconclusive(self, sweeps, capsys):
        # three samples (t = 0, 0.25, 0.5) are too few to fit
        assert cli.main(["fit", "--archive", sweeps["1"].outdir, "--window", "0,0.5"]) == 1
        assert "inconclusive" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_window_past_the_last_sample_is_refused(self, sweeps, tmp_path, capsys, command):
        outdir = tmp_path / "run"
        shutil.copytree(sweeps["1"].outdir, outdir)
        before = sorted(p.name for p in outdir.iterdir())
        # the default window (20, 200) on an archive that ends at T = 0.5
        assert cli.main([command, "--archive", str(outdir)]) == 1
        out, err = capsys.readouterr()
        assert f"the fit window (20, 200) ends past the last sample of {outdir}, at t = 0.5" in err
        assert "sigma_hat" not in out and "summary:" not in out
        assert sorted(p.name for p in outdir.iterdir()) == before

    @pytest.mark.parametrize("command", ["fit", "report"])
    def test_archive_without_a_config_exits_1(self, tmp_path, capsys, command):
        assert cli.main([command, "--archive", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("vml: ") and "config.cfg" in err

    def test_unfinished_run_is_not_read_as_its_config(self, sweeps, op9, tmp_path, monkeypatch,
                                                      capsys):
        # run A (mixed) finished here; run B (micro-only) dies after it writes config.cfg
        outdir = tmp_path / "run"
        shutil.copytree(sweeps["1"].outdir, outdir)
        monkeypatch.setenv("VML_THREADS", "1")

        def killed(job):
            raise RuntimeError("killed")

        monkeypatch.setattr(lab, "_run_one_orbit", killed)
        with pytest.raises(RuntimeError, match="killed"):
            lab.run_sweep(dataclasses.replace(_tiny_cfg(outdir), family="micro-only"), op9)
        assert lab.parse_config(outdir / "config.cfg").family == "micro-only"
        assert not (outdir / "manifest.json").exists()
        message = f"{outdir} holds no finished run of its config.cfg"
        with pytest.raises(ValueError, match=re.escape(message)):
            lab.load_archive(outdir)
        capsys.readouterr()
        for argv in (["fit"], ["report"]):
            assert cli.main(argv + ["--archive", str(outdir), "--window", "0,0.5"]) == 1
            assert capsys.readouterr().err == f"vml: {message}\n"

    def test_decay_sweep_fit_and_report(self, tmp_path, capsys):
        # micro-only data decays by about 20x by t = 4 at n = 9, so the fit is conclusive
        outdir = tmp_path / "run"
        config = tmp_path / "sweep.cfg"
        config.write_text(f"n = 9\nshells = 0.5, 1.0\ndirections_per_shell = 1\n"
                          f"family = micro-only\ndt = 1.0\nT = 4.0\nsave_interval = 1.0\n"
                          f"outdir = {outdir}\n")

        def listed_files_are_on_disk():
            manifest = json.loads((outdir / "manifest.json").read_text())
            on_disk = sorted(p.name for p in outdir.iterdir() if p.name != "manifest.json")
            assert sorted(manifest["files"]) == on_disk
            assert len(on_disk) == 2 * 2 + 2   # CSV and checkpoint per mode, config, summary

        assert cli.main(["decay-sweep", "--config", str(config)]) == 0
        listed_files_are_on_disk()
        assert cli.main(["fit", "--archive", str(outdir), "--window", "0,4"]) == 0
        assert cli.main(["report", "--archive", str(outdir), "--window", "0,4"]) == 0
        listed_files_are_on_disk()
        assert "sweep complete: 2 modes from 2 solves, 0 failures" in capsys.readouterr().out
        with open(outdir / "fit_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [(row["m"], row["n_shells"]) for row in rows] == [("0", "2"), ("1", "2")]


@pytest.fixture(scope="module")
def orbit_sweeps(op9, tmp_path_factory):
    """Two-shell sweeps with every step checkpointed, keyed by (scheme, directions per shell)."""
    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("VML_THREADS", "2")
        for scheme, dirs in (("imex-midpoint", 6), ("imex-euler", 6), ("imex-midpoint", 2),
                             ("imex-midpoint", 1)):
            outdir = tmp_path_factory.mktemp(f"orbits_{scheme}_{dirs}")
            cfg = _two_shell_cfg(outdir, scheme=scheme, directions_per_shell=dirs,
                                 checkpoint_interval=0.25)
            out[scheme, dirs] = lab.run_sweep(cfg, op9)
    return out


class TestOrbits:
    @pytest.mark.parametrize("family", ["macro-gaussian", "micro-only", "mixed", "maxwell-vacuum"])
    def test_init_data_is_covariant_under_the_lattice_rotations(self, op9, family):
        cfg = lab.ExperimentConfig(n=9, family=family)
        r = 0.5
        base = lab.init_data(cfg, r * AXES[4], op9.grid)
        for d in AXES:
            got = lab.init_data(cfg, r * d, op9.grid)
            want = lattice_image(base, np.rint(profile_frame(d)), r * d)
            scale = np.abs(want.flat()).max()
            assert np.abs(got.flat() - want.flat()).max() <= 1e-14 * scale, d

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_every_member_record_solves_its_own_step(self, orbit_sweeps, op9, scheme):
        # a member's records are the lattice images of its shell's solve, the one checkpoint
        archive = orbit_sweeps[scheme, 6]
        cfg = lab.parse_config(archive.config_path)
        assert not archive.failures
        assert [os.path.basename(p) for p in archive.checkpoints] == ["mode_0004.ckpt",
                                                                      "mode_0010.ckpt"]
        solves = [read_checkpoint(p, op9.grid).states for p in archive.checkpoints]
        a = cfg.stepper().implicit_weight()
        worst = 0.0
        for idx, (kvec, _w) in enumerate(archive.k_set):
            shell, d = divmod(idx, 6)
            assert [s.t for s in solves[shell]] == [0.0, 0.25, 0.5]
            assert all(np.array_equal(s.k, archive.k_set[6 * shell + 4][0]) for s in solves[shell])
            Q = np.rint(profile_frame(AXES[d]))
            states = [lattice_image(s, Q, kvec) for s in solves[shell]]
            for s0, s1 in zip(states, states[1:]):
                u0 = s0.flat()
                x = 0.5 * (u0 + s1.flat()) if scheme == "imex-midpoint" else s1.flat()
                df, dE, dB = mode_rhs(ModeState.from_flat(kvec, x, op9.grid, s0.t), op9)
                r = x - a * np.concatenate([df.values.reshape(-1), dE, dB]) - u0
                worst = max(worst, np.linalg.norm(r) / np.linalg.norm(u0))
        assert worst <= cfg.lin_tol

    def test_members_are_the_lattice_images_of_the_e3_run(self, orbit_sweeps):
        # every column but k is rotation-invariant: a member's CSV is the +e3 member's
        archive = orbit_sweeps["imex-midpoint", 6]
        csvs = sorted(archive.mode_csvs)
        for shell in range(2):
            rep_rows = open(csvs[6 * shell + 4]).read().splitlines()   # the +e3 member
            for idx in range(6 * shell, 6 * shell + 6):
                rows = open(csvs[idx]).read().splitlines()
                assert [r.split(",")[4:] for r in rows] == [r.split(",")[4:] for r in rep_rows]
                assert [r.split(",")[:1] for r in rows] == [r.split(",")[:1] for r in rep_rows]
                assert all(np.array_equal([float(x) for x in r.split(",")[1:4]],
                                          archive.k_set[idx][0]) for r in rows[1:])

    @pytest.mark.parametrize("members, message", [
        ([(0, [0.0, 0.0, -0.5])], r"the members hold k = \[0\.0, 0\.0, 0\.5\] 0 times, not once"),
        ([(0, [0.0, 0.0, 0.5]), (1, [0.0, 0.0, 0.5])], "2 times, not once"),
        ([(0, [0.0, 0.0, 0.5]), (1, [0.0, 0.0, 1.0])],
         r"member \[0\.0, 0\.0, 1\.0\] is not a lattice image"),
        ([(0, [0.0, 0.0, 0.5]), (1, [0.0, 0.3, 0.4])],
         r"member \[0\.0, 0\.3, 0\.4\] is not a lattice image"),
    ], ids=["k-missing", "k-twice", "longer-than-k", "off-axis"])
    def test_run_orbit_refuses_members_that_are_not_images_of_k(self, op9, tmp_path, members,
                                                                message):
        cfg = lab.ExperimentConfig(n=9, T=0.5, dt=0.25, save_interval=0.25, outdir=str(tmp_path))
        with pytest.raises(ValueError, match=message):
            lab.run_orbit(cfg, [0.0, 0.0, 0.5], members, op9)
        assert not list(tmp_path.iterdir())   # refused before anything is written

    def test_a_member_matches_its_direct_integration(self, orbit_sweeps, op9):
        archive = orbit_sweeps["imex-midpoint", 6]
        cfg = lab.parse_config(archive.config_path)
        idx = 7                                       # -e1 on the shell 1.0
        kvec = archive.k_set[idx][0]
        assert np.array_equal(kvec, -AXES[0])
        hist = mode.integrate_mode(lab.init_data(cfg, kvec, op9.grid), cfg.stepper(), cfg.T, op9,
                                   sample_interval=cfg.save_interval)
        with open(sorted(archive.mode_csvs)[idx]) as fh:
            rows = list(csv.DictReader(fh))
        energy = np.array([float(r["f_l2sq"]) + float(r["em_sq"]) for r in rows])
        direct = np.array([s.fhat.norm() ** 2 + np.sum(np.abs(s.Ehat) ** 2)
                           + np.sum(np.abs(s.Bhat) ** 2) for s in hist.frames])
        assert np.abs(energy - direct).max() <= 1e-8 * direct.max()

    def test_one_two_and_six_directions_synthesize_the_same_norms(self, orbit_sweeps):
        for m in (0, 1):
            want_t, want = lab.synthesize_norms(lab.load_archive(
                orbit_sweeps["imex-midpoint", 6].outdir), m)
            for dirs in (1, 2):
                got_t, got = lab.synthesize_norms(lab.load_archive(
                    orbit_sweeps["imex-midpoint", dirs].outdir), m)
                assert np.array_equal(got_t, want_t)
                assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_a_sweep_returns_the_archive_load_archive_reads(self, orbit_sweeps):
        archive = orbit_sweeps["imex-midpoint", 6]   # two shells on two forked workers
        loaded = lab.load_archive(archive.outdir)
        for f in dataclasses.fields(lab.RunArchive):
            got, want = getattr(loaded, f.name), getattr(archive, f.name)
            if f.name == "k_set":
                assert len(got) == len(want) == 12
                assert all(np.array_equal(a, b) and v == w
                           for (a, v), (b, w) in zip(got, want))
            else:
                assert got == want, f.name
        for m in (0, 1):
            for got, want in zip(lab.synthesize_norms(loaded, m), lab.synthesize_norms(archive, m)):
                assert np.array_equal(got, want)

    def test_synthesis_from_the_csvs_is_the_run_bit_for_bit(self, orbit_sweeps, op9, tmp_path):
        # %.17g round-trips: the CSVs give the in-process reports' quadrature exactly
        archive = orbit_sweeps["imex-midpoint", 1]
        cfg = dataclasses.replace(lab.parse_config(archive.config_path), outdir=str(tmp_path))
        reports = [lab.run_orbit(cfg, k, [(idx, k)], op9)[0]
                   for idx, (k, _w) in enumerate(archive.k_set)]
        for m in (0, 1):
            want = sum(w * float(k @ k) ** m * (rep.f_l2sq + rep.em_sq)
                       for (k, w), rep in zip(archive.k_set, reports))
            got_t, got = lab.synthesize_norms(archive, m)
            assert np.array_equal(got_t, reports[0].times)
            assert np.array_equal(got, want)

    def test_one_direction_per_shell_is_r_e3_with_the_shell_weight(self, tmp_path):
        cfg = lab.ExperimentConfig(shells=(0.25, 0.5, 1.0), directions_per_shell=1,
                                   outdir=str(tmp_path))
        k_set = lab.build_k_set(cfg)
        for (k, w), r, dr in zip(k_set, (0.25, 0.5, 1.0), (0.125, 0.375, 0.25)):
            assert np.array_equal(k, r * AXES[4])
            assert w == pytest.approx(4.0 * np.pi * r * r * dr, rel=1e-15)
        assert len(k_set) == 3


class TestSynthesis:
    def test_missing_mode_is_refused(self, sweeps, tmp_path):
        outdir = tmp_path / "run"
        shutil.copytree(sweeps["1"].outdir, outdir)
        (outdir / "mode_0001.csv").unlink()
        archive = lab.load_archive(outdir)
        with pytest.raises(ValueError, match=r"modes \[1\] have no series; they carry 0\.5 "):
            lab.synthesize_norms(archive, 0)

    @pytest.mark.parametrize("cut, counts", [("mode_0000.csv", "5 and 1"),
                                             ("mode_0001.csv", "1 and 5")])
    def test_short_mode_csv_is_refused(self, tmp_path, capsys, cut, counts):
        # a CSV cut to its first sample would broadcast against the others' series
        cfg = lab.ExperimentConfig(n=9, shells=(0.5, 1.0), directions_per_shell=1, T=1.0,
                                   dt=0.25, save_interval=0.25, outdir=str(tmp_path))
        times = np.arange(0.0, 1.125, 0.25)
        _write_run(cfg, times, lambda k: np.exp(-2.0 * float(k @ k) * times))
        path = tmp_path / cut
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:2]))
        archive = lab.load_archive(tmp_path)
        with pytest.raises(ValueError, match=r"mode_0001\.csv and .*mode_0000\.csv hold "
                                             rf"different sample times \({counts} samples\)"):
            lab.synthesize_norms(archive, 0)
        for argv in (["fit"], ["report"]):
            assert cli.main(argv + ["--archive", str(tmp_path), "--window", "0,1"]) == 1
            assert "hold different sample times" in capsys.readouterr().err


class TestSynthesizeNorms:
    @pytest.mark.parametrize("m", [0, 1])
    def test_heat_kernel_on_the_default_k_set_fits_the_target(self, tmp_path, m):
        # |u(k, t)|^2 = exp(-|k|^2) exp(-2 |k|^2 t) decays like t^-(3/2 + m) in the
        # m-th derivative's squared norm as t grows: the exponent 3/4 + m/2
        cfg = lab.ExperimentConfig(outdir=str(tmp_path))
        times = np.arange(0.0, cfg.T + 0.5 * cfg.save_interval, cfg.save_interval)
        _write_run(cfg, times, lambda k: np.exp(-float(k @ k) - 2.0 * float(k @ k) * times))
        window = cli.build_parser().parse_args(["fit", "--archive", str(tmp_path)]).window
        got_t, got = lab.synthesize_norms(lab.load_archive(tmp_path), m)
        fit = lab.decay_fit(got_t, got, window, m=m, shells_used=len(cfg.shells))
        assert fit.conclusive
        assert abs(fit.sigma_hat - (0.75 + 0.5 * m)) <= 0.02

    def test_a_rerun_with_fewer_modes_claims_no_stale_file(self, op9, tmp_path, monkeypatch):
        # the first run writes mode_0001 (the shell 0.5); the rerun's mode_0000 is that shell
        monkeypatch.setenv("VML_THREADS", "1")
        outdir = tmp_path / "run"
        lab.report(lab.run_sweep(_two_shell_cfg(outdir, shells=(0.25, 0.5),
                                                directions_per_shell=1), op9))
        rerun = lab.run_sweep(_two_shell_cfg(outdir, shells=(0.5,), directions_per_shell=1), op9)
        assert not (outdir / "mode_0001.csv").exists()   # the rerun deleted it first
        fresh = lab.run_sweep(_two_shell_cfg(tmp_path / "fresh", shells=(0.5,),
                                             directions_per_shell=1), op9)
        # what `vml report` writes: the earlier run's manifest names neither file nor run id
        manifest = lab.report(lab.load_archive(outdir))
        assert sorted(manifest["files"]) == ["config.cfg", "fit_summary.csv",
                                             "mode_0000.ckpt", "mode_0000.csv"]
        assert manifest["run_id"] == rerun.run_id
        for m in (0, 1):
            got_t, got = lab.synthesize_norms(lab.load_archive(outdir), m)
            want_t, want = lab.synthesize_norms(lab.load_archive(fresh.outdir), m)
            assert np.array_equal(got_t, want_t)
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("m", [0, 1])
    def test_matches_shell_quadrature(self, tmp_path, m):
        cfg = lab.ExperimentConfig(shells=(0.25, 0.5, 1.0), directions_per_shell=6,
                                   outdir=str(tmp_path))
        times = np.linspace(0.0, 5.0, 11)

        def series(k):
            # closed form that differs between the six directions of a shell
            return np.exp(-2.0 * float(k @ k) * times) * (1.0 + 0.3 * k[0] - 0.2 * k[2])

        _write_run(cfg, times, series)
        got_t, got = lab.synthesize_norms(lab.load_archive(tmp_path), m)
        # trapezoid half-widths of the shells 0.25, 0.5, 1.0, and the six axis directions
        axes = [np.array(v, dtype=float) for v in
                ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1))]
        want = np.zeros_like(times)
        for r, dr in ((0.25, 0.125), (0.5, 0.375), (1.0, 0.25)):
            for e in axes:
                want += 4.0 * np.pi * r ** 2 * dr * r ** (2 * m) * series(r * e) / 6.0
        assert np.array_equal(got_t, times)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


class TestConfigText:
    def test_round_trip(self, tmp_path):
        cfg = lab.ExperimentConfig(gamma=-2.5, n=13, shells=(0.1, 0.35, 0.7),
                                   directions_per_shell=2, family="micro-only",
                                   scheme="imex-euler", dt=0.02, lin_tol=3.7e-9,
                                   T=0.4, outdir="runs/other")
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
        ("amplitude = 1.0", "unknown key 'amplitude'"),
        ("max_steps = 10", "unknown key 'max_steps'"),
        ("constraint_tol = 1e-06", "unknown key 'constraint_tol'"),
        ("dt = 0.25", "key 'dt' repeats line 2"),
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
        ("save_interval", 0.3, r"save_interval = 0\.3 is not a whole number of steps of dt"),
        ("checkpoint_interval", 0.1, r"checkpoint_interval = 0\.1 is not a whole number of steps"),
    ])
    def test_invalid_stepper_field_names_its_line(self, tmp_path, key, value, message):
        self._assert_names_line_3(tmp_path, key, value, message)

    @pytest.mark.parametrize("text, line, message", [
        ("# a comment\nn = 9\ndt = 0.3\nT = 0.5\n", 4,
         r"T = 0\.5 is not a whole number of steps of dt = 0\.3"),
        ("dt = 0.3\nT = 0.9\nsave_interval = 0.5\n", 3,
         r"save_interval = 0\.5 is not a whole number of steps of dt = 0\.3"),
    ], ids=["T-after-dt", "save_interval-after-dt-and-T"])
    def test_error_names_the_line_that_fails_as_the_file_does(self, tmp_path, text, line,
                                                              message):
        # the dt line's prefix fails too, but only against the default T = 200
        # (and the T line's against the default save_interval = 1), with
        # another message
        with pytest.raises(lab.ConfigError, match=r"T = 200\.0 is not a whole number of steps"):
            lab.ExperimentConfig(dt=0.3)
        path = tmp_path / "bad.cfg"
        path.write_text(text)
        with pytest.raises(lab.ConfigError, match=f"bad.cfg:{line}: {message}"):
            lab.parse_config(path)

    @pytest.mark.parametrize("key, value", [("save_interval", 0.0), ("save_interval", -1.0),
                                            ("checkpoint_interval", -0.5)])
    def test_interval_that_cannot_advance_names_its_line(self, tmp_path, key, value):
        # integrate_mode would loop forever on either interval
        self._assert_names_line_3(tmp_path, key, value, "save_interval must be positive and "
                                                        "checkpoint_interval not negative")

    @pytest.mark.parametrize("key, value, message", [
        ("n", 12, "points_per_axis must be an odd integer >= 3, got 12"),
        ("R", -7.0, "half_width must be positive"),
        ("gamma", -1.5, "gamma must satisfy -3 <= gamma < -2"),
        ("c_phi", 0.0, "c_phi must be positive"),
        ("n", 35, "points_per_axis must be at most 33, got 35"),
    ])
    def test_grid_or_kernel_that_cannot_be_built_names_its_line(self, tmp_path, capsys, key,
                                                               value, message):
        self._assert_names_line_3(tmp_path, key, value, message)
        run = tmp_path / "run"
        (tmp_path / "bad.cfg").write_text(f"family = mixed\n{key} = {value}\noutdir = {run}\n")
        assert cli.main(["decay-sweep", "--config", str(tmp_path / "bad.cfg")]) == 2
        assert re.match(f"vml: \\S*bad.cfg:2: {message}", capsys.readouterr().err)
        assert not run.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("lin_tol", "nan", "tolerances must be positive and finite"),
        ("lin_tol", "inf", "tolerances must be positive and finite"),
        ("dt", "inf", "dt must be positive and finite"),
        ("R", "inf", "half_width must be positive and finite, got inf"),
        ("c_phi", "inf", "c_phi must be positive and finite, got inf"),
        ("shells", "0.25,inf", "shell radii must be positive and finite"),
        ("shells", "nan", "shell radii must be positive and finite"),
        ("T", "inf", "T = inf must be finite"),
        ("T", "nan", "T = nan must be finite"),
        ("save_interval", "inf", "save_interval = inf must be finite"),
    ])
    def test_non_finite_value_names_its_line(self, tmp_path, capsys, key, value, message):
        # lin_tol = inf stepped a state that never moved; T = inf raised OverflowError
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\nn = 9\n{key} = {value}\n")
        with pytest.raises(lab.ConfigError, match=f"bad.cfg:3: {message}"):
            lab.parse_config(path)
        assert cli.main(["decay-sweep", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"vml: {path}:3: ")

    def test_weighted_ell_names_its_line(self, tmp_path):
        # the mode CSVs hold unweighted series, so ell is the constant 0, not a setting
        assert lab.ExperimentConfig().ell == 0.0
        path = tmp_path / "bad.cfg"
        path.write_text("# a comment\nn = 9\nell = 2.0\nT = 0.5\n")
        with pytest.raises(lab.ConfigError, match="bad.cfg:3: unknown key 'ell'"):
            lab.parse_config(path)

    def test_negative_T_names_its_line(self, tmp_path):
        with pytest.raises(lab.ConfigError, match=r"T = -1\.0 must not be negative"):
            lab.ExperimentConfig(T=-1.0)
        path = tmp_path / "bad.cfg"
        path.write_text("# a comment\nn = 9\nT = -1.0\n")
        with pytest.raises(lab.ConfigError, match=r"bad.cfg:3: T = -1\.0 must not be negative"):
            lab.parse_config(path)

    def test_mode_run_whose_save_interval_does_not_fit_dt_exits_2(self, tmp_path, capsys):
        out = tmp_path / "mode"
        assert cli.main(["mode-run", "--k", "0,0,0.5", "--n", "9", "--T", "0.5", "--dt", "0.25",
                         "--save-interval", "0.3", "--out", str(out)]) == 2
        assert capsys.readouterr().err == ("vml: save_interval = 0.3 is not a whole number of "
                                           "steps of dt = 0.25\n")
        assert not out.exists()

    @staticmethod
    def _assert_names_line_3(tmp_path, key, value, message):
        with pytest.raises(lab.ConfigError, match=message):
            lab.ExperimentConfig(**{key: value})
        path = tmp_path / "bad.cfg"
        path.write_text(f"# a comment\nfamily = mixed\n{key} = {value}\nT = 0.5\n")
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
        fit = lab.decay_fit(self.times, series, self.window, m=0, shells_used=3, min_decay=5.0)
        assert not fit.conclusive
        assert np.isnan(fit.sigma_hat)

    def test_reports_the_window_it_fitted(self):
        times = self.times[self.times <= 100.0]
        fit = lab.decay_fit(times, (1.0 + times) ** -2.0, self.window, m=0, shells_used=3)
        assert fit.conclusive
        assert fit.window == (20.0, 100.0)

    @pytest.mark.parametrize("window", [(200.0, 20.0), (50.0, 50.0)])
    def test_empty_window_rejected(self, window):
        with pytest.raises(ValueError, match="t2 > t1"):
            lab.decay_fit(self.times, np.ones_like(self.times), window, m=0, shells_used=3)
