import csv
import os

import pytest

from vmlandau import cli, lab
from vmlandau.collision import assemble_L
from vmlandau.grid import build_grid


def _tiny_cfg(outdir) -> lab.ExperimentConfig:
    """One shell, two directions, two midpoint steps on a 9^3 lattice."""
    return lab.ExperimentConfig(n=9, shells=(0.5,), directions_per_shell=2, T=0.5, dt=0.25,
                                save_interval=0.25, outdir=str(outdir))


def _blas_counts(controls) -> list:
    return [get_threads() for _, get_threads in controls]


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
        for name in names:
            a = open(os.path.join(serial.outdir, name), "rb").read()
            b = open(os.path.join(forked.outdir, name), "rb").read()
            assert a == b, name

    @pytest.mark.skipif(not lab._openblas_controls(),
                        reason="no OpenBLAS is loaded, so there is no BLAS thread count to hold")
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
        controls = lab._openblas_controls()
        saved = _blas_counts(controls)
        for set_threads, _ in controls:
            set_threads(2)
        try:
            archive = lab.run_sweep(_tiny_cfg(tmp_path / "run"), op9)
            after = _blas_counts(controls)
        finally:
            for (set_threads, _), count in zip(controls, saved):
                set_threads(count)
        assert not archive.failures
        records = {p.name: [int(c) for c in p.read_text().split(",")] for p in log.iterdir()}
        assert len(records) == 2
        for counts in records.values():
            assert counts == [1] * len(controls)
        assert after == [2] * len(controls)


class TestCli:
    def test_report_counts_shells_not_k_vectors(self, sweeps):
        outdir = sweeps["1"].outdir
        assert cli.main(["report", "--archive", outdir]) == 0
        with open(os.path.join(outdir, "fit_summary.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert [row["m"] for row in rows] == ["0", "1"]
        assert all(row["n_shells"] == "1" for row in rows)
        assert len(lab.load_archive(outdir).k_set) == 2
