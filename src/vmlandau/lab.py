"""Experiment orchestration: k-shell sweeps, norm synthesis, decay fits, CSV.

A sweep integrates one mode per (shell radius, direction) pair, streams the
per-mode energy report to CSV (schema below), checkpoints raw states, and
archives everything under a run directory.  Whole-space norms are synthesized
by k-quadrature of the per-mode series; algebraic decay exponents come from
log-log fits over a configured window.

Mode CSV schema (exact header):
    t,k1,k2,k3,f_l2sq,em_sq,micro_D,macro_abc,a_diff,E_term,B_term,rho_k,gauss_E,gauss_B
Fit summary schema:
    m,sigma_hat,sigma_target,resid,t1,t2,n_shells

Parallelism: modes are farmed to forked worker processes (the assembled
operator is shared copy-on-write); VML_THREADS caps the worker count.  A sweep
runs on one OpenBLAS thread throughout: the operator built once in the parent,
and every mode, forked or serial, since forked workers inherit the parent's
count.  So workers x BLAS threads never exceeds the worker count, and archive
bytes depend neither on scheduling order, nor on the worker count, nor on the
caller's BLAS thread count.
"""

from __future__ import annotations

import contextlib
import ctypes
import json
import os
import uuid
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointWriter
from .collision import CollisionParams, LinearizedOperator, assemble_L
from .grid import TwoSpeciesField, VelocityGrid, build_grid
from .macro import project_P
from .mode import (ModeEnergyReport, ModeState, StepperConfig, integrate_mode,
                   mode_energy_report, rho_frequency)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "DecayFitReport",
    "RunArchive",
    "parse_config",
    "build_k_set",
    "init_data",
    "run_mode",
    "run_sweep",
    "synthesize_norms",
    "decay_fit",
    "report",
    "MODE_CSV_HEADER",
    "FIT_CSV_HEADER",
]

MODE_CSV_HEADER = "t,k1,k2,k3,f_l2sq,em_sq,micro_D,macro_abc,a_diff,E_term,B_term,rho_k,gauss_E,gauss_B"
FIT_CSV_HEADER = "m,sigma_hat,sigma_target,resid,t1,t2,n_shells"

_FAMILIES = ("macro-gaussian", "micro-only", "mixed", "maxwell-vacuum")


class ConfigError(ValueError):
    """Malformed experiment configuration."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce a sweep bit-for-bit on the same build."""

    gamma: float = -3.0
    c_phi: float = 1.0
    R: float = 7.0
    n: int = 25
    shells: tuple = (0.25, 0.5, 1.0)
    directions_per_shell: int = 6
    family: str = "mixed"
    amplitude: float = 1.0
    ell: float = 0.0
    dt: float = 0.25
    scheme: str = "imex-midpoint"
    lin_tol: float = 1e-8
    constraint_tol: float = 1e-5
    max_steps: int = 10_000_000
    T: float = 100.0
    outdir: str = "runs/out"
    save_interval: float = 1.0
    checkpoint_interval: float = 0.0   # 0: first/last state only

    def __post_init__(self):
        if len(self.shells) == 0:
            raise ConfigError("shell list must not be empty")
        radii = tuple(float(r) for r in self.shells)
        if any(r <= 0 for r in radii):
            raise ConfigError("shell radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("shell radii must be strictly increasing")
        object.__setattr__(self, "shells", radii)
        if self.directions_per_shell not in (2, 6):
            raise ConfigError("directions_per_shell must be 2 or 6 (axis directions)")
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        try:
            self.stepper()
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def collision_params(self) -> CollisionParams:
        return CollisionParams(gamma=self.gamma, c_phi=self.c_phi)

    def deflation_needed(self) -> bool:
        """Always False: the solves have no deflation.

        Kept only because ``perfbench/workloads.py::_setup`` calls it.
        """
        return False

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt, scheme=self.scheme, lin_tol=self.lin_tol,
                             constraint_tol=self.constraint_tol, max_steps=self.max_steps)


# value parsers keyed by the field annotations, which are strings under
# ``from __future__ import annotations``
_PARSERS = {
    "float": float,
    "int": int,
    "str": str,
    "tuple": lambda s: tuple(float(x) for x in s.split(",") if x.strip()),
}


def parse_config(path) -> ExperimentConfig:
    """Parse the line-oriented ``key = value`` config file; unknown keys are errors."""
    parsers = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}
    values, lines = {}, {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in parsers:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = parsers[key](val)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
        lines[key] = lineno
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        # the first key, in file order, whose value makes the config invalid
        prefix = {}
        for key, val in values.items():
            prefix[key] = val
            try:
                ExperimentConfig(**prefix)
            except ConfigError:
                raise ConfigError(f"{path}:{lines[key]}: {exc}") from exc
        raise


def config_to_text(cfg: ExperimentConfig) -> str:
    lines = []
    for f in fields(cfg):
        val = getattr(cfg, f.name)
        if isinstance(val, tuple):
            val = ",".join(_fmt(x) for x in val)
        lines.append(f"{f.name} = {val}")
    return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


_AXES = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0],
                  [0, -1.0, 0], [0, 0, 1.0], [0, 0, -1.0]])


def build_k_set(cfg: ExperimentConfig):
    """Radial-shell x axis-direction product set with k-quadrature weights.

    Weights approximate the full k-integral as (shell trapezoid in r) x
    (4 pi r^2) x (uniform direction average).
    """
    radii = np.asarray(cfg.shells)
    if radii.size == 0:
        raise ConfigError("empty shell list")
    if radii.size == 1:
        dr = np.array([1.0])
    else:
        dr = np.empty_like(radii)
        dr[0] = (radii[1] - radii[0]) / 2.0
        dr[-1] = (radii[-1] - radii[-2]) / 2.0
        dr[1:-1] = (radii[2:] - radii[:-2]) / 2.0
    dirs = _AXES if cfg.directions_per_shell == 6 else _AXES[4:6]
    out = []
    for r, w_r in zip(radii, dr):
        shell_weight = 4.0 * np.pi * r * r * w_r / len(dirs)
        for d in dirs:
            out.append((r * d, float(shell_weight)))
    return out


def _envelope(k: np.ndarray) -> float:
    return float(np.exp(-0.5 * float(k @ k)))


def _transverse_frame(k: np.ndarray):
    khat = k / np.linalg.norm(k)
    probe = np.eye(3)[int(np.argmin(np.abs(khat)))]
    t1 = np.cross(khat, probe)
    t1 /= np.linalg.norm(t1)
    t2 = np.cross(khat, t1)
    return khat, t1, t2


def init_data(cfg: ExperimentConfig, k, grid: VelocityGrid) -> ModeState:
    """Deterministic mode initial data for the configured family.

    Every family satisfies the per-mode compatibility conditions
    i k.E = <sqrt(mu), f_+ - f_-> and i k.B = 0 exactly; amplitudes carry the
    fixed Gaussian envelope exp(-|k|^2 / 2) standing in for smooth integrable
    whole-space data.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    amp = cfg.amplitude * _envelope(k)
    xi = grid.xi
    smu = grid.sqrt_mu
    r2 = np.sum(xi ** 2, axis=0)
    zero3 = np.zeros(3, dtype=complex)
    knorm = float(np.linalg.norm(k))

    def macro_field(a_plus, a_minus, b, c):
        shared = b[0] * xi[0] + b[1] * xi[1] + b[2] * xi[2] + c * (r2 - 3.0)
        return TwoSpeciesField.from_species(
            grid, (a_plus + shared) * smu, (a_minus + shared) * smu)

    def micro_field(scale):
        raw = TwoSpeciesField.from_species(
            grid,
            scale * (xi[0] * xi[1] + 0.5 * xi[2]) * smu,
            scale * (xi[1] * xi[2] - 0.4 * xi[0] + 0.3 * xi[0] * xi[1]) * smu)
        _, _, micro = project_P(raw)
        return micro

    if cfg.family == "maxwell-vacuum":
        if knorm == 0.0:
            raise ConfigError("maxwell-vacuum family requires k != 0")
        _, t1, t2 = _transverse_frame(k)
        E = amp * (t1 + 0.5j * t2)
        B = np.cross(k, E) / knorm
        return ModeState(k, TwoSpeciesField.zero(grid), E, B, 0.0)

    if cfg.family == "micro-only":
        return ModeState(k, micro_field(amp), zero3.copy(), zero3.copy(), 0.0)

    if cfg.family == "macro-gaussian":
        f = macro_field(amp, amp, amp * np.array([0.6, 0.25, 0.8]), 0.45 * amp)
        return ModeState(k, f, zero3.copy(), zero3.copy(), 0.0)

    # mixed: non-neutral macro + micro + transverse EM, longitudinal E from Gauss
    if knorm == 0.0:
        f = macro_field(amp, amp, amp * np.array([0.4, 0.2, 0.5]), 0.3 * amp)
        f = f + micro_field(0.7 * amp)
        return ModeState(k, f, zero3.copy(), zero3.copy(), 0.0)
    khat, t1, t2 = _transverse_frame(k)
    delta = 0.5 * amp
    f = macro_field(amp + delta, amp - delta, amp * np.array([0.4, 0.2, 0.5]), 0.3 * amp)
    f = f + micro_field(0.7 * amp)
    charge = 2.0 * delta * _mass_quadrature(grid)
    E = (charge / (1j * knorm)) * khat.astype(complex)
    E = E + 0.6 * amp * t1 + 0.3j * amp * t2
    B = np.cross(k, 0.5 * amp * (t1 + 0.2 * t2)) / knorm
    return ModeState(k, f, E, B, 0.0)


def _mass_quadrature(grid: VelocityGrid) -> float:
    """Discrete <sqrt(mu), sqrt(mu)> entering exact Gauss-consistent charges."""
    return float(np.sum(grid.weights * grid.mu))


@dataclass
class DecayFitReport:
    """Fitted algebraic decay exponent against the target 3/4 + m/2."""

    m: int
    window: tuple
    sigma_hat: float
    sigma_target: float
    residual: float
    shells_used: int
    conclusive: bool = True

    def __post_init__(self):
        t1, t2 = self.window
        if not t2 > t1:
            raise ValueError("fit window must satisfy t2 > t1")


@dataclass
class RunArchive:
    """Paths and (when produced in-process) reports of one sweep."""

    run_id: str
    outdir: str
    config_path: str
    mode_csvs: list
    checkpoints: list
    k_set: list
    reports: list = field(default_factory=list)
    failures: list = field(default_factory=list)

    def manifest_path(self) -> str:
        return os.path.join(self.outdir, "manifest.json")

    def summary_path(self) -> str:
        return os.path.join(self.outdir, "fit_summary.csv")


def _mode_csv_text(rep: ModeEnergyReport) -> str:
    lines = [MODE_CSV_HEADER]
    k = rep.k
    for i in range(len(rep.times)):
        row = (rep.times[i], k[0], k[1], k[2], rep.f_l2sq[i], rep.em_sq[i],
               rep.micro_D[i], rep.macro_abc[i], rep.a_diff[i], rep.E_term[i],
               rep.B_term[i], rep.rho, rep.gauss_E[i], rep.gauss_B[i])
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


# thread-count (setter, getter) symbols of the OpenBLAS builds numpy and scipy
# bundle (64-bit and 32-bit integer interfaces) and of a plain OpenBLAS, tried in order
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


def _openblas_controls() -> list:
    """(set_threads, get_threads) of every OpenBLAS copy mapped into this process.

    numpy and scipy each bundle their own copy, so there can be several.
    Empty where no OpenBLAS is loaded or /proc/self/maps cannot be read.
    """
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.rstrip("\n").split(maxsplit=5)[-1] for line in fh}
    except OSError:
        return []
    controls = []
    for path in sorted(p for p in mapped if "openblas" in os.path.basename(p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for set_name, get_name in _OPENBLAS_THREAD_SYMBOLS:
            if hasattr(lib, set_name) and hasattr(lib, get_name):
                setter, getter = getattr(lib, set_name), getattr(lib, get_name)
                setter.argtypes, setter.restype = [ctypes.c_int], None
                getter.argtypes, getter.restype = [], ctypes.c_int
                controls.append((setter, getter))
                break
    return controls


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block on one thread of every loaded OpenBLAS; restore the counts after."""
    controls = _openblas_controls()
    saved = [get_threads() for _, get_threads in controls]
    for set_threads, _ in controls:
        set_threads(1)
    try:
        yield
    finally:
        for (set_threads, _), count in zip(controls, saved):
            set_threads(count)


_WORKER_CTX: dict = {}


def _worker_init(cfg, op):
    _WORKER_CTX["cfg"] = cfg
    _WORKER_CTX["op"] = op


def run_mode(cfg: ExperimentConfig, idx: int, kvec, op: LinearizedOperator):
    """Integrate the configured data at wavevector ``kvec`` to cfg.T.

    Writes ``mode_<idx>.ckpt`` and ``mode_<idx>.csv`` (4-digit idx) into the
    existing directory cfg.outdir; returns their paths and the energy report.
    """
    outdir = Path(cfg.outdir)
    state0 = init_data(cfg, kvec, op.grid)
    ckpt_path = outdir / f"mode_{idx:04d}.ckpt"
    writer = CheckpointWriter(ckpt_path, op.grid, cfg.gamma, cfg.c_phi)
    interval = cfg.checkpoint_interval if cfg.checkpoint_interval > 0 else None
    try:
        hist = integrate_mode(state0, cfg.stepper(), cfg.T, op,
                              sample_interval=cfg.save_interval,
                              checkpoint=writer, checkpoint_interval=interval)
    finally:
        writer.close()
    rep = mode_energy_report(hist, cfg.ell, op)
    csv_path = outdir / f"mode_{idx:04d}.csv"
    csv_path.write_text(_mode_csv_text(rep))
    return str(csv_path), str(ckpt_path), rep


def _run_one_mode(args):
    idx, kvec = args
    try:
        return idx, *run_mode(_WORKER_CTX["cfg"], idx, kvec, _WORKER_CTX["op"]), None
    except Exception as exc:  # per-mode failures are recorded, not fatal
        return idx, None, None, None, f"{type(exc).__name__}: {exc}"


def max_workers() -> int:
    env = os.environ.get("VML_THREADS")
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def run_sweep(cfg: ExperimentConfig, op: LinearizedOperator | None = None) -> RunArchive:
    """Integrate every configured mode, archiving CSV series and checkpoints.

    Deterministic: identical configs on the same build produce byte-identical
    archives regardless of worker scheduling and count and of the caller's
    BLAS thread count.  The sweep runs on one BLAS thread and restores the
    caller's thread count on return.  Per-mode solver failures are recorded in
    the archive (and manifest) without aborting the sweep.  A given ``op``
    must match the config's grid (R, n) and collision parameters.
    """
    if op is not None and ((op.grid.R, op.grid.n) != (cfg.R, cfg.n)
                           or op.params != cfg.collision_params()):
        raise ValueError(
            f"operator built for R = {op.grid.R}, n = {op.grid.n}, {op.params}; "
            f"the config asks for R = {cfg.R}, n = {cfg.n}, {cfg.collision_params()}")
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    k_set = build_k_set(cfg)
    config_path = outdir / "config.cfg"
    config_path.write_text(config_to_text(cfg))
    jobs = [(idx, kvec) for idx, (kvec, _w) in enumerate(k_set)]
    nproc = min(max_workers(), len(jobs))
    results = {}
    with _one_blas_thread():
        if op is None:
            op = assemble_L(build_grid(cfg.R, cfg.n), cfg.collision_params())
        if nproc > 1:
            import multiprocessing as mp
            ctx = mp.get_context("fork")
            with ctx.Pool(nproc, initializer=_worker_init, initargs=(cfg, op)) as pool:
                for idx, csv, ckpt, rep, err in pool.imap_unordered(_run_one_mode, jobs):
                    results[idx] = (csv, ckpt, rep, err)
        else:
            _worker_init(cfg, op)
            for job in jobs:
                idx, csv, ckpt, rep, err = _run_one_mode(job)
                results[idx] = (csv, ckpt, rep, err)
    mode_csvs, checkpoints, reports, failures = [], [], [], []
    for idx in range(len(jobs)):
        csv, ckpt, rep, err = results[idx]
        if err is not None:
            failures.append({"mode": idx, "error": err})
            continue
        mode_csvs.append(csv)
        checkpoints.append(ckpt)
        reports.append(rep)
    run_id = uuid.uuid5(uuid.NAMESPACE_URL, config_to_text(cfg)).hex
    archive = RunArchive(run_id=run_id, outdir=str(outdir), config_path=str(config_path),
                         mode_csvs=mode_csvs, checkpoints=checkpoints,
                         k_set=k_set, reports=reports, failures=failures)
    return archive


def load_archive(outdir) -> RunArchive:
    """Reconstruct an archive handle from a run directory on disk."""
    outdir = Path(outdir)
    manifest = outdir / "manifest.json"
    cfg = parse_config(outdir / "config.cfg")
    k_set = build_k_set(cfg)
    csvs = sorted(str(p) for p in outdir.glob("mode_*.csv"))
    ckpts = sorted(str(p) for p in outdir.glob("mode_*.ckpt"))
    run_id = uuid.uuid5(uuid.NAMESPACE_URL, config_to_text(cfg)).hex
    if manifest.exists():
        run_id = json.loads(manifest.read_text())["run_id"]
    return RunArchive(run_id=run_id, outdir=str(outdir),
                      config_path=str(outdir / "config.cfg"),
                      mode_csvs=csvs, checkpoints=ckpts, k_set=k_set)


def synthesize_norms(archive: RunArchive, m: int, ell: float = 0.0):
    """k-quadrature of |k|^(2m) M-tilde_ell(t, k) over the archived modes.

    Approximates the squared whole-space norm of the m-th spatial derivative
    of (w^ell f, E, B).  ell = 0 is served directly from the archived CSV
    series; ell != 0 requires in-process reports (archive.reports) computed at
    that ell.  Raises ValueError when a mode of the k-set has no series, since
    the quadrature would silently lose that mode's weight.
    """
    if not archive.mode_csvs and not archive.reports:
        raise ValueError("archive holds no mode series")
    if archive.reports:
        if ell != 0.0 and any(r.ell != ell for r in archive.reports):
            raise ValueError(f"archived reports were computed at ell != {ell}")
        modes = [(rep.k, rep.times, rep.m_tilde if ell != 0.0 else rep.f_l2sq + rep.em_sq)
                 for rep in archive.reports]
    elif ell != 0.0:
        raise ValueError("ell != 0 synthesis needs in-process reports; "
                         "the CSV schema stores the unweighted series")
    else:
        modes = []
        for path in archive.mode_csvs:
            data = np.genfromtxt(path, delimiter=",", names=True)
            kvec = np.array([data["k1"][0], data["k2"][0], data["k3"][0]])
            modes.append((kvec, data["t"], data["f_l2sq"] + data["em_sq"]))
    index = {tuple(np.round(k, 12)): idx for idx, (k, _w) in enumerate(archive.k_set)}
    idxs = [index[tuple(np.round(kvec, 12))] for kvec, _, _ in modes]
    missing = sorted(set(range(len(archive.k_set))) - set(idxs))
    if missing:
        share = (sum(archive.k_set[idx][1] for idx in missing)
                 / sum(w for _k, w in archive.k_set))
        raise ValueError(f"modes {missing} have no series; they carry {share:.3g} "
                         "of the k-quadrature weight")
    times = modes[0][1]
    total = np.zeros_like(times)
    for idx, (kvec, _, series) in zip(idxs, modes):
        ksq = float(kvec @ kvec)
        total += archive.k_set[idx][1] * ksq ** m * series
    return times, total


def decay_fit(times, series, window, m: int = 0, shells_used: int = 0,
              min_decay: float = 5.0) -> DecayFitReport:
    """Least-squares slope of log(series) against log(1+t) on the window.

    The series is a squared norm, so the reported exponent is -slope/2.
    Insufficient decay (< min_decay within the window) or nonpositive values
    yield an inconclusive report.  A conclusive report's window is the first
    and last sample time inside the requested one: the span actually fitted.
    """
    t1, t2 = window
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    target = 0.75 + 0.5 * m
    mask = (times >= t1) & (times <= t2)
    sub_t, sub_v = times[mask], series[mask]
    ok = sub_t.size >= 4 and np.all(sub_v > 0.0)
    if ok:
        decay = sub_v[0] / sub_v.min()
        ok = decay >= min_decay
    if not ok:
        return DecayFitReport(m=m, window=(t1, t2), sigma_hat=float("nan"),
                              sigma_target=target, residual=float("nan"),
                              shells_used=shells_used, conclusive=False)
    x = np.log1p(sub_t)
    y = np.log(sub_v)
    coef, res = np.polyfit(x, y, 1, full=True)[:2]
    rms = float(np.sqrt(res[0] / sub_t.size)) if len(res) else 0.0
    return DecayFitReport(m=m, window=(float(sub_t[0]), float(sub_t[-1])),
                          sigma_hat=float(-coef[0] / 2.0),
                          sigma_target=target, residual=rms,
                          shells_used=shells_used, conclusive=True)


def report(archive: RunArchive, fits=()) -> dict:
    """Write the fit-summary CSV and the run manifest; returns the manifest."""
    lines = [FIT_CSV_HEADER]
    for f in fits:
        lines.append(",".join([
            str(f.m), _fmt(f.sigma_hat), _fmt(f.sigma_target), _fmt(f.residual),
            _fmt(f.window[0]), _fmt(f.window[1]), str(f.shells_used),
        ]))
    Path(archive.summary_path()).write_text("\n".join(lines) + "\n")
    files = sorted(os.path.relpath(p, archive.outdir)
                   for p in archive.mode_csvs + archive.checkpoints)
    files.append(os.path.relpath(archive.summary_path(), archive.outdir))
    files.append(os.path.relpath(archive.config_path, archive.outdir))
    manifest = {
        "run_id": archive.run_id,
        "config": os.path.relpath(archive.config_path, archive.outdir),
        "files": files,
        "failures": archive.failures,
        "n_modes": len(archive.mode_csvs),
    }
    Path(archive.manifest_path()).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
