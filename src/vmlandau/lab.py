"""Experiment orchestration: k-shell sweeps, norm synthesis, decay fits, CSV.

A sweep's k-set is (shell radius) x (axis direction).  The initial data is
covariant (``init_data``): the data at k is the profile at |k| e3 carried to k
by one proper rotation R(k-hat), which on an axis direction is a signed
permutation of the velocity lattice.  L commutes with those permutations, so
the directions of a shell form an orbit that shares one solve: the sweep
integrates r e3 once per shell and writes every member's checkpoint records
(node permutation, and rotation of E and B) and CSV (only k changes; every
other column is rotation-invariant) from it.  A member's records satisfy its
own implicit-step equation at its own k to the solver tolerance, and the
members of an orbit succeed or fail together.  The ExperimentConfig goes to
config.cfg, one line per field, whose text names the run; per-mode series go
to CSV (schema below), raw states to checkpoints, everything under one run
directory: the sweep's one record, read back by the rule that wrote it
(``_archive``).  Whole-space norms are synthesized by k-quadrature of the mode
CSVs; algebraic decay exponents come from log-log fits over a configured window.

Mode CSV schema (exact header):
    t,k1,k2,k3,f_l2sq,em_sq,micro_D,macro_abc,a_diff,E_term,B_term,rho_k,gauss_E,gauss_B
Fit summary schema:
    m,sigma_hat,sigma_target,resid,t1,t2,n_shells

Parallelism: orbits, not modes, are farmed to forked worker processes (the
assembled operator is shared copy-on-write); VML_THREADS caps the worker count.
Each orbit runs on one OpenBLAS thread (``mode._one_blas_thread``, held by
``run_orbit`` and by ``mode.integrate_mode``), so workers x BLAS threads never
exceeds the worker count, and archive bytes depend neither on scheduling
order, nor on the worker count, nor on the caller's BLAS thread count.
"""

from __future__ import annotations

import contextlib
import json
import os
import uuid
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from .checkpoint import CheckpointWriter
from .collision import CollisionParams, LinearizedOperator, assemble_L
from .grid import TwoSpeciesField, VelocityGrid, build_grid, check_grid_parameters
from .macro import _projector, project_P
from .mode import (ModeEnergyReport, ModeState, StepperConfig, _one_blas_thread,
                   integrate_mode, mode_energy_report)

__all__ = [
    "ExperimentConfig",
    "ConfigError",
    "DecayFitReport",
    "RunArchive",
    "parse_config",
    "build_k_set",
    "init_data",
    "run_orbit",
    "run_sweep",
    "load_archive",
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
    """Everything needed to reproduce a sweep bit-for-bit on the same build, one
    config.cfg line per field.  The data amplitude is fixed (the system is
    linear), and ``ell`` is the class constant 0, not a field: the mode CSVs
    hold unweighted series."""

    gamma: float = -3.0
    c_phi: float = 1.0
    R: float = 7.0
    n: int = 25
    shells: tuple = tuple(float(r) for r in np.geomspace(0.02, 1.5, 12))
    directions_per_shell: int = 6
    family: str = "mixed"
    dt: float = 0.25
    scheme: str = "imex-midpoint"
    lin_tol: float = 1e-8
    constraint_tol: float = 1e-5
    T: float = 200.0
    outdir: str = "runs/out"
    save_interval: float = 1.0
    checkpoint_interval: float = 0.0   # 0: first/last state only
    ell = 0.0   # unannotated, so not a field

    def __post_init__(self):
        if len(self.shells) == 0:
            raise ConfigError("shell list must not be empty")
        radii = tuple(float(r) for r in self.shells)
        if any(r <= 0 for r in radii):
            raise ConfigError("shell radii must be positive")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ConfigError("shell radii must be strictly increasing")
        object.__setattr__(self, "shells", radii)
        if self.directions_per_shell not in _DIRECTIONS:
            raise ConfigError("directions_per_shell must be 1, 2 or 6 (axis directions)")
        if self.family not in _FAMILIES:
            raise ConfigError(f"unknown family {self.family!r}; choose from {_FAMILIES}")
        if not (self.save_interval > 0 and self.checkpoint_interval >= 0):
            raise ConfigError("save_interval must be positive and checkpoint_interval not negative")
        try:
            self.collision_params()
            check_grid_parameters(self.R, self.n)
            stepper = self.stepper()
            for name in ("T", "save_interval", "checkpoint_interval"):
                stepper.steps(getattr(self, name), name)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    def collision_params(self) -> CollisionParams:
        return CollisionParams(gamma=self.gamma, c_phi=self.c_phi)

    def deflation_needed(self) -> bool:
        """Always False: the solves have no deflation.  Kept because perfbench calls it."""
        return False

    def stepper(self) -> StepperConfig:
        return StepperConfig(dt=self.dt, scheme=self.scheme, lin_tol=self.lin_tol,
                             constraint_tol=self.constraint_tol)


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
        # the first key, in file order, whose prefix fails as the whole file does;
        # an earlier prefix may fail only against a default the file overrides
        prefix = {}
        for key, val in values.items():
            prefix[key] = val
            try:
                ExperimentConfig(**prefix)
            except ConfigError as early:
                if str(early) == str(exc):
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
_DIRECTIONS = {1: _AXES[4:5], 2: _AXES[4:6], 6: _AXES}   # directions_per_shell -> axes


def build_k_set(cfg: ExperimentConfig):
    """Radial-shell x axis-direction product set with k-quadrature weights.

    Weights approximate the full k-integral as (shell trapezoid in r) x
    (4 pi r^2) x (uniform direction average).  One direction per shell is
    [r e3] with weight 4 pi r^2 dr.
    """
    radii = np.asarray(cfg.shells)
    if radii.size == 1:
        dr = np.array([1.0])
    else:
        dr = np.empty_like(radii)
        dr[0] = (radii[1] - radii[0]) / 2.0
        dr[-1] = (radii[-1] - radii[-2]) / 2.0
        dr[1:-1] = (radii[2:] - radii[:-2]) / 2.0
    dirs = _DIRECTIONS[cfg.directions_per_shell]
    out = []
    for r, w_r in zip(radii, dr):
        shell_weight = 4.0 * np.pi * r * r * w_r / len(dirs)
        for d in dirs:
            out.append((r * d, float(shell_weight)))
    return out


def _envelope(k: np.ndarray) -> float:
    return float(np.exp(-0.5 * float(k @ k)))


def _frame(k: np.ndarray) -> np.ndarray:
    """The proper rotation R(k-hat) that carries the profile at |k| e3 to k.

    R e3 = k-hat; R e1 is the unit part of e_(a+1) orthogonal to k-hat, with a
    the index of k-hat's largest component; R e2 = R e3 x R e1.  R = I at
    k = 0 and on +e3, and on every axis direction R is a signed permutation.
    """
    knorm = float(np.linalg.norm(k))
    if knorm == 0.0:
        return np.eye(3)
    khat = k / knorm
    e = np.eye(3)[(int(np.argmax(np.abs(khat))) + 1) % 3]
    c1 = e - (e @ khat) * khat
    c1 /= np.linalg.norm(c1)
    return np.column_stack([c1, np.cross(khat, c1), khat])


def init_data(cfg: ExperimentConfig, k, grid: VelocityGrid) -> ModeState:
    """Deterministic mode initial data for the configured family.

    Every family satisfies the per-mode compatibility conditions
    i k.E = <sqrt(mu), f_+ - f_-> and i k.B = 0 exactly; amplitudes carry the
    fixed Gaussian envelope exp(-|k|^2 / 2) standing in for smooth integrable
    whole-space data.  The data is covariant: it is the profile at |k| e3
    carried to k by R = ``_frame(k)``, which acts on xi (the micro polynomial
    is evaluated at R^T xi, the macro b goes to R b) and on E and B as
    vectors.  On an axis direction R is a lattice symmetry, so there the data
    equals the node-permuted, vector-rotated data at |k| e3 to roundoff; on
    +e3, R = I.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    amp = _envelope(k)
    R = _frame(k)
    xi = R.T @ grid.xi
    smu = grid.sqrt_mu
    proj = _projector(grid)
    zero3 = np.zeros(3, dtype=complex)
    knorm = float(np.linalg.norm(k))
    # the profile's frame at e3 is (e3, e2, -e1): its image under R
    khat, t1, t2 = R[:, 2], R[:, 1], -R[:, 0]

    def macro_field(a_plus, a_minus, b, c):
        return TwoSpeciesField(proj.reconstruct(np.array([a_plus, a_minus, *(R @ b), c])), grid)

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
    delta = 0.5 * amp
    f = macro_field(amp + delta, amp - delta, amp * np.array([0.4, 0.2, 0.5]), 0.3 * amp)
    f = f + micro_field(0.7 * amp)
    charge = 2.0 * delta * proj.gram[0, 0]   # the quadrature <sqrt(mu), sqrt(mu)>
    E = (charge / (1j * knorm)) * khat.astype(complex)
    E = E + 0.6 * amp * t1 + 0.3j * amp * t2
    B = np.cross(k, 0.5 * amp * (t1 + 0.2 * t2)) / knorm
    return ModeState(k, f, E, B, 0.0)


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
    """One sweep's files in its run directory, in k-set order; built by ``_archive`` only."""

    run_id: str
    outdir: str
    config_path: str
    mode_csvs: list
    checkpoints: list
    k_set: list
    failures: list

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


class _LatticeRotation:
    """A rotation Q of k-space that maps the velocity lattice onto itself.

    Q must be a signed permutation (to 1e-12), else ValueError.  ``state``
    carries a mode state to Q k: f(xi) -> f(Q^T xi), a permutation of the
    nodes, and E, B -> Q E, Q B.  Entries are moved and negated, never
    rounded, so the identity map reproduces a state bit for bit.
    """

    def __init__(self, Q: np.ndarray, grid: VelocityGrid):
        Qi = np.rint(Q).astype(int)
        if not (np.abs(Q - Qi).max() <= 1e-12 and np.all(np.abs(Qi).sum(axis=0) == 1)
                and np.all(np.abs(Qi).sum(axis=1) == 1)):
            raise ValueError(f"rotation {Q.tolist()} does not map the velocity lattice onto itself")
        self.perm = np.abs(Qi).argmax(axis=1)              # (Q v)_i = +-v_perm[i]
        self.flip = Qi[np.arange(3), self.perm] < 0
        n, mid = grid.n, (grid.n - 1) // 2
        offsets = np.indices((n, n, n)).reshape(3, -1) - mid
        self.nodes = np.ravel_multi_index(Qi.T @ offsets + mid, (n, n, n))
        self.grid = grid

    def vector(self, v: np.ndarray) -> np.ndarray:
        out = v[self.perm]
        out[self.flip] = -out[self.flip]
        return out

    def state(self, st: ModeState, k: np.ndarray) -> ModeState:
        f = TwoSpeciesField(st.fhat.values[:, self.nodes], self.grid)
        return ModeState(k, f, self.vector(st.Ehat), self.vector(st.Bhat), st.t)


class _OrbitCheckpoint:
    """Appends each record of an orbit's run, carried to each member, to the member's checkpoint."""

    def __init__(self, members):
        self.members = members    # (CheckpointWriter, _LatticeRotation, member k)

    def append(self, state: ModeState) -> None:
        for writer, rotation, k in self.members:
            writer.append(rotation.state(state, k))


@_one_blas_thread()
def run_orbit(cfg: ExperimentConfig, k, members, op: LinearizedOperator):
    """Integrate the configured data at ``k`` to cfg.T once; write every member's files from it.

    ``members`` are (idx, kvec) pairs, each kvec = Q k for a lattice symmetry
    Q = R(kvec) R(k)^T, R = ``_frame`` (k itself is the member with Q = I).
    Since the data is covariant and L commutes with Q, Q carries the run at k
    to the run at kvec.  Into the existing directory cfg.outdir it writes,
    per member, ``_mode_file(outdir, idx, "ckpt")``, the run's records carried
    by Q as the run goes, and ``_mode_file(outdir, idx, "csv")``, the run's
    report with only k changed, every other column being rotation-invariant.
    Returns the run's report at k.  Runs on one BLAS thread.  The members fail
    together: an exception carries ``exc.checkpoints``, the names of the
    checkpoints opened before it, keyed by idx.
    """
    k = np.asarray(k, dtype=float).reshape(3)
    opened = {}
    try:
        frame = _frame(k)
        targets = [(idx, np.asarray(kvec, dtype=float).reshape(3)) for idx, kvec in members]
        rotations = [_LatticeRotation(_frame(kvec) @ frame.T, op.grid) for _, kvec in targets]
        state0 = init_data(cfg, k, op.grid)
        with contextlib.ExitStack() as stack:
            writers = []
            for (idx, kvec), rotation in zip(targets, rotations):
                path = _mode_file(cfg.outdir, idx, "ckpt")
                writer = stack.enter_context(CheckpointWriter(path, op.grid, cfg.gamma, cfg.c_phi))
                opened[idx] = path.name
                writers.append((writer, rotation, kvec))
            hist = integrate_mode(state0, cfg.stepper(), cfg.T, op,
                                  sample_interval=cfg.save_interval,
                                  checkpoint=_OrbitCheckpoint(writers),
                                  checkpoint_interval=cfg.checkpoint_interval)
        rep = mode_energy_report(hist, cfg.ell, op)
        for idx, kvec in targets:
            _mode_file(cfg.outdir, idx, "csv").write_text(_mode_csv_text(replace(rep, k=kvec)))
    except Exception as exc:
        exc.checkpoints = opened
        raise
    return rep


_WORKER_CTX: dict = {}


def _worker_init(cfg, op):
    _WORKER_CTX["cfg"] = cfg
    _WORKER_CTX["op"] = op


def _run_one_orbit(job) -> list:
    """The orbit's failure records: one per member if it failed, else none."""
    k, members = job
    try:
        run_orbit(_WORKER_CTX["cfg"], k, members, _WORKER_CTX["op"])
    except Exception as exc:  # a failed orbit is recorded for each member, not fatal
        err = f"{type(exc).__name__}: {exc}"
        opened = getattr(exc, "checkpoints", {})
        return [{"mode": idx, "error": err, "checkpoint": opened.get(idx)} for idx, _ in members]
    return []


def max_workers() -> int:
    """Worker cap: VML_THREADS if set (at least 1), else the CPU count."""
    env = os.environ.get("VML_THREADS")
    if not env:
        return os.cpu_count() or 1
    try:
        return max(1, int(env))
    except ValueError:
        raise ValueError(f"VML_THREADS must be an integer, got {env!r}") from None


def _orbits(cfg: ExperimentConfig, k_set) -> list:
    """The shells as (r e3, [(idx, kvec), ...]), from the k-set's shell-major order."""
    per = cfg.directions_per_shell
    members = [(idx, kvec) for idx, (kvec, _w) in enumerate(k_set)]
    return [(np.array([0.0, 0.0, r]), members[i * per:(i + 1) * per])
            for i, r in enumerate(cfg.shells)]


def run_sweep(cfg: ExperimentConfig, op: LinearizedOperator | None = None) -> RunArchive:
    """Integrate every configured mode, archiving CSV series and checkpoints.

    The workers get one job per shell, not per mode: ``run_orbit`` integrates
    r e3 once and writes every direction of the shell from it, so the members
    of a shell share one solve and succeed or fail together.  Deterministic:
    identical configs on the same build produce byte-identical archives
    regardless of worker scheduling and count and of the caller's BLAS thread
    count: each ``run_orbit`` runs on one BLAS thread.  Per-mode failures
    are recorded in the archive (and manifest), with the partial checkpoint a
    failed mode leaves, without aborting the sweep.  It deletes any
    manifest.json first and writes its own last, through ``report`` with no
    fits, so a manifest with this config's run id marks a finished run.  A
    given ``op`` must match the config's grid (R, n) and collision parameters.
    """
    if op is not None and ((op.grid.R, op.grid.n) != (cfg.R, cfg.n)
                           or op.params != cfg.collision_params()):
        raise ValueError(
            f"operator built for R = {op.grid.R}, n = {op.grid.n}, {op.params}; "
            f"the config asks for R = {cfg.R}, n = {cfg.n}, {cfg.collision_params()}")
    workers = max_workers()
    outdir = Path(cfg.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "manifest.json").unlink(missing_ok=True)
    (outdir / "config.cfg").write_text(config_to_text(cfg))
    jobs = _orbits(cfg, build_k_set(cfg))
    nproc = min(workers, len(jobs))
    if op is None:
        op = assemble_L(build_grid(cfg.R, cfg.n), cfg.collision_params())
    if nproc > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
        with ctx.Pool(nproc, initializer=_worker_init, initargs=(cfg, op)) as pool:
            batches = list(pool.imap_unordered(_run_one_orbit, jobs))
    else:
        _worker_init(cfg, op)
        batches = list(map(_run_one_orbit, jobs))
    failures = sorted((f for batch in batches for f in batch), key=lambda f: f["mode"])
    archive = _archive(outdir, cfg, failures)
    report(archive)
    return archive


def _run_id(cfg: ExperimentConfig) -> str:   # a name-based UUID of the config text
    return uuid.uuid5(uuid.NAMESPACE_URL, config_to_text(cfg)).hex


def _mode_file(outdir, idx: int, ext: str) -> Path:
    """A mode's file in a run directory, named by its k-set index."""
    return Path(outdir) / f"mode_{idx:04d}.{ext}"


def _archive(outdir: Path, cfg: ExperimentConfig, failures: list) -> RunArchive:
    """The archive of ``cfg``'s run in ``outdir``, for ``run_sweep`` and ``load_archive``.

    Files are named by k-set index and listed if on disk; a failed mode has no
    CSV, and a checkpoint only where its failure record names one.
    """
    failed = {f["mode"]: f["checkpoint"] for f in failures}   # idx -> checkpoint or None
    k_set = build_k_set(cfg)
    csvs = [_mode_file(outdir, idx, "csv") for idx in range(len(k_set)) if idx not in failed]
    ckpts = [_mode_file(outdir, idx, "ckpt") for idx in range(len(k_set))
             if failed.get(idx, True)]
    return RunArchive(run_id=_run_id(cfg), outdir=str(outdir),
                      config_path=str(outdir / "config.cfg"),
                      mode_csvs=[str(p) for p in csvs if p.exists()],
                      checkpoints=[str(p) for p in ckpts if p.exists()],
                      k_set=k_set, failures=failures)


def load_archive(outdir) -> RunArchive:
    """The archive of the finished run in ``outdir``, by ``run_sweep``'s rule.

    The run is finished when manifest.json carries the run id of config.cfg:
    ``run_sweep`` deletes the manifest first and writes it last.  Otherwise
    ValueError, so that no earlier or unfinished run is read as this config's.
    """
    outdir = Path(outdir)
    cfg = parse_config(outdir / "config.cfg")
    manifest = outdir / "manifest.json"
    saved = json.loads(manifest.read_text()) if manifest.exists() else {}
    if saved.get("run_id") != _run_id(cfg):
        raise ValueError(f"{outdir} holds no finished run of its config.cfg")
    return _archive(outdir, cfg, saved["failures"])


def synthesize_norms(archive: RunArchive, m: int):
    """k-quadrature of |k|^(2m) (|f|^2 + |[E, B]|^2)(t, k) over the archived mode CSVs.

    Approximates the squared whole-space norm of the m-th spatial derivative
    of (f, E, B).  Mode idx's series is read from its CSV,
    ``_mode_file(outdir, idx, "csv")``; its k and weight come from
    ``archive.k_set``.  Raises ValueError when a mode of the k-set has no
    listed CSV, since the quadrature would silently lose that mode's weight.
    """
    paths = [str(_mode_file(archive.outdir, idx, "csv")) for idx in range(len(archive.k_set))]
    listed = set(archive.mode_csvs)
    missing = [idx for idx, path in enumerate(paths) if path not in listed]
    if missing:
        share = (sum(archive.k_set[idx][1] for idx in missing)
                 / sum(w for _k, w in archive.k_set))
        raise ValueError(f"modes {missing} have no series; they carry {share:.3g} "
                         "of the k-quadrature weight")
    columns = [MODE_CSV_HEADER.split(",").index(name) for name in ("t", "f_l2sq", "em_sq")]
    total = 0.0
    for (kvec, weight), path in zip(archive.k_set, paths):
        # %.17g round-trips, so these are the run's bits
        times, f_l2sq, em_sq = np.loadtxt(path, delimiter=",", skiprows=1, usecols=columns,
                                          ndmin=2).T
        total = total + weight * float(kvec @ kvec) ** m * (f_l2sq + em_sq)
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
    files = sorted(os.path.basename(p) for p in archive.mode_csvs + archive.checkpoints)
    manifest = {
        "run_id": archive.run_id,
        "config": "config.cfg",
        "files": files + ["fit_summary.csv", "config.cfg"],
        "failures": archive.failures,
        "n_modes": len(archive.mode_csvs),
    }
    Path(archive.manifest_path()).write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    return manifest
