"""Evolution of one spatial Fourier mode of the linearized kinetic-Maxwell system.

State per mode: (k, fhat, Ehat, Bhat, t) with

    d fhat/dt = -i (xi.k) fhat + (Ehat.xi) sqrt(mu) q1 - L fhat
    d Ehat/dt = i k x Bhat - <xi sqrt(mu), fhat_+ - fhat_->
    d Bhat/dt = -i k x Ehat

and the Gauss constraints i k.Ehat = <sqrt(mu), fhat_+ - fhat_-> and
i k.Bhat = 0 monitored (never enforced) along the run.

Both schemes take one implicit step: solve (I - a M) x = u^n to the configured
tolerance, a = StepperConfig.implicit_weight(), and set u^{n+1} = 2x - u^n
(imex-midpoint, a = dt/2: second order, conserving the skew part's energy and
dissipating 2 dt <L x, x>) or x (imex-euler, a = dt: backward Euler, first
order, dissipating a further |u^{n+1} - u^n|^2 and so damping light waves at a
rate of about |k|^2 dt).  Either way mode energy is monotone up to solver
tolerance at any dt, and i k.E - charge and i k.B are linear invariants.

Since L f_pm = A f_pm + K (f_+ + f_-), both schemes solve in s, d =
(f_+ +- f_-)/sqrt2.  The sum block -(i xi.k + A + 2K) s holds all of the
FFT-applied K and no field; the difference block -(i xi.k + A) d is sparse and
couples to (E, B) through sqrt2 (E.xi) sqrt(mu) and the current
sqrt2 <xi sqrt(mu), d>.  The sqrt2 makes the map orthogonal and its own
inverse, so it keeps the energy norm: the blocks' tests on the true residual
|r_b| <= lin_tol |rhs_b| add up to lin_tol |rhs| on the whole state.  Between
steps the state stays in species form.  One _ModeSolve per (mode, a) holds
both blocks' generators, which mode_rhs applies too, and their solves.  Each
block runs restarted GMRES from the current state, right-preconditioned by the
mode's one diagonal ILU (D-ILU) of I + a (A + i xi.k), built on the first
solve so that evaluating M builds none.  On the difference block the
preconditioner also closes the six field entries: it inverts exactly the block
matrix whose kinetic block is the D-ILU, through its 6 x 6 Schur complement on
(E, B), built once per _ModeSolve from three D-ILU solves.  Right
preconditioning leaves the residual unpreconditioned, so the Givens recurrence
gives the true residual and each iteration costs one block application and two
sparse triangular solves.  The per-step ledger applies K once to s^n and A
once to s^n and d^n for the dissipation <L f, f> = <(A + 2K) s, s> + <A d, d>,
and the same products give both blocks' initial residuals a (G u^n), so a step
applies K once per sum-block iteration plus once.  Every value carried across a
step is a function of u^n alone, so a restarted run reproduces an
uninterrupted one bitwise.

A run records by step index, StepperConfig.steps being the one time-to-steps
rule, and its solver vector, frames and checkpoint records share one layout,
ModeState.flat() = (f_+, f_-, E, B).
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .collision import LinearizedOperator
from .grid import TwoSpeciesField
from .macro import _moment_rows, project_P
from .weights import WeightSpec, dissipation_norm

__all__ = [
    "ModeState",
    "StepperConfig",
    "ModeHistory",
    "ModeEnergyReport",
    "mode_rhs",
    "integrate_mode",
    "energy_identity_check",
    "mode_energy_report",
    "rho_frequency",
]

_SQRT2 = np.sqrt(2.0)
_LARTG = scipy.linalg.get_lapack_funcs("lartg", dtype=complex)
_MAX_CYCLES = 200    # GMRES restart cycles before a solve is reported as failed
_MAX_SWEEPS = 100    # Jacobi sweeps for the D-ILU diagonal before its set-up is reported as failed
_MAX_STEPS = 10_000_000   # steps of one run before integrate_mode refuses it as a runaway


def rho_frequency(k) -> float:
    """Frequency function rho(k) = |k|^2 / (1 + |k|^2)^2."""
    ksq = float(np.dot(k, k))
    return ksq / (1.0 + ksq) ** 2


@dataclass
class ModeState:
    """Full state of one spatial Fourier mode."""

    k: np.ndarray
    fhat: TwoSpeciesField
    Ehat: np.ndarray
    Bhat: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        self.k = np.asarray(self.k, dtype=float).reshape(3)
        self.Ehat = np.asarray(self.Ehat, dtype=complex).reshape(3)
        self.Bhat = np.asarray(self.Bhat, dtype=complex).reshape(3)

    def gauss_residuals(self):
        """|i k.E - charge| and |i k.B|."""
        return _gauss(self.fhat.grid, self.k, self.fhat.values, self.Ehat, self.Bhat)

    def copy(self) -> "ModeState":
        return ModeState.from_flat(self.k, self.flat(), self.fhat.grid, self.t)

    def flat(self) -> np.ndarray:
        """(f_+, f_-, E, B) as one 2 n^3 + 6 vector: the solver's and the checkpoint's layout."""
        return np.concatenate([self.fhat.values.reshape(-1), self.Ehat, self.Bhat])

    @classmethod
    def from_flat(cls, k, u: np.ndarray, grid, t: float) -> "ModeState":
        """The state at k and t whose flat() is a copy of u."""
        n3 = grid.size
        f = TwoSpeciesField(u[:2 * n3].reshape(2, n3).copy(), grid)
        return cls(np.array(k, dtype=float), f, u[2 * n3:2 * n3 + 3].copy(),
                   u[2 * n3 + 3:].copy(), t)


@dataclass(frozen=True)
class StepperConfig:
    """Time stepping controls for integrate_mode."""

    dt: float = 0.01
    scheme: str = "imex-midpoint"
    lin_tol: float = 1e-10
    constraint_tol: float = 1e-6

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("imex-midpoint", "imex-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.lin_tol <= 0 or self.constraint_tol <= 0:
            raise ValueError("tolerances must be positive")

    def implicit_weight(self) -> float:
        """Weight a of the step's solve (I - a M) x = u^n: dt/2 for imex-midpoint, dt
        for imex-euler (backward Euler: first order, energy-monotone at any dt,
        damping light waves at a rate of about |k|^2 dt)."""
        return 0.5 * self.dt if self.scheme == "imex-midpoint" else self.dt

    def steps(self, x: float, name: str = "T") -> int:
        """x / dt, which must be a whole (to 1e-9 relative), non-negative count, else ValueError."""
        if x < 0:
            raise ValueError(f"{name} = {x!r} must not be negative")
        nsteps = int(round(x / self.dt))
        if abs(nsteps * self.dt - x) > 1e-9 * max(x, self.dt):
            raise ValueError(f"{name} = {x!r} is not a whole number of steps of dt = {self.dt!r}")
        return nsteps


def _xi_dot(g, v) -> np.ndarray:
    """xi.v at every velocity node."""
    return g.xi[0] * v[0] + g.xi[1] * v[1] + g.xi[2] * v[2]


def _charge(g, f: np.ndarray) -> complex:
    """Charge <sqrt(mu), f_+ - f_-> of a (2, n^3) block."""
    return complex(_moment_rows(g)[0] @ (f[0] - f[1]))


def _gauss(g, k: np.ndarray, f: np.ndarray, E: np.ndarray, B: np.ndarray):
    """Gauss residuals |i k.E - charge| and |i k.B| of a (2, n^3) block f and fields E, B."""
    return abs(1j * (k @ E) - _charge(g, f)), abs(1j * (k @ B))


def _cross(k: np.ndarray, v: np.ndarray) -> np.ndarray:
    """k x v, component by component: np.cross's products in np.cross's order, so equal bit
    for bit, without its broadcasting set-up."""
    return np.array([k[1] * v[2] - k[2] * v[1], k[2] * v[0] - k[0] * v[2],
                     k[0] * v[1] - k[1] * v[0]])


def _current(g, d: np.ndarray) -> np.ndarray:
    """<xi sqrt(mu), d> of one n^3 block; the current is sqrt2 times it at d = (f_+ - f_-)/sqrt2."""
    return _moment_rows(g)[1:4] @ d


def _sum_diff(u: np.ndarray, n3: int) -> np.ndarray:
    """(f+, f-, E, B) <-> (s, d, E, B) with s, d = (f+ +- f-)/sqrt2; the map is its own inverse."""
    f0, f1 = u[:n3], u[n3:2 * n3]
    return np.concatenate([(f0 + f1) / _SQRT2, (f0 - f1) / _SQRT2, u[2 * n3:]])


def mode_rhs(state: ModeState, op: LinearizedOperator):
    """Time derivative (dfhat, dEhat, dBhat) of the mode equations."""
    op.grid.check_same(state.fhat.grid)
    n3 = op.grid.size
    ms = _ModeSolve(op, state.k, 0.0, 0.0, _SQRT2)   # never solves: builds no D-ILU
    u = _sum_diff(state.flat(), n3)
    du = np.concatenate([ms.sum_block(u[:n3]), ms.diff_block(u[n3:])])
    d = ModeState.from_flat(state.k, _sum_diff(du, n3), state.fhat.grid, state.t)
    return d.fhat, d.Ehat, d.Bhat


@dataclass
class ModeHistory:
    """Per-step scalar series plus sparsely sampled full frames of one mode run."""

    k: np.ndarray
    times: np.ndarray            # every accepted step, including t0
    energy: np.ndarray           # ||fhat||^2 + |E|^2 + |B|^2
    dissipation: np.ndarray      # Re <L fhat, fhat>
    gauss_E: np.ndarray
    gauss_B: np.ndarray
    frames: list                 # ModeState samples (always includes first/last)
    solve_iters: np.ndarray      # (steps, 2) GMRES iterations of the sum and difference blocks
    solve_residual: np.ndarray   # (steps, 2) their final relative residuals


class _DiagonalILU:
    """D-ILU of M = I + a (A + i xi.k) on one n^3 block (Barrett et al., Templates, SIAM 1994, 3.4).

    P = (D + a A_L) D^-1 (D + a A_U), with A_L, A_U the strict triangles of A
    and D = diag(d) fixed by diag(P) = diag(M): d = m - a^2 (A_L o A_U^T)(1/d)
    with m = diag(M).  The map is strictly triangular, so Jacobi sweeps (Chow &
    Patel, SIAM J. Sci. Comput. 37, 2015) reach its fixed point, and stop when
    two agree bitwise; Re d >= 0.64 min|m| was measured for 0.02 <= a <= 100.
    SuperLU factors each triangle unpivoted in natural order: exact, no fill.
    """

    def __init__(self, A, a: float, xik: np.ndarray):
        lower, upper = sp.tril(A, k=-1, format="csr"), sp.triu(A, k=1, format="csr")
        m = 1.0 + a * (A.diagonal() + 1j * xik)
        coupling = a * a * lower.multiply(upper.T)
        d = m
        for _ in range(_MAX_SWEEPS):
            d, prev = m - coupling @ (1.0 / d), d
            if np.array_equal(d, prev):
                break
        else:
            raise RuntimeError(f"D-ILU diagonal not settled after {_MAX_SWEEPS} sweeps")
        self.d = d
        D = sp.diags_array(d)
        opts = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1, relax=1)
        self._lower = spla.splu((D + a * lower).tocsc(), **opts)
        self._upper = spla.splu((D + a * upper).tocsc(), **opts)

    def solve(self, x: np.ndarray) -> np.ndarray:
        """P^-1 x = (D + a A_U)^-1 D (D + a A_L)^-1 x."""
        return self._upper.solve(self.d * self._lower.solve(x))


class _ModeSolve:
    """The generator blocks of one mode and the solves of (I - a G) x = rhs on them.

    Holds xi.k, the weight a and the coupling coefficient ``couple`` (sqrt2,
    or 0 to drop the field-kinetic terms).  A block is x = (n^3 kinetic
    entries, fields) and G is the block's part of the generator.  The
    preconditioner M^-1 (see precondition) is built on the first solve from
    the mode's one _DiagonalILU of I + a (A + i xi.k): on the sum block it is
    the D-ILU; on the difference block it closes the field entries exactly
    through their Schur complement.  Both depend only on (op, k, a).  GMRES
    runs on (I - a G) M^-1 (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7,
    1986) with modified Gram-Schmidt and Givens rotations, and keeps
    z_j = M^-1 v_j so that x = x0 + Z y costs
    no further preconditioner solve.  With M^-1 on the right the residual is
    the true one, so the recurrence's |g_{m+1}| <= lin_tol |rhs| is the
    block's stopping test; the residual is recomputed from x only at a
    restart and on failure.
    """

    def __init__(self, op: LinearizedOperator, k: np.ndarray, a: float, lin_tol: float,
                 couple: float):
        self.op = op
        self.k = k
        self.a = a
        self.lin_tol = lin_tol
        self.couple = couple
        self.xik = _xi_dot(op.grid, k)

    @functools.cached_property
    def ilu(self) -> _DiagonalILU:
        return _DiagonalILU(self.op.A_sparse, self.a, self.xik)

    @functools.cached_property
    def closure(self):
        """(W, V, S^-1) of the difference block's field closure; see precondition."""
        g, k, a = self.op.grid, self.k, self.a
        U = (a * self.couple) * g.xi * g.sqrt_mu
        W = np.array([self.ilu.solve(u.astype(complex)) for u in U])
        V = (a * self.couple) * _moment_rows(g)[1:4].astype(complex)
        kx = _cross(k, np.eye(3))
        S = np.block([[np.eye(3) + V @ W.T, -1j * a * kx], [1j * a * kx, np.eye(3)]])
        return W, V, np.linalg.inv(S)

    def sparse_block(self, x: np.ndarray, Ax: Optional[np.ndarray] = None) -> np.ndarray:
        """-(i xi.k + A) x on one n^3 block: transport and the sparse part of L.
        ``Ax``, if given, is A x."""
        return -1j * self.xik * x - (self.op.A_sparse @ x if Ax is None else Ax)

    def sum_block(self, s: np.ndarray) -> np.ndarray:
        """The sum block's generator -(i xi.k + A + 2K) s."""
        return self.sparse_block(s) - 2.0 * self.op.k_part(s)

    def diff_block(self, v: np.ndarray, Ad: Optional[np.ndarray] = None) -> np.ndarray:
        """The difference block's generator on v = (d, E, B); ``Ad``, if given, is A d."""
        g, k = self.op.grid, self.k
        n3 = g.size
        d, E, B = v[:n3], v[n3:n3 + 3], v[n3 + 3:]
        out = np.empty_like(v)
        out[:n3] = self.sparse_block(d, Ad)
        out[n3:n3 + 3] = 1j * _cross(k, B)
        out[n3 + 3:] = -1j * _cross(k, E)
        out[:n3] += self.couple * _xi_dot(g, E) * g.sqrt_mu
        out[n3:n3 + 3] -= self.couple * _current(g, d)
        return out

    def precondition(self, x: np.ndarray) -> np.ndarray:
        """M^-1 x: the D-ILU on a sum-block vector; on a difference-block vector, the exact
        inverse of the block matrix whose kinetic block is the D-ILU P_d.

        With U = a couple xi sqrt(mu) and V = a couple <xi sqrt(mu), .>, that matrix is
        [[P_d, -U, 0], [V, I, -i a k x], [0, i a k x, I]]; its Schur complement on
        (E, B) is S = [[I + V W, -i a k x], [i a k x, I]] with W = P_d^-1 U
        (Benzi, Golub & Liesen, Acta Numerica 14, 2005).  So y = P_d^-1 x_d,
        (E, B) = S^-1 (x_E - V y, x_B) and d = y + W E: one D-ILU solve, as on the
        sum block, and W and S^-1 come from three D-ILU solves once per _ModeSolve.
        """
        n3 = self.op.grid.size
        y = self.ilu.solve(x[:n3])
        if x.size == n3:
            return y
        W, V, Sinv = self.closure
        EB = Sinv @ np.concatenate([x[n3:n3 + 3] - V @ y, x[n3 + 3:]])
        return np.concatenate([y + EB[:3] @ W, EB])

    def solve(self, gen, rhs: np.ndarray, guess: np.ndarray,
              gen_guess: Optional[np.ndarray] = None, restart: int = 50):
        """GMRES for (I - a gen) x = rhs from ``guess``; returns (x, iterations, relative residual).

        ``gen_guess``, if given, is gen(guess), so the initial residual
        rhs - guess + a gen(guess) costs no application of gen.  It raises
        RuntimeError, with the residual, after _MAX_CYCLES cycles of ``restart``.
        """
        bnorm = np.linalg.norm(rhs)
        if bnorm == 0.0:
            return np.zeros_like(rhs), 0, 0.0
        a, target = self.a, self.lin_tol * bnorm
        x = guess
        r = rhs - (x - a * gen(x)) if gen_guess is None else rhs - x + a * gen_guess
        beta = np.linalg.norm(r)
        iters = cycles = 0
        while beta > target:
            if cycles == _MAX_CYCLES:
                raise RuntimeError(f"implicit solve failed to converge: relative residual "
                                   f"{beta / bnorm:.3e} against rtol {self.lin_tol:.1e} after "
                                   f"{iters} iterations")
            cycles += 1
            V, Z, rot = [r / beta], [], []
            H = np.zeros((restart + 1, restart), dtype=complex)
            g = np.zeros(restart + 1, dtype=complex)
            g[0] = beta
            m = 0
            for j in range(restart):
                z = self.precondition(V[j])
                w = z - a * gen(z)
                iters += 1
                for i, vi in enumerate(V):
                    H[i, j] = np.vdot(vi, w)
                    w -= H[i, j] * vi
                hnext = np.linalg.norm(w)
                for i, (c, s) in enumerate(rot):
                    H[i, j], H[i + 1, j] = (c * H[i, j] + s * H[i + 1, j],
                                            -np.conj(s) * H[i, j] + c * H[i + 1, j])
                c, s, rjj = _LARTG(H[j, j], hnext)
                if rjj == 0.0:
                    break  # (I - a G) z_j adds no direction: keep the first j columns
                Z.append(z)
                rot.append((c, s))
                H[j, j] = rjj
                g[j + 1] = -np.conj(s) * g[j]
                g[j] *= c
                m = j + 1
                if abs(g[m]) <= target:
                    break
                V.append(w / hnext)
            if m:
                y = scipy.linalg.solve_triangular(H[:m, :m], g[:m])
                x = x + sum(yi * zi for yi, zi in zip(y, Z))
            if abs(g[m]) <= target:
                return x, iters, abs(g[m]) / bnorm
            r = rhs - (x - a * gen(x))
            beta = np.linalg.norm(r)
        return x, iters, beta / bnorm


# thread-count (setter, getter) symbols of the OpenBLAS builds numpy and scipy
# bundle (64-bit and 32-bit integer interfaces) and of a plain OpenBLAS, tried in order
_OPENBLAS_THREAD_SYMBOLS = (
    ("scipy_openblas_set_num_threads64_", "scipy_openblas_get_num_threads64_"),
    ("scipy_openblas_set_num_threads", "scipy_openblas_get_num_threads"),
    ("openblas_set_num_threads", "openblas_get_num_threads"),
)


@functools.cache
def _openblas_controls() -> tuple:
    """(set_threads, get_threads) of every OpenBLAS copy mapped into this process.

    numpy and scipy each bundle their own copy, so there can be several; both
    are loaded by this module's imports, so the first answer is kept.
    Empty where no OpenBLAS is loaded or /proc/self/maps cannot be read.
    """
    try:
        with open("/proc/self/maps") as fh:
            mapped = {line.rstrip("\n").split(maxsplit=5)[-1] for line in fh}
    except OSError:
        return ()
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
    return tuple(controls)


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


@_one_blas_thread()
def integrate_mode(state0: ModeState, cfg: StepperConfig, T: float,
                   op: LinearizedOperator, *, sample_interval: float = 0.0,
                   checkpoint=None, checkpoint_interval: float = 0.0,
                   couple_kinetic: bool = True) -> ModeHistory:
    """Evolve a mode to time T at uniform dt; returns per-step scalars and frames.

    Each step solves (I - a M) x = u^n, a = cfg.implicit_weight(), sum block then
    difference block, and sets u^{n+1} = 2x - u^n (imex-midpoint) or x (imex-euler).
    T and the intervals must be whole numbers of steps (cfg.steps), T at most
    _MAX_STEPS of them (a runaway guard).  Frames fall on the multiples of the
    sample interval's steps, and, given a ``checkpoint`` (any object with
    ``append(ModeState)``: a CheckpointWriter, or ``lab._OrbitCheckpoint``),
    records on the checkpoint interval's; both hold the first and the last
    state, and a 0 interval only those.
    Initial data must satisfy the Gauss constraints to within
    cfg.constraint_tol, which at k = 0 asks for charge-neutral data.
    Constraint drift during the run is recorded in the gauss_E and gauss_B
    series without aborting.  ``couple_kinetic=False`` drops the
    field-kinetic coupling terms (E.xi sqrt(mu) q1 and the current), leaving
    the decoupled Maxwell rotation plus collisional transport; that subsystem
    has closed-form oscillatory solutions used by conservation tests.

    The run holds every loaded OpenBLAS at one thread, restoring the caller's
    counts on return: OpenBLAS threads dot products and norms above 10^4
    entries, which would make the bits at n >= 23 depend on the caller.
    """
    op.grid.check_same(state0.fhat.grid)
    g = op.grid
    k = state0.k
    res_e, res_b = state0.gauss_residuals()
    if res_e > cfg.constraint_tol or res_b > cfg.constraint_tol:
        raise ValueError(f"initial Gauss residuals ({res_e:.2e}, {res_b:.2e}) "
                         f"exceed constraint tolerance {cfg.constraint_tol:.2e}")

    nsteps = cfg.steps(T)
    if nsteps > _MAX_STEPS:
        raise ValueError(f"run of {nsteps} steps exceeds the cap of {_MAX_STEPS}")
    sample_every = cfg.steps(sample_interval, "sample_interval") or nsteps
    ckpt_every = cfg.steps(checkpoint_interval, "checkpoint_interval") or nsteps
    n3 = g.size
    ms = _ModeSolve(op, k, cfg.implicit_weight(), cfg.lin_tol, _SQRT2 if couple_kinetic else 0.0)

    u = state0.flat()
    times, energy, diss, gauss_e, gauss_b = (np.empty(nsteps + 1) for _ in range(5))
    iters = np.zeros((nsteps, 2), dtype=int)
    resid = np.zeros((nsteps, 2))

    def scalars(idx, uvec, t):
        """Record step idx's scalars; return uvec in (s, d, E, B) form, G_s s and G_d (d, E, B)."""
        v = _sum_diff(uvec, n3)
        s, d = v[:n3], v[n3:2 * n3]
        Ad = op.A_sparse @ d
        Ls = op.A_sparse @ s + 2.0 * op.k_part(s)
        f = uvec[:2 * n3].reshape(2, n3)
        times[idx] = t
        energy[idx] = float(np.sum(g.weights * (np.abs(f) ** 2).sum(axis=0))
                            + np.sum(np.abs(uvec[2 * n3:]) ** 2))
        # <L f, f> in (s, d) form: the map is orthogonal
        diss[idx] = float(np.sum(g.weights * (Ls * np.conj(s) + Ad * np.conj(d))).real)
        gauss_e[idx], gauss_b[idx] = _gauss(g, k, f, uvec[2 * n3:2 * n3 + 3], uvec[2 * n3 + 3:])
        return v, -1j * ms.xik * s - Ls, ms.diff_block(v[n3:], Ad)

    v, gen_s, gen_d = scalars(0, u, state0.t)
    frames = [state0.copy()]
    if checkpoint is not None:
        checkpoint.append(state0)
    for step in range(1, nsteps + 1):
        t_new = state0.t + step * cfg.dt
        s, iters[step - 1, 0], resid[step - 1, 0] = ms.solve(ms.sum_block, v[:n3], v[:n3], gen_s)
        dEB, iters[step - 1, 1], resid[step - 1, 1] = ms.solve(ms.diff_block, v[n3:], v[n3:],
                                                               gen_d)
        x = np.concatenate([s, dEB])
        v = 2.0 * x - v if cfg.scheme == "imex-midpoint" else x
        u = _sum_diff(v, n3)
        v, gen_s, gen_d = scalars(step, u, t_new)
        sample = step % sample_every == 0 or step == nsteps
        record = checkpoint is not None and (step % ckpt_every == 0 or step == nsteps)
        if sample or record:
            state = ModeState.from_flat(k, u, state0.fhat.grid, t_new)
            if sample:
                frames.append(state)
            if record:
                checkpoint.append(state)
    return ModeHistory(k=k.copy(), times=times, energy=energy, dissipation=diss,
                       gauss_E=gauss_e, gauss_B=gauss_b, frames=frames,
                       solve_iters=iters, solve_residual=resid)


@dataclass
class EnergyIdentityReport:
    """Residuals of d/dt(total energy) = -2 Re <L fhat, fhat> over a history."""

    interval_residuals: np.ndarray
    cumulative_residual: float
    initial_energy: float
    max_step_increase: float

    @property
    def relative_cumulative(self) -> float:
        return self.cumulative_residual / self.initial_energy


def energy_identity_check(history: ModeHistory) -> EnergyIdentityReport:
    """Per-interval and cumulative residual of the mode energy identity.

    Uses the trapezoid rule on the per-step dissipation series; the residual
    reflects the stepper's truncation order.
    """
    t = history.times
    en = history.energy
    dv = history.dissipation
    dt = np.diff(t)
    interval = np.abs(np.diff(en) + dt * (dv[:-1] + dv[1:]))
    cumulative = abs(en[-1] - en[0] + np.sum(dt * (dv[:-1] + dv[1:])))
    increases = np.maximum(np.diff(en), 0.0)
    return EnergyIdentityReport(
        interval_residuals=interval,
        cumulative_residual=float(cumulative),
        initial_energy=float(en[0]),
        max_step_increase=float(increases.max()) if increases.size else 0.0,
    )


@dataclass
class ModeEnergyReport:
    """Time series of the per-mode energy/dissipation components and rho(k)."""

    k: np.ndarray
    rho: float
    times: np.ndarray
    f_l2sq: np.ndarray
    em_sq: np.ndarray
    micro_D: np.ndarray
    macro_abc: np.ndarray
    a_diff: np.ndarray
    E_term: np.ndarray
    B_term: np.ndarray
    gauss_E: np.ndarray
    gauss_B: np.ndarray
    ell: float = 0.0


def mode_energy_report(history: ModeHistory, ell: float,
                       op: LinearizedOperator) -> ModeEnergyReport:
    """Evaluate the reported energy/dissipation components on the stored frames."""
    g = op.grid
    k = history.k
    ksq = float(k @ k)
    rho = rho_frequency(k)
    spec0 = WeightSpec(tau=0.0, lam=0.0)
    nts = len(history.frames)
    cols = {name: np.empty(nts) for name in
            ("f_l2sq", "em_sq", "micro_D", "macro_abc", "a_diff", "E_term", "B_term",
             "gauss_E", "gauss_B")}
    times = np.empty(nts)
    for idx, st in enumerate(history.frames):
        times[idx] = st.t
        f = st.fhat
        macro, pf, micro = project_P(f)
        cols["f_l2sq"][idx] = float(np.sum(g.weights * (np.abs(f.values) ** 2).sum(axis=0)))
        cols["em_sq"][idx] = float(np.sum(np.abs(st.Ehat) ** 2) + np.sum(np.abs(st.Bhat) ** 2))
        cols["micro_D"][idx] = dissipation_norm(micro, spec0, st.t, op.sigma)
        abc = (abs(macro.a_plus + macro.a_minus) ** 2
               + float(np.sum(np.abs(macro.b) ** 2)) + abs(macro.c) ** 2)
        cols["macro_abc"][idx] = ksq / (1.0 + ksq) * abc
        cols["a_diff"][idx] = abs(macro.a_plus - macro.a_minus) ** 2
        cols["E_term"][idx] = float(np.sum(np.abs(st.Ehat) ** 2)) / (1.0 + ksq)
        cols["B_term"][idx] = ksq / (1.0 + ksq) ** 2 * float(np.sum(np.abs(st.Bhat) ** 2))
        res_e, res_b = st.gauss_residuals()
        cols["gauss_E"][idx] = res_e
        cols["gauss_B"][idx] = res_b
    return ModeEnergyReport(k=k.copy(), rho=rho, times=times, ell=ell, **cols)
