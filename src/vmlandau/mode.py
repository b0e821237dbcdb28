"""Evolution of one spatial Fourier mode of the linearized kinetic-Maxwell system.

State per mode: (k, fhat, Ehat, Bhat, t) with

    d fhat/dt = -i (xi.k) fhat + (Ehat.xi) sqrt(mu) q1 - L fhat
    d Ehat/dt = i k x Bhat - <xi sqrt(mu), fhat_+ - fhat_->
    d Bhat/dt = -i k x Ehat

and the Gauss constraints i k.Ehat = <sqrt(mu), fhat_+ - fhat_-> and
i k.Bhat = 0, which the initial data must meet to CONSTRAINT_TOL and which are
monitored (never enforced) along the run.

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
steps the state stays in species form.  One _ModeSolve per (mode, a) holds both
blocks' generators, which mode_rhs applies too, and their solves: one GMRES
cycle each for a correction (I - a G_b) dx = r_b to the step's target, right-
preconditioned by the mode's one diagonal ILU (D-ILU) of I + a (A + i xi.k),
built on the first solve so that evaluating M builds none.  On the difference
block the preconditioner also closes the six field entries: it inverts exactly
the block matrix whose kinetic block is the D-ILU, through its 6 x 6 Schur
complement on (E, B), built once per _ModeSolve from three D-ILU solves.  Each
iteration costs one block application and two sparse triangular solves.

Inside the sum block's GMRES, K's convolution runs in single precision (about
half the cost, 2e-7 relative error).  The Krylov vectors build only the
correction x - s^n, so that error enters scaled by the correction: an inexact
Krylov method (Simoncini & Szyld, SIAM J. Sci. Comput. 25, 2003).

One rule ends a step's solves, on both blocks, and the step owns it: it sets
each block's target lin_tol |rhs_b| once, and its residual r_b = rhs_b - x_b +
a G_b x_b once a pass.  The per-step ledger applies K once to s^{n+1} and A
once to s^{n+1} and d^{n+1} for the dissipation <L f, f> = <(A + 2K) s, s> +
<A d, d>, and those products give G u^{n+1} in double, so G x too (imex-euler,
x = u^{n+1}; imex-midpoint, x = (u^{n+1} + u^n)/2): r_b is the true residual at
no further K, and at x = u^n, before the first pass, the last ledger's.  Each
solve adds its correction to x in place; a block still above its target,
because its cycle ran out of iterations or its Givens estimate was the single-
precision system's, is solved again, at most _MAX_PASSES times.  Every value
carried across a step is a function of u^n alone, so a restarted run
reproduces an uninterrupted one bitwise.

A run records by step index, StepperConfig.steps being the one time-to-steps
rule, and its solver vector, frames and checkpoint records share one layout,
ModeState.flat() = (f_+, f_-, E, B).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .collision import LinearizedOperator
from .grid import TwoSpeciesField, _dot, _norm
from .macro import project_P
from .weights import dissipation_norm

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

CONSTRAINT_TOL = 1e-5   # largest initial Gauss residual integrate_mode accepts
_SQRT2 = np.sqrt(2.0)
_LARTG = scipy.linalg.get_lapack_funcs("lartg", dtype=complex)
_MAX_ITERS = 50      # GMRES iterations of one solve (one cycle)
_MAX_PASSES = 3      # solves a step may add after its ledger finds a block above lin_tol
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
        if not all(np.isfinite(x).all() for x in (self.k, self.Ehat, self.Bhat)):
            raise ValueError("k, Ehat and Bhat must be finite")

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

    dt: float
    scheme: str
    lin_tol: float

    def __post_init__(self):
        if not 0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.scheme not in ("imex-midpoint", "imex-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.lin_tol < np.inf:
            raise ValueError("tolerances must be positive and finite")

    def implicit_weight(self) -> float:
        """Weight a of the step's solve (I - a M) x = u^n: dt/2 for imex-midpoint, dt
        for imex-euler (backward Euler: first order, energy-monotone at any dt,
        damping light waves at a rate of about |k|^2 dt)."""
        return 0.5 * self.dt if self.scheme == "imex-midpoint" else self.dt

    def steps(self, x: float, name: str = "T") -> int:
        """x / dt, which must be a whole (to 1e-9 relative), non-negative count, else ValueError."""
        if not np.isfinite(x):
            raise ValueError(f"{name} = {x!r} must be finite")
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
    return complex(_dot(g.moments.rows[0], f[0] - f[1]))


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
    return _dot(g.moments.rows[1:4], d)


def _sum_diff(u: np.ndarray, n3: int) -> np.ndarray:
    """(f+, f-, E, B) <-> (s, d, E, B) with s, d = (f+ +- f-)/sqrt2; the map is its own inverse."""
    f0, f1 = u[:n3], u[n3:2 * n3]
    return np.concatenate([(f0 + f1) / _SQRT2, (f0 - f1) / _SQRT2, u[2 * n3:]])


def mode_rhs(state: ModeState, op: LinearizedOperator):
    """Time derivative (dfhat, dEhat, dBhat) of the mode equations."""
    op.grid.check_same(state.fhat.grid)
    n3 = op.grid.size
    ms = _ModeSolve(op, state.k, 0.0)   # never solves: builds no D-ILU
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
    solve_residual: np.ndarray   # (steps, 2) their final true relative residuals, in double
    refinements: np.ndarray      # (steps,) passes a step added for a block above lin_tol


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
        lower, upper = sp.tril(A, -1, format="csr"), sp.triu(A, 1, format="csr")
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
    """The generator blocks of one mode and the solves of (I - a G) dx = r on them.

    Holds xi.k and the weight a; each solve is given its r and target.  A block
    is x = (n^3 kinetic entries, fields), G the block's part of the generator.
    The preconditioner M^-1 (see precondition) is built on the first solve from
    the mode's one _DiagonalILU of I + a (A + i xi.k): on the sum block it is
    the D-ILU; on the difference block it closes the field entries exactly
    through their Schur complement, both fixed by (op, k, a).  GMRES runs one cycle
    on (I - a G) M^-1 (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986),
    with modified Gram-Schmidt and Givens rotations, and keeps z_j = M^-1 v_j
    so that dx = Z y costs no further preconditioner solve.  With M^-1 on the
    right the residual is that of the generator it is given, so the
    recurrence's |g_{m+1}| <= target ends the cycle; integrate_mode checks
    every solution on its true residual in double.
    """

    def __init__(self, op: LinearizedOperator, k: np.ndarray, a: float):
        self.op = op
        self.k = k
        self.a = a
        self.xik = _xi_dot(op.grid, k)

    @functools.cached_property
    def ilu(self) -> _DiagonalILU:
        return _DiagonalILU(self.op.A_sparse, self.a, self.xik)

    @functools.cached_property
    def closure(self):
        """(W, V, S^-1) of the difference block's field closure; see precondition."""
        g, k, a = self.op.grid, self.k, self.a
        U = (a * _SQRT2) * g.xi * g.sqrt_mu
        W = np.array([self.ilu.solve(u.astype(complex)) for u in U])
        V = (a * _SQRT2) * g.moments.rows[1:4].astype(complex)
        kx = _cross(k, np.eye(3))
        S = np.block([[np.eye(3) + _dot(V, W.T), -1j * a * kx], [1j * a * kx, np.eye(3)]])
        return W, V, np.linalg.inv(S)

    def sparse_block(self, x: np.ndarray, Ax: Optional[np.ndarray] = None) -> np.ndarray:
        """-(i xi.k + A) x on one n^3 block: transport and the sparse part of L.
        ``Ax``, if given, stands for A x; the ledger passes (A + 2K) s for the sum block."""
        return -1j * self.xik * x - (self.op.A_sparse @ x if Ax is None else Ax)

    def sum_block(self, s: np.ndarray, dtype=np.complex128) -> np.ndarray:
        """The sum block's generator -(i xi.k + A + 2K) s, K's convolution in ``dtype``."""
        return self.sparse_block(s) - 2.0 * self.op.k_part(s, dtype)

    def diff_block(self, v: np.ndarray, Ad: Optional[np.ndarray] = None) -> np.ndarray:
        """The difference block's generator on v = (d, E, B); ``Ad``, if given, is A d."""
        g, k = self.op.grid, self.k
        n3 = g.size
        d, E, B = v[:n3], v[n3:n3 + 3], v[n3 + 3:]
        out = np.empty_like(v)
        out[:n3] = self.sparse_block(d, Ad)
        out[n3:n3 + 3] = 1j * _cross(k, B)
        out[n3 + 3:] = -1j * _cross(k, E)
        out[:n3] += _SQRT2 * _xi_dot(g, E) * g.sqrt_mu
        out[n3:n3 + 3] -= _SQRT2 * _current(g, d)
        return out

    def precondition(self, x: np.ndarray) -> np.ndarray:
        """M^-1 x: the D-ILU on a sum-block vector; on a difference-block vector, the exact
        inverse of the block matrix whose kinetic block is the D-ILU P_d.

        With U = a sqrt2 xi sqrt(mu) and V = a sqrt2 <xi sqrt(mu), .>, that matrix is
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
        EB = Sinv @ np.concatenate([x[n3:n3 + 3] - _dot(V, y), x[n3 + 3:]])
        return np.concatenate([y + _dot(EB[:3], W), EB])

    def solve(self, gen, r: np.ndarray, target: float):
        """One GMRES cycle for the correction (I - a gen) dx = r from dx = 0; returns
        (dx, iterations), or (None, 0) when |r| <= target.

        The caller gives the residual r of its current x and the target; the
        cycle stops once the Givens residual is <= target, or after _MAX_ITERS
        iterations, and integrate_mode checks x + dx on the true residual.
        """
        beta = _norm(r)
        if beta <= target:
            return None, 0
        V, Z, rot = [r / beta], [], []
        H = np.zeros((_MAX_ITERS + 1, _MAX_ITERS), dtype=complex)
        g = np.zeros(_MAX_ITERS + 1, dtype=complex)
        g[0] = beta
        for j in range(_MAX_ITERS):
            z = self.precondition(V[j])
            w = z - self.a * gen(z)
            for i, vi in enumerate(V):
                H[i, j] = _dot(vi.conj(), w)
                w -= H[i, j] * vi
            hnext = _norm(w)
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
            if abs(g[j + 1]) <= target:
                break
            V.append(w / hnext)
        y = scipy.linalg.solve_triangular(H[:len(Z), :len(Z)], g[:len(Z)]) if Z else ()
        return sum(yi * zi for yi, zi in zip(y, Z)), j + 1


def integrate_mode(state0: ModeState, cfg: StepperConfig, T: float,
                   op: LinearizedOperator, *, sample_interval: float = 0.0,
                   checkpoint=None, checkpoint_interval: float = 0.0) -> ModeHistory:
    """Evolve a mode to time T at uniform dt; returns per-step scalars and frames.

    Each step solves (I - a M) x = u^n, a = cfg.implicit_weight(), sum block then
    difference block, and sets u^{n+1} = 2x - u^n (imex-midpoint) or x (imex-euler).
    T and the intervals must be whole numbers of steps (cfg.steps), T at most
    _MAX_STEPS of them (a runaway guard).  Frames fall on the multiples of the
    sample interval's steps, and, given a ``checkpoint`` (any object with
    ``append(ModeState)``, such as a CheckpointWriter), records on the
    checkpoint interval's; both hold the first and the last state, and a 0
    interval only those.  Initial data must satisfy the Gauss constraints to
    within CONSTRAINT_TOL (a NaN residual does not), which at k = 0 asks for
    charge-neutral data.  Constraint drift during the run is recorded in the
    gauss_E and gauss_B series without aborting.

    The step sets each block's GMRES target lin_tol |rhs_b| and residual, and
    checks both blocks' solves in double by its own ledger (see the module
    notes): solve_residual holds each block's true residual,
    ``refinements`` the passes that brought a step's blocks under lin_tol, and a
    step with a block still above it after _MAX_PASSES passes raises
    RuntimeError naming those blocks and their residuals.  At lin_tol 1e-8 a
    step seldom refines; at lin_tol <= 1e-10 every step refines once, for the
    sum block's single-precision K, and none twice down to 1e-12 (measured at
    n = 9 to 13, both schemes), so there a step pays one more ledger, double K
    included, and the iterations that continue its sum-block solve: 5, 7, 9 and
    10 sum-block iterations a step at lin_tol 1e-8, 1e-10, 1e-11 and 1e-12
    (n = 13, imex-midpoint).

    Every sum over n^3 entries runs in _dot or _norm, never in BLAS, so the
    run's bits do not depend on the caller's BLAS thread count.
    """
    op.grid.check_same(state0.fhat.grid)
    g = op.grid
    k = state0.k
    res_e, res_b = state0.gauss_residuals()
    if not (res_e <= CONSTRAINT_TOL and res_b <= CONSTRAINT_TOL):   # a NaN fails too
        raise ValueError(f"initial Gauss residuals ({res_e:.2e}, {res_b:.2e}) "
                         f"exceed constraint tolerance {CONSTRAINT_TOL:.2e}")

    nsteps = cfg.steps(T)
    if nsteps > _MAX_STEPS:
        raise ValueError(f"run of {nsteps} steps exceeds the cap of {_MAX_STEPS}")
    sample_every = cfg.steps(sample_interval, "sample_interval") or nsteps
    ckpt_every = cfg.steps(checkpoint_interval, "checkpoint_interval") or nsteps
    n3 = g.size
    ms = _ModeSolve(op, k, cfg.implicit_weight())

    midpoint = cfg.scheme == "imex-midpoint"
    # each block's entries of the (s, d, E, B) vector, its generator in the solve, its name
    blocks = ((slice(None, n3), functools.partial(ms.sum_block, dtype=np.complex64),
               "sum block"), (slice(n3, None), ms.diff_block, "difference block"))

    u = state0.flat()
    times, energy, diss, gauss_e, gauss_b = (np.empty(nsteps + 1) for _ in range(5))
    iters = np.zeros((nsteps, 2), dtype=int)
    resid = np.zeros((nsteps, 2))
    passes = np.zeros(nsteps, dtype=int)

    def scalars(idx, uvec, t):
        """Record step idx's scalars; return uvec in (s, d, E, B) form and G of it."""
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
        return v, np.concatenate([ms.sparse_block(s, Ls), ms.diff_block(v[n3:], Ad)])

    v, gen_v = scalars(0, u, state0.t)
    frames = [state0.copy()]
    if checkpoint is not None:
        checkpoint.append(state0)
    for step in range(1, nsteps + 1):
        t_new = state0.t + step * cfg.dt
        rhs, gen_rhs = v, gen_v
        bnorm = [_norm(rhs[b]) for b, _, _ in blocks]
        target = [cfg.lin_tol * bn for bn in bnorm]
        x, missed = rhs.copy(), range(2)
        r = rhs - x + ms.a * gen_rhs   # x's residual, from the incoming ledger's products
        while True:
            for i in missed:
                b, gen, _ = blocks[i]
                dx, more = ms.solve(gen, r[b], target[i])
                if more:
                    x[b] += dx
                iters[step - 1, i] += more
            u = _sum_diff(2.0 * x - rhs if midpoint else x, n3)
            v, gen_v = scalars(step, u, t_new)
            # the solution and G of it, in double, from the ledger's products
            x = 0.5 * (v + rhs) if midpoint else v
            gen_x = 0.5 * (gen_v + gen_rhs) if midpoint else gen_v
            r = rhs - x + ms.a * gen_x
            for i, (b, _, _) in enumerate(blocks):
                resid[step - 1, i] = _norm(r[b]) / bnorm[i] if bnorm[i] else 0.0
            missed = [i for i in range(2) if resid[step - 1, i] > cfg.lin_tol]
            if not missed:
                break
            if passes[step - 1] == _MAX_PASSES:
                raise RuntimeError(
                    "implicit solve failed to converge: relative residual "
                    f"{', '.join(f'{resid[step - 1, i]:.3e}' for i in missed)} against rtol "
                    f"{cfg.lin_tol:.1e} after {_MAX_PASSES} refinement passes on the "
                    f"{' and the '.join(blocks[i][2] for i in missed)}")
            passes[step - 1] += 1
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
                       solve_iters=iters, solve_residual=resid, refinements=passes)


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


def mode_energy_report(history: ModeHistory, ell: float,
                       op: LinearizedOperator) -> ModeEnergyReport:
    """Evaluate the reported energy/dissipation components on the stored frames.

    Every column is unweighted, so ``ell`` must be 0.
    """
    if ell != 0:
        raise ValueError(f"ell = {ell!r}: the report's columns are unweighted, so ell must be 0")
    g = op.grid
    k = history.k
    ksq = float(k @ k)
    rho = rho_frequency(k)
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
        cols["micro_D"][idx] = dissipation_norm(micro, op.sigma)
        abc = (abs(macro.a_plus + macro.a_minus) ** 2
               + float(np.sum(np.abs(macro.b) ** 2)) + abs(macro.c) ** 2)
        cols["macro_abc"][idx] = ksq / (1.0 + ksq) * abc
        cols["a_diff"][idx] = abs(macro.a_plus - macro.a_minus) ** 2
        cols["E_term"][idx] = float(np.sum(np.abs(st.Ehat) ** 2)) / (1.0 + ksq)
        cols["B_term"][idx] = ksq / (1.0 + ksq) ** 2 * float(np.sum(np.abs(st.Bhat) ** 2))
        res_e, res_b = st.gauss_residuals()
        cols["gauss_E"][idx] = res_e
        cols["gauss_B"][idx] = res_b
    return ModeEnergyReport(k=k.copy(), rho=rho, times=times, **cols)
