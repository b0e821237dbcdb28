"""Evolution of one spatial Fourier mode of the linearized kinetic-Maxwell system.

State per mode: (k, fhat, Ehat, Bhat, t) with

    d fhat/dt = -i (xi.k) fhat + (Ehat.xi) sqrt(mu) q1 - L fhat
    d Ehat/dt = i k x Bhat - <xi sqrt(mu), fhat_+ - fhat_->
    d Bhat/dt = -i k x Ehat

and the Gauss constraints i k.Ehat = <sqrt(mu), fhat_+ - fhat_-> and
i k.Bhat = 0 monitored (never enforced) along the run.

Two IMEX schemes are provided.  imex-midpoint solves the full linear step map
(I - dt/2 M) u* = u^n to the configured tolerance and sets u^{n+1} = 2u* - u^n,
which conserves the quadratic energy of the skew (transport/Maxwell/coupling)
part exactly and dissipates 2 dt <L f*, f*>, so total mode energy is monotone
up to solver tolerance at any dt.  imex-euler treats L and the transport
implicitly and the Maxwell coupling explicitly, with the current j evaluated
at the new f so the discrete charge moment telescopes exactly.

One generator M, built on one kinetic block -(i xi.k + L), and one solve path
serve both schemes: midpoint solves with M on the whole state, Euler with its
kinetic block on f alone.  The solves use GMRES preconditioned by an ILU
factorization of the sparse part of L plus the diagonal transport, applied to
each species block; the GMRES initial guess is the current state, so a
restarted run reproduces an uninterrupted one bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy.optimize
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .collision import LinearizedOperator
from .grid import TwoSpeciesField
from .macro import project_P
from .weights import WeightSpec, dissipation_norm

__all__ = [
    "ModeState",
    "StepperConfig",
    "ModeHistory",
    "ModeEnergyReport",
    "EnvelopeFit",
    "mode_rhs",
    "integrate_mode",
    "energy_identity_check",
    "mode_energy_report",
    "envelope_fit",
    "rho_frequency",
    "report_weight",
]


def rho_frequency(k) -> float:
    """Frequency function rho(k) = |k|^2 / (1 + |k|^2)^2."""
    ksq = float(np.dot(k, k))
    return ksq / (1.0 + ksq) ** 2


def report_weight(grid, gamma: float) -> np.ndarray:
    """Velocity weight w(xi) = <xi>^(-(gamma+2)/2) used in mode energy reports."""
    br2 = 1.0 + np.sum(grid.xi ** 2, axis=0)
    return br2 ** (-(gamma + 2.0) / 4.0)


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

    def charge_moment(self) -> complex:
        return _charge(self.fhat.grid, self.fhat.values)

    def gauss_residuals(self):
        """|i k.E - charge| and |i k.B|."""
        res_e = abs(1j * (self.k @ self.Ehat) - self.charge_moment())
        res_b = abs(1j * (self.k @ self.Bhat))
        return res_e, res_b

    def total_energy(self) -> float:
        from .grid import inner_product
        return float(inner_product(self.fhat, self.fhat).real
                     + np.sum(np.abs(self.Ehat) ** 2) + np.sum(np.abs(self.Bhat) ** 2))

    def copy(self) -> "ModeState":
        return ModeState(self.k.copy(), self.fhat.copy(),
                         self.Ehat.copy(), self.Bhat.copy(), self.t)


@dataclass(frozen=True)
class StepperConfig:
    """Time stepping controls for integrate_mode."""

    dt: float = 0.01
    scheme: str = "imex-midpoint"
    lin_tol: float = 1e-10
    constraint_tol: float = 1e-6
    max_steps: int = 10_000_000

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        if self.scheme not in ("imex-midpoint", "imex-euler"):
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.lin_tol <= 0 or self.constraint_tol <= 0:
            raise ValueError("tolerances must be positive")

    def implicit_weight(self) -> float:
        """Weight a of the implicit solves (I - a M): dt/2 for imex-midpoint, dt for imex-euler."""
        return 0.5 * self.dt if self.scheme == "imex-midpoint" else self.dt


def _xi_dot(g, v) -> np.ndarray:
    """xi.v at every velocity node."""
    return g.xi[0] * v[0] + g.xi[1] * v[1] + g.xi[2] * v[2]


def _charge(g, f: np.ndarray) -> complex:
    """Charge <sqrt(mu), f_+ - f_-> of a (2, n^3) block."""
    return complex(np.sum(g.weights * g.sqrt_mu * (f[0] - f[1])))


def _current(g, f: np.ndarray) -> np.ndarray:
    """Current <xi sqrt(mu), f_+ - f_-> of a (2, n^3) block."""
    return (g.weights * g.sqrt_mu * g.xi * (f[0] - f[1])).sum(axis=1)


def _kinetic(f: np.ndarray, op: LinearizedOperator, k: np.ndarray) -> np.ndarray:
    """-(i xi.k + L) f on a (2, n^3) block."""
    return -1j * _xi_dot(op.grid, k) * f - op.apply_raw(f)


def _generator(u: np.ndarray, op: LinearizedOperator, k: np.ndarray,
               couple_kinetic: bool = True) -> np.ndarray:
    """M u for the flattened state u = (f+, f-, E, B).

    ``couple_kinetic=False`` drops the E.xi sqrt(mu) q1 and current terms.
    """
    g = op.grid
    n3 = g.size
    f = u[:2 * n3].reshape(2, n3)
    E = u[2 * n3:2 * n3 + 3]
    B = u[2 * n3 + 3:]
    out = np.empty_like(u)
    out[:2 * n3] = _kinetic(f, op, k).ravel()
    out[2 * n3:2 * n3 + 3] = 1j * np.cross(k, B)
    out[2 * n3 + 3:] = -1j * np.cross(k, E)
    if couple_kinetic:
        Exi = _xi_dot(g, E)
        out[:n3] += Exi * g.sqrt_mu
        out[n3:2 * n3] -= Exi * g.sqrt_mu
        out[2 * n3:2 * n3 + 3] -= _current(g, f)
    return out


def _flatten(state: ModeState) -> np.ndarray:
    return np.concatenate([state.fhat.values.reshape(-1), state.Ehat, state.Bhat])


def _unflatten(u: np.ndarray, template: ModeState, t: float) -> ModeState:
    n3 = template.fhat.grid.size
    f = TwoSpeciesField(u[:2 * n3].reshape(2, n3).copy(), template.fhat.grid)
    return ModeState(template.k.copy(), f, u[2 * n3:2 * n3 + 3].copy(),
                     u[2 * n3 + 3:].copy(), t)


def mode_rhs(state: ModeState, op: LinearizedOperator):
    """Time derivative (dfhat, dEhat, dBhat) of the mode equations."""
    op.grid.check_same(state.fhat.grid)
    d = _unflatten(_generator(_flatten(state), op, state.k), state, state.t)
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
    constraint_flag: bool = False
    solver_iterations: float = 0.0


class _ModeSolver:
    """The implicit solve (I - a M) u = rhs of one mode and scheme.

    imex-midpoint solves the full state u = (f+, f-, E, B) with the generator
    M; imex-euler solves the kinetic block f alone with M's kinetic part.
    """

    def __init__(self, op: LinearizedOperator, k: np.ndarray, cfg: StepperConfig,
                 couple_kinetic: bool = True):
        self.op = op
        self.k = np.asarray(k, dtype=float)
        self.a = cfg.implicit_weight()
        self.cfg = cfg
        self.couple_kinetic = couple_kinetic
        self.kinetic_only = cfg.scheme == "imex-euler"
        self.n3 = op.grid.size
        Msp = (sp.identity(self.n3, format="csr")
               + self.a * (op.A_sparse + 1j * sp.diags_array(_xi_dot(op.grid, self.k)))).tocsc()
        self.ilu = spla.spilu(Msp, drop_tol=1e-3, fill_factor=12)

    def shifted(self, u: np.ndarray) -> np.ndarray:
        """(I - a M) u, with M's kinetic part alone on a kinetic-only solver."""
        if self.kinetic_only:
            return u - self.a * _kinetic(u.reshape(2, self.n3), self.op, self.k).ravel()
        return u - self.a * _generator(u, self.op, self.k, self.couple_kinetic)

    def precondition(self, u: np.ndarray) -> np.ndarray:
        """ILU on each species block of u; field entries pass through."""
        n3 = self.n3
        return np.concatenate([self.ilu.solve(u[:n3]), self.ilu.solve(u[n3:2 * n3]),
                               u[2 * n3:]])

    def solve(self, rhs: np.ndarray, guess: np.ndarray):
        """GMRES from ``guess``; returns the solution and the iteration count."""
        n = rhs.size
        A = spla.LinearOperator((n, n), matvec=self.shifted, dtype=complex)
        P = spla.LinearOperator((n, n), matvec=self.precondition, dtype=complex)
        iters = [0]

        def cb(_):
            iters[0] += 1

        sol, info = spla.gmres(A, rhs, x0=guess, M=P, rtol=self.cfg.lin_tol, atol=0.0,
                               restart=50, maxiter=200, callback=cb,
                               callback_type="pr_norm")
        if info != 0:
            what = "kinetic solve" if self.kinetic_only else "implicit solve"
            rel = np.linalg.norm(rhs - self.shifted(sol)) / (np.linalg.norm(rhs) or 1.0)
            raise RuntimeError(f"{what} failed to converge (info={info}): relative residual "
                               f"{rel:.3e} against rtol {self.cfg.lin_tol:.1e} after {iters[0]} "
                               "iterations")
        return sol, iters[0]


def integrate_mode(state0: ModeState, cfg: StepperConfig, T: float,
                   op: LinearizedOperator, *, sample_interval: float = 1.0,
                   checkpoint=None, checkpoint_interval: Optional[float] = None,
                   couple_kinetic: bool = True) -> ModeHistory:
    """Evolve a mode to time T at uniform dt; returns per-step scalars and frames.

    T must be a whole number of steps dt (to 1e-9 relative), else ValueError.
    Initial data must satisfy the Gauss constraints to within
    cfg.constraint_tol; k = 0 additionally requires charge-neutral data.
    Constraint drift beyond tolerance during the run sets a flag on the
    history without aborting.  If ``checkpoint`` (a CheckpointWriter) is
    given, full states are appended every ``checkpoint_interval`` time units
    and at the end.  ``couple_kinetic=False`` drops the field-kinetic coupling
    terms (E.xi sqrt(mu) q1 and the current), leaving the decoupled Maxwell
    rotation plus collisional transport; that subsystem has closed-form
    oscillatory solutions used by conservation tests.
    """
    op.grid.check_same(state0.fhat.grid)
    g = op.grid
    k = state0.k
    res_e, res_b = state0.gauss_residuals()
    if res_e > cfg.constraint_tol or res_b > cfg.constraint_tol:
        raise ValueError(f"initial Gauss residuals ({res_e:.2e}, {res_b:.2e}) "
                         f"exceed constraint tolerance {cfg.constraint_tol:.2e}")
    if np.all(k == 0.0) and abs(state0.charge_moment()) > cfg.constraint_tol:
        raise ValueError("k = 0 modes require charge-neutral initial data")

    nsteps = int(round(T / cfg.dt))
    if abs(nsteps * cfg.dt - T) > 1e-9 * max(T, cfg.dt):
        raise ValueError(f"T = {T!r} is not a whole number of steps of dt = {cfg.dt!r}")
    if nsteps > cfg.max_steps:
        raise ValueError(f"run of {nsteps} steps exceeds max_steps={cfg.max_steps}")
    midpoint = cfg.scheme == "imex-midpoint"
    solver = _ModeSolver(op, k, cfg, couple_kinetic=couple_kinetic)

    n3 = g.size
    u = _flatten(state0)
    times = np.empty(nsteps + 1)
    energy = np.empty(nsteps + 1)
    diss = np.empty(nsteps + 1)
    gauss_e = np.empty(nsteps + 1)
    gauss_b = np.empty(nsteps + 1)

    def scalars(idx, uvec, t):
        f = uvec[:2 * n3].reshape(2, n3)
        Lf = op.apply_raw(f)
        dval = float(np.sum(g.weights * (Lf * np.conj(f)).sum(axis=0)).real)
        en = float(np.sum(g.weights * (np.abs(f) ** 2).sum(axis=0))
                   + np.sum(np.abs(uvec[2 * n3:]) ** 2))
        charge = _charge(g, f)
        E = uvec[2 * n3:2 * n3 + 3]
        B = uvec[2 * n3 + 3:]
        times[idx] = t
        energy[idx] = en
        diss[idx] = dval
        gauss_e[idx] = abs(1j * (k @ E) - charge)
        gauss_b[idx] = abs(1j * (k @ B))

    scalars(0, u, state0.t)
    frames = [state0.copy()]
    total_iters = 0
    next_sample = state0.t + sample_interval
    next_ckpt = state0.t + checkpoint_interval if (checkpoint and checkpoint_interval) else None
    if checkpoint is not None:
        checkpoint.append(state0)
    flagged = False
    for step in range(1, nsteps + 1):
        t_new = state0.t + step * cfg.dt
        if midpoint:
            ustar, it = solver.solve(u, guess=u)
            u = 2.0 * ustar - u
        else:
            # implicit Euler in L + transport; E-coupling frozen at t_n; Maxwell
            # update uses j(f^{n+1}) so the charge moment telescopes exactly
            E_old = u[2 * n3:2 * n3 + 3]
            B_old = u[2 * n3 + 3:].copy()
            rhs = u[:2 * n3].copy()
            if couple_kinetic:
                Exi = _xi_dot(g, E_old)
                rhs[:n3] += cfg.dt * Exi * g.sqrt_mu
                rhs[n3:2 * n3] -= cfg.dt * Exi * g.sqrt_mu
            # solve the kinetic block only: (I + dt (L + i xi.k)) f = rhs
            fnew, it = solver.solve(rhs, u[:2 * n3])
            j = _current(g, fnew.reshape(2, n3)) if couple_kinetic else 0.0
            E_new = E_old + cfg.dt * (1j * np.cross(k, B_old) - j)
            B_new = B_old + cfg.dt * (-1j * np.cross(k, E_old))
            u = np.concatenate([fnew, E_new, B_new])
        total_iters += it
        scalars(step, u, t_new)
        if gauss_e[step] > cfg.constraint_tol or gauss_b[step] > cfg.constraint_tol:
            flagged = True
        at_end = step == nsteps
        if at_end or t_new >= next_sample - 1e-9 * cfg.dt:
            frames.append(_unflatten(u, state0, t_new))
            while next_sample <= t_new + 1e-9 * cfg.dt:
                next_sample += sample_interval
        if checkpoint is not None and (at_end or (next_ckpt is not None and
                                                  t_new >= next_ckpt - 1e-9 * cfg.dt)):
            checkpoint.append(_unflatten(u, state0, t_new))
            if next_ckpt is not None:
                while next_ckpt <= t_new + 1e-9 * cfg.dt:
                    next_ckpt += checkpoint_interval
    return ModeHistory(k=k.copy(), times=times, energy=energy, dissipation=diss,
                       gauss_E=gauss_e, gauss_B=gauss_b, frames=frames,
                       constraint_flag=flagged,
                       solver_iterations=total_iters / max(nsteps, 1))


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
    micro_D_weighted: np.ndarray
    f_weighted_l2sq: np.ndarray    # |w^ell fhat|^2, the weighted content of M-tilde
    macro_abc: np.ndarray
    a_diff: np.ndarray
    E_term: np.ndarray
    B_term: np.ndarray
    gauss_E: np.ndarray
    gauss_B: np.ndarray
    ell: float = 0.0

    @property
    def m_tilde(self) -> np.ndarray:
        """M-tilde_ell = |w^ell fhat|^2 + |[E, B]|^2."""
        return self.f_weighted_l2sq + self.em_sq


def mode_energy_report(history: ModeHistory, ell: float,
                       op: LinearizedOperator) -> ModeEnergyReport:
    """Evaluate the reported energy/dissipation components on the stored frames."""
    g = op.grid
    k = history.k
    ksq = float(k @ k)
    rho = rho_frequency(k)
    wl = report_weight(g, op.params.gamma) ** ell
    spec0 = WeightSpec(tau=0.0, lam=0.0)
    nts = len(history.frames)
    cols = {name: np.empty(nts) for name in
            ("f_l2sq", "em_sq", "micro_D", "micro_D_weighted", "f_weighted_l2sq",
             "macro_abc", "a_diff", "E_term", "B_term", "gauss_E", "gauss_B")}
    times = np.empty(nts)
    for idx, st in enumerate(history.frames):
        times[idx] = st.t
        f = st.fhat
        macro, pf, micro = project_P(f)
        cols["f_l2sq"][idx] = float(np.sum(g.weights * (np.abs(f.values) ** 2).sum(axis=0)))
        cols["em_sq"][idx] = float(np.sum(np.abs(st.Ehat) ** 2) + np.sum(np.abs(st.Bhat) ** 2))
        cols["micro_D"][idx] = dissipation_norm(micro, spec0, st.t, op.sigma)
        wmicro = TwoSpeciesField(micro.values * wl, g)
        cols["micro_D_weighted"][idx] = dissipation_norm(wmicro, spec0, st.t, op.sigma)
        cols["f_weighted_l2sq"][idx] = float(
            np.sum(g.weights * (np.abs(f.values * wl) ** 2).sum(axis=0)))
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


@dataclass
class EnvelopeFit:
    """Fit of M(t) against the algebraic envelope (1 + eps rho(k) t)^(-J)."""

    eps: float
    J: float
    residual: float
    conclusive: bool


def envelope_fit(report: ModeEnergyReport, min_decay: float = 10.0) -> EnvelopeFit:
    """Least-squares fit of log M against -J log(1 + eps rho(k) t).

    Requires the series to decay by at least ``min_decay``; otherwise returns
    an inconclusive fit with NaN parameters.
    """
    M = report.f_l2sq + report.em_sq
    t = report.times
    pos = M > 0
    if not np.all(pos) or M[0] <= 0:
        pos = M > M.max() * 1e-300
    M, t = M[pos], t[pos]
    if M.size < 4 or M[0] / max(M.min(), 1e-300) < min_decay:
        return EnvelopeFit(eps=float("nan"), J=float("nan"),
                           residual=float("nan"), conclusive=False)
    rho = report.rho
    y = np.log(M / M[0])

    def model(p):
        eps, J = np.exp(p)
        return -J * np.log1p(eps * rho * t) - y

    res = scipy.optimize.least_squares(model, x0=np.log([0.1, 2.0]), method="lm")
    eps, J = np.exp(res.x)
    rms = float(np.sqrt(np.mean(res.fun ** 2)))
    return EnvelopeFit(eps=float(eps), J=float(J), residual=rms, conclusive=True)
