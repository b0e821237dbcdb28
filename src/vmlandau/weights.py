"""Time-velocity weights, dissipation norms, and the energy/dissipation ledgers.

The weight family is w_{tau,lambda}(t, xi) = <xi>^((gamma+2) tau) *
exp(lambda <xi>^2 / (1+t)^theta) with <xi>^2 = 1 + |xi|^2.  The dissipation
norm is the sigma-weighted H^1-type velocity norm.  Ledgers evaluate every
component of the energy functional and dissipation rate for one Fourier mode
(spatial derivatives realized as powers of ik).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .collision import CollisionFrequencyField, CollisionParams, LinearizedOperator
from .grid import TwoSpeciesField, velocity_gradient

__all__ = [
    "WeightSpec",
    "EnergyRequest",
    "EnergyLedger",
    "weight_eval",
    "dissipation_norm",
    "energy_ledger",
    "temporal_norm_x",
]


@dataclass(frozen=True)
class WeightSpec:
    """Parameters (tau, lambda, theta) of the time-velocity weight."""

    tau: float = 0.0
    lam: float = 0.0
    theta: float = 0.25

    def __post_init__(self):
        if not (0.0 < self.theta <= 0.25):
            raise ValueError(f"theta must lie in (0, 1/4], got {self.theta}")
        if self.lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


def _bracket_sq(xi) -> np.ndarray:
    """<xi>^2 = 1 + |xi|^2; xi is a 3-vector or (3, m) array."""
    xi = np.asarray(xi, dtype=float)
    return 1.0 + np.sum(xi * xi, axis=0)


def weight_eval(spec: WeightSpec, t: float, xi, params: CollisionParams):
    """Evaluate w_{tau,lambda}(t, xi); xi is a 3-vector or (3, m) array."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    br2 = _bracket_sq(xi)
    out = br2 ** (0.5 * (params.gamma + 2.0) * spec.tau)
    if spec.lam > 0.0:
        out = out * np.exp(spec.lam * br2 / (1.0 + t) ** spec.theta)
    return out


def _weight_sq(spec: WeightSpec, t: float, grid, params) -> np.ndarray:
    w = weight_eval(spec, t, grid.xi, params)
    return w * w


def dissipation_norm(f: TwoSpeciesField, spec: WeightSpec, t: float,
                     sigma: CollisionFrequencyField) -> float:
    """|f|^2_{D,tau,lambda}: sigma-weighted gradient plus sigma xi xi / 4 zeroth term."""
    f.grid.check_same(sigma.grid)
    g = f.grid
    w2 = _weight_sq(spec, t, g, sigma.params)
    quad = g.weights * w2
    xi = g.xi
    grads = [velocity_gradient(f, i + 1).values for i in range(3)]
    total = 0.0
    fsq = (f.values * np.conj(f.values)).real.sum(axis=0)
    for i in range(3):
        for j in range(3):
            sij = sigma.component(i, j)
            gg = (grads[i] * np.conj(grads[j])).real.sum(axis=0)
            total += float(np.sum(quad * sij * gg))
            total += float(np.sum(quad * sij * 0.25 * xi[i] * xi[j] * fsq))
    return total


@dataclass(frozen=True)
class EnergyRequest:
    """Derivative/weighting budget for a ledger: total order N, weight power ell, lambda."""

    N: int = 2
    ell: float = 8.0
    lam: float = 0.0
    theta: float = 0.25
    max_beta: int = 2

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")
        if self.lam > 0.0 and self.ell - self.N < 0:
            raise ValueError("lambda > 0 requires ell - N >= 0")
        if self.max_beta > 2:
            raise ValueError("velocity derivative order is capped at |beta| <= 2")


def _multi_indices(order: int):
    for a1 in range(order + 1):
        for a2 in range(order + 1 - a1):
            a3 = order - a1 - a2
            yield (a1, a2, a3)


def _k_power_sq(k: np.ndarray, alpha) -> float:
    return float(np.prod([abs(k[i]) ** (2 * alpha[i]) for i in range(3)]))


@dataclass
class EnergyLedger:
    """Every component of the energy functional and dissipation rate at one time.

    All entries are real and nonnegative.  ``energy_terms`` maps (alpha, beta)
    to the weighted squared norms of derivatives of f; dissipation terms are
    split by origin.  ``extra_decay`` is the lambda-weighted term with prefactor
    lambda / (1+t)^(1+theta); it is identically absent for lambda = 0.
    """

    t: float
    energy_terms: dict = field(default_factory=dict)
    em_sobolev: float = 0.0
    micro_dissipation: dict = field(default_factory=dict)
    macro_gradient: float = 0.0
    charge_imbalance: float = 0.0
    e_field: float = 0.0
    b_field_gradient: float = 0.0
    extra_decay: float = 0.0

    @property
    def energy(self) -> float:
        return sum(self.energy_terms.values()) + self.em_sobolev

    @property
    def dissipation(self) -> float:
        return (sum(self.micro_dissipation.values()) + self.macro_gradient
                + self.charge_imbalance + self.e_field + self.b_field_gradient
                + self.extra_decay)


def _beta_derivative(f: TwoSpeciesField, beta) -> TwoSpeciesField:
    out = f
    for axis, count in enumerate(beta):
        for _ in range(count):
            out = velocity_gradient(out, axis + 1)
    return out


def _energy_part(state, req: EnergyRequest, t: float, params: CollisionParams,
                 derivs: Optional[dict] = None) -> EnergyLedger:
    """A ledger holding only the energy terms and em_sobolev of one mode state.

    ``derivs`` maps beta to the beta-derivative of state.fhat; calls on one
    state may share it, and missing entries are added.
    """
    f = state.fhat
    k = np.asarray(state.k, dtype=float)
    ledger = EnergyLedger(t=t)
    derivs = {} if derivs is None else derivs
    em_sq = float(np.sum(np.abs(state.Ehat) ** 2 + np.abs(state.Bhat) ** 2))
    sums = {}   # beta -> weighted |d^beta f|^2, which every alpha scales by its k-factor
    for btot in range(min(req.N, req.max_beta) + 1):
        w2 = _weight_sq(WeightSpec(tau=btot - req.ell, lam=req.lam, theta=req.theta),
                        t, f.grid, params)
        for beta in _multi_indices(btot):
            if beta not in derivs:
                derivs[beta] = _beta_derivative(f, beta)
            df = derivs[beta]
            sums[beta] = float(np.sum(
                f.grid.weights * w2 * (df.values * np.conj(df.values)).real.sum(axis=0)))
    for atot in range(req.N + 1):
        for alpha in _multi_indices(atot):
            kfac = _k_power_sq(k, alpha)
            ledger.em_sobolev += kfac * em_sq
            for btot in range(min(req.N - atot, req.max_beta) + 1):
                for beta in _multi_indices(btot):
                    ledger.energy_terms[(alpha, beta)] = kfac * sums[beta]
    return ledger


def energy_ledger(state, req: EnergyRequest, t: float,
                  op: LinearizedOperator) -> EnergyLedger:
    """Evaluate the (N, ell, lambda) ledger for one mode state.

    Spatial derivatives of order alpha become |k^alpha|^2 factors; velocity
    derivatives are finite differences up to |beta| <= 2 (stencil accuracy
    budget).
    """
    from .macro import project_P

    f = state.fhat
    k = np.asarray(state.k, dtype=float)
    params = op.params
    ledger = _energy_part(state, req, t, params)
    macro_state, _, micro = project_P(f)

    # per beta, the micro part's dissipation norm and lambda-weighted extra term,
    # which every alpha scales by its k-factor
    micro_d, micro_x = {}, {}
    br2 = _bracket_sq(f.grid.xi)
    for beta in dict.fromkeys(beta for _, beta in ledger.energy_terms):
        spec = WeightSpec(tau=sum(beta) - req.ell, lam=req.lam, theta=req.theta)
        dmicro = _beta_derivative(micro, beta)
        micro_d[beta] = dissipation_norm(dmicro, spec, t, op.sigma)
        if req.lam > 0.0:
            w2 = _weight_sq(spec, t, f.grid, params)
            micro_x[beta] = float(np.sum(f.grid.weights * w2 * br2 *
                                         (dmicro.values * np.conj(dmicro.values)).real.sum(axis=0)))
    decay = req.lam / (1.0 + t) ** (1.0 + req.theta)
    for alpha, beta in ledger.energy_terms:
        kfac = _k_power_sq(k, alpha)
        ledger.micro_dissipation[(alpha, beta)] = kfac * micro_d[beta]
        if req.lam > 0.0:
            ledger.extra_decay += decay * (kfac * micro_x[beta])

    abc_sq = (abs(macro_state.a_plus) ** 2 + abs(macro_state.a_minus) ** 2
              + float(np.sum(np.abs(macro_state.b) ** 2)) + abs(macro_state.c) ** 2)
    ksq = float(k @ k)
    e_sq = float(np.sum(np.abs(state.Ehat) ** 2))
    b_sq = float(np.sum(np.abs(state.Bhat) ** 2))
    for atot in range(max(req.N, 1)):
        for alpha in _multi_indices(atot):
            kfac = _k_power_sq(k, alpha)
            ledger.macro_gradient += kfac * ksq * abc_sq
            ledger.e_field += kfac * e_sq
            if atot <= req.N - 2:
                ledger.b_field_gradient += kfac * ksq * b_sq
    ledger.charge_imbalance = abs(macro_state.a_plus - macro_state.a_minus) ** 2
    return ledger


@dataclass(frozen=True)
class XNormConfig:
    """Illustrative parameters for the composite temporal norm (not asserted sharp)."""

    N0: int = 2
    ell0: float = 8.0
    lam0: float = 0.05
    theta: float = 0.25
    eps0: float = 0.1

    @property
    def N1(self) -> int:
        return math.ceil(1.5 * self.N0)

    @property
    def ell1(self) -> float:
        return 0.5 * self.ell0


def temporal_norm_x(states, times, op, config: XNormConfig = XNormConfig()):
    """Composite sup-in-time energy norm assembled from ledgers at the configured orders.

    Reported as a diagnostic series X(t); velocity derivatives beyond the
    |beta| <= 2 stencil budget are omitted from the sums.
    """
    c = config
    times = np.asarray(times, dtype=float)

    def E(state, t, N, ell, lam):
        N = max(int(N), 0)
        req = EnergyRequest(N=N, ell=max(ell, N if lam > 0 else 0.0), lam=lam, theta=c.theta)
        return _energy_part(state, req, t, op.params, derivs).energy

    parts = []
    for state, t in zip(states, times):
        derivs: dict = {}   # one beta-derivative table per state, shared by its seven ledgers
        s = 1.0 + t
        val = (E(state, t, c.N1, 0.0, 0.0)
               + s ** 1.5 * E(state, t, c.N1 - 2, 0.0, 0.0)
               + s ** (-(1.0 + c.eps0) / 2.0) * E(state, t, c.N1, c.ell1, c.lam0)
               + E(state, t, c.N1 - 1, c.ell1, c.lam0)
               + s ** 1.5 * E(state, t, c.N1 - 3, c.ell1 - 1.0, c.lam0)
               + E(state, t, c.N0, c.ell0, c.lam0)
               + s ** 1.5 * E(state, t, c.N0, c.ell0 - 1.0, c.lam0))
        k = np.asarray(state.k, dtype=float)
        ksq = float(k @ k)
        em_grad = 0.0
        for atot in range(c.N0):
            for alpha in _multi_indices(atot):
                em_grad += _k_power_sq(k, alpha) * ksq * float(
                    np.sum(np.abs(state.Ehat) ** 2 + np.abs(state.Bhat) ** 2))
        val += s ** (2.0 * (1.0 + c.theta)) * em_grad
        parts.append(val)
    return np.maximum.accumulate(np.array(parts))
