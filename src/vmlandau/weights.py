"""Time-velocity weights, the dissipation norm, and the energy functional E_{N,ell,lambda} and X(t).

The weight family is w_{tau,lambda}(t, xi) = <xi>^((gamma+2) tau) *
exp(lambda <xi>^2 / (1+t)^theta) with <xi>^2 = 1 + |xi|^2 and theta = THETA.
The dissipation norm is the sigma-weighted H^1-type velocity norm.  Ledgers
evaluate every component of the energy functional E_{N,ell,lambda} for one
Fourier mode (spatial derivatives realized as powers of ik), and X(t) is the
temporal energy norm assembled from them.
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

THETA = 0.25   # the time exponent theta of the exponential weight
MAX_BETA = 2   # velocity derivatives are finite differences up to |beta| <= 2

# The orders of X(t): E_{N1,0,0}, ..., E_{N0,ell0,lam0} with N1 = 3 N0 / 2 and
# ell1 = ell0 / 2 (illustrative, not asserted sharp)
X_N0 = 2
X_ELL0 = 8.0
X_LAM0 = 0.05
X_EPS0 = 0.1
X_N1 = math.ceil(1.5 * X_N0)
X_ELL1 = 0.5 * X_ELL0


@dataclass(frozen=True)
class WeightSpec:
    """Parameters (tau, lambda) of the time-velocity weight."""

    tau: float = 0.0
    lam: float = 0.0

    def __post_init__(self):
        if self.lam < 0.0:
            raise ValueError(f"lambda must be nonnegative, got {self.lam}")


def weight_eval(spec: WeightSpec, t: float, xi, params: CollisionParams):
    """Evaluate w_{tau,lambda}(t, xi); xi is a 3-vector or (3, m) array."""
    if t < 0:
        raise ValueError("time must be nonnegative")
    xi = np.asarray(xi, dtype=float)
    br2 = 1.0 + np.sum(xi * xi, axis=0)
    out = br2 ** (0.5 * (params.gamma + 2.0) * spec.tau)
    if spec.lam > 0.0:
        out = out * np.exp(spec.lam * br2 / (1.0 + t) ** THETA)
    return out


def dissipation_norm(f: TwoSpeciesField, sigma: CollisionFrequencyField) -> float:
    """|f|^2_D: sigma-weighted gradient plus sigma xi xi / 4 zeroth term."""
    f.grid.check_same(sigma.grid)
    g = f.grid
    grads = [velocity_gradient(f, i + 1).values for i in range(3)]
    total = 0.0
    fsq = (f.values * np.conj(f.values)).real.sum(axis=0)
    for i in range(3):
        for j in range(3):
            sij = sigma.component(i, j)
            gg = (grads[i] * np.conj(grads[j])).real.sum(axis=0)
            total += float(np.sum(g.weights * sij * gg))
            total += float(np.sum(g.weights * sij * 0.25 * g.xi[i] * g.xi[j] * fsq))
    return total


@dataclass(frozen=True)
class EnergyRequest:
    """Derivative/weighting budget for a ledger: total order N, weight power ell, lambda."""

    N: int = 2
    ell: float = 8.0
    lam: float = 0.0

    def __post_init__(self):
        if self.N < 0:
            raise ValueError("N must be nonnegative")
        if self.ell < 0:
            raise ValueError("ell must be nonnegative")
        if self.lam > 0.0 and self.ell - self.N < 0:
            raise ValueError("lambda > 0 requires ell - N >= 0")


def _multi_indices(order: int):
    for a1 in range(order + 1):
        for a2 in range(order + 1 - a1):
            a3 = order - a1 - a2
            yield (a1, a2, a3)


def _k_power_sq(k: np.ndarray, alpha) -> float:
    return float(np.prod([abs(k[i]) ** (2 * alpha[i]) for i in range(3)]))


@dataclass
class EnergyLedger:
    """Every component of the energy functional at one time.

    All entries are real and nonnegative.  ``energy_terms`` maps (alpha, beta)
    to the weighted squared norms of derivatives of f; ``em_sobolev`` is the
    field's sum over the spatial orders.
    """

    t: float
    energy_terms: dict = field(default_factory=dict)
    em_sobolev: float = 0.0

    @property
    def energy(self) -> float:
        return sum(self.energy_terms.values()) + self.em_sobolev


def _beta_derivative(f: TwoSpeciesField, beta) -> TwoSpeciesField:
    out = f
    for axis, count in enumerate(beta):
        for _ in range(count):
            out = velocity_gradient(out, axis + 1)
    return out


def _ledger(state, req: EnergyRequest, t: float, params: CollisionParams,
            derivs: Optional[dict] = None) -> EnergyLedger:
    """The (N, ell, lambda) ledger of one mode state.

    ``derivs`` maps beta to the beta-derivative of state.fhat; calls on one
    state may share it, and missing entries are added.
    """
    f = state.fhat
    k = np.asarray(state.k, dtype=float)
    ledger = EnergyLedger(t=t)
    derivs = {} if derivs is None else derivs
    em_sq = float(np.sum(np.abs(state.Ehat) ** 2 + np.abs(state.Bhat) ** 2))
    sums = {}   # beta -> weighted |d^beta f|^2, which every alpha scales by its k-factor
    for btot in range(min(req.N, MAX_BETA) + 1):
        w = weight_eval(WeightSpec(tau=btot - req.ell, lam=req.lam), t, f.grid.xi, params)
        w2 = w * w
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
            for btot in range(min(req.N - atot, MAX_BETA) + 1):
                for beta in _multi_indices(btot):
                    ledger.energy_terms[(alpha, beta)] = kfac * sums[beta]
    return ledger


def energy_ledger(state, req: EnergyRequest, t: float,
                  op: LinearizedOperator) -> EnergyLedger:
    """Evaluate the (N, ell, lambda) energy ledger for one mode state.

    Spatial derivatives of order alpha become |k^alpha|^2 factors; velocity
    derivatives are finite differences up to |beta| <= MAX_BETA (stencil
    accuracy budget).  ``t`` must be the state's own time (ValueError if not).
    """
    if t != state.t:
        raise ValueError(f"t = {t!r} is not the state's time {state.t!r}")
    return _ledger(state, req, t, op.params)


def temporal_norm_x(states, times, op):
    """Composite sup-in-time energy norm assembled from ledgers at the X_* orders.

    Reported as a diagnostic series X(t); velocity derivatives beyond the
    |beta| <= MAX_BETA stencil budget are omitted from the sums.  ``times``
    must be the states' own times, one per state (ValueError if not).
    """
    times = np.asarray(times, dtype=float)
    if len(times) != len(states) or any(t != s.t for s, t in zip(states, times)):
        raise ValueError(f"times {times.tolist()} are not the states' times "
                         f"{[s.t for s in states]}")

    def E(state, t, N, ell, lam):
        return _ledger(state, EnergyRequest(N=N, ell=ell, lam=lam), t, op.params, derivs).energy

    parts = []
    for state, t in zip(states, times):
        derivs: dict = {}   # one beta-derivative table per state, shared by its seven ledgers
        s = 1.0 + t
        val = (E(state, t, X_N1, 0.0, 0.0)
               + s ** 1.5 * E(state, t, X_N1 - 2, 0.0, 0.0)
               + s ** (-(1.0 + X_EPS0) / 2.0) * E(state, t, X_N1, X_ELL1, X_LAM0)
               + E(state, t, X_N1 - 1, X_ELL1, X_LAM0)
               + s ** 1.5 * E(state, t, X_N1 - 3, X_ELL1 - 1.0, X_LAM0)
               + E(state, t, X_N0, X_ELL0, X_LAM0)
               + s ** 1.5 * E(state, t, X_N0, X_ELL0 - 1.0, X_LAM0))
        k = np.asarray(state.k, dtype=float)
        ksq = float(k @ k)
        em_grad = 0.0
        for atot in range(X_N0):
            for alpha in _multi_indices(atot):
                em_grad += _k_power_sq(k, alpha) * ksq * float(
                    np.sum(np.abs(state.Ehat) ** 2 + np.abs(state.Bhat) ** 2))
        val += s ** (2.0 * (1.0 + THETA)) * em_grad
        parts.append(val)
    return np.maximum.accumulate(np.array(parts))
