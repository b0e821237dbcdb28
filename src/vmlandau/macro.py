"""Macro/micro decomposition and the moment balance-law residual checks.

The fluid (macro) part of a two-species field lives in the six-dimensional
span of [1,0] sqrt(mu), [0,1] sqrt(mu), [1,1] xi_i sqrt(mu) and
[1,1](|xi|^2 - 3) sqrt(mu), the null space of L.  The continuum basis is
orthogonal only in exact integrals, so the projection is built through the
Gram matrix of the sampled basis under the quadrature inner product; this
keeps idempotence and the coefficient round trip at roundoff level.

This module owns that basis and every velocity moment of the program: one
_Projector per grid builds them, and L's null space, the initial data, the
charge and the current read them from it.

Moment functionals here are linear in the field (no conjugation): for one
spatial Fourier mode they are the transforms of real-space moments and must
commute with d/dt.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import TwoSpeciesField, VelocityGrid, _dot

__all__ = [
    "MacroState",
    "MacroResidualReport",
    "project_P",
    "macro_residuals",
]


@dataclass
class MacroState:
    """Macro coefficients (a_+, a_-, b, c) of one spatial mode."""

    a_plus: complex
    a_minus: complex
    b: np.ndarray        # (3,) complex
    c: complex

    def as_vector(self) -> np.ndarray:
        return np.concatenate([[self.a_plus, self.a_minus], self.b, [self.c]])


class _Projector:
    """The macro ``basis`` (6, 2, n^3) of one grid, its quadrature ``gram`` matrix
    and the 17 weighted balance-law test functions ``rows`` (see _moment_rows)."""

    def __init__(self, grid: VelocityGrid):
        smu = grid.sqrt_mu
        zero = np.zeros_like(smu)
        xi = grid.xi
        r2 = np.sum(xi ** 2, axis=0)
        shared = [xi[i] * smu for i in range(3)] + [(r2 - 3.0) * smu]
        self.basis = np.array([np.stack([smu, zero]), np.stack([zero, smu])]
                              + [np.stack([v, v]) for v in shared])
        w = grid.weights
        self.gram = np.einsum("akl,bkl,l->ab", self.basis, self.basis, w)
        self.gram_inv = np.linalg.inv(self.gram)
        phis = [smu] + shared[:3] + [shared[3] / 6.0]
        phis += [(xi[i] * xi[j] - 1.0) * smu for i in range(3) for j in range(3)]
        phis += [0.1 * (r2 - 5.0) * xi[i] * smu for i in range(3)]
        self.rows = np.array(phis) * w
        self.grid = grid

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return self.gram_inv @ np.einsum("akl,kl,l->a", self.basis, values, self.grid.weights)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("a,akl->kl", coeffs, self.basis)


@lru_cache(maxsize=8)
def _projector(grid: VelocityGrid) -> _Projector:
    return _Projector(grid)


def project_P(f: TwoSpeciesField):
    """Split f into its macro part Pf and micro remainder {I - P} f.

    Returns (MacroState, Pf, micro) with f = Pf + micro exactly and
    <Pf, micro> at roundoff level.
    """
    proj = _projector(f.grid)
    coeffs = proj.coefficients(f.values)
    pf = proj.reconstruct(coeffs)
    micro = f.values - pf
    state = MacroState(a_plus=complex(coeffs[0]), a_minus=complex(coeffs[1]),
                       b=coeffs[2:5].copy(), c=complex(coeffs[5]))
    return state, TwoSpeciesField(pf, f.grid), TwoSpeciesField(micro, f.grid)


_FAMILIES = {
    "a": slice(0, 1),
    "b": slice(1, 4),
    "c": slice(4, 5),
    "theta": slice(5, 14),
    "lambda": slice(14, 17),
}


def _moment_rows(grid: VelocityGrid) -> np.ndarray:
    """Quadrature-weighted test functions of the five balance-law families.

    Rows, in the order of ``_FAMILIES``: sqrt(mu); xi_i sqrt(mu);
    (|xi|^2 - 3) sqrt(mu) / 6; (xi_i xi_j - 1) sqrt(mu) with (i, j) row-major;
    (|xi|^2 - 5) xi_i sqrt(mu) / 10.  ``values @ rows.T`` gives every moment
    of a (2, n^3) field at once.

    The Theta rows subtract 1 for every i, j, not only on the diagonal, so off
    the diagonal Theta_ij(P f_pm) = -a_pm in exact integrals.  Written in
    macro/micro variables, the off-diagonal Theta law therefore carries
    -d/dt a_pm, which the mass law turns into
    i k.b + i k.<xi sqrt(mu), {I-P} f_pm>; the second of these is the
    i k.<xi sqrt(mu), m_pm> term of that law.
    """
    return _projector(grid).rows


@dataclass
class MacroResidualReport:
    """Residual norms of the five balance-law families over a mode history.

    Each entry maps a law family ('a', 'b', 'c', 'theta', 'lambda') to a
    series of residual magnitudes at the interior frames; max_residual and
    l2_residual aggregate over laws and frames.
    """

    times: np.ndarray
    series: dict
    max_residual: float
    l2_residual: float

    def family_max(self, name: str) -> float:
        return float(np.max(self.series[name]))


def macro_residuals(frames, k, op) -> MacroResidualReport:
    """Residuals of the source-free moment balance laws over a uniform history.

    ``frames`` is a time-ordered sequence of ModeState at uniform spacing; time
    derivatives use centered differences on the interior frames, so the first
    and last frames enter only through the stencil.

    For each family's test function phi (sqrt(mu), xi_i sqrt(mu),
    (|xi|^2 - 3) sqrt(mu)/6, (xi_i xi_j - 1) sqrt(mu), (|xi|^2 - 5) xi_i sqrt(mu)/10)
    and species the residual is |d/dt <phi, f_pm> - <phi, df_pm/dt>| at
    wavevector k, with df_pm/dt = -i (xi.k) f_pm +- (E.xi) sqrt(mu) - (L f)_pm
    the mode equation.  L enters through its symmetry: W A and W K are
    symmetric, so <phi, (L f)_pm> = <A phi, f_pm> + <K phi, f_+ + f_->, and A
    and K are applied once per call to the 17 test functions (two real ones
    packed in each complex vector), not once per frame; each frame's
    moments are then products with these rows, the transport row (xi.k) phi
    and the field column <phi, xi sqrt(mu)>.

    Splitting f = Pf + {I-P}f regroups these into the macro/micro form of the
    laws for (a_pm, b, c, Theta, Lambda); here every constant of that form,
    such as Lambda(Pf), Lambda(E.xi sqrt(mu)) or the coefficient of i k_i c,
    is a moment under the grid quadrature rather than its continuum Gaussian
    value, so the residual measures time-discretisation error only.
    It vanishes to roundoff when the centered difference is exact and is second
    order in the spacing for imex-midpoint frames.  The off-diagonal Theta
    residual keeps d/dt a_pm rather than substituting the mass law, so it
    differs from that law's macro/micro form (see _moment_rows) by the 'a'
    residual.
    """
    if len(frames) < 3:
        raise ValueError("macro_residuals needs at least 3 uniformly spaced frames")
    times = np.array([s.t for s in frames])
    dts = np.diff(times)
    dt = dts[0]
    if not np.allclose(dts, dt, rtol=1e-8, atol=1e-12):
        raise ValueError("frames are not uniformly sampled")
    g = op.grid
    w = g.weights
    k = np.asarray(k, dtype=float)
    rows = _moment_rows(g)
    phis = rows / w
    # A phi and K phi for two real test functions per complex product: A and K are real
    packed = phis[0::2].astype(complex)
    packed[:-1] += 1j * phis[1::2]
    Aphi, Kphi = np.empty_like(phis), np.empty_like(phis)
    for out, P in ((Aphi, (op.A_sparse @ packed.T).T),
                   (Kphi, np.array([op.k_part(p) for p in packed]))):
        out[0::2], out[1::2] = P.real, P.imag[:-1]
    own = -(1j * (k @ g.xi) * rows + w * Aphi)                   # <phi, -i (xi.k) f - A f>
    shared = -w * Kphi                                           # <phi, -K (f_+ + f_-)>
    field = _dot(rows, (g.xi * g.sqrt_mu).T)                     # <phi, xi_i sqrt(mu)>
    moms = np.array([_dot(s.fhat.values, rows.T) for s in frames])
    rhs = np.array([_dot(s.fhat.values, own.T)
                    + _dot(s.fhat.values[0] + s.fhat.values[1], shared.T)
                    + np.outer([1.0, -1.0], _dot(field, s.Ehat)) for s in frames[1:-1]])
    res = np.abs((moms[2:] - moms[:-2]) / (2.0 * dt) - rhs)   # (frames-2, 2, moments)
    nt = len(frames) - 2
    series = {name: res[:, :, sl].reshape(nt, -1).max(axis=1)
              for name, sl in _FAMILIES.items()}
    return MacroResidualReport(
        times=times[1:-1],
        series=series,
        max_residual=float(res.max()),
        l2_residual=float(np.sqrt(np.mean(res ** 2))),
    )
