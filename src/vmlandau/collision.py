"""Landau collision machinery: kernel, collision frequency, Q, Gamma, and L.

The nonlocal velocity integrals are lattice convolutions (see _conv).  The
linearized operator is assembled from its quadrature-weighted bilinear form

    <L f, g>_W = 2 sum_pm sum_ij <sigma^ij (G_j f_pm), (G_i g_pm)>
                 - sum_ij <phi^ij *_w  sqrt(mu) (G_j h_f), sqrt(mu) (G_i h_g)>,

with h = f_+ + f_- and G_i = sqrt(mu) D_i (1/sqrt(mu)) the Maxwellian-weighted
gradient.  Assembling the form (rather than composing Q applications) makes L
exactly symmetric and positive semidefinite in the weighted inner product, and
because G_i annihilates sqrt(mu), xi_i sqrt(mu) and |xi|^2 sqrt(mu) exactly
(one-sided boundary stencils included) while the lattice kernel satisfies
phi^ij(d) d_j = 0 pointwise, the six-dimensional null space is annihilated to
roundoff rather than to truncation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ._conv import LatticeConvolver, sigma_iso_origin
from .grid import TwoSpeciesField, VelocityGrid

__all__ = [
    "CollisionParams",
    "SingularPointError",
    "ResourceBudgetError",
    "CollisionFrequencyField",
    "LinearizedOperator",
    "DEFAULT_DESK_BUDGET",
    "phi_kernel",
    "p_xi_projection",
    "sigma_field",
    "apply_Q",
    "gamma_bilinear",
    "assemble_L",
]

# 2 n^6 at the largest supported production resolution (n = 33)
DEFAULT_DESK_BUDGET = 2 * 33 ** 6


class SingularPointError(ValueError):
    """Kernel evaluated at its singular point xi = 0."""


class ResourceBudgetError(RuntimeError):
    """Operation would exceed the configured desk-scale budget."""


@dataclass(frozen=True)
class CollisionParams:
    """Soft-potential kernel parameters: exponent gamma and amplitude C_phi."""

    gamma: float = -3.0
    c_phi: float = 1.0

    def __post_init__(self):
        if not (-3.0 <= self.gamma < -2.0):
            raise ValueError(f"gamma must satisfy -3 <= gamma < -2, got {self.gamma}")
        if not self.c_phi > 0:
            raise ValueError(f"c_phi must be positive, got {self.c_phi}")


def _check_budget(n: int, budget) -> None:
    limit = DEFAULT_DESK_BUDGET if budget is None else budget
    if 2 * n ** 6 > limit:
        raise ResourceBudgetError(
            f"2*n^6 = {2 * n ** 6:.3g} exceeds the configured budget {limit:.3g}"
        )


def phi_kernel(xi, params: CollisionParams) -> np.ndarray:
    """Landau kernel phi^ij(xi) = C_phi |xi|^(gamma+2) (delta_ij - xi_i xi_j / |xi|^2).

    Symmetric, positive semidefinite, rank 2 with kernel span{xi}.  Raises at
    the singular point xi = 0, which callers must exclude.
    """
    v = np.asarray(xi, dtype=float)
    r2 = float(v @ v)
    if r2 == 0.0:
        raise SingularPointError("phi kernel is singular at xi = 0")
    proj = np.eye(3) - np.outer(v, v) / r2
    return params.c_phi * r2 ** ((params.gamma + 2.0) / 2.0) * proj


def p_xi_projection(xi, u) -> np.ndarray:
    """Project u onto span{xi}: (xi . u / |xi|^2) xi, zero at xi = 0 by convention."""
    v = np.asarray(xi, dtype=float)
    u = np.asarray(u)
    r2 = float(v @ v)
    if r2 == 0.0:
        return np.zeros(3, dtype=u.dtype)
    return (v @ u / r2) * v


@dataclass(frozen=True, eq=False)
class CollisionFrequencyField:
    """sigma^ij = phi^ij * mu tabulated at every node (packed symmetric 3x3)."""

    grid: VelocityGrid = field(repr=False)
    packed: np.ndarray = field(repr=False)   # (6, n^3): 11, 12, 13, 22, 23, 33
    params: CollisionParams = CollisionParams()

    _PACK = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (0, 2): 2, (2, 0): 2,
             (1, 1): 3, (1, 2): 4, (2, 1): 4, (2, 2): 5}

    def component(self, i: int, j: int) -> np.ndarray:
        """sigma^ij over all nodes, 0-based indices."""
        return self.packed[self._PACK[(i, j)]]

    def matrix_at(self, node: int) -> np.ndarray:
        p = self.packed[:, node]
        return np.array([[p[0], p[1], p[2]],
                         [p[1], p[3], p[4]],
                         [p[2], p[4], p[5]]])

    def trace(self) -> np.ndarray:
        return self.packed[0] + self.packed[3] + self.packed[5]


@lru_cache(maxsize=8)
def _convolver(grid: VelocityGrid, params: CollisionParams) -> LatticeConvolver:
    return LatticeConvolver(grid, params.gamma, params.c_phi)


def sigma_field(grid: VelocityGrid, params: CollisionParams) -> CollisionFrequencyField:
    """Collision frequency sigma^ij(xi) by weighted lattice convolution with mu."""
    conv = _convolver(grid, params)
    n = grid.n
    wmu = (grid.weights * grid.mu).reshape(n, n, n)
    packed = np.empty((6, grid.size))
    done = set()
    for j in range(3):
        v = np.zeros((3, n, n, n), dtype=complex)
        v[j] = wmu
        res = conv.apply_vector(v)
        for i in range(3):
            m = CollisionFrequencyField._PACK[(i, j)]
            if m not in done:
                packed[m] = res[i].real.reshape(-1)
                done.add(m)
    packed.setflags(write=False)
    return CollisionFrequencyField(grid=grid, packed=packed, params=params)


def _divergence(grid: VelocityGrid, u3) -> np.ndarray:
    """Summation-by-parts divergence: Div u = -W^{-1} sum_i D_i^T (W u_i).

    Adjoint to the plain gradient under the quadrature inner product, so the
    discrete integral of any divergence telescopes exactly: since D_i
    annihilates constants, sum_l w_l (Div u)_l = 0 identically, and weighted
    moments against 1, xi, |xi|^2 reduce exactly to interior sums.
    """
    D = grid.gradient_matrices
    w = grid.weights
    acc = D[0].T @ (w * u3[0])
    acc += D[1].T @ (w * u3[1])
    acc += D[2].T @ (w * u3[2])
    return -acc / w


def apply_Q(grid: VelocityGrid, params: CollisionParams, F, G, *, budget=None) -> np.ndarray:
    """Bilinear Landau operator Q(F, G) on single-species fields.

    Evaluates the divergence form

        Q(F,G) = Div_i [ (phi^ij * w G) d_j F  -  F (phi^ij * w d_j G) ]

    with centered-difference gradients and the summation-by-parts divergence,
    so the discrete mass moment of Q vanishes identically and the momentum and
    energy moments of the symmetrized pair Q(F,G) + Q(G,F) cancel exactly
    through the lattice identity phi^ij(d) d_j = 0.  Desk scale only.
    """
    _check_budget(grid.n, budget)
    conv = _convolver(grid, params)
    n = grid.n
    D = grid.gradient_matrices
    F = np.asarray(F, dtype=complex).reshape(-1)
    G = np.asarray(G, dtype=complex).reshape(-1)
    w = grid.weights
    dF = [D[j] @ F for j in range(3)]
    wdG = np.stack([w * (D[j] @ G) for j in range(3)]).reshape(3, n, n, n)
    conv_dG = conv.apply_vector(wdG)
    convG = conv.apply_all_components((w * G).reshape(n, n, n))
    pack = CollisionFrequencyField._PACK
    u = np.empty((3, grid.size), dtype=complex)
    for i in range(3):
        acc = -F * conv_dG[i].reshape(-1)
        for j in range(3):
            acc += convG[pack[(i, j)]].reshape(-1) * dF[j]
        u[i] = acc
    return _divergence(grid, u)


def gamma_bilinear(f: TwoSpeciesField, g: TwoSpeciesField,
                   params: CollisionParams, *, budget=None) -> TwoSpeciesField:
    """Nonlinear collision operator Gamma_pm(f, g) = mu^{-1/2} Q(sqrt(mu) f_pm, sqrt(mu)(g_+ + g_-))."""
    f.grid.check_same(g.grid)
    grid = f.grid
    smu = grid.sqrt_mu
    gsum = smu * (g.values[0] + g.values[1])
    out = np.stack([
        apply_Q(grid, params, smu * f.values[0], gsum, budget=budget) / smu,
        apply_Q(grid, params, smu * f.values[1], gsum, budget=budget) / smu,
    ])
    return TwoSpeciesField(out, grid)


class LinearizedOperator:
    """Discrete linearized collision operator L acting on two-species fields.

    L f_pm = 2 A f_pm + K (f_+ + f_-), with A the local (sparse) sigma-form
    part and K the nonlocal compact part applied by FFT convolution.  Exactly
    symmetric and positive semidefinite in the quadrature inner product;
    annihilates the discrete null-space basis to roundoff.
    """

    def __init__(self, grid: VelocityGrid, params: CollisionParams,
                 sigma: CollisionFrequencyField):
        self.grid = grid
        self.params = params
        self.sigma = sigma
        self._conv = _convolver(grid, params)
        n = grid.n
        w = grid.weights
        smu = grid.sqrt_mu
        D = grid.gradient_matrices
        S = sp.diags_array(smu)
        Sinv = sp.diags_array(1.0 / smu)
        self.G = tuple(sp.csr_array(S @ D[i] @ Sinv) for i in range(3))
        BA = None
        for i in range(3):
            for j in range(3):
                M = self.G[j].T @ sp.diags_array(w * sigma.component(i, j)) @ self.G[i]
                BA = M if BA is None else BA + M
        self._winv = 1.0 / w
        # 2 W^{-1} B_A: the sparse part of L per species
        self.A_sparse = sp.csr_array(sp.diags_array(self._winv) @ (2.0 * sp.csr_array(BA)))
        self._Gw = tuple(sp.csr_array(sp.diags_array(w * smu) @ Gi) for Gi in self.G)
        self._GwT = tuple(sp.csr_array(Gi.T) for Gi in self._Gw)
        self._kbuf = np.empty((3, n, n, n), dtype=complex)
        self._k_eigenpairs = None

    @property
    def size(self) -> int:
        return self.grid.size

    def k_part(self, h: np.ndarray) -> np.ndarray:
        """Nonlocal part: W^{-1} K_B h for the species sum h = f_+ + f_-."""
        n = self.grid.n
        buf = self._kbuf
        for j in range(3):
            buf[j] = (self._Gw[j] @ h).reshape(n, n, n)
        y = self._conv.apply_vector(buf)
        acc = self._GwT[0] @ y[0].reshape(-1)
        acc += self._GwT[1] @ y[1].reshape(-1)
        acc += self._GwT[2] @ y[2].reshape(-1)
        return -self._winv * acc

    def apply_raw(self, values: np.ndarray) -> np.ndarray:
        """L applied to raw species values of shape (2, n^3)."""
        kb = self.k_part(values[0] + values[1])
        return np.stack([self.A_sparse @ values[0] + kb,
                         self.A_sparse @ values[1] + kb])

    def apply(self, f: TwoSpeciesField) -> TwoSpeciesField:
        self.grid.check_same(f.grid)
        return TwoSpeciesField(self.apply_raw(f.values), self.grid)

    def __call__(self, f: TwoSpeciesField) -> TwoSpeciesField:
        return self.apply(f)

    def nullspace_basis(self):
        """The six discrete null vectors: [1,0], [0,1] mass, shared momentum, energy."""
        g = self.grid
        smu = g.sqrt_mu
        zero = np.zeros_like(smu)
        basis = [
            TwoSpeciesField.from_species(g, smu, zero),
            TwoSpeciesField.from_species(g, zero, smu),
        ]
        for i in range(3):
            v = g.xi[i] * smu
            basis.append(TwoSpeciesField.from_species(g, v, v))
        v = np.sum(g.xi ** 2, axis=0) * smu
        basis.append(TwoSpeciesField.from_species(g, v, v))
        return basis

    def deflation_basis(self, rank: int = 48, iters: int = 3, seed: int = 1234):
        """Dominant eigenpairs of the symmetrized nonlocal part.

        Deterministic seeded subspace iteration with Rayleigh-Ritz extraction;
        cached per operator.  Returns (lam, V_left, V_right) with
        K ~ V_left diag(lam) V_right^T in plain coordinates.  No solver calls
        it; it stays because ``perfbench/tracing.py::install`` wraps it by name.
        """
        if self._k_eigenpairs is not None and self._k_eigenpairs[0].size >= rank:
            lam, Vl, Vr = self._k_eigenpairs
            return lam[:rank], Vl[:, :rank], Vr[:, :rank]
        sw = np.sqrt(self.grid.weights)
        rng = np.random.default_rng(seed)
        V = rng.standard_normal((self.grid.size, rank))
        V, _ = np.linalg.qr(V)
        for _ in range(iters):
            Y = np.empty_like(V)
            for c in range(rank):
                Y[:, c] = (sw * self.k_part((V[:, c] / sw).astype(complex))).real
            V, _ = np.linalg.qr(Y)
        KV = np.empty_like(V)
        for c in range(rank):
            KV[:, c] = (sw * self.k_part((V[:, c] / sw).astype(complex))).real
        H = V.T @ KV
        H = 0.5 * (H + H.T)
        lam, U = np.linalg.eigh(H)
        order = np.argsort(-np.abs(lam))
        lam = lam[order]
        W = V @ U[:, order]
        Vl = W / sw[:, None]
        Vr = W * sw[:, None]
        self._k_eigenpairs = (lam, Vl, Vr)
        return lam, Vl, Vr


def assemble_L(grid: VelocityGrid, params: CollisionParams, *, budget=None) -> LinearizedOperator:
    """Assemble the linearized operator once per (grid, params)."""
    _check_budget(grid.n, budget)
    sigma = sigma_field(grid, params)
    return LinearizedOperator(grid, params, sigma)


def exact_sigma_origin(params: CollisionParams) -> float:
    """Continuum isotropic sigma^ii(0); diagnostic anchor for sigma_field."""
    return sigma_iso_origin(params.gamma, params.c_phi)
