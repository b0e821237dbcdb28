"""Landau collision machinery: kernel, collision frequency, Q, and L.

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

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp

from ._conv import _PACK, LatticeConvolver
from .grid import TwoSpeciesField, VelocityGrid
from .macro import _projector

__all__ = [
    "CollisionParams",
    "ResourceBudgetError",
    "CollisionFrequencyField",
    "LinearizedOperator",
    "DEFAULT_DESK_BUDGET",
    "sigma_field",
    "apply_Q",
    "assemble_L",
]

# 2 n^6 at the largest supported production resolution (n = 33)
DEFAULT_DESK_BUDGET = 2 * 33 ** 6


class ResourceBudgetError(RuntimeError):
    """Operation would exceed the desk-scale budget."""


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


def _check_budget(n: int) -> None:
    if 2 * n ** 6 > DEFAULT_DESK_BUDGET:
        raise ResourceBudgetError(
            f"2*n^6 = {2 * n ** 6:.3g} exceeds the desk budget {DEFAULT_DESK_BUDGET:.3g}"
        )


@dataclass(frozen=True, eq=False)
class CollisionFrequencyField:
    """sigma^ij = phi^ij * mu tabulated at every node (packed symmetric 3x3)."""

    grid: VelocityGrid = field(repr=False)
    packed: np.ndarray = field(repr=False)   # (6, n^3): 11, 12, 13, 22, 23, 33
    params: CollisionParams = CollisionParams()

    def component(self, i: int, j: int) -> np.ndarray:
        """sigma^ij over all nodes, 0-based indices."""
        return self.packed[_PACK[i, j]]

    def matrix_at(self, node: int) -> np.ndarray:
        return self.packed[:, node][_PACK]


@lru_cache(maxsize=8)
def _convolver(grid: VelocityGrid, params: CollisionParams) -> LatticeConvolver:
    return LatticeConvolver(grid, params.gamma, params.c_phi)


def sigma_field(grid: VelocityGrid, params: CollisionParams) -> CollisionFrequencyField:
    """Collision frequency sigma^ij(xi) by weighted lattice convolution with mu."""
    conv = _convolver(grid, params)
    n = grid.n
    wmu = (grid.weights * grid.mu).reshape(n, n, n)
    packed = np.empty((6, grid.size))
    for j in range(3):
        v = np.zeros((3, n, n, n), dtype=complex)
        v[j] = wmu
        res = conv.apply_vector(v)
        for i in range(j, 3):
            packed[_PACK[i, j]] = res[i].real.reshape(-1)
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


def apply_Q(grid: VelocityGrid, params: CollisionParams, F, G) -> np.ndarray:
    """Bilinear Landau operator Q(F, G) on single-species fields.

    Evaluates the divergence form

        Q(F,G) = Div_i [ (phi^ij * w G) d_j F  -  F (phi^ij * w d_j G) ]

    with centered-difference gradients and the summation-by-parts divergence,
    so the discrete mass moment of Q vanishes identically and the momentum and
    energy moments of the symmetrized pair Q(F,G) + Q(G,F) cancel exactly
    through the lattice identity phi^ij(d) d_j = 0.  Desk scale only.
    """
    _check_budget(grid.n)
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
    u = np.empty((3, grid.size), dtype=complex)
    for i in range(3):
        acc = -F * conv_dG[i].reshape(-1)
        for j in range(3):
            acc += convG[_PACK[i, j]].reshape(-1) * dF[j]
        u[i] = acc
    return _divergence(grid, u)


def _complex_csr(M: sp.csr_array) -> sp.csr_array:
    """M with complex data in M's own index order, so its products are M's bit for bit
    (``astype`` would sort the indices)."""
    return sp.csr_array((M.data.astype(complex), M.indices, M.indptr), shape=M.shape)


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
        G = tuple(sp.csr_array(S @ D[i] @ Sinv) for i in range(3))
        BA = None
        for i in range(3):
            for j in range(3):
                M = G[j].T @ sp.diags_array(w * sigma.component(i, j)) @ G[i]
                BA = M if BA is None else BA + M
        self._winv = 1.0 / w
        # 2 W^{-1} B_A: the sparse part of L per species, stored complex, since
        # scipy would cast real data to complex on every product with a complex vector
        self.A_sparse = _complex_csr(
            sp.csr_array(sp.diags_array(self._winv) @ (2.0 * sp.csr_array(BA))))
        Gw = [sp.csr_array(sp.diags_array(w * smu) @ Gi) for Gi in G]
        self._Gw = tuple(_complex_csr(Gi) for Gi in Gw)
        self._GwT = tuple(_complex_csr(sp.csr_array(Gi.T)) for Gi in Gw)
        self._kbuf = np.empty((3, n, n, n), dtype=complex)

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

    def nullspace_basis(self):
        """The six null vectors, macro's basis: [1,0] and [0,1] sqrt(mu) (mass),
        [1,1] xi_i sqrt(mu) (momentum) and [1,1](|xi|^2 - 3) sqrt(mu) (energy)."""
        return [TwoSpeciesField(v, self.grid) for v in _projector(self.grid).basis]

    def odd_even_basis(self):
        """The 14 odd-even fields sqrt(mu) (-1)^(p.(i,j,l)), p in {0,1}^3 minus 0, on the
        sum block [1, 1] and the difference block [1, -1].  The centred stencil
        annihilates (-1)^j, so G_i sees them only in its one-sided boundary rows,
        where sqrt(mu) is tiny: a spurious near-null space of the lattice L."""
        ijl = np.indices((self.grid.n,) * 3).reshape(3, -1)
        fields = [self.grid.sqrt_mu * (-1.0) ** (np.array(p) @ ijl)
                  for p in itertools.product((0, 1), repeat=3) if any(p)]
        return [TwoSpeciesField.from_species(self.grid, s, sign * s)
                for s in fields for sign in (1.0, -1.0)]

    def deflation_basis(self, rank: int):
        """Not implemented: no solve deflates.  Kept because ``perfbench/tracing.py`` wraps it."""
        raise NotImplementedError("the solves have no deflation")


def assemble_L(grid: VelocityGrid, params: CollisionParams) -> LinearizedOperator:
    """Assemble the linearized operator once per (grid, params)."""
    _check_budget(grid.n)
    sigma = sigma_field(grid, params)
    return LinearizedOperator(grid, params, sigma)
