"""Truncated velocity-space lattice, quadrature, and discrete derivative primitives.

The velocity domain [-R, R]^3 is discretized on a uniform tensor lattice with an
odd number of points per axis, so the origin is a node and the lattice is
symmetric under xi -> -xi.  Quadrature is tensor trapezoid: interior nodes carry
weight h^3, faces/edges/corners carry the corresponding halved products.  All
other modules read velocities, weights and the per-grid tables from here; a grid
builds each table on first use and owns it: mu, sqrt(mu), the gradient matrices
and ``moments``, the macro basis and every moment row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

__all__ = [
    "MAX_N",
    "GridParameterError",
    "GridMismatchError",
    "MomentTable",
    "VelocityGrid",
    "TwoSpeciesField",
    "build_grid",
    "check_grid_parameters",
    "maxwellian",
    "inner_product",
    "velocity_gradient",
]


MAX_N = 33   # the largest supported points per axis


class GridParameterError(ValueError):
    """Invalid lattice parameters (non-odd n, n > MAX_N, non-positive R, ...)."""


class GridMismatchError(ValueError):
    """Operands live on different velocity grids."""


def maxwellian(xi):
    """Normalized global Maxwellian mu(xi) = (2 pi)^(-3/2) exp(-|xi|^2 / 2).

    Accepts a single 3-vector or a (3, m) array of velocities.
    """
    xi = np.asarray(xi, dtype=float)
    r2 = np.sum(xi * xi, axis=0)
    return (2.0 * np.pi) ** -1.5 * np.exp(-0.5 * r2)


def _d1_matrix(n: int, h: float) -> sp.csr_array:
    """Second-order 1-D differentiation matrix: centered interior, one-sided ends.

    Both stencils are exact on quadratics, which keeps the discrete null space
    of the collision operator exact (see collision.assemble_L).
    """
    rows, cols, vals = [], [], []
    for i in range(1, n - 1):
        rows += [i, i]
        cols += [i - 1, i + 1]
        vals += [-0.5 / h, 0.5 / h]
    rows += [0, 0, 0]
    cols += [0, 1, 2]
    vals += [-1.5 / h, 2.0 / h, -0.5 / h]
    rows += [n - 1, n - 1, n - 1]
    cols += [n - 1, n - 2, n - 3]
    vals += [1.5 / h, -2.0 / h, 0.5 / h]
    return sp.csr_array(sp.coo_array((vals, (rows, cols)), shape=(n, n)))


class MomentTable:
    """One grid's macro ``basis`` (6, 2, n^3), L's null space (see macro), its quadrature
    ``gram`` matrix and inverse, and the 17 quadrature-weighted balance-law test
    functions ``rows``, in the order of macro's families: sqrt(mu); xi_i sqrt(mu);
    (|xi|^2 - 3) sqrt(mu) / 6; (xi_i xi_j - 1) sqrt(mu) with (i, j) row-major;
    (|xi|^2 - 5) xi_i sqrt(mu) / 10.  ``values @ rows.T`` gives every moment of a
    (2, n^3) field at once.

    The Theta rows subtract 1 for every i, j, not only on the diagonal, so off
    the diagonal Theta_ij(P f_pm) = -a_pm in exact integrals.  Written in
    macro/micro variables, the off-diagonal Theta law therefore carries
    -d/dt a_pm, which the mass law turns into
    i k.b + i k.<xi sqrt(mu), {I-P} f_pm>; the second of these is the
    i k.<xi sqrt(mu), m_pm> term of that law.
    """

    def __init__(self, grid: VelocityGrid):
        smu = grid.sqrt_mu
        zero = np.zeros_like(smu)
        xi = grid.xi
        r2 = np.sum(xi ** 2, axis=0)
        shared = [xi[i] * smu for i in range(3)] + [(r2 - 3.0) * smu]
        self.basis = np.array([np.stack([smu, zero]), np.stack([zero, smu])]
                              + [np.stack([v, v]) for v in shared])
        self.weights = w = grid.weights   # not the grid: no cycle keeps a grid alive
        self.gram = np.einsum("akl,bkl,l->ab", self.basis, self.basis, w)
        self.gram_inv = np.linalg.inv(self.gram)
        phis = [smu] + shared[:3] + [shared[3] / 6.0]
        phis += [(xi[i] * xi[j] - 1.0) * smu for i in range(3) for j in range(3)]
        phis += [0.1 * (r2 - 5.0) * xi[i] * smu for i in range(3)]
        self.rows = np.array(phis) * w

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        return self.gram_inv @ np.einsum("akl,kl,l->a", self.basis, values, self.weights)

    def reconstruct(self, coeffs: np.ndarray) -> np.ndarray:
        return np.einsum("a,akl->kl", coeffs, self.basis)


@dataclass(frozen=True, eq=False)
class VelocityGrid:
    """Uniform velocity lattice on [-R, R]^3 with trapezoid quadrature.

    Nodes are stored flattened in C order as ``xi`` with shape (3, n^3); the
    per-node quadrature weights sum to (2R)^3.
    """

    R: float
    n: int
    h: float
    axis: np.ndarray          # (n,) 1-D node coordinates
    xi: np.ndarray            # (3, n^3) node velocities
    weights: np.ndarray       # (n^3,) quadrature weights

    @property
    def size(self) -> int:
        return self.n ** 3

    @cached_property
    def mu(self) -> np.ndarray:
        m = maxwellian(self.xi)
        m.setflags(write=False)
        return m

    @cached_property
    def sqrt_mu(self) -> np.ndarray:
        s = np.sqrt(self.mu)
        s.setflags(write=False)
        return s

    @cached_property
    def origin_index(self) -> int:
        return int(np.argmin(np.sum(self.xi ** 2, axis=0)))

    @cached_property
    def gradient_matrices(self) -> tuple:
        """Sparse gradient matrices (D_1, D_2, D_3) acting on flattened fields.

        Row p of D_a is the 1-D row of p's axis-a index, its columns moved by
        that axis's stride and sorted: for n >= 5, the arrays of kron(D, I, I),
        kron(I, D, I) and kron(I, I, D), built by index arithmetic.
        """
        D = _d1_matrix(self.n, self.h)
        node = np.arange(self.size)
        mats = []
        for stride in (self.n * self.n, self.n, 1):
            digit = node // stride % self.n
            counts = np.diff(D.indptr)[digit]
            indptr = np.concatenate([[0], np.cumsum(counts)])
            rows = np.repeat(node, counts)
            entry = np.arange(indptr[-1]) - indptr[rows] + D.indptr[digit[rows]]
            cols = rows + (D.indices[entry] - digit[rows]) * stride
            mats.append(sp.csr_array((D.data[entry], cols, indptr), shape=(self.size,) * 2))
        return tuple(mats)

    @cached_property
    def moments(self) -> MomentTable:
        """This grid's macro basis and moment rows, built on first use."""
        return MomentTable(self)

    def same_grid(self, other: "VelocityGrid") -> bool:
        return self.n == other.n and self.R == other.R

    def check_same(self, other: "VelocityGrid") -> None:
        if not self.same_grid(other):
            raise GridMismatchError(
                f"grid mismatch: (R={self.R}, n={self.n}) vs (R={other.R}, n={other.n})"
            )


def check_grid_parameters(R: float, n: int) -> None:
    """Raise GridParameterError unless R is positive and finite and n is an odd integer
    with 3 <= n <= MAX_N: the one rule for every grid the program builds or reads."""
    if not (isinstance(n, (int, np.integer)) and n % 2 == 1 and n >= 3):
        raise GridParameterError(f"points_per_axis must be an odd integer >= 3, got {n}")
    if n > MAX_N:
        raise GridParameterError(f"points_per_axis must be at most {MAX_N}, got {n}")
    if not 0 < R < np.inf:
        raise GridParameterError(f"half_width must be positive and finite, got {R}")


def build_grid(R: float, n: int) -> VelocityGrid:
    """Build the truncated velocity lattice.

    R must be positive and finite and n odd, so that xi = 0 is a node, with 9 <= n <=
    MAX_N in production and n >= 3 for unit tests: check_grid_parameters.
    """
    check_grid_parameters(R, n)
    n = int(n)
    axis = np.linspace(-R, R, n)
    h = 2.0 * R / (n - 1)
    w1 = np.full(n, h)
    w1[0] = w1[-1] = 0.5 * h
    X1, X2, X3 = np.meshgrid(axis, axis, axis, indexing="ij")
    xi = np.stack([X1.ravel(), X2.ravel(), X3.ravel()], axis=0)
    w = (w1[:, None, None] * w1[None, :, None] * w1[None, None, :]).ravel()
    xi.setflags(write=False)
    w.setflags(write=False)
    axis.setflags(write=False)
    return VelocityGrid(R=float(R), n=n, h=h, axis=axis, xi=xi, weights=w)


@dataclass
class TwoSpeciesField:
    """Complex two-species field [f_+, f_-] sampled on a velocity grid.

    ``values`` has shape (2, n^3); species are ordered [+, -] throughout.
    """

    values: np.ndarray
    grid: VelocityGrid = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != (2, self.grid.size):
            raise ValueError(f"expected shape (2, {self.grid.size}), got {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("field contains non-finite entries")
        self.values = v

    @classmethod
    def zero(cls, grid: VelocityGrid) -> "TwoSpeciesField":
        return cls(np.zeros((2, grid.size), dtype=complex), grid)

    @classmethod
    def from_species(cls, grid: VelocityGrid, plus, minus) -> "TwoSpeciesField":
        return cls(np.stack([np.asarray(plus, dtype=complex),
                             np.asarray(minus, dtype=complex)]), grid)

    def copy(self) -> "TwoSpeciesField":
        return TwoSpeciesField(self.values.copy(), self.grid)

    def __add__(self, other: "TwoSpeciesField") -> "TwoSpeciesField":
        self.grid.check_same(other.grid)
        return TwoSpeciesField(self.values + other.values, self.grid)

    def __sub__(self, other: "TwoSpeciesField") -> "TwoSpeciesField":
        self.grid.check_same(other.grid)
        return TwoSpeciesField(self.values - other.values, self.grid)

    def __mul__(self, scalar) -> "TwoSpeciesField":
        return TwoSpeciesField(self.values * scalar, self.grid)

    __rmul__ = __mul__

    def norm(self) -> float:
        """Quadrature L^2 norm over both species."""
        return float(np.sqrt(inner_product(self, self).real))


def _dot(a: np.ndarray, b: np.ndarray):
    """a @ b for 1- or 2-D operands, summed by np.einsum's own loop.

    np.einsum without ``optimize`` never calls BLAS, whereas OpenBLAS splits a
    long dot product among its threads, so that the bits of a sum over n^3
    entries would depend on the BLAS thread count.  Here they do not.
    """
    return np.einsum(("j", "ij")[a.ndim - 1] + "," + ("j", "jk")[b.ndim - 1], a, b)


def _norm(x: np.ndarray) -> float:
    """The 2-norm of a vector, summed by _dot."""
    return float(np.sqrt(_dot(x.conj(), x).real))


def inner_product(f: TwoSpeciesField, g: TwoSpeciesField) -> complex:
    """Sesquilinear quadrature inner product, conjugating the second argument."""
    f.grid.check_same(g.grid)
    return complex(np.sum(f.grid.weights * (f.values * np.conj(g.values)).sum(axis=0)))


def velocity_gradient(f: TwoSpeciesField, axis: int) -> TwoSpeciesField:
    """d/d(xi_axis) by centered differences, one-sided at the boundary.

    ``axis`` is 1-based (1, 2 or 3).  Exact on fields that are quadratic in the
    differentiated coordinate, including the one-sided boundary rows.
    """
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2 or 3, got {axis}")
    D = f.grid.gradient_matrices[axis - 1]
    return TwoSpeciesField(np.stack([D @ f.values[0], D @ f.values[1]]), f.grid)
