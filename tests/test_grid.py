import numpy as np
import pytest
import scipy.sparse as sp
from numpy.polynomial.hermite import hermgauss

from vmlandau.grid import (GridMismatchError, GridParameterError, TwoSpeciesField, _d1_matrix,
                           build_grid, inner_product, maxwellian, velocity_gradient)

from conftest import random_field


def gauss_hermite_moment(power, R, order=80):
    """1-D oracle: int_{-R}^{R} x^power (2pi)^(-1/2) e^(-x^2/2) dx by Gauss-Hermite.

    Substituting x = sqrt(2) y maps the weight to e^(-y^2); the truncation to
    [-R, R] is applied by masking nodes (R is far in the tail, so masked mass
    is below the quadrature's own accuracy).
    """
    y, w = hermgauss(order)
    x = np.sqrt(2.0) * y
    mask = np.abs(x) <= R
    return np.sum(w[mask] * x[mask] ** power) / np.sqrt(np.pi)


class TestBuildGrid:
    def test_small_lattice(self):
        g = build_grid(1.0, 3)
        assert g.h == 1.0
        assert set(g.axis) == {-1.0, 0.0, 1.0}
        assert g.size == 27

    def test_spacing(self):
        g = build_grid(7.0, 33)
        assert g.h == pytest.approx(7.0 / 16.0, rel=1e-15)

    def test_even_n_rejected(self):
        with pytest.raises(GridParameterError):
            build_grid(1.0, 4)

    def test_nonpositive_R_rejected(self):
        with pytest.raises(GridParameterError):
            build_grid(0.0, 9)
        with pytest.raises(GridParameterError):
            build_grid(-2.0, 9)

    def test_origin_is_node(self):
        g = build_grid(5.0, 11)
        assert np.all(g.xi[:, g.origin_index] == 0.0)

    def test_weights_positive_and_sum_to_volume(self):
        g = build_grid(5.0, 11)
        assert np.all(g.weights > 0)
        assert np.sum(g.weights) == pytest.approx((2 * 5.0) ** 3, rel=1e-12)

    def test_node_symmetry(self):
        g = build_grid(4.0, 9)
        order = np.lexsort(g.xi)
        order_neg = np.lexsort(-g.xi)
        np.testing.assert_allclose(g.xi[:, order], -g.xi[:, order_neg], atol=1e-14)
        np.testing.assert_allclose(g.weights[order], g.weights[order_neg])


class TestMaxwellian:
    def test_origin_value(self):
        assert maxwellian(np.zeros(3)) == pytest.approx((2 * np.pi) ** -1.5, rel=1e-15)

    def test_radial_symmetry(self):
        assert maxwellian([1.0, 0, 0]) == maxwellian([0, 1.0, 0])

    def test_discrete_mass_vs_gauss_hermite(self):
        g = build_grid(7.0, 33)
        disc = float(np.sum(g.weights * g.mu))
        oracle = gauss_hermite_moment(0, 7.0) ** 3
        assert abs(disc - oracle) < 1e-6


class TestInnerProduct:
    def test_zero_left(self, grid11):
        rng = np.random.default_rng(0)
        f = TwoSpeciesField.zero(grid11)
        g = random_field(grid11, rng)
        assert inner_product(f, g) == 0

    def test_disjoint_species(self, grid11):
        smu = grid11.sqrt_mu
        zero = np.zeros_like(smu)
        f = TwoSpeciesField.from_species(grid11, smu, zero)
        g = TwoSpeciesField.from_species(grid11, zero, smu)
        assert inner_product(f, g) == 0

    def test_gaussian_second_moment(self):
        g = build_grid(7.0, 25)
        v = g.xi[0] * g.sqrt_mu
        f = TwoSpeciesField.from_species(g, v, v)
        oracle = 2.0 * gauss_hermite_moment(2, 7.0) * gauss_hermite_moment(0, 7.0) ** 2
        assert inner_product(f, f).real == pytest.approx(oracle, abs=1e-8)

    def test_conjugate_symmetry(self, grid11):
        rng = np.random.default_rng(1)
        f = random_field(grid11, rng)
        g = random_field(grid11, rng)
        assert inner_product(f, g) == pytest.approx(np.conj(inner_product(g, f)))

    def test_grid_mismatch(self, grid11):
        other = build_grid(6.0, 9)
        with pytest.raises(GridMismatchError):
            inner_product(TwoSpeciesField.zero(grid11), TwoSpeciesField.zero(other))

    def test_even_odd_orthogonality(self, grid11):
        # xi -> -xi symmetry: even x odd integrands vanish at quadrature level
        even = grid11.mu
        odd = grid11.xi[1] * grid11.mu
        f = TwoSpeciesField.from_species(grid11, even, even)
        g = TwoSpeciesField.from_species(grid11, odd, odd)
        assert abs(inner_product(f, g)) < 1e-14


class TestQuadratureExactness:
    # trapezoid integrates polynomials of degree <= 1 over the box exactly
    @pytest.mark.parametrize("poly,exact", [
        (lambda xi: np.ones(xi.shape[1]), (2 * 3.0) ** 3),
        (lambda xi: xi[0], 0.0),
        (lambda xi: 1.0 + 2 * xi[2], (2 * 3.0) ** 3),
        (lambda xi: xi[0] - 3 * xi[1] + 0.5 * xi[2], 0.0),
    ])
    def test_degree_one_exact(self, poly, exact):
        g = build_grid(3.0, 9)
        disc = float(np.sum(g.weights * poly(g.xi)))
        vol = (2 * g.R) ** 3
        assert disc == pytest.approx(exact, abs=1e-12 * vol)


class TestVelocityGradient:
    def test_constant_field(self, grid11):
        ones = np.ones(grid11.size)
        f = TwoSpeciesField.from_species(grid11, ones, ones)
        for axis in (1, 2, 3):
            df = velocity_gradient(f, axis)
            np.testing.assert_allclose(df.values, 0.0, atol=1e-13)

    def test_linear_field_exact(self, grid11):
        v = grid11.xi[0]
        f = TwoSpeciesField.from_species(grid11, v, v)
        df = velocity_gradient(f, 1)
        np.testing.assert_allclose(df.values.real, 1.0, atol=1e-12)
        np.testing.assert_allclose(velocity_gradient(f, 2).values, 0.0, atol=1e-12)

    def test_quadratic_exact_everywhere(self, grid11):
        v = grid11.xi[0] ** 2
        f = TwoSpeciesField.from_species(grid11, v, v)
        df = velocity_gradient(f, 1)
        expected = np.broadcast_to(2.0 * grid11.xi[0], (2, grid11.size))
        np.testing.assert_allclose(df.values.real, expected, atol=1e-11)

    def test_linear_in_field(self, grid11):
        rng = np.random.default_rng(2)
        f = random_field(grid11, rng)
        g = random_field(grid11, rng)
        lhs = velocity_gradient(TwoSpeciesField(f.values + 2.0 * g.values, grid11), 3)
        rhs = velocity_gradient(f, 3).values + 2.0 * velocity_gradient(g, 3).values
        np.testing.assert_allclose(lhs.values, rhs, rtol=1e-12, atol=1e-14)

    def test_bad_axis(self, grid11):
        with pytest.raises(ValueError):
            velocity_gradient(TwoSpeciesField.zero(grid11), 0)

    @pytest.mark.parametrize("n", [5, 9])
    def test_gradient_matrices_are_the_kron_products_bit_for_bit(self, n):
        # from n = 5 on: at n = 3 kron densifies D and stores its zero diagonal entry
        g = build_grid(7.0, n)
        D = _d1_matrix(n, g.h)
        I = sp.identity(n, format="csr")
        kron = [sp.csr_array(sp.kron(sp.kron(D, I), I)), sp.csr_array(sp.kron(sp.kron(I, D), I)),
                sp.csr_array(sp.kron(sp.kron(I, I), D))]
        for got, want in zip(g.gradient_matrices, kron):
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(got, part), getattr(want, part))


def _adjointness_defect(g, decay, trials=5, seed=3):
    rng = np.random.default_rng(seed)
    envelope = g.mu ** decay
    worst = 0.0
    for _ in range(trials):
        f = TwoSpeciesField((rng.standard_normal((2, g.size)) * envelope).astype(complex), g)
        h = TwoSpeciesField((rng.standard_normal((2, g.size)) * envelope).astype(complex), g)
        for axis in (1, 2, 3):
            d = abs(inner_product(velocity_gradient(f, axis), h)
                    + inner_product(f, velocity_gradient(h, axis)))
            worst = max(worst, d / (f.norm() * h.norm()))
    return worst


def test_gradient_adjointness_boundary_controlled():
    """<Df, g> + <f, Dg> is a pure boundary term; it shrinks with the field decay.

    Measured levels: ~2e-6 for mu^(1/4)-decaying fields at R = 7 and ~1e-9 for
    mu^(1/2) decay, dropping further with R.  (The fully interior telescoping
    is exact; everything left lives on the six faces.)
    """
    g7 = build_grid(7.0, 21)
    quarter = _adjointness_defect(g7, 0.25)
    half = _adjointness_defect(g7, 0.5)
    assert quarter < 1e-5
    assert half < 1e-8
    assert half < quarter / 100.0
    g8 = build_grid(8.0, 21)
    assert _adjointness_defect(g8, 0.5) < 1e-10
