import numpy as np
import pytest
from scipy.integrate import quad

from vmlandau._conv import _PACK, LatticeConvolver, cube_average_power, kernel_tables
from vmlandau.grid import build_grid


@pytest.fixture(scope="module")
def grid9():
    return build_grid(7.0, 9)


@pytest.fixture(scope="module")
def conv9(grid9, params):
    return LatticeConvolver(grid9, params.gamma, params.c_phi)


def _field(n, seed, shape=(3,)):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(shape + (n,) * 3) + 1j * rng.standard_normal(shape + (n,) * 3)


def _direct(grid, params, pad, v3):
    """out_i(p) = sum_q sum_j phi^ij(p - q) v_j(q), with phi^ij read from kernel_tables."""
    tabs = kernel_tables(grid, params.gamma, params.c_phi, pad)
    idx = np.indices((grid.n,) * 3).reshape(3, -1)
    off = tuple((idx[a][:, None] - idx[a][None, :]) % pad for a in range(3))
    v = v3.reshape(3, -1)
    out = np.zeros((3, grid.size), dtype=complex)
    for i in range(3):
        for j in range(3):
            out[i] += tabs[_PACK[(i, j)]][off] @ v[j]
    return out.reshape(v3.shape)


class TestLatticeConvolver:
    def test_matches_direct_lattice_sum(self, grid9, params, conv9):
        v3 = _field(9, 11)
        got = conv9.apply_vector(v3)
        want = _direct(grid9, params, conv9.pad, v3)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_second_call_equals_fresh_convolver(self, grid9, params):
        conv = LatticeConvolver(grid9, params.gamma, params.c_phi)
        conv.apply_vector(_field(9, 1))
        second = conv.apply_vector(_field(9, 2))
        fresh = LatticeConvolver(grid9, params.gamma, params.c_phi).apply_vector(_field(9, 2))
        assert np.array_equal(second, fresh)

    def test_result_survives_later_calls(self, conv9):
        first = conv9.apply_vector(_field(9, 3))
        kept = first.copy()
        conv9.apply_vector(_field(9, 4))
        conv9.apply_all_components(_field(9, 5, shape=()))
        assert np.array_equal(first, kept)

    def test_single_precision_call_matches_double(self, conv9):
        v3 = _field(9, 7)
        single = conv9.apply_vector(v3, dtype=np.complex64)
        double = conv9.apply_vector(v3)
        assert single.dtype == np.complex64
        # measured 1.7e-7 at n = 13 to 25
        assert np.max(np.abs(single - double)) <= 1e-6 * np.max(np.abs(double))

    def test_double_call_after_a_single_one_keeps_its_bits(self, grid9, params):
        # the single-precision call runs in views of the double call's buffers
        conv = LatticeConvolver(grid9, params.gamma, params.c_phi)
        conv.apply_vector(_field(9, 8), dtype=np.complex64)
        fresh = LatticeConvolver(grid9, params.gamma, params.c_phi).apply_vector(_field(9, 9))
        assert np.array_equal(conv.apply_vector(_field(9, 9)), fresh)

    @pytest.mark.parametrize("gamma", [-3.0, -2.5, -2.01])
    def test_all_components_match_apply_vector(self, grid9, gamma):
        # bit for bit: collision.sigma_field takes all six sigma^ij from one call
        conv = LatticeConvolver(grid9, gamma, 1.0)
        u = _field(9, 6, shape=())
        packed = conv.apply_all_components(u)
        for j in range(3):
            v3 = np.zeros((3,) + u.shape, dtype=complex)
            v3[j] = u
            res = conv.apply_vector(v3)
            for i in range(3):
                assert np.array_equal(packed[_PACK[(i, j)]], res[i])


@pytest.mark.parametrize("gamma", [-3.0, -2.9, -2.5, -2.2, -2.01])
def test_cube_average_power_matches_adaptive_quadrature(gamma):
    """The fixed Gauss-Legendre rule against scipy's adaptive quad of the same integrand."""
    p = gamma + 5.0

    def angular(beta):
        sec2 = 1.0 / np.cos(beta) ** 2
        return ((1.0 + sec2) ** ((p - 1.0) / 2.0) - 1.0) / (p - 1.0)

    val, _ = quad(angular, 0.0, np.pi / 4.0, epsabs=1e-14, epsrel=1e-13)
    oracle = 48.0 / p * 0.5 ** p * val
    assert abs(cube_average_power(gamma) - oracle) <= 1e-15 * oracle
