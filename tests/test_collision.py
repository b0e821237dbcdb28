import numpy as np
import pytest
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.special import erf

from vmlandau._conv import _PACK, LatticeConvolver, sigma_iso_origin
from vmlandau.collision import (CollisionParams, ResourceBudgetError, apply_Q,
                                assemble_L, sigma_field)
from vmlandau.grid import build_grid, inner_product
from vmlandau.macro import project_P
from vmlandau.weights import dissipation_norm

from conftest import random_field, smooth_random_field


class TestCollisionParams:
    def test_soft_range_enforced(self):
        CollisionParams(gamma=-3.0, c_phi=1.0)
        CollisionParams(gamma=-2.5, c_phi=1.0)
        with pytest.raises(ValueError):
            CollisionParams(gamma=-2.0, c_phi=1.0)    # hard potentials rejected
        with pytest.raises(ValueError):
            CollisionParams(gamma=-3.1, c_phi=1.0)
        with pytest.raises(ValueError):
            CollisionParams(gamma=-3.0, c_phi=0.0)


def sigma_origin_radial_oracle(gamma, c_phi):
    """Independent 1-D radial quadrature of (2 C/3) int 4 pi r^2 r^(gamma+2) mu dr."""
    def integrand(r):
        return 4.0 * np.pi * r ** (gamma + 4.0) * (2 * np.pi) ** -1.5 * np.exp(-r * r / 2.0)
    val, _ = quad(integrand, 0.0, 30.0, epsabs=1e-13, epsrel=1e-12)
    return (2.0 * c_phi / 3.0) * val


def sigma_coulomb_oracle(xi_pt):
    """Closed-form sigma^ij for gamma = -3, C_phi = 1 via the |.|*mu potential."""
    r = float(np.linalg.norm(xi_pt))
    if r == 0.0:
        return sigma_origin_radial_oracle(-3.0, 1.0) * np.eye(3)
    e = np.sqrt(2.0 / np.pi) * np.exp(-r * r / 2.0)
    Gp = -r * e + (1.0 - r ** -2) * erf(r / np.sqrt(2.0)) + (r + 1.0 / r) * e
    Gpp = (r * r - 1.0) * e + 2.0 * r ** -3 * erf(r / np.sqrt(2.0)) \
        + (1.0 - r ** -2) * e + (1.0 - r ** -2) * e - (r + 1.0 / r) * r * e
    rh = np.asarray(xi_pt) / r
    P = np.outer(rh, rh)
    return Gpp * P + (Gp / r) * (np.eye(3) - P)


class TestSigmaField:
    @pytest.mark.parametrize("gamma", [-3.0, -2.5])
    def test_origin_isotropic_value(self, gamma):
        grid = build_grid(7.0, 17)
        params = CollisionParams(gamma=gamma, c_phi=1.0)
        sig = sigma_field(grid, params)
        oracle = sigma_origin_radial_oracle(gamma, params.c_phi)
        S0 = sig.matrix_at(grid.origin_index)
        np.testing.assert_allclose(np.diag(S0), oracle, atol=1e-3)
        assert sigma_iso_origin(gamma, params.c_phi) == pytest.approx(oracle, rel=1e-10)
        off = S0 - np.diag(np.diag(S0))
        np.testing.assert_allclose(off, 0.0, atol=1e-12)

    def test_closed_form_along_nodes(self):
        # Coulomb case has a closed form; near-field error is O(h^2) from the
        # point-sampled singular kernel (~2e-3 at n=17, ~3e-4 at n=25)
        grid = build_grid(7.0, 17)
        sig = sigma_field(grid, CollisionParams(gamma=-3.0, c_phi=1.0))
        rng = np.random.default_rng(3)
        for node in rng.choice(grid.size, 40, replace=False):
            S = sig.matrix_at(node)
            np.testing.assert_allclose(S, sigma_coulomb_oracle(grid.xi[:, node]),
                                       atol=5e-3)

    def test_symmetric_psd_at_nodes(self, grid11, params):
        sig = sigma_field(grid11, params)
        rng = np.random.default_rng(4)
        for node in rng.choice(grid11.size, 100, replace=False):
            S = sig.matrix_at(node)
            np.testing.assert_allclose(S, S.T, atol=1e-14)
            assert np.linalg.eigvalsh(S)[0] > -1e-12
            # both read the one packed-index map
            assert all(S[i, j] == sig.component(i, j)[node] for i in range(3) for j in range(3))

    def test_rotation_covariance(self, grid11, params):
        # 90-degree axis rotation: permuting lattice axes must conjugate sigma
        sig = sigma_field(grid11, params)
        n = grid11.n
        s11 = sig.component(0, 0).reshape(n, n, n)
        s22 = sig.component(1, 1).reshape(n, n, n)
        s12 = sig.component(0, 1).reshape(n, n, n)
        assert np.max(np.abs(s11 - s22.transpose(1, 0, 2))) < 1e-10
        assert np.max(np.abs(s12 - s12.transpose(1, 0, 2))) < 1e-10

    def test_radial_alignment_on_symmetry_axes(self, grid11, params):
        # on axis and diagonal nodes the cubic symmetry makes sigma(xi) xi || xi
        sig = sigma_field(grid11, params)
        n = grid11.n
        mid = (n - 1) // 2
        for idx3 in ([mid + 2, mid, mid], [mid + 1, mid + 1, mid + 1], [mid, mid + 3, mid]):
            node = idx3[0] * n * n + idx3[1] * n + idx3[2]
            xi = grid11.xi[:, node]
            S = sig.matrix_at(node)
            sx = S @ xi
            tang = sx - (xi @ sx) / (xi @ xi) * xi
            assert np.linalg.norm(tang) < 1e-10 * np.linalg.norm(sx)

    def test_radial_alignment_generic_nodes_improves(self, params):
        # lattice anisotropy misaligns generic nodes at O(h^2); track it shrinking
        defects = []
        for (R, n) in ((6.0, 11), (6.0, 21)):
            g = build_grid(R, n)
            sig = sigma_field(g, params)
            rng = np.random.default_rng(5)
            worst = 0.0
            for node in rng.choice(g.size, 100, replace=False):
                xi = g.xi[:, node]
                r2 = xi @ xi
                if r2 == 0.0:
                    continue
                S = sig.matrix_at(node)
                sx = S @ xi
                tang = sx - (xi @ sx) / r2 * xi
                worst = max(worst, np.linalg.norm(tang) / np.linalg.norm(sx))
            defects.append(worst)
        assert defects[1] < defects[0] / 2.0


class TestApplyQ:
    def test_equilibrium_annihilated_under_refinement(self, params):
        # Q(mu, mu) vanishes at discretization order: its size relative to a
        # comparable disequilibrium application shrinks with h (first order;
        # the divergence differentiates the near-field kernel sampling error)
        ratios = []
        for n in (11, 23):
            g = build_grid(6.0, n)
            mu = g.mu
            q = apply_Q(g, params, mu, mu)
            probe = apply_Q(g, params, g.xi[0] * mu, mu)
            scale = np.sqrt(np.sum(g.weights * np.abs(probe) ** 2))
            ratios.append(np.sqrt(np.sum(g.weights * np.abs(q) ** 2)) / scale)
        assert ratios[1] < ratios[0] / 1.8
        assert ratios[1] < 0.1

    def test_mass_moment_vanishes_exactly(self, grid11, params):
        rng = np.random.default_rng(6)
        for _ in range(3):
            F = rng.standard_normal(grid11.size) * grid11.mu ** 0.5
            G = rng.standard_normal(grid11.size) * grid11.mu ** 0.5
            q = apply_Q(grid11, params, F, G)
            total = abs(np.sum(grid11.weights * q))
            scale = np.sum(grid11.weights * np.abs(q))
            assert total < 1e-8 * scale

    def test_momentum_energy_invariants_symmetrized(self, grid11, params):
        rng = np.random.default_rng(7)
        xi = grid11.xi
        r2 = np.sum(xi ** 2, axis=0)
        for _ in range(3):
            F = rng.standard_normal(grid11.size) * grid11.mu ** 0.5
            G = rng.standard_normal(grid11.size) * grid11.mu ** 0.5
            q1 = apply_Q(grid11, params, F, G)
            q2 = apply_Q(grid11, params, G, F)
            both = q1 + q2
            scale = np.sum(grid11.weights * (np.abs(q1) + np.abs(q2)))
            for mom in (xi[0], xi[1], xi[2], r2):
                lhs = abs(np.sum(grid11.weights * mom * both))
                assert lhs < 1e-6 * scale

    def test_bilinearity(self, grid11, params):
        rng = np.random.default_rng(8)
        F = rng.standard_normal(grid11.size) * grid11.mu
        G = rng.standard_normal(grid11.size) * grid11.mu
        H = rng.standard_normal(grid11.size) * grid11.mu
        lhs = apply_Q(grid11, params, F, G + 2.0 * H)
        rhs = apply_Q(grid11, params, F, G) + 2.0 * apply_Q(grid11, params, F, H)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-10, atol=1e-14)

    def test_resource_guard(self, params):
        # 2 n^6 at n = 35 exceeds the desk budget; both entry points refuse before any work
        grid = build_grid(7.0, 35)
        with pytest.raises(ResourceBudgetError):
            apply_Q(grid, params, grid.mu, grid.mu)
        with pytest.raises(ResourceBudgetError):
            assemble_L(grid, params)


class TestLinearizedOperator:
    def test_nullspace_annihilated(self, op11):
        for v in op11.nullspace_basis():
            r = op11.apply(v)
            rel = np.sqrt(abs(inner_product(r, r)) / abs(inner_product(v, v)))
            assert rel < 1e-12
            # the null space is the macro subspace of project_P
            assert project_P(v)[2].norm() <= 1e-14 * v.norm()

    def test_symmetric_in_weighted_product(self, op11, grid11):
        rng = np.random.default_rng(12)
        for _ in range(5):
            f = random_field(grid11, rng)
            g = random_field(grid11, rng)
            Lf, Lg = op11.apply(f), op11.apply(g)
            defect = abs(inner_product(Lf, g) - inner_product(f, Lg))
            scale = np.sqrt(abs(inner_product(Lf, Lf)) * abs(inner_product(g, g)))
            assert defect < 1e-12 * scale

    def test_nonnegative_rayleigh(self, op11, grid11):
        rng = np.random.default_rng(13)
        for _ in range(20):
            f = random_field(grid11, rng)
            ray = inner_product(op11.apply(f), f).real / inner_product(f, f).real
            assert ray > -1e-12

    def test_micro_coercivity_gap_positive(self, op11, grid11):
        rng = np.random.default_rng(14)
        gaps = []
        for _ in range(20):
            f = smooth_random_field(grid11, rng, decay=0.25)
            _, _, micro = project_P(f)
            d = dissipation_norm(micro, op11.sigma)
            gaps.append(inner_product(op11.apply(micro), micro).real / d)
        assert min(gaps) > 0.01

    def test_matches_Q_composition_at_consistency_order(self, params):
        # the symmetric form assembly and the divergence-form Q composition are
        # distinct 2nd-order discretizations; their gap must shrink >= 1st order
        R = 6.0
        gaps = []
        for n in (11, 15, 19):
            g = build_grid(R, n)
            op = assemble_L(g, params)
            smu = g.sqrt_mu
            xi = g.xi
            f = np.stack([(xi[0] * xi[1] + 0.3 * xi[2]) * smu,
                          (xi[1] ** 2 - 1.0 + 0.5 * xi[0]) * smu]).astype(complex)
            h = smu * (f[0] + f[1])
            direct = np.stack([
                (-2.0 * apply_Q(g, params, smu * f[0], g.mu)
                 - apply_Q(g, params, g.mu, h)) / smu,
                (-2.0 * apply_Q(g, params, smu * f[1], g.mu)
                 - apply_Q(g, params, g.mu, h)) / smu])
            form = op.apply_raw(f)
            num = np.sqrt(np.sum(g.weights * np.abs(direct - form) ** 2))
            den = np.sqrt(np.sum(g.weights * np.abs(form) ** 2))
            gaps.append(num / den)
        h_ratio_1 = (19 - 1) / (15 - 1)   # h ~ 1/(n-1) at fixed R
        assert gaps[1] < gaps[0] / 1.3
        assert gaps[2] < gaps[1] / (h_ratio_1 / 1.2)


def _same_csr(got, want) -> bool:
    return all(np.array_equal(getattr(got, part), getattr(want, part))
               for part in ("data", "indices", "indptr"))


@pytest.mark.parametrize("gamma", [-3.0, -2.5])
def test_set_up_equals_the_route_of_three_convolutions_and_diagonal_products(gamma):
    """sigma, A and the weighted gradients, bit for bit, against the route they replaced:
    sigma from three apply_vector calls, each with one nonzero component, and every
    diagonal scaling as a sparse product with diags_array."""
    grid = build_grid(7.0, 9)
    params = CollisionParams(gamma=gamma, c_phi=1.0)
    op = assemble_L(grid, params)
    n = grid.n
    conv = LatticeConvolver(grid, gamma, params.c_phi)
    wmu = (grid.weights * grid.mu).reshape(n, n, n)
    sigma = np.empty((6, grid.size))
    for j in range(3):
        v = np.zeros((3, n, n, n), dtype=complex)
        v[j] = wmu
        res = conv.apply_vector(v)
        for i in range(j, 3):
            sigma[_PACK[i, j]] = res[i].real.reshape(-1)
    assert np.array_equal(op.sigma.packed, sigma)

    w, smu = grid.weights, grid.sqrt_mu
    G = [sp.csr_array(sp.diags_array(smu) @ D @ sp.diags_array(1.0 / smu))
         for D in grid.gradient_matrices]
    BA = None
    for i in range(3):
        for j in range(3):
            M = G[j].T @ sp.diags_array(w * op.sigma.component(i, j)) @ G[i]
            BA = M if BA is None else BA + M
    assert _same_csr(op.A_sparse, sp.diags_array(1.0 / w) @ (2.0 * sp.csr_array(BA)))
    for i, Gi in enumerate(G):
        Gw = sp.csr_array(sp.diags_array(w * smu) @ Gi)
        assert _same_csr(op._Gw[i], Gw)
        assert _same_csr(op._GwT[i], sp.csr_array(Gw.T))
