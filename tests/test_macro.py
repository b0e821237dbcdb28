from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss

from vmlandau.grid import TwoSpeciesField, build_grid, inner_product
from vmlandau.lab import ExperimentConfig, init_data
from vmlandau.macro import _FAMILIES, macro_residuals, project_P
from vmlandau.mode import ModeState, integrate_mode, mode_rhs

from conftest import profile_frame, random_field, smooth_random_field, stepper


def gh_moment_1d(power, order=80):
    """Full-line Gauss-Hermite oracle for int x^power (2pi)^(-1/2) e^(-x^2/2) dx."""
    y, w = hermgauss(order)
    x = np.sqrt(2.0) * y
    return float(np.sum(w * x ** power) / np.sqrt(np.pi))


class TestProjectP:
    def test_maxwellian_pair(self, grid11):
        smu = grid11.sqrt_mu
        f = TwoSpeciesField.from_species(grid11, smu, smu)
        macro, pf, micro = project_P(f)
        assert macro.a_plus == pytest.approx(1.0, abs=1e-8)
        assert macro.a_minus == pytest.approx(1.0, abs=1e-8)
        np.testing.assert_allclose(macro.b, 0.0, atol=1e-10)
        assert abs(macro.c) < 1e-10
        assert micro.norm() < 1e-10

    def test_momentum_coefficient_vs_gauss_hermite(self):
        g = build_grid(7.0, 21)
        v = g.xi[0] * g.sqrt_mu
        f = TwoSpeciesField.from_species(g, v, v)
        macro, _, _ = project_P(f)
        # the continuum coefficient is <xi_1^2 mu> = 1; oracle via 1-D quadrature
        oracle = gh_moment_1d(2)
        assert macro.b[0] == pytest.approx(oracle, abs=1e-7)
        assert abs(macro.b[1]) < 1e-10 and abs(macro.b[2]) < 1e-10
        assert abs(macro.a_plus) < 1e-8 and abs(macro.c) < 1e-8

    def test_idempotent(self, grid11):
        rng = np.random.default_rng(0)
        f = random_field(grid11, rng)
        _, pf, _ = project_P(f)
        _, ppf, micro2 = project_P(pf)
        assert (ppf - pf).norm() < 1e-10 * max(f.norm(), 1.0)
        assert micro2.norm() < 1e-10 * max(f.norm(), 1.0)

    def test_exact_splitting_and_orthogonality(self, grid11):
        rng = np.random.default_rng(1)
        f = random_field(grid11, rng)
        _, pf, micro = project_P(f)
        np.testing.assert_allclose(pf.values + micro.values, f.values,
                                   rtol=0, atol=1e-13 * f.norm())
        assert abs(inner_product(pf, micro)) < 1e-10 * f.norm() ** 2
        # norm Pythagoras
        total = inner_product(f, f).real
        split = inner_product(pf, pf).real + inner_product(micro, micro).real
        assert split == pytest.approx(total, rel=1e-10)

    def test_coefficient_round_trip(self, grid11):
        rng = np.random.default_rng(2)
        coeffs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        smu = grid11.sqrt_mu
        xi = grid11.xi
        r2 = np.sum(xi ** 2, axis=0)
        shared = coeffs[2] * xi[0] + coeffs[3] * xi[1] + coeffs[4] * xi[2] \
            + coeffs[5] * (r2 - 3.0)
        f = TwoSpeciesField.from_species(grid11, (coeffs[0] + shared) * smu,
                                         (coeffs[1] + shared) * smu)
        macro, pf, micro = project_P(f)
        got = macro.as_vector()
        np.testing.assert_allclose(got, coeffs, rtol=0, atol=1e-12 * np.abs(coeffs).max())
        assert micro.norm() < 1e-12 * f.norm()

    def test_init_data_macro_coefficients(self, grid11):
        k = np.array([0.3, -0.2, 0.5])
        state = init_data(ExperimentConfig(family="macro-gaussian"), k, grid11)
        macro, _, micro = project_P(state.fhat)
        amp = np.exp(-0.5 * float(k @ k))
        want = amp * np.array([1.0, 1.0, 0.6, 0.25, 0.8, 0.45])
        # the data is the profile at |k| e3, carried to k: b rotates as a vector
        want[2:5] = profile_frame(k) @ want[2:5]
        np.testing.assert_allclose(macro.as_vector(), want, rtol=1e-13, atol=0)
        assert micro.norm() <= 1e-13 * state.fhat.norm()


def _theta_lambda(f):
    """Theta (2, 3, 3) and Lambda (2, 3) per species from macro_residuals' moment rows."""
    m = f.values @ f.grid.moments.rows.T
    return m[:, _FAMILIES["theta"]].reshape(2, 3, 3), m[:, _FAMILIES["lambda"]]


class TestThetaLambda:
    def test_maxwellian_moments_vanish(self, grid17):
        smu = grid17.sqrt_mu
        f = TwoSpeciesField.from_species(grid17, smu, smu)
        theta, lam = _theta_lambda(f)
        np.testing.assert_allclose(theta[:, 0, 0], 0.0, atol=1e-8)
        np.testing.assert_allclose(lam, 0.0, atol=1e-9)

    def test_lambda_of_momentum_vector_vanishes(self):
        # Lambda_1(xi_1 smu): (1/10) <(|xi|^2 - 5) xi_1^2 mu> = (3 + 1 + 1 - 5)/10 = 0;
        # oracle from 1-D Gauss-Hermite fourth/second moments
        g = build_grid(7.0, 21)
        m4 = gh_moment_1d(4)
        m2 = gh_moment_1d(2)
        m0 = gh_moment_1d(0)
        oracle = (m4 * m0 * m0 + 2.0 * m2 * m2 * m0 - 5.0 * m2 * m0 * m0) / 10.0
        assert abs(oracle) < 1e-12
        v = g.xi[0] * g.sqrt_mu
        f = TwoSpeciesField.from_species(g, v, v)
        _, lam = _theta_lambda(f)
        assert abs(lam[0, 0] - oracle) < 1e-8

    def test_theta_symmetric_for_symmetric_fields(self, grid11):
        v = grid11.xi[0] * grid11.xi[1] * grid11.sqrt_mu
        f = TwoSpeciesField.from_species(grid11, v, 2.0 * v)
        theta, _ = _theta_lambda(f)
        np.testing.assert_allclose(theta, np.transpose(theta, (0, 2, 1)),
                                   atol=1e-14)

    def test_lambda_annihilates_macro_subspace(self, grid17):
        rng = np.random.default_rng(3)
        f = random_field(grid17, rng)
        _, pf, _ = project_P(f)
        _, lam = _theta_lambda(pf)
        np.testing.assert_allclose(lam, 0.0, atol=1e-8 * max(pf.norm(), 1.0))

    def test_theta_offdiag_annihilates_neutral_macro(self, grid17):
        # off-diagonal Theta sees the macro subspace only through a_pm
        smu = grid17.sqrt_mu
        xi = grid17.xi
        r2 = np.sum(xi ** 2, axis=0)
        shared = 0.7 * xi[0] - 0.2 * xi[2] + 0.4 * (r2 - 3.0)
        f = TwoSpeciesField.from_species(grid17, shared * smu, shared * smu)
        theta, _ = _theta_lambda(f)
        for i in range(3):
            for j in range(3):
                if i != j:
                    assert abs(theta[0, i, j]) < 1e-8


def _exact_derivative_frames(grid, op):
    """(k, f, E, frames): three frames u - d Mu, u, u + d Mu at spacing d = 0.1 around a
    smooth random state u = (f, E, k x E), so that their centered difference is exactly Mu."""
    rng = np.random.default_rng(6)
    k = np.array([0.3, -0.4, 0.6])
    f = smooth_random_field(grid, rng)
    E = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    u = ModeState(k, f, E, np.cross(k, E), 0.0)
    df, dE, dB = mode_rhs(u, op)
    d = 0.1
    frames = [ModeState(k, f + s * d * df, E + s * d * dE, u.Bhat + s * d * dB, (1 + s) * d)
              for s in (-1, 0, 1)]
    return k, f, E, frames


def _assert_matches_the_per_frame_form(frames, k, op):
    """macro_residuals against the residuals formed with L applied to every interior
    frame (one mode_rhs each), to 1e-13 of the largest right-hand-side moment."""
    rows = op.grid.moments.rows
    dt = frames[1].t - frames[0].t
    moms = np.array([s.fhat.values @ rows.T for s in frames])
    rhs = np.array([mode_rhs(replace(s, k=k), op)[0].values @ rows.T for s in frames[1:-1]])
    res = np.abs((moms[2:] - moms[:-2]) / (2.0 * dt) - rhs)
    tol = 1e-13 * np.abs(rhs).max()
    rep = macro_residuals(frames, k, op)
    for name, sl in _FAMILIES.items():
        want = res[:, :, sl].reshape(len(res), -1).max(axis=1)
        assert np.abs(rep.series[name] - want).max() <= tol, name
    assert abs(rep.max_residual - res.max()) <= tol
    assert abs(rep.l2_residual - np.sqrt(np.mean(res ** 2))) <= tol


def _macro_only_state(grid, k, b, c, t):
    smu = grid.sqrt_mu
    xi = grid.xi
    r2 = np.sum(xi ** 2, axis=0)
    shared = b[0] * xi[0] + b[1] * xi[1] + b[2] * xi[2] + c * (r2 - 3.0)
    f = TwoSpeciesField.from_species(grid, shared * smu, shared * smu)
    E = np.zeros(3, dtype=complex)
    B = np.zeros(3, dtype=complex)
    return ModeState(k, f, E, B, t)


class TestMacroResiduals:
    def test_zero_state_zero_residuals(self, grid11, op11):
        k = np.array([0.0, 0.0, 0.5])
        frames = [ModeState(k, TwoSpeciesField.zero(grid11),
                            np.zeros(3), np.zeros(3), t) for t in (0.0, 0.1, 0.2)]
        rep = macro_residuals(frames, k, op11)
        assert rep.max_residual == 0.0

    def test_needs_three_frames(self, grid11, op11):
        k = np.zeros(3)
        frames = [ModeState(k, TwoSpeciesField.zero(grid11), np.zeros(3), np.zeros(3), t)
                  for t in (0.0, 0.1)]
        with pytest.raises(ValueError):
            macro_residuals(frames, k, op11)

    def test_exact_derivative_frames_satisfy_every_law(self, grid11, op11):
        # frames u - d Mu, u, u + d Mu make the centered difference exactly Mu,
        # so any quadrature-vs-continuum mismatch in the laws would show here
        k, f, E, frames = _exact_derivative_frames(grid11, op11)
        rep = macro_residuals(frames, k, op11)
        scale = f.norm() + np.linalg.norm(E)
        for law in ("a", "b", "c", "theta", "lambda"):
            assert rep.family_max(law) <= 1e-11 * scale, law

    def test_matches_the_per_frame_form_on_a_midpoint_history(self, grid11, op11):
        k = np.array([0.0, 0.3, 0.4])
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        h = integrate_mode(init_data(cfg, k, grid11), stepper(dt=0.1, lin_tol=1e-10),
                           1.0, op11, sample_interval=0.1)
        _assert_matches_the_per_frame_form(h.frames, k, op11)

    def test_matches_the_per_frame_form_on_exact_derivative_frames(self, grid11, op11):
        k, _, _, frames = _exact_derivative_frames(grid11, op11)
        _assert_matches_the_per_frame_form(frames, k, op11)

    def test_lambda_law_reduces_for_stationary_macro(self, grid17, op17):
        # stationary macro-only frames with b != 0, E = 0: the only lambda-law
        # content is |i k_i c| (micro moments vanish, L annihilates Pf)
        k = np.array([0.0, 0.0, 0.8])
        b = np.array([0.3, 0.0, 0.5])
        c = 0.25
        frames = [_macro_only_state(grid17, k, b, c, t) for t in (0.0, 0.1, 0.2)]
        rep = macro_residuals(frames, k, op17)
        expected = abs(k[2] * c)
        assert rep.series["lambda"][0] == pytest.approx(expected, rel=1e-6)
