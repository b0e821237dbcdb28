import numpy as np
import pytest

from vmlandau import weights
from vmlandau.grid import TwoSpeciesField, build_grid, inner_product
from vmlandau.lab import ExperimentConfig, init_data
from vmlandau.mode import ModeState, integrate_mode
from vmlandau.weights import (EnergyRequest, WeightSpec, dissipation_norm, energy_ledger,
                              temporal_norm_x, weight_eval)

from conftest import random_field, stepper


class TestWeightSpec:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            WeightSpec(lam=-0.1)


class TestWeightEval:
    def test_unit_weight(self, params):
        spec = WeightSpec(tau=0.0, lam=0.0)
        xi = np.array([1.3, -0.2, 4.0])
        assert weight_eval(spec, 0.0, xi, params) == 1.0
        assert weight_eval(spec, 7.0, xi, params) == 1.0

    def test_origin_exponential_factor(self, params):
        spec = WeightSpec(tau=2.0, lam=0.1)
        for t in (0.0, 3.0):
            expected = np.exp(0.1 / (1.0 + t) ** 0.25)
            assert weight_eval(spec, t, np.zeros(3), params) == pytest.approx(expected, rel=1e-14)

    def test_closed_formula_value(self, params):
        # gamma=-3, tau=1: w = <xi>^(-1); at xi=(2,2,1): <xi>^2 = 10
        spec = WeightSpec(tau=1.0, lam=0.0)
        val = weight_eval(spec, 0.0, np.array([2.0, 2.0, 1.0]), params)
        assert val == pytest.approx(10.0 ** -0.5, rel=1e-14)

    def test_monotone_decreasing_in_time(self, params):
        spec = WeightSpec(tau=-1.0, lam=0.05)
        xi = np.array([1.0, 2.0, 0.5])
        ts = np.linspace(0.0, 20.0, 30)
        vals = [weight_eval(spec, t, xi, params) for t in ts]
        assert np.all(np.diff(vals) < 0.0)

    def test_negative_time_rejected(self, params):
        with pytest.raises(ValueError):
            weight_eval(WeightSpec(), -1.0, np.zeros(3), params)


class TestDissipationNorm:
    def test_zero_field(self, op11, grid11):
        assert dissipation_norm(TwoSpeciesField.zero(grid11), op11.sigma) == 0.0

    def test_quadratic_scaling(self, op11, grid11):
        rng = np.random.default_rng(0)
        f = random_field(grid11, rng)
        one = dissipation_norm(f, op11.sigma)
        four = dissipation_norm(2.0 * f, op11.sigma)
        assert four == pytest.approx(4.0 * one, rel=1e-12)

    def test_positive_for_nonzero(self, op11, grid11):
        rng = np.random.default_rng(1)
        f = random_field(grid11, rng)
        assert dissipation_norm(f, op11.sigma) > 0.0

    def test_reversed_summation_oracle(self, op11, grid11):
        """Independent second implementation, summing terms in reversed order."""
        from vmlandau.grid import velocity_gradient
        rng = np.random.default_rng(2)
        f = random_field(grid11, rng)
        got = dissipation_norm(f, op11.sigma)
        g = grid11
        grads = [velocity_gradient(f, i + 1).values for i in range(3)]
        terms = []
        for i in range(2, -1, -1):
            for j in range(2, -1, -1):
                sij = op11.sigma.component(i, j)
                gg = (grads[i] * np.conj(grads[j])).real.sum(axis=0)
                ff = (f.values * np.conj(f.values)).real.sum(axis=0)
                terms.append(np.sum((g.weights * sij * gg)[::-1]))
                terms.append(np.sum((g.weights * sij
                                     * 0.25 * g.xi[i] * g.xi[j] * ff)[::-1]))
        oracle = float(np.sum(sorted(terms)))
        assert got == pytest.approx(oracle, rel=1e-12)


class TestEnergyLedger:
    def _state(self, grid, values, k=(0.0, 0.0, 1.0), E=None, B=None):
        E = np.zeros(3, dtype=complex) if E is None else np.asarray(E, dtype=complex)
        B = np.zeros(3, dtype=complex) if B is None else np.asarray(B, dtype=complex)
        return ModeState(np.asarray(k, dtype=float), TwoSpeciesField(values, grid), E, B, 0.0)

    def test_zero_state(self, op11, grid11):
        st = self._state(grid11, np.zeros((2, grid11.size), dtype=complex))
        led = energy_ledger(st, EnergyRequest(N=1, ell=2.0), 0.0, op11)
        assert led.energy == 0.0

    def test_maxwell_vacuum_reduces_to_field_terms(self, op11, grid11):
        E = np.array([0.0, 1.0, 0.5j])
        B = np.array([0.2, 0.0, 0.0])
        st = self._state(grid11, np.zeros((2, grid11.size), dtype=complex), E=E, B=B)
        N = 2
        led = energy_ledger(st, EnergyRequest(N=N, ell=2.0), 0.0, op11)
        em = float(np.sum(np.abs(E) ** 2 + np.abs(B) ** 2))
        from vmlandau.weights import _k_power_sq, _multi_indices
        expected = sum(_k_power_sq(st.k, alpha) * em
                       for a in range(N + 1) for alpha in _multi_indices(a))
        assert led.energy == pytest.approx(expected, rel=1e-13)
        assert sum(led.energy_terms.values()) == 0.0

    def test_lambda_requires_ell_at_least_N(self):
        with pytest.raises(ValueError):
            EnergyRequest(N=3, ell=2.0, lam=0.1)
        EnergyRequest(N=2, ell=2.0, lam=0.1)

    def test_lambda_ledger_dominates_unweighted(self, op11, grid11):
        rng = np.random.default_rng(4)
        f = random_field(grid11, rng, decay=0.75)
        st = self._state(grid11, f.values)
        req0 = EnergyRequest(N=1, ell=2.0, lam=0.0)
        req1 = EnergyRequest(N=1, ell=2.0, lam=0.05)
        led0 = energy_ledger(st, req0, 0.0, op11)
        led1 = energy_ledger(st, req1, 0.0, op11)
        for key, val in led0.energy_terms.items():
            assert led1.energy_terms[key] >= val * (1.0 - 1e-12)

    def test_norm_consistency_with_inner_product(self, op11, grid11):
        rng = np.random.default_rng(5)
        f = random_field(grid11, rng)
        st = self._state(grid11, f.values, k=(0.0, 0.0, 0.0))
        led = energy_ledger(st, EnergyRequest(N=0, ell=0.0), 0.0, op11)
        base = led.energy_terms[((0, 0, 0), (0, 0, 0))]
        assert base == pytest.approx(inner_product(f, f).real, rel=1e-14)

    def test_unweighted_ledger_is_the_history_energy(self, op9):
        # the benchmark's ledger check: E, B and k nonzero, bound 1e-12 relative
        cfg = ExperimentConfig(R=op9.grid.R, n=9, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 0.5], op9.grid)
        assert np.abs(st.Ehat).max() > 0.0 and np.abs(st.Bhat).max() > 0.0
        h = integrate_mode(st, stepper(dt=0.02, scheme="imex-euler", lin_tol=1e-8), 0.1,
                           op9, sample_interval=0.02)
        assert np.abs(h.frames[-1].Bhat).max() > 0.0
        for frame in h.frames:
            step = int(np.flatnonzero(h.times == frame.t)[0])
            ledger = energy_ledger(frame, EnergyRequest(N=0, ell=0.0, lam=0.0), frame.t, op9)
            assert abs(ledger.energy - h.energy[step]) <= 1e-12 * abs(h.energy[step])


def test_temporal_norm_x_is_monotone(op11, grid11):
    rng = np.random.default_rng(7)
    states = []
    for t in (0.0, 1.0, 2.0):
        f = random_field(grid11, rng, decay=0.75)
        states.append(ModeState(np.array([0.0, 0.0, 0.5]), f,
                                rng.standard_normal(3) + 0j,
                                rng.standard_normal(3) + 0j, t))
    series = temporal_norm_x(states, [0.0, 1.0, 2.0], op11)
    assert series.shape == (3,)
    assert np.all(np.diff(series) >= 0.0)
    assert np.all(series > 0.0)


def test_temporal_norm_x_equals_the_ledger_formula(op11, grid11):
    """X(t) bit for bit against the seven energy ledgers plus the field-gradient term."""
    rng = np.random.default_rng(8)
    k = np.array([0.3, -0.2, 0.4])
    times = [0.0, 0.5, 1.5]
    states = [ModeState(k, random_field(grid11, rng, decay=0.75),
                        rng.standard_normal(3) + 1j * rng.standard_normal(3),
                        rng.standard_normal(3) + 1j * rng.standard_normal(3), t)
              for t in times]
    w = weights

    def E(state, t, N, ell, lam):
        return energy_ledger(state, EnergyRequest(N=N, ell=ell, lam=lam), t, op11).energy

    parts = []
    for state, t in zip(states, times):
        s = 1.0 + t
        val = (E(state, t, w.X_N1, 0.0, 0.0)
               + s ** 1.5 * E(state, t, w.X_N1 - 2, 0.0, 0.0)
               + s ** (-(1.0 + w.X_EPS0) / 2.0) * E(state, t, w.X_N1, w.X_ELL1, w.X_LAM0)
               + E(state, t, w.X_N1 - 1, w.X_ELL1, w.X_LAM0)
               + s ** 1.5 * E(state, t, w.X_N1 - 3, w.X_ELL1 - 1.0, w.X_LAM0)
               + E(state, t, w.X_N0, w.X_ELL0, w.X_LAM0)
               + s ** 1.5 * E(state, t, w.X_N0, w.X_ELL0 - 1.0, w.X_LAM0))
        em_sq = float(np.sum(np.abs(state.Ehat) ** 2 + np.abs(state.Bhat) ** 2))
        ksq = float(k @ k)
        # the |alpha| < X_N0 = 2 spatial orders: alpha = 0, then e3, e2, e1
        em_grad = ksq * em_sq
        for kfac in (k[2] ** 2, k[1] ** 2, k[0] ** 2):
            em_grad += float(kfac) * ksq * em_sq
        val += s ** (2.0 * (1.0 + w.THETA)) * em_grad
        parts.append(val)
    assert np.array_equal(temporal_norm_x(states, times, op11),
                          np.maximum.accumulate(np.array(parts)))


def test_ledger_and_x_refuse_times_that_are_not_the_states(op11, grid11):
    rng = np.random.default_rng(9)
    states = [ModeState(np.array([0.0, 0.0, 0.5]), random_field(grid11, rng, decay=0.75),
                        np.zeros(3, dtype=complex), np.zeros(3, dtype=complex), t)
              for t in (0.0, 0.5, 1.0)]
    req = EnergyRequest(N=0, ell=0.0, lam=0.0)
    with pytest.raises(ValueError, match="not the state's time"):
        energy_ledger(states[1], req, 0.0, op11)
    with pytest.raises(ValueError, match="not the states' times"):
        temporal_norm_x(states, [0.0, 5.5, 6.0], op11)   # shifted
    with pytest.raises(ValueError, match="not the states' times"):
        temporal_norm_x(states, [0.0, 0.5], op11)        # short: the last state was dropped
    assert energy_ledger(states[1], req, 0.5, op11).energy > 0.0
    assert temporal_norm_x(states, [0.0, 0.5, 1.0], op11).shape == (3,)
