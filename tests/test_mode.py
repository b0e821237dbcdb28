import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

from vmlandau.checkpoint import CheckpointWriter, read_checkpoint
from vmlandau.collision import assemble_L
from vmlandau.grid import TwoSpeciesField, build_grid, inner_product
from vmlandau import mode
from vmlandau.macro import macro_residuals, project_P
from vmlandau.mode import (ModeState, StepperConfig, energy_identity_check,
                           integrate_mode, mode_energy_report, mode_rhs,
                           rho_frequency)

from conftest import random_field

_SRC = os.path.dirname(os.path.dirname(os.path.abspath(mode.__file__)))


def _zero_state(grid, k):
    return ModeState(np.asarray(k, dtype=float), TwoSpeciesField.zero(grid),
                     np.zeros(3, dtype=complex), np.zeros(3, dtype=complex), 0.0)


def _neutral_macro_state(grid, k, b=(0.2, 0.0, 0.4), c=0.3, a=0.5):
    smu = grid.sqrt_mu
    xi = grid.xi
    r2 = np.sum(xi ** 2, axis=0)
    shared = b[0] * xi[0] + b[1] * xi[1] + b[2] * xi[2] + c * (r2 - 3.0)
    f = TwoSpeciesField.from_species(grid, (a + shared) * smu, (a + shared) * smu)
    return ModeState(np.asarray(k, dtype=float), f, np.zeros(3, dtype=complex),
                     np.zeros(3, dtype=complex), 0.0)


def _micro_state(grid, k, amp=1.0):
    xi = grid.xi
    smu = grid.sqrt_mu
    raw = TwoSpeciesField.from_species(
        grid, amp * (xi[0] * xi[1] + 0.4 * xi[2]) * smu,
        amp * (xi[1] * xi[2] - 0.3 * xi[0]) * smu)
    _, _, micro = project_P(raw)
    return ModeState(np.asarray(k, dtype=float), micro, np.zeros(3, dtype=complex),
                     np.zeros(3, dtype=complex), 0.0)


class TestRhoFrequency:
    def test_unit_k(self):
        assert rho_frequency([1.0, 0, 0]) == pytest.approx(0.25, rel=1e-15)

    def test_zero_k(self):
        assert rho_frequency([0.0, 0, 0]) == 0.0

    def test_decays_at_both_ends(self):
        rhos = [rho_frequency([0.0, 0.0, kz]) for kz in (0.05, 1.0, 8.0)]
        assert rhos[1] > rhos[0] and rhos[1] > rhos[2]


class TestModeRhs:
    def test_neutral_null_state_is_stationary(self, op11, grid11):
        st = _neutral_macro_state(grid11, [0.0, 0.0, 0.0])
        df, dE, dB = mode_rhs(st, op11)
        assert df.norm() < 1e-12 * st.fhat.norm()
        np.testing.assert_allclose(dE, 0.0, atol=1e-13)
        np.testing.assert_allclose(dB, 0.0, atol=1e-13)

    def test_vacuum_maxwell_cross_products(self, op11, grid11):
        st = ModeState(np.array([1.0, 0, 0]), TwoSpeciesField.zero(grid11),
                       np.array([0, 1.0, 0], dtype=complex),
                       np.array([0, 0, 1.0], dtype=complex), 0.0)
        df, dE, dB = mode_rhs(st, op11)
        assert df.norm() > 0.0   # E couples into the kinetic equation
        np.testing.assert_allclose(dE, 1j * np.array([0, -1.0, 0]), atol=1e-14)
        np.testing.assert_allclose(dB, -1j * np.array([0, 0, 1.0]), atol=1e-14)

    def test_matches_species_form_equations(self, op11, grid11):
        # the species equations written out directly, independent of the solver's
        # sum/difference form: guards its factors of 2 on K and sqrt2 on the coupling
        rng = np.random.default_rng(11)
        g = grid11
        k = np.array([0.3, -0.2, 0.5])
        f = random_field(g, rng)
        E = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        B = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        df, dE, dB = mode_rhs(ModeState(k, f, E, B, 0.0), op11)
        xik = g.xi[0] * k[0] + g.xi[1] * k[1] + g.xi[2] * k[2]
        Exi = g.xi[0] * E[0] + g.xi[1] * E[1] + g.xi[2] * E[2]
        want_f = (-1j * xik * f.values - op11.apply_raw(f.values)
                  + np.array([[1.0], [-1.0]]) * Exi * g.sqrt_mu)
        current = np.sum(g.weights * g.sqrt_mu * g.xi * (f.values[0] - f.values[1]), axis=1)
        want_E = 1j * np.cross(k, B) - current
        want_B = -1j * np.cross(k, E)
        for got, want in ((df.values, want_f), (dE, want_E), (dB, want_B)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_noncollisional_part_is_energy_skew(self, op11, grid11):
        rng = np.random.default_rng(0)
        for _ in range(3):
            f = random_field(grid11, rng)
            st = ModeState(np.array([0.3, -0.7, 0.5]), f,
                           rng.standard_normal(3) + 1j * rng.standard_normal(3),
                           rng.standard_normal(3) + 1j * rng.standard_normal(3), 0.0)
            df, dE, dB = mode_rhs(st, op11)
            skew = df + op11.apply(st.fhat)   # remove the collisional part
            pairing = (inner_product(skew, st.fhat)
                       + np.sum(dE * np.conj(st.Ehat)) + np.sum(dB * np.conj(st.Bhat)))
            scale = (st.fhat.norm() ** 2 + np.sum(np.abs(st.Ehat) ** 2)
                     + np.sum(np.abs(st.Bhat) ** 2))
            assert abs(pairing.real) < 1e-12 * scale

    def test_builds_no_preconditioner(self, op11, grid11, monkeypatch):
        # a D-ILU costs tens of ms at n = 17; the diagnostics evaluate M many times
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        k = np.array([0.0, 0.3, 0.4])
        frames = integrate_mode(init_data(cfg, k, grid11), StepperConfig(dt=0.1), 0.3, op11,
                                sample_interval=0.1).frames

        def refuse(*args):
            raise AssertionError("D-ILU built")

        monkeypatch.setattr(mode, "_DiagonalILU", refuse)
        with pytest.raises(AssertionError, match="D-ILU built"):   # the patch is live
            integrate_mode(frames[0], StepperConfig(dt=0.1), 0.1, op11)
        mode_rhs(frames[-1], op11)
        macro_residuals(frames, k, op11)


class TestIntegrateMode:
    def test_zero_state_stays_zero(self, op11, grid11):
        h = integrate_mode(_zero_state(grid11, [0, 0, 1.0]),
                           StepperConfig(dt=0.1), 1.0, op11)
        assert np.all(h.energy == 0.0)
        assert h.frames[-1].fhat.norm() == 0.0

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_vacuum_maxwell_conservation_and_rotation(self, op11, grid11, scheme):
        # decoupled Maxwell subsystem u' = A u on (E1, E2, B1, B2): a step is the
        # rational map R(dt A), (I - dt A)^-1 for imex-euler and the Cayley
        # factor (I - dt/2 A)^-1 (I + dt/2 A) for imex-midpoint, to the solver
        # tolerance.  Midpoint conserves |E|^2 + |B|^2 and follows the
        # closed-form rotation at second order; euler loses energy every step.
        k = np.array([0.0, 0.0, 1.0])
        E0 = np.array([1.0, 0.5j, 0.0])
        B0 = np.cross(k, E0)
        st = ModeState(k, TwoSpeciesField.zero(grid11), E0, B0, 0.0)
        T, dt, lin_tol = 5.0, 0.01, 1e-13
        h = integrate_mode(st, StepperConfig(dt=dt, scheme=scheme, lin_tol=lin_tol), T, op11,
                           couple_kinetic=False)
        kz = k[2]
        # dE = i k x B; dB = -i k x E with all z-components zero
        A = np.array([[0, 0, 0, -1j * kz],
                      [0, 0, 1j * kz, 0],
                      [0, 1j * kz, 0, 0],
                      [-1j * kz, 0, 0, 0]], dtype=complex)
        assert np.allclose(A, -A.conj().T)
        eye = np.eye(4)
        if scheme == "imex-euler":
            R = np.linalg.solve(eye - dt * A, eye)
        else:
            R = np.linalg.solve(eye - 0.5 * dt * A, eye + 0.5 * dt * A)
        nsteps = len(h.times) - 1
        u0 = np.array([E0[0], E0[1], B0[0], B0[1]])
        got = np.concatenate([h.frames[-1].Ehat[:2], h.frames[-1].Bhat[:2]])
        # each step's solve errs by at most lin_tol |u^n| (twice that for
        # midpoint's 2x - u^n), and R is a contraction
        discrete = np.linalg.matrix_power(R, nsteps) @ u0
        assert np.abs(got - discrete).max() <= 2 * nsteps * lin_tol * np.abs(u0).max()
        if scheme == "imex-euler":
            assert np.all(np.diff(h.energy) < 0.0)
        else:
            drift = np.abs(h.energy - h.energy[0]).max()
            assert drift < 1e-10 * h.energy[0] * T
            exact = scipy.linalg.expm(A * T) @ u0
            assert np.abs(got - exact).max() < 5.0 * dt ** 2 * T * np.abs(u0).max()

    def test_micro_only_data_monotone_strict_decay(self, op11, grid11):
        st = _micro_state(grid11, [0.0, 0.0, 0.0])
        h = integrate_mode(st, StepperConfig(dt=0.05, lin_tol=1e-11), 2.0, op11)
        assert np.all(np.diff(h.energy) < 0.0)

    def test_energy_identity_and_order(self, op11, grid11):
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 0.5], grid11)
        residuals = {}
        for dt in (0.08, 0.04):
            h = integrate_mode(st, StepperConfig(dt=dt, lin_tol=1e-12), 4.0, op11)
            rep = energy_identity_check(h)
            residuals[dt] = rep.relative_cumulative
            assert rep.max_step_increase <= 1e-8 * rep.initial_energy
        # imex-midpoint is second order: halving dt cuts the residual ~4x
        assert residuals[0.04] < residuals[0.08] / 3.0

    @pytest.mark.parametrize("dt, lin_tol", [(0.25, 1e-8), (2.0, 1e-11)])
    def test_midpoint_steps_solve_the_midpoint_equation(self, op11, grid11, dt, lin_tol):
        # u* = (u^n + u^{n+1})/2 solves u* - (dt/2) M u* = u^n, with M from
        # mode_rhs, which test_matches_species_form_equations ties to the
        # species equations
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.3, 0.4], grid11)
        h = integrate_mode(st, StepperConfig(dt=dt, lin_tol=lin_tol), 4 * dt, op11,
                           sample_interval=dt)
        assert len(h.frames) == 5
        eps = np.finfo(float).eps
        for s0, s1 in zip(h.frames, h.frames[1:]):
            star = ModeState(s0.k, TwoSpeciesField(0.5 * (s0.fhat.values + s1.fhat.values),
                                                   grid11),
                             0.5 * (s0.Ehat + s1.Ehat), 0.5 * (s0.Bhat + s1.Bhat), s0.t)
            df, dE, dB = mode_rhs(star, op11)
            a_m = 0.5 * dt * np.concatenate([df.values.reshape(-1), dE, dB])
            u0, u_star = s0.flat(), star.flat()
            residual = np.linalg.norm(u_star - a_m - u0)
            # GMRES stops at lin_tol |u^n| on the true residual; forming u^{n+1}
            # and u* back from the solution and evaluating M add roundoff
            roundoff = 1e3 * eps * (np.linalg.norm(u_star) + np.linalg.norm(a_m))
            assert residual <= lin_tol * np.linalg.norm(u0) + roundoff

    def test_imex_euler_first_order(self, op11, grid11):
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 0.5], grid11)
        residuals = {}
        for dt in (0.04, 0.02):
            h = integrate_mode(st, StepperConfig(dt=dt, scheme="imex-euler",
                                                 lin_tol=1e-12), 2.0, op11)
            rep = energy_identity_check(h)
            residuals[dt] = rep.relative_cumulative
        assert residuals[0.02] < residuals[0.04] / 1.5

    @pytest.mark.parametrize("family", ["maxwell-vacuum", "mixed"])
    def test_imex_euler_energy_never_rises(self, op9, family):
        # an explicit field update multiplies the Maxwell energy by
        # 1 + |k|^2 dt^2 a step; backward Euler lowers it at any dt
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=op9.grid.R, n=9, family=family, shells=(5.0,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 5.0], op9.grid)
        h = integrate_mode(st, StepperConfig(dt=0.02, scheme="imex-euler", lin_tol=1e-8), 2.0,
                           op9)
        assert np.all(np.diff(h.energy) <= 0.0)

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_gauss_residual_propagation(self, op11, grid11, scheme):
        # i k.E - charge is a linear invariant of both blocks, so each scheme
        # holds it to the solver tolerance
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 0.5], grid11)
        T = 5.0
        h = integrate_mode(st, StepperConfig(dt=0.05, scheme=scheme, lin_tol=1e-12), T, op11)
        assert h.gauss_E.max() <= h.gauss_E[0] + 1e-8 * T
        assert h.gauss_B.max() <= 1e-12

    def test_k_zero_rejects_charged_data(self, op11, grid11):
        smu = grid11.sqrt_mu
        f = TwoSpeciesField.from_species(grid11, smu, np.zeros_like(smu))
        st = ModeState(np.zeros(3), f, np.zeros(3, dtype=complex),
                       np.zeros(3, dtype=complex), 0.0)
        with pytest.raises(ValueError):
            integrate_mode(st, StepperConfig(dt=0.1), 1.0, op11)

    def test_gauss_violating_data_rejected(self, op11, grid11):
        st = _zero_state(grid11, [0.0, 0.0, 1.0])
        st.Ehat = np.array([0.0, 0.0, 1.0], dtype=complex)  # i k.E != 0, no charge
        with pytest.raises(ValueError):
            integrate_mode(st, StepperConfig(dt=0.1, constraint_tol=1e-8), 1.0, op11)


class TestSolverGuards:
    def test_T_not_a_multiple_of_dt_rejected(self, op11, grid11):
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="not a whole number of steps"):
            integrate_mode(st, StepperConfig(dt=0.3), 1.0, op11)

    @pytest.mark.parametrize("kwargs, message", [
        ("sample_interval=0.0", "frames [0.0, 0.2] records [0.0, 0.2]"),
        ("checkpoint_interval=0.0", "frames [0.0, 0.2] records [0.0, 0.2]"),
        ("sample_interval=-0.5", "sample_interval = -0.5 must not be negative"),
        ("checkpoint_interval=-0.5", "checkpoint_interval = -0.5 must not be negative"),
    ])
    def test_interval_that_cannot_advance_is_rejected(self, tmp_path, kwargs, message):
        # a child process, so that an interval loop that never ends fails the
        # test on its timeout instead of hanging the suite; 0 keeps the first
        # and the last state
        code = textwrap.dedent(f"""
            import numpy as np
            from vmlandau.checkpoint import CheckpointWriter, read_checkpoint
            from vmlandau.collision import CollisionParams, assemble_L
            from vmlandau.grid import TwoSpeciesField, build_grid
            from vmlandau.mode import ModeState, StepperConfig, integrate_mode
            g = build_grid(6.0, 5)
            op = assemble_L(g, CollisionParams(gamma=-3.0, c_phi=1.0))
            st = ModeState(np.array([0.0, 0.0, 1.0]), TwoSpeciesField.zero(g),
                           np.zeros(3, dtype=complex), np.zeros(3, dtype=complex), 0.0)
            path = {str(tmp_path / "m.ckpt")!r}
            with CheckpointWriter(path, g, -3.0, 1.0) as w:
                try:
                    h = integrate_mode(st, StepperConfig(dt=0.1), 0.2, op, checkpoint=w, {kwargs})
                except ValueError as exc:
                    print(exc)
                    raise SystemExit
            print("frames", [s.t for s in h.frames],
                  "records", [s.t for s in read_checkpoint(path, g).states])
            """)
        try:
            out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                                 timeout=60, env={**os.environ, "PYTHONPATH": _SRC})
        except subprocess.TimeoutExpired:
            pytest.fail(f"integrate_mode(..., {kwargs}) did not return within 60 s")
        assert out.returncode == 0, out.stderr
        assert message in out.stdout

    def test_negative_T_raises_the_steps_message(self, op11, grid11):
        with pytest.raises(ValueError, match=r"T = -1\.0 must not be negative"):
            integrate_mode(_zero_state(grid11, [0.0, 0.0, 1.0]), StepperConfig(dt=0.1), -1.0,
                           op11)

    def test_long_run_keeps_every_sample_and_record(self, params, tmp_path):
        # 7,430 steps of dt = 0.1: sample times summed in floating point drift
        # and drop one; step indices cannot
        g = build_grid(6.0, 3)
        op = assemble_L(g, params)
        path = tmp_path / "m.ckpt"
        with CheckpointWriter(path, g, -3.0, 1.0) as w:
            h = integrate_mode(_zero_state(g, [0.0, 0.0, 1.0]), StepperConfig(dt=0.1), 743.0,
                               op, sample_interval=0.1, checkpoint=w, checkpoint_interval=0.1)
        want = [step * 0.1 for step in range(7431)]
        assert [s.t for s in h.frames] == want
        assert [s.t for s in read_checkpoint(path, g).states] == want

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_gmres_failure_reports_residual_and_iterations(self, op11, grid11, monkeypatch,
                                                            scheme):
        # a zero preconditioner gives GMRES no direction, so no iterate lowers the residual
        monkeypatch.setattr(mode._ModeSolve, "precondition",
                            lambda self, x: np.zeros_like(x))
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        cfg = StepperConfig(dt=0.1, scheme=scheme, lin_tol=1e-8)
        with pytest.raises(RuntimeError) as err:
            integrate_mode(st, cfg, 0.1, op11)
        # the sum block fails first; its iterate stays at the guess s, and
        # rhs - (I - aG) s = a G s, with G s the species sum of mode_rhs over sqrt2
        df, _, _ = mode_rhs(st, op11)
        f = st.fhat.values
        want = (cfg.implicit_weight() * np.linalg.norm(df.values[0] + df.values[1])
                / np.linalg.norm(f[0] + f[1]))
        got = re.fullmatch(r"implicit solve failed to converge: relative residual (\S+) "
                           r"against rtol 1\.0e-08 after 200 iterations", str(err.value))
        assert got is not None, str(err.value)
        assert float(got.group(1)) == pytest.approx(want, rel=1e-3)
        assert want > 1e-3

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_every_K_application_is_an_iteration_or_the_state_one(self, op11, grid11,
                                                                  monkeypatch, scheme):
        from vmlandau._conv import LatticeConvolver
        pre_calls = [0]
        last_z = [None]
        on_z = [0]
        conv_calls = [0]
        precondition = mode._ModeSolve.precondition
        k_part = type(op11).k_part
        apply_vector = LatticeConvolver.apply_vector

        def counted_precondition(self, x):
            pre_calls[0] += 1
            last_z[0] = precondition(self, x)
            return last_z[0]

        def counted_k_part(self, h):
            on_z[0] += h is last_z[0]
            return k_part(self, h)

        def counted_apply_vector(self, v3):
            conv_calls[0] += 1
            return apply_vector(self, v3)

        monkeypatch.setattr(mode._ModeSolve, "precondition", counted_precondition)
        monkeypatch.setattr(type(op11), "k_part", counted_k_part)
        monkeypatch.setattr(LatticeConvolver, "apply_vector", counted_apply_vector)
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        h = integrate_mode(st, StepperConfig(dt=0.1, scheme=scheme, lin_tol=1e-8), 0.3, op11)
        steps = len(h.times) - 1
        assert pre_calls[0] == h.solve_iters.sum()
        s_calls = h.solve_iters[:, 0].sum()
        assert s_calls >= steps
        assert conv_calls[0] == s_calls + steps + 1
        # each K inside a solve acts on the vector its ILU solve just returned
        assert on_z[0] == s_calls


class TestBlockSolver:
    def _sum_solver(self, op, a, lin_tol=1e-8):
        solver = mode._ModeSolve(op, np.array([0.0, 0.3, 0.4]), a, lin_tol, mode._SQRT2)
        return solver, solver.sum_block

    def _counted(self, monkeypatch, solver):
        calls = [0]
        precondition = solver.precondition

        def counted(x):
            calls[0] += 1
            return precondition(x)

        monkeypatch.setattr(solver, "precondition", counted)
        return calls

    def test_restarted_solve_meets_tolerance_on_true_residual(self, op9, monkeypatch):
        a = 2.0
        solver, gen = self._sum_solver(op9, a)
        calls = self._counted(monkeypatch, solver)
        rng = np.random.default_rng(7)
        n3 = op9.grid.size
        rhs = rng.standard_normal(n3) + 1j * rng.standard_normal(n3)
        guess = 0.5 * rhs
        for restart in (50, 3):
            for gen_guess in (None, gen(guess)):
                calls[0] = 0
                x, iters, relres = solver.solve(gen, rhs, guess, gen_guess, restart=restart)
                res = np.linalg.norm(rhs - (x - a * gen(x)))
                assert res <= 1e-8 * np.linalg.norm(rhs)
                assert iters == calls[0]
                assert relres <= 1e-8
                if restart == 3:
                    assert calls[0] > restart   # needed at least one restart cycle

    def test_zero_rhs_returns_zeros_without_iterating(self, op9, monkeypatch):
        solver, _ = self._sum_solver(op9, 0.5)
        calls = self._counted(monkeypatch, solver)
        zero = np.zeros(op9.grid.size, dtype=complex)
        x, iters, relres = solver.solve(None, zero, zero)   # any application would raise
        assert calls[0] == 0
        assert np.array_equal(x, zero) and (iters, relres) == (0, 0.0)


class TestDiagonalILU:
    k = np.array([0.3, -0.2, 0.5])

    def _parts(self, op, a):
        """The D-ILU, its factors P assembled explicitly, and M = I + a (A + i xi.k)."""
        xik = mode._xi_dot(op.grid, self.k)
        ilu = mode._DiagonalILU(op.A_sparse, a, xik)
        D = sp.diags_array(ilu.d)
        P = ((D + a * sp.tril(op.A_sparse, k=-1)) @ sp.diags_array(1.0 / ilu.d)
             @ (D + a * sp.triu(op.A_sparse, k=1)))
        M = sp.identity(op.grid.size) + a * (op.A_sparse + 1j * sp.diags_array(xik))
        return ilu, P, M

    @pytest.mark.parametrize("a", [0.125, 2.0])
    def test_solve_inverts_the_assembled_factors(self, op11, a):
        ilu, P, _ = self._parts(op11, a)
        rng = np.random.default_rng(3)
        x = rng.standard_normal(op11.grid.size) + 1j * rng.standard_normal(op11.grid.size)
        assert np.linalg.norm(P @ ilu.solve(x) - x) <= 1e-12 * np.linalg.norm(x)

    @pytest.mark.parametrize("a", [0.125, 2.0])
    def test_diagonal_of_P_is_diagonal_of_M(self, op11, a):
        _, P, M = self._parts(op11, a)
        m = M.diagonal()
        assert np.abs(P.diagonal() - m).max() <= 1e-14 * np.abs(m).max()

    def test_pivots_stay_in_the_right_half_plane_at_large_a(self, op11):
        ilu, _, M = self._parts(op11, 100.0)
        # measured 0.709 on this grid
        assert ilu.d.real.min() >= 0.64 * np.abs(M.diagonal()).min()

    def test_unsettled_diagonal_raises(self, op11, monkeypatch):
        monkeypatch.setattr(mode, "_MAX_SWEEPS", 1)
        with pytest.raises(RuntimeError, match="not settled after 1 sweeps"):
            self._parts(op11, 0.125)


class TestFieldClosure:
    @pytest.mark.parametrize("couple", [mode._SQRT2, 0.0])
    def test_precondition_inverts_the_difference_block_matrix(self, op9, couple):
        # P is I - a G_d with the D-ILU P_d in place of its kinetic block
        # M_d = I + a (A + i xi.k): P z = z - a G_d z + (P_d - M_d) z_d
        a = 0.5
        solver = mode._ModeSolve(op9, np.array([0.3, -0.2, 0.5]), a, 1e-8, couple)
        n3 = op9.grid.size
        ilu, A = solver.ilu, op9.A_sparse
        D = sp.diags_array(ilu.d)
        P_d = ((D + a * sp.tril(A, k=-1)) @ sp.diags_array(1.0 / ilu.d)
               @ (D + a * sp.triu(A, k=1)))
        M_d = sp.identity(n3) + a * (A + 1j * sp.diags_array(solver.xik))
        rng = np.random.default_rng(11)
        x = rng.standard_normal(n3 + 6) + 1j * rng.standard_normal(n3 + 6)
        z = solver.precondition(x)
        Pz = z - a * solver.diff_block(z)
        Pz[:n3] += (P_d - M_d) @ z[:n3]
        assert np.linalg.norm(Pz - x) <= 1e-12 * np.linalg.norm(x)

    def test_sum_block_keeps_the_plain_d_ilu(self, op9):
        solver = mode._ModeSolve(op9, np.array([0.3, -0.2, 0.5]), 0.5, 1e-8, mode._SQRT2)
        x = np.random.default_rng(12).standard_normal(op9.grid.size).astype(complex)
        assert np.array_equal(solver.precondition(x), solver.ilu.solve(x))


class TestPreconditionerQuality:
    @pytest.fixture(scope="class")
    def op13(self, params):
        return assemble_L(build_grid(7.0, 13), params)

    @pytest.mark.parametrize("n, scheme, dt, T, kz, parent_calls", [
        # parent_calls: precondition calls of the threshold ILU (drop_tol 1e-3,
        # fill_factor 12) that D-ILU replaced, on the same run; the euler row
        # was measured with imex-euler as backward Euler on both blocks
        (13, "imex-midpoint", 0.25, 1.0, 0.25, 44),
        (13, "imex-midpoint", 0.25, 1.0, 1.0, 44),
        (17, "imex-euler", 0.02, 0.2, 0.5, 70),
    ])
    def test_iterations_within_the_threshold_ilu_counts(self, request, monkeypatch, params,
                                                        n, scheme, dt, T, kz, parent_calls):
        from vmlandau.lab import ExperimentConfig, init_data
        op = request.getfixturevalue("op13" if n == 13 else "op17")
        calls = [0]
        precondition = mode._ModeSolve.precondition

        def counted(self, x):
            calls[0] += 1
            return precondition(self, x)

        monkeypatch.setattr(mode._ModeSolve, "precondition", counted)
        cfg = ExperimentConfig(R=op.grid.R, n=n, family="mixed", shells=(kz,), outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, kz], op.grid)
        h = integrate_mode(st, StepperConfig(dt=dt, scheme=scheme, lin_tol=1e-8), T, op)
        assert calls[0] <= parent_calls
        assert h.solve_iters.shape == h.solve_residual.shape == (len(h.times) - 1, 2)
        assert h.solve_iters.sum() == calls[0]
        # the difference block, its field entries closed by precondition; passing
        # them through the D-ILU took 4 an euler step and 6 a midpoint step
        assert h.solve_iters[:, 1].max() <= (2 if scheme == "imex-euler" else 4)
        assert np.all(h.solve_residual <= 1e-8)


class TestMacroResidualConvergence:
    def test_balance_laws_converge_first_order(self, op11, grid11):
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        k = np.array([0.0, 0.0, 0.5])
        st = init_data(cfg, k, grid11)
        res = {}
        for dt in (0.08, 0.04):
            h = integrate_mode(st, StepperConfig(dt=dt, lin_tol=1e-12), 1.6, op11,
                               sample_interval=dt)
            res[dt] = macro_residuals(h.frames, k, op11)
        for law in ("a", "b", "c", "theta", "lambda"):
            coarse = res[0.08].family_max(law)
            fine = res[0.04].family_max(law)
            floor = 1e-9
            if coarse > floor:
                assert fine < coarse / 1.8, law


class TestModeEnergyReport:
    def test_rho_attached_and_macro_only_micro_terms_vanish(self, op11, grid11):
        st = _neutral_macro_state(grid11, [0.0, 0.0, 1.0])
        h = integrate_mode(st, StepperConfig(dt=0.1, lin_tol=1e-11), 0.2, op11,
                           sample_interval=0.1)
        rep = mode_energy_report(h, 0.0, op11)
        assert rep.rho == pytest.approx(0.25, rel=1e-12)
        assert rep.micro_D[0] <= 1e-10 * rep.f_l2sq[0]

    def test_weighted_columns_present(self, op11, grid11):
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        h = integrate_mode(st, StepperConfig(dt=0.1, lin_tol=1e-10), 0.3, op11,
                           sample_interval=0.1)
        rep = mode_energy_report(h, 2.0, op11)
        assert rep.ell == 2.0


class TestCheckpoint:
    def test_bit_exact_round_trip(self, grid11, tmp_path):
        rng = np.random.default_rng(1)
        path = tmp_path / "mode.ckpt"
        states = []
        with CheckpointWriter(path, grid11, -3.0, 1.0) as w:
            for t in (0.0, 1.0):
                st = ModeState(np.array([0.0, 0.5, 0.25]),
                               random_field(grid11, rng),
                               rng.standard_normal(3) + 1j * rng.standard_normal(3),
                               rng.standard_normal(3) + 1j * rng.standard_normal(3), t)
                w.append(st)
                states.append(st)
        ck = read_checkpoint(path, grid11)
        assert ck.gamma == -3.0 and ck.n == grid11.n
        assert len(ck.states) == 2
        for orig, back in zip(states, ck.states):
            assert back.t == orig.t
            assert np.array_equal(back.k, orig.k)
            assert np.array_equal(back.fhat.values, orig.fhat.values)
            assert np.array_equal(back.Ehat, orig.Ehat)
            assert np.array_equal(back.Bhat, orig.Bhat)

    def test_record_is_k_t_and_the_flat_state(self, grid11, tmp_path):
        rng = np.random.default_rng(2)
        path = tmp_path / "mode.ckpt"
        states = [ModeState(np.array([0.0, 0.5, 0.25]), random_field(grid11, rng),
                            rng.standard_normal(3) + 1j * rng.standard_normal(3),
                            rng.standard_normal(3) + 1j * rng.standard_normal(3), t)
                  for t in (0.0, 0.75)]
        with CheckpointWriter(path, grid11, -3.0, 1.0) as w:
            for st in states:
                w.append(st)
        header = 8 + 8 + 4 + 8 + 8   # magic, then R, n, gamma, c_phi
        want = b"".join(st.k.astype("<f8").tobytes() + np.array(st.t, "<f8").tobytes()
                        + st.flat().astype("<c16").tobytes() for st in states)
        assert path.read_bytes()[header:] == want

    def test_truncated_record_rejected(self, grid11, tmp_path):
        path = tmp_path / "mode.ckpt"
        with CheckpointWriter(path, grid11, -3.0, 1.0) as w:
            for _ in range(2):
                w.append(_zero_state(grid11, [0.0, 0.0, 1.0]))
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated record"):
            read_checkpoint(path, grid11)

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.ckpt"
        p.write_bytes(b"NOTACKPT" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_checkpoint(p)

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_restart_reproduces_uninterrupted_run(self, op11, grid11, tmp_path, scheme):
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 0.5], grid11)
        scfg = StepperConfig(dt=0.05, scheme=scheme, lin_tol=1e-10)
        full = integrate_mode(st, scfg, 2.0, op11)
        # interrupted: stop at t=1, checkpoint, restore, continue to t=2
        path = tmp_path / "restart.ckpt"
        with CheckpointWriter(path, grid11, -3.0, 1.0) as w:
            integrate_mode(st, scfg, 1.0, op11, checkpoint=w)
        restored = read_checkpoint(path, grid11).states[-1]
        assert restored.t == pytest.approx(1.0)
        resumed = integrate_mode(restored, scfg, 1.0, op11)
        a = full.frames[-1]
        b = resumed.frames[-1]
        assert np.array_equal(b.fhat.values, a.fhat.values)
        assert np.array_equal(b.Ehat, a.Ehat)
        assert np.array_equal(b.Bhat, a.Bhat)
