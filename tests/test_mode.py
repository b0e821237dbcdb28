import os
import re
import subprocess
import sys
import textwrap

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from vmlandau.checkpoint import CheckpointWriter, read_checkpoint
from vmlandau.collision import CollisionParams, assemble_L
from vmlandau.grid import TwoSpeciesField, build_grid, inner_product
from vmlandau import mode
from vmlandau.macro import macro_residuals, project_P
from vmlandau.mode import (ModeState, energy_identity_check,
                           integrate_mode, mode_energy_report, mode_rhs,
                           rho_frequency)

from conftest import random_field, stepper

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
        frames = integrate_mode(init_data(cfg, k, grid11), stepper(dt=0.1), 0.3, op11,
                                sample_interval=0.1).frames

        def refuse(*args):
            raise AssertionError("D-ILU built")

        monkeypatch.setattr(mode, "_DiagonalILU", refuse)
        with pytest.raises(AssertionError, match="D-ILU built"):   # the patch is live
            integrate_mode(frames[0], stepper(dt=0.1), 0.1, op11)
        mode_rhs(frames[-1], op11)
        macro_residuals(frames, k, op11)


class TestIntegrateMode:
    def test_zero_state_stays_zero(self, op11, grid11):
        h = integrate_mode(_zero_state(grid11, [0, 0, 1.0]),
                           stepper(dt=0.1), 1.0, op11)
        assert np.all(h.energy == 0.0)
        assert h.frames[-1].fhat.norm() == 0.0

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_steps_are_the_rational_map_of_the_generator(self, params, scheme):
        # M, the 2 n^3 + 6 generator, column by column from mode_rhs.  A step is
        # the rational map R(a M): the Cayley factor (I - a M)^-1 (I + a M),
        # a = dt/2, for imex-midpoint, (I - dt M)^-1 for imex-euler, each to the
        # solver tolerance; midpoint follows exp(M T) at second order
        from vmlandau.lab import ExperimentConfig, init_data
        g = build_grid(4.0, 5)
        op = assemble_L(g, params)
        k = np.array([0.0, 0.0, 0.5])
        u0 = init_data(ExperimentConfig(R=g.R, n=g.n, shells=(0.5,)), k, g)
        flat0 = u0.flat()
        eye = np.eye(flat0.size)
        M = np.empty((flat0.size, flat0.size), dtype=complex)
        for j, e in enumerate(eye.astype(complex)):
            df, dE, dB = mode_rhs(ModeState.from_flat(k, e, g, 0.0), op)
            M[:, j] = np.concatenate([df.values.reshape(-1), dE, dB])
        T, lin_tol, scale = 2.0, 1e-10, np.linalg.norm(flat0)
        exact = scipy.linalg.expm(M * T) @ flat0
        errors = []
        for dt in (0.1, 0.05):
            h = integrate_mode(u0, stepper(dt=dt, scheme=scheme, lin_tol=lin_tol), T, op)
            got, nsteps = h.frames[-1].flat(), len(h.times) - 1
            if scheme == "imex-midpoint":
                R = np.linalg.solve(eye - 0.5 * dt * M, eye + 0.5 * dt * M)
            else:
                R = np.linalg.solve(eye - dt * M, eye)
            # each solve errs by at most lin_tol |u^n| (twice that in midpoint's
            # 2x - u^n), and R does not amplify: measured 1.5e-10 against 4e-9
            discrete = np.linalg.matrix_power(R, nsteps) @ flat0
            assert np.linalg.norm(got - discrete) <= 2 * nsteps * lin_tol * scale
            errors.append(np.linalg.norm(got - exact) / (dt ** 2 * T * scale))
        if scheme == "imex-midpoint":
            # measured 0.073 at both steps: the error is C dt^2 T
            assert max(errors) <= 0.15

    def test_micro_only_data_monotone_strict_decay(self, op11, grid11):
        st = _micro_state(grid11, [0.0, 0.0, 0.0])
        h = integrate_mode(st, stepper(dt=0.05, lin_tol=1e-11), 2.0, op11)
        assert np.all(np.diff(h.energy) < 0.0)

    def test_energy_identity_and_order(self, op11, grid11):
        from vmlandau.lab import ExperimentConfig, init_data
        cfg = ExperimentConfig(R=grid11.R, n=grid11.n, family="mixed", shells=(0.5,),
                               outdir="/tmp/unused")
        st = init_data(cfg, [0.0, 0.0, 0.5], grid11)
        residuals = {}
        for dt in (0.08, 0.04):
            h = integrate_mode(st, stepper(dt=dt, lin_tol=1e-12), 4.0, op11)
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
        h = integrate_mode(st, stepper(dt=dt, lin_tol=lin_tol), 4 * dt, op11,
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
            h = integrate_mode(st, stepper(dt=dt, scheme="imex-euler", lin_tol=1e-12), 2.0,
                               op11)
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
        h = integrate_mode(st, stepper(dt=0.02, scheme="imex-euler", lin_tol=1e-8), 2.0,
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
        h = integrate_mode(st, stepper(dt=0.05, scheme=scheme, lin_tol=1e-12), T, op11)
        assert h.gauss_E.max() <= h.gauss_E[0] + 1e-8 * T
        assert h.gauss_B.max() <= 1e-12

    def test_k_zero_rejects_charged_data(self, op11, grid11):
        smu = grid11.sqrt_mu
        f = TwoSpeciesField.from_species(grid11, smu, np.zeros_like(smu))
        st = ModeState(np.zeros(3), f, np.zeros(3, dtype=complex),
                       np.zeros(3, dtype=complex), 0.0)
        with pytest.raises(ValueError):
            integrate_mode(st, stepper(dt=0.1), 1.0, op11)

    def test_gauss_violating_data_rejected(self, op11, grid11):
        st = _zero_state(grid11, [0.0, 0.0, 1.0])
        st.Ehat = np.array([0.0, 0.0, 1.0], dtype=complex)  # i k.E != 0, no charge
        with pytest.raises(ValueError):
            integrate_mode(st, stepper(dt=0.1), 1.0, op11)

    @pytest.mark.parametrize("name", ["k", "Ehat", "Bhat"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_state_rejected(self, grid11, name, bad):
        st = _zero_state(grid11, [0.0, 0.0, 1.0])
        value = getattr(st, name).copy()
        value[0] = bad
        with pytest.raises(ValueError, match="k, Ehat and Bhat must be finite"):
            ModeState(**{"k": st.k, "fhat": st.fhat, "Ehat": st.Ehat, "Bhat": st.Bhat,
                         name: value})

    def test_nan_gauss_residual_fails_the_constraint_check(self, op11, grid11):
        # E set after construction: the Gauss residual is NaN, which must not pass
        st = _zero_state(grid11, [0.0, 0.0, 1.0])
        st.Ehat[0] = np.nan
        with pytest.raises(ValueError, match=r"initial Gauss residuals \(nan, 0\.00e\+00\)"):
            integrate_mode(st, stepper(dt=0.1), 1.0, op11)


class TestSolverGuards:
    def test_T_not_a_multiple_of_dt_rejected(self, op11, grid11):
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="not a whole number of steps"):
            integrate_mode(st, stepper(dt=0.3), 1.0, op11)

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
                    stepper = StepperConfig(0.1, "imex-midpoint", 1e-10)
                    h = integrate_mode(st, stepper, 0.2, op, checkpoint=w, {kwargs})
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
            integrate_mode(_zero_state(grid11, [0.0, 0.0, 1.0]), stepper(dt=0.1), -1.0,
                           op11)

    def test_runaway_run_is_refused_before_any_solve(self, op11, grid11, monkeypatch):
        def refuse(*args):
            raise RuntimeError("a solve started")

        monkeypatch.setattr(mode, "_MAX_STEPS", 3)
        monkeypatch.setattr(mode, "_DiagonalILU", refuse)
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        with pytest.raises(ValueError, match="run of 4 steps exceeds the cap of 3"):
            integrate_mode(st, stepper(dt=0.1), 0.4, op11)
        # a run of exactly the cap passes the guard and reaches its first solve
        with pytest.raises(RuntimeError, match="a solve started"):
            integrate_mode(st, stepper(dt=0.1), 0.3, op11)

    def test_long_run_keeps_every_sample_and_record(self, params, tmp_path):
        # 7,430 steps of dt = 0.1: sample times summed in floating point drift
        # and drop one; step indices cannot
        g = build_grid(6.0, 3)
        op = assemble_L(g, params)
        path = tmp_path / "m.ckpt"
        with CheckpointWriter(path, g, -3.0, 1.0) as w:
            h = integrate_mode(_zero_state(g, [0.0, 0.0, 1.0]), stepper(dt=0.1), 743.0,
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
        cfg = stepper(dt=0.1, scheme=scheme, lin_tol=1e-8)
        with pytest.raises(RuntimeError) as err:
            integrate_mode(st, cfg, 0.1, op11)
        # no pass moves either block's iterate off the guess u^n, so each block's residual
        # is a G u^n: a |G s| / |s| with G s the species sum of mode_rhs over sqrt2, and
        # a |G_d (d, E, B)| / |(d, E, B)| with G_d d the species difference over sqrt2
        df, dE, dB = mode_rhs(st, op11)
        f = st.fhat.values
        a = cfg.implicit_weight()
        want_s = a * np.linalg.norm(df.values[0] + df.values[1]) / np.linalg.norm(f[0] + f[1])
        want_d = (a * np.linalg.norm(np.concatenate([(df.values[0] - df.values[1]) / np.sqrt(2.0),
                                                     dE, dB]))
                  / np.linalg.norm(np.concatenate([(f[0] - f[1]) / np.sqrt(2.0),
                                                   st.Ehat, st.Bhat])))
        got = re.fullmatch(r"implicit solve failed to converge: relative residual (\S+), (\S+) "
                           r"against rtol 1\.0e-08 after 3 refinement passes on the sum block "
                           r"and the difference block", str(err.value))
        assert got is not None, str(err.value)
        assert float(got.group(1)) == pytest.approx(want_s, rel=1e-3)
        assert float(got.group(2)) == pytest.approx(want_d, rel=1e-3)
        assert min(want_s, want_d) > 1e-3

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_every_K_application_is_an_iteration_or_the_state_one(self, op11, grid11,
                                                                  monkeypatch, scheme):
        from vmlandau._conv import LatticeConvolver
        pre_calls = [0]
        last_z = [None]
        on_z = [0]
        conv_calls = {"complex64": 0, "complex128": 0}
        precondition = mode._ModeSolve.precondition
        k_part = type(op11).k_part
        apply_vector = LatticeConvolver.apply_vector

        def counted_precondition(self, x):
            pre_calls[0] += 1
            last_z[0] = precondition(self, x)
            return last_z[0]

        def counted_k_part(self, h, dtype=np.complex128):
            on_z[0] += h is last_z[0] and dtype == np.complex64
            return k_part(self, h, dtype)

        def counted_apply_vector(self, v3, dtype=np.complex128):
            conv_calls[np.dtype(dtype).name] += 1
            return apply_vector(self, v3, dtype)

        monkeypatch.setattr(mode._ModeSolve, "precondition", counted_precondition)
        monkeypatch.setattr(type(op11), "k_part", counted_k_part)
        monkeypatch.setattr(LatticeConvolver, "apply_vector", counted_apply_vector)
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        h = integrate_mode(st, stepper(dt=0.1, scheme=scheme, lin_tol=1e-8), 0.3, op11)
        steps = len(h.times) - 1
        assert pre_calls[0] == h.solve_iters.sum()
        s_calls = h.solve_iters[:, 0].sum()
        assert s_calls >= steps
        assert not h.refinements.any()
        # single precision on each preconditioned vector, double once per ledger
        assert conv_calls == {"complex64": s_calls, "complex128": steps + 1}
        # each K inside a solve acts on the vector its ILU solve just returned
        assert on_z[0] == s_calls


def _block_residuals(h, op, a, midpoint):
    """Each step's |rhs_b - x_b + a G_b x_b| / |rhs_b| on the sum block (column 0) and the
    difference block (column 1), and its roundoff allowance, rebuilt from the frames
    through mode_rhs: rhs = u^n and x = u^{n+1} (imex-euler) or (u^n + u^{n+1})/2
    (imex-midpoint) in (s, d, E, B) form, s, d = (f_+ +- f_-)/sqrt2, and G x mode_rhs at x
    in the same form."""
    def blocks(f, E, B):
        return ((f[0] + f[1]) / np.sqrt(2.0),
                np.concatenate([(f[0] - f[1]) / np.sqrt(2.0), E, B]))

    res, allow = [], []
    for s0, s1 in zip(h.frames, h.frames[1:]):
        fx, Ex, Bx = ((0.5 * (p + q) for p, q in ((s0.fhat.values, s1.fhat.values),
                                                   (s0.Ehat, s1.Ehat), (s0.Bhat, s1.Bhat)))
                      if midpoint else (s1.fhat.values, s1.Ehat, s1.Bhat))
        df, dE, dB = mode_rhs(ModeState(s0.k, TwoSpeciesField(fx, op.grid), Ex, Bx, s0.t), op)
        rows = zip(blocks(s0.fhat.values, s0.Ehat, s0.Bhat), blocks(fx, Ex, Bx),
                   blocks(df.values, dE, dB))
        res.append([]), allow.append([])
        for rhs, x, gx in rows:
            bnorm = np.linalg.norm(rhs)
            roundoff = 1e3 * np.finfo(float).eps * (np.linalg.norm(x) + a * np.linalg.norm(gx))
            res[-1].append(np.linalg.norm(rhs - x + a * gx) / bnorm)
            allow[-1].append(roundoff / bnorm)
    return np.array(res), np.array(allow)


def _checked_run(op, scheme, dt, lin_tol):
    """Four steps of a mixed mode, each frame sampled, whose recorded residuals are the
    rebuilt ones (to roundoff) and <= lin_tol in both columns; returns the history."""
    from vmlandau.lab import ExperimentConfig, init_data
    cfg = ExperimentConfig(R=op.grid.R, n=op.grid.n, family="mixed", shells=(0.5,),
                           outdir="/tmp/unused")
    scfg = stepper(dt=dt, scheme=scheme, lin_tol=lin_tol)
    h = integrate_mode(init_data(cfg, [0.0, 0.3, 0.4], op.grid), scfg, 4 * dt, op,
                       sample_interval=dt)
    want, roundoff = _block_residuals(h, op, scfg.implicit_weight(),
                                      scheme == "imex-midpoint")
    got = h.solve_residual
    assert np.all(np.abs(got - want) <= roundoff), (got, want)
    assert np.all(got <= lin_tol)
    return h


class TestSumBlockCheck:
    """The sum block's GMRES applies K in single precision; each step's ledger checks
    that solve in double, records the double residual, and refines a step that misses."""

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    @pytest.mark.parametrize("opname", ["op9", "op11"])
    @pytest.mark.parametrize("lin_tol", [1e-8, 1e-11])
    def test_recorded_residual_is_the_double_residual_of_the_step(self, request, scheme,
                                                                 opname, lin_tol):
        _checked_run(request.getfixturevalue(opname), scheme, 0.25, lin_tol)

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    @pytest.mark.parametrize("opname", ["op9", "op11"])
    @pytest.mark.parametrize("lin_tol", [1e-8, 1e-10, 1e-12])
    def test_a_step_refines_at_most_once(self, request, scheme, opname, lin_tol):
        # the cost of the single-precision K at a tight lin_tol: at most one more sum-block
        # solve and ledger a step (measured at n = 9 to 13 down to lin_tol 1e-12)
        h = _checked_run(request.getfixturevalue(opname), scheme, 0.25, lin_tol)
        assert h.refinements.max() <= 1

    def test_a_step_that_misses_is_refined(self, op11):
        # a = 1: the first solve's double residual was measured at about 3 lin_tol
        h = _checked_run(op11, "imex-midpoint", 2.0, 1e-8)
        assert np.all(h.refinements >= 1)

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_perturbed_single_precision_spectra_are_refined_to_lin_tol(self, op11, monkeypatch,
                                                                       scheme):
        from vmlandau._conv import LatticeConvolver
        monkeypatch.setattr(LatticeConvolver, "_hat32", property(
            lambda self: (self.hat * (1.0 + 1e-4)).astype(np.float32)))
        h = _checked_run(op11, scheme, 0.25, 1e-8)
        assert np.all(h.refinements >= 1)

    @pytest.mark.parametrize("scheme", ["imex-midpoint", "imex-euler"])
    def test_zero_single_precision_spectra_raise(self, op11, monkeypatch, scheme):
        from vmlandau._conv import LatticeConvolver
        monkeypatch.setattr(LatticeConvolver, "_hat32", property(
            lambda self: np.zeros(self.hat.shape, dtype=np.float32)))
        with pytest.raises(RuntimeError, match=r"implicit solve failed to converge: relative "
                                               r"residual \S+ against rtol 1\.0e-08 after 3 "
                                               r"refinement passes"):
            _checked_run(op11, scheme, 0.25, 1e-8)


class TestBlockSolver:
    def _solver(self, op, a):
        return mode._ModeSolve(op, np.array([0.0, 0.3, 0.4]), a)

    def _counted(self, monkeypatch, solver):
        calls = [0]
        precondition = solver.precondition

        def counted(x):
            calls[0] += 1
            return precondition(x)

        monkeypatch.setattr(solver, "precondition", counted)
        return calls

    @pytest.mark.parametrize("opname", ["op9", "op11"])
    def test_cycle_cut_short_is_continued_to_lin_tol(self, request, monkeypatch, opname):
        # midpoint steps take 5 or 6 sum-block and 4 or 5 difference-block iterations, so a
        # 3-iteration cycle leaves both blocks short on every step; the ledger finds them
        # above lin_tol and continues each from its x
        monkeypatch.setattr(mode, "_MAX_ITERS", 3)
        h = _checked_run(request.getfixturevalue(opname), "imex-midpoint", 0.25, 1e-8)
        assert np.all(h.refinements > 0)
        assert np.all(h.solve_iters > 3)

    def test_zero_rhs_returns_zeros_without_iterating(self, op9, monkeypatch):
        solver = self._solver(op9, 0.5)
        calls = self._counted(monkeypatch, solver)
        zero = np.zeros(op9.grid.size, dtype=complex)
        assert solver.solve(None, zero, 0.0) == (None, 0)   # any application would raise
        assert calls[0] == 0

    def test_solve_stops_at_the_callers_target(self, op9):
        # the difference block runs in double throughout, so its Givens residual is the
        # true one to roundoff: a looser target stops sooner, and each meets its own
        a = 0.5
        solver = self._solver(op9, a)
        rng = np.random.default_rng(13)
        r = rng.standard_normal(op9.grid.size + 6) + 1j * rng.standard_normal(op9.grid.size + 6)
        r[:op9.grid.size] *= op9.grid.sqrt_mu
        iters = []
        for rtol in (0.1, 1e-8):
            target = rtol * np.linalg.norm(r)
            dx, more = solver.solve(solver.diff_block, r, target)
            assert np.linalg.norm(r - dx + a * solver.diff_block(dx)) <= 1.001 * target
            iters.append(more)
        assert 0 < iters[0] < iters[1], iters


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

    @pytest.mark.parametrize("gamma", [-3.0, -2.5])
    @pytest.mark.parametrize("a", [0.02, 0.125])
    def test_set_up_equals_the_tril_triu_route(self, gamma, a):
        """d and a solve, bit for bit, against triangles from sp.tril/sp.triu and factors
        from scipy's diags_array sums."""
        op = assemble_L(build_grid(7.0, 9), CollisionParams(gamma=gamma, c_phi=1.0))
        A = op.A_sparse
        xik = mode._xi_dot(op.grid, np.array([0.0, 0.0, 0.5]))
        lower, upper = sp.tril(A, k=-1, format="csr"), sp.triu(A, k=1, format="csr")
        m = 1.0 + a * (A.diagonal() + 1j * xik)
        coupling = a * a * lower.multiply(upper.T)
        d = m
        for _ in range(mode._MAX_SWEEPS):
            d, prev = m - coupling @ (1.0 / d), d
            if np.array_equal(d, prev):
                break
        D = sp.diags_array(d)
        opts = dict(permc_spec="NATURAL", diag_pivot_thresh=0.0, panel_size=1, relax=1)
        lo = spla.splu((D + a * lower).tocsc(), **opts)
        up = spla.splu((D + a * upper).tocsc(), **opts)
        rng = np.random.default_rng(5)
        x = rng.standard_normal(op.grid.size) + 1j * rng.standard_normal(op.grid.size)
        ilu = mode._DiagonalILU(A, a, xik)
        assert np.array_equal(ilu.d, d)
        assert np.array_equal(ilu.solve(x), up.solve(d * lo.solve(x)))


class TestFieldClosure:
    def test_precondition_inverts_the_difference_block_matrix(self, op9):
        # P is I - a G_d with the D-ILU P_d in place of its kinetic block
        # M_d = I + a (A + i xi.k): P z = z - a G_d z + (P_d - M_d) z_d
        a = 0.5
        solver = mode._ModeSolve(op9, np.array([0.3, -0.2, 0.5]), a)
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
        solver = mode._ModeSolve(op9, np.array([0.3, -0.2, 0.5]), 0.5)
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
        h = integrate_mode(st, stepper(dt=dt, scheme=scheme, lin_tol=1e-8), T, op)
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
            h = integrate_mode(st, stepper(dt=dt, lin_tol=1e-12), 1.6, op11,
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
        h = integrate_mode(st, stepper(dt=0.1, lin_tol=1e-11), 0.2, op11,
                           sample_interval=0.1)
        rep = mode_energy_report(h, 0.0, op11)
        assert rep.rho == pytest.approx(0.25, rel=1e-12)
        assert rep.micro_D[0] <= 1e-10 * rep.f_l2sq[0]

    def test_weighted_ell_is_refused(self, op11, grid11):
        # every column is unweighted, so an ell != 0 would label them falsely
        st = _micro_state(grid11, [0.0, 0.0, 0.5])
        h = integrate_mode(st, stepper(dt=0.1, lin_tol=1e-10), 0.1, op11,
                           sample_interval=0.1)
        with pytest.raises(ValueError, match="ell must be 0"):
            mode_energy_report(h, 2.0, op11)
        assert not hasattr(mode_energy_report(h, 0.0, op11), "ell")


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
        with pytest.raises(ValueError, match="mode.ckpt: truncated record 1$"):
            read_checkpoint(path, grid11)

    def test_corrupt_record_names_its_file_and_index(self, tmp_path):
        from vmlandau.checkpoint import _HEADER, MAGIC, _record
        g = build_grid(7.0, 9)
        path = tmp_path / "mode.ckpt"
        with CheckpointWriter(path, g, -3.0, 1.0) as w:
            for _ in range(2):
                w.append(_zero_state(g, [0.0, 0.0, 1.0]))
        blob = bytearray(path.read_bytes())
        at = len(MAGIC) + _HEADER.size + _record(9).itemsize   # the second record's k
        blob[at:at + 8] = np.array(np.nan, "<f8").tobytes()
        path.write_bytes(bytes(blob))
        message = "mode.ckpt: record 1: k, Ehat and Bhat must be finite"
        with pytest.raises(ValueError, match=message):
            read_checkpoint(path)

    def test_truncated_header_rejected(self, grid11, tmp_path):
        path = tmp_path / "mode.ckpt"
        with CheckpointWriter(path, grid11, -3.0, 1.0):
            pass
        path.write_bytes(path.read_bytes()[:8 + 5])   # the magic and 5 of 28 header bytes
        with pytest.raises(ValueError, match="truncated header"):
            read_checkpoint(path)

    @pytest.mark.parametrize("R, n, message", [
        (7.0, 35, "points_per_axis must be at most 33, got 35"),
        (7.0, 2 ** 31 - 1, "points_per_axis must be at most 33, got 2147483647"),
        (7.0, 12, "points_per_axis must be an odd integer >= 3, got 12"),
        (float("inf"), 9, "half_width must be positive and finite, got inf"),
    ])
    def test_header_grid_that_cannot_be_built_rejected(self, tmp_path, R, n, message):
        # checked before the grid is built: a corrupt n would allocate n^3 nodes
        from vmlandau.checkpoint import _HEADER, MAGIC
        path = tmp_path / "mode.ckpt"
        path.write_bytes(MAGIC + _HEADER.pack(R, n, -3.0, 1.0))
        with pytest.raises(ValueError, match=f"mode.ckpt: {message}"):
            read_checkpoint(path)

    @pytest.mark.parametrize("gamma, c_phi, message", [
        (float("nan"), 1.0, "gamma must satisfy -3 <= gamma < -2, got nan"),
        (-1.0, 1.0, "gamma must satisfy -3 <= gamma < -2, got -1.0"),
        (-3.0, 0.0, "c_phi must be positive and finite, got 0.0"),
    ], ids=["gamma-nan", "gamma-minus-1", "c_phi-0"])
    def test_header_kernel_that_cannot_be_built_rejected(self, tmp_path, gamma, c_phi, message):
        from vmlandau.checkpoint import _HEADER, MAGIC
        path = tmp_path / "mode.ckpt"
        path.write_bytes(MAGIC + _HEADER.pack(7.0, 9, gamma, c_phi))
        with pytest.raises(ValueError, match=f"mode.ckpt: {re.escape(message)}"):
            read_checkpoint(path)

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
        scfg = stepper(dt=0.05, scheme=scheme, lin_tol=1e-10)
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
