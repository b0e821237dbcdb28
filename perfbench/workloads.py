"""The three workloads: their inputs, the timed calls into the program, their checks.

All three use R = 7, gamma = -3, c_phi = 1 and the `mixed` initial data at
k = 0.5 e3 (the sweep: its shells times axis directions).  The program's inputs
do not depend on the seed; the seed draws the field and nodes of the
convolution check (mode_n25, euler_diag_n17) and the frame of the ledger check
(euler_diag_n17).  Program calls go through the module attributes, so that the
traced run sees them.  BENCHMARK.json lists sweep_n13_2w and euler_diag_n17;
mode_n25 is run by hand (perfbench/README.md says why).

Each workload returns an ``Outcome``; its ``verify_*`` function returns a
``Verdict`` that splits problems into those of one mode (the mode counts as a
failed operation) and those of the run as a whole (the round is not correct).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import vmlandau.checkpoint as checkpoint
import vmlandau.collision as collision
import vmlandau.grid as grid
import vmlandau.lab as lab
import vmlandau.macro as macro
import vmlandau.mode as mode
import vmlandau.weights as weights

import checks

K = (0.0, 0.0, 0.5)

# "tiny" runs the same code paths in seconds, for the self-check
SIZES = {
    "mode_n25": {"full": {"n": 25, "T": 2.0}, "tiny": {"n": 9, "T": 0.75}},
    "sweep_n13_2w": {"full": {"n": 13, "T": 1.0, "shells": (0.25, 0.5, 1.0), "directions": 6},
                     "tiny": {"n": 9, "T": 0.75, "shells": (0.5,), "directions": 2}},
    "euler_diag_n17": {"full": {"n": 17, "T": 1.0}, "tiny": {"n": 9, "T": 0.12}},
}


def operations(workload: str, size: str) -> int:
    """Modes one round integrates and checks."""
    p = SIZES[workload][size]
    return len(p["shells"]) * p["directions"] if "shells" in p else 1


@dataclass
class Outcome:
    setup_s: float
    integrate_s: float
    steps: int
    data: dict
    failed_modes: set = field(default_factory=set)   # modes the program itself gave up on


@dataclass
class Verdict:
    mode_problems: dict = field(default_factory=dict)   # mode index -> problems
    run_problems: list = field(default_factory=list)

    def add(self, idx: int, problems: list) -> None:
        if problems:
            self.mode_problems.setdefault(idx, []).extend(problems)


def _setup(cfg):
    g = grid.build_grid(cfg.R, cfg.n)
    op = collision.assemble_L(g, cfg.collision_params())
    if cfg.deflation_needed():
        op.deflation_basis(rank=cfg.stepper().deflation_rank)
    return g, op


# --- mode_n25: one mode at production resolution, the calls `vml mode-run` makes

def mode_n25(size: str, outdir: Path, seed: int) -> Outcome:
    p = SIZES["mode_n25"][size]
    cfg = lab.ExperimentConfig(n=p["n"], family="mixed", dt=0.25, scheme="imex-midpoint",
                               lin_tol=1e-8, T=p["T"], save_interval=0.25,
                               shells=(0.5,), outdir=str(outdir))
    t0 = time.perf_counter()
    g, op = _setup(cfg)
    state0 = lab.init_data(cfg, K, g)
    t1 = time.perf_counter()
    writer = checkpoint.CheckpointWriter(outdir / "mode_0000.ckpt", g, cfg.gamma, cfg.c_phi)
    try:
        hist = mode.integrate_mode(state0, cfg.stepper(), cfg.T, op,
                                   sample_interval=cfg.save_interval, checkpoint=writer)
    finally:
        writer.close()
    t2 = time.perf_counter()
    rep = mode.mode_energy_report(hist, cfg.ell, op)
    # the mode CSV as `vml mode-run` writes it
    (outdir / "mode_0000.csv").write_text(lab._mode_csv_text(rep))
    return Outcome(setup_s=t1 - t0, integrate_s=t2 - t1, steps=len(hist.times) - 1,
                   data={"cfg": cfg, "op": op, "hist": hist, "outdir": outdir})


def conv_check_inputs(op, seed: int):
    """The program's FFT convolution of a seeded field, and its direct lattice sum."""
    from vmlandau._conv import LatticeConvolver, kernel_tables

    gamma, c_phi = op.params.gamma, op.params.c_phi
    conv = LatticeConvolver(op.grid, gamma, c_phi)
    zero = float(kernel_tables(op.grid, gamma, c_phi, conv.pad)[0].flat[0])
    v3, nodes = checks.conv_sample(op.grid, seed)
    direct, scale = checks.direct_lattice_sum(op.grid, gamma, c_phi, zero, v3, nodes)
    return np.array(conv.apply_vector(v3)), direct, scale, nodes


def verify_mode_n25(out: Outcome, seed: int) -> Verdict:
    cfg, op, hist = out.data["cfg"], out.data["op"], out.data["hist"]
    label = "mode k=0.5e3"
    v = Verdict()
    v.add(0, checks.energy_nonincreasing(hist.energy, cfg.lin_tol, label))
    v.add(0, checks.dissipation_nonnegative(hist.dissipation, hist.energy, label))
    v.add(0, checks.gauss_within(hist.gauss_E, hist.gauss_B, cfg.constraint_tol, label))
    residuals = checks.midpoint_residuals(hist.frames, op, 0.5 * cfg.dt, cfg.dt)
    v.add(0, checks.midpoint_equation(residuals, cfg.lin_tol, label))
    rows = int(round(cfg.T / cfg.save_interval)) + 1
    v.add(0, checks.mode_csv(out.data["outdir"] / "mode_0000.csv", lab.MODE_CSV_HEADER, rows,
                             cfg.lin_tol, cfg.constraint_tol))
    v.run_problems += checks.convolution_matches(*conv_check_inputs(op, seed))
    v.run_problems += checks.null_space(op)
    return v


# --- sweep_n13_2w: run_sweep on forked workers, then synthesize, fit and report

def sweep_n13_2w(size: str, outdir: Path, seed: int) -> Outcome:
    p = SIZES["sweep_n13_2w"][size]
    cfg = lab.ExperimentConfig(n=p["n"], shells=p["shells"], directions_per_shell=p["directions"],
                               family="mixed", dt=0.25, scheme="imex-midpoint", lin_tol=1e-8,
                               T=p["T"], save_interval=0.25, outdir=str(outdir))
    t0 = time.perf_counter()
    _g, op = _setup(cfg)
    t1 = time.perf_counter()
    archive = lab.run_sweep(cfg, op)
    t2 = time.perf_counter()
    window = (0.0, cfg.T)
    synth, fits = {}, []
    for m in (0, 1):
        times, total = lab.synthesize_norms(archive, m)
        synth[m] = (times, total)
        # a short window cannot show the paper's decay factor; min_decay=1
        # keeps the fit conclusive so its slope can be checked
        fits.append(lab.decay_fit(times, total, window, m=m, shells_used=len(cfg.shells),
                                  min_decay=1.0))
    lab.report(archive, fits)
    steps = len(archive.k_set) * int(round(cfg.T / cfg.dt))
    return Outcome(setup_s=t1 - t0, integrate_s=t2 - t1, steps=steps,
                   data={"cfg": cfg, "archive": archive, "synth": synth, "window": window},
                   failed_modes={f["mode"] for f in archive.failures})


def verify_sweep_n13_2w(out: Outcome, seed: int) -> Verdict:
    cfg, archive = out.data["cfg"], out.data["archive"]
    outdir = Path(archive.outdir)
    rows = int(round(cfg.T / cfg.save_interval)) + 1
    v = Verdict()
    for idx in range(len(archive.k_set)):
        path = outdir / f"mode_{idx:04d}.csv"
        if idx in out.failed_modes:
            continue
        if not path.is_file():
            v.add(idx, [f"{path.name} missing"])
            continue
        v.add(idx, checks.mode_csv(path, lab.MODE_CSV_HEADER, rows, cfg.lin_tol,
                                   cfg.constraint_tol))
    n_ok = len(archive.k_set) - len(out.failed_modes)
    v.run_problems += checks.manifest_matches(outdir, n_ok, len(out.failed_modes))
    csvs = [outdir / f"mode_{i:04d}.csv" for i in range(len(archive.k_set))
            if i not in out.failed_modes]
    own_sigma = {}
    for m, (times, total) in out.data["synth"].items():
        try:
            own_t, own_total = checks.own_synthesis(csvs, cfg.shells, cfg.directions_per_shell, m)
        except ValueError as exc:
            v.run_problems.append(f"cannot synthesize the norms from the CSVs: {exc}")
            return v
        v.run_problems += checks.synthesis_matches(own_t, own_total, times, total, m)
        own_sigma[m] = checks.own_slope_sigma(own_t, own_total, out.data["window"])
    v.run_problems += checks.fit_summary(outdir / "fit_summary.csv", own_sigma)
    return v


# --- euler_diag_n17: imex-euler below the deflation threshold, every step
# sampled and checkpointed, then diagnostics and a restart from the middle record

def euler_diag_n17(size: str, outdir: Path, seed: int) -> Outcome:
    p = SIZES["euler_diag_n17"][size]
    cfg = lab.ExperimentConfig(n=p["n"], family="mixed", dt=0.02, scheme="imex-euler",
                               lin_tol=1e-8, T=p["T"], save_interval=0.02,
                               checkpoint_interval=0.02, shells=(0.5,), outdir=str(outdir))
    stepper = cfg.stepper()
    t0 = time.perf_counter()
    g, op = _setup(cfg)
    state0 = lab.init_data(cfg, K, g)
    t1 = time.perf_counter()
    ckpt = outdir / "mode_0000.ckpt"
    writer = checkpoint.CheckpointWriter(ckpt, g, cfg.gamma, cfg.c_phi)
    try:
        hist = mode.integrate_mode(state0, stepper, cfg.T, op, sample_interval=cfg.save_interval,
                                   checkpoint=writer, checkpoint_interval=cfg.checkpoint_interval)
    finally:
        writer.close()
    t2 = time.perf_counter()
    mode.mode_energy_report(hist, cfg.ell, op)
    macro.macro_residuals(hist.frames, hist.k, op)
    xframes = hist.frames[::10]
    weights.temporal_norm_x(xframes, [s.t for s in xframes], op)
    stored = checkpoint.read_checkpoint(ckpt, g)
    mid = stored.states[len(stored.states) // 2]
    rest = cfg.T - mid.t
    t3 = time.perf_counter()
    restart = mode.integrate_mode(mid, stepper, rest, op, sample_interval=rest)
    t4 = time.perf_counter()
    steps = (len(hist.times) - 1) + (len(restart.times) - 1)
    return Outcome(setup_s=t1 - t0, integrate_s=(t2 - t1) + (t4 - t3), steps=steps,
                   data={"cfg": cfg, "op": op, "hist": hist, "ckpt": ckpt,
                         "stored": stored.states, "restart": restart})


def verify_euler_diag_n17(out: Outcome, seed: int) -> Verdict:
    cfg, op, hist = out.data["cfg"], out.data["op"], out.data["hist"]
    label = "mode k=0.5e3 (imex-euler)"
    v = Verdict()
    v.add(0, checks.energy_nonincreasing(hist.energy, cfg.lin_tol, label))
    v.add(0, checks.gauss_within(hist.gauss_E, hist.gauss_B, cfg.constraint_tol, label))
    v.add(0, checks.checkpoint_matches_frames(out.data["ckpt"], hist.frames, out.data["stored"]))
    v.add(0, checks.restart_bitwise(hist.frames[-1], out.data["restart"].frames[-1]))
    idx = int(np.random.default_rng(seed).integers(len(hist.frames)))
    frame = hist.frames[idx]
    step = int(np.flatnonzero(hist.times == frame.t)[0])
    ledger = weights.energy_ledger(frame, weights.EnergyRequest(N=0, ell=0.0, lam=0.0),
                                   frame.t, op)
    v.add(0, checks.ledger_matches_energy(ledger.energy, hist.energy[step], idx))
    # the operator checks of mode_n25, so that a run of BENCHMARK.json's workloads has them
    v.run_problems += checks.convolution_matches(*conv_check_inputs(op, seed))
    v.run_problems += checks.null_space(op)
    return v


RUN = {"mode_n25": mode_n25, "sweep_n13_2w": sweep_n13_2w, "euler_diag_n17": euler_diag_n17}
VERIFY = {"mode_n25": verify_mode_n25, "sweep_n13_2w": verify_sweep_n13_2w,
          "euler_diag_n17": verify_euler_diag_n17}
