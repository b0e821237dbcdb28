"""Command-line interface.

Subcommands:
    sigma-table    dump the collision frequency along a lattice ray as CSV
    spectrum-check operator property suite (null space, symmetry, positivity,
                   coercivity band) across velocity resolutions
    mode-run       integrate a single Fourier mode and archive its series
    decay-sweep    run a full k-set sweep from a config file
    fit            synthesize whole-space norms from an archive and fit decay
    report         write the fit summary CSV and run manifest for an archive
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

import numpy as np

from .collision import CollisionParams, assemble_L
from .grid import build_grid, inner_product
from .lab import (ExperimentConfig, RunArchive, _fmt, decay_fit, load_archive,
                  parse_config, report, run_mode, run_sweep, synthesize_norms)
from .weights import WeightSpec, characterization_norm, dissipation_norm

SIGMA_CSV_HEADER = "r,xi1,xi2,xi3,s11,s12,s13,s22,s23,s33"


def _parse_vec(text: str) -> np.ndarray:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return np.array(parts)


def cmd_sigma_table(args) -> int:
    grid = build_grid(args.rmax, args.n)
    params = CollisionParams(gamma=args.gamma, c_phi=args.c_phi)
    from .collision import sigma_field
    sigma = sigma_field(grid, params)
    ray = args.ray
    step = np.round(ray).astype(int)
    if np.all(step == 0) or not np.allclose(ray, step):
        print("ray must be a nonzero integer lattice direction, e.g. 1,0,0 or 1,1,0",
              file=sys.stderr)
        return 2
    n = grid.n
    mid = (n - 1) // 2
    lines = [SIGMA_CSV_HEADER]
    j = 0
    while True:
        idx3 = mid + j * step
        if np.any(idx3 < 0) or np.any(idx3 >= n):
            break
        node = int(idx3[0] * n * n + idx3[1] * n + idx3[2])
        xi = grid.xi[:, node]
        S = sigma.matrix_at(node)
        row = [np.linalg.norm(xi), *xi, S[0, 0], S[0, 1], S[0, 2], S[1, 1], S[1, 2], S[2, 2]]
        lines.append(",".join(_fmt(x) for x in row))
        j += 1
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"wrote {j} nodes to {args.out}")
    return 0


def spectrum_suite(n: int, R: float, gamma: float, c_phi: float = 1.0,
                   n_random: int = 200, seed: int = 7):
    """Null residuals, symmetry defect, Rayleigh minimum and coercivity stats."""
    from .grid import TwoSpeciesField
    from .macro import project_P

    grid = build_grid(R, n)
    params = CollisionParams(gamma=gamma, c_phi=c_phi)
    op = assemble_L(grid, params)
    out = {"n": n, "R": R, "gamma": gamma}
    nulls = []
    for v in op.nullspace_basis():
        r = op.apply(v)
        nulls.append(np.sqrt(abs(inner_product(r, r)) / abs(inner_product(v, v))))
    out["null_residuals"] = nulls
    rng = np.random.default_rng(seed)
    envelope = grid.mu ** 0.25
    sym = 0.0
    ray_min = np.inf
    gap_min = np.inf
    band_lo, band_hi = np.inf, 0.0
    spec0 = WeightSpec(tau=0.0, lam=0.0)
    for _ in range(n_random):
        f = TwoSpeciesField((rng.standard_normal((2, grid.size)) * envelope).astype(complex), grid)
        g = TwoSpeciesField((rng.standard_normal((2, grid.size)) * envelope).astype(complex), grid)
        Lf = op.apply(f)
        Lg = op.apply(g)
        denom = np.sqrt(abs(inner_product(Lf, Lf))) * np.sqrt(abs(inner_product(g, g)))
        sym = max(sym, abs(inner_product(Lf, g) - inner_product(f, Lg)) / denom)
        ray = inner_product(Lf, f).real / inner_product(f, f).real
        ray_min = min(ray_min, ray)
        _, _, micro = project_P(f)
        dnorm = dissipation_norm(micro, spec0, 0.0, op.sigma)
        if dnorm > 0:
            Lm = op.apply(micro)
            gap_min = min(gap_min, inner_product(Lm, micro).real / dnorm)
            cnorm = characterization_norm(micro, spec0, 0.0, params)
            ratio = dnorm / cnorm
            band_lo = min(band_lo, ratio)
            band_hi = max(band_hi, ratio)
    out["symmetry_defect"] = sym
    out["rayleigh_min"] = ray_min
    out["coercivity_gap"] = gap_min
    out["equivalence_band"] = (band_lo, band_hi)
    return out


def cmd_spectrum_check(args) -> int:
    t0 = time.perf_counter()
    for n in args.n:
        res = spectrum_suite(n, args.R, args.gamma, n_random=args.samples)
        print(f"n={n} R={args.R} gamma={args.gamma}")
        print("  null residuals: " + ", ".join(f"{r:.3e}" for r in res["null_residuals"]))
        print(f"  symmetry defect: {res['symmetry_defect']:.3e}")
        print(f"  min Rayleigh quotient: {res['rayleigh_min']:.3e}")
        print(f"  micro coercivity gap: {res['coercivity_gap']:.4f}")
        lo, hi = res["equivalence_band"]
        print(f"  dissipation/characterization band: [{lo:.4f}, {hi:.4f}]")
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    return 0


def cmd_mode_run(args) -> int:
    cfg = ExperimentConfig(gamma=args.gamma, R=args.R, n=args.n, family=args.family,
                           dt=args.dt, scheme=args.scheme, T=args.T,
                           outdir=args.out, save_interval=args.save_interval,
                           shells=(max(float(np.linalg.norm(args.k)), 1e-6),))
    Path(args.out).mkdir(parents=True, exist_ok=True)
    op = assemble_L(build_grid(cfg.R, cfg.n), cfg.collision_params())
    csv_path, _, rep = run_mode(cfg, 0, args.k, op)
    energy = rep.f_l2sq + rep.em_sq
    print(f"mode k={args.k} integrated to T={args.T}; "
          f"energy {energy[0]:.6g} -> {energy[-1]:.6g}; series in {csv_path}")
    return 0


def cmd_decay_sweep(args) -> int:
    cfg = parse_config(args.config)
    t0 = time.perf_counter()
    archive = run_sweep(cfg)
    report(archive)
    print(f"sweep complete: {len(archive.mode_csvs)} modes, "
          f"{len(archive.failures)} failures, {time.perf_counter() - t0:.0f}s; "
          f"archive at {archive.outdir}")
    return 0 if not archive.failures else 1


def _shell_count(archive: RunArchive) -> int:
    """Number of distinct shell radii |k| in the archive's k-set."""
    return len({round(float(np.linalg.norm(k)), 12) for k, _ in archive.k_set})


def cmd_fit(args) -> int:
    archive = load_archive(args.archive)
    times, series = synthesize_norms(archive, args.m)
    fit = decay_fit(times, series, tuple(args.window), m=args.m,
                    shells_used=_shell_count(archive))
    if not fit.conclusive:
        print("inconclusive: insufficient decay inside the window")
        return 1
    print(f"m={fit.m}: sigma_hat={fit.sigma_hat:.4f} "
          f"(target {fit.sigma_target:.4f}), residual={fit.residual:.3e}, "
          f"fitted on t in [{fit.window[0]:g}, {fit.window[1]:g}]")
    return 0


def cmd_report(args) -> int:
    archive = load_archive(args.archive)
    fits = []
    for m in args.m:
        times, series = synthesize_norms(archive, m)
        fits.append(decay_fit(times, series, tuple(args.window), m=m,
                              shells_used=_shell_count(archive)))
    manifest = report(archive, fits)
    print(f"summary: {archive.summary_path()}")
    print(f"manifest: {archive.manifest_path()} ({len(manifest['files'])} files)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vml", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sigma-table", help="dump sigma^ij along a lattice ray")
    s.add_argument("--gamma", type=float, default=-3.0)
    s.add_argument("--c-phi", type=float, default=1.0)
    s.add_argument("--ray", type=_parse_vec, default=np.array([1.0, 0, 0]))
    s.add_argument("--rmax", type=float, default=8.0)
    s.add_argument("--n", type=int, default=33)
    s.add_argument("--out", default="sigma.csv")
    s.set_defaults(func=cmd_sigma_table)

    s = sub.add_parser("spectrum-check", help="operator property suite")
    s.add_argument("--n", type=int, nargs="+", default=[17, 25])
    s.add_argument("--R", type=float, default=7.0)
    s.add_argument("--gamma", type=float, default=-3.0)
    s.add_argument("--samples", type=int, default=200)
    s.set_defaults(func=cmd_spectrum_check)

    s = sub.add_parser("mode-run", help="integrate a single Fourier mode")
    s.add_argument("--k", type=_parse_vec, required=True)
    s.add_argument("--family", default="micro-only")
    s.add_argument("--T", type=float, default=100.0)
    s.add_argument("--n", type=int, default=25)
    s.add_argument("--R", type=float, default=7.0)
    s.add_argument("--gamma", type=float, default=-3.0)
    s.add_argument("--dt", type=float, default=0.05)
    s.add_argument("--scheme", default="imex-midpoint")
    s.add_argument("--save-interval", type=float, default=1.0)
    s.add_argument("--out", default="runs/mode")
    s.set_defaults(func=cmd_mode_run)

    s = sub.add_parser("decay-sweep", help="run a sweep from a config file")
    s.add_argument("--config", required=True)
    s.set_defaults(func=cmd_decay_sweep)

    s = sub.add_parser("fit", help="fit a decay exponent from an archive")
    s.add_argument("--archive", required=True)
    s.add_argument("--m", type=int, default=0)
    s.add_argument("--window", type=lambda s_: tuple(float(x) for x in s_.split(",")),
                   default=(20.0, 200.0))
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("report", help="write fit summary and manifest")
    s.add_argument("--archive", required=True)
    s.add_argument("--m", type=int, nargs="+", default=[0, 1])
    s.add_argument("--window", type=lambda s_: tuple(float(x) for x in s_.split(",")),
                   default=(20.0, 200.0))
    s.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
