"""Command-line interface.

Subcommands:
    sigma-table    dump the collision frequency along a lattice ray as CSV
    spectrum-check null residuals and symmetry defect of L, and its Rayleigh and
                   micro-coercivity ratios on the 14 odd-even fields, per n;
                   exits 1 when a null residual or the symmetry defect
                   exceeds 1e-12
    mode-run       integrate a single Fourier mode and archive its series; prints
                   its GMRES iterations and true residuals per block and its
                   refinement passes
    decay-sweep    run a full k-set sweep from a config file
                   (mode-run and decay-sweep print the operator's set-up time)
    fit            synthesize whole-space norms from an archive and fit decay
    report         write the fit summary CSV and run manifest for an archive
"""

from __future__ import annotations

import argparse
import sys
import textwrap
import time
from pathlib import Path

import numpy as np

from .collision import CollisionParams, assemble_L, sigma_field
from .grid import TwoSpeciesField, build_grid, inner_product
from .lab import (ConfigError, ExperimentConfig, _PARSERS, _fmt, _mode_file, decay_fit,
                  load_archive, parse_config, report, run_orbit, run_sweep, synthesize_norms)
from .macro import project_P
from .weights import dissipation_norm

SIGMA_CSV_HEADER = "r,xi1,xi2,xi3,s11,s12,s13,s22,s23,s33"
FIT_WINDOW = (20.0, 200.0)   # fit and report's default --window


def _parse_vec(text: str) -> np.ndarray:
    parts = [float(x) for x in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected three comma-separated numbers, got {text!r}")
    return np.array(parts)


def _parse_window(text: str) -> tuple:
    """A fit window "t1,t2" with t2 > t1."""
    window = tuple(float(x) for x in text.split(","))
    if len(window) != 2 or not window[1] > window[0]:
        raise argparse.ArgumentTypeError(f"expected a window t1,t2 with t2 > t1, got {text!r}")
    return window


def cmd_sigma_table(args) -> int:
    # ExperimentConfig's checks: a ConfigError unless the grid and kernel can be built
    ExperimentConfig(R=args.rmax, n=args.n, gamma=args.gamma, c_phi=args.c_phi)
    grid = build_grid(args.rmax, args.n)
    params = CollisionParams(gamma=args.gamma, c_phi=args.c_phi)
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


IDENTITY_TOL = 1e-12     # null residuals and symmetry defect: roundoff identities
SYMMETRY_PAIRS = 4       # seeded field pairs for the symmetry defect


def spectrum_suite(n: int, R: float, gamma: float):
    """Null residuals, symmetry defect and, over the 14 odd-even fields f
    (``LinearizedOperator.odd_even_basis``), the (min, max) of <Lf, f>/|f|^2 and of
    <Lm, m>/|m|_D^2 on their micro parts m = (I - P)f: the space on which the
    coercivity <Lf, f> >= lambda |(I - P)f|_D^2 fails on the lattice."""
    grid = build_grid(R, n)
    op = assemble_L(grid, CollisionParams(gamma=gamma, c_phi=ExperimentConfig.c_phi))
    rng = np.random.default_rng(7)
    envelope = grid.mu ** 0.25
    sym = 0.0
    for _ in range(SYMMETRY_PAIRS):
        f, g = (TwoSpeciesField(rng.standard_normal((2, grid.size)) * envelope, grid)
                for _ in range(2))
        Lf, Lg = op.apply(f), op.apply(g)
        sym = max(sym, abs(inner_product(Lf, g) - inner_product(f, Lg)) / (Lf.norm() * g.norm()))
    rayleigh, coercivity = [], []
    for f in op.odd_even_basis():
        rayleigh.append(inner_product(op.apply(f), f).real / f.norm() ** 2)
        m = project_P(f)[2]
        coercivity.append(inner_product(op.apply(m), m).real
                          / dissipation_norm(m, op.sigma))
    return {"n": n, "R": R, "gamma": gamma, "symmetry_defect": sym,
            "null_residuals": [op.apply(v).norm() / v.norm() for v in op.nullspace_basis()],
            "odd_even_rayleigh": (min(rayleigh), max(rayleigh)),
            "odd_even_coercivity": (min(coercivity), max(coercivity))}


def cmd_spectrum_check(args) -> int:
    for n in args.n:   # every grid and kernel is checked before the first is built
        ExperimentConfig(R=args.R, n=n, gamma=args.gamma)
    t0 = time.perf_counter()
    failed = []
    for n in args.n:
        res = spectrum_suite(n, args.R, args.gamma)
        print(f"n={n} R={args.R} gamma={args.gamma}")
        print("  null residuals: " + ", ".join(f"{r:.3e}" for r in res["null_residuals"]))
        print(f"  symmetry defect: {res['symmetry_defect']:.3e}")
        for key, ratio in (("rayleigh", "<Lf, f>/|f|^2"), ("coercivity", "micro <Lm, m>/|m|_D^2")):
            lo, hi = res[f"odd_even_{key}"]
            print(f"  odd-even {ratio}: [{lo:.3e}, {hi:.3e}]")
        gated = [("null residual", r) for r in res["null_residuals"]]
        gated.append(("symmetry defect", res["symmetry_defect"]))
        failed += [f"n={n}: {name} {x:.3e} exceeds {IDENTITY_TOL:g}"
                   for name, x in gated if x > IDENTITY_TOL]
    print(f"elapsed: {time.perf_counter() - t0:.1f}s")
    for line in failed:
        print(f"spectrum-check failed: {line}", file=sys.stderr)
    return 1 if failed else 0


def _operator(cfg: ExperimentConfig):
    """L on cfg's grid and kernel; prints the seconds its set-up took."""
    t0 = time.perf_counter()
    op = assemble_L(build_grid(cfg.R, cfg.n), cfg.collision_params())
    print(f"operator set-up: {time.perf_counter() - t0:.3f}s at n = {cfg.n}")
    return op


# the ExperimentConfig fields mode-run takes as flags, each defaulting to the config's own
_MODE_RUN_SETTINGS = ("family", "T", "n", "R", "gamma", "dt", "scheme", "save_interval")


def cmd_mode_run(args) -> int:
    settings = {name: getattr(args, name) for name in _MODE_RUN_SETTINGS}
    cfg = ExperimentConfig(**{name: v for name, v in settings.items() if v is not None},
                           outdir=args.out, shells=(max(float(np.linalg.norm(args.k)), 1e-6),))
    out = Path(args.out)
    foreign = [name for name in ("config.cfg", "manifest.json") if (out / name).exists()]
    if foreign:   # the mode_0000.* of a sweep's directory are that run's own
        raise ConfigError(f"{out} holds another run ({', '.join(foreign)}); "
                          "mode-run needs a directory of its own")
    out.mkdir(parents=True, exist_ok=True)
    rep, hist = run_orbit(cfg, args.k, [(0, args.k)], _operator(cfg))   # an orbit of one
    energy = rep.f_l2sq + rep.em_sq
    print(f"mode k={args.k} integrated to T={cfg.T}; "
          f"energy {energy[0]:.6g} -> {energy[-1]:.6g}; series in {_mode_file(args.out, 0, 'csv')}")
    print(_solver_line(hist, cfg.lin_tol))
    return 0


def _solver_line(hist, lin_tol: float) -> str:
    """How a run's solves behaved: GMRES iterations a step per block (mean and max), the
    largest recorded true residual over lin_tol and the refinement passes."""
    iters = hist.solve_iters
    mean = iters.sum(axis=0) / max(len(iters), 1)
    most = iters.max(axis=0, initial=0)
    return (f"solver: GMRES iterations a step, sum block {mean[0]:.2f} (max {most[0]}), "
            f"difference block {mean[1]:.2f} (max {most[1]}); largest residual "
            f"{hist.solve_residual.max(initial=0.0) / lin_tol:.3g} lin_tol; "
            f"{hist.refinements.sum()} refinement passes")


def cmd_decay_sweep(args) -> int:
    cfg = parse_config(args.config)
    t0 = time.perf_counter()
    archive = run_sweep(cfg, _operator(cfg))
    print(f"sweep complete: {len(archive.mode_csvs)} modes from {len(cfg.shells)} solves, "
          f"{len(archive.failures)} failures, {time.perf_counter() - t0:.0f}s; "
          f"archive at {archive.outdir}")
    return 0 if not archive.failures else 1


def _decay_fits(args, ms):
    """(archive, decay fit per m), or (archive, None) after printing to stderr why not.

    None when the archive cannot be read, when its norms cannot be synthesized
    or when the window's t2 lies past its last sample.
    """
    try:
        archive = load_archive(args.archive)
    except (OSError, ValueError) as exc:   # no config.cfg, a bad one, or no finished run of it
        print(f"vml: {exc}", file=sys.stderr)
        return None, None
    try:
        norms = [synthesize_norms(archive, m) for m in ms]
    except ValueError as exc:
        print(f"cannot synthesize the norms of {archive.outdir}: {exc}", file=sys.stderr)
        modes = {}   # the members of a failed orbit share one failure
        for f in archive.failures:
            modes.setdefault((f["error"], f["traceback"]), []).append(str(f["mode"]))
        for (error, trace), idx in modes.items():
            print(f"  mode{'s' * (len(idx) > 1)} {', '.join(idx)} failed: {error}",
                  file=sys.stderr)
            print(textwrap.indent(trace.rstrip("\n"), "    "), file=sys.stderr)
        return archive, None
    last = float(norms[0][0][-1])
    if args.window[1] > last:
        print(f"the fit window ({args.window[0]:g}, {args.window[1]:g}) ends past the last "
              f"sample of {archive.outdir}, at t = {last:g}", file=sys.stderr)
        return archive, None
    shells = len(parse_config(archive.config_path).shells)
    return archive, [decay_fit(times, series, args.window, m=m, shells_used=shells)
                     for m, (times, series) in zip(ms, norms)]


def cmd_fit(args) -> int:
    _, fits = _decay_fits(args, [args.m])
    if fits is None:
        return 1
    fit = fits[0]
    if not fit.conclusive:
        print("inconclusive: insufficient decay inside the window")
        return 1
    print(f"m={fit.m}: sigma_hat={fit.sigma_hat:.4f} "
          f"(target {fit.sigma_target:.4f}), residual={fit.residual:.3e}, "
          f"fitted on t in [{fit.window[0]:g}, {fit.window[1]:g}]")
    return 0


def cmd_report(args) -> int:
    archive, fits = _decay_fits(args, args.m)
    if fits is None:
        return 1
    manifest = report(archive, fits)
    print(f"summary: {archive.summary_path()}")
    print(f"manifest: {archive.manifest_path()} ({len(manifest['files'])} files)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="vml", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("sigma-table", help="dump sigma^ij along a lattice ray")
    s.add_argument("--gamma", type=float, default=ExperimentConfig.gamma)
    s.add_argument("--c-phi", type=float, default=ExperimentConfig.c_phi)
    s.add_argument("--ray", type=_parse_vec, default=np.array([1.0, 0, 0]))
    s.add_argument("--rmax", type=float, default=8.0)
    s.add_argument("--n", type=int, default=33)
    s.add_argument("--out", default="sigma.csv")
    s.set_defaults(func=cmd_sigma_table)

    text = ("null residuals, symmetry defect and the odd-even ratios of L, per n; exits 1 "
            "when a null residual or the symmetry defect exceeds 1e-12")
    s = sub.add_parser("spectrum-check", help=text, description=text)
    s.add_argument("--n", type=int, nargs="+", default=[17, 25])
    s.add_argument("--R", type=float, default=ExperimentConfig.R)
    s.add_argument("--gamma", type=float, default=ExperimentConfig.gamma)
    s.set_defaults(func=cmd_spectrum_check)

    s = sub.add_parser("mode-run", help="integrate a single Fourier mode; a setting left "
                                        "out takes the ExperimentConfig default")
    s.add_argument("--k", type=_parse_vec, required=True)
    for name in _MODE_RUN_SETTINGS:
        s.add_argument(f"--{name.replace('_', '-')}", type=_PARSERS[name])
    s.add_argument("--out", default="runs/mode")
    s.set_defaults(func=cmd_mode_run)

    s = sub.add_parser("decay-sweep", help="run a sweep from a config file")
    s.add_argument("--config", required=True)
    s.set_defaults(func=cmd_decay_sweep)

    s = sub.add_parser("fit", help="fit a decay exponent from an archive")
    s.add_argument("--archive", required=True)
    s.add_argument("--m", type=int, default=0)
    s.add_argument("--window", type=_parse_window, default=FIT_WINDOW)
    s.set_defaults(func=cmd_fit)

    s = sub.add_parser("report", help="write fit summary and manifest")
    s.add_argument("--archive", required=True)
    s.add_argument("--m", type=int, nargs="+", default=[0, 1])
    s.add_argument("--window", type=_parse_window, default=FIT_WINDOW)
    s.set_defaults(func=cmd_report)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"vml: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
