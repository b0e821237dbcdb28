"""Correctness checks on the outputs of one benchmark round.

Every check recomputes what it compares against, apart from the program, or
tests a property the method must have; none compares with a stored copy of an
earlier run.  Each returns a list of problems (empty when the check passes),
so the self-check can feed it corrupted outputs and see it fail.
"""

from __future__ import annotations

import csv
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

def energy_nonincreasing(energy, lin_tol: float, label: str) -> list:
    """Each step may raise the energy by at most lin_tol times its value."""
    energy = np.asarray(energy, dtype=float)
    rise = np.diff(energy) - lin_tol * np.abs(energy[:-1])
    bad = np.flatnonzero(rise > 0.0)
    if bad.size:
        i = int(bad[0])
        return [f"{label}: energy rises at index {i + 1}: "
                f"{float(energy[i])!r} -> {float(energy[i + 1])!r}"]
    return []


def dissipation_nonnegative(dissipation, energy, label: str) -> list:
    """Re <L f, f> >= 0 up to roundoff of the energy's size."""
    d = np.asarray(dissipation, dtype=float)
    floor = -1e-12 * np.asarray(energy, dtype=float)
    bad = np.flatnonzero(d < floor)
    if bad.size:
        return [f"{label}: dissipation {float(d[bad[0]])!r} < 0 at step {int(bad[0])}"]
    return []


def gauss_within(gauss_E, gauss_B, tol: float, label: str) -> list:
    worst = max(float(np.max(gauss_E)), float(np.max(gauss_B)))
    return [f"{label}: Gauss residual {worst!r} > constraint_tol {tol!r}"] if worst > tol else []


def _flat(state) -> np.ndarray:
    return np.concatenate([state.fhat.values.reshape(-1), state.Ehat, state.Bhat])


def midpoint_residuals(frames, op, a: float, dt: float) -> list:
    """||u* - a M u* - u^n|| / ||u^n|| for consecutive frames one step apart.

    u* = (u^n + u^{n+1}) / 2 is the midpoint solve's unknown and M comes from the
    public ``mode_rhs``.
    """
    from vmlandau.grid import TwoSpeciesField
    from vmlandau.mode import ModeState, mode_rhs

    out = []
    for s0, s1 in zip(frames, frames[1:]):
        if abs((s1.t - s0.t) - dt) > 1e-9 * dt:
            continue
        u0 = _flat(s0)
        star = ModeState(s0.k, TwoSpeciesField(0.5 * (s0.fhat.values + s1.fhat.values), op.grid),
                         0.5 * (s0.Ehat + s1.Ehat), 0.5 * (s0.Bhat + s1.Bhat), s0.t)
        df, dE, dB = mode_rhs(star, op)
        r = _flat(star) - a * np.concatenate([df.values.reshape(-1), dE, dB]) - u0
        out.append(float(np.linalg.norm(r) / np.linalg.norm(u0)))
    return out


def midpoint_equation(residuals, lin_tol: float, label: str) -> list:
    if not residuals:
        return [f"{label}: no consecutive frames to check the midpoint equation on"]
    worst = max(residuals)
    return [f"{label}: midpoint residual {worst!r} > lin_tol {lin_tol!r}"] if worst > lin_tol else []


def conv_sample(grid, seed: int, nodes: int = 8):
    """Seeded random 3-component field and the lattice nodes the check samples."""
    rng = np.random.default_rng(seed)
    n = grid.n
    v3 = rng.standard_normal((3, n, n, n)) + 1j * rng.standard_normal((3, n, n, n))
    picks = rng.choice(grid.size, size=nodes, replace=False)
    return v3, np.sort(picks)


def direct_lattice_sum(grid, gamma: float, c_phi: float, zero_entry: float, v3, nodes):
    """out_i(p) = sum_q sum_j phi^ij(xi_p - xi_q) v_j(q) at the given nodes.

    phi^ij(d) = c_phi |d|^(gamma+2) (delta_ij - d_i d_j / |d|^2) in closed form
    for d != 0; ``zero_entry`` is the program's calibrated coincident-cell
    value, taken as given.  Returns the sums and, per node, the sum of the
    terms' magnitudes (the scale roundoff is measured against).
    """
    xi = grid.xi
    v = v3.reshape(3, -1)
    out = np.empty((3, len(nodes)), dtype=complex)
    scale = np.empty(len(nodes))
    for col, p in enumerate(nodes):
        d = xi[:, [p]] - xi
        r2 = np.sum(d * d, axis=0)
        nz = r2 > 0.0
        r2s = np.where(nz, r2, 1.0)
        s = np.where(nz, c_phi * r2s ** ((gamma + 2.0) / 2.0), 0.0)
        mag = 0.0
        for i in range(3):
            acc = 0.0
            for j in range(3):
                phi = s * ((1.0 if i == j else 0.0) - d[i] * d[j] / r2s)
                phi = np.where(nz, phi, zero_entry if i == j else 0.0)
                acc = acc + np.sum(phi * v[j])
                mag += float(np.sum(np.abs(phi) * np.abs(v[j])))
            out[i, col] = acc
        scale[col] = mag
    return out, scale


def convolution_matches(fft_result, direct, scale, nodes, tol: float = 1e-10) -> list:
    """FFT and direct sums agree to roundoff, relative to the summed term magnitudes."""
    got = fft_result.reshape(3, -1)[:, nodes]
    err = np.max(np.abs(got - direct), axis=0) / scale
    worst = float(err.max())
    if worst > tol:
        return [f"apply_vector differs from the direct lattice sum by {worst:.3e} "
                f"of the term magnitudes (allowed {tol:.0e})"]
    return []


def null_space(op) -> list:
    """||L v||_W / (||v||_W ||L||_est) at roundoff for the six null vectors.

    ||L||_est = ||L g||_W / ||g||_W for a fixed Maxwellian-enveloped field g.
    """
    w = op.grid.weights

    def wnorm(x):
        return math.sqrt(float(np.sum(w * (np.abs(x) ** 2).sum(axis=0))))

    rng = np.random.default_rng(0)
    g = rng.standard_normal((2, op.grid.size)) * op.grid.mu ** 0.25
    lnorm = wnorm(op.apply_raw(g.astype(complex))) / wnorm(g)
    problems = []
    for idx, v in enumerate(op.nullspace_basis()):
        rel = wnorm(op.apply_raw(v.values)) / (wnorm(v.values) * lnorm)
        if rel > 1e-12:
            problems.append(f"null vector {idx}: ||L v|| / (||v|| ||L||) = {rel:.3e} > 1e-12")
    return problems


def read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header = ",".join(rows[0])
    cols = {name: np.array([float(r[i]) for r in rows[1:]]) for i, name in enumerate(rows[0])}
    return header, cols


def mode_csv(path, expected_header: str, expected_rows: int, lin_tol: float,
             constraint_tol: float) -> list:
    label = os.path.basename(path)
    header, cols = read_csv(path)
    if header != expected_header:
        return [f"{label}: header {header!r} is not the mode CSV header"]
    rows = len(cols["t"])
    if rows != expected_rows:
        return [f"{label}: {rows} rows, expected {expected_rows}"]
    return (energy_nonincreasing(cols["f_l2sq"] + cols["em_sq"], lin_tol, label)
            + gauss_within(cols["gauss_E"], cols["gauss_B"], constraint_tol, label))


def shell_weights(shells, directions: int) -> dict:
    """4 pi r^2 dr / directions, with trapezoid dr in r (a single shell gets dr = 1)."""
    r = list(shells)
    if len(r) == 1:
        dr = [1.0]
    else:
        dr = [(r[1] - r[0]) / 2.0]
        dr += [(r[i + 1] - r[i - 1]) / 2.0 for i in range(1, len(r) - 1)]
        dr.append((r[-1] - r[-2]) / 2.0)
    return {round(ri, 12): 4.0 * math.pi * ri * ri * dri / directions for ri, dri in zip(r, dr)}


def own_synthesis(csv_paths, shells, directions: int, m: int):
    """k-quadrature of |k|^(2m) (f_l2sq + em_sq) over the archived mode CSVs."""
    weights = shell_weights(shells, directions)
    times, total = None, None
    for path in sorted(csv_paths):
        _, cols = read_csv(path)
        k = np.array([cols["k1"][0], cols["k2"][0], cols["k3"][0]])
        ksq = float(k @ k)
        term = weights[round(math.sqrt(ksq), 12)] * ksq ** m * (cols["f_l2sq"] + cols["em_sq"])
        if times is None:
            times, total = cols["t"], np.zeros_like(term)
        if not np.array_equal(cols["t"], times):
            raise ValueError(f"{os.path.basename(path)} has another time axis than the first CSV")
        total = total + term
    return times, total


def synthesis_matches(own_t, own_total, prog_t, prog_total, m: int) -> list:
    if len(own_t) != len(prog_t) or not np.array_equal(own_t, np.asarray(prog_t)):
        return [f"synthesize_norms m={m}: time axis differs from the CSVs"]
    err = float(np.max(np.abs(own_total - prog_total)) / np.max(np.abs(own_total)))
    if err > 1e-12:
        return [f"synthesize_norms m={m} differs from the k-quadrature of the CSVs by {err:.3e}"]
    return []


def own_slope_sigma(times, series, window) -> float:
    """-slope/2 of the least-squares line of log(series) on log(1+t) in the window."""
    t = np.asarray(times, dtype=float)
    sel = (t >= window[0]) & (t <= window[1])
    x = [math.log1p(v) for v in t[sel]]
    y = [math.log(v) for v in np.asarray(series)[sel]]
    xm, ym = sum(x) / len(x), sum(y) / len(y)
    slope = (sum((a - xm) * (b - ym) for a, b in zip(x, y))
             / sum((a - xm) ** 2 for a in x))
    return -slope / 2.0


def fit_summary(path, expected: dict) -> list:
    """Each sigma_hat row equals the benchmark's own slope for its m."""
    _, cols = read_csv(path)
    ms = [int(m) for m in cols["m"]]
    if sorted(ms) != sorted(expected):
        return [f"fit_summary.csv lists m = {ms}, expected {sorted(expected)}"]
    problems = []
    for m, got in zip(ms, cols["sigma_hat"]):
        want = expected[m]
        if not abs(got - want) <= 1e-9 * max(abs(want), 1e-3):
            problems.append(f"fit_summary.csv m={m}: sigma_hat {float(got)!r}, "
                            f"own slope gives {want!r}")
    return problems


def manifest_matches(outdir, n_modes: int, n_failed: int) -> list:
    outdir = Path(outdir)
    manifest = json.loads((outdir / "manifest.json").read_text())
    on_disk = {p.name for p in outdir.iterdir() if p.is_file()} - {"manifest.json"}
    problems = []
    if set(manifest["files"]) != on_disk or len(manifest["files"]) != len(on_disk):
        problems.append(f"manifest lists {sorted(manifest['files'])}, disk holds {sorted(on_disk)}")
    if manifest["n_modes"] != n_modes or len(manifest["failures"]) != n_failed:
        problems.append(f"manifest n_modes={manifest['n_modes']} failures={manifest['failures']}, "
                        f"expected {n_modes} modes and {n_failed} failures")
    return problems


_MAGIC = b"VMLCK001"
_HEADER = struct.Struct("<dIdd")


def parse_checkpoint(path):
    """Records (k, t, f, E, B) parsed from the documented little-endian layout."""
    blob = Path(path).read_bytes()
    if blob[:8] != _MAGIC:
        raise ValueError("bad magic")
    _R, n, _gamma, _c_phi = _HEADER.unpack_from(blob, 8)
    off = 8 + _HEADER.size
    n3 = n ** 3
    rec = 32 + (2 * n3 + 6) * 16
    if (len(blob) - off) % rec:
        raise ValueError("partial record")
    records = []
    for start in range(off, len(blob), rec):
        k = np.frombuffer(blob, "<f8", 3, start)
        t = np.frombuffer(blob, "<f8", 1, start + 24)[0]
        f = np.frombuffer(blob, "<c16", 2 * n3, start + 32).reshape(2, n3)
        E = np.frombuffer(blob, "<c16", 3, start + 32 + 32 * n3)
        B = np.frombuffer(blob, "<c16", 3, start + 32 + 32 * n3 + 48)
        records.append((k, t, f, E, B))
    return records


def _same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def state_bits_equal(s, k, t, f, E, B) -> bool:
    return (_same_bits(s.k, k) and _same_bits(np.float64(s.t), np.float64(t))
            and _same_bits(s.fhat.values, f) and _same_bits(s.Ehat, E) and _same_bits(s.Bhat, B))


def checkpoint_matches_frames(path, frames, program_states) -> list:
    """Own parse and the program's reader both equal the frames bit for bit."""
    try:
        records = parse_checkpoint(path)
    except ValueError as exc:
        return [f"checkpoint unreadable: {exc}"]
    if len(records) != len(frames) or len(program_states) != len(frames):
        return [f"checkpoint holds {len(records)} records ({len(program_states)} read by the "
                f"program), {len(frames)} frames sampled"]
    for i, (fr, rec, st) in enumerate(zip(frames, records, program_states)):
        if not state_bits_equal(fr, *rec):
            return [f"checkpoint record {i} differs from frame {i} (t={fr.t!r})"]
        if not state_bits_equal(st, *rec):
            return [f"read_checkpoint state {i} differs from the file's bytes"]
    return []


def restart_bitwise(final, restarted) -> list:
    if not state_bits_equal(restarted, final.k, restarted.t, final.fhat.values,
                            final.Ehat, final.Bhat):
        return ["restart from the middle record does not reproduce the final state bit for bit"]
    return []


def ledger_matches_energy(ledger_energy: float, energy: float, idx: int) -> list:
    if not abs(ledger_energy - energy) <= 1e-12 * abs(energy):
        return [f"energy_ledger(N=0) at frame {idx} is {float(ledger_energy)!r}, "
                f"history {float(energy)!r}"]
    return []
