"""Quick self-check of the benchmark harness and of its correctness checks.

    python3 perfbench/selfcheck.py

1. Runs each workload once at a tiny size (n = 9, one or two modes, a few
   steps) through perfbench/round.py with tracing on, and requires a correct
   round with no failed operation and every metric present.
2. Runs each tiny workload in this process, requires its checks to pass, then
   feeds them corrupted outputs one at a time and requires each to be caught.

Prints one line per item and exits with 1 if any item fails.  Takes well under
a minute.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

WORK = HERE / "_runs" / "selfcheck"
RESULTS = []


def report(name: str, ok: bool, detail: str = "") -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""), flush=True)


def harness_rounds() -> None:
    for w in workloads.RUN:
        env = dict(os.environ, VML_THREADS="2") if w == "sweep_n13_2w" else None
        proc = subprocess.run([sys.executable, str(HERE / "round.py"), "--workload", w,
                               "--seed", "7", "--trace", "1", "--size", "tiny"],
                              capture_output=True, text=True, env=env, cwd=HERE.parent)
        if proc.returncode != 0:
            report(f"{w}: tiny traced round", False, proc.stderr[-500:])
            continue
        r = json.loads(proc.stdout.strip().splitlines()[-1])
        missing = ({"wall_s", "setup_s", "step_s", "peak_rss_mb"} - set(r.get("metrics", {}))
                   | set(tracing.PER_LAYER) - set(r.get("layers", {})))
        ok = r["correct"] and r["failed"] == 0 and not missing
        report(f"{w}: tiny traced round", ok,
               f"correct={r['correct']} failed={r['failed']}/{r['ops']} missing={sorted(missing)}"
               f" problems={r['problems']}")


def caught(name: str, verdict_or_problems) -> None:
    """The corrupted output must produce at least one problem."""
    if isinstance(verdict_or_problems, list):
        problems = verdict_or_problems
    else:
        problems = ([p for ps in verdict_or_problems.mode_problems.values() for p in ps]
                    + verdict_or_problems.run_problems)
    report(f"catches {name}", bool(problems), problems[0] if problems else "no problem reported")


def run_tiny(w: str, seed: int = 7):
    outdir = WORK / w
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    out = workloads.RUN[w]("tiny", outdir, seed)
    v = workloads.VERIFY[w](out, seed)
    clean = not v.mode_problems and not v.run_problems
    report(f"{w}: tiny outputs pass their checks", clean, str(v) if not clean else "")
    return out


def edit_csv_value(path: Path, column: str, row: int, factor: float) -> str:
    """Scale one cell of a CSV; returns the original text for restoring."""
    text = path.read_text()
    lines = text.splitlines()
    col = lines[0].split(",").index(column)
    cells = lines[row].split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return text


def corrupt_mode_n25() -> None:
    out = run_tiny("mode_n25")
    seed = 7
    op, hist = out.data["op"], out.data["hist"]

    fft, direct, scale, nodes = workloads.conv_check_inputs(op, seed)
    bad = fft.copy().reshape(3, -1)
    bad[1, nodes[3]] *= 1.0 + 1e-6
    caught("a convolution result with one perturbed entry",
           checks.convolution_matches(bad, direct, scale, nodes))

    csv_path = out.data["outdir"] / "mode_0000.csv"
    original = edit_csv_value(csv_path, "f_l2sq", 3, 1.5)
    caught("a mode CSV with one energy increase", workloads.verify_mode_n25(out, seed))
    csv_path.write_text(original)

    saved = hist.energy.copy()
    hist.energy[2] = hist.energy[1] * (1.0 + 1e-6)
    caught("an energy history that rises by 1e-6 in one step", workloads.verify_mode_n25(out, seed))
    hist.energy[:] = saved

    saved = hist.dissipation.copy()
    hist.dissipation[1] = -1e-6
    caught("a negative dissipation entry", workloads.verify_mode_n25(out, seed))
    hist.dissipation[:] = saved

    saved = hist.gauss_E.copy()
    hist.gauss_E[-1] = 2.0 * out.data["cfg"].constraint_tol
    caught("a Gauss residual above constraint_tol", workloads.verify_mode_n25(out, seed))
    hist.gauss_E[:] = saved

    frame = hist.frames[2]
    saved = frame.Ehat.copy()
    frame.Ehat = frame.Ehat + 1e-6
    caught("a frame that breaks the midpoint equation", workloads.verify_mode_n25(out, seed))
    frame.Ehat = saved


def corrupt_sweep() -> None:
    out = run_tiny("sweep_n13_2w")
    seed = 7
    outdir = Path(out.data["archive"].outdir)
    csv_path = outdir / "mode_0001.csv"

    original = edit_csv_value(csv_path, "em_sq", 3, 3.0)
    caught("a sweep CSV with one energy increase", workloads.verify_sweep_n13_2w(out, seed))
    csv_path.write_text(original)

    lines = original.splitlines()
    csv_path.write_text("\n".join(lines[:-1]) + "\n")
    caught("a sweep CSV missing its last row", workloads.verify_sweep_n13_2w(out, seed))
    csv_path.write_text(original)

    stray = outdir / "stray.txt"
    stray.write_text("not in the manifest\n")
    caught("a file on disk that the manifest does not list", workloads.verify_sweep_n13_2w(out, seed))
    stray.unlink()

    summary = outdir / "fit_summary.csv"
    original = edit_csv_value(summary, "sigma_hat", 1, 1.0 + 1e-6)
    caught("a fit_summary sigma_hat off by 1e-6", workloads.verify_sweep_n13_2w(out, seed))
    summary.write_text(original)

    times, total = out.data["synth"][1]
    saved = total.copy()
    total[-1] *= 1.0 + 1e-9
    caught("a synthesized norm off by 1e-9", workloads.verify_sweep_n13_2w(out, seed))
    total[:] = saved


def corrupt_euler() -> None:
    out = run_tiny("euler_diag_n17")
    seed = 7
    ckpt = out.data["ckpt"]

    blob = bytearray(ckpt.read_bytes())
    original = bytes(blob)
    blob[len(blob) // 2] ^= 0x01
    ckpt.write_bytes(bytes(blob))
    caught("a checkpoint with one flipped bit", workloads.verify_euler_diag_n17(out, seed))
    ckpt.write_bytes(original)

    final = out.data["restart"].frames[-1]
    saved = final.fhat.values.copy()
    final.fhat.values[0, 5] = np.nextafter(final.fhat.values[0, 5].real, np.inf) \
        + 1j * final.fhat.values[0, 5].imag
    caught("a restart that differs in one bit", workloads.verify_euler_diag_n17(out, seed))
    final.fhat.values[:] = saved

    hist = out.data["hist"]
    saved = hist.energy.copy()
    hist.energy[:] = hist.energy * (1.0 - 1e-9)
    caught("an energy series that disagrees with energy_ledger by 1e-9",
           workloads.verify_euler_diag_n17(out, seed))
    hist.energy[:] = saved


def main() -> int:
    harness_rounds()
    corrupt_mode_n25()
    corrupt_sweep()
    corrupt_euler()
    shutil.rmtree(WORK, ignore_errors=True)
    print(f"{sum(RESULTS)}/{len(RESULTS)} self-check items passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
