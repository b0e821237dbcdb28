"""vmlandau benchmark: run one workload for a fixed time, check it, print one JSON line.

    python3 perfbench/run.py --workload euler_diag_n17 --seed 1 --seconds 50 --trace 0

Run from the repository root.  Each round is a fresh process (perfbench/round.py)
that imports the program from src/, runs the workload once, checks its outputs
and reports its figures.  Rounds repeat, one after another, until --seconds
have passed; every round is whole, so failed/attempted is the same share in
every run.  Each reported figure is the median over the run's rounds.

--trace 0 reports the end-to-end metrics from untraced rounds.  --trace 1
alternates untraced and traced rounds and reports the per-layer metrics (median
over the traced rounds) and trace.overhead_pct, the traced rounds' median
wall_s against the untraced rounds'.  Per-round figures go to stderr; the
last line of stdout is the result.  The benchmark sets no BLAS, FFT or thread
variable; only the sweep's VML_THREADS=2 is its own.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mode_n25", "sweep_n13_2w", "euler_diag_n17")
END_TO_END = {"wall_s": "s", "setup_s": "s", "step_s": "s", "peak_rss_mb": "MB"}
LIMIT_S = 170.0     # every run ends within 180 s, rounds included


class RoundError(RuntimeError):
    pass


def run_round(workload: str, seed: int, traced: bool, deadline: float) -> dict:
    env = dict(os.environ)
    if workload == "sweep_n13_2w":
        env["VML_THREADS"] = "2"
    cmd = [sys.executable, str(HERE / "round.py"), "--workload", workload,
           "--seed", str(seed), "--trace", "1" if traced else "0"]
    # own session, so that a timeout also ends the sweep's forked workers
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RoundError(f"round of {workload} did not end within the run's time limit")
    if proc.returncode != 0:
        raise RoundError(f"round of {workload} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise RoundError(f"round of {workload} printed no result")
    return json.loads(lines[-1])


def median_of(rounds: list, key: str) -> dict:
    names = rounds[0][key].keys()
    return {name: statistics.median(r[key][name] for r in rounds) for name in names}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (ROOT / "src" / "vmlandau" / "__init__.py").is_file():
        print(f"no program source at {ROOT / 'src' / 'vmlandau'}; run from a checkout",
              file=sys.stderr)
        return 2

    start = time.monotonic()
    deadline = start + LIMIT_S
    plain, traced = [], []
    try:
        while True:
            if args.trace:
                # alternate which kind goes first, so neither always sees the warmer cache
                order = (False, True) if len(traced) % 2 == 0 else (True, False)
            else:
                order = (False,)
            for kind in order:
                r = run_round(args.workload, args.seed, kind, deadline)
                (traced if kind else plain).append(r)
                print(f"round {len(plain) + len(traced)} ({'traced' if kind else 'untraced'}): "
                      f"{json.dumps(r.get('metrics'))}", file=sys.stderr)
                for problem in r["problems"]:
                    print(f"  problem: {problem}", file=sys.stderr)
            if time.monotonic() - start >= args.seconds:
                break
    except RoundError as exc:
        print(exc, file=sys.stderr)
        return 1

    rounds = plain + traced
    measured = [r for r in plain if "metrics" in r]
    if not measured or (args.trace and not any("layers" in r for r in traced)):
        print("no round completed the workload; nothing to report", file=sys.stderr)
        return 1
    if args.trace:
        layers = median_of([r for r in traced if "layers" in r], "layers")
        import tracing
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in tracing.PER_LAYER.items()}
        wall_plain = statistics.median(r["metrics"]["wall_s"] for r in measured)
        wall_traced = statistics.median(r["metrics"]["wall_s"] for r in traced if "metrics" in r)
        metrics["trace.overhead_pct"] = {"value": 100.0 * (wall_traced / wall_plain - 1.0),
                                         "unit": "%"}
    else:
        med = median_of(measured, "metrics")
        metrics = {name: {"value": med[name], "unit": unit} for name, unit in END_TO_END.items()}
    result = {"correct": all(r["correct"] for r in rounds),
              "attempted": sum(r["ops"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
