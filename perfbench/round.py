"""One round of a workload in a fresh process, as one `vml` invocation would be.

Runs the workload once (module caches start cold), checks its outputs and
prints one JSON line: operations attempted and failed, whether the run-level
checks passed, the round's end-to-end figures and, with --trace 1, its
per-layer figures.  ``wall_s`` counts from before numpy, scipy and the program
are imported, and stops before the checks.

    python3 perfbench/round.py --workload mode_n25 --seed 1 --trace 0 [--size tiny]
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

START = time.perf_counter()   # before numpy, scipy and the program are imported

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RUNS = HERE / "_runs"
TRACES = HERE / "_traces"


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its waited-for children, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("mode_n25", "sweep_n13_2w", "euler_diag_n17"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import workloads

    outdir = RUNS / args.workload
    shutil.rmtree(outdir, ignore_errors=True)
    outdir.mkdir(parents=True)
    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.install(TRACES / f".spool-{os.getpid()}")
        tracer.active = True

    ops = workloads.operations(args.workload, args.size)
    result = {"ops": ops, "failed": ops, "correct": True, "problems": []}
    try:
        out = workloads.RUN[args.workload](args.size, outdir, args.seed)
    except Exception:
        # the program raised: every mode of the round counts as failed
        result["problems"].append(traceback.format_exc())
        print(json.dumps(result))
        return 0
    end = time.perf_counter()
    rss = peak_rss_mb()
    if tracer is not None:
        tracer.active = False

    verdict = workloads.VERIFY[args.workload](out, args.seed)
    failed = set(out.failed_modes) | set(verdict.mode_problems)
    result["failed"] = len(failed)
    result["correct"] = not verdict.run_problems
    result["problems"] = ([p for ps in verdict.mode_problems.values() for p in ps]
                          + verdict.run_problems)
    result["metrics"] = {"wall_s": end - START, "setup_s": out.setup_s,
                         "step_s": out.integrate_s / out.steps, "peak_rss_mb": rss}
    if tracer is not None:
        spans = tracer.collect()
        result["layers"] = tracing.layer_metrics(spans, tracer.main_pid)
        TRACES.mkdir(exist_ok=True)
        trace_path = TRACES / f"{args.workload}-seed{args.seed}-{os.getpid()}.json"
        trace_path.write_text(json.dumps({"workload": args.workload, "seed": args.seed,
                                          "size": args.size, "spans": spans}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
