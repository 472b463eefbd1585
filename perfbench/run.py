"""edrisk benchmark: one workload per process, closed loop with one client.

    python3 perfbench/run.py --workload {cohort_build,train_b4096,repro} \
        --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the program is imported from ``src/``.
The run sets the workload up several times (reporting the median), then
repeats the workload's timed region until ``--seconds`` are used up and
reports medians.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-module metrics with
``--trace 1``.  The line before it records the environment.

The traced run alternates untraced and traced iterations, so it reports
the tracing overhead and checks that traced outputs equal untraced ones.
Its spans go to ``.perfbench_runs/trace-<workload>-<seed>.json``.
"""

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
# one BLAS thread: no more than nproc, and steadier than two on a shared 2-core box
BLAS_THREADS = 1
SETUP_REPEATS = 3
MIN_ITERATIONS = 2  # byte-identity of outputs needs two runs of the timed region


def unit_of(name: str) -> str:
    if "flops_computed" in name:
        return "flop"
    if "bytes" in name:
        return "B"
    if name.startswith("proc.rss_mb") or name == "peak_rss_mb":
        return "MiB"
    if ".ms" in name:
        return "ms"
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("share", "coverage")):
        return "ratio"
    if name == "evaluation.auc_all":
        return "auc"
    return "count"


def environment(args) -> dict:
    import numpy
    import scipy

    cpu = next((ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
                if ln.startswith("model name")), platform.processor())
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    status = Path("/proc/self/status").read_text()
    threads = next(int(ln.split()[1]) for ln in status.splitlines() if ln.startswith("Threads:"))
    return {
        "workload": args.workload,
        "seed": args.seed,
        "size": "smoke" if args.smoke else "full",
        "blas_threads": BLAS_THREADS,
        "process_threads": threads,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("cohort_build", "train_b4096", "repro"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args()

    if not (SRC / "edrisk" / "__init__.py").is_file():
        print(f"benchmark: no edrisk sources under {SRC}", file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))

    import edrisk
    import kernels
    import tracing
    import workloads

    if Path(edrisk.__file__).resolve().parent != SRC / "edrisk":
        print(f"benchmark: imported edrisk from {edrisk.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _T_START

    def log(msg):
        print(f"[{args.workload} seed={args.seed}] {msg}", file=sys.stderr)

    RUNS_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=RUNS_DIR))
    try:
        checks = workloads.Checks(log)
        wl = workloads.WORKLOADS[args.workload](args.seed, "smoke" if args.smoke else "full", workdir, checks)
        setup_times = []
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            wl.setup()
            setup_times.append(time.perf_counter() - t0)
        setup_s = import_s + statistics.median(setup_times)

        deadline = time.perf_counter() + args.seconds
        plain, traced, tracers = [], [], []

        def keep_going(done):
            # start another iteration only if it should end before the deadline
            if len(plain) + len(traced) < MIN_ITERATIONS:
                return True
            return time.perf_counter() + statistics.median(o.wall_s for o in done) <= deadline

        plain.append(wl.run())
        if args.trace:
            # alternate traced and untraced iterations, so drift on the machine
            # falls on both sides of the tracing overhead
            while not traced or keep_going(plain + traced):
                if len(traced) < len(plain):
                    tracer = tracing.Tracer(run_id=f"{args.workload}-{args.seed}-{len(traced)}")
                    with tracer.installed():
                        traced.append(wl.run())
                    tracers.append(tracer)
                else:
                    plain.append(wl.run())
        else:
            while keep_going(plain):
                plain.append(wl.run())
        outcomes = plain + traced
        checks(len({o.fingerprint for o in outcomes}) == 1,
               "outputs differ between runs of one seed" + (" (traced vs untraced)" if traced else ""))
        log(f"{len(plain)} untraced, {len(traced)} traced iterations, "
            f"wall {[round(o.wall_s, 3) for o in outcomes]}, setup {[round(t, 3) for t in setup_times]}")

        env = environment(args)
        env["iterations"] = {"untraced": len(plain), "traced": len(traced)}
        if args.trace:
            per_run = [t.metrics(o.wall_s) for t, o in zip(tracers, traced)]
            metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
            traced_wall = statistics.median(o.wall_s for o in traced)
            metrics["trace.wall_s"] = traced_wall
            metrics["trace.overhead_s"] = traced_wall - statistics.median(o.wall_s for o in plain)
            metrics["evaluation.auc_all"] = statistics.median(o.auc_all for o in outcomes)
            metrics.update(kernels.micro_metrics())
            spans = [s for t in tracers for s in t.span_records()]
            trace_file = RUNS_DIR / f"trace-{args.workload}-{args.seed}.json"
            trace_file.write_text(json.dumps({"env": env, "metrics": metrics, "spans": spans}))
        else:
            metrics = {
                "setup_s": setup_s,
                "wall_s": statistics.median(o.wall_s for o in plain),
                "visits_per_s": statistics.median(o.visits / o.wall_s for o in plain),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(json.dumps({"env": env}))
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
