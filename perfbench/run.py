"""Benchmark of the spinctl control stack on four experiment workloads.

Run from the repository root:

    python3 perfbench/run.py --workload rb_noisy --seed 1 --seconds 22 --trace 0

Workloads (why each was chosen is in BENCHMARK.json):
    rb_noisy, allxy_noisy_dense, spectroscopy_shaped, controller_pipeline

With ``--trace 0`` the run reports the end-to-end host metrics:
    wall_s       median wall time of one complete workload run
    setup_s      median time from a fresh interpreter to ready (import
                 spinctl, build the Bench, make the inputs), over
                 SETUP_REPEATS child processes
    peak_rss_mb  peak resident memory of this process
With ``--trace 1`` it reports per-layer metrics (see tracing.py): half of
the time runs untraced, half traced, and ``trace.overhead_s`` is the
difference of the two median wall times.

Every run builds a fresh Bench and checks its outputs against oracles.  A
run fails when a check fails or it raises; ``fail_share`` is failed runs
over attempted runs.  The last stdout line is one JSON object; a result
file with provenance (and the spans of a traced run) goes to
perfbench/results/.
"""

import os

# One BLAS thread: the workloads are single-threaded closed loops, and the
# sandbox has two vCPUs shared with the benchmark's own child processes.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
SETUP_REPEATS = 3
MIN_RUNS = 3
SETUP_TIMEOUT_S = 60

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def import_workloads():
    """Import spinctl from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "spinctl" / "__init__.py").is_file():
        sys.exit(f"error: no spinctl package under {src}; run from a spinctl checkout")
    sys.path.insert(0, str(src))
    import spinctl

    if Path(spinctl.__file__).resolve().parent != src / "spinctl":
        sys.exit(f"error: imported spinctl from {spinctl.__file__}, not from {src}")
    sys.path.insert(0, str(HERE))
    import workloads

    return workloads


def setup_probe(args):
    """Child process of measure_setup: get ready, then say so."""
    workloads = import_workloads()
    w = workloads.WORKLOADS[args.workload]
    w.bench()
    w.inputs(args.seed)
    print("ready", flush=True)


def measure_setup(args):
    times = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - start
            child.stdout.read()
            code = child.wait(timeout=SETUP_TIMEOUT_S)
        if line.strip() != "ready" or code != 0:
            sys.exit(f"error: set-up probe exited with code {code}")
        times.append(elapsed)
    return times


def timed_runs(w, inputs, seconds, tracer=None):
    """Repeat the workload for ``seconds`` (at least MIN_RUNS times).

    Returns one (wall seconds, failed check names) pair per run.  Only the
    run itself is timed; the output checks are not.
    """
    results = []
    begin = time.perf_counter()
    while len(results) < MIN_RUNS or time.perf_counter() - begin < seconds:
        run_id = len(results)
        start = time.perf_counter()
        try:
            if tracer is None:
                out = w.run(inputs)
            else:
                with tracer.run(run_id):
                    out = w.run(inputs)
            wall = time.perf_counter() - start
            failed = w.check(inputs, out)
        except Exception:  # a raising run counts as failed; keep measuring
            wall = time.perf_counter() - start
            traceback.print_exc()
            failed = ["raised: " + traceback.format_exc().strip().splitlines()[-1]]
        for name in failed:
            print(f"check failed (run {run_id}): {name}", file=sys.stderr)
        results.append((wall, failed))
    return results


def git_commit():
    """Commit of the checkout, or "unknown" where it is not a git repository."""
    try:
        out = subprocess.run(["git", f"--git-dir={ROOT / '.git'}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def provenance(args):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        setup_probe(args)
        return
    w = workloads.WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)
    record = {"provenance": provenance(args)}

    notes = {}  # printed for the reader, not part of the JSON result
    if args.trace:
        import tracing

        untraced = timed_runs(w, inputs, args.seconds / 2)
        tracer = tracing.Tracer()
        with tracer.installed():
            traced = timed_runs(w, inputs, args.seconds / 2, tracer)
        runs = untraced + traced
        per_run = [tracer.metrics(i) for i in range(len(traced))]
        values = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        traced_wall = statistics.median(tracer.wall(i) for i in range(len(traced)))
        values["trace.overhead_s"] = traced_wall - statistics.median(r[0] for r in untraced)
        notes["traced wall_s"] = (traced_wall, "s")
        notes["sum of self_s (bench and layers)"] = (
            sum(v for k, v in values.items() if k.endswith(".self_s")), "s")
        unit_of = tracing.unit_of
        record["spans"] = tracer.spans
    else:
        setup = measure_setup(args)
        runs = timed_runs(w, inputs, args.seconds)
        values = {
            "wall_s": statistics.median(r[0] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        unit_of = END_TO_END_UNITS.get
        record["setup_s_each"] = setup

    failed = sum(bool(r[1]) for r in runs)
    if args.trace:
        values["fail_share"] = failed / len(runs)
    else:
        notes["fail_share"] = (failed / len(runs), "1")
    notes["runs"] = (len(runs), f"({failed} failed)")
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    record.update(
        metrics=metrics,
        wall_s_each=[r[0] for r in runs],
        failed_checks=[r[1] for r in runs],
    )
    RESULTS.mkdir(exist_ok=True)
    out_file = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record))

    for name, (value, unit) in [(k, (m["value"], m["unit"])) for k, m in metrics.items()] + list(notes.items()):
        print(f"{name:40s} {value:>16.6g} {unit}")
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
