"""One benchmark workload in one fresh interpreter; writes its measurements as JSON.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and BLAS/OpenMP pinned
to one thread.  Set-up time runs from the first statement below to the end of
building job 0's inputs.  Jobs then run back to back (closed loop, one
client) until ``--seconds`` have passed; each job is timed as a whole and its
items one by one, and its outputs are checked after the timer stops.  With
``--trace 1`` untraced and traced jobs alternate, starting untraced.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402


def environment() -> dict:
    """Versions and thread settings the numbers were measured with."""
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "threads": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import ipower

    expected = Path(os.environ["IPOWER_BENCH_SRC"]).resolve() / "ipower"
    if Path(ipower.__file__).resolve().parent != expected:
        print(f"error: imported ipower from {ipower.__file__}, expected {expected}", file=sys.stderr)
        return 2
    import workloads

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    job_inputs = workload.prepare(0)
    setup_s = time.perf_counter() - _START
    result = {"setup_s": setup_s}
    if not args.setup_only:
        result.update(measure(workload, job_inputs, args))
        result["env"] = environment()
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


def measure(workload, job_inputs, args) -> dict:
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics

        tracer = Tracer()
    jobs, latencies, summaries = [], [], []
    attempted = failed = 0
    deadline = time.perf_counter() + args.seconds
    job = 0
    while True:
        traced = tracer is not None and job % 2 == 1
        if traced:
            tracer.clear()
            tracer.install()
        start = time.perf_counter()
        try:
            outputs, item_latencies = workload.run(job_inputs, tracer if traced else None)
        finally:
            wall = time.perf_counter() - start
            if traced:
                tracer.uninstall()
        if traced:
            summary = tracer.summary()
            functions = {n: {k: e[k] for k in ("calls", "self_s", "total_s")} for n, e in summary["functions"].items()}
            summaries.append({"metrics": layer_metrics(summary), "functions": functions})
        else:
            latencies += item_latencies
        job_failed = workload.check(job_inputs, outputs)
        attempted += workload.items_per_job
        failed += job_failed
        jobs.append({"wall_s": wall, "traced": traced, "failed": job_failed})
        job += 1
        if time.perf_counter() >= deadline and (tracer is None or job >= 2):
            break
        job_inputs = workload.prepare(job)
    if hasattr(workload, "final_check"):
        failed += workload.final_check()
    out = {
        "jobs": jobs,
        "items_per_job": workload.items_per_job,
        "attempted": attempted,
        "failed": failed,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        untraced = statistics.median(j["wall_s"] for j in jobs if not j["traced"])
        traced_wall = statistics.median(j["wall_s"] for j in jobs if j["traced"])
        metrics = {
            key: statistics.median(s["metrics"][key] for s in summaries) for key in summaries[0]["metrics"]
        }
        metrics["trace.overhead_frac"] = traced_wall / untraced - 1.0
        out["trace"] = {"metrics": metrics, "functions": summaries[-1]["functions"]}
        tracer.write_spans(Path(args.workdir).parent / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    return out


if __name__ == "__main__":
    sys.exit(main())
