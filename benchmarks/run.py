"""ipower benchmark: one workload, measured end to end or traced layer by layer.

Usage, from the root of a checkout::

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --compare OLD.json NEW.json

Workloads (see BENCHMARK.json): ``sweep`` (the Figure-3 protocol through
``ipower.cli.main``), ``ensemble`` (closed-form measures over random
qubit-qudit states) and ``oracle`` (brute-force Bloch-sphere certification).

The launcher starts every workload process itself, with ``src`` on
``PYTHONPATH`` and BLAS/OpenMP pinned to one thread in the child's
environment.  Set-up time is the median over ``SETUP_SAMPLES`` fresh
interpreters: the measured run plus ``SETUP_SAMPLES - 1`` set-up-only ones.
With ``--trace 0`` the last line of standard output is a JSON object with
every end-to-end metric; with ``--trace 1``, every per-layer metric.  The
full record, with the environment, goes to ``.bench_work/`` (or ``--out``).
A wrong output makes the run print ``"correct": false`` and exit with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import percentile

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".bench_work"

SETUP_SAMPLES = 5
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0

PINNED_THREADS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """The benchmark could not produce a result."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED_THREADS)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["IPOWER_BENCH_SRC"] = str(ROOT / "src")
    env.pop("IPOWER_SEED", None)
    return env


def run_worker(args, tag: str, deadline: float, setup_only=False, python_flags=()) -> tuple[dict, str]:
    """Run worker.py in a fresh interpreter; returns its JSON result and its stderr."""
    result_path = WORK / f"{tag}-{os.getpid()}.json"
    command = [
        sys.executable, *python_flags, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(WORK / f"files-{os.getpid()}"),
        "--result", str(result_path),
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchmarkError("out of time before starting a workload process")
    try:
        proc = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and waits
        raise BenchmarkError(f"workload process exceeded {timeout:.0f} s") from exc
    if proc.returncode != 0 or not result_path.exists():
        raise BenchmarkError(f"workload process failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(result_path.read_text(encoding="utf-8"))
    result_path.unlink()
    return result, proc.stderr


def scipy_import_share(stderr: str) -> float:
    """Seconds spent importing scipy modules, from ``-X importtime`` output.

    Sums the cumulative time of each scipy import that no other scipy import
    encloses; the lines come children first, with nesting shown by indentation.
    """
    entries = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|", 2)
        if not cumulative.strip().isdigit():
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(cumulative) * 1e-6))
    total, open_scipy_depths = 0.0, []
    for depth, name, seconds in reversed(entries):  # parents before children
        while open_scipy_depths and open_scipy_depths[-1] >= depth:
            open_scipy_depths.pop()
        is_scipy = name == "scipy" or name.startswith("scipy.")
        if is_scipy and not open_scipy_depths:
            total += seconds
        if is_scipy:
            open_scipy_depths.append(depth)
    return total


def end_to_end(main: dict, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end values and a note on each.

    ``items_per_s`` is the rate that nine jobs in ten meet: items per job over
    the 90th percentile of job wall time.  On a shared 2-vCPU machine the
    median job runs up to a third faster in some half-minutes than in others,
    while the slow end of the distribution repeats from run to run.
    ``item_p50_ms`` is printed and recorded but not gated, for the same reason.
    """
    walls = [j["wall_s"] for j in main["jobs"] if not j["traced"]]
    lat_ms = [x * 1e3 for x in main["latencies_s"]]
    values = {
        "setup_s": statistics.median(setups),
        "items_per_s": main["items_per_job"] / percentile(walls, 90),
        "item_p50_ms": percentile(lat_ms, 50),
        "item_p90_ms": percentile(lat_ms, 90),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setups)} fresh interpreters",
        "items_per_s": f"{main['items_per_job']} items per job over p90 of {len(walls)} job walls",
        "item_p50_ms": f"n={len(lat_ms)} individually timed items",
        "item_p90_ms": f"n={len(lat_ms)} individually timed items",
        "peak_rss_mb": "high-water RSS of the workload process",
    }
    return values, notes


def measure(args, spec: dict) -> tuple[dict, dict]:
    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    main, _ = run_worker(args, f"{args.workload}-main", deadline)
    detail = {"env": main["env"], "jobs": main["jobs"]}
    if args.trace:
        shares = [
            scipy_import_share(run_worker(args, f"{args.workload}-import{i}", deadline, True, ("-X", "importtime"))[1])
            for i in range(IMPORTTIME_SAMPLES)
        ]
        values = dict(main["trace"]["metrics"])
        values["import.scipy_share_s"] = statistics.median(shares)
        detail["functions"] = main["trace"]["functions"]
        wanted, notes = spec["per_layer"], {}
    else:
        setups = [main["setup_s"]] + [
            run_worker(args, f"{args.workload}-setup{i}", deadline, True)[0]["setup_s"]
            for i in range(SETUP_SAMPLES - 1)
        ]
        values, notes = end_to_end(main, setups)
        detail["setup_samples_s"] = setups
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    attempted, failed = main["attempted"], main["failed"]
    line = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    reported = dict(metrics)
    if not args.trace:
        reported["item_p50_ms"] = {"value": values["item_p50_ms"], "unit": "ms"}
    reported["error_rate"] = {"value": failed / attempted, "unit": "fraction"}
    notes["error_rate"] = f"{failed}/{attempted} items raised or failed a check"
    detail["reported"] = {name: {**m, "note": notes.get(name, "")} for name, m in reported.items()}
    return line, detail


def compare(old_path: str, new_path: str) -> int:
    """Print new/old for every metric the two result files share.

    A file is a record written by this script or just its last output line.
    """

    def load(path):
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        return payload.get("reported") or payload.get("result", payload)["metrics"]

    old, new = load(old_path), load(new_path)
    print(f"{'metric':48s} {'unit':10s} {'old':>14s} {'new':>14s} {'new/old':>9s}")
    for name in old:
        if name not in new:
            continue
        a, b = old[name]["value"], new[name]["value"]
        ratio = f"{b / a:9.3f}" if a else "      n/a"
        print(f"{name:48s} {old[name]['unit']:10s} {a:14.6g} {b:14.6g} {ratio}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full result record here")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="print metric ratios of two result files")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "ipower" / "__init__.py").is_file() or not spec_path.is_file():
        print(f"error: no ipower sources under {ROOT / 'src'} or no BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"--workload: choose from {[w['name'] for w in spec['workloads']]}")
    try:
        line, detail = measure(args, spec)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK / f"files-{os.getpid()}", ignore_errors=True)

    env = detail["env"]
    print(f"ipower benchmark workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(
        f"env python={env['python']} numpy={env['numpy']} scipy={env['scipy']} blas={env['blas']!r} "
        f"nproc={env['nproc']} threads={env['threads']}"
    )
    for name, metric in detail["reported"].items():
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:10s} {metric['note']}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "result": line, **detail}
    out = Path(args.out) if args.out else WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
