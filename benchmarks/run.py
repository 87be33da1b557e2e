"""Benchmark entry point: one run of one workload.

    python3 benchmarks/run.py --workload case-gz --seed 1 --seconds 35 --trace 0

Run it from the root of a uqseg checkout; the package is imported from
``src/``. A run generates its inputs in one process, runs the workload in
a worker process and, in untraced runs, times ``import uqseg.cli`` in fresh
interpreters before and after the worker. It prints one JSON line as the
last line of stdout: ``correct``, ``attempted``, ``failed`` and
``metrics``. Untraced runs report the ``end_to_end`` metrics of
BENCHMARK.json, traced runs its ``per_layer`` metrics and write their spans
to ``.bench_out/``. A readable summary goes to stderr.
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

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
# Fresh interpreters timed per untraced run, half before the worker and half
# after it, so that the median spans the run rather than one moment of the host.
SETUP_SAMPLES = 8
# Environment variables that size the BLAS and OpenMP thread pools.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env.update({var: threads for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("UQSEG_CONFIG", None)  # the defaults, as a CLI call without --config
    return env


def time_import(env) -> float:
    """Wall time of a fresh interpreter that imports the CLI and exits."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import uqseg.cli"], env=env, check=True, timeout=60)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    ap.add_argument("--size", default="bench", help="input size: bench (default) or smoke")
    args = ap.parse_args()

    if not (ROOT / "src" / "uqseg" / "__init__.py").is_file():
        print(f"run.py: no uqseg sources under {ROOT / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    work = ROOT / ".bench_work" / tag
    trace_out = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.jsonl"
    common = ["--workload", args.workload, "--size", args.size]
    try:
        phases = {"generate": time.perf_counter()}
        subprocess.run([sys.executable, str(HERE / "gen.py"), *common, "--seed", str(args.seed),
                        "--out", str(work / "inputs")], env=env, check=True, timeout=170)
        probes = 0 if args.trace else SETUP_SAMPLES // 2
        phases["set-up probes"] = time.perf_counter()
        setup = [time_import(env) for _ in range(probes)]
        phases["worker"] = time.perf_counter()
        if args.trace:
            trace_out.parent.mkdir(exist_ok=True)
        subprocess.run([sys.executable, str(HERE / "worker.py"), *common,
                        "--inputs", str(work / "inputs"), "--work", str(work / "ops"),
                        "--seconds", str(args.seconds), "--trace", str(args.trace),
                        "--trace-out", str(trace_out), "--report", str(work / "report.json")],
                       env=env, check=True, timeout=args.seconds + 170)
        phases["set-up probes, after"] = time.perf_counter()
        setup += [time_import(env) for _ in range(probes)]
        phases["end"] = time.perf_counter()
        report = json.loads((work / "report.json").read_text())
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = report["metrics"]
    if setup:
        measured["setup_s"] = statistics.median(setup)
    for msg in report["failures"]:
        print(f"FAILED {msg}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {report['rounds']} rounds, "
          f"{report['attempted']} operations attempted, {report['failed']} failed", file=sys.stderr)
    marks = list(phases.items())
    print("  wall time: " + ", ".join(f"{name} {end - start:.1f} s"
                                      for (name, start), (_, end) in zip(marks, marks[1:])), file=sys.stderr)
    for name, value in measured.items():
        print(f"  {name:26s} {value:12.4f}", file=sys.stderr)
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"run.py: no value for {', '.join(missing)}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
