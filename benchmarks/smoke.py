"""Quick test of the benchmark harness itself.

    python3 benchmarks/smoke.py

Runs every workload untraced and traced through run.py at toy size for 3 s,
requires every operation to pass its checks and every metric of
BENCHMARK.json to be reported with its unit (end-to-end values above zero),
and requires run.py to fail without printing a result in a directory that
holds only BENCHMARK.json and the benchmark. Run it from the root of a
checkout.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SECONDS = 3


def run(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


def check_result(proc, wanted: list[dict], positive: bool) -> list[str]:
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-2000:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    expected = {m["name"]: m["unit"] for m in wanted}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        problems.append(f"metrics {got} differ from {expected}")
    if positive:
        problems += [f"{name} = {m['value']}" for name, m in result["metrics"].items() if not m["value"] > 0]
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        print("BENCHMARK.json and workloads.py list different workloads")
        return 1

    failures = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = run(["--workload", workload, "--seed", "1", "--seconds", str(SECONDS),
                        "--trace", str(trace), "--size", "smoke"], ROOT)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            problems = check_result(proc, wanted, positive=not trace)
            failures += bool(problems)
            print(f"{'FAIL' if problems else 'ok  '} {workload} trace={trace}")
            for line in problems or proc.stderr.strip().splitlines():
                print(f"     {line}")

    # Without the package's sources the benchmark must refuse to report.
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(dir=ROOT / ".bench_work"))
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(["--workload", "case-gz", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
        refused = proc.returncode != 0 and not proc.stdout.strip()
    finally:
        shutil.rmtree(bare)
    failures += not refused
    print(f"{'ok  ' if refused else 'FAIL'} refuses to run without the sources")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
