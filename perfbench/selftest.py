"""Self-test of the benchmark harness.

Usage (from the repository root):

    python3 perfbench/selftest.py

Runs every workload workloads.py defines at a one-second horizon, traced
and untraced, and checks that each run passes and reports exactly the
metrics BENCHMARK.json names. Then it corrupts each run's record
(conservation) or the energy of each transfer, and checks that the
harness counts those runs as failed.
Last, it runs the harness in a copy holding only BENCHMARK.json and the
benchmark's own files, which must exit non-zero without a result. Exits 0
when every case behaves as expected.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
TIMEOUT_S = 180


def bench(*args: str, cwd: Path = ROOT, script: Path = BENCH_DIR / "run.py"):
    proc = subprocess.run([sys.executable, str(script), "--seed", "1", "--seconds", "1", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, proc.stderr


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    problems = []

    def expect(ok: bool, label: str, stderr: str = "") -> None:
        print(f"{'ok  ' if ok else 'FAIL'} {label}", flush=True)
        if not ok:
            problems.append(label)
            if stderr:
                print(stderr[-2000:], file=sys.stderr)

    for workload in WORKLOADS:
        for trace in (0, 1):
            code, result, err = bench("--workload", workload, "--trace", str(trace), "--tiny")
            expect(code == 0 and result is not None and result["correct"]
                   and result["failed"] == 0 and result["attempted"] > 0
                   and set(result["metrics"]) == names[trace],
                   f"{workload} trace {trace}: passes with every metric", err)

    code, result, err = bench("--workload", "full_walker", "--trace", "0", "--tiny",
                              "--inject", "conservation")
    expect(code == 0 and result is not None and result["failed"] == result["attempted"],
           "a record that breaks conservation fails its run", err)
    code, result, err = bench("--workload", "desk_sweep", "--trace", "1", "--tiny",
                              "--inject", "energy")
    expect(code == 0 and result is not None and 0 < result["failed"] < result["attempted"],
           "a transfer charged the wrong energy fails its run (distance_only has none)", err)

    bare = BENCH_DIR / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / BENCH_DIR.name).mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH_DIR.iterdir():
        if path.is_file():
            shutil.copy(path, bare / BENCH_DIR.name)
    code, result, err = bench("--workload", "full_walker", "--trace", "0", cwd=bare,
                              script=bare / BENCH_DIR.name / "run.py")
    expect(code != 0 and result is None, "a checkout without the sources exits non-zero")
    shutil.rmtree(bare)

    print("self-test " + ("passed" if not problems else f"FAILED: {len(problems)} case(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
