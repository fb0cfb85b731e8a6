#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Runs every workload at a tiny population, untraced and traced, at the
workload seed and at one held-out seed. Each run must exit 0, pass every
output check, count no failed operation, and print exactly the metrics that
BENCHMARK.json names for its kind of run, each with its unit. The traced and
untraced runs of a seed must print the same trace digest and pipeline
fingerprint: tracing must not change what the program computes.
"""
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (42, 1009)  # the workload seed, and one not used while writing the benchmark
PEERS = 2000  # every workload's population, small enough for a seconds-long run


def run(workload: str, seed: int, trace: int) -> tuple[dict, str]:
    """Returns the result JSON, and the trace digest and pipeline fingerprint
    the run printed."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
           "--peers", str(PEERS)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise AssertionError(f"exit code {done.returncode}")
    outputs = re.findall(r"^(?:trace digest|pipeline fingerprint) (\w+)", done.stdout, re.MULTILINE)
    return json.loads(done.stdout.strip().splitlines()[-1]), " / ".join(outputs)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    failures = 0
    for workload in (m["name"] for m in spec["workloads"]):
        for seed in SEEDS:
            fingerprints = []
            for trace in (0, 1):
                label = f"{workload} seed {seed} trace {trace}"
                try:
                    result, fingerprint = run(workload, seed, trace)
                    fingerprints.append(fingerprint)
                    assert result["correct"] is True, "an output check failed"
                    assert result["failed"] == 0 and result["attempted"] >= 1, "operation counts"
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    assert units == expected[trace], (
                        f"metrics differ from BENCHMARK.json: "
                        f"{sorted(set(units.items()) ^ set(expected[trace].items()))}")
                    assert fingerprint and fingerprints[0] == fingerprint, (
                        f"trace digest / pipeline fingerprint {fingerprint} differs from "
                        f"the untraced run's")
                    print(f"ok   {label}")
                except (AssertionError, ValueError, KeyError, subprocess.TimeoutExpired) as err:
                    failures += 1
                    print(f"FAIL {label}: {err}")
    print(f"{failures} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
