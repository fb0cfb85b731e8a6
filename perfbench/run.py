#!/usr/bin/env python3
"""The repository benchmark's command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--peers <n>]

Builds the benchmark binary from source (perfbench/CMakeLists.txt compiles
the simulator library in ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs one workload in a fresh process. Build
output goes to stderr; the binary's result JSON is the last line of stdout.
See perfbench/README.md for the workloads and metrics.
"""
import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
WORKLOADS = sorted(p.stem for p in (BENCH_DIR / "workloads").glob("*.ini"))
# Environment switches of the library that would change what is measured.
SCRUBBED_ENV = ("NS_SIM_SHARDS", "NS_NO_HIBERNATE", "NS_TRACE_NO_MMAP", "NS_THREADS")


def build(build_dir: Path) -> Path:
    jobs = str(min(os.cpu_count() or 1, 4))
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release", *generator],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target", "perfbench", "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--peers", type=int, default=0,
                        help="override the scenario's population (smoke test)")
    args = parser.parse_args()

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1

    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scenarios", str(BENCH_DIR / "workloads"), "--work", str(build_dir / "work")]
    if args.peers:
        cmd += ["--peers", str(args.peers)]
    return subprocess.run(cmd, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
