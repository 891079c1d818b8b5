#!/usr/bin/env python3
"""Build and run the verifier benchmark.

    python3 perfbench/run.py --workload {fig7_cold|mono_cold|edit_warm}
        --seed N --seconds S --trace {0|1} [harness flags...]

Run from the repository root. The harness (perfbench/harness) and the
verifier's libraries (src/) are built with CMake into $CARGO_TARGET_DIR
(default .bench_build) on first use; later runs rebuild incrementally.
Build output goes to stderr. The harness prints its provenance record and,
as the last line of stdout, the result object
{"correct", "attempted", "failed", "metrics"}.
Extra flags (--mono-functions, --inject-wrong-verdict) are passed to the
harness unchanged; perfbench/README.md describes them. The traced run's
store probe writes its disk tier under the build directory.
"""

import argparse
import fcntl
import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 880


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def cores():
    return len(os.sched_getaffinity(0))


def source_revision():
    """The git revision when there is one, else a digest of the sources."""
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            return "git:" + rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for p in sorted((ROOT / top).rglob("*")):
            if p.is_file() and "__pycache__" not in p.parts:
                h.update(str(p.relative_to(ROOT)).encode())
                h.update(p.read_bytes())
    return "tree:" + h.hexdigest()[:16]


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "refinedc" / "Checker.h").is_file():
        fail(f"verifier sources not found under {ROOT / 'src'}")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not target.is_absolute():
        target = ROOT / target
    build_dir = target / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    with open(build_dir / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (build_dir / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", str(build_dir), "--target",
                      "perfbench", "-j", str(cores())])
        for cmd in steps:
            try:
                r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                   timeout=BUILD_TIMEOUT_S)
            except (OSError, subprocess.TimeoutExpired) as e:
                fail(f"build step {cmd[:2]} failed: {e}")
            if r.returncode != 0:
                fail(f"build step {' '.join(cmd[:2])} exited {r.returncode}")
    binary = build_dir / "perfbench"
    if not binary.is_file():
        fail("build produced no perfbench binary")
    return build_dir, binary


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    args, extra = ap.parse_known_args()
    if args.seed < 0 or args.seconds < 1:
        fail("--seed must be >= 0 and --seconds >= 1")

    build_dir, binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--probe-dir", str(build_dir / "probe-store"),
           "--rev", source_revision()] + extra
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                           text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"harness did not finish within {RUN_TIMEOUT_S} s")
    if r.returncode != 0:
        fail(f"harness exited {r.returncode}")
    sys.stdout.write(r.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
