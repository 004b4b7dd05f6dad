#!/usr/bin/env python3
"""Build and run the asterix-lite benchmark from a source checkout.

    python3 perfbench/run.py --workload analytics|lookup|ingest \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Builds perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR or
.bench_build, runs one workload and relays its output; the last stdout line
is the result object. Exits non-zero if the build fails, an op fails or an
answer is wrong. --self-test builds and runs the unit tests of the
benchmark's own arithmetic.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170

# CPUs each workload runs on, so results do not depend on the host's core
# count and a shared host's cross-CPU wake-up delays do not swamp per-op
# cost: analytics gets one CPU per partition (InstanceOptions default 2);
# lookup and ingest measure the cost of one client's serial statements.
WORKLOAD_CPUS = {"analytics": 2, "lookup": 1, "ingest": 1}


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, base, "perfbench")


def build(target):
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", out, "--target", target, "-j", jobs]]
    for cmd in steps:
        # Build output goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    try:
        r = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def source_digest():
    """sha256 over src/ (paths and contents): identifies the code measured
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()


def run(args):
    if not build("perfbench"):
        return 3
    out = build_dir()
    work = os.path.join(out, "work", f"{args.workload}-{os.getpid()}")
    cmd = [os.path.join(out, "perfbench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", work, "--out-dir", os.path.join(out, "results"),
           "--git-sha", git_sha(), "--source-digest", source_digest()]
    allowed = sorted(os.sched_getaffinity(0))
    cpus = allowed[-WORKLOAD_CPUS[args.workload]:]
    proc = subprocess.Popen(cmd, cwd=ROOT,
                            preexec_fn=lambda: os.sched_setaffinity(0, cpus))
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"run exceeded {RUN_TIMEOUT_S} s; stopping it")
        proc.kill()
        proc.wait()
        code = 4
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(work, ignore_errors=True)
    return code


def self_test():
    if not build("perfbench_math_test"):
        return 3
    return subprocess.run([os.path.join(build_dir(), "perfbench_math_test")]
                          ).returncode


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=["analytics", "lookup", "ingest"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        p.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
