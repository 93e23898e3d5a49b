#!/usr/bin/env python3
"""Build and run the mstream end-to-end benchmark (see README.md).

    python3 e2ebench/run.py --workload paper_sweep --seed 0 --seconds 30 --trace 0
    python3 e2ebench/run.py --self-test

Run from the repository root. The program is built from source into
.bench_build/ (e2ebench/CMakeLists.txt, Release, which builds the repository's own CMake
project as a subdirectory); build output goes to stderr, so the last
line of stdout is the benchmark's result object.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "e2ebench")
BINARY = os.path.join(BUILD, "mstream_e2ebench")
WORKLOADS = ("paper_sweep", "functional_apps", "observed_replay")
RUN_TIMEOUT_S = 175
# Freed heap stays with the benchmark process: a trim threshold no heap
# reaches, and a fixed mmap threshold at glibc's largest dynamic value (a set
# trim threshold freezes the dynamic one at 128 KiB). A pass then reuses the
# memory the pass before it freed instead of faulting it in again.
HEAP_TUNABLES = "glibc.malloc.trim_threshold=1099511627776:glibc.malloc.mmap_threshold=33554432"


def fail(msg):
    print("e2ebench: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
            os.path.join(ROOT, "src")):
        fail("the mstream sources (CMakeLists.txt, src/) are not next to e2ebench/")
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        cmd = ["cmake", "-S", HERE, "-B", BUILD, *gen, "-DCMAKE_BUILD_TYPE=Release",
               "-DMSTREAM_BUILD_TESTS=OFF", "-DMSTREAM_BUILD_BENCH=OFF",
               "-DMSTREAM_BUILD_EXAMPLES=OFF"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            shutil.rmtree(BUILD, ignore_errors=True)
            fail("cmake configure failed")
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD, "--target", "mstream_e2ebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")


def git_commit():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 and out.stdout.strip() else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def bench_env():
    env = dict(os.environ)
    env["GLIBC_TUNABLES"] = ":".join(t for t in (env.get("GLIBC_TUNABLES"), HEAP_TUNABLES) if t)
    return env


def bench_args(workload, seed, seconds, trace, extra=()):
    args = [BINARY, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--commit", git_commit(), *extra]
    if trace:
        args += ["--trace-file",
                 os.path.join(ROOT, ".bench_build", "traces", f"{workload}-seed{seed}.json")]
    return args


def run_captured(args, quiet=False):
    """Runs the benchmark binary and returns (context, result) parsed from stdout."""
    out = subprocess.run(args, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                         env=bench_env())
    if not quiet:
        sys.stderr.write(out.stderr)
    lines = [l for l in out.stdout.splitlines() if l.strip()]
    if out.returncode != 0 or len(lines) < 2:
        fail(f"benchmark exited {out.returncode}: {' '.join(args[1:])}")
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def self_test():
    """Tiny job list per workload: every metric printed with its unit, no
    failed job, and a corrupted golden entry counted as a failure (its
    virtual ms untraced, its runtime action count traced)."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            ctx, res = run_captured(bench_args(w, 1, 1, trace, ["--tiny"]))
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{w} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                                f"missing/extra or units differ")
            if res["failed"] != 0 or not res["correct"]:
                problems.append(f"{w} trace={trace}: {res['failed']} failed: {ctx['failures']}")
            if trace == 0 and res["metrics"]["ok_frac"]["value"] != 1.0:
                problems.append(f"{w}: ok_frac != 1")
        # Corrupt the golden entry of the first job in the seed-0 order; its
        # expected failures stay off stderr.
        victim = first_job(w)
        _, res = run_captured(bench_args(w, 0, 1, 0, ["--tiny", "--corrupt-golden", victim]),
                              quiet=True)
        if res["failed"] < 1 or res["correct"]:
            problems.append(f"{w}: corrupted golden entry {victim} was not counted as failed")
        if res["metrics"]["ok_frac"]["value"] >= 1.0:
            problems.append(f"{w}: ok_frac did not drop with a corrupted golden entry")
        _, res = run_captured(bench_args(w, 0, 1, 1, ["--tiny", "--corrupt-actions", victim]),
                              quiet=True)
        if res["failed"] < 1 or res["correct"]:
            problems.append(f"{w}: corrupted golden action count of {victim} was not counted "
                            "as failed")
    for p in problems:
        print("SELF-TEST FAILED: " + p, file=sys.stderr)
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


def first_job(workload):
    out = subprocess.run([BINARY, "--workload", workload, "--tiny", "--list-jobs"],
                         capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0 or not out.stdout.strip():
        fail("cannot list jobs of " + workload)
    return out.stdout.splitlines()[0]


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-test", action="store_true")
    a = p.parse_args()
    build()
    if a.self_test:
        return self_test()
    if a.workload is None:
        p.error("--workload is required")
    try:
        return subprocess.run(bench_args(a.workload, a.seed, a.seconds, a.trace),
                              timeout=RUN_TIMEOUT_S, env=bench_env()).returncode
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")


if __name__ == "__main__":
    sys.exit(main())
