#!/usr/bin/env python3
"""Builds and runs the chisimnet end-to-end pipeline benchmark.

Run from the root of a checkout:

    python3 pipebench/run.py --workload pipeline-100k --seed 1 --seconds 15 --trace 0

The first run configures and builds pipebench/ (the library from src/ plus
pipebench.cpp) into the build directory ($CARGO_TARGET_DIR if set, else
.bench_build); later runs only re-check the configuration and the build.
Build output goes to stderr. The benchmark binary's stdout passes through
unchanged, so the last line is the JSON result. Exits non-zero, printing
no result, when the checkout has no library sources or the build fails.
"""

import argparse
import hashlib
import os
import shutil
import subprocess
import sys

WORKLOADS = ("pipeline-100k", "analysis-10k", "spill-mp-100k")
RUN_TIMEOUT_S = 175
BUILD_TIMEOUT_S = 880


def fail(message):
    print(f"pipebench: {message}", file=sys.stderr)
    sys.exit(2)


def source_digest(root):
    """sha256 over the library and benchmark sources, for the host stamp."""
    digest = hashlib.sha256()
    for top in ("src", "pipebench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return digest.hexdigest()[:16]


def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return "none"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return out.stdout.strip() or "none"


def build(root, build_dir):
    cmake_dir = os.path.join(build_dir, "cmake")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    # Configured every run (about a second once cached), so a changed
    # CMakeLists.txt or target name never meets a stale build tree.
    configure = ["cmake", "-S", os.path.join(root, "pipebench"),
                 "-B", cmake_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(configure, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        shutil.rmtree(cmake_dir, ignore_errors=True)
        fail("configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    compile_ = ["cmake", "--build", cmake_dir, "--target", "pipebench",
                "-j", jobs]
    if subprocess.run(compile_, stdout=sys.stderr,
                      timeout=BUILD_TIMEOUT_S).returncode != 0:
        fail("build failed")
    return os.path.join(cmake_dir, "pipebench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("run from the repository root: src/CMakeLists.txt not found")
    build_dir = os.path.join(root, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if os.path.commonpath([os.path.realpath(build_dir), os.path.realpath(root)]) != \
            os.path.realpath(root):
        fail("the build directory must be inside the checkout")

    binary = build(root, build_dir)
    work = os.path.join(build_dir, "work", f"{args.workload}-{os.getpid()}")
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work", work, "--trace-dir", os.path.join(build_dir, "traces"),
               "--commit", git_commit(root),
               "--source-digest", source_digest(root)]
    # Keeps any temp file the library makes inside the checkout.
    env = dict(os.environ, TMPDIR=os.path.join(build_dir, "tmp"))
    os.makedirs(env["TMPDIR"], exist_ok=True)
    sys.stdout.flush()
    process = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = process.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, 9)
        process.wait()
        code = 1
        print("pipebench: run timed out", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
