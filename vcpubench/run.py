#!/usr/bin/env python3
"""Build and run the vcpusim benchmark from the root of a checkout.

    python3 vcpubench/run.py --workload paper-figs --seed 42 --seconds 20 --trace 0

The benchmark binary is built from the checkout's own sources into
$CARGO_TARGET_DIR (default .bench_build) with CMake, then run with the
given arguments plus the recorded reference digests; with --trace 1 the
spans of the traced run are written to <build>/spans/. The last line of
standard output is the benchmark's JSON result. Exits non-zero, printing
no result, when the build or the run fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    subprocess.run(
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "vcpubench", "-j", "3"],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "vcpubench")


def option(args, name):
    return args[args.index(name) + 1] if name in args[:-1] else None


def main(args):
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (subprocess.CalledProcessError, OSError) as e:
        print(f"vcpubench: build failed: {e}", file=sys.stderr)
        return 1
    command = [binary, *args]
    if "--reference" not in args:
        command += ["--reference", os.path.join(HERE, "reference.txt")]
    if option(args, "--trace") == "1" and "--spans" not in args:
        spans = os.path.join(build_dir, "spans")
        os.makedirs(spans, exist_ok=True)
        name = f"{option(args, '--workload')}-seed{option(args, '--seed')}.jsonl"
        command += ["--spans", os.path.join(spans, name)]
    return subprocess.run(command).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
