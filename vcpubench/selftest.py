#!/usr/bin/env python3
"""Self-test of the vcpusim benchmark at tiny length.

    python3 vcpubench/selftest.py [workload ...]

Run from the root of a checkout. For each workload (default: all) it runs
the benchmark with --tiny (horizon 1000, three replications per point)
and checks that

* the last stdout line is the result object, and it carries every
  end-to-end metric (--trace 0) or per-layer metric (--trace 1) that
  BENCHMARK.json names, each with its unit and nothing else;
* no point fails against digests the same build recorded;
* one perturbed reference digest counts as exactly one failed point and
  makes the result incorrect.

Exits 0 when every check holds. Scratch files go to the build directory.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")


def run(workload, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "7",
               "--seconds", "0", "--trace", str(trace), "--tiny", *extra]
    out = subprocess.run(command, capture_output=True, text=True)
    if out.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def expect(condition, message):
    if not condition:
        raise AssertionError(message)


def check_metrics(result, specs, what):
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{what}: result keys {sorted(result)}")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in specs}
    expect(got == want, f"{what}: metrics {got} != {want}")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{what}: {name} value")


def main(workloads):
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    scratch = os.path.join(
        os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build"),
        "selftest")
    os.makedirs(scratch, exist_ok=True)
    for workload in workloads or [w["name"] for w in bench["workloads"]]:
        good = os.path.join(scratch, f"{workload}.ref")
        bad = os.path.join(scratch, f"{workload}.perturbed.ref")
        empty = os.path.join(scratch, "empty.ref")
        open(empty, "w").close()

        first = run(workload, 0, "--reference", empty,
                    "--record-reference", good)
        check_metrics(first, bench["end_to_end"], f"{workload} trace 0")
        expect(first["correct"] and first["failed"] == 0,
               f"{workload}: untraced run failed without a reference")

        again = run(workload, 0, "--reference", good)
        expect(again["correct"] and again["failed"] == 0,
               f"{workload}: run differs from its own recorded digests")

        lines = open(good).read().splitlines()
        fields = lines[0].split()
        fields[3] = format(int(fields[3], 16) ^ 1, "016x")
        with open(bad, "w") as f:
            f.write("\n".join([" ".join(fields), *lines[1:]]) + "\n")
        perturbed = run(workload, 0, "--reference", bad)
        expect(perturbed["failed"] == 1 and not perturbed["correct"],
               f"{workload}: perturbed digest gave failed="
               f"{perturbed['failed']}, correct={perturbed['correct']}")

        traced = run(workload, 1, "--reference", good)
        check_metrics(traced, bench["per_layer"], f"{workload} trace 1")
        expect(traced["correct"] and traced["failed"] == 0,
               f"{workload}: traced replay differs from the untraced run")
        print(f"selftest {workload}: ok", flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except AssertionError as e:
        print(f"selftest FAILED: {e}", file=sys.stderr)
        sys.exit(1)
