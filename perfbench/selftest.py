#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/selftest.py

Run from the root of a checkout; builds like run.py on first use. Checks:
  1. every workload, untraced and traced, at --scale smoke finishes in
     seconds with correct outputs;
  2. every printed metric is declared in BENCHMARK.json with the same unit
     and a better direction, and every declared metric is printed;
  3. a reference with one perturbed digest raises `failed`;
  4. per-layer and simulated counts repeat exactly from run to run;
  5. without the framework sources the benchmark exits non-zero and prints
     no result.
Scratch files go to .bench_build/selftest/. Exits non-zero on a failure.
"""
import json
import os
import shutil
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
SCRATCH = os.path.join(ROOT, ".bench_build", "selftest")
SMOKE_LIMIT_S = 30.0

failures = []


def check(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        failures.append(message)


def bench(workload, trace, *extra, cwd=ROOT, runner=RUN):
    """Runs the benchmark at smoke scale; returns (exit code, result or None, seconds)."""
    command = [sys.executable, runner, "--workload", workload, "--seed", "1",
               "--seconds", "1", "--trace", str(trace), "--scale", "smoke", *extra]
    start = time.monotonic()
    proc = subprocess.run(command, cwd=cwd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    if proc.returncode != 0 and cwd == ROOT:
        sys.stderr.write(proc.stderr[-2000:])
    return proc.returncode, result, elapsed


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)
    workloads = [w["name"] for w in declared["workloads"]]
    declared_sets = {0: declared["end_to_end"], 1: declared["per_layer"]}
    os.makedirs(SCRATCH, exist_ok=True)

    # Build once so the timing below measures runs, not the build.
    subprocess.run([sys.executable, RUN, "--workload", "none"], cwd=ROOT,
                   stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)

    counts = {}
    for workload in workloads:
        for trace in (0, 1):
            code, result, elapsed = bench(workload, trace)
            label = f"{workload} trace={trace}"
            check(code == 0 and result is not None, f"{label}: exits 0 with a result")
            if result is None:
                continue
            check(elapsed < SMOKE_LIMIT_S, f"{label}: smoke run took {elapsed:.1f} s")
            check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                  f"{label}: outputs correct ({result['attempted']} runs)")
            printed = result["metrics"]
            for metric in declared_sets[trace]:
                name = metric["name"]
                check(name in printed and printed[name]["unit"] == metric["unit"]
                      and metric["better"] in ("higher", "lower"),
                      f"{label}: {name} printed as declared")
            names = {m["name"] for m in declared_sets[trace]}
            extra = sorted(set(printed) - names)
            check(not extra, f"{label}: no undeclared metric {extra}")
            if trace == 1:
                counts[workload] = {k: v["value"] for k, v in printed.items()
                                    if not k.endswith("_ms") and not k.startswith("trace.")}

    # Counts repeat exactly in a second process.
    for workload in workloads:
        _, result, _ = bench(workload, 1)
        again = {k: v["value"] for k, v in result["metrics"].items()
                 if not k.endswith("_ms") and not k.startswith("trace.")}
        check(again == counts.get(workload), f"{workload}: per-layer counts repeat")

    # A perturbed reference is caught.
    reference = os.path.join(SCRATCH, "reference.json")
    if os.path.exists(reference):
        os.remove(reference)
    workload = workloads[0]
    bench(workload, 0, "--write-reference", reference)
    _, result, _ = bench(workload, 0, "--reference", reference)
    check(result is not None and result["failed"] == 0, "fresh reference: no wrong runs")
    with open(reference) as f:
        doc = json.load(f)
    entry = next(iter(doc.values()))
    entry["runs"][0] = "%016x" % (int(entry["runs"][0], 16) ^ 1)
    with open(reference, "w") as f:
        json.dump(doc, f)
    _, result, _ = bench(workload, 0, "--reference", reference)
    check(result is not None and result["failed"] >= 1 and not result["correct"],
          "perturbed reference: wrong runs counted")

    # Without the framework sources: non-zero exit, no result.
    bare = os.path.join(SCRATCH, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"))
    code, result, _ = bench(workload, 0, cwd=bare,
                            runner=os.path.join(bare, "perfbench", "run.py"))
    check(code != 0 and result is None, "without src/: fails without a result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
