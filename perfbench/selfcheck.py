#!/usr/bin/env python3
"""Self-check of the benchmark at smoke size.

    python3 perfbench/selfcheck.py

Runs every workload once untraced and once traced with tiny shapes and
checks the result line: exactly the four result keys, a passing
correctness gate, and every metric BENCHMARK.json declares for the mode,
by name and unit, as a finite number. It then feeds the gate doctored
raw results (a reward out of range, a fleet campaign that did not finish)
and checks that the gate rejects each. Exits 0 when all checks pass.
"""

import copy
import json
import math
import pathlib
import subprocess
import sys

import run

ROOT = pathlib.Path(__file__).resolve().parent.parent


def result_line(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
         workload, "--seed", "3", "--seconds", "1", "--trace", str(trace),
         "--smoke"], cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        return None, "exit code %d: %s" % (done.returncode, done.stderr[-500:])
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), None


def check_line(line, declared):
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append("keys %s" % sorted(line))
    if line.get("correct") is not True:
        problems.append("correctness gate failed")
    if not isinstance(line.get("attempted"), int) or line["attempted"] < 1:
        problems.append("attempted %r" % line.get("attempted"))
    if not isinstance(line.get("failed"), int):
        problems.append("failed %r" % line.get("failed"))
    metrics = line.get("metrics", {})
    if set(metrics) != set(declared):
        problems.append("metrics differ: %s" % sorted(set(metrics) ^
                                                      set(declared)))
    for name, entry in metrics.items():
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: value %r" % (name, value))
        if entry.get("unit") != declared.get(name):
            problems.append("%s: unit %r" % (name, entry.get("unit")))
    return problems


def check_gate_can_fail():
    """The gate must reject outputs that are wrong."""
    problems = []
    out = ROOT / ".bench_out"
    step_raw = json.loads((out / "paper_neural_seed3_trace0.raw.json")
                          .read_text())
    fleet_raw = json.loads((out / "fleet_sweep_seed3_trace0.raw.json")
                           .read_text())
    if run.gate(step_raw, 0) or run.gate(fleet_raw, 0):
        problems.append("gate rejects the untouched smoke results")

    bad = copy.deepcopy(step_raw)
    bad["data"]["campaigns"][0]["steps"][1]["reward_max"] = 1e9
    if not run.gate(bad, 0):
        problems.append("gate accepts a reward above eval_users x |I_t|")
    bad = copy.deepcopy(step_raw)
    bad["data"]["campaigns"][0]["steps"][1]["loss"] = float("nan")
    if not run.gate(bad, 0):
        problems.append("gate accepts a non-finite loss")
    bad = copy.deepcopy(fleet_raw)
    bad["data"]["sweeps"][0]["campaigns_not_done"] = 1
    if not run.gate(bad, 0):
        problems.append("gate accepts a fleet campaign that is not done")
    bad = copy.deepcopy(step_raw)
    bad["check_failures"] = ["NeuMF step 2: failed reward queries"]
    if not run.gate(bad, 3):
        problems.append("gate ignores a failed binary check")
    return problems


def main():
    declared = run.load_units(ROOT)
    failures = []
    for workload in run.WORKLOADS:
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            line, error = result_line(workload, trace)
            problems = [error] if error else check_line(line, declared[group])
            status = "ok" if not problems else "FAILED: " + "; ".join(problems)
            print("%-15s trace=%d %s" % (workload, trace, status))
            failures += problems
    gate_problems = check_gate_can_fail()
    print("gate rejects doctored results: %s" %
          ("ok" if not gate_problems else "FAILED: " +
           "; ".join(gate_problems)))
    failures += gate_problems
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
