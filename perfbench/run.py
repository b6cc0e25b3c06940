#!/usr/bin/env python3
"""PoisonRec benchmark: builds the benchmark binary, runs one workload,
gates its correctness and prints its metrics.

    python3 perfbench/run.py --workload paper_neural --seed 1 \
        --seconds 20 --trace 0

Run from the root of a checkout. The binary (perfbench/cpp) is built from
the checkout's src/ tree into .bench_build/; raw results, Chrome traces
and per-layer reports go to .bench_out/. The last line of standard
output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones, with --trace 1 the
per-layer ones (see perfbench/README.md for every definition).
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import time

import traceanalysis

WORKLOADS = ("paper_neural", "attacker_scale", "fleet_sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    """Exits non-zero without a result line."""
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def checkout_root():
    return pathlib.Path(__file__).resolve().parent.parent


def source_digest(root):
    """SHA-256 over the library and benchmark sources (a checkout need not
    be a git repository, so this stands in for the commit)."""
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(root)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_bounded(cmd, timeout, **kwargs):
    """Runs `cmd` in its own process group. On timeout, or when this
    script is interrupted or terminated, kills the whole group (make and
    compiler children included) and waits for it. Returns the
    CompletedProcess, or None on timeout."""
    with subprocess.Popen(cmd, preexec_fn=os.setpgrp, **kwargs) as proc:
        try:
            stdout, stderr = proc.communicate(timeout=timeout)
        except BaseException as error:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            if isinstance(error, subprocess.TimeoutExpired):
                return None
            raise
    return subprocess.CompletedProcess(cmd, proc.returncode, stdout, stderr)


def build(root, out_dir):
    """Configures and builds incrementally (a no-op when nothing changed).
    Returns the binary."""
    build_dir = root / ".bench_build"
    log_path = out_dir / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "-S", str(root / "perfbench" / "cpp"),
              "-B", str(build_dir), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
             ["cmake", "--build", str(build_dir), "--target",
              "perfbench_bin", "-j", jobs]]
    with open(log_path, "w") as log:
        for cmd in steps:
            done = run_bounded(cmd, BUILD_TIMEOUT_S, stdout=log,
                               stderr=subprocess.STDOUT)
            if done is None:
                fail("build timed out; see " + str(log_path))
            if done.returncode != 0:
                fail("build failed; see " + str(log_path))
    return build_dir / "perfbench_bin"


def run_binary(binary, args, out_dir):
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out", str(out_dir)]
    if args.smoke:
        cmd.append("--smoke")
    done = run_bounded(cmd, RUN_TIMEOUT_S, stdout=subprocess.PIPE,
                       stderr=subprocess.PIPE, text=True)
    if done is None:
        fail("benchmark binary exceeded %d s" % RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 3) or not lines:
        sys.stderr.write(done.stderr[-4000:])
        fail("benchmark binary exited with code %d" % done.returncode)
    raw_path = pathlib.Path(lines[-1])
    with open(raw_path) as f:
        raw = json.load(f)
    return raw, done.returncode, raw_path


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- Correctness --------------------------------------------------------------

def gate(raw, returncode):
    """Re-checks the binary's outputs; returns the list of failures."""
    problems = list(raw["check_failures"])
    if returncode != 0 and not problems:
        problems.append("benchmark binary exited with code %d" % returncode)
    data = raw["data"]
    for c in data.get("campaigns", []):
        bound = c["params"]["eval_users"] * c["params"]["targets"]
        for s in c["steps"]:
            values = (s["reward_min"], s["reward_mean"], s["reward_max"],
                      s["loss"])
            if not all(math.isfinite(v) for v in values):
                problems.append("%s step %d: non-finite reward or loss"
                                % (c["ranker"], s["step"]))
            elif not 0 <= s["reward_min"] <= s["reward_max"] <= bound:
                problems.append("%s step %d: reward outside [0, %d]"
                                % (c["ranker"], s["step"], bound))
    for s in data.get("sweeps", []):
        if s["exit_code"] != 0 or s["campaigns_not_done"] != 0:
            problems.append("fleet sweep %d: exit %d, %d campaigns not done"
                            % (s["sweep"], s["exit_code"],
                               s["campaigns_not_done"]))
    if raw["attempted"] < 1:
        problems.append("no operations attempted")
    return problems


# -- End-to-end metrics -------------------------------------------------------

def loop_steps(campaign):
    """The measured closed-loop steps: after the warm-up, before the
    traced pass's probes."""
    return campaign["steps"][1:campaign["measured_steps"] + 1]


def step_medians(campaign, field):
    return median([s[field] for s in loop_steps(campaign)])


def end_to_end(raw):
    data = raw["data"]
    if "campaigns" in data:
        campaigns = data["campaigns"]
        episodes = sum(c["episodes"] for c in campaigns)
        wall = sum(c["loop_wall_s"] for c in campaigns)
        eps = episodes / wall
        # Per-campaign median step, summed over the workload's campaigns
        # (one campaign on attacker_scale).
        step_p50 = sum(step_medians(c, "seconds") for c in campaigns)
        setup = sum(c["generate_s"] + c["fit_s"] + c["construct_s"] +
                    c["warmup_s"] for c in campaigns)
        recnum_best = sum(c["recnum_best"] for c in campaigns)
        samples = {"steps": sum(c["measured_steps"] for c in campaigns),
                   "campaigns": len(campaigns)}
    else:
        sweeps = data["sweeps"]
        measured = sweeps[1:]
        eps = median([s["episodes"] / s["run_s"] for s in measured])
        step_p50 = median([x for s in measured for x in s["step_latency_s"]])
        # Every sweep sets up (dataset + orchestrator); the warm-up sweep
        # is the set-up's first step.
        setup = median([s["setup_s"] for s in sweeps]) + sweeps[0]["run_s"]
        recnum_best = sweeps[0]["recnum_best"]
        samples = {"sweeps": len(measured),
                   "campaign_steps": sum(len(s["step_latency_s"])
                                         for s in measured)}
    metrics = {
        "episodes_per_s": metric(eps, "1/s"),
        "step_s_p50": metric(step_p50, "s"),
        "setup_s": metric(setup, "s"),
        "rss_peak_mb": metric(raw["rss_peak_mb"], "MiB"),
    }
    extra = {
        "recnum_best": recnum_best,
        "failed_ratio": raw["failed"] / raw["attempted"],
        "samples": samples,
    }
    return metrics, extra


# -- Per-layer metrics --------------------------------------------------------

def sum_over(entries, fn):
    return sum(fn(e) for e in entries)


def per_layer(raw, spans):
    data = raw["data"]
    fleet = "sweeps" in data
    if fleet:
        attribution = data["attribution"]
    else:
        attribution = [c["attribution"] for c in data["campaigns"]]
    layer = traceanalysis.summarize(spans)

    m = {}
    if fleet:
        # Phase medians over every traced fleet step (all campaigns).
        for phase in ("sample", "query", "update"):
            m["core.%s_s" % phase] = median(
                layer["durations_in_run"]["ppo/" + phase])
        m["core.other_s"] = median(layer["step_other_in_run_s"])
    else:
        for phase in ("sample", "query", "update", "other"):
            m["core.%s_s" % phase] = sum(
                step_medians(c, phase + "_s") for c in data["campaigns"])
    m["core.recompute_s"] = sum_over(attribution, lambda a: a["recompute_s"])
    m["core.backward_s"] = sum_over(attribution, lambda a: a["backward_s"])
    m["core.optim_s"] = sum_over(attribution, lambda a: a["optim_s"])
    m["core.update_scaling"] = (
        sum_over(attribution, lambda a: a["update_1t_s"]) /
        sum_over(attribution, lambda a: a["update_nt_s"]))
    m["nn.gemm_calls"] = sum_over(attribution, lambda a: a["gemm_calls"])
    m["nn.gemm_gflop"] = sum_over(attribution, lambda a: a["gemm_flops"]) / 1e9
    # Traced updates of the measured loop (fleet: of the traced sweeps);
    # the probes' 1-thread replay has no threaded GEMMs by construction.
    if fleet:
        keys = ["sweep#%d" % s["sweep"] for s in data["sweeps"] if s["traced"]]
    else:
        keys = ["%s#%d" % (c["ranker"], s["step"]) for c in data["campaigns"]
                for s in loop_steps(c) if s["traced"]]
    update = [layer["update_by_step"].get(k, [0.0, 0.0]) for k in keys]
    update_total = sum(u[0] for u in update)
    m["nn.gemm_threaded_share"] = (sum(u[1] for u in update) / update_total
                                   if update_total > 0 else 0.0)
    for key, field in (("rec.clone_s", "clone_s"),
                       ("rec.update_s", "update_s"),
                       ("env.recnum_s", "recnum_s")):
        m[key] = sum_over(attribution, lambda a, f=field: median(a[f]))
    m["env.evaluate_s_p50"] = sum_over(
        attribution, lambda a: percentile(a["evaluate_s"], 50))
    m["env.evaluate_s_p90"] = sum_over(
        attribution, lambda a: percentile(a["evaluate_s"], 90))
    m["env.recnum_best"] = (data["sweeps"][0]["recnum_best"] if fleet else
                            sum(c["recnum_best"] for c in data["campaigns"]))

    if fleet:
        sweeps = data["sweeps"]
        m["rec.fit_s"] = sum_over(attribution, lambda a: a["fit_s"])
        m["data.generate_s"] = median([s["generate_s"] for s in sweeps])
        saves = layer["durations_in_run"]["ppo/checkpoint_save"]
        m["orch.checkpoint_save_s_p50"] = median(saves)
        m["orch.checkpoint_bytes"] = median(
            [b for s in sweeps for b in s["checkpoint_bytes"]])
        m["orch.journal_records"] = median([s["journal_records"]
                                            for s in sweeps])
        for key, counter in (
                ("orch.lease_acquired", "lease_acquired"),
                ("orch.lease_renewals", "lease_renewals"),
                ("orch.lease_fenced", "lease_fenced"),
                ("orch.status_snapshots", "status_snapshots")):
            m[key] = median([s["poisonrec_fleet_%s_total" % counter]
                             for s in sweeps])
        m["orch.status_query_s"] = median(
            [x for s in sweeps for x in s["status_query_s"]])
        runs = [s for s in sweeps if s["traced"]]
        concurrency = data["params"]["max_concurrent"]
        step_total = layer["step_total_in_run_s"]
        m["orch.step_share"] = step_total / (
            sum(s["run_s"] for s in runs) * concurrency)
        m["defense.sweeps"] = median([s["poisonrec_defense_sweeps_total"]
                                      for s in sweeps])
        m["defense.bans"] = median([s["poisonrec_defense_bans_total"]
                                    for s in sweeps])
        traced = [s["episodes"] / s["run_s"] for s in runs]
        plain = [s["episodes"] / s["run_s"] for s in sweeps[1:]
                 if not s["traced"]]
        m["obs.trace_overhead"] = median(traced) / median(plain)
        base = {"step_seconds_sum": step_total,
                "run_wall_s": sum(s["run_s"] for s in runs),
                "max_concurrent": concurrency, "traced_sweeps": len(runs)}
    else:
        campaigns = data["campaigns"]
        m["rec.fit_s"] = sum(c["fit_s"] for c in campaigns)
        m["data.generate_s"] = sum(c["generate_s"] for c in campaigns)
        m["orch.checkpoint_save_s_p50"] = median(
            [x for a in attribution for x in a["checkpoint_save_s"]])
        m["orch.checkpoint_bytes"] = median(
            [a["checkpoint_bytes"] for a in attribution])
        # No fleet runs here: no journal, leases or snapshots exist, and
        # the status query reads a state directory holding only the
        # campaign checkpoint.
        for key in ("orch.journal_records", "orch.lease_acquired",
                    "orch.lease_renewals", "orch.lease_fenced",
                    "orch.status_snapshots", "defense.sweeps",
                    "defense.bans"):
            m[key] = 0
        m["orch.status_query_s"] = median(
            [x for a in attribution for x in a["status_query_s"]])
        step_total = sum(s["seconds"] for c in campaigns
                         for s in loop_steps(c))
        wall = sum(c["loop_wall_s"] for c in campaigns)
        m["orch.step_share"] = step_total / wall
        # Odd measured steps ran traced, even ones untraced.
        traced = plain = 0.0
        for c in campaigns:
            loop = loop_steps(c)
            traced += median([s["seconds"] for s in loop if s["traced"]])
            plain += median([s["seconds"] for s in loop if not s["traced"]])
        m["obs.trace_overhead"] = plain / traced
        base = {"step_seconds_sum": step_total, "loop_wall_s": wall,
                "concurrent_campaigns": 1}

    report = {"step_share_base": base, "layers": layer["layers"],
              "steps": layer["steps"], "spans": layer["spans"],
              "per_ranker": attribution}
    return m, report


def stress_checks(workload, m, raw):
    """Does the workload stress the layer it was chosen for? Recorded, not
    gated: a failing check is a finding about the workload. The base is
    step_s_p50 of the traced pass's measured steps."""
    if workload == "fleet_sweep":
        return {"step_share": m["orch.step_share"], "pass": True}
    step = sum(step_medians(c, "seconds") for c in raw["data"]["campaigns"])
    if workload == "paper_neural":
        return {"step_s_p50": step,
                "query_share_of_step": m["core.query_s"] / step,
                "pass": m["core.query_s"] >= 0.5 * step}
    return {"step_s_p50": step,
            "update_share_of_step": m["core.update_s"] / step,
            "query_share_of_step": m["core.query_s"] / step,
            "pass": m["core.update_s"] >= 0.75 * step and
                    m["core.query_s"] <= 0.05 * step}


def load_units(root):
    """Metric name -> unit, per BENCHMARK.json group."""
    with open(root / "BENCHMARK.json") as f:
        bench = json.load(f)
    return {group: {e["name"]: e["unit"] for e in bench[group]}
            for group in ("end_to_end", "per_layer")}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, for perfbench/selfcheck.py")
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run_bounded reaps its children.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    root = checkout_root()
    if not (root / "src" / "core" / "poisonrec.h").is_file():
        fail("library sources not found under %s/src" % root)
    units = load_units(root)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)

    started = time.time()
    binary = build(root, out_dir)
    build_s = time.time() - started
    raw, returncode, raw_path = run_binary(binary, args, out_dir)

    problems = gate(raw, returncode)
    record = {
        "workload": args.workload,
        "trace": args.trace,
        "provenance": dict(raw["provenance"], git_sha=git_sha(root),
                           source_sha256=source_digest(root),
                           cpu_count=os.cpu_count()),
        "params": [c["params"] for c in raw["data"].get("campaigns", [])]
                  or raw["data"]["params"],
        "signature": raw["signature"],
        "check_failures": problems,
        "build_s": build_s,
    }
    if args.trace:
        spans = traceanalysis.load(str(raw_path).replace(".raw.json",
                                                         ".trace.json"))
        values, report = per_layer(raw, spans)
        record["stress_checks"] = stress_checks(args.workload, values, raw)
        record["step_share_base"] = report["step_share_base"]
        report.update({k: record[k] for k in ("workload", "provenance",
                                              "signature", "stress_checks")})
        report["metrics"] = values
        layers_path = str(raw_path).replace(".raw.json", ".layers.json")
        with open(layers_path, "w") as f:
            json.dump(report, f, indent=1)
        traceanalysis.write_spans(
            spans, str(raw_path).replace(".raw.json", ".spans.json"))
        record["layers_report"] = layers_path
        metrics = {name: metric(values[name], unit)
                   for name, unit in units["per_layer"].items()
                   if name in values}
        declared = units["per_layer"]
    else:
        metrics, extra = end_to_end(raw)
        record.update(extra)
        declared = units["end_to_end"]
    record["metrics"] = metrics
    if set(metrics) != set(declared) or any(
            metrics[n]["unit"] != declared[n] for n in metrics):
        problems.append("metrics differ from BENCHMARK.json: %s" % sorted(
            set(metrics) ^ set(declared)))

    record_path = str(raw_path).replace(".raw.json", ".result.json")
    with open(record_path, "w") as f:
        json.dump(record, f, indent=1)
    print(json.dumps({k: record[k] for k in record
                      if k not in ("metrics", "params")}))
    for problem in problems:
        print("CHECK FAILED: " + problem)
    print(json.dumps({"correct": not problems,
                      "attempted": raw["attempted"],
                      "failed": raw["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
