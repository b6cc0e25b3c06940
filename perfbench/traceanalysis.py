"""Per-layer attribution of a Chrome trace written by the benchmark binary.

Each span gets an id, its parent (the innermost span on the same thread
that encloses it) and a step key: the "<campaign>#<step>" argument of the
nearest benchmark span above it, or, for spans on pool or fleet worker
threads, of the benchmark span on another thread whose interval holds
it. A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans. Only same-thread
children are subtracted, so concurrent work on worker threads is never
double-subtracted.

Layers are the library's modules. Benchmark spans are named
"bench/<layer>.<call>"; the library's own spans map by prefix.
"""

import collections
import json

LIBRARY_LAYERS = {"ppo/": "core", "gemm/": "nn", "campaign/": "orch"}

# Nesting order for spans that round to the same start and duration in
# microseconds: benchmark spans wrap library calls, a campaign attempt
# wraps its steps, a step wraps its phases, and GEMMs sit innermost.
NESTING = ("bench/", "campaign/", "ppo/step", "ppo/", "gemm/")


def nesting_key(span):
    rank = next((i for i, p in enumerate(NESTING)
                 if span["name"].startswith(p)), len(NESTING))
    return (span["ts"], -span["dur"], rank)


def layer_of(name):
    if name.startswith("bench/"):
        return name[len("bench/"):].split(".", 1)[0]
    for prefix, layer in LIBRARY_LAYERS.items():
        if name.startswith(prefix):
            return layer
    return "other"


def load(path):
    """Reads the trace and links every span to its parent and step key."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = []
    for i, e in enumerate(events):
        if e.get("ph") != "X":
            continue
        arg = e.get("args", {}).get("campaign", "")
        spans.append({"id": i, "name": e["name"], "tid": e["tid"],
                      "ts": e["ts"], "dur": e["dur"], "arg": arg,
                      "parent": None, "step": None, "children_us": 0})
    by_id = {s["id"]: s for s in spans}
    by_tid = collections.defaultdict(list)
    for s in spans:
        by_tid[s["tid"]].append(s)
    for tid_spans in by_tid.values():
        tid_spans.sort(key=nesting_key)
        stack = []
        for s in tid_spans:
            while stack and s["ts"] >= stack[-1]["ts"] + stack[-1]["dur"]:
                stack.pop()
            if stack:
                parent = stack[-1]
                s["parent"] = parent["id"]
                parent["children_us"] += s["dur"]
            stack.append(s)
    # Step keys: benchmark spans carry "<campaign>#<step>"; everything
    # else inherits from its same-thread ancestors, then from the
    # innermost keyed benchmark span on another thread that encloses it.
    keyed = [s for s in spans if s["name"].startswith("bench/") and s["arg"]]
    keyed.sort(key=lambda s: s["dur"])
    for s in sorted(spans, key=nesting_key):
        if s["name"].startswith("bench/") and s["arg"]:
            s["step"] = s["arg"]
        elif s["parent"] is not None and by_id[s["parent"]]["step"]:
            s["step"] = by_id[s["parent"]]["step"]
        else:
            for k in keyed:
                if k["ts"] <= s["ts"] and \
                        s["ts"] + s["dur"] <= k["ts"] + k["dur"]:
                    s["step"] = k["arg"]
                    break
    return spans


def _within(span, windows):
    return any(w["ts"] <= span["ts"] and
               span["ts"] + span["dur"] <= w["ts"] + w["dur"]
               for w in windows)


def summarize(spans):
    """Layer and span tables plus the aggregates run.py's metrics use.
    Durations are in seconds."""
    by_id = {s["id"]: s for s in spans}
    layers = collections.defaultdict(lambda: {"self_s": 0.0, "spans": 0})
    table = {}
    steps = collections.defaultdict(lambda: collections.defaultdict(float))
    for s in spans:
        self_s = (s["dur"] - s["children_us"]) / 1e6
        layer = layer_of(s["name"])
        layers[layer]["self_s"] += self_s
        layers[layer]["spans"] += 1
        row = table.setdefault(s["name"], {
            "layer": layer, "count": 0, "total_s": 0.0, "self_s": 0.0,
            "parents": collections.Counter()})
        row["count"] += 1
        row["total_s"] += s["dur"] / 1e6
        row["self_s"] += self_s
        parent = by_id[s["parent"]]["name"] if s["parent"] is not None \
            else None
        row["parents"][parent or "(root)"] += 1
        if s["step"]:
            steps[s["step"]][layer] += self_s

    # Fleet sweeps: library spans on worker threads inside a traced
    # bench/orch.run window.
    runs = [s for s in spans if s["name"] == "bench/orch.run"]
    in_run = collections.defaultdict(list)
    step_other = []  # ppo/step self time: the step's bookkeeping
    if runs:
        for s in spans:
            if not s["name"].startswith("bench/") and _within(s, runs):
                in_run[s["name"]].append(s["dur"] / 1e6)
                if s["name"] == "ppo/step":
                    step_other.append((s["dur"] - s["children_us"]) / 1e6)

    def has_ancestor(s, name):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            if s["name"] == name:
                return True
        return False

    # Per step key: [ppo/update seconds, threaded-GEMM self seconds in it].
    update_by_step = collections.defaultdict(lambda: [0.0, 0.0])
    for s in spans:
        if s["name"] == "ppo/update":
            update_by_step[s["step"]][0] += s["dur"] / 1e6
        elif s["name"] == "gemm/threaded" and has_ancestor(s, "ppo/update"):
            update_by_step[s["step"]][1] += (s["dur"] - s["children_us"]) / 1e6
    for row in table.values():
        row["parents"] = dict(row["parents"])
    return {
        "layers": {k: dict(v) for k, v in sorted(layers.items())},
        "spans": table,
        "steps": {k: dict(v) for k, v in steps.items()},
        "durations_in_run": in_run,
        "step_total_in_run_s": sum(in_run.get("ppo/step", [])),
        "step_other_in_run_s": step_other,
        "update_by_step": dict(update_by_step),
    }


def write_spans(spans, path):
    """Flat span list: id, parent, step key, layer, name, thread, start and
    duration in microseconds."""
    rows = [{"id": s["id"], "parent": s["parent"], "step": s["step"],
             "layer": layer_of(s["name"]), "name": s["name"],
             "tid": s["tid"], "ts_us": s["ts"], "dur_us": s["dur"]}
            for s in spans]
    with open(path, "w") as f:
        json.dump(rows, f)
