#!/usr/bin/env python3
"""Repo benchmark: four paper pipelines, end-to-end time and a per-layer split.

Run from the repository root:

    python3 perfbench/run.py --workload closed-world --seed 42 --seconds 20 --trace 0

It builds perfbench/wfbench.exe with dune, then runs workload iterations,
each in a fresh process, until --seconds are spent (at least three
iterations, or two untraced/traced pairs with --trace 1).  It checks every
operation's result, prints a stamped record line, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
metrics with --trace 1.

    python3 perfbench/run.py --self-test     smoke-size self-test
    python3 perfbench/run.py --record ...    store a seed's results as expected

See perfbench/README.md for the workloads, metrics and findings.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
EXE = os.path.join("_build", "default", "perfbench", "wfbench.exe")
STATE_ROOT = ".perfbench_state"
EXPECTED = os.path.join(HERE, "expected.json")
ITERATION_TIMEOUT_S = 150
SETUPS_PER_ROUND = 5


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def build():
    if not os.path.isfile("dune-project") or not os.path.isdir("lib"):
        fail("run me from the repository root (dune-project and lib/ not found)")
    if shutil.which("dune") is None:
        fail("dune not found on PATH")
    p = subprocess.run(["dune", "build", "--root", ".", "perfbench/wfbench.exe"],
                       stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("build failed")


def revision():
    """The git revision, or a digest of the sources when there is no git."""
    if os.path.isdir(".git"):
        p = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        if p.returncode == 0:
            return p.stdout.strip()
    h = hashlib.sha256()
    for top in ("lib", "perfbench", "dune-project"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(top) for f in fs)
        for path in paths:
            h.update(path.encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return "tree-sha256:" + h.hexdigest()[:16]


def run_once(workload, seed, size, traced, setup_only=False):
    os.makedirs(STATE_ROOT, exist_ok=True)
    state_dir = os.path.join(STATE_ROOT, "%s-%d" % (workload, os.getpid()))
    shutil.rmtree(state_dir, ignore_errors=True)
    argv = [EXE, "--workload", workload, "--seed", str(seed), "--size", size,
            "--trace", "1" if traced else "0", "--state-dir", state_dir]
    if setup_only:
        argv.append("--setup-only")
    t0 = time.monotonic_ns()
    try:
        p = subprocess.run(argv + ["--t0-ns", str(t0)], capture_output=True, text=True,
                           timeout=ITERATION_TIMEOUT_S)
    finally:
        shutil.rmtree(state_dir, ignore_errors=True)
        try:
            os.rmdir(STATE_ROOT)
        except OSError:
            pass
    if p.returncode != 0:
        sys.stderr.write(p.stderr)
        fail("%s iteration exited with %d" % (workload, p.returncode))
    return json.loads(p.stdout.strip().splitlines()[-1])


def iterate(workload, seed, size, seconds, trace):
    """Closed loop, one caller: the next iteration starts when the last ends.
    Untraced, a few set-up-only processes between iterations add set-up
    samples."""
    kinds = (False, True) if trace else (False,)
    minimum = 2 if trace else 3
    records, setups = [], []
    start = time.monotonic()
    rounds = 0
    while True:
        for traced in kinds:
            records.append(run_once(workload, seed, size, traced))
        if not trace:
            setups += [run_once(workload, seed, size, False, setup_only=True)["setup_s"]
                       for _ in range(SETUPS_PER_ROUND)]
        rounds += 1
        elapsed = time.monotonic() - start
        if rounds >= minimum and elapsed + elapsed / rounds > seconds:
            return records, setups


# ---------------------------------------------------------------- checks

def check(records, workload, seed, size):
    """Count failed operations: raised or out of range, not deterministic,
    traced differing from untraced, or differing from the recorded result."""
    expected = {}
    if size == "default" and os.path.isfile(EXPECTED):
        expected = load_json(EXPECTED).get(workload, {}).get(str(seed), {})
    reference = {o["label"]: o.get("result") for o in records[0]["ops"]}
    tolerance = dfnet_tolerance(reference.get("corpus"))
    attempted = failed = 0
    problems = []
    for rec in records:
        for o in rec["ops"]:
            attempted += 1
            label, why = o["label"], None
            if not o["ok"]:
                why = o["error"]
            elif o["result"] != reference.get(label):
                why = ("traced result differs from untraced" if rec["traced"]
                       else "differs between iterations")
            elif label in expected and not matches(label, o["result"], expected[label], tolerance):
                why = "differs from expected.json: %s != %s" % (o["result"], expected[label])
            if why:
                failed += 1
                problems.append("%s: %s" % (label, why))
    if expected and set(expected) != set(reference):
        problems.append("operations differ from expected.json")
        failed += 1
    return attempted, failed, sorted(set(problems))


def dfnet_tolerance(corpus_result):
    """Two test predictions' worth of accuracy (population workload)."""
    for field in (corpus_result or "").split():
        if field.startswith("test="):
            return 2.0 / int(field[len("test="):])
    return 0.0


def matches(label, got, want, tolerance):
    # DF-lite runs on -march=native C kernels, so its logits may differ
    # across CPUs: hold its accuracy to within two test predictions of the
    # record.  Everything else must match bit for bit.
    if label == "dfnet":
        return abs(float.fromhex(got) - float.fromhex(want)) <= tolerance + 1e-12
    return got == want


# --------------------------------------------------------------- metrics

def median(xs):
    return statistics.median(xs) if xs else 0.0


def percentile(xs, q):
    if not xs:
        return 0.0
    xs = sorted(xs)
    k = (len(xs) - 1) * q
    lo = int(k)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (k - lo)


def ratio(a, b, scale=1.0):
    return a / b * scale if b else 0.0


def span_table(rec):
    """The record's spans, each with its duration, self time and self
    allocation (its own minus its children's)."""
    spans = [dict(id=s[0], parent=s[1], cell=s[2], name=s[3], start=s[4], stop=s[5], alloc=s[6])
             for s in rec["spans"]]
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        s["dur"] = s["stop"] - s["start"]
        s["self"], s["self_alloc"] = s["dur"], s["alloc"]
    for s in spans:
        p = by_id.get(s["parent"])
        if p is not None:
            p["self"] -= s["dur"]
            p["self_alloc"] -= s["alloc"]
    return spans


def layer_split(rec, spans):
    """Self seconds per layer (the span-name prefix) inside the wall window,
    and the wall time no top-level span covers."""
    wall = rec["wall_s"]
    inside = [s for s in spans if s["start"] <= wall]
    layers = {}
    for s in inside:
        layer = s["name"].split(".")[0]
        layers[layer] = layers.get(layer, 0.0) + s["self"]
    covered = sum(s["dur"] for s in inside if s["parent"] < 0)
    return layers, wall - covered


def traced_metrics(rec):
    spans = span_table(rec)
    c, smp = rec["counters"], rec["samples"]
    wall = rec["wall_s"]

    def alloc(layer):
        return sum(s["self_alloc"] for s in spans if s["name"].split(".")[0] == layer)

    def total(name, key="self"):
        return sum(s[key] for s in spans if s["name"] == name)

    layers, unattributed = layer_split(rec, spans)
    m = {}
    m["web.self_s"] = layers.get("web", 0.0)
    m["web.visits"] = c.get("web.visits", 0.0)
    m["web.packets"] = c.get("web.packets", 0.0)
    for corpus in ("tcp", "tcp_stob", "quic", "quic_stob"):
        m["web.us_per_packet." + corpus] = ratio(c.get("web.generate_s." + corpus, 0.0),
                                                 c.get("web.packets." + corpus, 0.0), 1e6)
    m["web.alloc_mb"] = alloc("web") / 1e6
    m["web.completed_ratio"] = ratio(c.get("web.completed", 0.0), c.get("web.visits", 0.0))

    m["sim.self_s"] = layers.get("sim", 0.0)
    m["sim.events"] = c.get("sim.events", 0.0)
    m["sim.ns_per_event"] = ratio(c.get("sim.run_s", 0.0), m["sim.events"], 1e9)
    m["sim.words_per_event"] = ratio(c.get("sim.minor_words", 0.0), m["sim.events"])
    m["sim.simulated_s_per_host_s"] = ratio(c.get("sim.simulated_s", 0.0), c.get("sim.run_s", 0.0))

    m["defense.self_s"] = layers.get("defense", 0.0)
    m["defense.packets_in"] = c.get("defense.packets_in", 0.0)
    m["defense.packets_out"] = c.get("defense.packets_out", 0.0)
    m["defense.ns_per_packet"] = ratio(m["defense.self_s"], m["defense.packets_in"], 1e9)
    m["defense.alloc_mb"] = alloc("defense") / 1e6
    m["defense.useful_ratio"] = ratio(c.get("defense.packets_useful", 0.0), m["defense.packets_in"])

    m["kfp.self_s"] = layers.get("kfp", 0.0)
    m["kfp.traces"] = c.get("kfp.traces", 0.0)
    m["kfp.packets"] = c.get("kfp.packets", 0.0)
    m["kfp.ns_per_packet"] = ratio(m["kfp.self_s"], m["kfp.packets"], 1e9)
    m["kfp.alloc_bytes_per_packet"] = ratio(alloc("kfp"), m["kfp.packets"])

    m["ml.matrix_s"] = total("ml.matrix")
    m["ml.train_s"] = total("ml.train")
    m["ml.trees"] = c.get("ml.trees", 0.0)
    m["ml.ms_per_tree"] = ratio(m["ml.train_s"], m["ml.trees"], 1e3)
    m["ml.predict_s"] = total("ml.predict")
    m["ml.us_per_row"] = ratio(m["ml.predict_s"], c.get("ml.rows", 0.0), 1e6)
    m["ml.alloc_mb"] = alloc("ml") / 1e6

    m["nn.encode_s"] = total("nn.encode")
    m["nn.train_s"] = total("nn.train")
    m["nn.ms_per_epoch"] = ratio(m["nn.train_s"], c.get("nn.epochs", 0.0), 1e3)
    m["nn.predict_s"] = total("nn.predict")
    m["nn.alloc_mb"] = alloc("nn") / 1e6

    # The plan and synth times come from a second pass over the same visits
    # after the wall clock stops; store.write_s is derived from them.
    m["population.plan_s"] = total("population.plan")
    m["population.synth_s"] = total("population.synth")
    m["population.flows"] = c.get("population.flows", 0.0)
    m["population.events"] = c.get("population.events", 0.0)
    generate_s = total("population.generate", "dur")
    m["store.write_s"] = (generate_s - m["population.plan_s"] - m["population.synth_s"]
                          if generate_s else 0.0)
    m["store.read_s"] = total("store.read")
    m["store.bytes"] = c.get("store.bytes", 0.0)
    m["store.frames"] = c.get("store.frames", 0.0)
    m["store.read_mb_per_s"] = ratio(m["store.bytes"], m["store.read_s"], 1e-6)

    m["trace.unattributed_s"] = unattributed
    samples = {
        "web.visit_ms": [v * 1e3 for v in smp.get("web.visit_s", [])],
        "kfp.trace_us": [s["self"] * 1e6 for s in spans if s["name"].startswith("kfp.extract")],
    }
    shares = {k: ratio(v, wall) for k, v in sorted(layers.items())}
    shares["unattributed"] = ratio(unattributed, wall)
    return m, samples, shares


def per_layer(records, spec):
    untraced = [r for r in records if not r["traced"]]
    traced = [r for r in records if r["traced"]]
    per_iter = [traced_metrics(r) for r in traced]
    names = [d["name"] for d in spec]
    values = {}
    for name in names:
        xs = [m[name] for m, _, _ in per_iter if name in m]
        if xs:
            values[name] = median(xs)
    visits = [v for _, s, _ in per_iter for v in s["web.visit_ms"]]
    traces = [v for _, s, _ in per_iter for v in s["kfp.trace_us"]]
    values["web.ms_per_visit.p50"] = percentile(visits, 0.50)
    values["web.ms_per_visit.p95"] = percentile(visits, 0.95)
    values["kfp.us_per_trace.p50"] = percentile(traces, 0.50)
    values["kfp.us_per_trace.p99"] = percentile(traces, 0.99)
    values["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                  - median([r["wall_s"] for r in untraced]))
    shares = {k: median([sh.get(k, 0.0) for _, _, sh in per_iter])
              for k in sorted({k for _, _, sh in per_iter for k in sh})}
    missing = [n for n in names if n not in values]
    if missing:
        fail("per-layer metrics not computed: " + ", ".join(missing))
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in spec}, shares


def end_to_end(records, setups, spec, attempted, failed):
    untraced = [r for r in records if not r["traced"]]
    values = {
        "wall_s": median([r["wall_s"] for r in untraced]),
        "setup_s": median([r["setup_s"] for r in untraced] + setups),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
        "ok_ratio": 1.0 - failed / attempted,
    }
    return {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in spec}


def measure(args, bench):
    records, setups = iterate(args.workload, args.seed, args.size, args.seconds, args.trace)
    attempted, failed, problems = check(records, args.workload, args.seed, args.size)
    if args.trace:
        metrics, shares = per_layer(records, bench["per_layer"])
    else:
        metrics, shares = end_to_end(records, setups, bench["end_to_end"], attempted, failed), None
    stamp = dict(records[0]["stamp"], revision=revision(), workload=args.workload,
                 size=args.size, trace=args.trace)
    record = {"stamp": stamp,
              "iterations": [{"traced": r["traced"], "wall_s": r["wall_s"], "setup_s": r["setup_s"],
                              "peak_rss_mb": r["peak_rss_mb"]} for r in records],
              "setup_only_s": setups,
              "ops": {o["label"]: o.get("result", o.get("error")) for o in records[0]["ops"]},
              "problems": problems}
    if shares is not None:
        record["layer_share_of_wall"] = shares
    return record, {"correct": failed == 0 and not problems, "attempted": attempted,
                    "failed": failed, "metrics": metrics}


# ------------------------------------------------------------- self-test

def self_test(bench):
    """Smoke size: every metric is emitted with its unit, the traced run
    reproduces the untraced result, spans nest in their parents and no
    self time is negative."""
    errors = []
    for w in [d["name"] for d in bench["workloads"]]:
        records = [run_once(w, 42, "smoke", False), run_once(w, 42, "smoke", True)]
        attempted, failed, problems = check(records, w, 42, "smoke")
        errors += ["%s: %s" % (w, p) for p in problems]
        untraced, traced = records
        if [o.get("result") for o in untraced["ops"]] != [o.get("result") for o in traced["ops"]]:
            errors.append("%s: traced result differs from untraced" % w)
        for mode, spec, metrics in (
                ("trace 0", bench["end_to_end"], end_to_end(records, [], bench["end_to_end"], attempted, failed)),
                ("trace 1", bench["per_layer"], per_layer(records, bench["per_layer"])[0])):
            for d in spec:
                got = metrics.get(d["name"])
                if got is None or got.get("unit") != d["unit"] or not isinstance(got.get("value"), (int, float)):
                    errors.append("%s %s: metric %s missing or without unit" % (w, mode, d["name"]))
        spans = span_table(traced)
        by_id = {s["id"]: s for s in spans}
        if not spans:
            errors.append("%s: traced run recorded no spans" % w)
        for s in spans:
            p = by_id.get(s["parent"])
            if s["parent"] >= 0 and p is None:
                errors.append("%s: span %s has no parent %d" % (w, s["name"], s["parent"]))
            if p is not None and not (p["start"] <= s["start"] <= s["stop"] <= p["stop"]):
                errors.append("%s: span %s does not nest in %s" % (w, s["name"], p["name"]))
            if p is not None and not s["name"].startswith("cell.") and s["cell"] != p["cell"]:
                errors.append("%s: span %s left its parent's cell" % (w, s["name"]))
            if s["self"] < 0:
                errors.append("%s: span %s has negative self time %g" % (w, s["name"], s["self"]))
        print("self-test %-17s %s" % (w, "ok" if not errors else "errors so far: %d" % len(errors)))
    for e in errors:
        print("  " + e)
    return not errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("default", "smoke"), default="default")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true",
                    help="store this seed's results in expected.json (intended behaviour changes only)")
    args = ap.parse_args()
    if not os.path.isfile("BENCHMARK.json"):
        fail("BENCHMARK.json not found; run from the repository root")
    bench = load_json("BENCHMARK.json")
    build()
    if args.self_test:
        sys.exit(0 if self_test(bench) else 1)
    if args.workload not in [d["name"] for d in bench["workloads"]]:
        fail("unknown workload %r" % args.workload)
    if args.record:
        rec = run_once(args.workload, args.seed, "default", False)
        if not all(o["ok"] for o in rec["ops"]):
            fail("not recording failed operations: %s" % rec["ops"])
        expected = load_json(EXPECTED) if os.path.isfile(EXPECTED) else {}
        expected.setdefault(args.workload, {})[str(args.seed)] = {o["label"]: o["result"] for o in rec["ops"]}
        with open(EXPECTED, "w") as f:
            json.dump(expected, f, indent=1, sort_keys=True)
            f.write("\n")
        return
    record, result = measure(args, bench)
    print(json.dumps({"record": record}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
