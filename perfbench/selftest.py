#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py

1. A smoke-length untraced run of each workload exits 0 and prints, as its
   last line, exactly the keys correct/attempted/failed/metrics, with every
   end-to-end metric of BENCHMARK.json under its unit, finite and non-zero.
2. Two smoke-length traced runs print every per-layer metric under its
   unit, reproduce the exact counts (3 real reads per read, 2 real accesses
   per write, 342,156 distinct histories) identically, and write spans
   that nest: each span lies inside its parent and has non-negative self
   time, and the spans cover every measured layer.
3. In a directory holding only BENCHMARK.json and perfbench/, the benchmark
   exits non-zero within 180 s without printing a result.

Exit code 0 when every check passes, 1 otherwise.
"""

import json
import math
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["register-closed", "stream-monitored", "net-quorum", "modelcheck-bloom"]
SMOKE_SEEDS = (101, 102)
LAYER_PREFIXES = ("registers.", "core.", "harness.", "histories.", "linearizability.",
                  "net.", "modelcheck.")

failures = []


def check(ok, what):
    print(("ok      " if ok else "FAILED  ") + what, flush=True)
    if not ok:
        failures.append(what)
    return ok


def bench(args, cwd=ROOT, timeout=900):
    t0 = time.time()
    p = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                       cwd=cwd, capture_output=True, text=True, timeout=timeout)
    return p, time.time() - t0


def last_json(p):
    lines = p.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except ValueError:
        return None


def check_metrics(result, wanted, label):
    got = result.get("metrics", {})
    check(set(got) == {m["name"] for m in wanted}, f"{label}: metric names match BENCHMARK.json")
    for m in wanted:
        entry = got.get(m["name"])
        if entry is None:
            continue
        check(entry.get("unit") == m["unit"], f"{label}: {m['name']} unit {m['unit']}")
        v = entry.get("value")
        check(isinstance(v, (int, float)) and math.isfinite(v), f"{label}: {m['name']} finite")


def check_spans(path, label):
    spans = {}
    with open(path) as f:
        for line in f:
            s = json.loads(line)
            spans[s["id"]] = s
    check(len(spans) > 0, f"{label}: spans written")
    child_sum = {}
    bad_nest = 0
    for s in spans.values():
        if s["end_ns"] < s["start_ns"]:
            bad_nest += 1
        if s["parent"] is not None:
            p = spans.get(s["parent"])
            if p is None or s["start_ns"] < p["start_ns"] or s["end_ns"] > p["end_ns"]:
                bad_nest += 1
            child_sum[s["parent"]] = child_sum.get(s["parent"], 0) + s["end_ns"] - s["start_ns"]
    check(bad_nest == 0, f"{label}: every span lies inside its parent ({bad_nest} do not)")
    bad_self = [i for i, s in spans.items()
                if s["end_ns"] - s["start_ns"] - child_sum.get(i, 0) != s["self_ns"] or s["self_ns"] < 0]
    check(not bad_self, f"{label}: self time = duration - children, and >= 0")
    names = {s["name"] for s in spans.values()}
    for prefix in LAYER_PREFIXES:
        check(any(n.startswith(prefix) for n in names), f"{label}: spans cover layer {prefix[:-1]}")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    results_dir = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "results")

    for i, w in enumerate(WORKLOADS):
        seed = SMOKE_SEEDS[i % 2]
        p, took = bench(["--workload", w, "--seed", str(seed), "--seconds", "1", "--trace", "0"])
        r = last_json(p) or {}
        label = f"{w} untraced"
        check(p.returncode == 0, f"{label}: exit 0 ({took:.0f} s)")
        check(set(r) == {"correct", "attempted", "failed", "metrics"}, f"{label}: result keys")
        check(r.get("correct") is True and r.get("failed") == 0, f"{label}: output checks pass")
        check(isinstance(r.get("attempted"), int) and r["attempted"] >= 1, f"{label}: attempted >= 1")
        check_metrics(r, spec["end_to_end"], label)
        for name, entry in r.get("metrics", {}).items():
            check(entry.get("value", 0) > 0, f"{label}: {name} non-zero")

    exact = []
    for w, seed in (("register-closed", SMOKE_SEEDS[0]), ("modelcheck-bloom", SMOKE_SEEDS[1])):
        p, took = bench(["--workload", w, "--seed", str(seed), "--seconds", "1", "--trace", "1"])
        r = last_json(p) or {}
        label = f"{w} traced"
        check(p.returncode == 0 and r.get("correct") is True, f"{label}: exit 0, correct ({took:.0f} s)")
        check_metrics(r, spec["per_layer"], label)
        m = {k: v["value"] for k, v in r.get("metrics", {}).items()}
        counts = (m.get("registers.real_reads_per_read"), m.get("registers.real_accesses_per_write"),
                  m.get("modelcheck.distinct_histories"))
        check(counts == (3, 2, 342156), f"{label}: exact counts 3 / 2 / 342156, got {counts}")
        exact.append(counts)
        check_spans(os.path.join(results_dir, f"{w}-seed{seed}.spans.jsonl"), label)
    check(len(exact) == 2 and exact[0] == exact[1], "exact counts repeat identically across runs")

    bare = os.path.join(results_dir, "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    p, took = bench(["--workload", "register-closed", "--seed", "1", "--seconds", "10", "--trace", "0"],
                    cwd=bare, timeout=180)
    check(p.returncode != 0 and took < 180, f"bare directory: exits non-zero ({p.returncode}) in {took:.1f} s")
    check(last_json(p) is None, "bare directory: prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print(f"\n{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
