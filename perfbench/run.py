#!/usr/bin/env python3
"""The repository benchmark: build, run one workload, check, report.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

NAME is one of register-closed, stream-monitored, net-quorum and
modelcheck-bloom (see perfbench/README.md for why each exists). The script
builds the library and the benchmark binary from source with CMake into
.bench_build/perfbench, runs the binary, and checks that it reported
exactly the metrics BENCHMARK.json names, with their units.

--trace 0 prints every end-to-end metric; --trace 1 runs the traced
breakdown and prints every per-layer metric, the tracing overhead and the
unattributed share of each workload, and writes the spans to
.bench_build/results. Each run also writes its provenance (commit or source
digest, CPU model, core count, compiler, build type and flags, seed) and
metrics to .bench_build/results/<workload>-seed<N>-trace<T>.json.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. The exit code is 0 when every output check
passed, 1 when one failed, and 2 when the benchmark cannot build or run
(for example when the library sources are missing).
"""

import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["register-closed", "stream-monitored", "net-quorum", "modelcheck-bloom"]
BUILD_TYPE = "RelWithDebInfo"
# Kept out of all tuning; later performance claims are re-checked on it.
HELD_OUT_SEED = 918273645
RUN_TIMEOUT_S = 170


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        die(f"cannot read {path}: {e}")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die(f"no library sources under {os.path.join(ROOT, 'src')}; run from a full checkout")
    bdir = os.path.join(build_root(), "perfbench")
    os.makedirs(bdir, exist_ok=True)
    with open(os.path.join(bdir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", bdir, f"-DCMAKE_BUILD_TYPE={BUILD_TYPE}"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", bdir, "--target", "perfbench", "-j", jobs])
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode
            except OSError as e:
                die(f"cannot run {cmd[0]}: {e}")
            if rc != 0:
                die(f"build step failed ({rc}): {' '.join(cmd)}")
    return os.path.join(bdir, "perfbench")


def cmake_cache(bdir):
    cache = {}
    try:
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and not line.startswith(("#", "//")):
                    key, value = line.rstrip("\n").split("=", 1)
                    cache[key.split(":", 1)[0]] = value
    except OSError:
        pass
    return cache


def source_digest():
    """sha256 over the library sources and the benchmark, path and content."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()


def provenance(args, binary):
    bdir = os.path.dirname(binary)
    cache = cmake_cache(bdir)
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                    capture_output=True, text=True).stdout.strip() or None
        except OSError:
            pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER")
    version = None
    if compiler:
        try:
            out = subprocess.run([compiler, "--version"], capture_output=True, text=True).stdout
            version = out.splitlines()[0] if out else None
        except OSError:
            pass
    build_type = cache.get("CMAKE_BUILD_TYPE", BUILD_TYPE)
    flags = " ".join(x for x in (cache.get("CMAKE_CXX_FLAGS", ""),
                                 cache.get(f"CMAKE_CXX_FLAGS_{build_type.upper()}", ""),
                                 "-std=c++20 -Wall -Wextra -Wpedantic") if x)
    return {
        "commit": commit,
        "source_sha256": source_digest(),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "compiler": version,
        "build_type": build_type,
        "cxx_flags": flags,
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def run_one(binary, spec, workload, seed, seconds, trace):
    """Runs one workload; returns (result dict, raw binary report)."""
    results = os.path.join(build_root(), "results")
    os.makedirs(results, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out", results]
    failures = []
    raw = {}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        try:
            raw = json.loads(lines[-1]) if lines else {}
        except ValueError:
            raw = {}
        if not raw:
            failures.append(f"benchmark binary exited {proc.returncode} without a report")
    except subprocess.TimeoutExpired:
        failures.append(f"benchmark binary ran past {RUN_TIMEOUT_S} s")
    failures += raw.get("failures", [])

    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = raw.get("metrics", {})
    metrics = {}
    for m in wanted:
        name = m["name"]
        entry = got.get(name)
        if entry is None:
            failures.append(f"metric {name} missing")
            continue
        if entry.get("unit") != m["unit"]:
            failures.append(f"metric {name} has unit {entry.get('unit')}, expected {m['unit']}")
        value = entry.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            failures.append(f"metric {name} is not a finite number")
            continue
        metrics[name] = {"value": value, "unit": m["unit"]}
    result = {
        "correct": bool(raw.get("correct")) and not failures,
        "attempted": max(1, int(raw.get("attempted", 0))),
        "failed": int(raw.get("failed", 0)),
        "metrics": metrics,
    }
    if failures and result["failed"] == 0:
        result["failed"] = 1
    for f in failures:
        print(f"FAILED: {f}")
    return result, raw


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not 1 <= args.seconds <= 60:
        die("--seconds must be 1..60")

    spec = load_spec()
    binary = build()
    prov = provenance(args, binary)
    names = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    results = os.path.join(build_root(), "results")
    for w in names:
        print(f"== {w} (seed {args.seed}, {args.seconds} s, trace {args.trace})")
        result, raw = run_one(binary, spec, w, args.seed, args.seconds, args.trace)
        record = dict(provenance=dict(prov, workload=w), result=result,
                      all_metrics=raw.get("metrics", {}), failures=raw.get("failures", []))
        with open(os.path.join(results, f"{w}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
            json.dump(record, f, indent=1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        prefix = "" if len(names) == 1 else w + "/"
        for k, v in result["metrics"].items():
            combined["metrics"][prefix + k] = v
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(json.dumps(combined))
    sys.exit(0 if combined["correct"] else 1)


if __name__ == "__main__":
    main()
