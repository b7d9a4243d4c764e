#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run configures and builds the
program's libraries and the benchmark binary (perfbench/cpp) into
.bench_build/perfbench; later runs only rebuild what changed. The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics: the end-to-end metrics of BENCHMARK.json with
--trace 0, its per-layer metrics with --trace 1. Build output and check
notes go to standard error. A full record of each run (host, compiler,
build type, source revision, seed, workload shape, every metric and the
Chrome trace of a traced run) is written under .bench_build/perfbench-out.
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
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench-out")
DEADLINE_S = 170  # the whole run, build included, ends well inside 180 s
FIRST_BUILD_DEADLINE_S = 880


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def run_logged(cmd, timeout):
    """Runs cmd with its output on our stderr; returns the exit code."""
    try:
        return subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except (OSError, subprocess.TimeoutExpired) as e:
        log("%s: %s" % (cmd[0], e))
        return 1


def build(deadline):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no program sources under %s/src; nothing to benchmark" % ROOT)
        return False
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")) and run_logged(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            deadline - time.monotonic()) != 0:
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    return run_logged(["cmake", "--build", BUILD, "--target", "perfbench",
                       "perfbench_selftest", "-j", jobs],
                      deadline - time.monotonic()) == 0


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def host_record():
    cache = {}
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, val = line.rstrip("\n").split("=", 1)
                    cache[key.split(":")[0]] = val
    except OSError:
        pass
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    return {"nproc": os.cpu_count(), "compiler": version,
            "build_type": cache.get("CMAKE_BUILD_TYPE", "")}


def source_revision():
    """The git revision when there is one, and always a digest of src/."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            rev = None
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return {"git_rev": rev, "src_sha256": digest.hexdigest()}


def trace_metrics(path):
    """Per-layer figures derived from the traced run's Chrome trace: the
    existing ipc.send (courier blocked on its shard) and ipc.receive (shard
    waiting for work) spans, and each shard thread's busy share."""
    with open(path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    send = [e["dur"] for e in events if e["name"] == "ipc.send"]
    recv = [e for e in events if e["name"] == "ipc.receive"]
    busy = []
    by_thread = {}
    for e in recv:
        by_thread.setdefault((e["pid"], e["tid"]), []).append(e)
    for spans in by_thread.values():
        start = min(e["ts"] for e in spans)
        end = max(e["ts"] + e["dur"] for e in spans)
        if end > start:
            waited = sum(e["dur"] for e in spans)
            busy.append(max(0.0, 1.0 - waited / (end - start)))
    counts = {}
    for e in events:
        if e["name"].startswith("bench."):
            counts[e["name"]] = counts.get(e["name"], 0) + 1
    metrics = {
        "ipc.send_self_ms": (statistics.median(send) / 1e3 if send else 0.0,
                             "ms"),
        "ipc.receive_wait_ms": (statistics.median(e["dur"] for e in recv)
                                / 1e3 if recv else 0.0, "ms"),
        "vm.shard_busy_share": (statistics.mean(busy) if busy else 0.0,
                                "ratio"),
    }
    return metrics, counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    started = time.monotonic()

    first = not os.path.isfile(os.path.join(BUILD, "perfbench"))
    budget = FIRST_BUILD_DEADLINE_S if first else DEADLINE_S
    if not build(started + budget - 30):
        log("build failed")
        return 1
    if args.self_test:
        return run_logged([os.path.join(BUILD, "perfbench_selftest")], 60)

    if not args.workload:
        ap.error("--workload is required")
    wanted = spec()["per_layer" if args.trace else "end_to_end"]

    tag = "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace)
    out_dir = os.path.join(OUT, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir]
    left = started + budget - time.monotonic() - 5
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=max(left, 1))
    except subprocess.TimeoutExpired:
        log("workload %s did not finish in time" % args.workload)
        return 1
    lines = proc.stdout.strip().splitlines()
    try:
        raw = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("no result from the benchmark binary (exit %d)" % proc.returncode)
        return 1

    measured = {k: (v["value"], v["unit"]) for k, v in raw["metrics"].items()}
    counts = {}
    trace_file = os.path.join(out_dir, "trace-%s.json" % args.workload)
    if args.trace and os.path.isfile(trace_file):
        derived, counts = trace_metrics(trace_file)
        measured.update(derived)

    correct = bool(raw["correct"])
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            log("metric %s was not measured" % m["name"])
            correct = False
            continue
        value, unit = measured[m["name"]]
        if unit != m["unit"]:
            log("metric %s in %s, expected %s" % (m["name"], unit, m["unit"]))
            correct = False
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    for note in raw.get("notes", []):
        log("note: " + note)

    result = {"correct": correct, "attempted": raw["attempted"],
              "failed": raw["failed"], "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "host": host_record(), "source": source_revision(),
              "shape": raw.get("shape", {}), "notes": raw.get("notes", []),
              "all_metrics": {k: {"value": v, "unit": u}
                              for k, (v, u) in measured.items()},
              "trace_spans": counts, "result": result}
    with open(os.path.join(out_dir, "record.json"), "w") as f:
        json.dump(record, f, indent=1)
    log("record written to %s" % os.path.join(out_dir, "record.json"))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
