#!/usr/bin/env python3
"""The JPS benchmark: build, run one workload (or all), check, report.

    python3 perfbench/run.py --workload sweep --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 7
    python3 perfbench/run.py --self-test

Run from the root of a source tree.  The first run configures and builds
the repository's libraries, the jps_serve daemon and the jps_perfbench
runner into $CARGO_TARGET_DIR (default .bench_build); later runs only
rebuild what changed.  Each run prints every metric by name with its unit,
writes a result file with provenance under <build>/results/, and ends with
one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports BENCHMARK.json's end_to_end metrics, --trace 1 its
per_layer metrics.  The exit code is 0 only when every output was verified
correct and the open-loop generator kept its schedule.  See README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORKLOADS = ["serve-hot", "serve-cold", "sweep", "execute"]
# Kernel threads (util::parallel_for, used by the runtime kernels only; the
# daemon's planner pool is sized by its own flag).  Layers run on one
# thread, as the paper's mobile device runs one inference at a time: on a
# shared VM a 4-way parallel_for is paced by its most-preempted vCPU, which
# made execute's job times swing by half from run to run.
KERNEL_THREADS = "1"
# Workloads that run but that BENCHMARK.json does not gate (README.md,
# "Gated and ungated workloads").
UNGATED = {
    "serve-hot": "plan-cache hits over loopback TCP (not gated: host "
                 "preemption bursts move its latency and capacity by 5x)",
    "serve-cold": "fresh keys: curve build + planning + unbounded cache "
                  "(not gated: host preemption bursts move it by 5x)",
}
# The whole command must finish within 180 s; the first build may take 900.
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out_dir):
    """Configure once, then build the three targets; logs go to a file."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no JPS sources next to perfbench/ (expected ../src)")
    if shutil.which("cmake") is None:
        fail("cmake is required")
    cmake_dir = os.path.join(out_dir, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    with open(log_path, "w") as log:
        steps = []
        if not os.path.isfile(os.path.join(cmake_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", cmake_dir,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", cmake_dir, "-j", str(os.cpu_count() or 1),
                      "--target", "jps_perfbench", "jps_serve_tool"])
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (full log: %s)" % log_path)
    return cmake_dir


def read_first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=10)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
    except (OSError, IndexError, subprocess.TimeoutExpired):
        return "unknown"


def read_file(path, default="unreadable"):
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return default


def provenance(cmake_dir):
    """Where and how the numbers were made (the host fingerprint)."""
    cache = {}
    for line in read_file(os.path.join(cmake_dir, "CMakeCache.txt"), "").splitlines():
        if ":" in line and "=" in line and not line.startswith(("//", "#")):
            key, value = line.split("=", 1)
            cache[key.split(":")[0]] = value
    cpu = "unknown"
    for line in read_file("/proc/cpuinfo", "").splitlines():
        if line.startswith("model name"):
            cpu = line.split(":", 1)[1].strip()
            break
    sha = read_first_line(["git", "-C", ROOT, "rev-parse", "HEAD"])
    return {
        "git_sha": sha if sha != "unknown" else os.environ.get("GIT_SHA", "unknown (not a git checkout)"),
        "build_type": cache.get("CMAKE_BUILD_TYPE", "unknown"),
        "compiler": read_first_line([cache.get("CMAKE_CXX_COMPILER", "c++"), "--version"]),
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "governor": read_file("/sys/devices/system/cpu/cpu0/cpufreq/scaling_governor"),
        "kernel": platform.release(),
        "jps_threads": KERNEL_THREADS + " (set by run.py for every workload)",
    }


def cpu_ticks():
    """The aggregate 'cpu' line of /proc/stat (empty when unreadable)."""
    fields = read_file("/proc/stat", "").split("\n")[0].split()
    return [int(v) for v in fields[1:]] if fields[:1] == ["cpu"] else []


def steal_pct(before, after):
    """Share of CPU time the hypervisor gave to others during a run: a
    shared host's noise, recorded next to the numbers it disturbs."""
    if len(before) < 8 or len(after) < 8:
        return None
    total = sum(after) - sum(before)
    return 100.0 * (after[7] - before[7]) / total if total > 0 else None


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_workload(cmake_dir, workload, seed, seconds, trace, inject=None):
    """Run jps_perfbench once; returns (exit code, parsed result or None)."""
    cmd = [os.path.join(cmake_dir, "jps_perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--daemon", os.path.join(cmake_dir, "jps_serve")]
    if inject:
        cmd += ["--inject", inject]
    # Own process group: on a timeout the runner and any daemon it spawned
    # are killed together, and waited for.
    env = dict(os.environ, JPS_THREADS=KERNEL_THREADS)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        fail("%s timed out after %d s" % (workload, RUN_TIMEOUT_S))
    lines = out.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except ValueError:
        return proc.returncode, None


def report(workload, seed, seconds, trace, code, result, spec, cmake_dir, prov):
    """Print the metrics, write the result file; return the summary object."""
    if result is None:
        fail("%s produced no result (exit %d)" % (workload, code))
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None:
            fail("%s did not report %s" % (workload, m["name"]))
        if got["unit"] != m["unit"]:
            fail("%s reported %s in %s, BENCHMARK.json says %s"
                 % (workload, m["name"], got["unit"], m["unit"]))
        metrics[m["name"]] = {"value": got["value"], "unit": got["unit"]}

    why = next((w["why"] for w in spec["workloads"] if w["name"] == workload),
               UNGATED.get(workload, ""))
    print("== %s (seed %d, %g s, trace %d): %s" % (workload, seed, seconds, trace, why))
    # Every metric the run measured, the gated ones (BENCHMARK.json) first.
    others = [n for n in result["metrics"] if n not in metrics]
    for name in list(metrics) + others:
        m = result["metrics"][name]
        spread = " (trials %d, spread %.3f)" % (m["trials"], m["spread"]) if "spread" in m else ""
        note = "" if name in metrics else "  [measured, not gated]"
        value = "%16.6g" % m["value"] if m["value"] is not None else "%16s" % "n/a"
        print("  %-36s %s %s%s%s" % (name, value, m["unit"], spread, note))
    print("  attempted %d  succeeded %d  failed %d  refused %d"
          % (result["attempted"], result["succeeded"], result["failed"], result["refused"]))
    for problem in result["problems"]:
        print("  PROBLEM: " + problem)
    if not result["valid"]:
        print("  INVALID: the open-loop run cannot support its numbers (see above)")

    results_dir = os.path.join(os.path.dirname(cmake_dir), "results")
    os.makedirs(results_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = os.path.join(results_dir, "%s-seed%d-trace%d-%s.json" % (workload, seed, trace, stamp))
    with open(path, "w") as f:
        json.dump({"workload": workload, "why": why, "seed": seed,
                   "seconds": seconds, "trace": trace, "exit_code": code,
                   "provenance": prov, "result": result}, f, indent=1)
    print("  result file: " + os.path.relpath(path, ROOT))
    missing = [name for name, m in metrics.items() if m["value"] is None]
    if missing:
        fail("%s measured no value for %s" % (workload, ", ".join(missing)))
    return {"correct": bool(result["correct"] and result["valid"] and code == 0),
            "attempted": int(result["attempted"]), "failed": int(result["failed"]),
            "metrics": metrics}


def self_test(cmake_dir):
    """One corrupted reply, sweep point and job output must each fail a run."""
    ok = True
    for workload, inject in [("serve-hot", "reply"), ("sweep", "point"), ("execute", "output")]:
        code, result = run_workload(cmake_dir, workload, 1, 3, 0, inject)
        caught = code == 2 and result is not None and not result["correct"]
        print("self-test: corrupted %-6s in %-9s -> %s" % (inject, workload,
              "run failed as it must (%s)" % result["problems"][0] if caught else "NOT CAUGHT"))
        ok = ok and caught
    code, result = run_workload(cmake_dir, "sweep", 1, 2, 0)
    clean = code == 0 and result is not None and result["correct"]
    print("self-test: clean sweep run -> %s" % ("passes" if clean else "FAILS"))
    return ok and clean


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ["all"],
                        help="all = the workloads BENCHMARK.json lists")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, default=0, choices=[0, 1])
    parser.add_argument("--self-test", action="store_true",
                        help="check that injected corruption fails a run")
    args = parser.parse_args()

    spec = load_spec()
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    out_dir = build_dir()
    os.makedirs(out_dir, exist_ok=True)
    cmake_dir = build(out_dir)
    if args.self_test:
        sys.exit(0 if self_test(cmake_dir) else 1)

    prov = provenance(cmake_dir)
    names = [w["name"] for w in spec["workloads"]] if args.workload == "all" else [args.workload]
    summaries = {}
    for name in names:
        before = cpu_ticks()
        code, result = run_workload(cmake_dir, name, args.seed, seconds, args.trace)
        prov["host_steal_pct"] = steal_pct(before, cpu_ticks())
        summaries[name] = report(name, args.seed, seconds, args.trace, code, result,
                                 spec, cmake_dir, prov)

    if len(names) == 1:
        final = summaries[names[0]]
    else:
        final = {"correct": all(s["correct"] for s in summaries.values()),
                 "attempted": sum(s["attempted"] for s in summaries.values()),
                 "failed": sum(s["failed"] for s in summaries.values()),
                 "metrics": {"%s/%s" % (w, k): v for w, s in summaries.items()
                             for k, v in s["metrics"].items()}}
    print(json.dumps(final))
    sys.exit(0 if final["correct"] else 1)


if __name__ == "__main__":
    main()
