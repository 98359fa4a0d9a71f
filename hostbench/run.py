#!/usr/bin/env python3
"""Host-time and memory benchmark for the ParColl simulator.

Builds the harness in this directory (CMake, Release) into
.bench_build/hostbench at the repository root, then runs one workload for a
fixed time. Every operation is one complete simulated run in a fresh child
process, so its CPU time and peak RSS come from that child's own rusage
(os.wait4) and never inherit an earlier operation's high-water mark.

    python3 hostbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 hostbench/run.py --self-test

--trace 0 runs the untraced harness and reports the end-to-end metrics.
--trace 1 alternates untraced and traced operations and reports the
per-layer metrics. The last stdout line is the JSON result; a summary with
sample counts goes to stderr. See README.md for the metric definitions.
"""

import argparse
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "hostbench"
PINS = HERE / "pins.json"

WORKLOADS = (
    "ior-ext2ph-p512",
    "ior-parcoll-p2048",
    "tileio-write-bytetrue-p16",
    "tileio-read-bytetrue-p16",
)
DEFAULT_STORAGE_SEED = 42  # machine::StorageParams::seed
# Least (untraced, traced) operations per run, by --trace.
MIN_OPS = {False: (2, 0), True: (1, 1)}
SETUP_PROBES = 10          # extra set-up-only children per --trace 0 run
RUN_BUDGET_S = 150.0       # never start an operation that could end later
OP_TIMEOUT_S = 120.0       # an operation running longer counts as failed
MIB = 1 << 20
GIB = 1 << 30


class OpFailed(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build(traced):
    """Configure once, then build incrementally; output goes to stderr. The
    traced harness is built only when a run needs it."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    targets = ["hostbench"] + (["hostbench_traced"] if traced else [])
    steps.append(["cmake", "--build", str(BUILD), "-j", jobs,
                  "--target", *targets])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise SystemExit(f"hostbench: build step failed: {' '.join(step)}")


def run_op(workload, storage_seed, traced, setup_only=False):
    """One simulated run in a fresh child. Returns the harness document with
    the child's own cpu_s and peak_rss_mib added. A set-up-only child stops
    when the event loop starts and reports only setup_s."""
    binary = BUILD / ("hostbench_traced" if traced else "hostbench")
    cmd = [str(binary), "--workload", workload,
           "--storage-seed", str(storage_seed)]
    if traced:
        cmd += ["--spans", str(BUILD / f"spans-{workload}.csv")]
    if setup_only:
        cmd += ["--setup-only"]
    out_path = BUILD / f"op-{workload}.out"
    with open(out_path, "w+b") as out:
        child = subprocess.Popen(cmd, stdout=out)
        try:
            deadline = time.monotonic() + OP_TIMEOUT_S
            while True:
                pid, status, usage = os.wait4(child.pid, os.WNOHANG)
                if pid != 0:
                    break
                if time.monotonic() > deadline:
                    child.kill()
                    _, status, usage = os.wait4(child.pid, 0)
                    break
                time.sleep(0.01)
        except BaseException:
            child.kill()
            os.wait4(child.pid, 0)
            raise
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        lines = out.read().decode(errors="replace").splitlines()
    if child.returncode != 0:
        raise OpFailed(f"{workload}: harness exited with {child.returncode}")
    try:
        doc = json.loads(lines[-1])
    except (IndexError, ValueError) as error:
        raise OpFailed(f"{workload}: unreadable harness output ({error})")
    if setup_only:
        return doc
    if doc.get("traced") != traced:
        raise OpFailed(f"{workload}: harness binary does not match --trace")
    doc["cpu_s"] = usage.ru_utime + usage.ru_stime
    doc["peak_rss_mib"] = usage.ru_maxrss * 1024 / MIB  # ru_maxrss is KiB
    return doc


def check_op(doc, first, pins, storage_seed):
    """Output check: pinned virtual outputs at the default seed, identical
    virtual outputs and file digest across the operations of a run, and a
    passed byte audit on byte-true workloads."""
    virt = doc["virt"]
    if virt["bytes"] != pins["virt"]["bytes"]:
        raise OpFailed(f"bytes {virt['bytes']} != {pins['virt']['bytes']}")
    if doc["byte_true"] and not doc["verified"]:
        raise OpFailed("byte-true audit failed (verified = false)")
    if storage_seed == DEFAULT_STORAGE_SEED and virt != pins["virt"]:
        raise OpFailed(f"virtual outputs differ from the pins: {virt}")
    if first is not None:
        if virt != first["virt"]:
            raise OpFailed("virtual outputs differ between operations")
        if doc["file_digest"] != first["file_digest"]:
            raise OpFailed("file digest differs between operations")


def median(values):
    return statistics.median(values) if values else float("nan")


def summarize(name, values, unit):
    if not values:
        return f"  {name}: no samples"
    lo, hi = min(values), max(values)
    return (f"  {name}: median {median(values):.6g} {unit} "
            f"(n={len(values)}, min {lo:.6g}, max {hi:.6g})")


def end_to_end_metrics(plain, setups):
    wall = [d["host"]["wall_s"] for d in plain]
    return {
        "setup_s": ([d["host"]["setup_s"] for d in plain] + setups, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": ([d["cpu_s"] for d in plain], "s"),
        "peak_rss_mib": ([d["peak_rss_mib"] for d in plain], "MiB"),
        "sim_gib_per_host_s": (
            [d["virt"]["bytes"] / GIB / d["host"]["wall_s"] for d in plain],
            "GiB/s"),
    }


def per_layer_metrics(plain, traced):
    def layer(doc, name, key):
        return doc["layers"][name][key]

    def per_op(fn):
        return [fn(d) for d in traced]

    def builds_per_call(d):
        calls = d["ranks"] * d["coll_calls"]
        return layer(d, "node.make_node_comm", "calls") / calls if calls else 0.0

    def other_s(d):
        return (d["host"]["wall_s"] - d["host"]["setup_s"] -
                d["host"]["run_s"] - layer(d, "workloads.collect", "s"))

    def fiber_stacks_mib(d):
        return (d["engine"]["stacks_allocated"] *
                d["engine"]["default_stack_bytes"] / MIB)

    plain_wall = median([d["host"]["wall_s"] for d in plain])
    traced_wall = median([d["host"]["wall_s"] for d in traced])
    plain_rss = median([d["peak_rss_mib"] for d in plain])
    time_cat = {"virt.sync_s": "sync", "virt.io_s": "io",
                "virt.p2p_s": "p2p", "virt.intra_s": "intra"}

    metrics = {
        "node.make_node_comm_s": (
            per_op(lambda d: layer(d, "node.make_node_comm", "s")), "s"),
        "node.make_node_comm_calls": (
            per_op(lambda d: layer(d, "node.make_node_comm", "calls")),
            "count"),
        "node.builds_per_coll_call": (per_op(builds_per_call), "ratio"),
        "sim.run_s": (per_op(lambda d: d["host"]["run_s"]), "s"),
        "sim.self_s": (per_op(lambda d: d["host"]["self_s"]), "s"),
        "sim.events": (per_op(lambda d: d["engine"]["events"]), "count"),
        "sim.events_per_s": (
            [d["engine"]["events_per_s"] for d in plain], "1/s"),
        "sim.peak_queue_depth": (
            per_op(lambda d: d["engine"]["peak_queue_depth"]), "count"),
        "sim.stacks_allocated": (
            per_op(lambda d: d["engine"]["stacks_allocated"]), "count"),
        "mpiio.default_aggregators_s": (
            per_op(lambda d: layer(d, "mpiio.default_aggregators", "s")), "s"),
        "mpiio.default_aggregators_calls": (
            per_op(lambda d: layer(d, "mpiio.default_aggregators", "calls")),
            "count"),
        "mpiio.coll_calls": (per_op(lambda d: d["coll_calls"]), "count"),
        "mpiio.cycles": (per_op(lambda d: d["cycles"]), "count"),
        "mpi.comm_split_calls": (
            per_op(lambda d: layer(d, "mpi.comm_split", "calls")), "count"),
        "core.write_at_all_calls": (
            per_op(lambda d: layer(d, "core.write_at_all", "calls")), "count"),
        "core.read_at_all_calls": (
            per_op(lambda d: layer(d, "core.read_at_all", "calls")), "count"),
        "workloads.fill_s": (
            per_op(lambda d: layer(d, "workloads.fill", "s")), "s"),
        "workloads.verify_store_s": (
            per_op(lambda d: layer(d, "workloads.verify_store", "s")), "s"),
        "workloads.check_buffer_s": (
            per_op(lambda d: layer(d, "workloads.check_buffer", "s")), "s"),
        "workloads.collect_s": (
            per_op(lambda d: layer(d, "workloads.collect", "s")), "s"),
        "mem.fiber_stacks_mib": (per_op(fiber_stacks_mib), "MiB"),
        "mem.store_mib": (per_op(lambda d: d["store_bytes"] / MIB), "MiB"),
        "mem.other_mib": (
            per_op(lambda d: plain_rss - fiber_stacks_mib(d) -
                   d["store_bytes"] / MIB), "MiB"),
        "fs.rpcs": (per_op(lambda d: d["virt"]["fs_rpcs"]), "count"),
        "fs.lock_switches": (
            per_op(lambda d: d["virt"]["fs_lock_switches"]), "count"),
        "virt.elapsed_s": (per_op(lambda d: d["virt"]["elapsed_s"]), "s"),
        "other_s": (per_op(other_s), "s"),
        "trace.overhead_pct": (
            [100.0 * (traced_wall - plain_wall) / plain_wall], "%"),
    }
    for name, cat in time_cat.items():
        metrics[name] = (per_op(lambda d, c=cat: d["virt"]["time"][c]), "s")
    return metrics


def measure(workload, seed, seconds, trace):
    pins = json.loads(PINS.read_text())[workload]
    min_plain, min_traced = MIN_OPS[trace]
    plain, traced, setups, failed = [], [], [], 0
    first = None
    start = time.monotonic()
    longest = 0.0
    # Set-up is short and noisy: sample it more often than full operations.
    for _ in range(0 if trace else SETUP_PROBES):
        try:
            setups.append(run_op(workload, seed, False, True)["setup_s"])
        except (OpFailed, KeyError) as error:
            failed += 1
            log(f"hostbench: set-up probe failed: {error}")
    while True:
        elapsed = time.monotonic() - start
        enough = len(plain) >= min_plain and len(traced) >= min_traced
        if (enough and elapsed >= seconds) or elapsed + longest > RUN_BUDGET_S:
            break
        # A traced run alternates untraced and traced operations.
        is_traced = trace and len(traced) < len(plain)
        op_start = time.monotonic()
        try:
            doc = run_op(workload, seed, is_traced)
            check_op(doc, first, pins, seed)
            first = first or doc
        except OpFailed as error:
            failed += 1
            log(f"hostbench: operation failed: {error}")
            doc = None  # still counts toward the run's length
        (traced if is_traced else plain).append(doc)
        longest = max(longest, time.monotonic() - op_start)

    attempted = len(plain) + len(traced) + (0 if trace else SETUP_PROBES)
    plain = [d for d in plain if d is not None]
    traced = [d for d in traced if d is not None]
    if trace:
        metrics = per_layer_metrics(plain, traced) if plain and traced else {}
    else:
        metrics = end_to_end_metrics(plain, setups) if plain else {}
    log(f"hostbench: {workload} seed={seed} trace={trace}: "
        f"{attempted} operations, {failed} failed "
        f"(failed_share {failed / attempted:.3f}), "
        f"{time.monotonic() - start:.1f} s")
    for name, (values, unit) in metrics.items():
        log(summarize(name, values, unit))
    result = {
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def self_test():
    """A small run measured right after a large one must report its own peak
    RSS. The per-child wait4 rusage does; the process-wide RUSAGE_CHILDREN
    high-water mark, which a single long-lived measuring process would
    read, reports the large run's peak instead."""
    small, large = "selftest-ior-p16", "ior-parcoll-p2048"
    alone = run_op(small, DEFAULT_STORAGE_SEED, traced=False)["peak_rss_mib"]
    big = run_op(large, DEFAULT_STORAGE_SEED, traced=False)["peak_rss_mib"]
    after = run_op(small, DEFAULT_STORAGE_SEED, traced=False)["peak_rss_mib"]
    shared = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / MIB
    ok = after <= alone * 1.10 + 4 and after < big / 4 and shared >= big * 0.99
    print(json.dumps({
        "self_test": "rss-isolation", "passed": ok,
        "small_alone_mib": alone, "large_mib": big,
        "small_after_large_mib": after,
        "rusage_children_high_water_mib": shared}), flush=True)
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_STORAGE_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that peak RSS is measured per operation")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not 0 <= args.seed < 1 << 64:
        parser.error("--seed must be in [0, 2^64)")
    # Children must die with us if the run is interrupted.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    build(traced=bool(args.trace) and not args.self_test)
    if args.self_test:
        return self_test()
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
