#!/usr/bin/env python3
"""The repository benchmark: three RunSpec workloads through sim::run.

Run from the repository root:

    python3 perfbench/run.py --workload compress-sharded --seed 1 \
        --seconds 40 --trace 0

builds perfbench/ (the sops library plus perfbench_harness) into
.bench_build/perfbench in Release, runs the workload, checks its outputs
and prints the metrics.  --trace 0 reports the end-to-end metrics of
untraced runs; --trace 1 runs the traced passes and reports the per-layer
metrics, writing a Chrome trace-event file next to the result.  The last
line of stdout is the result object; everything before it is for people.

    python3 perfbench/run.py --selftest   # stats and span arithmetic
    python3 perfbench/run.py --smoke      # every workload, tiny, all checks
    python3 perfbench/run.py --workload compress-sharded --spread 1,2,3,4,5
        # one run per seed; each metric's median and quartile spread

Workload specs, why each was chosen, the layers each exercises and
bypasses, and the per-layer -> end-to-end metric map live in
perfbench/workloads.json.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
OUT_DIR = ROOT / ".bench_build" / "perfbench-out"
HARNESS = BUILD_DIR / "perfbench_harness"

BUILD_TIMEOUT_S = 800
# The traced passes and the repetitions of a run end well within --seconds
# plus this, and that within the 180 seconds a run may take; a run past it
# is killed and reports no result.
HARNESS_GRACE_S = 120
# A run is marked noisy when everything but the benchmark — other
# processes, and CPU time the hypervisor stole from this machine — used
# more than this many CPUs on average while it ran.
NOISY_CPUS = 0.25

END_TO_END_UNITS = {
    "events_per_s": "1/s",
    "wall_s": "s",
    "setup_s": "s",
    "time_to_alpha_s": "s",
    "peak_rss_mib": "MiB",
}

PER_LAYER_UNITS = {
    "sim.start_s": "s",
    "sim.advance_s": "s",
    "sim.advance_calls": "count",
    "sim.sample_s": "s",
    "sim.samples": "count",
    "sim.sink_s": "s",
    "sim.sink_bytes": "B",
    "system.snapshot_encode_s": "s",
    "system.snapshot_file_s": "s",
    "system.snapshot_bytes": "B",
    "system.snapshot_writes": "count",
    "core.engine.steps_per_s": "1/s",
    "core.engine.accept_frac": "frac",
    "core.engine.occupied_frac": "frac",
    "core.engine.gap_reject_frac": "frac",
    "core.engine.property_reject_frac": "frac",
    "core.engine.filter_reject_frac": "frac",
    "core.sharded.events_per_s": "1/s",
    "core.sharded.accept_frac": "frac",
    "core.sharded.sweep_frac": "frac",
    "core.sharded.epoch_target": "count",
    "core.parallel_for_s.p50": "s",
    "core.parallel_for_s.p90": "s",
    "core.parallel_for_share": "frac",
    "rng.fill_epoch_s.p50": "s",
    "rng.fill_epoch_s.p90": "s",
    "rng.draws_per_s": "1/s",
    "util.sort_events_s.p50": "s",
    "util.sort_events_s.p90": "s",
    "util.events_sorted_per_s": "1/s",
    "amoebot.activations_per_s": "1/s",
    "amoebot.sweep_frac": "frac",
    "amoebot.epoch_target": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


# -- arithmetic (covered by perfbench/test_run.py) --------------------------


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def relative_spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def percentile(values, p):
    """Linear interpolation between the closest ranks (p in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * p / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def span_times(events):
    """Per span name: (count, total, self) seconds from Chrome trace events
    whose args carry the span id and its parent's id.  Self time is the
    span's duration minus the durations of its direct children."""
    child_time = {}
    for event in events:
        parent = event["args"]["parent"]
        child_time[parent] = child_time.get(parent, 0.0) + event["dur"]
    out = {}
    for event in events:
        count, total, self_time = out.get(event["name"], (0, 0.0, 0.0))
        own = event["dur"] - child_time.get(event["args"]["id"], 0.0)
        out[event["name"]] = (
            count + 1,
            total + event["dur"] / 1e6,
            self_time + own / 1e6,
        )
    return out


# -- build and stamp ---------------------------------------------------------


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no sops source tree at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    log = BUILD_DIR.parent / "perfbench-build.log"
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    with open(log, "w") as out:
        for cmd in steps:
            done = subprocess.run(cmd, cwd=ROOT, stdout=out,
                                  stderr=subprocess.STDOUT,
                                  timeout=BUILD_TIMEOUT_S)
            if done.returncode != 0:
                sys.stderr.write(log.read_text()[-4000:])
                raise BenchError(f"build failed: {' '.join(cmd)}")


def harness(*args, timeout):
    done = subprocess.run([str(HARNESS), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=timeout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise BenchError(f"harness exited with {done.returncode}")
    return [json.loads(line) for line in done.stdout.splitlines()
            if line.startswith("{")]


def git_stamp():
    if shutil.which("git") is None or not (ROOT / ".git").exists():
        return None, None
    sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                         capture_output=True, text=True)
    status = subprocess.run(["git", "status", "--porcelain",
                             "--untracked-files=no"], cwd=ROOT,
                            capture_output=True, text=True)
    if sha.returncode != 0 or status.returncode != 0:
        return None, None
    return sha.stdout.strip(), bool(status.stdout.strip())


def cpu_seconds():
    """(busy + stolen CPU seconds of the whole machine, CPU seconds of this
    process and its children) — the difference is everyone else's load."""
    fields = [int(x) for x in
              Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = fields[:8]
    machine = (user + nice + system + irq + softirq + steal) / os.sysconf(
        "SC_CLK_TCK")
    own = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        own += usage.ru_utime + usage.ru_stime
    return machine, own


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def host_stamp(info):
    sha, dirty = git_stamp()
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "compiler": info["compiler"],
        "build_type": info["build_type"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
    }


# -- workloads ---------------------------------------------------------------


def load_workloads():
    return json.loads((HERE / "workloads.json").read_text())["workloads"]


def spec_text(name, workload, smoke):
    """The workload's RunSpec text, with smoke overrides and, for durable
    workloads, sink paths inside the checkout."""
    keys = dict(kv.split("=", 1) for kv in workload["spec"].split())
    if smoke:
        keys.update(kv.split("=", 1) for kv in workload["smoke"].split())
    if workload["durable"]:
        stem = OUT_DIR.relative_to(ROOT) / name
        keys["jsonl"] = f"{stem}.jsonl"
        keys["snapshot-file"] = f"{stem}.snap"
    return " ".join(f"{k}={v}" for k, v in keys.items())


def aggregate_measure(lines):
    """Per seed of the round, the median over its runs; then the mean over
    the seeds (a workload that runs one seed reports its median).  Set-up
    passes (runs stopped at their first sample) add to the samples of
    setup_s, and of time_to_alpha_s where that first sample is already
    alpha-compressed.  The warm-up run is checked but not timed."""
    reps = [line for line in lines if line["kind"] == "rep"]
    warmed = [r for r in reps if r["pass"] != "warmup"]
    timed = [r for r in reps if r["pass"] == "measure"]
    full = [r for r in reps if r["pass"] != "setup"]
    end = next(line for line in lines if line["kind"] == "end")
    by_seed = {}
    for r in timed:
        by_seed.setdefault(r["seed"], []).append(r)
    attempted = sum(r["ops"] for r in reps)
    failures = [f for r in reps for f in r["failed"]]
    finals = sorted({(r["seed"], r["steps"], r["edges"], r["perimeter"])
                     for r in full})
    detail = {"wall_s": [r["wall_s"] for r in timed], "finals": finals}
    if not timed:
        # The warm-up ran nothing (a spec or set-up error); its failure is
        # the result.
        return {}, attempted, failures or ["no timed run"], detail
    walls = [median([r["wall_s"] for r in runs]) for runs in by_seed.values()]
    metrics = {
        "setup_s": median([r["setup_s"] for r in warmed]),
        "peak_rss_mib": end["peak_rss_mib"],
        "wall_s": statistics.fmean(walls),
        "events_per_s": (sum(runs[0]["steps"] for runs in by_seed.values()) /
                         sum(walls)),
    }
    if all(r["time_to_alpha_s"] is not None for r in timed):
        metrics["time_to_alpha_s"] = statistics.fmean(
            median([r["time_to_alpha_s"] for r in warmed
                    if r["seed"] == seed and r["time_to_alpha_s"] is not None])
            for seed in by_seed)
    return metrics, attempted, failures, detail


def aggregate_trace(lines):
    reps = [line for line in lines if line["kind"] == "rep"]
    t = next(line for line in lines if line["kind"] == "trace")
    attempted = t["ops"] + sum(r["ops"] for r in reps)
    failures = t["failed"] + [f for r in reps for f in r["failed"]]
    detail = {
        "trace_file": t["trace_file"],
        "finals": {k: t[k] for k in ("untraced_final", "facade_final",
                                     "direct_final")},
    }
    trace_path = ROOT / t["trace_file"]
    if not trace_path.is_file():
        return {}, attempted, failures or ["no trace file"], detail
    events = json.loads(trace_path.read_text())["traceEvents"]
    spans = span_times(events)

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    steps = t["steps"]
    executor = t["executor"]

    def frac(count):
        return count / steps if steps else 0.0

    def rate(span):
        return steps / total(span) if total(span) > 0 else 0.0

    m = {
        "sim.start_s": total("sim.start"),
        "sim.advance_s": total("sim.advance"),
        "sim.advance_calls": calls("sim.advance"),
        "sim.sample_s": total("sim.sample"),
        "sim.samples": calls("sim.sample"),
        "sim.sink_s": total("sim.sink"),
        "sim.sink_bytes": t["sink_bytes"],
        "system.snapshot_encode_s": total("system.snapshot_encode"),
        "system.snapshot_file_s": total("system.snapshot_file"),
        "system.snapshot_bytes": t["snapshot_bytes"],
        "system.snapshot_writes": t["snapshot_writes"],
        "trace.overhead_s": t["traced_wall_s"] - t["untraced_wall_s"],
    }
    engine = executor == "engine"
    sharded = executor == "sharded"
    amoebot = executor == "amoebot"
    m["core.engine.steps_per_s"] = rate("core.engine.run") if engine else 0.0
    for key, count in (("accept_frac", "accepted"),
                       ("occupied_frac", "target_occupied"),
                       ("gap_reject_frac", "rejected_gap"),
                       ("property_reject_frac", "rejected_property"),
                       ("filter_reject_frac", "rejected_filter")):
        m[f"core.engine.{key}"] = frac(t[count]) if engine else 0.0
    m["core.sharded.events_per_s"] = (
        rate("core.sharded.runAtLeast") if sharded else 0.0)
    m["core.sharded.accept_frac"] = frac(t["accepted"]) if sharded else 0.0
    m["core.sharded.sweep_frac"] = frac(t["sweep_events"]) if sharded else 0.0
    m["core.sharded.epoch_target"] = t["epoch_target"] if sharded else 0
    m["amoebot.activations_per_s"] = (
        rate("amoebot.runAtLeast") if amoebot else 0.0)
    m["amoebot.sweep_frac"] = frac(t["sweep_events"]) if amoebot else 0.0
    m["amoebot.epoch_target"] = t["epoch_target"] if amoebot else 0
    # The epoch probes exist only for the epoch runners; a workload on the
    # sequential engine bypasses these layers and reports 0.
    probes = "fill_epoch_s" in t
    for key, samples in (("rng.fill_epoch_s", "fill_epoch_s"),
                         ("util.sort_events_s", "sort_events_s"),
                         ("core.parallel_for_s", "parallel_for_s")):
        for p in (50, 90):
            m[f"{key}.p{p}"] = percentile(t[samples], p) if probes else 0.0
    m["rng.draws_per_s"] = (
        t["draws"] / sum(t["fill_epoch_s"]) if probes else 0.0)
    m["util.events_sorted_per_s"] = (
        t["events_sorted"] / sum(t["sort_events_s"]) if probes else 0.0)
    epochs = steps / t["epoch_target"] if probes and t["epoch_target"] else 0
    m["core.parallel_for_share"] = (
        m["core.parallel_for_s.p50"] * epochs / t["untraced_wall_s"])

    detail["spans"] = {name: {"count": c, "total_s": tot, "self_s": own}
                       for name, (c, tot, own) in sorted(spans.items())}
    return m, attempted, failures, detail


def run_workload(name, workload, seed, seconds, traced, smoke=False):
    """Runs one workload; returns (result, record) — result is the object
    for the last stdout line, record everything worth keeping."""
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    spec = spec_text(name, workload, smoke)
    args = ["--spec", spec, "--seed", str(seed)]
    if workload["stop_at_alpha"]:
        args.append("--stop-at-alpha")
    load_before = os.getloadavg()[0]
    machine_before, own_before = cpu_seconds()
    start = time.monotonic()
    if traced:
        trace_file = OUT_DIR / f"{name}-seed{seed}.trace.json"
        trace_file.unlink(missing_ok=True)
        lines = harness("trace", *args, "--trace-file",
                        str(trace_file.relative_to(ROOT)),
                        timeout=seconds + HARNESS_GRACE_S)
        metrics, attempted, failures, detail = aggregate_trace(lines)
        units = PER_LAYER_UNITS
    else:
        lines = harness("measure", *args, "--seconds", str(seconds),
                        timeout=seconds + HARNESS_GRACE_S)
        metrics, attempted, failures, detail = aggregate_measure(lines)
        units = END_TO_END_UNITS
    machine_after, own_after = cpu_seconds()
    other_cpus = ((machine_after - machine_before) -
                  (own_after - own_before)) / (time.monotonic() - start)
    load_after = os.getloadavg()[0]

    missing = [k for k in units if metrics.get(k) is None]
    failures = failures + [f"metric {k} not measured" for k in missing]
    attempted = max(attempted, len(failures), 1)
    failed = min(len(failures), attempted)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items() if k not in missing},
    }
    record = {
        "workload": name,
        "seed": seed,
        "traced": traced,
        "spec": spec,
        "load_before": load_before,
        "load_after": load_after,
        "other_cpus": other_cpus,
        "noisy": other_cpus > NOISY_CPUS,
        "failed_op_frac": failed / attempted,
        "failures": failures,
        **detail,
    }
    return result, record


def print_report(stamp, record, result):
    print(f"perfbench {record['workload']} seed={record['seed']} "
          f"trace={int(record['traced'])}")
    print(f"  spec: {record['spec']}")
    print("  host: " + json.dumps(stamp, sort_keys=True))
    print(f"  load average: {record['load_before']:.2f} before, "
          f"{record['load_after']:.2f} after; other work and steal used "
          f"{record['other_cpus']:.2f} CPUs during the run"
          + ("  ** NOISY **" if record["noisy"] else ""))
    for name, m in result["metrics"].items():
        label = " (computed)" if name == "core.parallel_for_share" else ""
        print(f"  {name:32s} {m['value']:>16.6g} {m['unit']}{label}")
    print(f"  {'failed_op_frac':32s} {record['failed_op_frac']:>16.6g} "
          f"({result['failed']} of {result['attempted']} operations)")
    for failure in record["failures"]:
        print(f"  FAILED: {failure}")
    finals = record["finals"]
    print(f"  final (steps, edges, perimeter): {json.dumps(finals)}")
    if record["traced"]:
        print(f"  trace: {record.get('trace_file')}")
        for name, s in record.get("spans", {}).items():
            print(f"    {name:28s} n={s['count']:<6d} "
                  f"total={s['total_s']:.6f}s self={s['self_s']:.6f}s")


# -- entry points ------------------------------------------------------------


def run_selftest():
    import unittest
    suite = unittest.defaultTestLoader.discover(str(HERE), pattern="test_*.py")
    ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if ok else 1


def run_smoke():
    """Every workload at a tiny size, both modes, through every check."""
    build()
    bad = 0
    for name, workload in load_workloads().items():
        for traced in (False, True):
            result, record = run_workload(name, workload, 1, 0, traced,
                                          smoke=True)
            status = "ok" if result["correct"] else "FAILED"
            print(f"smoke {name} trace={int(traced)}: {status} "
                  f"({result['attempted']} operations) "
                  f"{json.dumps(record['finals'])}")
            for failure in record["failures"]:
                print(f"  FAILED: {failure}")
            bad += not result["correct"]
    return 1 if bad else 0


def run_spread(name, seeds, seconds):
    """The benchmark's steadiness check on one workload: an untraced run on
    each seed, then per end-to-end metric the median and the interquartile
    distance as a share of it, against the metric's bound in
    BENCHMARK.json."""
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    workload = load_workloads()[name]
    build()
    values = {}
    bad = 0
    for seed in seeds:
        result, record = run_workload(name, workload, seed, seconds, False)
        print(f"spread {name} seed={seed}: "
              f"{'ok' if result['correct'] else 'FAILED'}"
              f"{'  NOISY' if record['noisy'] else ''}", flush=True)
        bad += not result["correct"]
        for metric, m in result["metrics"].items():
            values.setdefault(metric, []).append(m["value"])
    for metric, vs in values.items():
        q1, q2, q3 = quartiles(vs)
        spread = relative_spread(vs)
        within = spread <= bounds[metric]
        print(f"  {metric:16s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
              f"spread={spread:.4f} bound={bounds[metric]}"
              f"{'' if within else '  ** OVER BOUND **'}")
        bad += not within
    out = OUT_DIR / f"spread-{name}-seeds{seeds[0]}-{seeds[-1]}.json"
    out.write_text(json.dumps({"seeds": seeds, "values": values}, indent=1))
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--spread", metavar="SEEDS",
                        help="comma-separated seeds: run --workload on each "
                             "and report every metric's spread")
    args = parser.parse_args()
    try:
        if args.selftest:
            return run_selftest()
        if args.smoke:
            return run_smoke()
        workloads = load_workloads()
        if args.workload not in workloads:
            parser.error(f"--workload must be one of {', '.join(workloads)}")
        if args.seed < 0:
            parser.error("--seed must be non-negative")
        if args.spread:
            seeds = [int(seed) for seed in args.spread.split(",")]
            if len(seeds) < 2:
                parser.error("--spread needs at least two seeds")
            return run_spread(args.workload, seeds, args.seconds)
        build()
        stamp = host_stamp(harness("info", timeout=HARNESS_GRACE_S)[0])
        result, record = run_workload(args.workload, workloads[args.workload],
                                      args.seed, args.seconds,
                                      bool(args.trace))
    except (BenchError, subprocess.TimeoutExpired, OSError,
            json.JSONDecodeError, KeyError, StopIteration) as error:
        print(f"perfbench: {error!r}", file=sys.stderr)
        return 1
    print_report(stamp, record, result)
    out = OUT_DIR / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     ".json")
    out.write_text(json.dumps({"host": stamp, **record, "result": result},
                              indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
