"""Benchmark harness for streammon: seeded trace replay through the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load shape: one process, one thread, closed loop. The next event is fed only
after the previous `Monitor.process` call has returned, and replay follows
trace time, never wall-clock time, so the measured rate is the highest rate
the monitor sustains. Each run replays the workload's whole trace through a
fresh monitor, pass after pass, until its measuring time is spent. It
reports throughput and median latency over every event of its untraced
passes, p99 latency over each event's median latency across those passes,
set-up time as the median of ten set-ups made before each pass, and
per-layer figures as medians over traced passes. End-to-end times are
scaled to a reference host speed by probes of the host's speed between
chunks of events and between set-ups (see hostspeed.py); per-layer times are
as measured.

With `--trace 0` the last line of standard output is a JSON object carrying
the end-to-end metrics; with `--trace 1` it carries the per-layer metrics of
passes made with timing shims installed (see tracing.py), alternated with
untraced passes to measure the shims' overhead. Every run checks its
verdicts and writes a results file with its environment under perfbench/_out.
The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SOURCE_DIR = ROOT / "src" / "streammon"
OUT_DIR = BENCH_DIR / "_out"

RESULT_SCHEMA = "perfbench-result/1"
LOAD_SHAPE = (
    "closed loop, one client: one process, one thread; the next event is fed "
    "after the previous Monitor.process returns; replay in trace time"
)
SETUP_WARMUP = 5
#: timed set-up reps before each (traced) pass
SETUP_REPS = 10

END_TO_END_UNITS = {
    "events_per_s": "events/s",
    "event_latency_p50_us": "us",
    "event_latency_p99_us": "us",
    "setup_s": "s",
    "peak_slots": "slots",
    "peak_rss_mb": "MiB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's own source first on the import path; refuse to run
    without it rather than measure some other installed copy."""
    if not (SOURCE_DIR / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SOURCE_DIR}")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import streammon

    if Path(streammon.__file__).resolve().parent != SOURCE_DIR:
        raise SystemExit(f"perfbench: imported streammon from {streammon.__file__}")


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted(SOURCE_DIR.rglob("*.py")):
        digest.update(path.relative_to(SOURCE_DIR).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_sha():
    """HEAD of the checkout when it is a git repository of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(args, source: str) -> dict:
    return {
        "git_sha": git_sha(),
        "source_sha256": source,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "load": LOAD_SHAPE,
    }


def percentile(sorted_values: list, q: float):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, -(-len(sorted_values) * q // 100))
    return sorted_values[int(rank) - 1]


# -- measurement ------------------------------------------------------------------


def measure_setup(workload, reps: int, tracer=None) -> list:
    """Set-up time of each rep: parse + check_types + Monitor(...), at the
    reference host speed of the probes around it. With a tracer, each rep's
    per-layer times as measured instead."""
    samples = []
    probe = hostspeed.time_host_work()
    for _ in range(reps):
        if tracer is not None:
            tracer.reset()
        started = perf_counter_ns()
        workload.setup()
        took = perf_counter_ns() - started
        if tracer is None:
            before, probe = probe, hostspeed.time_host_work()
            samples.append(took * hostspeed.scale(before, probe) / 1e9)
        else:
            samples.append(
                {
                    "parser.parse_s": tracer.total_ns["parser.parse"] / 1e9,
                    "typecheck.check_types_s": tracer.total_ns["typecheck.check_types"]
                    / 1e9,
                    "analysis.analyze_s": tracer.total_ns["analysis.analyze"] / 1e9,
                    "engine.monitor_init_s": tracer.self_ns["engine.monitor_init"]
                    / 1e9,
                }
            )
    return samples


def run_pass(workload, inputs, paths: dict, after_event=None):
    """One closed-loop replay of the whole trace through a fresh monitor."""
    import workloads

    monitor = workload.setup()
    every = workload.probe_every
    if workload.csv:
        with open(paths["out"], "w", encoding="utf-8", newline="") as out:
            result = workloads.replay_csv(monitor, inputs, every, out, after_event)
    else:
        result = workloads.replay(monitor, inputs, every, after_event=after_event)
    return monitor, result


def verdict_digest(workload, result, paths: dict) -> str:
    """sha256 of the verdict stream as JSON lines; on the CSV workload, of
    the file the replay wrote."""
    import workloads

    if workload.csv:
        return hashlib.sha256(Path(paths["out"]).read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for verdict in result.verdicts:
        digest.update(workloads.verdict_line(verdict).encode())
        digest.update(b"\n")
    return digest.hexdigest()


def check_stored_digest(key: str, digest: str) -> list:
    """Compare with the digest an earlier run of the same workload, seed and
    program source recorded in this checkout; record it when there is none."""
    store = OUT_DIR / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    if key in known:
        if known[key] != digest:
            return [f"verdict digest {digest} differs from earlier run's {known[key]}"]
        return []
    known[key] = digest
    scratch = store.with_suffix(".tmp")
    scratch.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(scratch, store)
    return []


def live_instances(monitor) -> int:
    return sum(
        len(rt.instances)
        for rt in monitor.streams.values()
        if rt.tpl is not None and rt.tpl.params
    )


def latency_stats(latencies_ns: list, wall_s: float, raw_wall_s: float, probes_ns: list) -> dict:
    """Throughput and latency percentiles of a set of per-event samples, with
    the wall time as measured and the host-speed probes' median."""
    lat = sorted(latencies_ns)
    p99 = percentile(lat, 99)
    return {
        "events_per_s": len(lat) / wall_s,
        "event_latency_p50_us": percentile(lat, 50) / 1e3,
        "event_latency_p99_us": p99 / 1e3,
        "samples": len(lat),
        "beyond_p99": len(lat) - bisect.bisect_right(lat, p99),
        "wall_s": wall_s,
        "raw_wall_s": raw_wall_s,
        "probe_median_ns": statistics.median(probes_ns),
    }


def pass_stats(result) -> dict:
    return latency_stats(
        result.latencies_ns, result.wall_ns / 1e9, result.raw_wall_ns / 1e9, result.probes_ns
    )


def layer_metrics(tracer, monitor, result, live_peak: int) -> dict:
    """Per-layer metrics of one traced pass."""
    calls, counts = tracer.calls, tracer.counts

    def self_s(name):
        return tracer.self_ns[name] / 1e9

    events = result.attempted
    evaluations = calls["windows.evaluate"]
    kinds = {"output": 0, "trigger": 0, "warning": 0}
    for verdict in result.verdicts:
        kinds[verdict.kind] += 1
    return {
        "analysis.static_total_slots": monitor.report.total,
        "analysis.bound_use": monitor.peak_slots / monitor.report.total,
        "trace.rows": counts["trace.read"],
        "trace.read_s": self_s("trace.read"),
        "cli.verdicts_serialized": counts["cli.serialize"],
        "cli.serialize_s": self_s("cli.serialize"),
        "engine.process.self_s": self_s("engine.process"),
        "engine.fixed_step.calls": calls["engine.fixed_step"],
        "engine.fixed_step.self_s": self_s("engine.fixed_step"),
        "engine.var_step.calls": calls["engine.var_step"],
        "engine.var_step.self_s": self_s("engine.var_step"),
        "engine.triggers.calls": calls["engine.triggers"],
        "engine.triggers.self_s": self_s("engine.triggers"),
        "engine.triggers.fired": counts["engine.triggers"],
        "engine.verdicts.output": kinds["output"],
        "engine.verdicts.trigger": kinds["trigger"],
        "engine.verdicts.warning": kinds["warning"],
        "engine.live_instances_peak": live_peak,
        "windows.register.calls": calls["windows.register"],
        "windows.register_s": self_s("windows.register"),
        "windows.evaluate.calls": evaluations,
        "windows.evaluate_s": self_s("windows.evaluate"),
        "windows.evaluate.panes_merged": counts["windows.evaluate"],
        "windows.slot_count.calls": calls["windows.slot_count"],
        "windows.slot_count_s": self_s("windows.slot_count"),
        "shape.events": events,
        "shape.ticks_per_event": calls["engine.fixed_step"] / events,
        "shape.window_registers_per_event": calls["windows.register"] / events,
        "shape.window_evals_per_event": evaluations / events,
        "shape.panes_per_eval": counts["windows.evaluate"] / evaluations
        if evaluations
        else 0.0,
        "shape.verdicts_per_event": len(result.verdicts) / events,
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its naming convention."""
    if name.endswith("_s"):
        return "s"
    if "_per_" in name or name in ("analysis.bound_use", "tracing_overhead"):
        return "ratio"
    if name == "analysis.static_total_slots":
        return "slots"
    return "count"


def median_dict(samples: list) -> dict:
    """Per key, the lower median: always a measured value, so counts stay
    whole."""
    return {key: statistics.median_low(s[key] for s in samples) for key in samples[0]}


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    import workloads
    from tracing import Tracer

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        raise SystemExit(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose one of {', '.join(workloads.WORKLOADS)}"
        )
    if args.seconds <= 0:
        raise SystemExit("perfbench: --seconds must be positive")
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload.name}-seed{args.seed}"
    paths = {"csv": OUT_DIR / f"{stem}.csv", "out": OUT_DIR / f"{stem}-out.jsonl"}
    inputs, expected = workloads.make_inputs(workload.name, args.seed, str(paths["csv"]))
    source = source_sha256()
    tracer = Tracer() if args.trace else None

    deadline = perf_counter() + args.seconds
    for _ in range(SETUP_WARMUP):
        workload.setup()
    setup_samples = []
    problems: list[str] = []
    digests, peaks, plain, traced, layers = set(), set(), [], [], []
    untraced_latencies: list[list] = []  # per untraced pass, per event
    untraced_probes: list[int] = []
    attempted = failed = 0
    while True:
        # a traced run alternates untraced and traced passes
        traced_pass = tracer is not None and len(plain) > len(traced)
        pass_started = perf_counter()
        # set-up reps are spread over the run so that they see the same
        # machine conditions as the passes
        if tracer is None:
            setup_samples += measure_setup(workload, SETUP_REPS)
        elif traced_pass:
            with tracer.installed():
                setup_samples += measure_setup(workload, SETUP_REPS, tracer)
        if traced_pass:
            live_peak = [0]

            def note_live(monitor):
                live_peak[0] = max(live_peak[0], live_instances(monitor))

            tracer.reset()
            with tracer.installed():
                monitor, result = run_pass(workload, inputs, paths, note_live)
            layers.append(layer_metrics(tracer, monitor, result, live_peak[0]))
            traced.append(pass_stats(result))
        else:
            monitor, result = run_pass(workload, inputs, paths)
            if not plain:
                # the peak of one pass, before pooled samples grow with the
                # number of passes the host's speed allows
                peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            plain.append(pass_stats(result))
            untraced_latencies.append(result.latencies_ns)
            untraced_probes += result.probes_ns
        pass_took = perf_counter() - pass_started
        attempted += result.attempted
        failed += result.failed
        digests.add(verdict_digest(workload, result, paths))
        peaks.add(monitor.peak_slots)
        if monitor.peak_slots > monitor.report.total:
            problems.append(
                f"peak_slots {monitor.peak_slots} exceeds the static bound "
                f"{monitor.report.total}"
            )
        if expected is not None:
            fired = workloads.fired_triggers(result.verdicts)
            if fired != expected:
                problems.append(
                    f"triggers differ from the recount: {len(fired - expected)} "
                    f"unexpected, {len(expected - fired)} missing"
                )
        static_total = monitor.report.total
        del monitor, result
        gc.collect()
        enough = tracer is None or (plain and traced)
        if enough and perf_counter() + pass_took > deadline:
            break

    problems = list(dict.fromkeys(problems))  # one line per distinct problem
    if len(digests) != 1:
        problems.append(f"verdict digests differ between passes: {sorted(digests)}")
    if len(peaks) != 1:
        problems.append(f"peak_slots differ between passes: {sorted(peaks)}")
    digest = min(digests)
    workload_source = hashlib.sha256((BENCH_DIR / "workloads.py").read_bytes()).hexdigest()
    problems += check_stored_digest(
        f"{workload.name} seed={args.seed} source={source} workloads={workload_source}",
        digest,
    )

    # Throughput and p50 are taken over every event of the untraced passes.
    # p99 is taken over each event's median latency across those passes:
    # every pass replays the same events, the host's jitter lands on other
    # events in each pass and makes up most of a single pass's top 1%, while
    # an event the program makes slow is slow in every pass.
    run_stats = latency_stats(
        [ns for lat in untraced_latencies for ns in lat],
        sum(p["wall_s"] for p in plain),
        sum(p["raw_wall_s"] for p in plain),
        untraced_probes,
    )
    typical = sorted(statistics.median(ns) for ns in zip(*untraced_latencies))
    typical_p99 = percentile(typical, 99)
    tail = {
        "passes": len(untraced_latencies),
        "events": len(typical),
        "beyond_p99": len(typical) - bisect.bisect_right(typical, typical_p99),
    }
    if tracer is None:
        values = {
            "events_per_s": run_stats["events_per_s"],
            "event_latency_p50_us": run_stats["event_latency_p50_us"],
            "event_latency_p99_us": typical_p99 / 1e3,
            "setup_s": statistics.median(setup_samples),
            "peak_slots": max(peaks),
            "peak_rss_mb": peak_rss_kib / 1024,
        }
        units = END_TO_END_UNITS
    else:
        values = median_dict(setup_samples) | median_dict(layers)
        values["tracing_overhead"] = statistics.median(
            p["wall_s"] for p in traced
        ) / statistics.median(p["wall_s"] for p in plain)
        units = {name: unit_of(name) for name in values}
    metrics = {name: {"value": values[name], "unit": units[name]} for name in units}

    record = {
        "schema": RESULT_SCHEMA,
        "workload": workload.name,
        "why": workload.why,
        "env": environment(args, source),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "verdict_digest": digest,
        "static_total_slots": static_total,
        "untraced_events": run_stats,
        "p99_basis": tail,
        "passes": {"untraced": plain, "traced": traced},
        "setup_reps": len(setup_samples),
        "metrics": metrics,
    }
    (OUT_DIR / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True)
    )

    for name, metric in metrics.items():
        print(f"{workload.name:15s} {name:36s} {metric['value']:>16.6g} {metric['unit']}")
    print(
        f"{workload.name:15s} passes={len(plain)}+{len(traced)} traced "
        f"latency_samples={run_stats['samples']} "
        f"p99_events={tail['events']} beyond_p99={tail['beyond_p99']} "
        f"failed={failed}/{attempted} "
        f"digest={digest[:16]} problems={problems or 'none'}"
    )
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
