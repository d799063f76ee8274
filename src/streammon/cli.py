"""Command-line interface.

    streammon analyze <spec> [--json] [--pane-divisor N] [--max-instances s=N]
    streammon monitor <spec> <trace.csv> --mode fixed|variable
              [--frequency 1Hz] [--allow-unbounded] [--pane-divisor N]
              [--max-instances s=N]
    streammon gen pid|fleet --seed N -o <file> [scenario options]

Exit codes: 0 success, 1 parse/type/trace/I-O errors, 2 unbounded-memory
verdict (analyze) or refusal to monitor without --allow-unbounded.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import scenarios, trace
from .analysis import analyze
from .diagnostics import (
    AnalysisRefusal,
    SpecError,
    format_diagnostics,
)
from .engine import Monitor
from .parser import parse, parse_frequency
from .typecheck import check_types


def _load_spec(path: str):
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    return check_types(parse(text))


def _instance_bounds(pairs: list[str]) -> dict[str, int]:
    bounds = {}
    for pair in pairs:
        name, _, value = pair.partition("=")
        if not name or not value:
            raise ValueError(f"expected <stream>=<count>, got {pair!r}")
        bounds[name] = int(value)
    return bounds


def cmd_analyze(args) -> int:
    tspec = _load_spec(args.spec)
    if tspec is None:
        return 1
    adg, report = analyze(
        tspec, args.pane_divisor, _instance_bounds(args.max_instances)
    )
    if args.json:
        print(json.dumps(report.to_json_dict(adg), sort_keys=True))
    else:
        print(report.render_text(adg))
    return 0 if report.bounded else 2


def cmd_monitor(args) -> int:
    """Replay the trace through a monitor of the spec and write each verdict
    to standard output as one JSON object per line, keys sorted: ts, kind,
    stream, params, value and message. The lines are strict JSON: a NaN or
    infinite value or parameter is written as the string "NaN", "Infinity"
    or "-Infinity", and null stands for no value. A summary line goes to
    standard error."""
    tspec = _load_spec(args.spec)
    if tspec is None:
        return 1
    frequency = None
    if args.frequency is not None:
        frequency = parse_frequency(args.frequency)
    if args.mode == "fixed" and frequency is None:
        print("error: --mode fixed needs --frequency", file=sys.stderr)
        return 1
    if args.mode == "variable" and frequency is not None:
        print("error: --frequency only applies to --mode fixed", file=sys.stderr)
        return 1
    monitor = Monitor(
        tspec,
        mode=args.mode,
        frequency=frequency,
        pane_divisor=args.pane_divisor,
        instance_bounds=_instance_bounds(args.max_instances),
        allow_unbounded=args.allow_unbounded,
    )
    out = sys.stdout
    for verdict in monitor.run(trace.read_trace(args.trace, tspec)):
        out.write(json.dumps(verdict.to_json_dict(), sort_keys=True))
        out.write("\n")
    print(
        f"events={monitor.events_processed} "
        f"verdicts={monitor.verdicts_emitted} "
        f"peak_slots={monitor.peak_slots}",
        file=sys.stderr,
    )
    return 0


def cmd_gen(args) -> int:
    try:
        if args.scenario == "pid":
            cfg = scenarios.PidConfig(
                seed=args.seed,
                duration_s=args.duration,
                rate_hz=args.rate,
                step_at=args.step_at,
                step_until=args.step_until,
                disturbance=args.disturbance,
                noise=args.noise,
            )
            header, rows = scenarios.PID_HEADER, scenarios.generate_pid(cfg)
        else:
            cfg = scenarios.FleetConfig(
                seed=args.seed,
                cars=args.cars,
                events=args.events,
                duration_s=args.duration,
                misbehavior=args.misbehavior,
                force_car=args.force_car,
                force_pickups=args.force_pickups,
                retire_car=args.retire_car,
                retire_at=args.retire_at,
            )
            header, rows = scenarios.FLEET_HEADER, scenarios.generate_fleet(cfg)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    trace.write_trace(args.output, header, rows)
    print(f"wrote {len(rows)} rows to {args.output}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streammon",
        description="Analyze stream-monitoring specifications and replay "
        "them over event traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser("analyze", help="static rate and memory analysis")
    p_analyze.add_argument("spec")
    p_analyze.add_argument("--json", action="store_true")
    p_analyze.add_argument("--pane-divisor", type=int, default=256)
    p_analyze.add_argument(
        "--max-instances", action="append", default=[], metavar="STREAM=N"
    )
    p_analyze.set_defaults(func=cmd_analyze)

    p_mon = sub.add_parser("monitor", help="replay a trace and emit verdicts")
    p_mon.add_argument("spec")
    p_mon.add_argument("trace")
    p_mon.add_argument("--mode", choices=("fixed", "variable"), required=True)
    p_mon.add_argument("--frequency", help="clock for unclocked outputs, e.g. 1Hz")
    p_mon.add_argument("--allow-unbounded", action="store_true")
    p_mon.add_argument("--pane-divisor", type=int, default=256)
    p_mon.add_argument(
        "--max-instances", action="append", default=[], metavar="STREAM=N"
    )
    p_mon.set_defaults(func=cmd_monitor)

    p_gen = sub.add_parser("gen", help="generate a synthetic scenario trace")
    gen_sub = p_gen.add_subparsers(dest="scenario", required=True)

    p_pid = gen_sub.add_parser("pid", help="controller temperature/reference trace")
    p_pid.add_argument("--seed", type=int, default=1)
    p_pid.add_argument("-o", "--output", required=True)
    p_pid.add_argument("--duration", type=float, default=100.0)
    p_pid.add_argument("--rate", type=float, default=4.0)
    p_pid.add_argument("--step-at", type=float, default=30.0)
    p_pid.add_argument("--step-until", type=float, default=70.0)
    p_pid.add_argument("--disturbance", type=float, default=0.05)
    p_pid.add_argument("--noise", type=float, default=0.002)
    p_pid.set_defaults(func=cmd_gen)

    p_fleet = gen_sub.add_parser("fleet", help="car fleet pick-up trace")
    p_fleet.add_argument("--seed", type=int, default=1)
    p_fleet.add_argument("-o", "--output", required=True)
    p_fleet.add_argument("--cars", type=int, default=50)
    p_fleet.add_argument("--events", type=int, default=600)
    p_fleet.add_argument("--duration", type=float, default=4 * 3600.0)
    p_fleet.add_argument("--misbehavior", type=float, default=0.0)
    p_fleet.add_argument("--force-car", type=int, default=None)
    p_fleet.add_argument("--force-pickups", type=int, default=6)
    p_fleet.add_argument("--retire-car", type=int, default=None)
    p_fleet.add_argument("--retire-at", type=float, default=None)
    p_fleet.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AnalysisRefusal as exc:
        print(format_diagnostics(exc.diagnostics), file=sys.stderr)
        print(
            "refusing to monitor an unbounded specification; pass "
            "--allow-unbounded to run anyway",
            file=sys.stderr,
        )
        return 2
    except SpecError as exc:
        print(format_diagnostics(exc.diagnostics), file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
