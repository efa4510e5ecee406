"""Command line front end: run, analyze, validate."""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys

from .analytic import (
    StepScenario,
    initial_period,
    is_stable,
    poles,
    queue_trajectory,
    step_response_closed_form,
    step_response_recurrence,
)
from .config import ConfigError, ConfigSyntaxError, load_config
from .experiment import run_experiment
from .timeseries import CsvSink

STABILITY_MSG = "gains outside stability region 0 < K_I < 2(1 - K)"


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="foqsim",
        description="Feedback output-queued switch simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a configured experiment")
    p_run.add_argument("config", help="experiment config file")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    p_run.add_argument("--out", default=None,
                       help="write the CSV here instead of stdout")

    p_an = sub.add_parser("analyze",
                          help="closed-form step response of the controller")
    p_an.add_argument("--k", type=float, required=True,
                      help="proportional gain K")
    p_an.add_argument("--ki", type=float, required=True,
                      help="integral gain K_I")
    p_an.add_argument("--lambda", dest="lam", type=float, required=True,
                      help="offered load, line-rate units")
    p_an.add_argument("--ropt", type=float, required=True,
                      help="target rate, line-rate units")
    p_an.add_argument("--sc", type=float, required=True,
                      help="fabric capacity, line-rate units")
    p_an.add_argument("--horizon", type=int, default=200,
                      help="number of intervals to emit")
    p_an.add_argument("--interval", type=float, default=1.0,
                      help="measurement interval in seconds")
    p_an.add_argument("--recurrence", action="store_true",
                      help="also iterate the exact recurrence (works for "
                           "unstable gains too)")
    p_an.add_argument("--poles-only", action="store_true",
                      help="print the poles and stability verdict only")
    p_an.add_argument("--out", default=None,
                      help="write the CSV here instead of stdout")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config", help="experiment config file")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", newline="") as fh:
            fh.write(text)


def _load(path: str, violations):
    """The config at path, or None and the exit code after reporting why:
    ConfigError violations to the stream `violations`, the rest to stderr."""
    try:
        return load_config(path), 0
    except ConfigSyntaxError as err:
        for v in err.violations:
            print(f"{path}: {v}", file=sys.stderr)
        return None, 2
    except ConfigError as err:
        for v in err.violations:
            print(f"{path}: {v}", file=violations)
        return None, 1
    except OSError as err:
        print(f"{path}: {err.strerror}", file=sys.stderr)
        return None, 2


def _cmd_run(args) -> int:
    config, code = _load(args.config, sys.stderr)
    if config is None:
        return code
    if args.out is None:
        run_experiment(config, seed=args.seed, sink=CsvSink(sys.stdout))
    else:
        with open(args.out, "w", newline="") as fh:
            run_experiment(config, seed=args.seed, sink=CsvSink(fh))
    return 0


def _cmd_analyze(args) -> int:
    numbers = (("--k", args.k), ("--ki", args.ki), ("--lambda", args.lam),
               ("--ropt", args.ropt), ("--sc", args.sc),
               ("--interval", args.interval))
    bad = [flag for flag, value in numbers if not math.isfinite(value)]
    try:
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        if args.horizon < 1 and not args.poles_only:
            raise ValueError("--horizon must be at least 1")
        scenario = StepScenario(arrival_rate=args.lam, desired_rate=args.ropt,
                                fabric_capacity=args.sc, gain_p=args.k,
                                gain_i=args.ki, interval=args.interval)
        z1, z2 = poles(args.k, args.ki)
    except ValueError as err:
        print(f"analyze: {err}", file=sys.stderr)
        return 2
    stable = is_stable(args.k, args.ki)
    if args.poles_only:
        _emit(f"z1={z1!r} z2={z2!r} stable={stable}\n", args.out)
        return 0
    if not stable and not args.recurrence:
        print(f"analyze: {STABILITY_MSG}", file=sys.stderr)
        return 1

    horizon = args.horizon
    closed = step_response_closed_form(scenario, horizon) if stable else None
    rec = (step_response_recurrence(scenario, horizon)
           if args.recurrence or not stable else None)
    queue = queue_trajectory(scenario, horizon)

    buf = io.StringIO()
    if closed is not None:
        buf.write(f"# z1={z1!r} z2={z2!r} n0={closed.n0} a1={closed.coeff1!r}"
                  f" a2={closed.coeff2!r} d={closed.rate_gap!r}\n")
    else:
        n0, _s, _peak = initial_period(scenario)
        buf.write(f"# z1={z1!r} z2={z2!r} n0={n0} a1=nan a2=nan d=nan\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("n", "rho_closed", "rho_recurrence", "q_n"))
    for n in range(horizon):
        writer.writerow((
            n,
            repr(closed.drop_sequence[n]) if closed is not None else "",
            repr(rec[n]) if rec is not None else "",
            repr(queue[n]),
        ))
    _emit(buf.getvalue(), args.out)
    return 0


def _cmd_validate(args) -> int:
    config, code = _load(args.config, sys.stdout)
    if config is not None:
        print("ok")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "analyze":
        return _cmd_analyze(args)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
