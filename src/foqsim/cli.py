"""Command line front end: run, analyze, validate."""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from itertools import chain, repeat

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
from .experiment import Experiment
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


def _output(out: str | None):
    """A context over stdout, or over the file at out opened for writing
    and closed after; None after reporting why to stderr if it cannot be
    opened."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", newline="")
    except OSError as err:
        print(f"{out}: {err.strerror}", file=sys.stderr)
        return None


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
    output = _output(args.out)
    if output is None:
        return 2
    with output as fh:
        Experiment(config, seed=args.seed, sink=CsvSink(fh)).run()
    return 0


def _cmd_analyze(args) -> int:
    numbers = (("--k", args.k), ("--ki", args.ki), ("--lambda", args.lam),
               ("--ropt", args.ropt), ("--sc", args.sc),
               ("--interval", args.interval))
    bad = [flag for flag, value in numbers if not math.isfinite(value)]
    try:
        if bad:
            raise ValueError(f"{', '.join(bad)} must be finite")
        # the poles depend on the gains alone: --poles-only reads no
        # horizon and builds no scenario
        if not args.poles_only:
            if args.horizon < 1:
                raise ValueError("--horizon must be at least 1")
            scenario = StepScenario(
                arrival_rate=args.lam, desired_rate=args.ropt,
                fabric_capacity=args.sc, gain_p=args.k, gain_i=args.ki,
                interval=args.interval)
        z1, z2 = poles(args.k, args.ki)
    except ValueError as err:
        print(f"analyze: {err}", file=sys.stderr)
        return 2
    stable = is_stable(args.k, args.ki)
    if args.poles_only:
        output = _output(args.out)
        if output is None:
            return 2
        with output as fh:
            fh.write(f"z1={z1!r} z2={z2!r} stable={stable}\n")
        return 0
    if not stable and not args.recurrence:
        print(f"analyze: {STABILITY_MSG}", file=sys.stderr)
        return 1

    horizon = args.horizon
    if stable:
        closed = step_response_closed_form(scenario, horizon)
        n0, queue = closed.n0, closed.queue_sequence
        fit = (f"a1={closed.coeff1!r} a2={closed.coeff2!r}"
               f" d={closed.rate_gap!r}")
        drops = map(repr, closed.drop_sequence)
    else:
        # unstable gains can make a ramp that never ends
        try:
            n0, _s, _peak = initial_period(scenario)
        except ValueError as err:
            print(f"analyze: {err}", file=sys.stderr)
            return 2
        queue = queue_trajectory(scenario, min(n0, horizon))
        fit = "a1=nan a2=nan d=nan"
        drops = repeat("")
    recs = (map(repr, step_response_recurrence(scenario, horizon))
            if args.recurrence else repeat(""))
    # q_n models the backlog during the ramp only, so it stops at n0
    queues = chain(map(repr, queue), repeat(""))

    # each row goes out as it is formatted: the CSV is never held whole
    output = _output(args.out)
    if output is None:
        return 2
    with output as fh:
        fh.write(f"# z1={z1!r} z2={z2!r} n0={n0} {fit}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("n", "rho_closed", "rho_recurrence", "q_n"))
        writer.writerows(zip(range(horizon), drops, recs, queues))
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
