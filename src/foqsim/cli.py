"""Command line front end: run, analyze, validate."""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from itertools import chain, repeat

from .analytic import (
    STABILITY_MSG,
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


class _Refused(Exception):
    """A command's refusal: main prints its lines, to stderr unless stream
    names another, and returns its exit code."""

    def __init__(self, code: int, lines: list[str], stream=None):
        self.code, self.lines, self.stream = code, lines, stream


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
    p_run.set_defaults(handler=_run)

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
    p_an.set_defaults(handler=_analyze)

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("config", help="experiment config file")
    p_val.set_defaults(handler=_validate)
    return parser


def _output(out: str | None):
    """A context over stdout, or over the file at out opened for writing
    and closed after; refused with exit 2 if it cannot be opened."""
    if out is None:
        return contextlib.nullcontext(sys.stdout)
    try:
        return open(out, "w", newline="")
    except OSError as err:
        raise _Refused(2, [f"{out}: {err.strerror}"]) from None


def _load(path: str, violations=None):
    """The config at path, or refused: exit 1 for ConfigError violations,
    reported to the stream `violations` (stderr if None), and exit 2 to
    stderr for the rest."""
    try:
        return load_config(path)
    except ConfigSyntaxError as err:
        raise _Refused(2, [f"{path}: {v}" for v in err.violations]) from None
    except ConfigError as err:
        raise _Refused(1, [f"{path}: {v}" for v in err.violations],
                       violations) from None
    except OSError as err:
        raise _Refused(2, [f"{path}: {err.strerror}"]) from None


def _run(args) -> None:
    config = _load(args.config)
    with _output(args.out) as fh:
        Experiment(config, seed=args.seed, sink=CsvSink(fh)).run()


def _analysis(args):
    """The comment line and the CSV rows, header first, that `analyze`
    writes; --poles-only has its one line and no rows."""
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
        stable = is_stable(args.k, args.ki)
        if args.poles_only:
            return f"z1={z1!r} z2={z2!r} stable={stable}\n", ()
        if not stable and not args.recurrence:
            raise _Refused(1, [f"analyze: {STABILITY_MSG}"])
        horizon = args.horizon
        if stable:
            closed = step_response_closed_form(scenario, horizon)
            n0, queue = closed.n0, closed.queue_sequence
            fit = (f"a1={closed.coeff1!r} a2={closed.coeff2!r}"
                   f" d={closed.rate_gap!r}")
            drops = map(repr, closed.drop_sequence)
        else:
            # unstable gains can make a ramp that never ends
            n0, _s, _peak = initial_period(scenario)
            queue = queue_trajectory(scenario, min(n0, horizon))
            fit = "a1=nan a2=nan d=nan"
            drops = repeat("")
        recs = (map(repr, step_response_recurrence(scenario, horizon))
                if args.recurrence else repeat(""))
    except ValueError as err:
        raise _Refused(2, [f"analyze: {err}"]) from None
    # q_n models the backlog during the ramp only, so it stops at n0
    queues = chain(map(repr, queue), repeat(""))
    return (f"# z1={z1!r} z2={z2!r} n0={n0} {fit}\n",
            chain([("n", "rho_closed", "rho_recurrence", "q_n")],
                  zip(range(horizon), drops, recs, queues)))


def _analyze(args) -> None:
    comment, rows = _analysis(args)
    # each row goes out as it is formatted: the CSV is never held whole
    with _output(args.out) as fh:
        fh.write(comment)
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _validate(args) -> None:
    _load(args.config, sys.stdout)
    print("ok")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        args.handler(args)
    except _Refused as refusal:
        for line in refusal.lines:
            print(line, file=refusal.stream or sys.stderr)
        return refusal.code
    return 0


if __name__ == "__main__":
    sys.exit(main())
