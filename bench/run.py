"""foqsim benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload in this one process for about S seconds, checks every
repetition's output, and prints each metric as `name value unit`, then one
JSON line {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are BENCHMARK.json's end-to-end ones, times normalised by the
host speed that `reference.Gauge` samples; with --trace 1 they are its
per-layer ones, in host seconds, from repetitions under the tracer that
follow untraced ones. Exits 1 when a check fails. See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from contextlib import nullcontext

import src_path  # noqa: F401
from foqsim.timeseries import TimeSeries
from reference import Gauge
from tracer import PER_LAYER, TIMED, Tracer, absent_why
from workloads import AnalyzeSweep, TcpStaged, WideCbrPi

WORKLOADS = {
    "tcp_staged": TcpStaged,
    "wide_cbr_pi": WideCbrPi,
    "analyze_sweep": AnalyzeSweep,
}
MIN_SETUPS = 25     # setup_s is the median of at least this many batches
SETUPS_PER_REPETITION = 5  # batches timed between repetitions, to sample the whole run
SETUP_BATCH_S = 0.05  # a batch repeats set-up until it takes about this long
TRACED_SHARE = 0.5  # of --seconds spent under the tracer with --trace 1

_clock = time.perf_counter


class Repetitions:
    """Timings, outcomes and counts of one workload's repetitions."""

    def __init__(self, workload):
        self.workload = workload
        # normalised times (see reference.Gauge); raw_* are host seconds
        self.setup_s: list[float] = []  # per set-up, one per timed batch
        self.setup_batch = 0  # set-ups per batch, fixed by the first repetition
        self.peak_rss_mb: float | None = None
        self.run_s: list[float] = []
        self.wall_s: list[float] = []
        self.raw_run_s: list[float] = []
        self.raw_wall_s: list[float] = []
        self.ops = 0
        self.failed = 0
        self.problems: list[str] = []
        self.counts: dict | None = None

    def record(self, outcome) -> None:
        """Add one checked repetition; its counts must repeat the first's."""
        self.ops += outcome.ops
        self.failed += outcome.failed
        self.problems += outcome.problems
        if self.counts is None:
            self.counts = outcome.counts
            return
        for key in sorted(self.counts.keys() | outcome.counts.keys()):
            first, now = self.counts.get(key), outcome.counts.get(key)
            if first != now:
                self.problems.append(f"{key} differs between repetitions of "
                                     f"one seed: {first} then {now}")

    def repeat(self, seconds: float, tracer: Tracer | None = None) -> list[dict]:
        """Repeat until the next repetition would end past `seconds`.

        Untraced repetitions add to the end-to-end timings; traced ones
        return one per-layer sample each.
        """
        w = self.workload
        samples: list[dict] = []
        start = _clock()
        while True:
            gc.collect()
            # the gauge's sampling would count inside the tracer's spans
            gauge = Gauge() if tracer is None else None
            clock = gauge.now if gauge else _clock
            with gauge or nullcontext():
                t0 = clock()
                loaded = w.load()
                t1 = clock()
                state = w.build(loaded)
                t2 = clock()
                if tracer is not None:
                    tracer.reset()
                result = w.run(state)
                t3 = clock()
                text = w.serialise(result)
                t4 = clock()
            if tracer is None and self.peak_rss_mb is None:
                # before the checks, which hold extra copies of the output
                self.peak_rss_mb = peak_rss_mb()
            outcome = w.check(state, result, text, full=self.counts is None)
            self.record(outcome)
            if tracer is None:
                if not self.setup_batch:
                    self.setup_batch = max(1, math.ceil(SETUP_BATCH_S / (t2 - t0)))
                self.raw_run_s.append(t3 - t2)
                self.raw_wall_s.append(t4 - t0)
                self.run_s.append((t3 - t2) * gauge.scale())
                self.wall_s.append((t4 - t0) * gauge.scale())
                done = len(self.run_s)
            else:
                phases = {}
                if text is not None:
                    phases = {"config.load_s": t1 - t0,
                              "experiment.build_s": t2 - t1,
                              "timeseries.to_csv_s": t4 - t3}
                    t5 = _clock()
                    TimeSeries.from_csv(text)
                    phases["timeseries.from_csv_s"] = _clock() - t5
                samples.append(tracer.sample(t3 - t2, outcome.counts, phases))
                done = len(samples)
            del loaded, state, result, text
            if tracer is None:  # with no earlier output left alive
                self.time_setups(len(self.setup_s) + SETUPS_PER_REPETITION)
            elapsed = _clock() - start
            if elapsed * (1 + 1 / done) > seconds:
                return samples

    def time_setups(self, count: int) -> None:
        """Time batches of set-ups alone until setup_s has `count` samples.

        A set-up can take well under a millisecond, so each sample is the
        mean of a batch of `setup_batch` set-ups. Each set-up starts after
        a collection, like the first one of a process, so none pays for
        collecting the garbage of the one before.
        """
        w = self.workload
        while len(self.setup_s) < count:
            batch = 0.0
            with Gauge() as gauge:
                for _ in range(self.setup_batch):
                    gc.collect()
                    t0 = gauge.now()
                    state = w.build(w.load())
                    batch += gauge.now() - t0
                    del state
            self.setup_s.append(batch * gauge.scale() / self.setup_batch)

    def end_to_end(self) -> dict:
        """Each time is the median over the run of normalised times. Peak
        memory is read after the first repetition's output is written and
        before it is checked."""
        return {
            "setup_s": (statistics.median(self.setup_s), "s"),
            "run_s": (statistics.median(self.run_s), "s"),
            "wall_s": (statistics.median(self.wall_s), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
        }


def peak_rss_mb() -> float:
    """The process's peak resident memory so far (ru_maxrss is in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(reps: Repetitions, seconds: float) -> dict:
    """Per-layer metrics from repetitions under the tracer.

    Run after untraced repetitions: every traced count must equal theirs,
    and tracing_overhead_s compares the fastest traced run_s with the
    fastest untraced one, both in host seconds. Times come from the
    fastest traced repetition, so they add up to its run_s.
    """
    tracer = Tracer()
    with tracer.installed():
        samples = reps.repeat(seconds, tracer)
    fastest = min(samples, key=lambda s: s["traced_run_s"])
    fastest["tracing_overhead_s"] = fastest["traced_run_s"] - min(reps.raw_run_s)
    metrics = {}
    for name, unit in PER_LAYER:
        if name not in fastest:
            metrics[name] = (0, unit)
            print(f"absent {name}: {absent_why(name)}")
            continue
        metrics[name] = (fastest[name], unit)
        if name not in TIMED and any(s[name] != fastest[name] for s in samples):
            reps.problems.append(f"{name} differs between traced repetitions")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to repeat the workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload](args.seed)
    reps = Repetitions(workload)
    if args.trace:
        reps.repeat(args.seconds * (1 - TRACED_SHARE))
        metrics = traced(reps, args.seconds * TRACED_SHARE)
    else:
        reps.repeat(args.seconds)
        reps.time_setups(MIN_SETUPS)
        metrics = reps.end_to_end()

    print(f"workload {args.workload} seed {args.seed} "
          f"repetitions {len(reps.run_s)} setup batches {len(reps.setup_s)} "
          f"of {reps.setup_batch}")
    print("host run_s of each untraced repetition: "
          + " ".join(f"{t:.4f}" for t in reps.raw_run_s))
    print("normalised run_s of each untraced repetition: "
          + " ".join(f"{t:.4f}" for t in reps.run_s))
    if not args.trace:
        print(f"host seconds: median run_s {statistics.median(reps.raw_run_s)} "
              f"wall_s {statistics.median(reps.raw_wall_s)}; fastest run_s "
              f"{min(reps.raw_run_s)} wall_s {min(reps.raw_wall_s)}")
    for key, value in sorted(reps.counts.items()):
        print(f"{key} {value}")
    if isinstance(workload, AnalyzeSweep):
        print(f"tail scenarios past the scan cap: {workload.past_cap}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"ops {reps.ops} count")
    print(f"ops_failed {reps.failed} count")
    for problem in reps.problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    correct = not reps.problems
    print(json.dumps({
        "correct": correct,
        "attempted": reps.ops,
        "failed": reps.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
