"""Tests of the benchmark itself: python3 -m pytest bench -q

Workloads run here at tiny sizes; the full sizes are what bench/run.py
measures.
"""

import dataclasses
import json
import signal
import time

import pytest

import run
from checks import conservation_problems, oracle_n0
from reference import EDGE_JOBS, SAMPLE_EVERY_S, Gauge
from foqsim import analytic
from foqsim.timeseries import TimeSeries
from tracer import PER_LAYER
from workloads import SCAN_CAP, AnalyzeSweep, TcpStaged, WideCbrPi

BENCHMARK = json.loads((run.src_path.ROOT / "BENCHMARK.json").read_text())

TINY = {
    "tcp_staged": lambda seed: TcpStaged(seed, duration=3.0),
    "wide_cbr_pi": lambda seed: WideCbrPi(seed, ports=2, duration=0.02),
}


def tiny_sweep(seed, past_cap=0):
    return AnalyzeSweep(seed, body=20, tail=2, body_ramp=2e3, tail_ramp=2e4,
                        past_cap=past_cap)


def one_repetition(workload):
    state = workload.build(workload.load())
    result = workload.run(state)
    text = workload.serialise(result)
    return state, result, text, workload.check(state, result, text)


@pytest.mark.parametrize("name", sorted(TINY))
def test_simulation_smoke_untraced_and_traced(name):
    reps = run.Repetitions(TINY[name](3))
    reps.repeat(0.0)
    assert reps.problems == []
    assert (reps.ops, reps.failed) == (1, 0)
    assert set(reps.end_to_end()) == {m["name"] for m in BENCHMARK["end_to_end"]}

    metrics = run.traced(reps, 0.0)
    assert reps.problems == []  # traced counts repeat the untraced ones
    assert [(n, u) for n, (_, u) in metrics.items()] == PER_LAYER
    assert metrics["events.unclassified.fired"][0] == 0
    assert metrics["events.fired"][0] > 0
    assert metrics["timeseries.records"][0] == reps.counts["timeseries.records"]
    assert abs(metrics["unattributed_s"][0]) < 0.1 * metrics["traced_run_s"][0]


def test_sweep_smoke_reports_every_check():
    sweep = tiny_sweep(3)
    reps = run.Repetitions(sweep)
    reps.repeat(0.0)
    # without a ramp past the scan cap the sweep does not do its job
    assert reps.problems == ["no tail scenario has a ramp past the scan cap"]
    assert (reps.ops, reps.failed) == (len(sweep.specs), 0)
    metrics = run.traced(reps, 0.0)
    assert metrics["analytic.ramp_intervals"][0] == (
        reps.counts["analytic.ramp_intervals"])
    assert metrics["analytic.initial_period.calls"][0] == len(sweep.specs)


def test_sweep_counts_a_ramp_past_the_cap_as_a_failed_op():
    sweep = tiny_sweep(3, past_cap=1)
    assert sweep.specs[-1].kind == "tail" and sweep.oracle[-1] > SCAN_CAP
    scenarios = sweep.load()
    results = sweep.run(scenarios[:-1])
    results.append(ValueError("fabric queue never drains; check the gains"))
    outcome = sweep.check(scenarios, results, None)
    assert outcome.problems == []
    assert (outcome.ops, outcome.failed) == (len(sweep.specs), 1)


@pytest.mark.parametrize("make", [TINY["tcp_staged"], TINY["wide_cbr_pi"],
                                  tiny_sweep])
def test_counts_repeat_per_seed_and_digest_follows_the_seed(make):
    first = one_repetition(make(5))[3].counts
    again = one_repetition(make(5))[3].counts
    other = one_repetition(make(6))[3].counts
    assert first == again
    assert first["output_digest"] != other["output_digest"]


def test_conservation_checker_rejects_bytes_moved_to_dropped():
    workload = TINY["wide_cbr_pi"](3)
    experiment, _series, text, outcome = one_repetition(workload)
    assert outcome.problems == []
    ledger = experiment.switch.conservation()
    fid = max(ledger, key=lambda f: ledger[f]["delivered"])
    delivered = float(ledger[fid]["delivered"])
    dropped = float(ledger[fid]["egress_dropped"])
    moved = 1000.0
    lines = []
    for line in text.splitlines():
        if line.endswith(f",delivered_bytes_total,,{fid},{delivered!r},bytes"):
            line = line.replace(repr(delivered), repr(delivered - moved))
        elif line.endswith(f",egress_drop_bytes_total,,{fid},{dropped!r},bytes"):
            line = line.replace(repr(dropped), repr(dropped + moved))
        lines.append(line)
    doctored = TimeSeries.from_csv("\n".join(lines) + "\n")
    assert doctored != TimeSeries.from_csv(text)
    problems = conservation_problems(doctored, ledger)
    assert len(problems) == 2  # both rows disagree with the live ledger
    assert all(f"flow {fid}:" in p for p in problems)


@pytest.mark.parametrize("seed", [1, 2])
def test_n0_oracle_matches_the_scan_and_rejects_an_off_by_one(seed):
    sweep = tiny_sweep(seed)
    scenarios = sweep.load()
    results = sweep.run(scenarios)
    assert sweep.check(scenarios, results, None).failed == 0
    for (spec, scenario), want in zip(scenarios, sweep.oracle):
        assert analytic.initial_period(scenario)[0] == want

    tails = [i for i, (spec, _) in enumerate(scenarios) if spec.kind == "tail"]
    bodies = [i for i, (spec, _) in enumerate(scenarios)
              if spec.kind == "body" and sweep.oracle[i] > 1]
    for shift in (-1, 1):
        bad = list(results)
        n0, s_n0, peak = bad[tails[0]]
        bad[tails[0]] = (n0 + shift, s_n0, peak)
        closed, rec = bad[bodies[0]]
        bad[bodies[0]] = (dataclasses.replace(closed, n0=closed.n0 + shift), rec)
        problems = sweep.check(scenarios, bad, None).problems
        assert any(f"scenario {tails[0]}: n0 = {n0 + shift}," in p
                   for p in problems)
        assert any(f"scenario {bodies[0]}: n0 = " in p for p in problems)


def test_oracle_at_the_ramp_boundary():
    # lam - sc = 1, gap 1, K = 0, K_I = 1: q_m / T = (m + 1) - m (m + 1) / 2
    # is 1 at m = 1 and 0 at m = 2, so the backlog clears at m = 2: n0 = 3
    assert oracle_n0(2.0, 0.0, 1.0, 0.0, 1.0) == 3
    scenario = analytic.StepScenario(2.0, 0.0, 1.0, gain_p=0.0, gain_i=1.0)
    assert analytic.initial_period(scenario)[0] == 3
    assert oracle_n0(0.9, 0.5, 1.0, 0.0, 1.0) == 0


def test_exercise_check_catches_a_silent_pi_loop():
    workload = TINY["wide_cbr_pi"](3)
    workload.text = workload.text.replace("switch.feedback.mode = pi",
                                          "switch.feedback.mode = off")
    outcome = one_repetition(workload)[3]
    assert outcome.failed == 1
    assert any("the PI loop dropped nothing" in p for p in outcome.problems)


def test_benchmark_json_names_what_the_benchmark_prints():
    assert set(BENCHMARK) == {"command", "paths", "run_seconds", "workloads",
                              "end_to_end", "per_layer"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == PER_LAYER
    setup = [m for m in BENCHMARK["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(
        m["bound"] for m in BENCHMARK["end_to_end"])


def test_gauge_samples_inside_a_section_on_a_clock_that_skips_the_jobs():
    before = signal.getsignal(signal.SIGALRM)
    with Gauge() as gauge:
        start, t0 = time.perf_counter(), gauge.now()
        while time.perf_counter() - start < 6 * SAMPLE_EVERY_S:
            pass
        host, section = time.perf_counter() - start, gauge.now() - t0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = len(gauge.jobs) - 2 * EDGE_JOBS
    assert inside >= 3
    assert section == pytest.approx(host - gauge.spent, abs=1e-3)
    assert gauge.spent >= sum(gauge.jobs[EDGE_JOBS:-EDGE_JOBS])
    assert gauge.scale() > 0
