"""Analytic step-response tests: poles, ramp algebra, dual-route agreement.

The exact-rational oracles are frozen from an independent evaluation of the
backlog quadratic q_n = T[(n+1)(lam-sc) - nK(sc-r) - n(n+1)/2 KI(sc-r)].
"""

import math
import random
import tracemalloc
from array import array
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from foqsim.analytic import (
    StepScenario,
    initial_period,
    is_stable,
    poles,
    queue_at,
    queue_trajectory,
    step_response_closed_form,
    step_response_recurrence,
)

# lam = 2, r_opt = 0.9, sc = 1, K = 0, KI = 0.5, T = 1
FLOAT_CASE = StepScenario(arrival_rate=2.0, desired_rate=0.9,
                          fabric_capacity=1.0, gain_p=0.0, gain_i=0.5,
                          interval=1.0)
EXACT_CASE = StepScenario(arrival_rate=Fraction(2), desired_rate=Fraction(9, 10),
                          fabric_capacity=Fraction(1), gain_p=Fraction(0),
                          gain_i=Fraction(1, 2), interval=Fraction(1))


def scan_initial_period(scenario):
    """The interval-by-interval scan initial_period replaced, kept as the
    reference it must equal wherever the scan finishes."""
    if scenario.arrival_rate <= scenario.fabric_capacity:
        return 0, 0.0, 0.0
    max_queue = 0.0
    n = 0
    while True:
        q = queue_at(scenario, n)
        if q <= 0.0:
            gap = scenario.fabric_capacity - scenario.desired_rate
            return n + 1, scenario.gain_i * (n + 1) * gap, max_queue
        if q > max_queue:
            max_queue = q
        n += 1


def reference_queue_trajectory(scenario, count):
    """queue_trajectory as one queue_at call per interval, the form the
    local-float kernel replaced; it must equal it bit for bit."""
    return [queue_at(scenario, n) for n in range(count)]


def reference_recurrence(scenario, horizon):
    """step_response_recurrence as a saturated flag tested every interval,
    the form the two-phase kernel replaced."""
    lam = scenario.arrival_rate
    sc = scenario.fabric_capacity
    ropt = scenario.desired_rate
    out = []
    acc = 0.0
    rho_prev = 0.0
    saturated = lam > sc
    for n in range(horizon):
        rate = sc if saturated else lam - rho_prev
        err = rate - ropt
        acc += scenario.gain_i * err
        rho = scenario.gain_p * err + acc
        out.append(rho)
        if saturated:
            if queue_at(scenario, n) <= 0.0:
                saturated = False
        else:
            rho_prev = rho
    return out


def reference_drop_sequence(scenario, horizon):
    """step_response_closed_form's drop_sequence as the append loops the
    comprehensions replaced."""
    n0, s_n0, _peak = initial_period(scenario)
    z1, z2 = poles(scenario.gain_p, scenario.gain_i)
    gap = scenario.fabric_capacity - scenario.desired_rate
    d = scenario.arrival_rate - scenario.desired_rate
    seq = []
    ramp = min(n0, horizon)
    for n in range(ramp):
        seq.append((scenario.gain_p + (n + 1) * scenario.gain_i) * gap)
    a1 = a2 = 0.0
    if d != 0.0 and z1 != z2:
        ratio = s_n0 / d
        a1 = (z1 * z1 - ratio * z1) / (z1 - z2)
        a2 = (z2 * z2 - ratio * z2) / (z1 - z2)
    for n in range(ramp, horizon):
        m = n - n0
        if d == 0.0:
            seq.append(0.0)
        elif z1 == z2:
            total = scenario.gain_p + scenario.gain_i
            seq.append(total * d + s_n0 if m == 0 else d)
        else:
            seq.append(d * (1.0 - a1 * z1 ** m + a2 * z2 ** m))
    return seq


def bits(seq):
    return array("d", seq).tobytes()


def edge_arrival(sc, ropt, k, ki, end):
    """Arrival rate whose exact backlog is 0 at n = end: the float backlog
    lands within rounding of 0 there, so where the ramp ends turns on how
    each product is rounded."""
    gap = sc - ropt
    return sc + gap * (end * k + end * (end + 1) / 2 * ki) / (end + 1)


def exact_ramp(lam, ropt, sc, gain_p, gain_i):
    """(n0, peak backlog) of a T = 1 ramp, by bisection over the exact
    rationals the float inputs stand for."""
    e = Fraction(lam) - Fraction(sc)
    g = Fraction(sc) - Fraction(ropt)
    k, ki = Fraction(gain_p), Fraction(gain_i)

    def q(m):
        return (m + 1) * e - m * k * g - Fraction(m * (m + 1), 2) * ki * g

    vertex = math.floor((e - k * g - ki * g / 2) / (ki * g))
    lo = max(vertex, 0)  # q(lo) > 0: the concave backlog is still rising
    hi = 2 * lo + 1
    while q(hi) > 0:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if q(mid) > 0 else (lo, mid)
    return hi + 1, max(q(m) for m in {0, lo, max(vertex, 0), vertex + 1})


class TestPoles:
    def test_integral_only(self):
        assert poles(0.0, 0.5) == (0.5, 0.0)

    def test_mixed_gains(self):
        z1, z2 = poles(0.5, 0.5)
        assert z1 == pytest.approx(0.7071067811865476, abs=1e-15)
        assert z2 == pytest.approx(-0.7071067811865476, abs=1e-15)

    def test_deadbeat(self):
        # K = 0, KI = 1 puts both poles at the origin
        z1, z2 = poles(0.0, 1.0)
        assert z1 == 0.0 and z2 == 0.0

    def test_ordering(self):
        for k in (0.0, 0.2, 0.5, 0.9):
            for ki in (0.1, 0.5, 1.0, 1.9):
                z1, z2 = poles(k, ki)
                assert abs(z1) >= abs(z2)

    def test_negative_gain_rejected(self):
        with pytest.raises(ValueError):
            poles(-0.1, 0.5)

    @given(st.floats(0.0, 0.95), st.floats(0.01, 3.0))
    def test_vieta_identities(self, k, ki):
        # z1 z2 = -K and z1 + z2 = 1 - K - KI
        z1, z2 = poles(k, ki)
        assert abs(z1 * z2 + k) <= 1e-12
        assert abs(z1 + z2 - (1.0 - k - ki)) <= 1e-12


class TestStability:
    def test_region_boundary(self):
        assert is_stable(0.0, 0.5)
        assert not is_stable(0.0, 0.0)
        assert not is_stable(0.0, 2.0)       # KI = 2(1 - K) exactly
        assert not is_stable(0.5, 1.0)
        assert is_stable(0.5, 0.999)
        assert not is_stable(0.0, -0.1)

    @given(st.floats(0.0, 0.99), st.floats(0.001, 0.999))
    def test_interior_poles_inside_unit_circle(self, k, frac):
        ki = frac * 2.0 * (1.0 - k)
        z1, z2 = poles(k, ki)
        assert is_stable(k, ki)
        assert abs(z1) < 1.0 and abs(z2) < 1.0


class TestRampAlgebra:
    def test_exact_backlog_values(self):
        # frozen: q_39 = 1, q_40 = 0 exactly, peak 21/2 at n = 19 and 20
        assert queue_at(EXACT_CASE, 39) == Fraction(1)
        assert queue_at(EXACT_CASE, 40) == Fraction(0)
        assert queue_at(EXACT_CASE, 19) == Fraction(21, 2)
        assert queue_at(EXACT_CASE, 20) == Fraction(21, 2)

    def test_exact_initial_period(self):
        n0, s_n0, peak = initial_period(EXACT_CASE)
        assert n0 == 41
        assert s_n0 == Fraction(41, 20)
        assert peak == Fraction(21, 2)

    def test_float_initial_period_shifts_one(self):
        # 1.0 - 0.9 rounds below 1/10, so q_40 lands at +7.1e-15 instead of 0
        # and the float route exits one interval later than the exact one
        n0, _, _ = initial_period(FLOAT_CASE)
        assert n0 == 42
        assert queue_at(FLOAT_CASE, 40) == pytest.approx(0.0, abs=1e-13)
        assert queue_at(FLOAT_CASE, 40) > 0.0

    @settings(deadline=None)
    @given(sc=st.floats(0.5, 2.0), share=st.floats(0.0, 0.9),
           excess=st.floats(-0.5, 2.0), k=st.floats(0.0, 0.99),
           ki=st.floats(0.01, 2.0), interval=st.floats(1e-4, 10.0))
    def test_matches_the_scan(self, sc, share, excess, k, ki, interval):
        scenario = StepScenario(arrival_rate=sc * (1.0 + excess),
                                desired_rate=sc * share, fabric_capacity=sc,
                                gain_p=k, gain_i=ki, interval=interval)
        assert initial_period(scenario) == scan_initial_period(scenario)

    def test_linear_backlog_matches_the_scan(self):
        # K_I = 0: q_n = (n+1) e - n K g falls linearly once K g > e; here
        # e = 0.05, K g = 0.053, so q_n <= 0 from n = 50/3 on
        scenario = StepScenario(arrival_rate=1.05, desired_rate=0.9,
                                fabric_capacity=1.0, gain_p=0.53, gain_i=0.0)
        assert initial_period(scenario) == scan_initial_period(scenario)
        assert initial_period(scenario)[0] == 18

    def test_long_ramp_matches_exact_oracle(self):
        # K_I = 1e-9: (e - K g) / (K_I g / 2) puts the ramp's end near
        # n = 1.6e9, far past any scan
        scenario = StepScenario(arrival_rate=1.08, desired_rate=0.9,
                                fabric_capacity=1.0, gain_p=0.0, gain_i=1e-9)
        n0, s_n0, peak = initial_period(scenario)
        want_n0, want_peak = exact_ramp(1.08, 0.9, 1.0, 0.0, 1e-9)
        assert n0 == want_n0
        assert 1.5e9 < n0 < 1.7e9
        assert s_n0 == 1e-9 * n0 * (1.0 - 0.9)
        assert peak == pytest.approx(float(want_peak), rel=1e-12)

    def test_no_positive_root_raises(self):
        # without integral action, or with it negative, a backlog that
        # never stops growing has no end to its ramp
        for gain_p, gain_i in ((0.0, 0.0), (0.5, 0.0), (0.0, -0.1)):
            with pytest.raises(ValueError, match="never drains"):
                initial_period(StepScenario(arrival_rate=2.0, desired_rate=0.9,
                                            fabric_capacity=1.0,
                                            gain_p=gain_p, gain_i=gain_i))

    def test_no_saturation(self):
        calm = StepScenario(arrival_rate=0.8, desired_rate=0.5,
                            fabric_capacity=1.0)
        assert initial_period(calm) == (0, 0.0, 0.0)

    def test_trajectory_matches_pointwise(self):
        traj = queue_trajectory(FLOAT_CASE, 10)
        assert traj == [queue_at(FLOAT_CASE, n) for n in range(10)]

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            StepScenario(arrival_rate=0.0, desired_rate=0.5, fabric_capacity=1.0)
        with pytest.raises(ValueError):
            StepScenario(arrival_rate=2.0, desired_rate=1.0, fabric_capacity=1.0)
        with pytest.raises(ValueError):
            StepScenario(arrival_rate=2.0, desired_rate=0.5,
                         fabric_capacity=1.0, interval=0.0)


class TestClosedForm:
    def test_ramp_values(self):
        # rho_n = (K + (n+1) KI)(sc - r_opt) while saturated
        resp = step_response_closed_form(FLOAT_CASE, 50)
        assert resp.drop_sequence[0] == pytest.approx(0.05, rel=1e-12)
        assert resp.drop_sequence[1] == pytest.approx(0.10, rel=1e-12)
        assert resp.drop_sequence[2] == pytest.approx(0.15, rel=1e-12)
        assert resp.n0 == 42
        assert len(resp.queue_sequence) == resp.n0

    def test_long_ramp_stops_at_the_horizon(self):
        # K_I = 1e-6 puts n0 near 1.6e6; both sequences must stop at the
        # horizon rather than hold the whole ramp, which at K_I = 1e-9
        # (test_cli) would be tens of GB of floats
        scenario = StepScenario(arrival_rate=1.08, desired_rate=0.9,
                                fabric_capacity=1.0, gain_p=0.0, gain_i=1e-6)
        tracemalloc.start()
        try:
            resp = step_response_closed_form(scenario, 100)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert resp.n0 > 1.5e6
        assert peak < 1_000_000
        assert len(resp.drop_sequence) == len(resp.queue_sequence) == 100
        assert resp.queue_sequence == queue_trajectory(scenario, 100)

    def test_converges_to_rate_gap(self):
        # the drop rate must settle at lam - r_opt = 1.1
        resp = step_response_closed_form(FLOAT_CASE, 400)
        assert resp.drop_sequence[-1] == pytest.approx(1.1, rel=1e-9)
        assert resp.rate_gap == pytest.approx(1.1, rel=1e-12)

    def test_unstable_gains_rejected(self):
        bad = StepScenario(arrival_rate=2.0, desired_rate=0.9,
                           fabric_capacity=1.0, gain_p=0.0, gain_i=2.5)
        with pytest.raises(ValueError, match="stability region"):
            step_response_closed_form(bad, 10)

    def test_deadbeat_settles_in_one_interval(self):
        scen = StepScenario(arrival_rate=1.5, desired_rate=0.9,
                            fabric_capacity=1.0, gain_p=0.0, gain_i=1.0)
        resp = step_response_closed_form(scen, 30)
        # after the ramp handoff the repeated pole at 0 gives rho = D exactly
        for n in range(resp.n0 + 1, 30):
            assert resp.drop_sequence[n] == pytest.approx(0.6, rel=1e-12)

    def test_matches_recurrence(self):
        # dual-route agreement at one gain pair; the acceptance suite sweeps
        # the whole grid
        for scen in (FLOAT_CASE,
                     StepScenario(arrival_rate=1.5, desired_rate=0.7,
                                  fabric_capacity=1.0, gain_p=0.3,
                                  gain_i=0.6)):
            closed = step_response_closed_form(scen, 200)
            rec = step_response_recurrence(scen, 200)
            scale = abs(scen.arrival_rate - scen.desired_rate)
            for n in range(closed.n0 + 1, 200):
                dev = abs(closed.drop_sequence[n] - rec[n])
                assert dev / max(abs(rec[n]), scale) < 1e-9

    def test_unsaturated_step(self):
        # lam below capacity: no ramp, pure closed loop from n = 0
        scen = StepScenario(arrival_rate=0.95, desired_rate=0.5,
                            fabric_capacity=1.0, gain_p=0.0, gain_i=0.5)
        closed = step_response_closed_form(scen, 100)
        rec = step_response_recurrence(scen, 100)
        assert closed.n0 == 0
        assert closed.drop_sequence[-1] == pytest.approx(0.45, rel=1e-9)
        for n in range(1, 100):
            assert closed.drop_sequence[n] == pytest.approx(rec[n], rel=1e-9)


class TestKernelBitExact:
    """The local-float kernel returns the bytes of its per-interval reference."""

    @settings(deadline=None, max_examples=200)
    @given(data=st.data(),
           sc=st.floats(0.5, 2.0), share=st.floats(0.0, 0.95),
           load=st.sampled_from(["below", "at", "above", "edge"]),
           excess=st.floats(1e-3, 2.0), ramp_end=st.integers(1, 300),
           k=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
           ki=st.floats(1e-4, 3.0),
           interval=st.one_of(st.just(1.0), st.floats(1e-4, 10.0)))
    def test_matches_the_per_interval_reference(self, data, sc, share, load,
                                                excess, ramp_end, k, ki,
                                                interval):
        lam = {"below": sc / (1.0 + excess), "at": sc,
               "above": sc * (1.0 + excess),
               "edge": edge_arrival(sc, sc * share, k, ki, ramp_end)}[load]
        scenario = StepScenario(arrival_rate=lam, desired_rate=sc * share,
                                fabric_capacity=sc, gain_p=k, gain_i=ki,
                                interval=interval)
        n0 = initial_period(scenario)[0]
        # from empty through horizons inside the ramp to about twice n0
        horizon = data.draw(st.integers(0, min(2 * n0 + 20, 4000)),
                            label="horizon")
        assert bits(queue_trajectory(scenario, horizon)) == \
            bits(reference_queue_trajectory(scenario, horizon))
        assert bits(step_response_recurrence(scenario, horizon)) == \
            bits(reference_recurrence(scenario, horizon))
        if is_stable(k, ki):
            resp = step_response_closed_form(scenario, horizon)
            assert bits(resp.drop_sequence) == \
                bits(reference_drop_sequence(scenario, horizon))
            assert bits(resp.queue_sequence) == bits(reference_queue_trajectory(
                scenario, min(n0, horizon)))

    def test_ramp_end_on_the_rounding_edge(self):
        # 1,000 seeded "edge" scenarios with K_I log-uniform down to 1e-4, so
        # the proportional term often dominates the backlog: a reassociated
        # product in the recurrence's own ramp-end test moves n0 in a few
        # dozen of them, which a random draw rarely reaches
        rng = random.Random("ramp-end-edge")
        for _ in range(1000):
            sc = rng.uniform(0.5, 2.0)
            ropt = sc * rng.uniform(0.0, 0.95)
            k = rng.uniform(0.0, 0.99)
            ki = 10 ** rng.uniform(-4.0, 0.4)
            end = rng.randint(1, 100)
            lam = edge_arrival(sc, ropt, k, ki, end)
            scenario = StepScenario(arrival_rate=lam, desired_rate=ropt,
                                    fabric_capacity=sc, gain_p=k, gain_i=ki,
                                    interval=rng.choice([1.0, rng.uniform(1e-3, 10.0)]))
            horizon = end + 3
            assert bits(step_response_recurrence(scenario, horizon)) == \
                bits(reference_recurrence(scenario, horizon)), scenario
            assert bits(queue_trajectory(scenario, horizon)) == \
                bits(reference_queue_trajectory(scenario, horizon)), scenario

    def test_named_cases(self):
        # deadbeat (repeated pole at 0), zero rate gap, unstable gains and a
        # ramp longer than the horizon
        cases = [
            (FLOAT_CASE, 100),
            (FLOAT_CASE, 10),
            (StepScenario(1.5, 0.9, 1.0, gain_p=0.0, gain_i=1.0), 30),
            (StepScenario(0.9, 0.9, 1.0, gain_p=0.2, gain_i=0.5), 20),
            (StepScenario(2.0, 0.9, 1.0, gain_p=0.0, gain_i=2.5), 60),
            (StepScenario(2.0, 0.9, 1.0, gain_p=0.3, gain_i=0.0), 60),
        ]
        for scenario, horizon in cases:
            assert bits(step_response_recurrence(scenario, horizon)) == \
                bits(reference_recurrence(scenario, horizon))
            if is_stable(scenario.gain_p, scenario.gain_i):
                resp = step_response_closed_form(scenario, horizon)
                assert bits(resp.drop_sequence) == \
                    bits(reference_drop_sequence(scenario, horizon))


class TestRecurrence:
    def test_diverges_outside_region(self):
        bad = StepScenario(arrival_rate=2.0, desired_rate=0.9,
                           fabric_capacity=1.0, gain_p=0.0, gain_i=2.1)
        seq = step_response_recurrence(bad, 2000)
        assert max(abs(x) for x in seq) > 1e6

    def test_bounded_inside_region(self):
        seq = step_response_recurrence(FLOAT_CASE, 5000)
        assert max(abs(x) for x in seq) < 10.0

