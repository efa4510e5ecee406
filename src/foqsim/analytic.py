"""Closed-form analysis of the single-flow drop-control loop.

The loop that maps the measured fabric output rate into a drop rate through
the PI law has two poles given by a quadratic in the gains. For a rate step
the response is a linear ramp while the modelled fabric queue is backlogged,
then a geometric approach to the gap between arrival and desired rate. A
brute-force time-stepping recurrence doubles as an oracle for the algebra
and works outside the stability region, where the closed form refuses to.

The O(n) routines read the scenario into locals once and evaluate queue_at's
backlog expression, and their own per-interval terms, over those locals in
the same operation order, with no call per interval: bit for bit what a
per-interval queue_at evaluation gives. queue_at stays the scalar form.

Everything here is the linear model: drop rates may go negative or exceed
the arrival rate, saturation never re-engages once the backlog clears. The
event-level simulator owns the nonlinear behaviour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class StepScenario:
    """Constant arrival rate applied to an idle loop at n = 0.

    Rates share one unit (bits/s in practice, anything consistent works);
    interval is the controller period in seconds.
    """

    arrival_rate: float
    desired_rate: float
    fabric_capacity: float
    gain_p: float = 0.0
    gain_i: float = 0.5
    interval: float = 1.0

    def __post_init__(self):
        if self.arrival_rate <= 0:
            raise ValueError("arrival_rate must be positive")
        if self.desired_rate >= self.fabric_capacity:
            raise ValueError("desired_rate must stay below fabric_capacity")
        if self.interval <= 0:
            raise ValueError("interval must be positive")


@dataclass(frozen=True)
class StepResponse:
    """Closed-form step response: ramp data plus pole/residue description."""

    n0: int                  # first interval with the fabric queue empty
    s_n0: float              # integral term carried out of the ramp
    pole1: complex | float
    pole2: complex | float
    coeff1: float
    coeff2: float
    rate_gap: float          # arrival minus desired rate
    drop_sequence: list[float] = field(repr=False)
    queue_sequence: list[float] = field(repr=False)  # ramp backlog, to the horizon


def poles(gain_p: float, gain_i: float) -> tuple[float, float]:
    """Roots of z**2 + (gain_p + gain_i - 1) z - gain_p, ordered |z1| >= |z2|.

    Negative gain_p is rejected; the discriminant is then never negative, so
    both poles are real.
    """
    if gain_p < 0:
        raise ValueError("gain_p must be non-negative")
    b = gain_p + gain_i - 1.0
    root = math.sqrt(b * b + 4.0 * gain_p)
    z1 = (-b + root) / 2.0
    z2 = (-b - root) / 2.0
    if abs(z2) > abs(z1):
        z1, z2 = z2, z1
    return z1, z2


def is_stable(gain_p: float, gain_i: float) -> bool:
    """Both poles strictly inside the unit circle: 0 < gain_i < 2 (1 - gain_p)."""
    return 0.0 < gain_i < 2.0 * (1.0 - gain_p)


def queue_at(scenario: StepScenario, n: int):
    """Modelled fabric backlog at the end of interval n during the ramp.

    q_n = T [ (n+1)(lam - sc) - n K (sc - r_opt) - n(n+1)/2 K_I (sc - r_opt) ].
    Pure polynomial arithmetic, so exact-number inputs stay exact.
    """
    gap = scenario.fabric_capacity - scenario.desired_rate
    lam_excess = scenario.arrival_rate - scenario.fabric_capacity
    return scenario.interval * (
        (n + 1) * lam_excess
        - n * scenario.gain_p * gap
        - (n * (n + 1) * scenario.gain_i * gap) / 2
    )


def queue_trajectory(scenario: StepScenario, count: int) -> list:
    """queue_at for n = 0 .. count-1: its expression over locals, bit for bit
    (n K (sc - r_opt) stays (n K) (sc - r_opt), n (n+1) an exact int)."""
    t, kp, ki = scenario.interval, scenario.gain_p, scenario.gain_i
    gap = scenario.fabric_capacity - scenario.desired_rate
    e = scenario.arrival_rate - scenario.fabric_capacity
    return [t * ((n + 1) * e - n * kp * gap - (n * (n + 1) * ki * gap) / 2)
            for n in range(count)]


def initial_period(scenario: StepScenario) -> tuple[int, float, float]:
    """Length of the saturated ramp: (n0, s_n0, max_queue).

    n0 is the smallest n with q_{n-1} <= 0. It starts from the first positive
    root of the backlog quadratic q_m / T = -a m^2 + b m + e and moves to the
    integer by evaluating queue_at, so it is the n0 an interval-by-interval
    scan of queue_at would find, float rounding included. s_n0 = gain_i * n0
    * (sc - r_opt) is the accumulator value carried into the closed loop;
    max_queue is the ramp's backlog peak, at the vertex or an end of the
    ramp. Zero everything when the arrival rate never saturates the fabric.
    """
    e = scenario.arrival_rate - scenario.fabric_capacity
    if e <= 0:
        return 0, 0.0, 0.0
    gap = scenario.fabric_capacity - scenario.desired_rate
    a = scenario.gain_i * gap / 2
    b = e - scenario.gain_p * gap - a
    disc = b * b + 4 * a * e
    # the first positive root is (b + sqrt(disc)) / 2a, written without
    # cancellation; with b >= 0 it exists only for a concave quadratic
    if disc < 0 or (b >= 0 and a <= 0):
        raise ValueError("fabric queue never drains; check the gains")
    root = math.sqrt(disc)
    m = 2 * e / (root - b) if b < 0 else (b + root) / (2 * a)
    n = math.ceil(m)
    while n > 0 and queue_at(scenario, n - 1) <= 0:
        n -= 1
    while queue_at(scenario, n) > 0:
        n += 1
    candidates = {0, n - 1}
    if a > 0:
        vertex = math.floor(b / (2 * a))
        candidates.update(k for k in (vertex, vertex + 1) if 0 < k < n - 1)
    max_queue = max(queue_at(scenario, k) for k in sorted(candidates))
    return n + 1, scenario.gain_i * (n + 1) * gap, max_queue


def step_response_recurrence(scenario: StepScenario, horizon: int) -> list[float]:
    """Brute-force iteration of the loop, valid for unstable gains too.

    During the ramp the measured rate is pinned at the fabric capacity and
    the backlog shrinks by the previously demanded drop rate. The ramp ends
    after the first interval whose backlog (queue_at's expression over
    locals) is <= 0, a test made here and never through initial_period, so
    the recurrence stays an independent oracle for the closed form's n0.
    Then the loop delay restarts empty (the closed form solves the post-ramp
    system with a fresh one-sided transform) while the accumulator carries.
    """
    lam, sc = scenario.arrival_rate, scenario.fabric_capacity
    ropt, kp, ki = scenario.desired_rate, scenario.gain_p, scenario.gain_i
    t = scenario.interval
    out: list[float] = []
    append = out.append
    acc = 0.0
    end = 0  # first interval of the closed loop
    if lam > sc:
        # the measured rate is pinned at sc, so the rate error is the gap
        # sc - r_opt throughout and its proportional term is one product
        gap = sc - ropt
        kp_gap = kp * gap
        e = lam - sc
        end = horizon
        for n in range(horizon):
            acc += ki * gap
            append(kp_gap + acc)
            if t * ((n + 1) * e - n * kp * gap
                    - (n * (n + 1) * ki * gap) / 2) <= 0.0:
                end = n + 1
                break
    rho = 0.0  # the loop delay element, empty when leaving saturation
    for _ in range(end, horizon):
        err = (lam - rho) - ropt
        acc += ki * err
        rho = kp * err + acc
        append(rho)
    return out


def step_response_closed_form(scenario: StepScenario, horizon: int) -> StepResponse:
    """Analytic step response over n = 0 .. horizon-1.

    Requires stable gains; outside the stability region only the recurrence
    is meaningful. The ramp part is gain-linear; from n0 on the response is
    D (1 - A1 z1**m + A2 z2**m) with m = n - n0 and D the arrival/desired gap.
    Both sequences stop at the horizon: queue_sequence holds the ramp's
    backlog for n < min(n0, horizon), so a ramp of 1e9 intervals costs no
    more memory than the horizon asks for. Each sequence is one pass over
    locals, its per-interval expression unchanged, bit for bit.
    """
    kp, ki = scenario.gain_p, scenario.gain_i
    if not is_stable(kp, ki):
        raise ValueError(
            "closed form diverges: gains outside stability region 0 < K_I < 2(1 - K)")
    n0, s_n0, _peak = initial_period(scenario)
    z1, z2 = poles(kp, ki)
    gap = scenario.fabric_capacity - scenario.desired_rate
    d = scenario.arrival_rate - scenario.desired_rate

    ramp = min(n0, horizon)
    seq = [(kp + i * ki) * gap for i in range(1, ramp + 1)]  # i = n + 1

    a1 = a2 = 0.0
    if d != 0.0 and z1 != z2:
        ratio = s_n0 / d
        a1 = (z1 * z1 - ratio * z1) / (z1 - z2)
        a2 = (z2 * z2 - ratio * z2) / (z1 - z2)
    tail = range(ramp - n0, horizon - n0)  # m = n - n0 for n = ramp .. horizon-1
    if d == 0.0:
        seq += [0.0] * len(tail)
    elif z1 == z2:
        # repeated pole only happens at the origin (deadbeat gains)
        seq += [(kp + ki) * d + s_n0 if m == 0 else d for m in tail]
    else:
        seq += [d * (1.0 - a1 * z1 ** m + a2 * z2 ** m) for m in tail]

    return StepResponse(n0=n0, s_n0=s_n0, pole1=z1, pole2=z2, coeff1=a1,
                        coeff2=a2, rate_gap=d, drop_sequence=seq,
                        queue_sequence=queue_trajectory(scenario, ramp))
