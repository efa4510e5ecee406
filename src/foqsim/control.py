"""Feedback drop controllers: a discrete PI law and its quantized gear-box variant.

Rates are bits/second throughout, probabilities plain fractions in [0, 1].
Every controller step is a pure function on scalars: the caller passes in
the loop's state and constants (a PI accumulator, last drop probability and
gains, or a gear-box measurement and band) and stores what comes back. The
PI step returns the drop probability itself and its new accumulator; the
gear-box's returns its drop level's step. Each output queue owns its own
state, so distinct (output, flow) loops never share it.
"""

from __future__ import annotations

import math


def pi_update(accumulator: float, last_drop_prob: float, measured_rate: float,
              desired_rate: float, gain_p: float,
              gain_i: float) -> tuple[float, float]:
    """Advance the PI law one interval and return (drop_prob, accumulator).

    measured_rate is the interval's arrival rate at the output and must be
    positive. accumulator holds the integral term already scaled by gain_i,
    so the demanded drop rate is gain_p * e[n] + accumulator, clamped to
    [0, measured/(1 - last_drop_prob)]: a drop rate can be neither negative
    nor larger than the estimated arrival rate. While the demand is pinned
    at a limit the accumulator is frozen so it cannot wind up. The dropper
    already thins arrivals by last_drop_prob, so the demand becomes the
    probability (1 - last_drop_prob) * rate / measured_rate, clamped to
    [0, 1].
    """
    error = measured_rate - desired_rate
    grown = accumulator + gain_i * error
    raw = gain_p * error + grown
    if last_drop_prob < 1.0:
        ceiling = measured_rate / (1.0 - last_drop_prob)
    else:
        ceiling = math.inf
    value = min(max(raw, 0.0), ceiling)
    p = (1.0 - last_drop_prob) * value / measured_rate
    return min(max(p, 0.0), 1.0), grown if value == raw else accumulator


# --- gear-box variant -------------------------------------------------------

def gb_signal_from_congestion(congestion: float, d_min: float,
                              d_max: float) -> int:
    """Map a relative-congestion measurement onto the drop level's step:
    +1 above d_max, -1 below d_min, 0 inside the band (a two-bit signal)."""
    if congestion > d_max:
        return 1
    if congestion < d_min:
        return -1
    return 0


def admit_level_table(beta: float, table_size: int) -> list[float]:
    """Admit probability at each drop level: (1 - beta) ** k."""
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must be in (0, 1)")
    return [(1.0 - beta) ** k for k in range(table_size)]


def drop_level_table(beta: float, table_size: int) -> list[float]:
    """Drop probability at each level, 1 - (1 - beta) ** k.

    Built from the admit table so the drop/admit pair is an exact float
    complement at every level.
    """
    return [1.0 - a for a in admit_level_table(beta, table_size)]


# --- derived constants ------------------------------------------------------

def derive_beta(d_max: float, d_min: float) -> float:
    """Step factor that makes up/down moves symmetric in the fluid model.

    One step up from congestion d_max and one step down from d_min both land
    on the same midpoint, which requires beta = 1 - sqrt((1-d_max)/(1-d_min)).
    """
    if not 0.0 <= d_min < d_max < 1.0:
        raise ValueError("degenerate hysteresis band: need 0 <= d_min < d_max < 1")
    return 1.0 - math.sqrt((1.0 - d_max) / (1.0 - d_min))


def d_mid(d_min: float, d_max: float) -> float:
    """Fluid-model congestion reached after one quantized step from either band edge."""
    if not 0.0 <= d_min < d_max < 1.0:
        raise ValueError("degenerate hysteresis band: need 0 <= d_min < d_max < 1")
    return 1.0 - math.sqrt((1.0 - d_min) * (1.0 - d_max))
