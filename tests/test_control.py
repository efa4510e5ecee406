"""Controller unit tests: PI law, gear-box quantizer, derived constants.

Expected values are frozen from hand arithmetic noted beside each assert.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from foqsim.control import (
    admit_level_table,
    d_mid,
    derive_beta,
    drop_level_table,
    gb_signal_from_congestion,
    pi_update,
)

GAINS = (0.0, 0.5)  # gain_p, gain_i


def reference_pi_update(accumulator, last_drop_prob, measured_rate,
                        desired_rate, gain_p, gain_i):
    """The PI law as it stood before its conversion to a drop probability
    was folded into pi_update, kept verbatim as the reference."""
    error = measured_rate - desired_rate
    grown = accumulator + gain_i * error
    raw = gain_p * error + grown
    if last_drop_prob < 1.0:
        ceiling = measured_rate / (1.0 - last_drop_prob)
    else:
        ceiling = math.inf
    value = min(max(raw, 0.0), ceiling)
    return value, grown if value == raw else accumulator


def reference_drop_prob_from_rate(drop_rate, fabric_out_rate, prev_prob):
    if fabric_out_rate <= 0.0:
        return prev_prob
    p = (1.0 - prev_prob) * drop_rate / fabric_out_rate
    return min(max(p, 0.0), 1.0)


class TestPiUpdate:
    def test_single_step(self):
        # e = 0.5, acc = 0 + 0.5 * 0.5 = 0.25, K = 0 -> rate 0.25;
        # p = (1 - 0) * 0.25 / 1.5 = 1/6
        prob, acc = pi_update(0.0, 0.0, 1.5, 1.0, *GAINS)
        assert prob == 1 / 6
        assert acc == 0.25

    def test_integral_accumulates(self):
        # same error twice: acc 0.25 then 0.5; p = 0.5 / 1.5 = 1/3
        _, acc = pi_update(0.0, 0.0, 1.5, 1.0, *GAINS)
        prob, acc = pi_update(acc, 0.0, 1.5, 1.0, *GAINS)
        assert prob == 1 / 3
        assert acc == 0.5

    def test_proportional_term(self):
        # K = 0.4: rate = 0.4 * 0.5 + 0.25 = 0.45; p = 0.45 / 1.5 = 0.3
        prob, _ = pi_update(0.0, 0.0, 1.5, 1.0, 0.4, 0.5)
        assert prob == pytest.approx(0.3, rel=1e-12)

    def test_floor_clamp_freezes_accumulator(self):
        # negative error pushes raw below zero; the rate clamps to 0, so
        # p = 0, and the accumulator must not wind down while pinned
        prob, acc = pi_update(0.0, 0.0, 0.5, 1.0, *GAINS)
        assert prob == 0.0
        assert acc == 0.0
        prob, acc = pi_update(acc, 0.0, 0.5, 1.0, *GAINS)
        assert prob == 0.0
        assert acc == 0.0

    def test_ceiling_clamp_freezes_accumulator(self):
        # raw = 10 + 0.5 * 0.5 = 10.25 above the ceiling
        # measured / (1 - last_drop_prob) = 1.5 / 0.5 = 3.0, so the rate is
        # 3.0 and p = (1 - 0.5) * 3.0 / 1.5 = 1.0
        prob, acc = pi_update(10.0, 0.5, 1.5, 1.0, *GAINS)
        assert prob == 1.0
        assert acc == 10.0

    def test_accumulator_resumes_after_clamp(self):
        # once the raw value re-enters the band the integral moves again:
        # acc = 0 + 0.5 * 1.0 = 0.5, p = 0.5 / 2.0 = 0.25
        _, acc = pi_update(0.0, 0.0, 0.5, 1.0, *GAINS)
        prob, acc = pi_update(acc, 0.0, 2.0, 1.0, *GAINS)
        assert prob == 0.25
        assert acc == 0.5

    def test_fresh_dropper(self):
        # e = 0.5, rate = 0.5 * 0.5 = 0.25 of a 1.0 arrival rate that
        # nothing thins yet: p = (1 - 0) * 0.25 / 1.0 = 0.25
        assert pi_update(0.0, 0.0, 1.0, 0.5, *GAINS) == (0.25, 0.25)

    def test_composes_with_previous_thinning(self):
        # e = 0, so the rate is the accumulator, 0.2, under the ceiling
        # 0.8 / 0.5 = 1.6; the dropper already thins by 0.5, so
        # p = (1 - 0.5) * 0.2 / 0.8 = 0.125
        assert pi_update(0.2, 0.5, 0.8, 0.8, *GAINS) == (0.125, 0.2)

    def test_clamped_to_unit_interval(self):
        # at the ceiling 1.9 / (1 - 0.06) = 2.021276595744681 the
        # conversion (1 - 0.06) * 2.021276595744681 / 1.9 rounds to
        # 1.0000000000000002, which the clamp brings back to 1.0
        assert (1 - 0.06) * (1.9 / (1 - 0.06)) / 1.9 > 1.0
        assert pi_update(5.0, 0.06, 1.9, 0.0, *GAINS) == (1.0, 5.0)
        # a demand far below zero: rate 0, p = 0
        assert pi_update(-5.0, 0.3, 1.0, 2.0, *GAINS) == (0.0, -5.0)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: at last_drop_prob 1.0 the conversion multiplies "
        "the demand by 1 - 1.0, so every demand reads probability 0.0"))
    def test_positive_demand_at_full_drop_keeps_dropping(self):
        # a queue sampled at p = 1 (packets already past the dropper still
        # arrive) with e = 0.5 demands 10 + 0.5 * 0.5 = 10.25 > 0 under an
        # infinite ceiling; the dropper must stay on, not fall to 0
        prob, _ = pi_update(10.0, 1.0, 1.5, 1.0, *GAINS)
        assert prob > 0.0

    @given(accumulator=st.floats(-1e12, 1e12),
           last_drop_prob=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
           measured_rate=st.floats(1e-6, 1e12),
           desired_rate=st.floats(0.0, 1e12),
           gain_p=st.floats(0.0, 10.0), gain_i=st.floats(1e-6, 10.0))
    @example(0.0, 1.0, 1.5, 1.0, *GAINS)
    @example(5.0, 0.06, 1.9, 0.0, *GAINS)
    def test_equals_the_rate_law_then_its_conversion(
            self, accumulator, last_drop_prob, measured_rate, desired_rate,
            gain_p, gain_i):
        # bit for bit (repr tells -0.0 from 0.0) the sampler's old pair of
        # calls: the rate law, then the rate's conversion at the same
        # measured rate and last probability
        rate, acc = reference_pi_update(accumulator, last_drop_prob,
                                        measured_rate, desired_rate, gain_p,
                                        gain_i)
        expected = (reference_drop_prob_from_rate(rate, measured_rate,
                                                  last_drop_prob), acc)
        got = pi_update(accumulator, last_drop_prob, measured_rate,
                        desired_rate, gain_p, gain_i)
        assert repr(got) == repr(expected)


class TestGearBox:
    def test_signal_from_congestion(self):
        # the signal is the drop level's step, an int
        band = (0.02, 0.17)  # d_min, d_max
        for congestion, step in ((0.3, 1), (0.01, -1), (0.1, 0),
                                 # thresholds themselves hold
                                 (0.17, 0), (0.02, 0)):
            signal = gb_signal_from_congestion(congestion, *band)
            assert type(signal) is int
            assert signal == step


class TestDropTables:
    def test_admit_is_geometric(self):
        beta = 0.25
        table = admit_level_table(beta, 5)
        assert table == [(1.0 - beta) ** k for k in range(5)]
        assert table[0] == 1.0

    def test_drop_admit_exact_complement(self):
        # P_k is defined from the exactly stored admit side, never the other
        # way around: 1 - (1 - x) is not a float identity below x = 0.5
        beta = derive_beta(0.17, 0.02)
        drop = drop_level_table(beta, 64)
        admit = admit_level_table(beta, 64)
        for k in range(64):
            assert admit[k] == (1.0 - beta) ** k
            assert drop[k] == 1.0 - admit[k]
        assert all(drop[k] < drop[k + 1] for k in range(63))

    def test_first_levels_frozen(self):
        beta = derive_beta(0.17, 0.02)
        drop = drop_level_table(beta, 4)
        assert drop[0] == 0.0
        assert drop[1] == pytest.approx(0.07970723380534817, abs=1e-15)
        assert drop[2] == pytest.approx(0.15306122448979587, abs=1e-15)

    def test_bad_beta_rejected(self):
        with pytest.raises(ValueError):
            admit_level_table(0.0, 4)
        with pytest.raises(ValueError):
            admit_level_table(1.0, 4)


class TestDerivedConstants:
    def test_beta_value(self):
        # 1 - sqrt(0.83 / 0.98)
        assert derive_beta(0.17, 0.02) == pytest.approx(0.07970723380534817,
                                                        abs=1e-15)

    def test_d_mid_value(self):
        assert d_mid(0.02, 0.17) == pytest.approx(0.0981, abs=1e-4)

    def test_degenerate_band_rejected(self):
        with pytest.raises(ValueError):
            derive_beta(0.02, 0.17)
        with pytest.raises(ValueError):
            d_mid(0.17, 0.02)

    @given(st.floats(0.0, 0.8), st.floats(0.01, 0.19))
    def test_symmetry_property(self, dmin, width):
        dmax = dmin + width
        beta = derive_beta(dmax, dmin)
        mid = d_mid(dmin, dmax)
        post_increase = 1.0 - (1.0 - dmax) / (1.0 - beta)
        post_decrease = 1.0 - (1.0 - dmin) * (1.0 - beta)
        assert abs(post_increase - mid) <= 1e-12
        assert abs(post_decrease - mid) <= 1e-12
