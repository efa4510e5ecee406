"""Controller unit tests: PI law, gear-box quantizer, derived constants.

Expected values are frozen from hand arithmetic noted beside each assert.
"""

import pytest
from hypothesis import given, strategies as st

from foqsim.control import (
    admit_level_table,
    d_mid,
    derive_beta,
    drop_level_table,
    drop_prob_from_rate,
    gb_signal_from_congestion,
    pi_update,
)

GAINS = (0.0, 0.5)  # gain_p, gain_i


class TestPiUpdate:
    def test_single_step(self):
        # e = 0.5, acc = 0 + 0.5 * 0.5 = 0.25, K = 0 -> rate 0.25
        rate, acc = pi_update(0.0, 0.0, 1.5, 1.0, *GAINS)
        assert rate == 0.25
        assert acc == 0.25

    def test_integral_accumulates(self):
        # same error twice: acc 0.25 then 0.5
        _, acc = pi_update(0.0, 0.0, 1.5, 1.0, *GAINS)
        rate, acc = pi_update(acc, 0.0, 1.5, 1.0, *GAINS)
        assert rate == 0.5
        assert acc == 0.5

    def test_proportional_term(self):
        # K = 0.4: rate = 0.4 * 0.5 + 0.25 = 0.45
        rate, _ = pi_update(0.0, 0.0, 1.5, 1.0, 0.4, 0.5)
        assert rate == pytest.approx(0.45, rel=1e-12)

    def test_floor_clamp_freezes_accumulator(self):
        # negative error pushes raw below zero; output clamps to 0 and the
        # accumulator must not wind down while pinned
        rate, acc = pi_update(0.0, 0.0, 0.5, 1.0, *GAINS)
        assert rate == 0.0
        assert acc == 0.0
        rate, acc = pi_update(acc, 0.0, 0.5, 1.0, *GAINS)
        assert rate == 0.0
        assert acc == 0.0

    def test_ceiling_clamp_freezes_accumulator(self):
        # ceiling = measured / (1 - last_drop_prob) = 1.5 / 0.5 = 3.0
        rate, acc = pi_update(10.0, 0.5, 1.5, 1.0, *GAINS)
        assert rate == 3.0
        assert acc == 10.0

    def test_accumulator_resumes_after_clamp(self):
        # once the raw value re-enters the band the integral moves again
        _, acc = pi_update(0.0, 0.0, 0.5, 1.0, *GAINS)
        rate, acc = pi_update(acc, 0.0, 2.0, 1.0, *GAINS)
        assert rate == 0.5  # acc = 0 + 0.5 * 1.0
        assert acc == 0.5


class TestDropProbFromRate:
    def test_fresh_dropper(self):
        assert drop_prob_from_rate(0.25, 1.0, 0.0) == 0.25

    def test_composes_with_previous_thinning(self):
        # (1 - 0.5) * 0.2 / 0.8 = 0.125
        assert drop_prob_from_rate(0.2, 0.8, 0.5) == 0.125

    def test_zero_rate_keeps_previous(self):
        assert drop_prob_from_rate(0.3, 0.0, 0.42) == 0.42
        assert drop_prob_from_rate(0.3, -1.0, 0.42) == 0.42

    def test_clamped_to_unit_interval(self):
        assert drop_prob_from_rate(5.0, 1.0, 0.0) == 1.0
        assert drop_prob_from_rate(-1.0, 1.0, 0.3) == 0.0


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
