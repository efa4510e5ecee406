"""Acceptance criteria 4 and 5 at seeds 1-16, with every bound unchanged.

Tier-1 runs both criteria at the shipped seed only; this sweep asks whether
their bands hold off it. Its name does not match `test_*.py`, so tier-1
does not collect it. Run it with

    python -m pytest tests/seed_sweep.py -q

Each (criterion, seed) measured to fail is a strict xfail whose reason is
the assertion that fails, so a seed that starts or stops failing fails the
sweep. Criterion 4 runs `cbr_scaled_nofoq` and `cbr_scaled` at the seed,
criterion 5 `tcp_scaled_nofoq` and `tcp_scaled`; the 32 TCP runs take most
of its ~40 s.
"""

import pytest

from foqsim.config import load_config
from foqsim.experiment import Experiment
from test_acceptance import CONFIGS, criterion_4_bands, criterion_5_bands

SEEDS = range(1, 17)

# criterion -> the configs whose series it judges (feedback off, then on),
# and the check
CRITERIA = {
    4: (("cbr_scaled_nofoq", "cbr_scaled"), criterion_4_bands),
    5: (("tcp_scaled_nofoq", "tcp_scaled"), criterion_5_bands),
}

_PLATEAU = ("assert ingress[0] < ingress[1] < ingress[2]: the second and "
            "third overload stages' settled ingress drop rates plateau")
FAILS = {
    # one 1 ms window at 24 ms, just past the 20 ms start-up transient,
    # drops 1,000 B of flow 2 in the fabric
    (4, 9): "assert all(v == 0 for v in late_fabric): fabric drops at 24 ms",
    (5, 4): _PLATEAU,
    (5, 6): _PLATEAU,
    (5, 9): _PLATEAU,
    (5, 12): 'assert sum(series_values(ts_on, "fabric_drop_bps", 5, 0, lo, '
             'hi)) == 0: fabric drops in the 7.6-8.0 s settled window',
}


def cases():
    for criterion in CRITERIA:
        for seed in SEEDS:
            reason = FAILS.get((criterion, seed))
            marks = () if reason is None else pytest.mark.xfail(
                strict=True, raises=AssertionError, reason=reason)
            yield pytest.param(criterion, seed, marks=marks,
                               id=f"criterion_{criterion}-seed_{seed}")


@pytest.mark.parametrize("criterion, seed", cases())
def test_criterion_at_seed(criterion, seed):
    names, check = CRITERIA[criterion]
    check(*(Experiment(load_config(CONFIGS / f"{name}.cfg"), seed=seed).run()
            for name in names))
