"""Output checks that do not trust the code they check.

Conservation sums the switch's ledger itself and compares the CSV's
end-of-run rows with it; the ramp-length oracle solves the backlog
quadratic in exact rational arithmetic instead of scanning it the way
`initial_period` does.
"""

from __future__ import annotations

import math
from fractions import Fraction

# Switch.conservation() field -> end-of-run CSV metric
LEDGER_ROWS = {
    "injected": "injected_bytes_total",
    "ingress_dropped": "ingress_drop_bytes_total",
    "fabric_dropped": "fabric_drop_bytes_total",
    "egress_dropped": "egress_drop_bytes_total",
    "delivered": "delivered_bytes_total",
    "resident": "resident_bytes_total",
}
OUTCOMES = ("ingress_dropped", "fabric_dropped", "egress_dropped",
            "delivered", "resident")

# acceptance criterion 1: closed form vs recurrence past the ramp
MAX_REL_DEVIATION = 1e-9


def conservation_problems(series, ledger: dict[int, dict]) -> list[str]:
    """Every way a run breaks exact per-flow byte conservation.

    `ledger` is `Switch.conservation()` of the run, `series` its output or
    the output read back from the CSV. Each flow's ledger must balance
    (injected = every outcome plus what is still resident), and each
    `*_total` row must equal the ledger byte for byte, so bytes moved from
    one outcome to another in the CSV are caught even though the rows
    still sum up.
    """
    rows: dict[tuple[int, str], float] = {}
    for r in series.records:
        if r.metric.endswith("_total"):
            rows[(r.flow, r.metric)] = r.value
    problems = []
    row_flows = sorted({flow for flow, _ in rows})
    if row_flows != sorted(ledger):
        problems.append(f"CSV ledger rows cover flows {row_flows}, "
                        f"the switch ledger {sorted(ledger)}")
    for fid in sorted(ledger):
        led = ledger[fid]
        outcomes = sum(led[field] for field in OUTCOMES)
        if led["injected"] != outcomes or not led["balanced"]:
            problems.append(f"flow {fid}: {led['injected']} bytes injected, "
                            f"{outcomes} accounted for")
        for field, metric in LEDGER_ROWS.items():
            value = rows.get((fid, metric))
            if value != led[field]:
                problems.append(f"flow {fid}: {metric} is {value} in the CSV, "
                                f"{led[field]} in the switch ledger")
    return problems


def oracle_n0(lam: float, ropt: float, sc: float, gain_p: float,
              gain_i: float) -> int:
    """Ramp length n0 = m + 1 for the smallest m >= 0 with q_m <= 0.

    Starts from the positive root of the backlog quadratic
    -(K_I g / 2) m^2 + (e - K g - K_I g / 2) m + e = 0, with e = lam - sc
    and g = sc - r_opt, then moves to the integer by evaluating q_m exactly
    on the rationals the float inputs stand for. The quadratic is concave
    with q_0 = e > 0, so no earlier crossing exists. Zero when lam <= sc.
    """
    e = Fraction(lam) - Fraction(sc)
    if e <= 0:
        return 0
    g = Fraction(sc) - Fraction(ropt)
    k = Fraction(gain_p)
    ki = Fraction(gain_i)

    def backlog(m: int) -> Fraction:
        # q_m / T: the interval length is positive and cannot change the sign
        return (m + 1) * e - m * k * g - Fraction(m * (m + 1), 2) * ki * g

    a = float(ki * g / 2)
    b = float(e - k * g - ki * g / 2)
    root = (b + math.sqrt(b * b + 4.0 * a * float(e))) / (2.0 * a)
    m = max(0, int(root))
    while backlog(m) > 0:
        m += 1
    while m > 0 and backlog(m - 1) <= 0:
        m -= 1
    return m + 1


def closed_form_deviation(lam: float, ropt: float, closed: list[float],
                          recurrence: list[float], n0: int) -> float:
    """Worst relative deviation from one interval past the ramp onwards.

    Acceptance criterion 1's measure: |closed - rec| / max(|rec|, lam - r_opt).
    """
    if len(closed) != len(recurrence):
        return math.inf
    scale = lam - ropt
    worst = 0.0
    for n in range(n0 + 1, len(recurrence)):
        rec = recurrence[n]
        worst = max(worst, abs(closed[n] - rec) / max(abs(rec), scale))
    return worst
