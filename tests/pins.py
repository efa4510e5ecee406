"""Every exactly pinned value of foqsim, in one place.

Tier-1 tests import their tables from here, and CI runs this file on the
traced benchmark output. Pytest does not collect it. Every check reports
each pin that moved as a line `<pin name>: pinned <old>, read <new>`, all
pins of one check in one message, so that a moved value cannot hide
another. The pin name is where the value sits in this file.

A change that moves a pin edits it here and records each of those lines in
CHANGES.md with its reason. To check the traced pins of one workload:

    python3 bench/run.py --workload tcp_staged --seed 1 --seconds 0 --trace 1 > traced.txt
    python tests/pins.py tcp_staged traced.txt

The script exits 1, after printing every moved pin, if any moved.
"""

import sys

# SHA-256 of `run` CSV output for each shipped config at its shipped seed
# and for each inline config (INLINE in tests/test_acceptance.py): the
# cross-commit behavioural contract; a change that moves one keeps
# criteria 4 and 5
GOLDEN_DIGESTS = {
    "cbr_scaled":
        "d9df36892c33a18d975e339d4af0534a27374cf44c527562e794fed4dab9498d",
    "cbr_scaled_nofoq":
        "9b9d022d88a351abf05a621de837d694ad243146b2af1262bf1ffb78cecdecdd",
    "tcp_scaled":
        "4253ee71cda1d01eaf87513fac3735148e15c10f737ec17cda26ad5204169cd6",
    "tcp_scaled_nofoq":
        "330dbc27ea0138b54fa3679971aeada3ede6215b5eaa6b341d0a531b792c40d5",
    "inline_gearbox":
        "befd6c489f94f8ed5180fe3fd1bf3c930615a5fdd20876a35c6189a6f98a075f",
    "inline_pi":
        "1d770c247226eed6e9e7eca6949f15f88ec8c0290b027d774737af56ce7cba5c",
}

# What the TCP sources of each shipped TCP config did at its seed, summed
# over every source and access link: segments sent (retransmits not
# counted), retransmits, timeouts, and bytes the access links dropped. The
# CSV leaves these out, so the golden digests cannot pin them.
TCP_COUNTS = {
    "tcp_scaled": (128_012, 30_764, 19_657, 670_904),
    "tcp_scaled_nofoq": (128_054, 30_782, 19_947, 670_904),
}

# SHA-256 of each tests/test_corpus.py entry's CSV at its seed, and its TCP
# counts (as that file's tcp_counts gives them) where it has TCP: the
# paths the shipped configs leave out
CORPUS_DIGESTS = {
    0: "25e23bddfb23331a801598bf68b6560a8cd37c80b0549d5971af9d81f6e7a806",
    1: "159b039794bd3ac261b1fe80d72868c959c5e0e667b7da5d1164efce7aabfc90",
    2: "370be93094ee5a4195f616dda1af19e02b46ea11f8b1d5d63fe4a5fe2b2a23f8",
    3: "0759d102dcf664aeba7d0543b20ba4db368be03a409a6f4d080b4e5d61f3e05c",
    4: "7606d86455caae9955b86198cf5d9696fe671e6ba6f04465dc3fd482ca6735c6",
    5: "ab7a4e0dbc0983e2071ea9ea6b2078bbb51135ca4cc222c0578bfeb959393e8f",
    6: "50144d0cc91d5c537932815a0f7d78505accad5d47ae730a586a47cfd1e57ef8",
    7: "2411d19aeb58521d57d5de60cd39252d8d108ab55fc541efd48efba3fe600171",
    8: "40994159a5feca16383e1725f4494801d88a9ec31a081ceebb5d010a6087012f",
    9: "ce4ffd9495a7ab462c5c4cc8e77eebd78fd8a601cf1c5b7837574d6794bdc0f0",
    10: "9bfe4586a740cf1501cec4fd3d553ab8bb16b635ea420949eefd53721ad93b85",
    11: "682207af9c3228dec5120a3f9f6877e5c3015cd71ad6e6fd62a1dfed6324aed0",
    12: "e2aca9d7c6f5cae31c4ac764252cee012010aeec1e4462e098112c2ef4d5c292",
    13: "9d91173076d47419548689b2f7d12f332c27b6ea973402ba6e78d30595ee324f",
    14: "3d31af59f1e277e14464baad3036d5be5759a892a84981803d8cdffbaae8c126",
    15: "2a5c56563dafe046b44c23cdafa0e0602ab430f65506dd95179793f10660fd16",
    16: "9bc15f10577926cbbab2c86e054ea9a0e713d4ebffb629b349cc90f72ec0600f",
    17: "e26516429d5d0bd156ddc1e94feadacfa09192a5b41e1f734a1366611afc2031",
    18: "60019b16bb7337dffc48d1b8b6d473d4b9abcacbcbb61ba40d156615119496db",
    19: "beafa45ee54fdb0f5924c10bd140648c45d3c2e5aa3dd5681de988171dee875f",
    20: "bb2a364a5aeadfb9b22b83bfc5ecced2e42b447e5d325e948ee808e7216786d0",
    21: "e9227d31e11a31ad4c8dfafa94845313a4f48cc18a88518da780578508aa4065",
    22: "c77829133d00e05803495569741c917ee9c9fc6d89c0e62e8a598fde6546491d",
    23: "b80028bce0cb727278f0d527bfa584fa43be7b0d491768ea79d0636371b872b0",
}
CORPUS_TCP_COUNTS = {
    3: (82, 12, 2, 0),
    7: (116, 10, 2, 0),
    11: (50, 8, 2, 0),
    15: (525, 45, 0, 13500),
    19: (245, 20, 1, 0),
    23: (65, 10, 6, 1500),
}

# SHA-256 of `foqsim analyze` output at --lambda 2 --ropt 0.9 --sc 1 and
# these gains, pinned on the list-of-floats solver: the README example with
# and without the recurrence, and unstable gains (one with a proportional
# term) that only the recurrence answers
ANALYZE_DIGESTS = {
    ("--k", "0", "--ki", "0.5", "--horizon", "50"):
        "b55f5801044ddd720d13405e8a2845a0a31c3449b299581cb7fcfaec162847a0",
    ("--k", "0", "--ki", "0.5", "--horizon", "50", "--recurrence"):
        "3ac525f4060027ddf1618ffeaab1cb14bd23b2ba681977f003586ed9c3fac9ab",
    ("--k", "0", "--ki", "2.5", "--horizon", "60", "--recurrence"):
        "e17a9e43a377ca6e81208d49732ccfe32508cd3e08d435159cd5aa74fff9921d",
    ("--k", "0.3", "--ki", "1.6", "--horizon", "60", "--recurrence"):
        "f299f9b054b8b2180381655190817e19231eac915ae7d0a2561856d9cfe22276",
}

# Lines of `bench/run.py --workload <w> --seed 1 --seconds 0 --trace 1`,
# as it prints them. A handler the tracer cannot classify, an event added
# or lost by the kernel, a handler, the drain, the line or the scheduler, a
# controller decision that stopped going through its traced step
# (foqsim.switch.gb_signal_from_congestion, foqsim.switch.pi_update), a
# sampler that ran more or fewer steps or ticks, a control application per
# decision instead of one per tick, any series row written with `append`
# instead of in a block, an analytic step (initial period, trajectory,
# closed form, recurrence) called more or fewer times, a ramp scan of
# another length, or one changed output byte moves one of these. A
# boundary the run never saw is printed as absent with the value 0.
TRACED = {
    "tcp_staged": {
        "output_digest": GOLDEN_DIGESTS["tcp_scaled"],
        "events.unclassified.fired": 0,
        "events.fired": 589363,
        "events.at.calls": 594905,
        "switch.sample.calls": 1000,
        "control.gb_signal.calls": 1000,
        "control.apply.fired": 549,
        # 1,006 until the sampler wrote a tick's rel_cong rows, and the run
        # totals, as one extend each; held at 0 so that a per-row write
        # cannot come back
        "timeseries.append.calls": 0,
    },
    "wide_cbr_pi": {
        "output_digest":
            "243a65c3de941ff8a2e4f6950b63447130dbb747ec14d0fdd154e84294e79d4f",
        "events.unclassified.fired": 0,
        # one control application per sampler tick that decides, not one
        # per decision: 10,238 fewer events and at calls, and 90 fewer
        # pending at the peak (210,123, 210,273 and 253 before)
        "events.fired": 200085,
        "events.at.calls": 200235,
        "events.heap_peak": 163,
        # one sampler call per tick for all 128 queues (25,600 before)
        "switch.sample.calls": 200,
        "control.pi_update.calls": 10238,
        # one application per tick, each setting every decision of its
        # tick (10,238 before)
        "control.apply.fired": 200,
        # as on tcp_staged (11,989 before)
        "timeseries.append.calls": 0,
    },
    "analyze_sweep": {
        "output_digest":
            "1052e8e3c66f35c668e85f47658998aad25415964395dc4e75ffc5e9a9b611cb",
        # the analytic solver runs no simulation
        "events.fired": 0,
        "analytic.initial_period.calls": 306,
        "analytic.queue_trajectory.calls": 300,
        "analytic.closed_form.calls": 300,
        "analytic.recurrence.calls": 300,
        # the ramp lengths n0, summed over every scenario
        "analytic.ramp_intervals": 26037129,
    },
}
# Traced lines held under a bound, not an exact value: tcp_staged's event
# queue high-water mark is 6208 at seed 1, with a backed-off timer event
# pushed one RTO out, and stays within 5% of that, so timer entries that
# pile up per source fail
TRACED_AT_MOST = {
    "tcp_staged": {"events.heap_peak": 6518},
}


def moved(*pins) -> list[str]:
    """One `<pin name>: pinned <old>, read <new>` line for each
    (name, pinned, read) triple whose read value is not its pinned one."""
    return [f"{name}: pinned {old}, read {new}"
            for name, old, new in pins if new != old]


def check(*pins):
    """Fail with every moved pin among the (name, pinned, read) triples of
    one check, in one message."""
    lines = moved(*pins)
    if lines:
        raise AssertionError("\n".join(lines))


def traced_moved(workload: str, text: str) -> list[str]:
    """The moved-pin lines of one workload's traced output `text`, whose
    lines are `<name> <value> [unit]`; a name printed twice counts at its
    last line, and one never printed reads as absent."""
    read = {}
    for line in text.splitlines():
        fields = line.split()
        if len(fields) >= 2:
            read[fields[0]] = fields[1]
    lines = moved(*[(f"TRACED[{workload!r}][{name!r}]", str(value),
                     read.get(name, "absent"))
                    for name, value in TRACED[workload].items()])
    for name, most in TRACED_AT_MOST.get(workload, {}).items():
        value = read.get(name, "absent")
        if not (value.isdigit() and int(value) <= most):
            lines.append(f"TRACED_AT_MOST[{workload!r}][{name!r}]: "
                         f"pinned at most {most}, read {value}")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[0] not in TRACED:
        print(f"usage: python tests/pins.py {{{','.join(TRACED)}}} "
              "TRACED_OUTPUT", file=sys.stderr)
        return 2
    workload, path = argv
    with open(path, encoding="utf-8") as fh:
        lines = traced_moved(workload, fh.read())
    for line in lines:
        print(line)
    if lines:
        return 1
    held = len(TRACED[workload]) + len(TRACED_AT_MOST.get(workload, {}))
    print(f"{workload}: all {held} traced pins hold")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
