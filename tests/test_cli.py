"""CLI tests: exit codes, output routing, CSV shapes for run, analyze and
validate."""

import hashlib
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import foqsim
from foqsim.analytic import StepScenario, queue_at
from foqsim.cli import STABILITY_MSG, main
from foqsim.timeseries import COLUMNS, TimeSeries
from pins import ANALYZE_DIGESTS, check

TINY = """\
switch.num_ports = 2
switch.line_rate = 1e6
switch.speedup = 1.28
switch.fabric_memory = 50000
switch.out_queue_size = 50000
switch.feedback.mode = gearbox
switch.feedback.interval = 10e-3
flow.1.class = assured
source.0.kind = cbr
source.0.flow = 1
source.0.ingress = 0
source.0.egress = 1
source.0.packet_size = 500
source.0.rate = 2e6
experiment.duration = 0.3
experiment.seed = 1
"""


# 100,000 report windows over two queues: about 1.3 million rows, over 60 MB
# even in the columnar store
LONG = """\
switch.num_ports = 2
switch.line_rate = 1e6
switch.speedup = 1.28
switch.fabric_memory = 50000
switch.out_queue_size = 50000
switch.report_interval = 10e-6
flow.0.class = assured
flow.1.class = besteffort
""" + "".join(f"""\
source.{port}.kind = cbr
source.{port}.flow = {port}
source.{port}.ingress = {port}
source.{port}.egress = {port}
source.{port}.packet_size = 500
source.{port}.rate = 4e5
""" for port in (0, 1)) + "experiment.duration = 1.0\n"

# the address space a child may add after its imports
RUN_BUDGET = 16 << 20

needs_statm = pytest.mark.skipif(
    not Path("/proc/self/statm").exists(),
    reason="reads the address-space size from /proc")


def run_capped(*args):
    """Run the CLI in a child whose address space is capped at its size after
    the imports plus RUN_BUDGET."""
    child = (
        "import resource, sys\n"
        "from foqsim.cli import main\n"
        "with open('/proc/self/statm') as fh:\n"
        "    size = int(fh.read().split()[0]) * resource.getpagesize()\n"
        f"cap = size + {RUN_BUDGET}\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, cap))\n"
        "sys.exit(main(sys.argv[1:]))\n")
    env = dict(os.environ, PYTHONPATH=str(Path(foqsim.__file__).parents[1]))
    return subprocess.run([sys.executable, "-c", child, *args],
                          capture_output=True, text=True, env=env, timeout=300)


@pytest.fixture
def tiny_cfg(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY)
    return str(path)


@pytest.fixture
def bad_cfg(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text(TINY.replace("switch.speedup = 1.28",
                                 "switch.speedup = 0.5"))
    return str(path)


@pytest.fixture
def broken_cfg(tmp_path):
    path = tmp_path / "broken.cfg"
    path.write_text("this is not a pair\n")
    return str(path)


class TestValidate:
    def test_ok(self, tiny_cfg, capsys):
        assert main(["validate", tiny_cfg]) == 0
        assert capsys.readouterr().out == "ok\n"

    def test_violations_on_stdout(self, bad_cfg, capsys):
        assert main(["validate", bad_cfg]) == 1
        captured = capsys.readouterr()
        assert "switch.speedup: must exceed 1" in captured.out
        assert captured.err == ""

    def test_syntax_error_on_stderr(self, broken_cfg, capsys):
        assert main(["validate", broken_cfg]) == 2
        captured = capsys.readouterr()
        assert "line 1: expected 'key = value'" in captured.err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["validate", str(tmp_path / "nope.cfg")]) == 2
        assert capsys.readouterr().err != ""


class TestRun:
    def test_csv_on_stdout(self, tiny_cfg, capsys):
        assert main(["run", tiny_cfg]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == ",".join(COLUMNS)
        series = TimeSeries.from_csv(out)
        assert len(series) > 0
        assert {r.metric for r in series.records} >= {
            "rel_cong", "throughput_bps", "delivered_bytes_total"}

    def test_out_file(self, tiny_cfg, tmp_path, capsys):
        target = tmp_path / "series.csv"
        assert main(["run", tiny_cfg, "--out", str(target)]) == 0
        assert capsys.readouterr().out == ""
        series = TimeSeries.from_csv(target.read_text())
        assert len(series) > 0

    def test_deterministic_per_seed(self, tiny_cfg, capsys):
        main(["run", tiny_cfg])
        first = capsys.readouterr().out
        main(["run", tiny_cfg])
        assert capsys.readouterr().out == first
        main(["run", tiny_cfg, "--seed", "2"])
        assert capsys.readouterr().out != first

    def test_config_violations(self, bad_cfg, capsys):
        assert main(["run", bad_cfg]) == 1
        assert "switch.speedup" in capsys.readouterr().err

    def test_syntax_error(self, broken_cfg, capsys):
        assert main(["run", broken_cfg]) == 2
        assert "line 1" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "nope.cfg")]) == 2
        assert capsys.readouterr().err != ""

    def test_unwritable_out_refused(self, tiny_cfg, tmp_path, capsys):
        # exit 2, as for an unreadable config: 1 means config violations
        target = tmp_path / "no_such_dir" / "series.csv"
        assert main(["run", tiny_cfg, "--out", str(target)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{target}: No such file or directory\n"

    @needs_statm
    def test_long_run_streams_in_bounded_memory(self, tmp_path):
        # The child caps its address space at its size after the imports
        # plus RUN_BUDGET, well under what the run's rows would take if they
        # were held until the end: only a run that writes them to --out as
        # they are produced finishes.
        cfg = tmp_path / "long.cfg"
        cfg.write_text(LONG)
        out = tmp_path / "long.csv"
        proc = run_capped("run", str(cfg), "--out", str(out))
        assert proc.returncode == 0, proc.stderr[-2000:]
        with open(out) as fh:
            assert next(fh) == ",".join(COLUMNS) + "\n"
            rows = sum(1 for _ in fh)
        # a float pair and four references: 48 bytes a row in the store
        assert rows * 48 > 3 * RUN_BUDGET


def analyze(*extra):
    return ["analyze", "--k", "0", "--ki", "0.5", "--lambda", "2",
            "--ropt", "0.9", "--sc", "1", *extra]


class TestAnalyze:
    @pytest.mark.parametrize("gains", ANALYZE_DIGESTS)
    def test_golden_digest(self, gains, capsys):
        args = ["analyze", "--lambda", "2", "--ropt", "0.9", "--sc", "1",
                *gains]
        assert main(args) == 0
        out = capsys.readouterr().out
        check((f"ANALYZE_DIGESTS[{gains!r}]", ANALYZE_DIGESTS[gains],
               hashlib.sha256(out.encode()).hexdigest()))

    @needs_statm
    def test_long_horizon_streams_in_bounded_memory(self, tmp_path):
        # 100,000 rows of three columns under a RUN_BUDGET cap. Streamed
        # from array('d') columns they need about 10 MiB of it; held whole in
        # an io.StringIO, with the columns as lists of floats, they needed
        # about 29 MiB and the child ran out of memory.
        out = tmp_path / "long.csv"
        proc = run_capped("analyze", "--k", "0.1", "--ki", "1e-6",
                          "--lambda", "2", "--ropt", "0.9", "--sc", "1",
                          "--horizon", "100000", "--recurrence",
                          "--out", str(out))
        assert proc.returncode == 0, proc.stderr[-2000:]
        with open(out) as fh:
            lines = fh.read().splitlines()
        assert len(lines) == 100_002
        assert lines[-1].split(",")[0] == "99999"
        assert "" not in lines[-1].split(",")

    def test_stable_csv_shape(self, capsys):
        assert main(analyze("--horizon", "50")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# z1=0.5 z2=0.0 n0=")
        assert lines[1] == "n,rho_closed,rho_recurrence,q_n"
        assert len(lines) == 52
        n, closed, rec, q = lines[2].split(",")
        assert n == "0"
        assert float(closed) >= 0.0
        assert rec == ""  # recurrence column empty unless requested
        float(q)

    def test_queue_column_stops_at_n0(self, capsys):
        # q_n models the ramp's backlog: it ends at row n0 - 1, where it is
        # <= 0 by the definition of n0, and is blank from n0 on
        assert main(analyze("--horizon", "50")) == 0
        lines = capsys.readouterr().out.splitlines()
        assert " n0=42 " in lines[0]
        scenario = StepScenario(arrival_rate=2.0, desired_rate=0.9,
                                fabric_capacity=1.0, gain_p=0.0, gain_i=0.5)
        q = [line.split(",")[3] for line in lines[2:]]
        assert q[:42] == [repr(queue_at(scenario, n)) for n in range(42)]
        assert float(q[41]) <= 0.0 < float(q[40])
        assert q[42:] == [""] * 8

    def test_long_ramp_is_bounded_by_the_horizon(self):
        # K_I = 1e-9 gives a ramp of about 1.6e9 intervals, which the command
        # must answer within the horizon's memory. It runs in a child process
        # capped at 1 GiB of address space, so a regression fails the test
        # instead of filling the host's memory.
        def cap():
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

        args = ["analyze", "--k", "0", "--ki", "1e-9", "--lambda", "1.08",
                "--ropt", "0.9", "--sc", "1", "--horizon", "20", "--recurrence"]
        env = dict(os.environ, PYTHONPATH=str(Path(foqsim.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from foqsim.cli import main; sys.exit(main(sys.argv[1:]))",
             *args],
            capture_output=True, text=True, env=env, preexec_fn=cap, timeout=60)
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.splitlines()
        assert int(lines[0].split("n0=")[1].split()[0]) > 1.5e9
        assert len(lines) == 22

    def test_recurrence_column(self, capsys):
        assert main(analyze("--horizon", "50", "--recurrence")) == 0
        lines = capsys.readouterr().out.splitlines()
        rows = [line.split(",") for line in lines[2:]]
        assert all(row[2] != "" for row in rows)
        # closed form and recurrence agree after the initial period
        tail = [(float(r[1]), float(r[2])) for r in rows[-10:]]
        for closed, rec in tail:
            assert closed == pytest.approx(rec, rel=1e-9, abs=1e-12)

    def test_poles_only_format(self, capsys):
        assert main(analyze("--poles-only")) == 0
        assert capsys.readouterr().out == "z1=0.5 z2=0.0 stable=True\n"

    def test_unstable_refused_without_recurrence(self, capsys):
        args = ["analyze", "--k", "0", "--ki", "2.5", "--lambda", "2",
                "--ropt", "0.9", "--sc", "1"]
        assert main(args) == 1
        assert STABILITY_MSG in capsys.readouterr().err

    def test_unstable_with_recurrence(self, capsys):
        args = ["analyze", "--k", "0", "--ki", "2.5", "--lambda", "2",
                "--ropt", "0.9", "--sc", "1", "--horizon", "30",
                "--recurrence"]
        assert main(args) == 0
        lines = capsys.readouterr().out.splitlines()
        assert " a1=nan " in lines[0]
        rows = [line.split(",") for line in lines[2:]]
        assert all(row[1] == "" for row in rows)  # no closed form
        assert all(row[2] != "" for row in rows)

    def test_unstable_ramp_that_never_ends_refused(self, tmp_path, capsys):
        # K_I < 0 with an overload: the fabric backlog never drains, so the
        # ramp has no end; this used to end in a traceback with exit 1
        args = ["analyze", "--k", "0", "--ki", "-0.5", "--lambda", "2",
                "--ropt", "0.9", "--sc", "1", "--horizon", "5",
                "--recurrence"]
        assert main(args) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == ("analyze: fabric queue never drains; "
                           "check the gains\n")
        # the refusal comes before --out is opened
        target = tmp_path / "never.csv"
        assert main([*args, "--out", str(target)]) == 2
        assert not target.exists()

    def test_invalid_scenario(self, capsys):
        args = ["analyze", "--k", "0", "--ki", "0.5", "--lambda", "2",
                "--ropt", "1.5", "--sc", "1"]
        assert main(args) == 2
        assert capsys.readouterr().err.startswith("analyze:")

    @pytest.mark.parametrize("flag, value", [
        ("--lambda", "nan"), ("--lambda", "inf"), ("--interval", "nan"),
        ("--k", "inf"), ("--ki", "nan"), ("--ropt", "-inf"), ("--sc", "nan"),
    ])
    def test_non_finite_number_refused(self, flag, value, capsys):
        # nan and inf used to end in a traceback (ValueError, OverflowError)
        # or in a column of nan with exit 0
        assert main(analyze(f"{flag}={value}")) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"analyze: {flag} must be finite\n"

    @pytest.mark.parametrize("horizon", ["0", "-3"])
    def test_empty_horizon_refused(self, horizon, capsys):
        # used to print only the header, with exit 0
        assert main(analyze(f"--horizon={horizon}")) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "analyze: --horizon must be at least 1\n"

    def test_poles_only_ignores_the_horizon(self, capsys):
        assert main(analyze("--horizon=0", "--poles-only")) == 0
        assert capsys.readouterr().out == "z1=0.5 z2=0.0 stable=True\n"

    @pytest.mark.parametrize("rate", ["--lambda=0", "--ropt=1.5"])
    def test_poles_only_ignores_the_rates(self, rate, capsys):
        # the poles depend on the gains alone; the invalid scenario these
        # rates make used to be built first and refused with exit 2
        assert main(analyze(rate, "--poles-only")) == 0
        assert capsys.readouterr().out == "z1=0.5 z2=0.0 stable=True\n"

    def test_poles_only_refuses_negative_gain_p(self, capsys):
        assert main(analyze("--k=-0.1", "--poles-only")) == 2
        assert capsys.readouterr().err == "analyze: gain_p must be non-negative\n"

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "resp.csv"
        assert main(analyze("--horizon", "10", "--out", str(target))) == 0
        assert capsys.readouterr().out == ""
        assert target.read_text().splitlines()[1] == \
            "n,rho_closed,rho_recurrence,q_n"

    @pytest.mark.parametrize("extra", [(), ("--poles-only",)])
    def test_unwritable_out_refused(self, extra, tmp_path, capsys):
        assert main(analyze("--out", str(tmp_path), *extra)) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"{tmp_path}: Is a directory\n"


# each refusal of run and analyze, with the exit code it ends in; {name} is
# the path of that config
REFUSALS = [
    pytest.param(["run", "{bad_cfg}"], 1, id="config-violation"),
    pytest.param(["run", "{broken_cfg}"], 2, id="syntax-error"),
    pytest.param(["run", "{missing_cfg}"], 2, id="missing-config"),
    pytest.param(analyze("--lambda=nan"), 2, id="non-finite"),
    pytest.param(analyze("--horizon=0"), 2, id="empty-horizon"),
    pytest.param(analyze("--ropt=1.5"), 2, id="invalid-scenario"),
    pytest.param(analyze("--k=-0.1"), 2, id="negative-k"),
    pytest.param(analyze("--k=-0.1", "--poles-only"), 2,
                 id="negative-k-poles-only"),
    pytest.param(analyze("--ki=2.5"), 1, id="unstable"),
    pytest.param(analyze("--ki=-0.5", "--horizon=5", "--recurrence"), 2,
                 id="ramp-never-ends"),
]


@pytest.mark.parametrize("argv, code", REFUSALS)
def test_refusal_writes_nothing(argv, code, bad_cfg, broken_cfg, tmp_path,
                                capsys):
    # a command refuses before it opens its output: the reason goes to
    # stderr, and neither stdout nor the --out file gets a byte
    paths = {"bad_cfg": bad_cfg, "broken_cfg": broken_cfg,
             "missing_cfg": str(tmp_path / "nope.cfg")}
    target = tmp_path / "out.csv"
    argv = [arg.format(**paths) for arg in argv]
    assert main([*argv, "--out", str(target)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err != ""
    assert not target.exists()
