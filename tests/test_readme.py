"""README's code blocks run as written."""

import re
from pathlib import Path

from foqsim.config import build_experiment, parse_pairs
from foqsim.timeseries import TimeSeries

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def blocks(language) -> list[str]:
    """The bodies of README's fenced blocks in one language."""
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def test_python_block_builds_a_series_that_round_trips():
    [code] = blocks("python")
    names = {}
    exec(code, names)
    series = names["series"]
    assert len(series) == 3
    assert TimeSeries.from_csv(series.to_csv()) == series
    assert TimeSeries.from_csv(series.to_csv()).to_csv() == series.to_csv()


def test_ini_block_builds_an_experiment():
    [text] = blocks("ini")
    config = build_experiment(parse_pairs(text))
    assert config.switch.num_ports == 16
