import sys

import hypothesis
import numpy as np
import pytest

import jsam.cli
from jsam.costs import UniformCosts
from jsam.mechanism import ServerConfig

hypothesis.settings.register_profile(
    "ci", max_examples=40, deadline=None,
    suppress_health_check=[hypothesis.HealthCheck.too_slow])
hypothesis.settings.load_profile("ci")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # acceptance verdicts go to the summary, which capture never swallows
    mod = sys.modules.get("test_acceptance")
    if mod is not None and getattr(mod, "VERDICTS", None):
        terminalreporter.section("acceptance criteria")
        for line in mod.VERDICTS:
            terminalreporter.write_line(line)


@pytest.fixture
def uniform01():
    return UniformCosts(0.0, 1.0)


@pytest.fixture
def basic_cfg():
    return ServerConfig(eta=1.0, q_coefficient=1.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


@pytest.fixture
def no_work(monkeypatch):
    """Planning and training raise, so a test can show that a command did neither."""
    def forbidden(*args, **kwargs):
        raise AssertionError("work ran")

    monkeypatch.setattr(jsam.cli, "make_plan", forbidden)
    monkeypatch.setattr(jsam.cli, "train", forbidden)
