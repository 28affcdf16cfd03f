import tempfile

import pytest

import bsdecomp.monomial
from bsdecomp import BettiTable, betti_table, power

from reference_values import path_edge_ideal

try:
    from hypothesis import settings
    from hypothesis.configuration import set_hypothesis_home_dir
except ImportError:  # then only the tests that use Hypothesis fail
    pass
else:
    # Hypothesis's files go to a directory of the session, removed at exit,
    # not to .hypothesis/ in the checkout
    _hypothesis_home = tempfile.TemporaryDirectory(prefix="bsdecomp-hypothesis-")
    set_hypothesis_home_dir(_hypothesis_home.name)
    # one deterministic profile: each test sets only its own max_examples
    settings.register_profile("bsdecomp", derandomize=True, deadline=None, database=None)
    settings.load_profile("bsdecomp")

_acceptance_lines: list[str] = []


@pytest.fixture(scope="session")
def path_ideal():
    return path_edge_ideal()


@pytest.fixture(scope="session")
def path_tables(path_ideal):
    """Memoized beta(I^k) for the path edge ideal, shared across the session."""
    cache: dict[int, BettiTable] = {}

    def get(k: int) -> BettiTable:
        if k not in cache:
            cache[k] = betti_table(power(path_ideal, k))
        return cache[k]

    return get


@pytest.fixture
def symmetry_searches(monkeypatch):
    """The ideals ``_symmetries`` is called on, in call order."""
    searched = []
    real = bsdecomp.monomial._symmetries

    def counting(ideal):
        searched.append(ideal)
        return real(ideal)

    monkeypatch.setattr(bsdecomp.monomial, "_symmetries", counting)
    return searched


@pytest.fixture
def acceptance_report():
    def note(line: str) -> None:
        _acceptance_lines.append(line)

    return note


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
