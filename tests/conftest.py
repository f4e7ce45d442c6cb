"""Shared fixtures plus one pass/fail line per acceptance criterion."""

import threading
import time

import numpy as np
import pytest

from gpprec import linalg

_ACCEPTANCE_RESULTS = []


def record_criterion(number: int, title: str, passed: bool, detail: str = ""):
    _ACCEPTANCE_RESULTS.append((number, title, passed, detail))


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(key=20_240_901))


class SlowPhilox:
    """A stand-in for ``_philox`` whose one generator counts its fills and slows each.

    A fill sleeps 0.1 s before it draws, slow enough that a stream closed
    after its first block finds its next fill queued or running.
    """

    def __init__(self):
        self.seeds = []
        self.started = self.finished = 0
        self.threads = threading.active_count()

    def __call__(self, seed):
        self.seeds.append(seed)
        self.generator = np.random.Generator(np.random.Philox(key=seed))
        return self

    def standard_normal(self, out):
        self.started += 1
        time.sleep(0.1)
        self.generator.standard_normal(out=out)
        self.finished += 1
        return out

    def assert_idle_after_close(self):
        """No fill of the closed stream runs, or will run, and no thread but the fill thread was added."""
        assert len(self.seeds) == 1
        started = self.started
        assert started == self.finished and started in (1, 2)
        # A fill queued behind any left over runs only after it.
        linalg._FILLS.submit(int).result(60)
        assert self.started == self.finished == started
        assert threading.active_count() <= self.threads + 1


@pytest.fixture
def slow_philox():
    return SlowPhilox()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("=", "acceptance criteria")
    for number, title, passed, detail in sorted(_ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"criterion {number:2d} [{status}] {title}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
