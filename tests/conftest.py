"""Shared fixtures."""

import signal

import pytest


@pytest.fixture
def no_hang():
    """Fail a test whose call does not return within 10 s, rather than hang the suite."""
    def expire(signum, frame):
        raise TimeoutError("the call did not return within 10 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(10)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)
