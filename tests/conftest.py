"""Shared fixtures, and the in-process runner of the command line."""

import contextlib
import io
import signal
from dataclasses import dataclass

import pytest

from lasw.cli import main


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


@dataclass(frozen=True)
class CliResult:
    """exit_code as the shell sees it; output is stdout followed by stderr;
    exception is the SystemExit, or other exception, that ended the call."""

    exit_code: int
    output: str
    stderr: str
    exception: BaseException | None


def run_cli(args) -> CliResult:
    """`lasw <args>` in this process, with stdout and stderr captured."""
    stdout, stderr = io.StringIO(), io.StringIO()
    exception = None
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(list(args))
            code = 0
        except SystemExit as err:
            exception, code = err, err.code if isinstance(err.code, int) else int(err.code is not None)
        except Exception as err:  # an unhandled error: a traceback with exit 1 in a shell
            exception, code = err, 1
    return CliResult(code, stdout.getvalue() + stderr.getvalue(), stderr.getvalue(), exception)
