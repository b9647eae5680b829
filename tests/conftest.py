"""Suite-wide hang guard.

Each test runs under a 120 s wall-clock watchdog: a hung simulation
loop dumps every thread's traceback to the real stderr and exits the
run instead of stalling it.  Stdlib ``faulthandler`` only, so the
guard works with plain pytest.
"""

import faulthandler
import os
import sys

import pytest

#: Per-test wall-clock cap, in seconds.
HANG_TIMEOUT_S = 120

_STDERR_FD = pytest.StashKey[int]()


def pytest_configure(config):
    # Per-test output capture redirects fd 2; keep a copy of the
    # terminal's stderr so the watchdog's traceback stays visible.
    config.stash[_STDERR_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    os.close(config.stash[_STDERR_FD])


@pytest.fixture(autouse=True)
def hang_guard(request):
    faulthandler.dump_traceback_later(
        HANG_TIMEOUT_S, exit=True, file=request.config.stash[_STDERR_FD]
    )
    yield
    faulthandler.cancel_dump_traceback_later()
