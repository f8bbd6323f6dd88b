"""Shared test helpers."""

from __future__ import annotations

import signal
from contextlib import contextmanager


@contextmanager
def deadline(seconds: int, what: str):
    """Raise ``TimeoutError`` naming ``what`` when the block runs past
    ``seconds``, so that a hang fails its test instead of stalling the
    suite.  Uses ``SIGALRM`` and restores the previous handler."""

    def expire(signum, frame):
        raise TimeoutError(f"{what} took over {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
