"""Shared test helpers."""

from __future__ import annotations

import os
import signal
from contextlib import contextmanager
from typing import Optional

import refinedgeo

_LIBRARY = os.path.dirname(os.path.abspath(refinedgeo.__file__))


def innermost_library_frame(frame) -> Optional[str]:
    """Where the library was when ``frame`` ran: "file:line in function"
    for the innermost frame of the chain in a ``refinedgeo`` module, with
    the file relative to the package's parent; None when there is none."""
    while frame is not None:
        path = os.path.abspath(frame.f_code.co_filename)
        if os.path.dirname(path) == _LIBRARY:
            where = os.path.relpath(path, os.path.dirname(_LIBRARY))
            return f"{where}:{frame.f_lineno} in {frame.f_code.co_name}"
        frame = frame.f_back
    return None


@contextmanager
def deadline(seconds: int, what: str):
    """Raise ``TimeoutError`` naming ``what`` when the block runs past
    ``seconds``, so that a hang fails its test instead of stalling the
    suite.  The message names the innermost ``refinedgeo`` frame that was
    running, so a hang shows its layer.  Uses ``SIGALRM`` and restores the
    previous handler."""

    def expire(signum, frame):
        where = innermost_library_frame(frame)
        at = f"the library was at {where}" if where else "no refinedgeo frame was running"
        raise TimeoutError(f"{what} took over {seconds} s; {at}")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
