"""The shared test deadline names the library layer that was running when
it fired."""

from __future__ import annotations

import inspect
import signal

import pytest

from conftest import deadline
from refinedgeo import cells
from refinedgeo.cells import Cell
from refinedgeo.linalg import AffineFunctional, Carrier, Vec


def test_deadline_names_the_innermost_library_frame(monkeypatch):
    """A hook in place of ``cells._clip`` raises the alarm itself, so the
    handler runs while ``Cell._init`` waits on the clip, with no timer to
    race.  The hook's own frame is not the library's; the message names
    the caller's file, line and function."""
    real = cells._clip

    def hook(*args):
        signal.raise_signal(signal.SIGALRM)
        return real(*args)

    monkeypatch.setattr(cells, "_clip", hook)
    previous = signal.getsignal(signal.SIGALRM)
    lines, first = inspect.getsourcelines(Cell._init)
    line = first + next(i for i, text in enumerate(lines) if "_clip(" in text)
    with pytest.raises(TimeoutError) as info:
        with deadline(60, "a half-plane cell"):
            Cell(Carrier.full(2), [AffineFunctional(Vec(1, 0), 0)])
    assert str(info.value) == (
        f"a half-plane cell took over 60 s; the library was at refinedgeo/cells.py:{line} in _init"
    )
    assert signal.getsignal(signal.SIGALRM) is previous and signal.alarm(0) == 0


def test_deadline_outside_the_library():
    with pytest.raises(TimeoutError) as info:
        with deadline(60, "test code"):
            signal.raise_signal(signal.SIGALRM)
    assert str(info.value) == "test code took over 60 s; no refinedgeo frame was running"
