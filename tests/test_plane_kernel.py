"""Differential tests of the plane kernel (``cells``' edge cycles) against fm.

Every nonempty cell on a 2-dimensional carrier reads its emptiness, its
pruned constraints, its closure's boundedness and its vertices from one
exact edge cycle.  The reference is ``fm`` on the same rows: strict
feasibility, the probe loop that ``pruned`` runs on other carriers,
``fm.is_bounded`` and ``fm.vertices`` of the weak system.

The generator mixes parallel, antiparallel and duplicate rows, rows through
a vertex of two others, and few-row (unbounded) systems, and grows cells
through ``with_extra`` prefixes, so that clipping from a parent's cycle is
what gets compared.  In a scratch copy it fails when an edge whose ends lie
at infinity gets no interior vertex, when a constraint on an existing edge
does not take over its label (so the first duplicate is kept), and when a
vertex on the clipping line is treated as outside.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import deadline

from refinedgeo.cells import Cell
from refinedgeo.equidecomp import Motion
from refinedgeo.fm import LinIneq, feasible, is_bounded, vertices
from refinedgeo.linalg import AffineFunctional, Carrier, Vec
from refinedgeo.scalars import adjoin_sqrt

PLANE = Carrier.full(2)
SQRT2 = adjoin_sqrt(2)
UNITS = {
    "rational": [],
    "sqrt2-sqrt3": [SQRT2, adjoin_sqrt(3)],
    "sqrt2-nested": [SQRT2, adjoin_sqrt(2 + SQRT2)],
}
SYSTEMS_PER_UNIT = 700


def _scalar(rng: random.Random, units) -> object:
    x = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    for u in units:
        if rng.random() < 0.5:
            x = x + Fraction(rng.randint(-2, 2), rng.randint(1, 2)) * u
    return x


def _row(rng: random.Random, units, rows: list) -> AffineFunctional:
    """A random row, or one related to the rows so far."""
    roll = rng.random()
    if rows and roll < 0.3:
        # Parallel, antiparallel or a duplicate at another scale.
        base = rng.choice(rows)
        factor = Fraction(rng.choice([-3, -1, 1, 2, 5]), rng.randint(1, 2))
        shift = 0 if rng.random() < 0.4 else _scalar(rng, units)
        return AffineFunctional(base.linear.scale(factor), base.constant * factor + shift)
    if len(rows) >= 2 and roll < 0.5:
        # Through the meeting point of two earlier rows, when they meet.
        p, q = rng.sample(rows, 2)
        (a, b), c = p.linear.coords, p.constant
        (d, e), f = q.linear.coords, q.constant
        det = a * e - b * d
        if det != 0:
            point = Vec((b * f - c * e) / det, (c * d - a * f) / det)
            normal = Vec(_scalar(rng, units), _scalar(rng, units))
            if not normal.is_zero():
                return AffineFunctional(normal, -normal.dot(point))
    normal = Vec(_scalar(rng, units), _scalar(rng, units))
    if normal.is_zero():
        normal = Vec(1, 0)
    return AffineFunctional(normal, _scalar(rng, units))


def _system(fns, strict: bool) -> list[LinIneq]:
    return [LinIneq.from_functional(xi, strict=strict) for xi in fns]


def _probe_pruned(fns) -> list:
    """The probe loop: drop each constraint in turn when the rest imply it."""
    kept = list(fns)
    i = 0
    while len(kept) > 1 and i < len(kept):
        rest = kept[:i] + kept[i + 1 :]
        if not feasible(_system(rest + [-kept[i]], True), 2):
            kept = rest
        else:
            i += 1
    return kept


def _same_points(got: list[Vec], want: list) -> bool:
    if len(got) != len(want):
        return False
    left = [Vec(*p) for p in want]
    for v in got:
        for k, w in enumerate(left):
            if v == w:
                del left[k]
                break
        else:
            return False
    return True


def _check_cell(cell: Cell) -> bool:
    fns = list(cell.constraints)
    empty = not feasible(_system(fns, True), 2)
    assert cell.is_empty() is empty
    if empty:
        return empty
    pruned = cell.pruned()
    want = _probe_pruned(fns)
    assert len(pruned.constraints) == len(want)
    assert all(a is b for a, b in zip(pruned.constraints, want))
    weak = _system(fns, False)
    for piece in (cell.closure(), pruned.closure()):
        assert piece.is_bounded() is is_bounded(weak, 2)
        assert _same_points(piece.vertex_positions(), vertices(weak, 2))
    return empty


def _grown(rng: random.Random, fns: list) -> Cell:
    """The cell of ``fns`` built from a random prefix by with_extra steps."""
    k = rng.randint(0, len(fns))
    cell = Cell(PLANE, fns[:k])
    while k < len(fns):
        step = rng.randint(1, len(fns) - k)
        cell = cell.with_extra(fns[k : k + step])
        k += step
        if rng.random() < 0.5:
            _check_cell(cell)  # an intermediate parent, asked before its child
    return cell


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_cycle_kernel_matches_fm(kind):
    rng = random.Random(f"plane-kernel-{kind}")
    units = UNITS[kind]
    outcomes = {True: 0, False: 0}
    bounded = 0
    with deadline(240, f"plane kernel differential ({kind})"):
        for _ in range(SYSTEMS_PER_UNIT):
            fns: list = []
            for _ in range(rng.choice([1, 2, 3, 3, 4, 5, 6, 7])):
                fns.append(_row(rng, units, fns))
            empty = _check_cell(_grown(rng, fns))
            outcomes[empty] += 1
            if not empty and Cell(PLANE, fns).closure().is_bounded():
                bounded += 1
    # The corpus must exercise both answers and both kinds of closure.
    assert min(outcomes.values()) > SYSTEMS_PER_UNIT // 10
    assert SYSTEMS_PER_UNIT // 20 < bounded < outcomes[False]


def test_moved_cycle_matches_a_fresh_cell():
    """A motion carries the cycle's labels; the image must read the same
    pruned constraints and vertices as a cell built from the moved rows."""
    rng = random.Random("plane-kernel-moved")
    motions = [
        Motion.rotation_about(Vec(1, -2), Fraction(3, 5), Fraction(4, 5)),
        Motion.rotation_about(Vec(0, 0), SQRT2 / 2, SQRT2 / 2),
        Motion.translation_by(Vec(Fraction(7, 3), -5)),
    ]
    with deadline(120, "moved plane cycles"):
        for trial in range(150):
            fns: list = []
            for _ in range(rng.randint(1, 6)):
                fns.append(_row(rng, UNITS["sqrt2-sqrt3"], fns))
            cell = Cell(PLANE, fns)
            if cell.is_empty():
                continue
            cell.closure()  # builds the cycle whose labels the motion carries
            moved = motions[trial % len(motions)].apply_cell(cell)
            fresh = Cell(PLANE, moved.constraints)
            assert moved._cycle is not None and moved._cycle[1] is None
            a, b = moved.pruned().constraints, fresh.pruned().constraints
            assert len(a) == len(b) and all(x is y for x, y in zip(a, b))
            assert moved.closure().is_bounded() is fresh.closure().is_bounded()
            assert _same_points(
                moved.closure().vertex_positions(),
                [tuple(v) for v in fresh.closure().vertex_positions()],
            )


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_plane_vertices_skip_only_an_identity_embedding(kind):
    """A plane closure builds its vertices without ``embed_point``; they must
    be what embedding them would give, printed alike."""
    rng = random.Random(f"plane-vertices-{kind}")
    seen = 0
    with deadline(60, f"plane vertex positions ({kind})"):
        for _ in range(150):
            fns: list = []
            for _ in range(rng.randint(2, 6)):
                fns.append(_row(rng, UNITS[kind], fns))
            cell = Cell(PLANE, fns)
            if cell.is_empty():
                continue
            got = cell.closure().vertex_positions()
            want = [PLANE.embed_point(v) for v in got]
            assert got == want and [repr(v) for v in got] == [repr(v) for v in want]
            seen += len(got)
    assert seen > 60
