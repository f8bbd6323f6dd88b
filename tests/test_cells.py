"""Refined cell tests: membership, complement, emptiness, closure, witnesses."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from refinedgeo.cells import (
    Cell,
    cell_closure,
    cell_contains,
    cell_is_empty,
    complement_halfspace,
)
from refinedgeo.errors import GeometryError
from refinedgeo.fm import feasible
from refinedgeo.linalg import AffineFunctional, Carrier, Vec, affine_hull
from refinedgeo.resolution import Flag, RefinedPoint, sample_refined_point
from refinedgeo.scalars import adjoin_sqrt

LINE = Carrier.full(1)
PLANE = Carrier.full(2)


def segment_cell(a, b) -> Cell:
    # x - a > 0 refined, b - x > 0 refined.
    return Cell(LINE, [AffineFunctional(Vec(1), -a), AffineFunctional(Vec(-1), b)])


def triangle_cell() -> Cell:
    # x >= 0, y >= 0, 1 - x - y >= 0, all refined.
    return Cell(
        PLANE,
        [
            AffineFunctional(Vec(1, 0), 0),
            AffineFunctional(Vec(0, 1), 0),
            AffineFunctional(Vec(-1, -1), 1),
        ],
    )


def rp1(x, direction) -> RefinedPoint:
    return RefinedPoint(Vec(x), Flag([Vec(direction)]))


def test_segment_endpoint_occupation():
    a, b = Fraction(0), Fraction(2)
    cell = segment_cell(a, b)
    assert cell.contains(rp1(a, 1))       # right half of a is inside
    assert not cell.contains(rp1(a, -1))  # left half of a is not
    assert not cell.contains(rp1(b, 1))   # right half of b is outside
    assert cell.contains(rp1(b, -1))
    assert cell.contains(rp1(1, 1)) and cell.contains(rp1(1, -1))
    assert not cell.contains(rp1(3, -1))


def test_triangle_membership():
    cell = triangle_cell()
    interior = Vec(Fraction(1, 4), Fraction(1, 4))
    for flag in ([Vec(1, 0), Vec(0, 1)], [Vec(-1, 2), Vec(3, 1)]):
        assert cell.contains(RefinedPoint(interior, Flag(flag)))
    origin = Vec(0, 0)
    assert cell.contains(RefinedPoint(origin, Flag([Vec(1, 0), Vec(0, 1)])))
    assert cell.contains(RefinedPoint(origin, Flag([Vec(1, 1), Vec(1, 0)])))
    assert not cell.contains(RefinedPoint(origin, Flag([Vec(-1, 0), Vec(0, 1)])))
    assert not cell.contains(RefinedPoint(Vec(2, 2), Flag([Vec(1, 0), Vec(0, 1)])))


def test_contains_flag_dimension_checked():
    cell = triangle_cell()
    with pytest.raises(GeometryError):
        cell.contains(RefinedPoint(Vec(0, 0), Flag([Vec(1, 0)])))


def test_complement_halfspace_partition():
    xi = AffineFunctional(Vec(1), 0)
    cell_pos = Cell(LINE, [xi])
    cell_neg = Cell(LINE, [complement_halfspace(xi)])
    assert cell_pos.contains(rp1(0, 1))
    assert not cell_pos.contains(rp1(0, -1))
    assert cell_neg.contains(rp1(0, -1))
    assert not cell_neg.contains(rp1(0, 1))
    # Double complement is the original half-space.
    again = complement_halfspace(complement_halfspace(xi))
    assert again == xi
    with pytest.raises(GeometryError):
        complement_halfspace(AffineFunctional(Vec(0), 5))


def test_complement_partition_randomized():
    rng = random.Random(13)
    for trial in range(200):
        d = rng.choice([1, 2, 3])
        carrier = Carrier.full(d)
        linear = [Fraction(rng.randint(-5, 5)) for _ in range(d)]
        if all(c == 0 for c in linear):
            linear[rng.randrange(d)] = Fraction(1)
        xi = AffineFunctional(Vec(*linear), Fraction(rng.randint(-5, 5), rng.randint(1, 3)))
        p = sample_refined_point(carrier, trial)
        side = Cell(carrier, [xi]).contains(p)
        anti = Cell(carrier, [complement_halfspace(xi)]).contains(p)
        assert side != anti  # exactly one of the two refined half-spaces


def test_cell_is_empty_golden():
    xi = AffineFunctional(Vec(1), 0)
    assert cell_is_empty(Cell(LINE, [xi, -xi]))
    assert not cell_is_empty(segment_cell(Fraction(0), Fraction(2)))
    squeezed = Cell(
        PLANE,
        [
            AffineFunctional(Vec(1, 0), 0),
            AffineFunctional(Vec(0, 1), 0),
            AffineFunctional(Vec(-1, -1), 1),
            AffineFunctional(Vec(1, 1), -1),
        ],
    )
    assert cell_is_empty(squeezed)


def test_emptiness_soundness_with_witnesses():
    rng = random.Random(29)
    for _ in range(100):
        d = rng.choice([1, 2, 3])
        carrier = Carrier.full(d)
        cons = []
        for _ in range(rng.randint(1, 5)):
            linear = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
            if all(c == 0 for c in linear):
                linear[rng.randrange(d)] = Fraction(1)
            cons.append(AffineFunctional(Vec(*linear), Fraction(rng.randint(-3, 3))))
        cell = Cell(carrier, cons)
        w = cell.witness()
        if cell.is_empty():
            assert w is None
        else:
            assert w is not None
            assert cell.contains(w)


def test_closure_golden():
    cell = segment_cell(Fraction(0), Fraction(2))
    piece = cell_closure(cell)
    assert piece.contains_position(Vec(0))
    assert piece.contains_position(Vec(2))
    assert piece.contains_position(Vec(1))
    assert not piece.contains_position(Vec(3))

    tri = cell_closure(triangle_cell())
    for v in (Vec(0, 0), Vec(1, 0), Vec(0, 1)):
        assert tri.contains_position(v)
    assert not tri.contains_position(Vec(1, 1))

    with pytest.raises(GeometryError):
        xi = AffineFunctional(Vec(1), 0)
        cell_closure(Cell(LINE, [xi, -xi]))


def test_closure_consistency_sampled():
    cell = triangle_cell()
    piece = cell.closure()
    for seed in range(30):
        p = sample_refined_point(PLANE, seed)
        if cell_contains(cell, p):
            assert piece.contains_position(p.position)


def test_inward_refined_point_at_boundary():
    cell = triangle_cell()
    for x in (Vec(0, 0), Vec(1, 0), Vec(Fraction(1, 2), 0), Vec(0, Fraction(1, 3)),
              Vec(Fraction(1, 2), Fraction(1, 2)), Vec(Fraction(1, 4), Fraction(1, 4))):
        rp = cell.inward_refined_point(x)
        assert rp is not None
        assert rp.position == x
        assert cell.contains(rp)
    assert cell.inward_refined_point(Vec(2, 2)) is None
    assert cell.inward_refined_point(Vec(-1, 0)) is None


def test_from_ambient_constant_handling():
    x_axis = affine_hull([Vec(0, 0), Vec(1, 0)])
    # y + 1 restricts to the constant 1 > 0: tautological, dropped.
    taut = AffineFunctional(Vec(0, 1), 1)
    keeps = AffineFunctional(Vec(1, 0), 0)
    cell = Cell.from_ambient(x_axis, [taut, keeps])
    assert cell is not None
    assert len(cell.constraints) == 1
    # y restricts to the constant 0: an all-zero sign sequence, empty.
    assert Cell.from_ambient(x_axis, [AffineFunctional(Vec(0, 1), 0)]) is None
    # y - 1 restricts to the constant -1: empty.
    assert Cell.from_ambient(x_axis, [AffineFunctional(Vec(0, 1), -1)]) is None


def test_translated_cell():
    cell = triangle_cell()
    moved = cell.translated(Vec(5, 7))
    inside = RefinedPoint(Vec(Fraction(21, 4), Fraction(29, 4)), Flag([Vec(1, 0), Vec(0, 1)]))
    assert moved.contains(inside)
    corner = RefinedPoint(Vec(5, 7), Flag([Vec(1, 0), Vec(0, 1)]))
    assert moved.contains(corner)
    away = RefinedPoint(Vec(0, 0), Flag([Vec(1, 0), Vec(0, 1)]))
    assert not moved.contains(away)


TRANSLATE_CARRIERS = {
    "line": LINE,
    "plane": PLANE,
    "space": Carrier.full(3),
    "segment-in-plane": Carrier(Vec(1, -2), [Vec(3, 1)]),
    "plane-in-space": Carrier(Vec(1, 0, 2), [Vec(1, 2, 0), Vec(0, 1, -1)]),
}


def _random_vec(rng: random.Random, d: int) -> Vec:
    return Vec(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)])


def _random_cell(rng: random.Random, carrier: Carrier) -> Cell:
    k = carrier.dim
    cons = []
    for _ in range(rng.randint(1, 3 * k)):
        linear = [Fraction(rng.randint(-3, 3)) for _ in range(k)]
        if not any(linear):
            linear[rng.randrange(k)] = Fraction(1)
        cons.append(AffineFunctional(Vec(*linear), Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
    return Cell(carrier, cons)


@pytest.mark.parametrize("name", sorted(TRANSLATE_CARRIERS))
def test_translated_matches_carrier_path(name):
    """Full carriers map their constraints directly; every carrier must
    agree with the reference map that moves the carrier and restricts."""
    carrier = TRANSLATE_CARRIERS[name]
    rng = random.Random(f"translated-{name}")
    seen = set()
    for _ in range(20):
        cell = _random_cell(rng, carrier)
        empty = cell.is_empty()
        seen.add(empty)
        v = _random_vec(rng, carrier.ambient_dim)
        fast = cell.translated(v)
        ref = cell._moved_via_carrier(lambda u: u, v)
        assert fast.carrier == ref.carrier
        assert len(fast.constraints) == len(ref.constraints)
        assert all(a == b for a, b in zip(fast.constraints, ref.constraints))
        # The carried emptiness is what a fresh feasibility test decides.
        assert ref.is_empty() == (not feasible(ref._strict_system(), ref.carrier.dim)) and (
            fast._empty == empty == ref.is_empty()
        )
        if not empty:  # the image holds the shifted witness
            w = cell.witness()
            assert fast.contains(RefinedPoint(w.position + v, w.flag))
    assert seen == {True, False}


def test_lower_dimensional_cell_on_its_own_carrier():
    diag = affine_hull([Vec(0, 0), Vec(1, 1)])
    cell = Cell.from_ambient(
        diag,
        [AffineFunctional(Vec(1, 0), 0), AffineFunctional(Vec(-1, 0), 1)],
    )
    assert cell is not None
    assert not cell.is_empty()
    # Refined points of a 1-dimensional carrier carry 1-flags along it.
    inside = RefinedPoint(Vec(Fraction(1, 2), Fraction(1, 2)), Flag([Vec(1, 1)]))
    assert cell.contains(inside)
    start_fwd = RefinedPoint(Vec(0, 0), Flag([Vec(1, 1)]))
    start_bwd = RefinedPoint(Vec(0, 0), Flag([Vec(-1, -1)]))
    assert cell.contains(start_fwd)
    assert not cell.contains(start_bwd)
    off = RefinedPoint(Vec(1, 0), Flag([Vec(1, 1)]))
    assert not cell.contains(off)


# -- golden plane cells ----------------------------------------------------------
#
# Each case: constraints, expected emptiness, indices of the constraints that
# ``pruned`` keeps (compared by identity, so among same-line duplicates the
# last one is the one kept), boundedness of the closure and its vertex set.

SQRT2 = adjoin_sqrt(2)
F = Fraction
GOLDEN_PLANE = {
    "half-plane": ([AffineFunctional(Vec(1, 2), -3)], False, [0], False, []),
    "strip": (
        [AffineFunctional(Vec(0, 1), 0), AffineFunctional(Vec(0, 1), 1),
         AffineFunctional(Vec(0, -1), 1)],
        False, [0, 2], False, [],
    ),
    "wedge": (
        [AffineFunctional(Vec(1, 0), 0), AffineFunctional(Vec(1, 1), 1),
         AffineFunctional(Vec(0, 1), 0)],
        False, [0, 2], False, [(0, 0)],
    ),
    "open-cone": (
        [AffineFunctional(Vec(-1, SQRT2), 0), AffineFunctional(Vec(1, SQRT2), 0)],
        False, [0, 1], False, [(0, 0)],
    ),
    "scaled-duplicates": (
        [AffineFunctional(Vec(1, 0), 0), AffineFunctional(Vec(0, 1), 0),
         AffineFunctional(Vec(2, 0), 0), AffineFunctional(Vec(-1, -1), 1),
         AffineFunctional(Vec(3, 0), 0)],
        False, [1, 3, 4], True, [(0, 0), (0, 1), (1, 0)],
    ),
    "line-through-vertex": (
        [AffineFunctional(Vec(1, 0), 0), AffineFunctional(Vec(0, 1), 0),
         AffineFunctional(Vec(-1, -1), 1), AffineFunctional(Vec(1, -1), 0),
         AffineFunctional(Vec(SQRT2, 1), 0)],
        False, [1, 2, 3], True, [(0, 0), (1, 0), (F(1, 2), F(1, 2))],
    ),
    "empty-strip": (
        [AffineFunctional(Vec(0, 1), -1), AffineFunctional(Vec(0, -1), 0)],
        True, [0, 1], None, None,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_PLANE))
def test_golden_plane_cells(name):
    cons, empty, kept, bounded, verts = GOLDEN_PLANE[name]
    cell = Cell(PLANE, cons)
    assert cell.is_empty() is empty
    pruned = cell.pruned()
    assert len(pruned.constraints) == len(kept)
    assert all(a is cons[i] for a, i in zip(pruned.constraints, kept))
    if empty:
        with pytest.raises(GeometryError):
            cell.closure()
        return
    piece = cell.closure()
    assert piece.is_bounded() is bounded
    got = sorted(tuple(v) for v in piece.vertex_positions())
    assert got == sorted(tuple(F(c) for c in v) for v in verts)
    # The pruned cell is the same set with the same closure.
    assert pruned.is_empty() is False
    assert pruned.closure().is_bounded() is bounded
    assert sorted(tuple(v) for v in pruned.closure().vertex_positions()) == got
