"""Convex figures enter the plane kernel as one cell that holds its edge cycle.

Each shortcut is compared with its reference on seeded random cycles:

- ``_strictly_convex`` (one O(n) pass over turns and winding) against all
  strictly left turns plus the O(n^2) pairwise edge scan of ``_clean_cycle``;
- the cycle ``convex_polygon_cell`` is given against the one clipped from the
  whole plane for the same constraints;
- the one-cell ``polygon_lift`` of a convex polygon against its ear triangles.

Cycles are convex (points on the unit circle by the rational parametrization,
moved by an orientation-keeping affine map), star-shaped simple polygons with
reflex turns, shuffled convex vertices, and star polygons {n/k}, whose turns
are all left while their edges wind k times.  Coordinates are rational or in
Q(sqrt2).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import deadline

from refinedgeo.algebra import RefinedPolytope, area, equals
from refinedgeo.cells import Cell, _cross
from refinedgeo.equidecomp import (
    _clean_cycle,
    _segments_conflict,
    _strictly_convex,
    convex_polygon_cell,
    equidecompose,
    polygon_lift,
    shoelace_area,
    triangulate_cycle,
)
from refinedgeo.errors import GeometryError
from refinedgeo.linalg import Carrier, Vec, cross2
from refinedgeo.scalars import _mul, _sign, _sub, adjoin_sqrt, sign

F = Fraction
PLANE = Carrier.full(2)
SQRT2 = adjoin_sqrt(2)
KINDS = ("rational", "sqrt2")


def _circle(t: Fraction) -> Vec:
    """A rational point of the unit circle; its angle grows with t."""
    return Vec((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def _affine(rng: random.Random, kind: str):
    """A random affine map of positive determinant (so it keeps convexity
    and orientation), with sqrt2 entries for the "sqrt2" kind."""

    def entry():
        x = F(rng.randint(-6, 6), rng.randint(1, 3))
        return x + F(rng.randint(-2, 2), rng.randint(1, 2)) * SQRT2 if kind == "sqrt2" else x

    while True:
        a, b, c, d = entry(), entry(), entry(), entry()
        det = sign(a * d - b * c)
        if det:
            break
    if det < 0:
        a, b = -a, -b
    shift = Vec(entry(), entry())
    return lambda p: Vec(a * p[0] + b * p[1], c * p[0] + d * p[1]) + shift


def _convex(rng: random.Random, kind: str, n: int) -> list[Vec]:
    ts = sorted({F(rng.randint(-40, 40), rng.randint(1, 8)) for _ in range(n)})
    move = _affine(rng, kind)
    return [move(_circle(t)) for t in ts]


def _ring(rng: random.Random, n: int) -> list[Vec]:
    """n circle points near even angles, counterclockwise."""
    angles = [-math.pi + 2 * math.pi * (i + 0.5 + rng.uniform(-0.1, 0.1)) / n for i in range(n)]
    return [_circle(F(math.tan(a / 2)).limit_denominator(64)) for a in angles]


def _star_shaped(rng: random.Random, kind: str, n: int) -> list[Vec]:
    """Ring points at random radii: simple, since every angular gap is
    below pi, and often reflex."""
    move = _affine(rng, kind)
    return [move(p.scale(F(rng.randint(1, 6), 2))) for p in _ring(rng, n)]


def _star(rng: random.Random, kind: str, n: int, k: int) -> list[Vec]:
    """The star polygon {n/k}: ring points visited k apart.  Each step turns
    by about 2 pi k / n < pi, so every turn is left and the edge directions
    wind k times."""
    ring = _ring(rng, n)
    move = _affine(rng, kind)
    return [move(ring[i * k % n]) for i in range(n)]


def _left_turns(pts) -> bool:
    n = len(pts)
    return all(sign(cross2(pts[i] - pts[i - 1], pts[(i + 1) % n] - pts[i])) > 0 for i in range(n))


def _scan_says_convex(pts) -> bool:
    """The reference: all turns strictly left and no two edges that are not
    neighbours share a point."""
    n = len(pts)
    return _left_turns(pts) and not any(
        _segments_conflict(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n])
        for i in range(n)
        for j in range(i + 2, n)
        if (j + 1) % n != i
    )


@pytest.mark.parametrize("kind", KINDS)
def test_convexity_test_matches_the_pairwise_scan(kind):
    rng = random.Random(f"convexity-{kind}")
    seen = {"convex": 0, "reflex": 0, "shuffled": 0, "left-star": 0}
    with deadline(120, f"convexity test against the scan ({kind})"):
        for trial in range(400):
            n = rng.randint(3, 9)
            shape = trial % 4
            if shape == 0:
                pts = _convex(rng, kind, n)
            elif shape == 1:
                pts = _star_shaped(rng, kind, n)
            elif shape == 2:
                pts = _convex(rng, kind, n)
                rng.shuffle(pts)
            else:
                n = rng.choice([5, 7, 8, 9, 11])
                k = rng.choice([k for k in range(2, (n + 1) // 2) if gcd(n, k) == 1])
                pts = _star(rng, kind, n, k)
            if len(pts) < 3:
                continue
            want = _scan_says_convex(pts)
            assert _strictly_convex(pts) is want, (trial, pts)
            if want:
                seen["convex"] += 1
            elif shape == 3 and _left_turns(pts):
                seen["left-star"] += 1
            elif shape == 2:
                seen["shuffled"] += 1
            else:
                seen["reflex"] += 1
    assert min(seen.values()) >= 20, seen


STARS = [(5, 2), (7, 2), (7, 3)]


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n,k", STARS)
def test_convex_cell_rejects_stars(n, k, kind):
    """A star's turns are all left, but it winds k times; a cell of it would
    be only its inner polygon."""
    rng = random.Random(f"star-{n}-{k}-{kind}")
    for _ in range(5):
        star = _star(rng, kind, n, k)
        assert _left_turns(star) and sign(shoelace_area(star)) > 0
        assert not _strictly_convex(star)
        with pytest.raises(GeometryError):
            convex_polygon_cell(star)
        with pytest.raises(GeometryError, match="not simple"):
            _clean_cycle(star)
        with pytest.raises(GeometryError):
            polygon_lift(star)


def test_integer_pentagram_is_rejected():
    pentagon = [Vec(0, 0), Vec(8, 0), Vec(11, 7), Vec(4, 12), Vec(-3, 7)]
    star = [pentagon[i] for i in (0, 2, 4, 1, 3)]
    assert _left_turns(star) and shoelace_area(star) == 69
    assert _strictly_convex(pentagon) and not _strictly_convex(star)
    with pytest.raises(GeometryError):
        convex_polygon_cell(star)
    with pytest.raises(GeometryError):
        equidecompose(star, pentagon)
    assert area(RefinedPolytope(2, [convex_polygon_cell(pentagon)])) == shoelace_area(pentagon)


def _positive_multiple(v, w) -> bool:
    """Do homogeneous triples v and w, both with W > 0, name one point?"""
    return (
        all(not _sign(_sub(_mul(v[i], w[2]), _mul(v[2], w[i]))) for i in (0, 1))
        and _sign(v[2]) > 0
        and _sign(w[2]) > 0
    )


@pytest.mark.parametrize("kind", KINDS)
def test_given_cycle_matches_the_clipped_one(kind):
    rng = random.Random(f"given-cycle-{kind}")
    with deadline(120, f"given against clipped cycles ({kind})"):
        for _ in range(120):
            pts = _convex(rng, kind, rng.randint(3, 10))
            if rng.random() < 0.5:
                pts = list(reversed(pts))  # convex_polygon_cell orients it
            given = convex_polygon_cell(pts)
            assert given._empty is False
            labels, verts = given._cycle
            clipped = Cell(PLANE, given.constraints)
            assert not clipped.is_empty()  # clipped from the whole plane
            ref_labels, ref_verts = clipped._cycle
            # The same cycle up to rotation, label by label.
            k = ref_labels.index(0)
            assert ref_labels[k:] + ref_labels[:k] == labels == tuple(range(len(pts)))
            rows = [xi.row()[0] for xi in given.constraints]
            for i, v in enumerate(verts):
                assert _positive_multiple(v, ref_verts[(k + i) % len(verts)])
                assert _positive_multiple(v, _cross(rows[i - 1], rows[i]))
            got = given.closure().vertex_positions()
            want = clipped.closure().vertex_positions()
            assert got == want[k:] + want[:k]
            assert given.closure().is_bounded() is clipped.closure().is_bounded() is True
            assert given.pruned() is given and clipped.pruned() is clipped


@pytest.mark.parametrize("kind", KINDS)
def test_one_cell_lift_equals_the_ear_triangles(kind):
    rng = random.Random(f"one-cell-lift-{kind}")
    with deadline(180, f"one-cell lifts against ear triangles ({kind})"):
        for trial in range(30):
            pts = _convex(rng, kind, rng.randint(3, 9))
            lift = polygon_lift(pts)
            assert len(lift.cells) == 1
            ears = RefinedPolytope(2, [convex_polygon_cell(t) for t in triangulate_cycle(pts)])
            assert len(ears.cells) == len(pts) - 2
            assert equals(lift, ears) and equals(ears, lift), trial
            reflex = _star_shaped(rng, kind, rng.randint(4, 8))
            if not _strictly_convex(_clean_cycle(reflex)):
                assert len(polygon_lift(reflex).cells) == len(_clean_cycle(reflex)) - 2
