"""Convex figures enter the plane kernel as one cell that holds its edge cycle.

Each shortcut is compared with its reference on seeded random cycles:

- ``_strictly_convex`` (one O(n) pass over turns and winding) against all
  strictly left turns plus the O(n^2) pairwise edge scan of ``_clean_cycle``;
- the cycle ``convex_polygon_cell`` is given against the one clipped from the
  whole plane for the same constraints;
- the one-cell ``polygon_lift`` of a convex polygon against its ear triangles;
- the polygon intake, which encodes a cycle once and decides everything on
  integer tower dicts, against the ``Vec``-based reference below: the same
  cells (rows and cycle vertices), ear triples or ``GeometryError`` message.

Cycles are convex (points on the unit circle by the rational parametrization,
moved by an orientation-keeping affine map), star-shaped simple polygons with
reflex turns, shuffled convex vertices, and star polygons {n/k}, whose turns
are all left while their edges wind k times; the intake test adds spikes,
straight and repeated vertices, a vertex on another edge, two loops through a
shared vertex and random grid cycles.  Coordinates are rational or in
Q(sqrt2), and for the intake test also in Q(sqrt2, sqrt(2 + sqrt2)).
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from math import gcd

import pytest
from conftest import deadline

from refinedgeo.algebra import RefinedPolytope, area, equals
from refinedgeo.cells import Cell, _cross, _shoelace
from refinedgeo.equidecomp import (
    convex_polygon_cell,
    equidecompose,
    polygon_lift,
    shoelace_area,
    triangulate_cycle,
)
from refinedgeo.errors import GeometryError
from refinedgeo.linalg import Carrier, Vec, cross2
from refinedgeo.scalars import _encode, _mul, _sign, _sub, adjoin_sqrt, scalar_str, sign

F = Fraction
PLANE = Carrier.full(2)
SQRT2 = adjoin_sqrt(2)
NESTED = adjoin_sqrt(2 + SQRT2)
KINDS = ("rational", "sqrt2")


# -- the Vec-based reference intake ------------------------------------------------
#
# The polygon checks as they ran on ``Vec``s of scalars before the library
# encoded each cycle once; cells are built from a per-vertex encoding.


def _vecs(vertices) -> list[Vec]:
    out = []
    for v in vertices:
        vec = v if isinstance(v, Vec) else Vec(*v)
        if vec.dim != 2:
            raise GeometryError("polygon vertices must be planar")
        out.append(vec)
    return out


def _strictly_convex(pts) -> bool:
    """Every turn of a counterclockwise cycle strictly left, and the edge
    directions step once from the lower half-plane into the upper one."""
    n = len(pts)
    edges = [pts[(i + 1) % n] - pts[i] for i in range(n)]
    for i in range(n):
        if sign(cross2(edges[i - 1], edges[i])) <= 0:
            return False
    upper = [sign(e[1]) > 0 or (sign(e[1]) == 0 and sign(e[0]) > 0) for e in edges]
    return sum(upper[i] and not upper[i - 1] for i in range(n)) == 1


def _segments_conflict(a: Vec, b: Vec, c: Vec, d: Vec) -> bool:
    """Do closed segments ab and cd share any point?"""
    d1 = sign(cross2(b - a, c - a))
    d2 = sign(cross2(b - a, d - a))
    d3 = sign(cross2(d - c, a - c))
    d4 = sign(cross2(d - c, b - c))
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def on_segment(p: Vec, q: Vec, w: Vec) -> bool:
        if sign(cross2(q - p, w - p)) != 0:
            return False
        t = (w - p).dot(q - p)
        return sign(t) >= 0 and sign((q - p).dot(q - p) - t) >= 0

    return on_segment(a, b, c) or on_segment(a, b, d) or on_segment(c, d, a) or on_segment(c, d, b)


def _clean_cycle(vertices) -> list[Vec]:
    """Drop straight vertices, reject repeats and spikes (restarting after
    each drop), orient counterclockwise, scan for crossing edges unless
    strictly convex."""
    pts = _vecs(vertices)
    if len(pts) < 3:
        raise GeometryError("a polygon needs at least 3 vertices")
    for i, p in enumerate(pts):
        if p == pts[(i + 1) % len(pts)]:
            raise GeometryError("repeated consecutive vertex")
    changed = True
    while changed and len(pts) > 2:
        changed = False
        for i in range(len(pts)):
            a, b, c = pts[i - 1], pts[i], pts[(i + 1) % len(pts)]
            if sign(cross2(b - a, c - b)) == 0:
                if sign((b - a).dot(c - b)) < 0:
                    raise GeometryError("polygon has a spike (zero-angle vertex)")
                pts.pop(i)
                changed = True
                break
    if len(pts) < 3 or sign(_shoelace(pts)) == 0:
        raise GeometryError("degenerate polygon (zero area)")
    if sign(_shoelace(pts)) < 0:
        pts = list(reversed(pts))
    if _strictly_convex(pts):
        return pts
    n = len(pts)
    for i in range(n):
        for j in range(i + 1, n):
            if j == i or (j + 1) % n == i or (i + 1) % n == j:
                continue
            if _segments_conflict(pts[i], pts[(i + 1) % n], pts[j], pts[(j + 1) % n]):
                raise GeometryError("polygon is not simple (edges cross)")
    return pts


def _ears(poly: list[Vec]) -> list[tuple[Vec, Vec, Vec]]:
    """Ear clipping of a cycle ``_clean_cycle`` returned, by ``is`` identity."""
    tris = []
    while len(poly) > 3:
        n = len(poly)
        clipped = False
        for i in range(n):
            a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
            if sign(cross2(b - a, c - b)) <= 0:
                continue
            blocked = False
            for w in poly:
                if w is a or w is b or w is c:
                    continue
                if (
                    sign(cross2(b - a, w - a)) >= 0
                    and sign(cross2(c - b, w - b)) >= 0
                    and sign(cross2(a - c, w - c)) >= 0
                ):
                    blocked = True
                    break
            if blocked:
                continue
            tris.append((a, b, c))
            poly.pop(i)
            clipped = True
            break
        if not clipped:
            raise GeometryError("ear clipping failed; polygon is not simple")
        k = 0
        while k < len(poly) and len(poly) > 3:
            a, b, c = poly[k - 1], poly[k], poly[(k + 1) % len(poly)]
            if sign(cross2(b - a, c - b)) == 0:
                poly.pop(k)
                k = 0
            else:
                k += 1
    tris.append((poly[0], poly[1], poly[2]))
    return tris


def _per_vertex(pts) -> list[tuple]:
    """Each vertex encoded over its own denominator, the lcm of its
    coordinates' denominators."""
    out = []
    for p in pts:
        (x, y), d = _encode(p.coords)
        out.append((x, y, d))
    return out


def _ref_convex_cell(vertices) -> Cell:
    pts = _vecs(vertices)
    if len(pts) < 3:
        raise GeometryError("a polygon needs at least 3 vertices")
    if sign(_shoelace(pts)) < 0:
        pts = list(reversed(pts))
    if not _strictly_convex(pts):
        raise GeometryError("vertices must make strictly convex turns around once")
    return Cell.convex_polygon(PLANE, _per_vertex(pts))


def _ref_lift(vertices) -> list[Cell]:
    poly = _clean_cycle(vertices)
    if _strictly_convex(poly):
        return [Cell.convex_polygon(PLANE, _per_vertex(poly))]
    return [_ref_convex_cell(t) for t in _ears(poly)]


def _circle(t: Fraction) -> Vec:
    """A rational point of the unit circle; its angle grows with t."""
    return Vec((1 - t * t) / (1 + t * t), 2 * t / (1 + t * t))


def _affine(rng: random.Random, kind: str):
    """A random affine map of positive determinant (so it keeps convexity
    and orientation), with entries in Q(sqrt2) for the "sqrt2" kind and in
    Q(sqrt(2 + sqrt2)) for the "nested" one."""

    root = {"sqrt2": SQRT2, "nested": NESTED}.get(kind)

    def entry():
        x = F(rng.randint(-6, 6), rng.randint(1, 3))
        return x + F(rng.randint(-2, 2), rng.randint(1, 2)) * root if root is not None else x

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


# -- the polygon intake against the Vec-based reference -----------------------------


def _on_line(p: Vec, q: Vec, t: Fraction) -> Vec:
    return p + (q - p).scale(t)


def _intake_case(rng: random.Random, kind: str, shape: int) -> list[Vec]:
    """A cycle of one of eleven shapes; degenerate ones are made exactly, by
    points on an edge's line, so they keep their kind under the field."""
    if shape == 0:
        return _convex(rng, kind, rng.randint(3, 9))
    if shape == 1:
        return _star_shaped(rng, kind, rng.randint(4, 9))
    if shape == 2:
        n = rng.choice([5, 7, 8, 9])
        return _star(rng, kind, n, rng.choice([k for k in range(2, (n + 1) // 2) if gcd(n, k) == 1]))
    if shape == 3:
        pts = _convex(rng, kind, rng.randint(4, 8))
        rng.shuffle(pts)
        return pts
    if shape == 9:  # a random cycle on a small grid: collinear runs, crossings, touchings
        move = _affine(rng, kind)
        return [move(Vec(rng.randint(0, 3), rng.randint(0, 3))) for _ in range(rng.randint(3, 7))]
    if shape == 10:  # zero area: a parallelogram's bowtie, or points on one line
        move = _affine(rng, kind)
        if rng.random() < 0.5:
            a, b, d = (Vec(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(3))
            return [move(v) for v in (a, b + d - a, b, d)]
        ts = rng.sample(range(-4, 5), rng.randint(3, 5))
        return [move(Vec(t, 2 * t + 1)) for t in ts]
    pts = (_convex if rng.random() < 0.5 else _star_shaped)(rng, kind, rng.randint(4, 8))
    n = len(pts)
    i = rng.randrange(n)
    p, q = pts[i], pts[(i + 1) % n]
    if shape == 4:  # a spike: a point on edge i's line beyond one of its ends
        t = rng.choice([F(rng.randint(5, 12), 4), F(-rng.randint(1, 8), 4)])
        return pts[: i + 1] + [_on_line(p, q, t)] + pts[i + 1 :]
    if shape == 5:  # straight vertices, one or two in a row
        ts = sorted({F(rng.randint(1, 7), 8) for _ in range(rng.randint(1, 2))})
        return pts[: i + 1] + [_on_line(p, q, t) for t in ts] + pts[i + 1 :]
    if shape == 6:  # a repeated vertex, maybe the closing one
        return pts + [pts[0]] if rng.random() < 0.3 else pts[: i + 1] + [p] + pts[i + 1 :]
    pts = _convex(rng, kind, rng.randint(4, 8))
    n = len(pts)
    if n < 4:
        return pts
    if shape == 7:  # a vertex inside edge 0, visited between p_k and p_k+1
        k = rng.randint(2, n - 2)
        return pts[: k + 1] + [_on_line(pts[0], pts[1], F(rng.randint(1, 7), 8))] + pts[k + 1 :]
    # shape 8: two loops of a fan through a shared vertex, a bowtie at c
    c = Vec(*(sum((p[j] for p in pts), F(0)) / n for j in range(2)))
    k = rng.randint(1, n - 3)
    return [c] + pts[: k + 1] + [c] + pts[k + 1 :]


def _outcome(fn, *args):
    try:
        return fn(*args)
    except GeometryError as e:
        return f"GeometryError: {e}"


def _cells_text(result) -> str:
    """Rows and cycles of a list of cells, or the error text."""
    if isinstance(result, str):
        return result
    return repr([([xi.row() for xi in c.constraints], c._cycle) for c in result])


def _same_vertices(got, want) -> bool:
    """Equal lists of triples of the very same vertex objects."""
    if isinstance(got, str) or isinstance(want, str):
        return got == want
    return len(got) == len(want) and all(
        a is b for tg, tw in zip(got, want) for a, b in zip(tg, tw)
    )


def _area_message(p, q) -> str:
    """equidecompose's outcome for p and q whose areas differ, from the
    reference: the first cycle's error, or the areas message."""
    areas = []
    for cycle in (p, q):
        try:
            areas.append(shoelace_area(_clean_cycle(cycle)))
        except GeometryError as e:
            return f"GeometryError: {e}"
    return f"GeometryError: areas differ: {scalar_str(areas[0])} vs {scalar_str(areas[1])}"


@pytest.mark.parametrize("kind", KINDS + ("nested",))
def test_encoded_intake_matches_the_vec_reference(kind):
    rng = random.Random(f"intake-{kind}")
    # A cycle whose area no random case shares, for equidecompose's intake.
    other = [Vec(0, 0), Vec(F(1000001, 7), 0), Vec(0, 1)]
    seen: dict = {}
    with deadline(180, f"encoded intake against the Vec reference ({kind})"):
        for trial in range(165):
            pts = _intake_case(rng, kind, trial % 11)
            if rng.random() < 0.5:
                pts = pts[::-1]
            want = _outcome(_ref_lift, pts)
            got = _outcome(lambda v: polygon_lift(v).cells, pts)
            assert _cells_text(got) == _cells_text(want), (trial, pts)
            assert _same_vertices(
                _outcome(triangulate_cycle, pts), _outcome(lambda v: _ears(_clean_cycle(v)), pts)
            ), (trial, pts)
            got_cell = _outcome(lambda v: [convex_polygon_cell(v)], pts)
            assert _cells_text(got_cell) == _cells_text(_outcome(lambda v: [_ref_convex_cell(v)], pts))
            for p, q in ((pts, other), (other, pts)):
                assert _outcome(equidecompose, p, q) == _area_message(p, q), (trial, pts)
            outcome = want if isinstance(want, str) else ("one cell" if len(want) == 1 else "ears")
            seen[outcome] = seen.get(outcome, 0) + 1
    # Every verdict of the intake occurs.
    assert set(seen) == {
        "one cell",
        "ears",
        "GeometryError: repeated consecutive vertex",
        "GeometryError: polygon has a spike (zero-angle vertex)",
        "GeometryError: degenerate polygon (zero area)",
        "GeometryError: polygon is not simple (edges cross)",
    }, seen
    assert min(seen.values()) >= 5, seen


def test_one_denominator_gives_the_per_vertex_cell():
    """Cell.convex_polygon reduces each vertex to lowest terms, so a cycle
    encoded over one denominator gives the rows and homogeneous vertices of
    a cycle encoded vertex by vertex."""
    h, t = F(1, 2), F(1, 3)
    q = SQRT2 / 4
    r = NESTED / 3
    cycles = [
        [Vec(h, t), Vec(2, t), Vec(F(3, 2), F(7, 3)), Vec(0, 1)],
        [Vec(q, 0), Vec(1 + q, t), Vec(q, 1)],
        [Vec(r, t), Vec(1 + r, -h), Vec(2 + q, r), Vec(h, 1 + q)],
    ]
    for pts in cycles:
        assert sign(_shoelace(pts)) > 0 and _strictly_convex(pts)
        ints, den = _encode([c for p in pts for c in p.coords])
        shared = [(ints[2 * i], ints[2 * i + 1], den) for i in range(len(pts))]
        assert any(d != den for _, _, d in _per_vertex(pts))  # reduction is needed
        one = Cell.convex_polygon(PLANE, shared)
        each = Cell.convex_polygon(PLANE, _per_vertex(pts))
        assert repr([xi.row() for xi in one.constraints]) == repr([xi.row() for xi in each.constraints])
        assert repr(one._cycle) == repr(each._cycle)
        assert one._cycle[1] == tuple((x, y, {0: d}) for x, y, d in _per_vertex(pts))
        assert _cells_text([convex_polygon_cell(pts)]) == _cells_text([each])
