"""Polytope algebra tests: set operations, closing/lift, disjointness, partitions."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import deadline

from refinedgeo import algebra
from refinedgeo.algebra import (
    ConventionalPolytope,
    RefinedPolytope,
    area,
    closing,
    contains_point,
    difference,
    disjoint,
    equals,
    intersect,
    is_empty,
    is_subset,
    lift,
    partition_certified,
    partition_check,
    partition_failure,
    rank_drop_check,
    union,
)
from refinedgeo.cells import Cell, ClosedPiece
from refinedgeo.equidecomp import polygon_lift
from refinedgeo.errors import GeometryError
from refinedgeo.linalg import AffineFunctional, Carrier, Vec, affine_hull, cross2, rank
from refinedgeo.resolution import Flag, RefinedPoint, sample_refined_point
from refinedgeo.scalars import adjoin_sqrt

LINE = Carrier.full(1)
PLANE = Carrier.full(2)


def seg(a, b) -> RefinedPolytope:
    cell = Cell(LINE, [AffineFunctional(Vec(1), -Fraction(a)), AffineFunctional(Vec(-1), Fraction(b))])
    return RefinedPolytope(1, [cell])


def tri_cell(a: Vec, b: Vec, c: Vec) -> Cell:
    if cross2(b - a, c - a) < 0:
        b, c = c, b
    cons = []
    for p, q in ((a, b), (b, c), (c, a)):
        d = q - p
        normal = Vec(-d[1], d[0])
        cons.append(AffineFunctional(normal, -normal.dot(p)))
    return Cell(PLANE, cons)


def tri(a, b, c) -> RefinedPolytope:
    return RefinedPolytope(2, [tri_cell(Vec(*a), Vec(*b), Vec(*c))])


def box(x0, x1, y0, y1) -> RefinedPolytope:
    cell = Cell(
        PLANE,
        [
            AffineFunctional(Vec(1, 0), -Fraction(x0)),
            AffineFunctional(Vec(-1, 0), Fraction(x1)),
            AffineFunctional(Vec(0, 1), -Fraction(y0)),
            AffineFunctional(Vec(0, -1), Fraction(y1)),
        ],
    )
    return RefinedPolytope(2, [cell])


def rp1(x, d) -> RefinedPoint:
    return RefinedPoint(Vec(x), Flag([Vec(d)]))


def test_segment_union_is_seamless():
    a, c, b = Fraction(0), Fraction(1), Fraction(3)
    left, right, whole = seg(a, c), seg(c, b), seg(a, b)
    assert equals(union(left, right), whole)
    assert is_empty(intersect(left, right))
    # The split point belongs to exactly one half, on each side.
    assert contains_point(left, rp1(c, -1)) and not contains_point(left, rp1(c, 1))
    assert contains_point(right, rp1(c, 1)) and not contains_point(right, rp1(c, -1))


def test_segment_difference_golden():
    a, c, b = Fraction(0), Fraction(1), Fraction(3)
    rest = difference(seg(a, b), seg(a, c))
    assert equals(rest, seg(c, b))
    assert contains_point(rest, rp1(c, 1))
    assert not contains_point(rest, rp1(c, -1))


def test_union_intersect_with_empty_and_self():
    p = box(0, 1, 0, 1)
    empty = RefinedPolytope(2, [])
    assert equals(union(p, empty), p)
    assert equals(intersect(p, p), p)
    assert is_empty(difference(p, p))
    assert is_subset(p, union(p, box(5, 6, 5, 6)))


def test_rank_mismatch_rejected():
    with pytest.raises(GeometryError):
        union(seg(0, 1), box(0, 1, 0, 1))
    with pytest.raises(GeometryError):
        contains_point(box(0, 1, 0, 1), rp1(0, 1))


def test_quadrilateral_splits_into_two_triangles():
    square = box(0, 1, 0, 1)
    lower = tri((0, 0), (1, 0), (1, 1))
    upper = tri((0, 0), (1, 1), (0, 1))
    assert disjoint(lower, upper)
    assert equals(union(lower, upper), square)
    assert partition_check([lower, upper], square)
    # A refined point on the open diagonal sits in exactly one triangle.
    mid = Vec(Fraction(1, 2), Fraction(1, 2))
    into_lower = RefinedPoint(mid, Flag([Vec(1, -1), Vec(1, 0)]))
    into_upper = RefinedPoint(mid, Flag([Vec(-1, 1), Vec(1, 0)]))
    assert contains_point(lower, into_lower) and not contains_point(upper, into_lower)
    assert contains_point(upper, into_upper) and not contains_point(lower, into_upper)


def test_overlapping_boxes_intersection():
    p, q = box(0, 2, 0, 2), box(1, 3, 1, 3)
    assert equals(intersect(p, q), box(1, 2, 1, 2))
    assert equals(difference(union(difference(p, q), intersect(p, q)), p), RefinedPolytope(2, []))
    assert equals(union(difference(p, q), intersect(p, q)), p)


def test_point_off_all_carriers():
    edge = affine_hull([Vec(0, 0), Vec(1, 0)])
    cell = Cell.from_ambient(
        edge, [AffineFunctional(Vec(1, 0), 0), AffineFunctional(Vec(-1, 0), 1)]
    )
    p = RefinedPolytope(1, [cell])
    off = RefinedPoint(Vec(0, 1), Flag([Vec(1, 0)]))
    assert not contains_point(p, off)


def test_closing_and_lift_round_trip_golden():
    p = seg(0, 2)
    conv = closing(p)
    assert conv.contains_position(Vec(0)) and conv.contains_position(Vec(2))
    assert not conv.contains_position(Vec(3))
    assert equals(lift(conv), p)

    square = box(0, 1, 0, 1)
    assert equals(lift(closing(square)), square)
    assert is_empty(RefinedPolytope(2, []))
    assert closing(RefinedPolytope(2, [])).pieces == ()


def test_lift_rejects_impure_input():
    flat = ClosedPiece(
        PLANE,
        [
            AffineFunctional(Vec(0, 1), 0),
            AffineFunctional(Vec(0, -1), 0),  # pinches y = 0: rank 1 in a rank-2 carrier
            AffineFunctional(Vec(1, 0), 0),
            AffineFunctional(Vec(-1, 0), 1),
        ],
    )
    good = ClosedPiece(
        PLANE,
        [
            AffineFunctional(Vec(1, 0), 0),
            AffineFunctional(Vec(-1, 0), 1),
            AffineFunctional(Vec(0, 1), 0),
            AffineFunctional(Vec(0, -1), 1),
        ],
    )
    with pytest.raises(GeometryError, match="piece 2"):
        lift(ConventionalPolytope(2, [good, flat]))
    lift(ConventionalPolytope(2, [good]))  # pure input passes


def _af(linear, const) -> AffineFunctional:
    return AffineFunctional(Vec(*linear), const)


IMPURE_PIECES = {
    "plane-segment": (PLANE, [_af((0, 1), 0), _af((0, -1), 0), _af((1, 0), 0), _af((-1, 0), 1)], 1),
    "plane-point": (PLANE, [_af((1, 0), 0), _af((-1, 0), 0), _af((0, 1), 0), _af((0, -1), 0)], 0),
    "plane-empty": (PLANE, [_af((0, 1), -1), _af((0, -1), 0)], -1),
    "negative-constant": (PLANE, [_af((1, 0), 0), _af((0, 0), -1)], -1),
    "line-point": (LINE, [_af((1,), 0), _af((-1,), 0)], 0),
    "space-flat": (
        Carrier.full(3),
        [_af((0, 0, 1), 0), _af((0, 0, -1), 0), _af((1, 0, 0), 0), _af((0, 1, 0), 0),
         _af((-1, -1, 0), 1)],
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(IMPURE_PIECES))
def test_lift_reports_the_rank_of_an_impure_piece(name, monkeypatch):
    """The rank in the message is computed only once a piece fails, and the
    message is the same as it always was; pure pieces lift without it."""
    carrier, functionals, dim = IMPURE_PIECES[name]
    k = carrier.dim
    pure = ClosedPiece(carrier, [_af([1 if j == i else 0 for j in range(k)], 0) for i in range(k)])
    bad = ClosedPiece(carrier, functionals)
    with pytest.raises(GeometryError) as err:
        lift(ConventionalPolytope(k, [pure, bad, pure]))
    assert str(err.value) == f"cannot lift: piece 2 of 3 has rank {dim}, expected {k}"

    def no_rank(*args):
        raise AssertionError("affine_dim on the success path")

    monkeypatch.setattr(algebra, "affine_dim", no_rank)
    lifted = lift(ConventionalPolytope(k, [pure, pure]))
    assert len(lifted.cells) == 2

def test_triangle_boundary_edges_are_disjoint():
    corners = [Vec(0, 0), Vec(4, 0), Vec(0, 3)]
    edges = []
    for i in range(3):
        p, q = corners[i], corners[(i + 1) % 3]
        carrier = affine_hull([p, q])
        d = q - p
        cons = [
            AffineFunctional(d, -d.dot(p)),
            AffineFunctional(-d, d.dot(q)),
        ]
        edges.append(RefinedPolytope(1, [Cell.from_ambient(carrier, cons)]))
    for i in range(3):
        for j in range(i + 1, 3):
            assert disjoint(edges[i], edges[j])  # distinct carriers never meet
            assert rank_drop_check(edges[i], edges[j])
    boundary = union(union(edges[0], edges[1]), edges[2])
    conv = closing(boundary)
    for v in corners:
        assert conv.contains_position(v)
    assert conv.contains_position(Vec(2, 0))
    assert not conv.contains_position(Vec(1, 1))
    assert partition_check(edges, boundary)


def test_disjoint_matches_rank_drop_goldens():
    a, b = box(0, 1, 0, 1), box(1, 2, 1, 2)  # share exactly one corner
    assert disjoint(a, b)
    assert rank_drop_check(a, b)
    c = box(0, 1, 0, 1)
    assert not disjoint(a, c) and not rank_drop_check(a, c)
    lower = tri((0, 0), (1, 0), (1, 1))
    upper = tri((0, 0), (1, 1), (0, 1))
    assert disjoint(lower, upper) and rank_drop_check(lower, upper)
    edge_sharing = box(0, 1, 0, 1), box(1, 2, 0, 1)
    assert disjoint(*edge_sharing) and rank_drop_check(*edge_sharing)


def test_interior_point_partition_of_triangle():
    a, b, c = (0, 0), (6, 0), (0, 6)
    d = (2, 2)  # interior point
    whole = tri(a, b, c)
    parts = [tri(a, b, d), tri(b, c, d), tri(c, a, d)]
    assert partition_check(parts, whole)
    assert partition_check(list(reversed(parts)), whole)  # order-invariant
    regrouped = [union(parts[0], parts[2]), parts[1]]
    assert partition_check(regrouped, whole)
    # Tampering breaks it, with a refined witness.
    bad = [tri(a, b, (2, 3)), parts[1], parts[2]]
    failure = partition_failure(bad, whole)
    assert failure is not None
    reason, witness = failure
    assert witness is not None


def test_partition_failure_witness_semantics():
    whole = seg(0, 3)
    overlapping = [seg(0, 2), seg(1, 3)]
    failure = partition_failure(overlapping, whole)
    assert failure is not None
    reason, witness = failure
    assert "overlap" in reason
    assert contains_point(overlapping[0], witness)
    assert contains_point(overlapping[1], witness)

    gap = [seg(0, 1), seg(2, 3)]
    failure = partition_failure(gap, whole)
    assert failure is not None
    reason, witness = failure
    assert "cover" in reason
    assert contains_point(whole, witness)
    assert not any(contains_point(p, witness) for p in gap)

    spill = [seg(0, 2), seg(2, 5)]
    failure = partition_failure(spill, whole)
    assert failure is not None
    reason, witness = failure
    assert "outside" in reason or "spill" in reason
    assert not contains_point(whole, witness)


def test_partition_failure_scans_unbounded_parts():
    # The closures' finite vertices are (0, 0) and (1, 0), so boxes built
    # from them alone would be apart although the wedges overlap.
    w1 = RefinedPolytope(
        2, [Cell(PLANE, [AffineFunctional(Vec(1, 0), 0), AffineFunctional(Vec(0, 1), 0)])]
    )
    w2 = RefinedPolytope(
        2, [Cell(PLANE, [AffineFunctional(Vec(1, 0), -1), AffineFunctional(Vec(0, 1), 0)])]
    )
    assert not is_empty(intersect(w1, w2))
    failure = partition_failure([w1, w2], w1)
    assert failure is not None
    reason, witness = failure
    assert reason == "parts 1 and 2 overlap"
    assert contains_point(w1, witness) and contains_point(w2, witness)


# -- randomized extensional checks ------------------------------------------------


def _rand_flag(rng: random.Random, k: int) -> Flag:
    while True:
        rows = [Vec(*[Fraction(rng.randint(-4, 4)) for _ in range(k)]) for _ in range(k)]
        if rank(rows) == k:
            return Flag(rows)


def _rand_cell(rng: random.Random, d: int) -> Cell:
    cons = []
    for _ in range(rng.randint(1, 4)):
        linear = [Fraction(rng.randint(-3, 3)) for _ in range(d)]
        if all(v == 0 for v in linear):
            linear[rng.randrange(d)] = Fraction(1)
        cons.append(AffineFunctional(Vec(*linear), Fraction(rng.randint(-2, 3))))
    return Cell(Carrier.full(d), cons)


def _rand_polytope(rng: random.Random, d: int) -> RefinedPolytope:
    return RefinedPolytope(d, [_rand_cell(rng, d) for _ in range(rng.randint(1, 3))])


def _sample_points(rng: random.Random, d: int, polys, count: int) -> list[RefinedPoint]:
    pts = []
    carrier = Carrier.full(d)
    witnesses = []
    for p in polys:
        for cell in p.cells:
            w = cell.witness()
            if w is not None:
                witnesses.append(w.position)
    while len(pts) < count:
        if witnesses and rng.random() < 0.5:
            pos = witnesses[rng.randrange(len(witnesses))]
            if rng.random() < 0.5 and len(witnesses) > 1:
                other = witnesses[rng.randrange(len(witnesses))]
                pos = (pos + other).scale(Fraction(1, 2))
            pts.append(RefinedPoint(pos, _rand_flag(rng, d)))
        else:
            pts.append(sample_refined_point(carrier, rng.randrange(10**6)))
    return pts


def test_boolean_laws_extensional():
    rng = random.Random(99)
    for trial in range(25):
        d = rng.choice([1, 2, 3])
        p, q, r = (_rand_polytope(rng, d) for _ in range(3))
        identities = [
            (union(p, q), union(q, p)),
            (intersect(p, q), intersect(q, p)),
            (union(union(p, q), r), union(p, union(q, r))),
            (intersect(intersect(p, q), r), intersect(p, intersect(q, r))),
            (difference(p, union(q, r)), intersect(difference(p, q), difference(p, r))),
            (difference(p, intersect(q, r)), union(difference(p, q), difference(p, r))),
            (union(difference(p, q), intersect(p, q)), p),
        ]
        for x in _sample_points(rng, d, (p, q, r), 10):
            for lhs, rhs in identities:
                assert contains_point(lhs, x) == contains_point(rhs, x)


def test_symbolic_equality_matches_extension():
    rng = random.Random(7)
    for trial in range(40):
        d = rng.choice([1, 2])
        p, q = _rand_polytope(rng, d), _rand_polytope(rng, d)
        diff = difference(p, q)
        for cell in diff.cells:
            w = cell.witness()
            assert w is not None
            assert contains_point(p, w)
            assert not contains_point(q, w)
        meet = intersect(p, q)
        for cell in meet.cells:
            w = cell.witness()
            assert contains_point(p, w) and contains_point(q, w)
        if equals(p, q):
            for x in _sample_points(rng, d, (p, q), 8):
                assert contains_point(p, x) == contains_point(q, x)


def test_disjoint_iff_rank_drop_randomized():
    rng = random.Random(41)
    agree = 0
    for trial in range(60):
        d = rng.choice([1, 2])
        p, q = _rand_polytope(rng, d), _rand_polytope(rng, d)
        assert disjoint(p, q) == rank_drop_check(p, q)
        agree += 1
    assert agree == 60


def test_lift_closing_round_trip_randomized():
    rng = random.Random(23)
    done = 0
    while done < 30:
        d = rng.choice([1, 2])
        p = _rand_polytope(rng, d)
        if is_empty(p):
            continue
        back = lift(closing(p))
        assert equals(back, p)
        done += 1


# -- boundary certificate against the difference path -------------------------------


def _reference_partition_failure(parts, whole):
    """partition_failure without shortcuts: every pair is intersected and
    the cover is always decided by difference."""
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            overlap = intersect(parts[i], parts[j])
            if overlap.cells:
                return (f"parts {i + 1} and {j + 1} overlap", overlap.cells[0].witness())
    total = RefinedPolytope(whole.rank, [])
    for part in parts:
        total = union(total, part)
    excess = difference(total, whole)
    if excess.cells:
        return ("parts spill outside the whole", excess.cells[0].witness())
    missing = difference(whole, total)
    if missing.cells:
        return ("parts do not cover the whole", missing.cells[0].witness())
    return None


def _rect(x0, x1, y0, y1) -> Cell:
    return Cell(
        PLANE,
        [
            AffineFunctional(Vec(1, 0), -x0),
            AffineFunctional(Vec(-1, 0), x1),
            AffineFunctional(Vec(0, 1), -y0),
            AffineFunctional(Vec(0, -1), y1),
        ],
    )


def _cuts(rng: random.Random, lo, hi, n: int) -> list:
    """n - 1 increasing interior cut positions between lo and hi, then hi."""
    fracs = sorted(rng.sample(range(1, 12), n - 1))
    return [lo + (hi - lo) * Fraction(f, 12) for f in fracs] + [hi]


def _random_grid(rng: random.Random, unit):
    """A w x h box cut into a grid of boxes; the whole is two boxes that
    overlap, which the boundary certificate must decline, or that abut."""
    w, h = unit * rng.randint(2, 4), unit * rng.randint(2, 4)
    xs = [0] + _cuts(rng, 0, w, rng.randint(2, 3))
    ys = [0] + _cuts(rng, 0, h, rng.randint(2, 3))
    parts = [
        RefinedPolytope(2, [_rect(xs[i], xs[i + 1], ys[j], ys[j + 1])])
        for i in range(len(xs) - 1)
        for j in range(len(ys) - 1)
    ]
    low, high = (h * Fraction(2, 3), h / 3) if rng.random() < 0.5 else (h / 2, h / 2)
    whole = RefinedPolytope(2, [_rect(0, w, 0, low), _rect(0, w, high, h)])
    return parts, whole


def _random_fan(rng: random.Random, unit):
    """A box cut into triangles from an interior point to a ring of points
    on its boundary; the whole is the box as one cell."""
    w, h = unit * rng.randint(2, 4), unit * rng.randint(2, 4)
    center = Vec(w * Fraction(rng.randint(2, 10), 12), h * Fraction(rng.randint(2, 10), 12))
    ring = [Vec(0, 0)]
    ring += [Vec(x, 0) for x in _cuts(rng, 0, w, rng.randint(1, 2))]
    ring += [Vec(w, y) for y in _cuts(rng, 0, h, rng.randint(1, 2))]
    ring += [Vec(x, h) for x in reversed([0] + _cuts(rng, 0, w, rng.randint(1, 2))[:-1])]
    ring += [Vec(0, y) for y in reversed(_cuts(rng, 0, h, rng.randint(1, 2))[:-1])]
    parts = [tri(center, ring[i], ring[(i + 1) % len(ring)]) for i in range(len(ring))]
    return parts, RefinedPolytope(2, [_rect(0, w, 0, h)])


def _halves(part: RefinedPolytope) -> list[RefinedPolytope]:
    """The single cell of a part cut in two by a line through its interior;
    the halves share the boundary segment on that line."""
    cell = part.cells[0]
    x = cell.witness().position
    cut = AffineFunctional(Vec(1, 1), -(x[0] + x[1]))
    return [
        RefinedPolytope(2, [cell.with_extra([cut])]),
        RefinedPolytope(2, [cell.with_extra([-cut])]),
    ]


_KINDS = ["none", "shift", "duplicate", "drop", "boundary", "merge", "self-overlap"]
_HOLDS = ("none", "boundary", "merge", "self-overlap")


def _tamper(rng: random.Random, parts: list, unit, kind: str) -> list:
    out = list(parts)
    k = rng.randrange(len(out))
    if kind == "shift":
        out[k] = out[k].translated(Vec(unit * Fraction(rng.choice([-1, 1]), 5), unit / 7))
    elif kind == "duplicate":
        out.insert(rng.randrange(len(out) + 1), out[k])
    elif kind == "drop":
        del out[k]
    elif kind == "boundary":
        out[k : k + 1] = _halves(out[k])
    elif kind == "merge":
        k = min(k, len(out) - 2)
        out[k : k + 2] = [union(out[k], out[k + 1])]
    elif kind == "self-overlap":  # the same set, with overlapping cells
        out[k] = RefinedPolytope(2, list(out[k].cells) + list(_halves(out[k])[0].cells))
    return out


def test_boundary_certificate_matches_difference_path():
    """partition_failure, which tries boundary cancellation first, against
    the reference without shortcuts: the same verdicts, reasons and
    witnesses on true and tampered partitions, rational and tower units.
    The certificate decides every true partition whose whole has disjoint
    cells, and the whole's own cells as parts are judged like any other."""
    rng = random.Random(3117)
    sqrt2 = adjoin_sqrt(2)
    units = [Fraction(1), Fraction(1, 3), sqrt2, adjoin_sqrt(3) / 2, adjoin_sqrt(2 + sqrt2)]
    certified = 0
    for trial in range(35):
        unit = units[trial % len(units)]
        build = _random_grid if trial % 2 == 0 else _random_fan
        parts, whole = build(rng, unit)
        assert partition_failure(parts, whole) is None
        cells = [RefinedPolytope(2, [c]) for c in whole.cells]
        apart = all(disjoint(a, b) for i, a in enumerate(cells) for b in cells[i + 1 :])
        assert partition_certified(parts, whole) == apart, trial
        certified += apart
        kind = _KINDS[trial % len(_KINDS)]
        tampered = _tamper(rng, parts, unit, kind)
        for case, trial_parts in ((kind, tampered), ("whole cells", cells)):
            got = partition_failure(trial_parts, whole)
            want = _reference_partition_failure(trial_parts, whole)
            assert got == want, (trial, case, got, want)
        assert (got is None) == apart, trial
        assert (partition_failure(tampered, whole) is None) == (kind in _HOLDS), (trial, kind)
    assert 10 <= certified < 35


def test_rotated_square_in_nested_tower_finishes():
    """The square with corners (+-1, +-1) rotated by pi/8, with cos and sin
    under different nested roots: sqrt(2+sqrt2)/2 and sqrt(2-sqrt2)/2.  A
    20 s deadline turns a hang into a failure instead of stalling the suite."""
    with deadline(20, "rotated square in a nested tower"):
        sqrt2 = adjoin_sqrt(2)
        cos8 = adjoin_sqrt(2 + sqrt2) / 2
        sin8 = adjoin_sqrt(2 - sqrt2) / 2
        square = [
            Vec(cos8 * x - sin8 * y, sin8 * x + cos8 * y)
            for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))
        ]
        a = polygon_lift(square)
        b = polygon_lift(square)
        inter = intersect(a, b)
        diff = difference(a, b)
        assert partition_failure([inter, diff], a) is None
        assert equals(union(inter, diff), a)
        assert area(a) == 4
