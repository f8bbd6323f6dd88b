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

Moved plane cells map their constraints' integer rows with a motion's
integer form; the reference there is the scalar path
``Cell._moved_via_carrier`` of the same motion.  Motions compose, invert
and apply on their integer forms; the reference there is a test-local copy
of the scalar matrix arithmetic.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import deadline

from refinedgeo.algebra import RefinedPolytope, area, equals, is_subset
from refinedgeo.cells import Cell
from refinedgeo.equidecomp import Motion, convex_polygon_cell, polygon_lift
from refinedgeo.errors import GeometryError
from refinedgeo.fm import LinIneq, feasible, is_bounded, vertices
from refinedgeo.linalg import AffineFunctional, Carrier, Vec
from refinedgeo.scalars import _encode, _sign, adjoin_sqrt, sign

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
            _check_cell(cell)  # an intermediate parent, compared as well
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


# Rotations (cos, sin) in each tower of UNITS.
ROTATIONS = {
    "rational": [(Fraction(3, 5), Fraction(4, 5)), (Fraction(5, 13), Fraction(-12, 13))],
    "sqrt2-sqrt3": [(SQRT2 / 2, SQRT2 / 2), (Fraction(1, 2), adjoin_sqrt(3) / 2)],
    "sqrt2-nested": [
        (adjoin_sqrt(2 + SQRT2) / 2, adjoin_sqrt(2 - SQRT2) / 2),
        (SQRT2 / 2, -SQRT2 / 2),
    ],
}


def _stage_motion(rng: random.Random, kind: str) -> Motion:
    """A rotation about a tower point, a tower translation or the identity."""
    units = UNITS[kind]
    roll = rng.random()
    if roll < 0.5:
        c, s = rng.choice(ROTATIONS[kind])
        return Motion.rotation_about(Vec(_scalar(rng, units), _scalar(rng, units)), c, s)
    if roll < 0.9:
        return Motion.translation_by(Vec(_scalar(rng, units), _scalar(rng, units)))
    return Motion.identity()


def _form_is_the_encoding(m: Motion) -> bool:
    """The integer form of a motion equals the encoding of its scalars."""
    rot, dr, t, dt = m.form
    (a, b), (c, d) = m.rotation
    if (list(t), dt) != _encode(m.translation):
        return False
    if rot is None:
        return dr == 1 and sign(a - 1) == sign(b) == sign(c) == sign(d - 1) == 0
    return ([*rot[0], *rot[1]], dr) == _encode((a, b, c, d))


_I = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def _ref_apply(ref, x: Vec, shift: bool = True) -> Vec:
    """The scalar ``apply_vec`` (``apply_direction`` without the shift) of a
    motion given as (rotation rows, translation)."""
    (a, b), (c, d) = ref[0]
    out = Vec(a * x[0] + b * x[1], c * x[0] + d * x[1])
    return out + ref[1] if shift else out


def _ref_compose(ref1, ref2) -> tuple:
    """The scalar ``compose``: ref1 after ref2."""
    (a, b), (c, d) = ref1[0]
    (e, f), (g, h) = ref2[0]
    rows = ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))
    return rows, _ref_apply(ref1, ref2[1])


def _ref_inverse(ref) -> tuple:
    (a, b), (c, d) = ref[0]
    back = ((a, c), (b, d))
    return back, -_ref_apply((back, None), ref[1], shift=False)


def _stage_pair(rng: random.Random, kind: str) -> tuple:
    """A stage motion and its scalar reference, built from the same input."""
    units = UNITS[kind]
    center = Vec(_scalar(rng, units), _scalar(rng, units))
    roll = rng.random()
    if roll < 0.5:
        c, s = rng.choice(ROTATIONS[kind])
        rows = ((c, -s), (s, c))
        ref = rows, center - _ref_apply((rows, None), center, shift=False)
        return Motion.rotation_about(center, c, s), ref
    if roll < 0.9:
        return Motion.translation_by(center), (_I, center)
    return Motion.identity(), (_I, Vec(0, 0))


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_motion_forms_match_the_scalar_reference(kind):
    """Composing, inverting and applying motions on their integer forms,
    against a test-local copy of the scalar arithmetic they replaced, along
    seeded chains of compose and inverse.  Every form is the encoding of
    its decoded values (so in lowest terms), the decoded rotation and
    translation equal the reference, and m^-1 m has r = None.  In a scratch
    copy this fails when compose transposes the product, drops the R1 t2
    term, or skips the gcd reduction."""
    rng = random.Random(f"motion-forms-{kind}")
    units = UNITS[kind]
    chains = 0
    with deadline(60, f"motion forms ({kind})"):
        for _ in range(60):
            m, ref = Motion.identity(), (_I, Vec(0, 0))
            for _ in range(rng.randint(1, 6)):
                step, step_ref = _stage_pair(rng, kind)
                how = rng.randrange(3)
                if how == 0:
                    m, ref = step.compose(m), _ref_compose(step_ref, ref)
                elif how == 1:
                    m, ref = m.compose(step.inverse()), _ref_compose(ref, _ref_inverse(step_ref))
                else:
                    m, ref = m.inverse().compose(step), _ref_compose(_ref_inverse(ref), step_ref)
                assert _form_is_the_encoding(step) and _form_is_the_encoding(m)
                assert m.translation == ref[1]
                assert all(
                    sign(x - y) == 0 for r, q in zip(m.rotation, ref[0]) for x, y in zip(r, q)
                )
                x = Vec(_scalar(rng, units), _scalar(rng, units))
                assert m.apply_vec(x) == _ref_apply(ref, x)
                assert m.apply_direction(x) == _ref_apply(ref, x, shift=False)
            ident = m.inverse().compose(m)
            assert ident.form[0] is None and ident.is_identity()
            assert _form_is_the_encoding(m.inverse()) and _form_is_the_encoding(ident)
            chains += m.form[0] is not None
    assert chains > 20


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_row_map_matches_carrier_path(kind):
    """Cells moved stage by stage, as a dissection chain moves its images,
    against the scalar reference path of the composed motion: equal
    constraint values, the same emptiness, the vertices of a fresh cell on
    the moved rows and equal lifts; the composed motion's inverse brings the
    image back to the start cell's constraints.  In a scratch copy this
    fails when the row map drops the first translation term, transposes R,
    or leaves the denominator unscaled."""
    rng = random.Random(f"row-map-{kind}")
    units = UNITS[kind]
    moved = nonempty = 0
    with deadline(120, f"row map differential ({kind})"):
        for _ in range(80):
            fns: list = []
            for _ in range(rng.randint(1, 5)):
                fns.append(_row(rng, units, fns))
            cell = Cell(PLANE, fns)
            empty = cell.is_empty()
            if not empty:
                cell.closure()  # the cycle whose labels the motions carry
            image, m = cell, Motion.identity()
            for _ in range(rng.randint(1, 5)):
                step = _stage_motion(rng, kind)
                image = step.apply_cell(image)
                m = step.compose(m)
                if rng.random() < 0.4:  # the same motion, rebuilt through inverses
                    inv = m.inverse()
                    parts = [inv, inv.compose(m), inv.inverse()]
                    m = parts[1].compose(parts[2])
                    assert parts[1].form[0] is None
                    assert all(_form_is_the_encoding(part) for part in parts)
                assert _form_is_the_encoding(step) and _form_is_the_encoding(m)
                ref = cell._moved_via_carrier(m.apply_direction, m.translation)
                assert len(image.constraints) == len(ref.constraints)
                assert all(a == b for a, b in zip(image.constraints, ref.constraints))
                assert image._empty is empty and ref.is_empty() is empty
                moved += 1
                if empty:
                    continue
                nonempty += 1
                fresh = Cell(PLANE, image.constraints)
                assert _same_points(
                    image.closure().vertex_positions(),
                    [tuple(v) for v in fresh.closure().vertex_positions()],
                )
                assert equals(RefinedPolytope(2, [image]), RefinedPolytope(2, [ref]))
            back = m.inverse().apply_cell(image)
            assert all(a == b for a, b in zip(back.constraints, cell.constraints))
    assert moved > 150 and 100 < nonempty < moved - 30


def test_reflection_cannot_move_a_plane_cell():
    """A reflection reverses a plane cell's edge cycle.  ``moved`` used to
    take any map and keep the source's labels, so the image's vertices got
    W < 0 and a later clip kept the wrong part: area 5/3 where the true
    image has 4/3.  Moves now take a motion's integer form, and a Motion has
    determinant 1."""
    tri = convex_polygon_cell([(0, 0), (2, 0), (1, 3)])
    cut = AffineFunctional(Vec(0, -1), -1)  # y <= -1
    mirror = (lambda u: Vec(u[0], -u[1])), Vec(0, 0)
    with pytest.raises(TypeError):
        tri.moved(*mirror)
    with pytest.raises(GeometryError):
        Motion(((1, 0), (0, -1)), Vec(0, 0))
    # The scalar reference path re-derives everything, so it moves a mirror image right.
    ref = tri._moved_via_carrier(*mirror).with_extra([cut])
    assert area(RefinedPolytope(2, [ref])) == Fraction(4, 3)
    # The half turn maps this triangle to one with the same cut area.
    m = Motion.rotation_about(Vec(0, 0), -1, 0)
    image = m.apply_cell(tri).with_extra([cut])
    assert all(_sign(v[2]) >= 0 for v in image._edges()[1])
    ref = tri._moved_via_carrier(m.apply_direction, m.translation).with_extra([cut])
    assert area(RefinedPolytope(2, [image])) == area(RefinedPolytope(2, [ref])) == Fraction(4, 3)
    assert equals(RefinedPolytope(2, [image]), RefinedPolytope(2, [ref]))


def test_plane_cells_decide_emptiness_when_made():
    """Every constructor of a cell on a 2-dimensional carrier, whether the
    full plane or a plane in space, decides the cell's emptiness at once,
    and it is what a fresh strict feasibility test decides."""
    rng = random.Random("plane-cells-made")
    tilted = Carrier(Vec(1, 0, 2), [Vec(1, 0, 1), Vec(0, 1, -1)])
    motions = [
        Motion.rotation_about(Vec(1, -2), Fraction(3, 5), Fraction(4, 5)),
        Motion.translation_by(Vec(2, -1)),
    ]
    made, outcomes = 0, set()
    with deadline(60, "plane cells decided when made"):
        for trial in range(60):
            fns: list = []
            for _ in range(rng.randint(1, 5)):
                fns.append(_row(rng, UNITS["sqrt2-sqrt3"], fns))
            k = rng.randint(0, len(fns))
            # Each row has a nonzero (x, y) part, so none restricts to a constant.
            lifted = [AffineFunctional(Vec(*xi.linear, 0), xi.constant) for xi in fns]
            cell = Cell(PLANE, fns)
            in_space = Cell.from_ambient(tilted, lifted)
            for c in (
                cell,
                Cell(PLANE, fns[:k]).with_extra(fns[k:]),
                Cell.from_ambient(PLANE, fns),
                in_space,
                in_space.translated(Vec(1, 1, 1)),
                cell.pruned(),
                motions[trial % 2].apply_cell(cell),
                cell.translated(Vec(Fraction(1, 3), -2)),
                convex_polygon_cell([Vec(0, 0), Vec(4, trial % 5), Vec(1, 3)]),
            ):
                assert c.carrier.dim == 2 and c._empty is not None
                assert c._empty == (not feasible(c._strict_system(), 2))
                outcomes.add(c._empty)
                made += 1
    assert made == 540 and outcomes == {True, False}


def test_long_with_extra_chain_decides_without_recursion():
    """A cell grown by 1 500 ``with_extra`` steps of redundant half-planes
    used to clip each ancestor's cycle on first query, one nested call per
    pending step, and raised RecursionError; it now clips each step when it
    is made, and agrees with the same constraints given at once."""
    rng = random.Random("with-extra-chain")
    tri = [AffineFunctional(Vec(*r[:2]), r[2]) for r in ((1, 0, 10), (0, 1, 10), (-1, -1, 10))]
    extra = []
    for _ in range(1500):  # |a x + b y| <= 150 on the triangle, so c > 150 is redundant
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        extra.append(AffineFunctional(Vec(a or 1, b), rng.randint(151, 250)))
    with deadline(10, "1 500-step with_extra chain"):
        cell = Cell(PLANE, tri)
        for xi in extra:
            cell = cell.with_extra([xi])
        assert not cell.is_empty()
        assert list(cell.pruned().constraints) == tri
        at_once = Cell(PLANE, tri + extra)
        assert not at_once.is_empty() and list(at_once.pruned().constraints) == tri
        assert cell.closure().vertex_positions() == at_once.closure().vertex_positions()
        assert cell.with_extra([AffineFunctional(Vec(1, 0), -21)]).is_empty()  # x > 21


def test_subset_of_a_large_convex_polygon_decides_without_recursion():
    """A convex 1 200-gon is one cell with 1 200 constraints; the difference
    behind ``is_subset`` grows cells through 1 200 prefixes, which used to
    be clipped recursively on first query and raised RecursionError."""
    big = polygon_lift([Vec(i, i * i) for i in range(1200)])
    assert len(big.cells) == 1
    inside = polygon_lift([Vec(1, 3), Vec(2, 5), Vec(1, 4)])
    outside = polygon_lift([Vec(1, 0), Vec(2, 1), Vec(1, 1)])  # below the parabola
    with deadline(10, "subset of a convex 1 200-gon"):
        assert is_subset(inside, big)
        assert not is_subset(outside, big)
