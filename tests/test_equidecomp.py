"""Equidecomposition tests: motions, areas, triangulation, cut-and-paste stages,
the full pipeline, and its exact verifier."""

from __future__ import annotations

import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from refinedgeo import algebra, equidecomp
from refinedgeo.algebra import RefinedPolytope, equals, partition_check, partition_failure
from refinedgeo.cells import Cell, _mapped_key
from refinedgeo.cli import write_decomposition
from refinedgeo.equidecomp import (
    Decomposition,
    _signatures_match,
    Motion,
    area,
    convex_polygon_cell,
    convex_polygon_lift,
    equiareal_shear,
    equidecompose,
    match_triangle_areas,
    polygon_lift,
    shoelace_area,
    triangle_to_parallelogram,
    triangulate,
    triangulate_cycle,
    verify_decomposition,
)
from refinedgeo.errors import GeometryError
from refinedgeo.fm import feasible
from refinedgeo.linalg import AffineFunctional, Carrier, Vec, cross2
from refinedgeo.scalars import adjoin_sqrt, ceil_scalar, floor_scalar, sign

F = Fraction
PLANE = Carrier.full(2)

UNIT_SQUARE = [(0, 0), (1, 0), (1, 1), (0, 1)]
WIDE_RECT = [(0, 0), (2, 0), (2, F(1, 2)), (0, F(1, 2))]
L_HEXAGON = [(0, 0), (2, 0), (2, 1), (1, 1), (1, 2), (0, 2)]


# -- motions ---------------------------------------------------------------------


def test_motion_identity_and_translation():
    assert Motion.identity().is_identity()
    t = Motion.translation_by(Vec(3, -2))
    assert t.apply_vec(Vec(1, 1)) == Vec(4, -1)
    assert t.inverse().compose(t).is_identity()


def test_motion_rejects_non_rotations():
    with pytest.raises(GeometryError):
        Motion(((1, 0), (0, 2)), Vec(0, 0))  # not orthogonal
    with pytest.raises(GeometryError):
        Motion(((1, 0), (0, -1)), Vec(0, 0))  # reflection, det -1
    with pytest.raises(GeometryError):
        Motion(((1, 1), (0, 1)), Vec(0, 0))  # shear, det 1
    with pytest.raises(GeometryError):
        Motion(((1, 0, 0), (0, 1, 0)), Vec(0, 0))


def test_motion_with_tower_entries():
    c = adjoin_sqrt(F(1, 2))  # cos = sin = sqrt(2)/2
    m = Motion(((c, -c), (c, c)), Vec(0, 0))
    img = m.apply_vec(Vec(1, 0))
    assert sign(img[0] - c) == 0 and sign(img[1] - c) == 0
    assert m.inverse().compose(m).is_identity()
    assert m.compose(m).apply_vec(Vec(1, 0)) == Vec(0, 1)  # two eighth turns


def test_rotation_about_fixes_center():
    center = Vec(F(3, 2), 1)
    m = Motion.rotation_about(center, F(3, 5), F(4, 5))
    assert m.apply_vec(center) == center
    assert not m.is_identity()


def test_composed_and_inverted_motions_stay_orthogonal():
    """compose, inverse, translation_by and rotation_about build without
    checking again; chains of them over rational and square-root rotations
    still satisfy R^T R = I and det R = 1 exactly."""
    rng = random.Random(4942)
    sqrt2 = adjoin_sqrt(2)
    cos8 = adjoin_sqrt(2 + sqrt2) / 2
    turns = [
        (F(3, 5), F(4, 5)),
        (F(-5, 13), F(12, 13)),
        (sqrt2 / 2, sqrt2 / 2),
        (F(1, 2), adjoin_sqrt(3) / 2),
        (cos8, sqrt2 / (4 * cos8)),
    ]
    for _ in range(6):
        m = Motion.identity()
        for _ in range(4):
            center = Vec(F(rng.randint(-3, 3), 2), F(rng.randint(-3, 3), 3))
            step = Motion.rotation_about(center, *rng.choice(turns))
            how = rng.randrange(4)
            if how == 0:
                m = m.compose(step)
            elif how == 1:
                m = step.compose(m.inverse())
            elif how == 2:
                m = m.inverse().compose(step.inverse())
            else:
                m = Motion.translation_by(center).compose(m)
            (a, b), (c, d) = m.rotation
            for identity in (a * a + c * c - 1, b * b + d * d - 1, a * b + c * d, a * d - b * c - 1):
                assert sign(identity) == 0
        x = Vec(rng.randint(-5, 5), F(1, 7))
        assert m.inverse().apply_vec(m.apply_vec(x)) == x
        assert m.compose(m.inverse()).is_identity()


SQRT2 = adjoin_sqrt(2)
# Motions of the plane, none the identity: a 3-4-5 rotation, the pi/8
# rotation over the tower sqrt2, sqrt(2+sqrt2), sqrt(2-sqrt2), and two
# translations.
MOTIONS = {
    "rot345": Motion.rotation_about(Vec(F(1, 3), -2), F(3, 5), F(4, 5)),
    "rot-pi/8": Motion.rotation_about(
        Vec(1, F(1, 2)), adjoin_sqrt(2 + SQRT2) / 2, adjoin_sqrt(2 - SQRT2) / 2
    ),
    "shift": Motion.translation_by(Vec(F(-7, 2), F(5, 3))),
    "shift-sqrt2": Motion.translation_by(Vec(SQRT2, 1 - SQRT2 / 3)),
}


def _random_plane_cell(rng: random.Random) -> Cell:
    cons = []
    for _ in range(rng.randint(1, 5)):
        a, b = rng.randint(-3, 3), rng.randint(-3, 3)
        if a == 0 and b == 0:
            a = 1
        cons.append(AffineFunctional(Vec(a, b), F(rng.randint(-6, 6), rng.randint(1, 3))))
    return Cell(PLANE, cons)


@pytest.mark.parametrize("name", sorted(MOTIONS))
def test_full_plane_motion_matches_carrier_path(name):
    m = MOTIONS[name]
    rng = random.Random(f"motion-{name}")
    seen = set()
    for _ in range(12):
        cell = _random_plane_cell(rng)
        empty = cell.is_empty()
        seen.add(empty)
        fast = m.apply_cell(cell)
        ref = cell._moved_via_carrier(m.apply_direction, m.translation)
        assert fast.carrier == ref.carrier
        assert len(fast.constraints) == len(ref.constraints)
        assert all(a == b for a, b in zip(fast.constraints, ref.constraints))
        # The carried emptiness is what a fresh feasibility test decides.
        assert ref.is_empty() == (not feasible(ref._strict_system(), ref.carrier.dim)) and (
            fast._empty == empty == ref.is_empty()
        )
        if not empty:  # and the image holds the image of a point of the cell
            assert fast.contains(m.apply_refined_point(cell.witness()))
    assert seen == {True, False}
    for _ in range(3):
        poly = polygon_lift(random_convex_polygon(rng))
        fast = m.apply_polytope(poly)
        ref = RefinedPolytope(
            poly.rank, [c._moved_via_carrier(m.apply_direction, m.translation) for c in poly.cells]
        )
        assert equals(fast, ref) and equals(ref, fast)


def _corner_keys(cell: Cell) -> set:
    """The keys of the vertices between two edges, finite or at infinity."""
    labels = cell._edges()[0]
    return {k for i, k in enumerate(cell.keyed_boundary()[0]) if labels[i] != labels[i - 1]}


@pytest.mark.parametrize("name", sorted(MOTIONS))
def test_mapped_keys_are_the_moved_cells_keys(name):
    """``cells._mapped_key`` maps a cell's corner keys, finite points and
    directions at infinity alike, onto the corner keys of the moved cell."""
    m = MOTIONS[name]
    rng = random.Random(f"keys-{name}")
    unbounded = 0
    for _ in range(16):
        cell = _random_plane_cell(rng)
        if cell.is_empty():
            continue
        assert {_mapped_key(m.form, k) for k in _corner_keys(cell)} == _corner_keys(m.apply_cell(cell))
        unbounded += not cell.closure().is_bounded()
    assert unbounded


def test_lower_rank_cell_takes_the_carrier_path(monkeypatch):
    calls = []
    general = Cell._moved_via_carrier

    def spy(self, rotate, shift):
        calls.append(self)
        return general(self, rotate, shift)

    monkeypatch.setattr(Cell, "_moved_via_carrier", spy)
    m = MOTIONS["rot345"]
    segment = Cell(Carrier(Vec(0, 1), [Vec(1, 1)]), [AffineFunctional(Vec(1), 0)])
    assert not segment.is_empty()
    moved = m.apply_cell(segment)
    assert calls == [segment]
    assert moved.carrier == Carrier(m.apply_vec(Vec(0, 1)), [m.apply_direction(Vec(1, 1))])
    assert moved._empty is False
    m.apply_cell(_random_plane_cell(random.Random(1)))
    assert calls == [segment]


def test_motion_moves_cells_exactly():
    m = Motion.rotation_about(Vec(0, 0), 0, 1)  # quarter turn
    square = convex_polygon_lift(UNIT_SQUARE)
    turned = m.apply_polytope(square)
    assert equals(turned, convex_polygon_lift([(0, 0), (0, 1), (-1, 1), (-1, 0)]))


# -- area ------------------------------------------------------------------------


def test_area_unit_square():
    assert area(convex_polygon_lift(UNIT_SQUARE)) == 1


def test_area_triangle():
    assert area(convex_polygon_lift([(0, 0), (2, 0), (0, 1)])) == 1


def test_area_quadrilateral_splits_along_diagonal():
    a, b, c, d = (0, 0), (4, 0), (5, 3), (1, 4)
    quad = area(convex_polygon_lift([a, b, c, d]))
    split = area(convex_polygon_lift([a, b, c])) + area(convex_polygon_lift([c, d, a]))
    assert quad == split == abs(shoelace_area([Vec(*p) for p in (a, b, c, d)]))


def test_area_counts_overlap_once():
    both = RefinedPolytope(
        2,
        [
            convex_polygon_cell([(0, 0), (2, 0), (2, 2), (0, 2)]),
            convex_polygon_cell([(1, 1), (3, 1), (3, 3), (1, 3)]),
        ],
    )
    assert area(both) == 7


def test_area_additive_over_triangulation():
    pieces = triangulate(L_HEXAGON)
    assert sum((area(t) for t in pieces), F(0)) == area(polygon_lift(L_HEXAGON)) == 3


def test_area_unbounded_rejected():
    half = RefinedPolytope(2, [Cell(PLANE, [AffineFunctional(Vec(1, 0), F(0))])])
    with pytest.raises(GeometryError):
        area(half)


# -- triangulation -----------------------------------------------------------------


def test_triangulate_triangle_is_itself():
    tris = triangulate([(0, 0), (3, 0), (0, 3)])
    assert len(tris) == 1
    assert equals(tris[0], convex_polygon_lift([(0, 0), (3, 0), (0, 3)]))


def test_triangulate_convex_quad():
    quad = [(0, 0), (4, 0), (5, 3), (1, 4)]
    tris = triangulate(quad)
    assert len(tris) == 2
    assert partition_check(tris, polygon_lift(quad))


def test_triangulate_l_hexagon():
    tris = triangulate(L_HEXAGON)
    assert len(tris) == 4
    assert partition_check(tris, polygon_lift(L_HEXAGON))


def test_triangulate_deterministic():
    first = triangulate_cycle(L_HEXAGON)
    second = triangulate_cycle(L_HEXAGON)
    assert first == second


def test_triangulate_rejects_bad_cycles():
    with pytest.raises(GeometryError, match=r"^degenerate polygon \(zero area\)$"):
        triangulate_cycle([(0, 0), (2, 2), (2, 0), (0, 2)])  # bowtie: its two halves cancel
    with pytest.raises(GeometryError, match=r"^polygon has a spike \(zero-angle vertex\)$"):
        triangulate_cycle([(0, 0), (2, 0), (1, 0), (1, 1)])  # spike at (2,0)
    with pytest.raises(GeometryError, match=r"^repeated consecutive vertex$"):
        triangulate_cycle([(0, 0), (0, 0), (1, 1)])  # repeated vertex
    with pytest.raises(GeometryError, match=r"^polygon has a spike \(zero-angle vertex\)$"):
        triangulate_cycle([(0, 0), (1, 0), (2, 0)])  # collinear: a spike at (0,0)


def test_triangulate_drops_straight_vertices():
    padded = [(0, 0), (1, 0), (2, 0), (2, 2), (0, 2)]
    tris = triangulate(padded)
    assert partition_check(tris, convex_polygon_lift([(0, 0), (2, 0), (2, 2), (0, 2)]))


# -- area matching -----------------------------------------------------------------


def tri_of_area(x0, a) -> tuple[Vec, Vec, Vec]:
    # Base 2 on y=0 starting at x0, apex above: area = a exactly.
    return (Vec(F(x0), F(0)), Vec(F(x0) + 2, F(0)), Vec(F(x0), a))


def test_match_splits_two_one_against_ones():
    left = [tri_of_area(0, F(2)), tri_of_area(3, F(1))]
    right = [tri_of_area(0, F(1)), tri_of_area(3, F(1)), tri_of_area(6, F(1))]
    out_a, out_b = match_triangle_areas(left, right)
    areas_a = [abs(shoelace_area(t)) for t in out_a]
    areas_b = [abs(shoelace_area(t)) for t in out_b]
    assert areas_a == areas_b == [F(1), F(1), F(1)]
    assert len(out_a) <= len(left) + len(right) - 1
    # Each output list partitions its input list.
    assert partition_check(
        [convex_polygon_lift(t) for t in out_a],
        RefinedPolytope(2, [convex_polygon_cell(t) for t in left]),
    )


def test_match_identical_lists_unchanged():
    tris = [tri_of_area(0, F(1)), tri_of_area(3, F(2))]
    out_a, out_b = match_triangle_areas(tris, tris)
    assert out_a == out_b == list(tris)


def test_match_cevian_cut_ratio():
    whole = [tri_of_area(0, F(3))]
    parts = [tri_of_area(0, F(1)), tri_of_area(3, F(2))]
    out_a, out_b = match_triangle_areas(whole, parts)
    assert [abs(shoelace_area(t)) for t in out_a] == [F(1), F(2)]
    # The first cut is the cevian at the 1/3 point of the far side.
    x, y, z = whole[0]
    assert out_a[0][2] == y + (z - y).scale(F(1, 3))


def test_match_rejects_area_mismatch():
    with pytest.raises(GeometryError):
        match_triangle_areas([tri_of_area(0, F(2))], [tri_of_area(0, F(1))])


# -- triangle to parallelogram ---------------------------------------------------


def _stage_failure(pieces, motions, source, target):
    """The side a stage fails on, with its partition failure: "source" when
    the pieces do not partition the source, "target" when their images
    under the stage motions do not partition the target; None when both
    partitions hold."""
    failure = partition_failure(list(pieces), source)
    if failure is not None:
        return "source", failure
    failure = partition_failure([m.apply_polytope(p) for p, m in zip(pieces, motions)], target)
    return None if failure is None else ("target", failure)


def test_triangle_to_parallelogram_golden():
    pieces, motions, target = triangle_to_parallelogram(
        [Vec(0, 0), Vec(4, 0), Vec(0, 2)]
    )
    assert len(pieces) == 2
    assert motions[0].is_identity()
    assert motions[1].rotation == ((F(-1), F(0)), (F(0), F(-1)))
    # 180-degree rotation about the cut midpoint (2, 1): translation is twice it.
    assert motions[1].translation == Vec(4, 2)
    assert equals(target, convex_polygon_lift([(0, 0), (4, 0), (4, 1), (0, 1)]))
    source = convex_polygon_lift([(0, 0), (4, 0), (0, 2)])
    assert _stage_failure(pieces, motions, source, target) is None
    # The top triangle left in place still partitions the source, not the target.
    failure = _stage_failure(pieces, [motions[0], motions[0]], source, target)
    assert failure is not None and failure[0] == "target"
    assert area(target) == 4


def test_triangle_to_parallelogram_keeps_area():
    _, _, target = triangle_to_parallelogram([Vec(0, 0), Vec(2, 0), Vec(1, 2)])
    assert area(target) == 2


def test_triangle_to_parallelogram_rejects_degenerate():
    with pytest.raises(GeometryError):
        triangle_to_parallelogram([Vec(0, 0), Vec(1, 1), Vec(2, 2)])


# -- equiareal shear ---------------------------------------------------------------


def test_shear_single_diagonal_cut():
    pieces, motions, target = equiareal_shear(
        Vec(0, 0), Vec(2, 0), Vec(0, 1), Vec(1, 1)
    )
    assert len(pieces) == 2
    assert all(m.rotation == ((F(1), F(0)), (F(0), F(1))) for m in motions)
    shifts = sorted(m.translation[0] for m in motions)
    assert shifts == [F(0), F(2)]
    assert equals(target, convex_polygon_lift([(0, 0), (2, 0), (3, 1), (1, 1)]))
    source = convex_polygon_lift([(0, 0), (2, 0), (2, 1), (0, 1)])
    assert _stage_failure(pieces, motions, source, target) is None


def test_shear_identity_is_single_piece():
    pieces, motions, _ = equiareal_shear(Vec(0, 0), Vec(2, 0), Vec(0, 1), Vec(0, 1))
    assert len(pieces) == 1
    assert motions[0].is_identity()


def test_shear_strip_count():
    # Displacement 5 against base 2 needs ceil(5/2) + 1 = 4 strip pieces.
    pieces, _, _ = equiareal_shear(Vec(0, 0), Vec(2, 0), Vec(0, 1), Vec(5, 1))
    assert len(pieces) == 4


def _shear_cases(rng: random.Random):
    """Seeded shears (kind, mu kind, origin, base, side, mu): for each
    coordinate kind, mu > 0 and mu < 0 off the integers, mu a positive and
    a negative integer, and mu = 0."""
    r2 = adjoin_sqrt(2)
    for kind, s in (("rational", 0), ("sqrt2", r2)):

        def coord():
            return F(rng.randint(-6, 6), rng.randint(1, 4)) + F(rng.randint(-3, 3), 3) * s

        for mu_kind in ("positive", "negative", "integer", "-integer", "zero"):
            for _ in range(2):
                while True:
                    base, side = Vec(coord(), coord()), Vec(coord(), coord())
                    if sign(cross2(base, side)):
                        break
                q = rng.choice([2, 3, 7])
                off = rng.randint(0, 2) + F(rng.randint(1, q - 1), q) + F(rng.randint(0, 2), 5) * s
                mu = {
                    "positive": off,
                    "negative": -off,
                    "integer": rng.randint(1, 4),
                    "-integer": -rng.randint(1, 4),
                    "zero": 0,
                }[mu_kind]
                yield kind, mu_kind, Vec(coord(), coord()), base, side, mu


def test_shear_strips_are_the_exact_range(monkeypatch):
    """Every k the strip loop visits cuts a nonempty piece, and there are
    ceil(max(0, mu)) - floor(min(0, mu)) + 1 of them, shifted by k base
    in order, and they partition both parallelograms."""
    cut_cells = []
    real = equidecomp.intersect

    def recorded(a, b):
        out = real(a, b)
        cut_cells.append(len(out.cells))
        return out

    monkeypatch.setattr(equidecomp, "intersect", recorded)
    seen = set()
    for kind, mu_kind, origin, base, side, mu in _shear_cases(random.Random(1919)):
        cut_cells.clear()
        pieces, motions, target = equiareal_shear(origin, base, side, side + base.scale(mu))
        lo = floor_scalar(mu if sign(mu) < 0 else 0)
        hi = ceil_scalar(mu if sign(mu) > 0 else 0)
        assert len(cut_cells) == len(pieces) == hi - lo + 1, (kind, mu_kind, mu)
        assert all(cut_cells) and all(piece.cells for piece in pieces), (kind, mu_kind, mu)
        assert [m.translation for m in motions] == [base.scale(F(k)) for k in range(lo, hi + 1)]
        source = equidecomp._pgram_lift(origin, base, side)
        assert _stage_failure(pieces, motions, source, target) is None, (kind, mu_kind, mu)
        seen.add((kind, mu_kind))
    assert len(seen) == 10


def test_shear_rejects_non_parallel_move():
    with pytest.raises(GeometryError):
        equiareal_shear(Vec(0, 0), Vec(2, 0), Vec(0, 1), Vec(1, 2))
    with pytest.raises(GeometryError):
        equiareal_shear(Vec(0, 0), Vec(2, 0), Vec(4, 0), Vec(4, 0))


# -- full pipeline -----------------------------------------------------------------


def test_equidecompose_square_to_rectangle():
    d = equidecompose(UNIT_SQUARE, WIDE_RECT)
    assert d.report is not None and d.report.all_passed
    assert len(d) >= 2
    assert sum((area(p) for p in d.pieces_p), F(0)) == 1
    assert sum((area(q) for q in d.pieces_q), F(0)) == 1
    assert any("composed chains" in line for line in d.provenance)
    assert str(d.report).count("PASS") == len(d.report.entries)


def test_equidecompose_polygon_with_itself():
    quad = [(0, 0), (4, 0), (5, 3), (1, 4)]
    d = equidecompose(quad, quad)
    assert len(d) == 1
    assert d.motions[0].is_identity()
    assert d.report is not None and d.report.all_passed


def test_equidecompose_triangle_to_square():
    d = equidecompose([(0, 0), (2, 0), (0, 1)], UNIT_SQUARE)
    assert d.report is not None and d.report.all_passed
    total = sum((area(q) for q in d.pieces_q), F(0))
    assert total == 1


GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = {
    "square_to_wide": (UNIT_SQUARE, WIDE_RECT),
    "triangle_to_square": ([(0, 0), (2, 0), (0, 1)], UNIT_SQUARE),
    "right_to_isosceles": ([(0, 0), (1, 0), (0, 1)], [(0, 0), (1, 0), (F(1, 2), 1)]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_equidecompose_matches_golden_listing(name, tmp_path):
    """The exact pieces, motions, report and provenance of fixed pairs."""
    p, q = GOLDEN[name]
    d = equidecompose(p, q)
    path = tmp_path / "pieces.txt"
    write_decomposition(d, str(path))
    got = (
        path.read_text()
        + f"-- report\n{d.report}\n-- provenance\n"
        + "\n".join(d.provenance)
        + "\n"
    )
    expected = (GOLDEN_DIR / f"{name}.txt").read_text()
    if name == "right_to_isosceles":
        assert "sqrt(" in expected  # one listing pins tower coordinates
    assert got == expected


def test_equidecompose_rejects_area_mismatch():
    with pytest.raises(GeometryError):
        equidecompose(UNIT_SQUARE, [(0, 0), (3, 0), (3, 1), (0, 1)])


def test_equidecompose_rejects_non_simple():
    with pytest.raises(GeometryError):
        equidecompose([(0, 0), (2, 2), (2, 0), (0, 2)], UNIT_SQUARE)


def test_verify_flags_tampered_decomposition():
    d = equidecompose(UNIT_SQUARE, WIDE_RECT)
    bumped = Motion.translation_by(Vec(1, 0))
    tampered_q = [bumped.apply_polytope(d.pieces_q[0])] + d.pieces_q[1:]
    bad = Decomposition(d.pieces_p, tampered_q, d.motions)
    report = verify_decomposition(
        bad, polygon_lift(UNIT_SQUARE), polygon_lift(WIDE_RECT)
    )
    assert not report.all_passed
    failed = [entry for entry in report.entries if not entry[1]]
    assert any("partition the target" in label for label, _, _ in failed)
    # The partition failure names a witness refined point.
    assert any("RefinedPoint" in detail for _, ok, detail in report.entries if not ok)


def test_a_failing_side_runs_the_certificate_once(monkeypatch):
    """The benchmark's wbg negative control: a decomposition verified
    against a shifted target.  Each side tries boundary cancellation once;
    the side it does not certify goes straight to the witness checks, which
    used to run through ``partition_failure`` and try the certificate
    again."""
    calls = []
    certified = algebra.partition_certified

    def spy(parts, whole):
        calls.append(whole)
        return certified(parts, whole)

    monkeypatch.setattr(algebra, "partition_certified", spy)
    monkeypatch.setattr(equidecomp, "partition_certified", spy)
    tri = [Vec(0, 0), Vec(4, 0), Vec(0, 2)]
    square = [Vec(0, 0), Vec(2, 0), Vec(2, 2), Vec(0, 2)]
    d = equidecompose(tri, square, check=False)
    source = polygon_lift(tri)
    wrong = polygon_lift([v + Vec(F(1, 2), 0) for v in square])
    calls.clear()
    report = verify_decomposition(d, source, wrong)
    assert calls == [source, wrong]
    failed = [(label, detail) for label, ok, detail in report.entries if not ok]
    assert failed[0][0] == "pieces partition the target polygon"
    assert "RefinedPoint" in failed[0][1]


def test_motion_check_matches_equals(monkeypatch):
    """The vertex-key motion check against moving the piece and calling
    equals, on true motions, motions off by a 1/1000 shift and wrong
    rotations, and on true motions onto a target whose first piece has a
    cell re-split in two.  equals runs only for pairs whose key sets
    differ, which the re-split pair's do, and for every pair once a side's
    partition is not certified."""
    calls = []

    def counted(a, b):
        calls.append(b)
        return equals(a, b)

    monkeypatch.setattr(equidecomp, "equals", counted)
    rng = random.Random(1000)
    off = Motion.translation_by(Vec(F(1, 1000), 0))
    for trial in range(3):
        p = random_convex_polygon(rng)
        q = [(2 * x, y / 2) for x, y in random_convex_polygon(rng)]
        ratio = abs(shoelace_area([Vec(*v) for v in p]) / shoelace_area([Vec(*v) for v in q]))
        q = [(x * ratio, y) for x, y in q]
        d = equidecompose(p, q)
        lift_p, lift_q = polygon_lift(p), polygon_lift(q)
        kinds = [(i + trial) % 3 for i in range(len(d))]
        turn = Motion.rotation_about(Vec(0, 0), F(3, 5), F(4, 5))
        motions = [
            m if k == 0 else off.compose(m) if k == 1 else turn.compose(m)
            for m, k in zip(d.motions, kinds)
        ]
        split = [_resplit(d.pieces_q[0])] + d.pieces_q[1:]
        cases = {
            "tampered": (d.pieces_q, motions),
            "uncertified": ([off.apply_polytope(d.pieces_q[0])] + d.pieces_q[1:], motions),
            "split": (split, d.motions),
        }
        for case, (pieces_q, case_motions) in cases.items():
            calls.clear()
            report = verify_decomposition(
                Decomposition(d.pieces_p, pieces_q, case_motions), lift_p, lift_q
            )
            got = [ok for label, ok, _ in report.entries if label.startswith("motion")]
            want = [
                equals(m.apply_polytope(pp), qq)
                for pp, qq, m in zip(d.pieces_p, pieces_q, case_motions)
            ]
            assert got == want, (trial, case)
            if case == "tampered":
                assert got == [k == 0 for k in kinds], trial
                assert len(calls) == got.count(False), trial
            elif case == "uncertified":
                assert len(calls) == len(d), trial
            else:
                assert all(got) and [id(b) for b in calls] == [id(split[0])], trial


def _resplit(piece: RefinedPolytope) -> RefinedPolytope:
    """The same set with its first cell cut in two by a line through an
    interior point, which adds a vertex where the line meets the boundary."""
    cell, *rest = piece.cells
    x = cell.witness().position
    cut = AffineFunctional(Vec(7, 3), -(7 * x[0] + 3 * x[1]))
    return RefinedPolytope(2, [cell.with_extra([cut]), cell.with_extra([-cut])] + rest)


def test_signature_shortcut_matches_reference(monkeypatch):
    """The congruence signature line against the reference signatures of
    both pieces: on the library's own pairs, with a target piece whose cell
    is re-split in two, with motions off by a 1/1000 shift, and with every
    piece matched to the next target piece.  The reference runs exactly for
    the pairs whose moved source vertices and target vertices differ as
    sets of exact keys (the cells' point keys)."""
    calls = []
    reference = equidecomp._congruence_signature

    def counted(piece):
        calls.append(1)
        return reference(piece)

    def keys(piece):
        return {k for cell in piece.cells for k in cell.keyed_boundary()[1]}

    monkeypatch.setattr(equidecomp, "_congruence_signature", counted)
    off = Motion.translation_by(Vec(F(1, 1000), 0))
    for p, q in [*GOLDEN.values(), (L_HEXAGON, [(0, 0), (3, 0), (3, 1), (0, 1)])]:
        d = equidecompose(p, q, check=False)
        lift_p, lift_q = polygon_lift(p), polygon_lift(q)
        split = [_resplit(d.pieces_q[0])] + d.pieces_q[1:]
        assert len(keys(split[0])) > len(keys(d.pieces_q[0]))
        cases = {
            "own": (d.pieces_q, d.motions),
            "split": (split, d.motions),
            "shifted": (d.pieces_q, [off.compose(m) for m in d.motions]),
            "next": (d.pieces_q[1:] + d.pieces_q[:1], d.motions),
        }
        for case, (pieces_q, motions) in cases.items():
            calls.clear()
            report = verify_decomposition(
                Decomposition(d.pieces_p, pieces_q, motions), lift_p, lift_q
            )
            lines = {label: ok for label, ok, _ in report.entries}
            got = [lines[f"piece pair {i} congruence signature"] for i in range(1, len(d) + 1)]
            want = [
                _signatures_match(reference(pp), reference(qq))
                for pp, qq in zip(d.pieces_p, pieces_q)
            ]
            assert got == want, case
            differ = sum(
                keys(m.apply_polytope(pp)) != keys(qq)
                for pp, qq, m in zip(d.pieces_p, pieces_q, motions)
            )
            assert len(calls) == 2 * differ, case
            if case == "own":
                assert all(got) and not calls
            elif case == "split":
                assert not got[0] and lines["motion 1 carries piece 1 exactly"]
            elif case == "shifted":
                assert all(got) and differ == len(d)
            else:
                assert not all(got), case


def _field_pairs(rng: random.Random, kinds=("rational", "sqrt2", "nested")):
    """Seeded equal-area triangle pairs per coordinate kind: three vertices
    of random lattice hulls, sheared along x by s y / 3 with s = 0, sqrt(2)
    or sqrt(2 + sqrt(2)), which keeps their areas."""
    r2 = adjoin_sqrt(2)
    roots = {"rational": 0, "sqrt2": r2, "nested": adjoin_sqrt(2 + r2)}
    for kind in kinds:
        s = roots[kind]
        p = random_convex_polygon(rng)[:3]
        q = [(2 * x, y / 2) for x, y in random_convex_polygon(rng)[:3]]
        ratio = abs(shoelace_area([Vec(*v) for v in p]) / shoelace_area([Vec(*v) for v in q]))
        yield kind, [(x + s * y / 3, y) for x, y in p], [(x * ratio + s * y / 3, y) for x, y in q]


def _cell_key_sets(piece: RefinedPolytope) -> Counter:
    return Counter(frozenset(c.keyed_boundary()[0]) for c in piece.cells)


def test_mapped_key_motion_check_matches_moved_pieces(monkeypatch):
    """The motion line read from mapped vertex keys against the moved-piece
    reference, on the library's own pairs with rational, sqrt(2) and
    nested coordinates, and five tampers: a 1/1000 shift, an extra rotation
    by 45 degrees, each rotation transposed, target pieces rotated by one
    place, and a source piece whose first cell is duplicated.

    For every pair, ``_piece_keys`` of the source under the motion is what
    moving the piece gives: its cells' key sets with multiplicity and its
    corners.  Every line is ``equals`` on the moved piece.  When both sides
    are certified, a piece is moved exactly when the key sets differ, so
    every true motion is decided without moving anything; otherwise every
    piece is moved."""
    r2 = adjoin_sqrt(2)
    off = Motion.translation_by(Vec(F(1, 1000), 0))
    turn = Motion.rotation_about(Vec(0, 0), r2 / 2, r2 / 2)
    moved = []
    apply_polytope = Motion.apply_polytope

    def counted(m, piece):
        moved.append(piece)
        return apply_polytope(m, piece)

    rotated = 0
    for kind, p, q in _field_pairs(random.Random(1717)):
        d = equidecompose(p, q, check=False)
        lift_p, lift_q = polygon_lift(p), polygon_lift(q)
        pp0 = d.pieces_p[0]
        cases = {
            "own": (d.pieces_p, d.pieces_q, d.motions),
            "shifted": (d.pieces_p, d.pieces_q, [off.compose(m) if i % 2 else m for i, m in enumerate(d.motions)]),
            "turned": (d.pieces_p, d.pieces_q, [m if i % 2 else turn.compose(m) for i, m in enumerate(d.motions)]),
            "transposed": (d.pieces_p, d.pieces_q, [Motion(tuple(zip(*m.rotation)), m.translation) for m in d.motions]),
            "next": (d.pieces_p, d.pieces_q[1:] + d.pieces_q[:1], d.motions),
            "duplicated": ([RefinedPolytope(2, pp0.cells + pp0.cells[:1])] + d.pieces_p[1:], d.pieces_q, d.motions),
        }
        for case, (pieces_p, pieces_q, motions) in cases.items():
            images = [m.apply_polytope(pp) for pp, m in zip(pieces_p, motions)]
            for pp, image, m in zip(pieces_p, images, motions):
                corners = frozenset(k for c in image.cells for k in c.keyed_boundary()[1])
                assert equidecomp._piece_keys(pp, m.form) == (_cell_key_sets(image), corners), (kind, case)
            want = [equals(image, qq) for image, qq in zip(images, pieces_q)]
            certified = algebra.partition_certified(pieces_p, lift_p) and algebra.partition_certified(
                pieces_q, lift_q
            )
            monkeypatch.setattr(Motion, "apply_polytope", counted)
            moved.clear()
            report = verify_decomposition(Decomposition(pieces_p, pieces_q, motions), lift_p, lift_q)
            monkeypatch.setattr(Motion, "apply_polytope", apply_polytope)
            lines = {label: ok for label, ok, _ in report.entries}
            got = [lines[f"motion {i} carries piece {i} exactly"] for i in range(1, len(d) + 1)]
            assert got == want, (kind, case)
            differ = [
                pp
                for pp, image, qq in zip(pieces_p, images, pieces_q)
                if not certified or _cell_key_sets(image) != _cell_key_sets(qq)
            ]
            assert [id(x) for x in moved] == [id(x) for x in differ], (kind, case)
            if case == "own":
                assert certified and all(got) and not moved, kind
            elif case in ("shifted", "turned"):
                assert got == [i % 2 == (case == "turned") for i in range(len(d))], (kind, case)
            elif case == "duplicated":
                assert not certified and all(got), kind
            else:
                assert not all(got), (kind, case)
        rotated += sum(sign(m.rotation[0][1]) != 0 for m in d.motions)
    assert rotated  # the Q chains' rotations, which transposing changes


def test_source_pieces_are_the_inverse_images_of_the_targets():
    """Each source piece, built from its cut in the last stage, has the
    cells that moving its target piece back through the final motion's
    inverse gives: the same integer rows, cycle labels and vertex keys, cell
    by cell, on the golden pairs and on seeded rational and sqrt(2) pairs.
    Homogeneous vertices may differ by a positive factor, and dicts by
    insertion order."""
    pairs = [(p, q) for p, q in GOLDEN.values()]
    pairs += [(p, q) for _, p, q in _field_pairs(random.Random(1818), ("rational", "sqrt2", "rational", "sqrt2"))]
    for p, q in pairs:
        d = equidecompose(p, q, check=False)
        for pp, qq, m in zip(d.pieces_p, d.pieces_q, d.motions):
            back = m.inverse().apply_polytope(qq)
            assert len(pp.cells) == len(back.cells)
            for a, b in zip(pp.cells, back.cells):
                assert [xi.row() for xi in a.constraints] == [xi.row() for xi in b.constraints]
                assert a._edges()[0] == b._edges()[0]
                assert a.keyed_boundary() == b.keyed_boundary()


def test_verify_empty_decomposition_passes():
    nothing = RefinedPolytope(2, [])
    report = verify_decomposition(Decomposition([], [], []), nothing, nothing)
    assert report.all_passed
    assert len(report.entries) == 2


def test_decomposition_requires_aligned_lengths():
    with pytest.raises(GeometryError):
        Decomposition([polygon_lift(UNIT_SQUARE)], [], [])


def random_convex_polygon(rng: random.Random) -> list[tuple[Fraction, Fraction]]:
    while True:
        pts = {
            (F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(rng.randint(3, 8))
        }
        pts = sorted(pts)
        if len(pts) < 3:
            continue

        def hull_side(points):
            side: list[tuple[Fraction, Fraction]] = []
            for p in points:
                while len(side) >= 2:
                    a, b = side[-2], side[-1]
                    turn = (b[0] - a[0]) * (p[1] - a[1]) - (b[1] - a[1]) * (p[0] - a[0])
                    if turn <= 0:
                        side.pop()
                    else:
                        break
                side.append(p)
            return side

        lower = hull_side(pts)
        upper = hull_side(list(reversed(pts)))
        hull = lower[:-1] + upper[:-1]
        if len(hull) >= 3:
            return hull


def test_pipeline_sound_on_random_equal_area_polygons():
    rng = random.Random(2026)
    for _ in range(4):
        p = random_convex_polygon(rng)
        q = random_convex_polygon(rng)
        ratio = abs(shoelace_area([Vec(*v) for v in p])) / abs(
            shoelace_area([Vec(*v) for v in q])
        )
        q = [(x * ratio, y) for x, y in q]
        d = equidecompose(p, q)
        assert d.report is not None and d.report.all_passed


def test_report_is_verified_once_on_first_read(monkeypatch):
    """equidecompose keeps its lifts; the report is verified when first
    read, once, and check=True reads it before returning."""
    calls = []

    def counted(*args):
        calls.append(1)
        return verify_decomposition(*args)

    monkeypatch.setattr(equidecomp, "verify_decomposition", counted)
    for p in (WIDE_RECT, UNIT_SQUARE):  # cut, and identical polygons
        calls.clear()
        d = equidecompose(UNIT_SQUARE, p, check=False)
        assert not calls
        assert d.report.all_passed and len(calls) == 1
        assert d.report is d.report and len(calls) == 1
    calls.clear()
    d = equidecompose(UNIT_SQUARE, WIDE_RECT)
    assert len(calls) == 1 and d.report.all_passed and len(calls) == 1
    # An assigned report replaces it, as when a caller verifies against
    # lifts of its own; a decomposition built directly has none.
    mine = verify_decomposition(d, polygon_lift(UNIT_SQUARE), polygon_lift(WIDE_RECT))
    d.report = mine
    assert d.report is mine
    assert Decomposition(d.pieces_p, d.pieces_q, d.motions).report is None
