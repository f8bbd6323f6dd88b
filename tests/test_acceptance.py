"""Acceptance gate: eight exact behavior contracts, each with a time budget.

Every check is an exact-field identity; there is no numerical tolerance
anywhere.  Each criterion is a single test function that prints one
PASS line (with counts and elapsed time) when it succeeds.  Running the
file directly executes all eight and exits nonzero on the first failure.
"""

from __future__ import annotations

import functools
import itertools
import random
import time
from fractions import Fraction as F

from refinedgeo import equidecomp
from refinedgeo.algebra import (
    ConventionalPolytope,
    RefinedPolytope,
    closing,
    contains_point,
    difference,
    disjoint,
    equals,
    intersect,
    is_empty,
    is_subset,
    lift,
    partition_check,
    partition_failure,
    rank_drop_check,
    union,
)
from refinedgeo.angles import full_resolution, tangent_angle
from refinedgeo.cells import Cell, ClosedPiece
from refinedgeo.equidecomp import (
    area,
    ccw_order,
    equidecompose,
    polygon_lift,
    shoelace_area,
    verify_decomposition,
)
from refinedgeo.errors import GeometryError
from refinedgeo.fm import LinIneq, affine_dim
from refinedgeo.linalg import (
    AffineFunctional,
    Carrier,
    Vec,
    carrier_intersection,
    rank,
    restrict_functional,
)
from refinedgeo.resolution import (
    Flag,
    RefinedPoint,
    eval_refinement,
    lex_positive,
    sample_refined_point,
)
from refinedgeo.scalars import sign
from refinedgeo.scenario import bundled_scenarios, parse_scenario, run_scenario


class _Budget:
    """Wall-clock guard: the criterion must finish inside its budget."""

    def __init__(self, seconds: float, label: str):
        self.seconds = seconds
        self.label = label

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.start
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                f"{self.label}: {self.elapsed:.2f}s exceeds {self.seconds}s budget"
            )
        return False


def _frac(rng: random.Random, lo: int = -12, hi: int = 12, den: int = 4) -> F:
    return F(rng.randint(lo, hi), rng.randint(1, den))


def _rand_flag_in(rng: random.Random, carrier: Carrier) -> Flag:
    k = carrier.dim
    while True:
        rows = [[F(rng.randint(-4, 4)) for _ in range(k)] for _ in range(k)]
        try:
            return Flag([carrier.embed_direction(Vec(*r)) for r in rows])
        except GeometryError:
            continue


def _regular_functional(rng: random.Random, d: int) -> AffineFunctional:
    while True:
        linear = [_frac(rng, -6, 6, 3) for _ in range(d)]
        if any(v != 0 for v in linear):
            return AffineFunctional(Vec(*linear), _frac(rng, -6, 6, 3))


# -- criterion 1 --------------------------------------------------------------


def test_criterion_1_halfspace_dichotomy():
    """Every refined point is in exactly one of the two refined half-spaces."""
    rng = random.Random(101)
    checked = 0
    with _Budget(5.0, "criterion 1") as budget:
        for d in (1, 2, 3):
            carrier = Carrier.full(d)
            for _ in range(400):
                xi = _regular_functional(rng, d)
                p = sample_refined_point(carrier, rng.randrange(1 << 30))
                if rng.random() < 0.5:
                    # Re-anchor the position onto the hyperplane: the flag
                    # alone must then decide the side.
                    ell = xi.linear
                    shift = xi.value(p.position) / ell.dot(ell)
                    pos = p.position - ell.scale(shift)
                    p = RefinedPoint(pos, p.flag)
                    assert sign(xi.value(p.position)) == 0

                seq = eval_refinement(xi, p)
                neg = tuple(-s for s in seq)
                in_pos = lex_positive(seq)
                in_neg = lex_positive(neg)
                assert in_pos != in_neg, (xi, p)

                # The cell membership path must agree with the raw signs.
                half = RefinedPolytope(d, [Cell(carrier, [xi])])
                other = RefinedPolytope(d, [Cell(carrier, [-xi])])
                assert contains_point(half, p) == in_pos
                assert contains_point(other, p) == in_neg
                checked += 1
    assert checked == 1200
    print(f"PASS criterion 1: half-space dichotomy on {checked} pairs, d=1..3 ({budget.elapsed:.2f}s)")


# -- criterion 2 --------------------------------------------------------------


def _segment(a: F, b: F) -> RefinedPolytope:
    line = Carrier.full(1)
    return RefinedPolytope(
        1, [Cell(line, [AffineFunctional((1,), -a), AffineFunctional((-1,), b)])]
    )


def test_criterion_2_segment_split_golden():
    """sto[a,c] and sto[c,b] partition sto[a,b]; (c;+1) sits in the right part."""
    rng = random.Random(202)
    done = 0
    with _Budget(2.0, "criterion 2") as budget:
        while done < 100:
            vals = sorted({_frac(rng, -30, 30, 6) for _ in range(3)})
            if len(vals) < 3:
                continue
            a, c, b = vals
            s_ab, s_ac, s_cb = _segment(a, b), _segment(a, c), _segment(c, b)
            assert partition_check([s_ac, s_cb], s_ab)

            plus = RefinedPoint(Vec(c), Flag([Vec(1)]))
            minus = RefinedPoint(Vec(c), Flag([Vec(-1)]))
            assert contains_point(s_cb, plus) and not contains_point(s_ac, plus)
            assert contains_point(s_ac, minus) and not contains_point(s_cb, minus)
            # endpoint flags: inward is in, outward is out
            assert contains_point(s_ab, RefinedPoint(Vec(a), Flag([Vec(1)])))
            assert not contains_point(s_ab, RefinedPoint(Vec(a), Flag([Vec(-1)])))
            assert not contains_point(s_ab, RefinedPoint(Vec(b), Flag([Vec(1)])))
            done += 1
    print(f"PASS criterion 2: segment split golden on {done} triples ({budget.elapsed:.2f}s)")


# -- criterion 3 --------------------------------------------------------------


def _random_triangle(rng: random.Random) -> list[Vec]:
    while True:
        pts = [Vec(_frac(rng, -15, 15, 3), _frac(rng, -15, 15, 3)) for _ in range(3)]
        if sign(shoelace_area(pts)) != 0:
            return pts


def _angle_partition(parts, whole) -> bool:
    return partition_failure([x.poly for x in parts], whole.poly) is None


def test_criterion_3_cevian_split_and_tangent_angles():
    """Cutting a triangle by a cevian: seamless partition, and the tangent
    angles of the halves partition the whole's tangent angle at the cevian
    foot, at the apex, and along the cut."""
    rng = random.Random(303)
    done = 0
    with _Budget(30.0, "criterion 3") as budget:
        while done < 50:
            a, b, c = _random_triangle(rng)
            t = F(rng.randint(1, 11), 12)
            d_pt = a + (b - a).scale(t)

            whole = polygon_lift([a, b, c])
            left = polygon_lift([a, d_pt, c])
            right = polygon_lift([d_pt, b, c])
            assert partition_check([left, right], whole)

            # at the cevian foot: vertex angles of the halves fill the
            # edge angle of the whole
            assert _angle_partition(
                [tangent_angle(left, d_pt), tangent_angle(right, d_pt)],
                tangent_angle(whole, d_pt),
            )
            # at the apex: the split vertex angles fill the original one
            assert _angle_partition(
                [tangent_angle(left, c), tangent_angle(right, c)],
                tangent_angle(whole, c),
            )
            # along the open cut: the two sides fill the full resolution
            mid = (d_pt + c).scale(F(1, 2))
            assert _angle_partition(
                [tangent_angle(left, mid), tangent_angle(right, mid)],
                full_resolution(2),
            )
            done += 1
    print(f"PASS criterion 3: cevian partitions and tangent angles on {done} triangles ({budget.elapsed:.2f}s)")


# -- criterion 4 --------------------------------------------------------------


def _rand_carrier(rng: random.Random, d: int, k: int) -> Carrier:
    if k == d:
        return Carrier.full(d)
    while True:
        base = Vec(*[_frac(rng, -3, 3, 2) for _ in range(d)])
        rows = [Vec(*[F(rng.randint(-3, 3)) for _ in range(d)]) for _ in range(k)]
        if rank(rows) == k:
            return Carrier(base, rows)


def _bounded_cell(rng: random.Random, carrier: Carrier) -> Cell:
    """A nonempty bounded cell with at most 6 constraints (intrinsic)."""
    k = carrier.dim
    while True:
        cons = []
        lows = []
        for i in range(k):
            lo = _frac(rng, -6, 2, 3)
            unit = [F(0)] * k
            unit[i] = F(1)
            cons.append(AffineFunctional(Vec(*unit), -lo))
            lows.append(lo)
        hi = sum(lows) + F(rng.randint(2, 10), rng.randint(1, 2))
        cons.append(AffineFunctional(Vec(*([F(-1)] * k)), hi))
        corner = Vec(*lows)
        for _ in range(rng.randint(0, min(2, 6 - k - 1))):
            linear = [F(rng.randint(-3, 3)) for _ in range(k)]
            if all(v == 0 for v in linear):
                continue
            ell = Vec(*linear)
            cons.append(AffineFunctional(ell, -ell.dot(corner) + _frac(rng, 0, 5, 2)))
        cell = Cell(carrier, cons)
        if not cell.is_empty():
            return cell


def _instance(rng: random.Random, d: int, carrier: Carrier) -> RefinedPolytope:
    cells = [_bounded_cell(rng, carrier) for _ in range(rng.randint(1, 3))]
    return RefinedPolytope(carrier.dim, cells)


def _lex(a: Vec, b: Vec) -> int:
    for x, y in zip(a, b):
        if sign(x - y):
            return sign(x - y)
    return 0


def _oracle_points(rng: random.Random, polys, count: int) -> list[RefinedPoint]:
    """Refined points biased toward the instances' boundary structure.

    Each cell's anchors are sorted lexicographically, so that the sampled
    instances do not depend on where a vertex cycle starts."""
    carriers = []
    anchors: list[Vec] = []
    for p in polys:
        for cell in p.cells:
            carriers.append(cell.carrier)
            mine = []
            w = cell.witness()
            if w is not None:
                mine.append(w.position)
            try:
                mine.extend(cell.closure().vertex_positions())
            except GeometryError:
                pass
            anchors.extend(sorted(mine, key=functools.cmp_to_key(_lex)))
    out: list[RefinedPoint] = []
    while len(out) < count:
        carrier = carriers[rng.randrange(len(carriers))]
        roll = rng.random()
        if roll < 0.45 and anchors:
            pos = anchors[rng.randrange(len(anchors))]
            if rng.random() < 0.5 and len(anchors) > 1:
                other = anchors[rng.randrange(len(anchors))]
                lam = F(rng.randint(0, 4), 4)
                pos = pos + (other - pos).scale(lam)
            if not carrier.contains_point(pos):
                continue
            out.append(RefinedPoint(pos, _rand_flag_in(rng, carrier)))
        elif roll < 0.9:
            out.append(sample_refined_point(carrier, rng.randrange(1 << 30)))
        else:
            # ambient positions that may miss every carrier
            d = carrier.ambient_dim
            pos = Vec(*[_frac(rng, -9, 9, 2) for _ in range(d)])
            flag = _rand_flag_in(rng, Carrier.full(d)) if carrier.dim == d else _rand_flag_in(rng, carrier)
            out.append(RefinedPoint(pos, flag))
    return out


def _conventional_intersection(
    cp: ConventionalPolytope, cq: ConventionalPolytope, k: int
):
    """Piecewise closed intersection; reports whether it is pure rank-k."""
    pieces = []
    pure = True
    for a in cp.pieces:
        for b in cq.pieces:
            meet = carrier_intersection(a.carrier, b.carrier)
            if meet is None:
                continue
            cons = []
            dead = False
            for piece in (a, b):
                for amb in piece.ambient_constraints():
                    rho = restrict_functional(amb, meet)
                    if rho.is_regular:
                        cons.append(rho)
                    elif sign(rho.constant) < 0:
                        dead = True
                        break
                if dead:
                    break
            if dead:
                continue
            dim = affine_dim(
                [LinIneq.from_functional(x, strict=False) for x in cons], meet.dim
            )
            if dim == -1:
                continue
            if dim < k or meet.dim < k:
                pure = False
                continue
            pieces.append(ClosedPiece(meet, cons))
    return pieces, pure


def test_criterion_4_correspondence():
    """closing/lift are mutually inverse on pure polytopes; subset,
    intersection, and disjointness transfer between the refined and the
    conventional picture.  Symbolic checks plus a sampled-point oracle."""
    rng = random.Random(404)
    done = 0
    pure_branch = 0
    subset_false = 0
    with _Budget(300.0, "criterion 4") as budget:
        while done < 200:
            d = (1, 2, 3)[done % 3]
            k = d if (d == 1 or rng.random() < 0.7) else d - 1
            carrier_p = _rand_carrier(rng, d, k)
            carrier_q = carrier_p if rng.random() < 0.8 else _rand_carrier(rng, d, k)
            p = _instance(rng, d, carrier_p)
            q = _instance(rng, d, carrier_q)
            pts = _oracle_points(rng, [p, q], 100)
            positions = [rp.position for rp in pts]

            # lift(closing(P)) = P: symbolically and on every sample
            conv_p = closing(p)
            back = lift(conv_p)
            assert equals(back, p)
            for rp in pts:
                assert contains_point(back, rp) == contains_point(p, rp)

            # closing(lift(C)) = C for the conventional side
            conv2 = closing(back)
            assert equals(lift(conv2), back)
            for x in positions:
                assert conv2.contains_position(x) == conv_p.contains_position(x)

            # subset transfers; a False answer must come with a witness
            conv_q = closing(q)
            if is_subset(p, q):
                for rp in pts:
                    assert not contains_point(p, rp) or contains_point(q, rp)
                for x in positions:
                    assert not conv_p.contains_position(x) or conv_q.contains_position(x)
            else:
                subset_false += 1
                w = difference(p, q).cells[0].witness()
                assert w is not None
                assert contains_point(p, w) and not contains_point(q, w)
            sup = union(q, p)
            assert is_subset(p, sup)
            for rp in pts:
                assert not contains_point(p, rp) or contains_point(sup, rp)

            # intersection agrees extensionally, and with the conventional
            # intersection whenever that is pure of rank k
            inter = intersect(p, q)
            for rp in pts:
                assert contains_point(inter, rp) == (
                    contains_point(p, rp) and contains_point(q, rp)
                )
            pieces, pure = _conventional_intersection(conv_p, conv_q, k)
            if pure:
                pure_branch += 1
                conv_inter = ConventionalPolytope(k, pieces)
                assert equals(lift(conv_inter), inter)

            # disjointness is exactly rank drop of the closed intersection
            dj = disjoint(p, q)
            assert dj == rank_drop_check(p, q)
            if dj:
                for rp in pts:
                    assert not (contains_point(p, rp) and contains_point(q, rp))
            else:
                w = inter.cells[0].witness()
                assert w is not None
                assert contains_point(p, w) and contains_point(q, w)

            done += 1
    assert done == 200
    assert pure_branch >= 30, f"pure intersections exercised only {pure_branch} times"
    assert subset_false >= 30, f"subset negatives exercised only {subset_false} times"
    print(
        f"PASS criterion 4: correspondence on {done} instances "
        f"({pure_branch} pure intersections, {subset_false} subset negatives, "
        f"{budget.elapsed:.1f}s)"
    )


# -- criterion 5 --------------------------------------------------------------


def _random_figure(rng: random.Random) -> list[Vec]:
    """A triangle or a (possibly nonconvex) simple quadrilateral."""
    while True:
        n = rng.choice([3, 3, 4, 4])
        pts = [Vec(_frac(rng, -10, 10, 2), _frac(rng, -10, 10, 2)) for _ in range(n)]
        if n == 4:
            center = (pts[0] + pts[1] + pts[2] + pts[3]).scale(F(1, 4))
            try:
                pts = ccw_order([p - center for p in pts])
            except GeometryError:
                continue
            pts = [p + center for p in pts]
        try:
            polygon_lift(pts)
        except GeometryError:
            continue
        return pts


def _biased_samples(rng: random.Random, pts: list[Vec], count: int):
    """(position, flag) samples concentrated on vertices and edges."""
    n = len(pts)
    center = pts[0]
    for v in pts[1:]:
        center = center + v
    center = center.scale(F(1, n))
    positions = []
    for i, v in enumerate(pts):
        positions.append(v)
        nxt = pts[(i + 1) % n]
        positions.append((v + nxt).scale(F(1, 2)))
        positions.append(v + (nxt - v).scale(F(rng.randint(1, 7), 8)))
        positions.append(v + (v - center).scale(F(1, 3)))  # just outside
    positions.append(center)
    edge_dirs = [pts[(i + 1) % n] - pts[i] for i in range(n)]
    plane = Carrier.full(2)
    out = []
    while len(out) < count:
        pos = positions[rng.randrange(len(positions))]
        if rng.random() < 0.25:
            other = positions[rng.randrange(len(positions))]
            pos = pos + (other - pos).scale(F(rng.randint(0, 8), 8))
        roll = rng.random()
        if roll < 0.5:
            e = edge_dirs[rng.randrange(n)]
            if rng.random() < 0.5:
                e = e.scale(F(-1))
            perp = Vec(-e[1], e[0])
            if rng.random() < 0.5:
                perp = perp.scale(F(-1))
            flag = Flag([e, perp])
        else:
            flag = _rand_flag_in(rng, plane)
        out.append(RefinedPoint(pos, flag))
    return out


def test_criterion_5_pointwise_factorization():
    """Membership factors exactly through position and tangent angle."""
    rng = random.Random(505)
    figures = 0
    total = 0
    with _Budget(60.0, "criterion 5") as budget:
        while figures < 50:
            pts = _random_figure(rng)
            p = polygon_lift(pts)
            conv = closing(p)
            samples = _biased_samples(rng, pts, 500)
            by_pos: dict = {}
            for rp in samples:
                key = tuple(rp.position)
                if key not in by_pos:
                    by_pos[key] = tangent_angle(p, rp.position)
                angle = by_pos[key]
                pos_in = conv.contains_position(rp.position)
                assert angle.outside_domain == (not pos_in)
                factored = pos_in and angle.contains(rp.flag)
                assert contains_point(p, rp) == factored, (pts, rp)
                total += 1
            figures += 1
    assert total >= 25000
    print(f"PASS criterion 5: pointwise factorization on {figures} figures, {total} refined points ({budget.elapsed:.1f}s)")


# -- criterion 6 --------------------------------------------------------------


def test_criterion_6_classic_replays():
    """The bundled classical scenarios hold as exact set equalities."""
    expected = {"i32", "i35", "ii1", "quad_diagonals"}
    seen = set()
    with _Budget(5.0, "criterion 6") as budget:
        for name, path in bundled_scenarios().items():
            with open(path) as fh:
                report = run_scenario(parse_scenario(fh.read()))
            assert report.all_passed, f"{name}:\n{report}"
            seen.add(name)
    assert seen == expected
    print(f"PASS criterion 6: classic replays {sorted(seen)} ({budget.elapsed:.2f}s)")


# -- criterion 7 --------------------------------------------------------------


def _hull(points: list[Vec]) -> list[Vec]:
    pts = sorted(set((p[0], p[1]) for p in points))
    if len(pts) < 3:
        return []
    def half(seq):
        out = []
        for x, y in seq:
            while len(out) > 1 and sign(
                (out[-1][0] - out[-2][0]) * (y - out[-2][1])
                - (out[-1][1] - out[-2][1]) * (x - out[-2][0])
            ) <= 0:
                out.pop()
            out.append((x, y))
        return out
    lower = half(pts)
    upper = half(list(reversed(pts)))
    cycle = lower[:-1] + upper[:-1]
    return [Vec(x, y) for x, y in cycle]


def _random_simple_polygon(rng: random.Random) -> list[Vec]:
    while True:
        if rng.random() < 0.5:
            pts = [
                Vec(F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))
                for _ in range(rng.randint(4, 7))
            ]
            cycle = _hull(pts)
            if len(cycle) < 3 or len(cycle) > 6:
                continue
        else:
            # star-shaped around the origin: angular sort keeps it simple
            raw = [
                Vec(_frac(rng, -4, 4, 2), _frac(rng, -4, 4, 2))
                for _ in range(rng.choice([4, 4, 5, 5, 6]))
            ]
            try:
                cycle = ccw_order(raw)
            except GeometryError:
                continue
        try:
            polygon_lift(cycle)
        except GeometryError:
            continue
        if sign(abs(shoelace_area(cycle)) - 1) < 0:
            continue
        return cycle


def _criterion_7_pairs(rng: random.Random):
    """Criterion 7's randomized equal-area pairs, in order: two random
    simple polygons, the second stretched along x to the first one's area."""
    while True:
        a = _random_simple_polygon(rng)
        b = _random_simple_polygon(rng)
        ratio = abs(shoelace_area(a)) / abs(shoelace_area(b))
        if ratio < F(1, 2) or ratio > 2:
            continue
        yield a, [Vec(v[0] * ratio, v[1]) for v in b]


def _check_decomposition(p_cycle, q_cycle):
    d = equidecompose(p_cycle, q_cycle, check=False)
    report = verify_decomposition(d, polygon_lift(p_cycle), polygon_lift(q_cycle))
    assert report.all_passed, str(report)
    return d


def test_criterion_7_equidecomposition_end_to_end():
    """Fixed pairs plus randomized equal-area pairs all verify exactly."""
    rng = random.Random(707)
    with _Budget(120.0, "criterion 7") as budget:
        square = [Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)]
        wide = [Vec(0, 0), Vec(2, 0), Vec(2, F(1, 2)), Vec(0, F(1, 2))]
        tri = [Vec(0, 0), Vec(2, 0), Vec(0, 1)]
        fixed = [_check_decomposition(square, wide), _check_decomposition(tri, square)]
        n1, n2 = len(fixed[0]), len(fixed[1])

        # genuine refined disjointness of the pieces of the fixed pairs
        for d in fixed:
            for side in (d.pieces_p, d.pieces_q):
                for i in range(len(side)):
                    for j in range(i + 1, len(side)):
                        assert disjoint(side[i], side[j])

        randomized = 0
        pieces_total = 0
        for a, b in itertools.islice(_criterion_7_pairs(rng), 20):
            assert abs(shoelace_area(b)) == abs(shoelace_area(a))
            pieces_total += len(_check_decomposition(a, b))
            randomized += 1
    print(
        f"PASS criterion 7: equidecomposition verified on 2 fixed pairs "
        f"({n1}+{n2} pieces) and {randomized} randomized pairs "
        f"({pieces_total} pieces, {budget.elapsed:.1f}s)"
    )


def test_criterion_7_pairs_decided_by_vertex_keys(monkeypatch):
    """On criterion 7's fixed pairs and its twenty randomized ones, every
    piece pair's motion and signature lines are decided from exact vertex
    keys: inside verify_decomposition no piece is moved, equals never runs
    and no reference congruence signature is computed.  Only the
    verification is counted; equidecompose moves pieces and compares the
    two lifts itself."""
    inside, moved, compared, signatures = [], [], [], []
    apply_polytope = equidecomp.Motion.apply_polytope
    reference_equals = equidecomp.equals
    reference = equidecomp._congruence_signature

    def counted_move(m, piece):
        if inside:
            moved.append(piece)
        return apply_polytope(m, piece)

    def counted_equals(a, b):
        if inside:
            compared.append(b)
        return reference_equals(a, b)

    def counted_signature(p):
        signatures.append(p)
        return reference(p)

    monkeypatch.setattr(equidecomp.Motion, "apply_polytope", counted_move)
    monkeypatch.setattr(equidecomp, "equals", counted_equals)
    monkeypatch.setattr(equidecomp, "_congruence_signature", counted_signature)
    square = [Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)]
    wide = [Vec(0, 0), Vec(2, 0), Vec(2, F(1, 2)), Vec(0, F(1, 2))]
    tri = [Vec(0, 0), Vec(2, 0), Vec(0, 1)]
    pairs = [(square, wide), (tri, square)]
    pairs += itertools.islice(_criterion_7_pairs(random.Random(707)), 20)
    pieces = 0
    for a, b in pairs:
        d = equidecompose(a, b, check=False)
        inside.append(1)
        report = verify_decomposition(d, polygon_lift(a), polygon_lift(b))
        inside.pop()
        assert report.all_passed, str(report)
        pieces += len(d)
    assert pieces > len(pairs)
    assert (len(moved), len(compared), len(signatures)) == (0, 0, 0)


# -- criterion 8 --------------------------------------------------------------


def test_criterion_8_negative_controls():
    """Tampering is rejected with a concrete witness, never silently."""
    with _Budget(5.0, "criterion 8") as budget:
        # a shifted part breaks the partition; the witness pins the failure
        a, b, c = Vec(0, 0), Vec(4, 0), Vec(0, 3)
        d_pt = Vec(2, 0)
        whole = polygon_lift([a, b, c])
        left = polygon_lift([a, d_pt, c])
        right = polygon_lift([d_pt, b, c])
        assert partition_check([left, right], whole)

        shifted = right.translated(Vec(F(1, 8), 0))
        failure = partition_failure([left, shifted], whole)
        assert failure is not None
        reason, witness = failure
        assert witness is not None
        either = union(left, shifted)
        # the witness realizes the defect: double cover or a gap
        assert contains_point(left, witness) and contains_point(shifted, witness) or (
            contains_point(whole, witness) != contains_point(either, witness)
        )

        # a missing part leaves a hole with a witness inside the whole
        failure = partition_failure([left], whole)
        assert failure is not None
        reason, witness = failure
        assert "cover" in reason
        assert contains_point(whole, witness) and not contains_point(left, witness)

        # tampered decomposition: translate one target piece
        square = [Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)]
        wide = [Vec(0, 0), Vec(2, 0), Vec(2, F(1, 2)), Vec(0, F(1, 2))]
        d = equidecompose(square, wide, check=False)
        from refinedgeo.equidecomp import Decomposition

        tampered_q = list(d.pieces_q)
        tampered_q[0] = tampered_q[0].translated(Vec(1, 0))
        bad = Decomposition(d.pieces_p, tampered_q, d.motions, d.provenance)
        report = verify_decomposition(bad, polygon_lift(square), polygon_lift(wide))
        assert not report.all_passed
        assert any("RefinedPoint" in detail for _, _, detail in _entries(report))

        # unequal areas are rejected up front with the exact gap
        try:
            equidecompose(square, [Vec(0, 0), Vec(3, 0), Vec(3, 3), Vec(0, 3)])
        except GeometryError as exc:
            message = str(exc)
        else:
            raise AssertionError("unequal areas were accepted")
        assert "1" in message and "9" in message
    print(f"PASS criterion 8: negative controls with concrete witnesses ({budget.elapsed:.2f}s)")


def _entries(report):
    for entry in report.entries:
        yield entry


_CRITERIA = [
    test_criterion_1_halfspace_dichotomy,
    test_criterion_2_segment_split_golden,
    test_criterion_3_cevian_split_and_tangent_angles,
    test_criterion_4_correspondence,
    test_criterion_5_pointwise_factorization,
    test_criterion_6_classic_replays,
    test_criterion_7_equidecomposition_end_to_end,
    test_criterion_8_negative_controls,
]


if __name__ == "__main__":
    import sys

    failed = 0
    for fn in _CRITERIA:
        try:
            fn()
        except BaseException as exc:  # report FAIL lines, then exit nonzero
            failed += 1
            name = fn.__name__.replace("test_", "").replace("_", " ")
            print(f"FAIL {name}: {exc}")
    sys.exit(1 if failed else 0)
