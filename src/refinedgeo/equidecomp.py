"""Exact planar equidecomposition with verified refined partitions.

Two simple polygons of equal area are cut into pairwise-congruent refined
pieces: triangulate both, match triangle areas by cevian cuts, convert each
matched triangle to a rectangle (midline cut, then an equiareal shear), and
convert the second rectangle into the first by base doublings, two further
shears, and one exact rotation.  Each side keeps its pieces as images on
the current figure: a stage cuts the images and composes its motion onto
theirs, and the start pieces are recovered once at the end.

All cuts are refined partitions: pieces share no boundary points, because
every piece is the lift of a convex polygon and lifts of interior-disjoint
figures are refined-disjoint.

Scalars stay rational along the first chain; the second chain adjoins at
most one square root per matched pair (the rotation's cosine), so every
motion is exactly orthogonal with determinant one, checked on construction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence

from .algebra import (
    RefinedPolytope,
    _partition_witness,
    _plane,
    area,
    boundary_cancels,
    equals,
    intersect,
    partition_certified,
    partition_failure,
)
from .cells import Cell, _mapped, _rotated, _rotation_form, _shoelace, _vec, ccw_order
from .errors import GeometryError
from .linalg import Carrier, Vec, cross2
from .resolution import Flag, RefinedPoint
from .scalars import (
    Scalar,
    _add,
    _encode,
    _mul,
    _reduced,
    _scalar,
    _scale,
    _sign,
    _sub,
    adjoin_sqrt,
    ceil_scalar,
    floor_scalar,
    scalar_str,
    sign,
    to_scalar,
)

__all__ = [
    "Decomposition",
    "Motion",
    "VerificationReport",
    "area",
    "ccw_order",
    "convex_polygon_cell",
    "convex_polygon_lift",
    "equiareal_shear",
    "equidecompose",
    "match_triangle_areas",
    "polygon_lift",
    "triangle_to_parallelogram",
    "triangulate",
    "triangulate_cycle",
    "verify_decomposition",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_IDENTITY = ((_ONE, _ZERO), (_ZERO, _ONE))

PLANE = Carrier.full(2)


# -- motions ---------------------------------------------------------------------


class Motion:
    """Orientation-preserving rigid motion x -> R x + t with R exact.

    A motion is its integer form ``(r, DR, t, DT)``, which ``Cell.moved``
    takes: R = r / DR and t = t / DT in lowest terms, r two rows of integer
    tower dicts or None exactly when R = I (then DR = 1), t two integer
    tower dicts.  Composing, inverting and applying a motion is integer
    arithmetic on the form; ``rotation`` and ``translation`` are decoded
    views.  Public construction checks that R is orthogonal with
    determinant 1; products and inverses are so by construction."""

    __slots__ = ("form",)

    def __init__(self, rotation, translation):
        rows = tuple(tuple(to_scalar(e) for e in row) for row in rotation)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise GeometryError("rotation must be a 2x2 matrix")
        (a, b), (c, d) = rows
        if (
            sign(a * a + c * c - 1) != 0
            or sign(b * b + d * d - 1) != 0
            or sign(a * b + c * d) != 0
            or sign(a * d - b * c - 1) != 0
        ):
            raise GeometryError("rotation must be orthogonal with determinant 1")
        translation = translation if isinstance(translation, Vec) else Vec(translation)
        if translation.dim != 2:
            raise GeometryError("translation must be a plane vector")
        self.form = (*_rotation_form(*_encode((a, b, c, d))), *_encode(translation))

    @classmethod
    def _of(cls, form: tuple) -> "Motion":
        """The motion of a form derived from checked ones, not checked again."""
        m = object.__new__(cls)
        m.form = form
        return m

    @classmethod
    def identity(cls) -> "Motion":
        return cls._of((None, 1, [{}, {}], 1))

    @classmethod
    def translation_by(cls, v: Vec) -> "Motion":
        v = v if isinstance(v, Vec) else Vec(v)
        if v.dim != 2:
            raise GeometryError("translation must be a plane vector")
        return cls._of((None, 1, *_encode(v)))

    @classmethod
    def rotation_about(cls, center: Vec, cos, sin) -> "Motion":
        m = cls(((cos, -to_scalar(sin)), (sin, cos)), Vec(_ZERO, _ZERO))
        return cls.translation_by(center - m.apply_direction(center)).compose(m)

    @property
    def rotation(self) -> tuple:
        rot, dr = self.form[:2]
        return _IDENTITY if rot is None else tuple(_vec(r, dr).coords for r in rot)

    @property
    def translation(self) -> Vec:
        return _vec(*self.form[2:])

    def apply_direction(self, v: Vec) -> Vec:
        return _vec(*_mapped(self.form, *_encode(v), shift=False))

    def apply_vec(self, x: Vec) -> Vec:
        return _vec(*_mapped(self.form, *_encode(x)))

    def apply_flag(self, flag: Flag) -> Flag:
        return Flag([self.apply_direction(v) for v in flag])

    def apply_refined_point(self, rp: RefinedPoint) -> RefinedPoint:
        return RefinedPoint(self.apply_vec(rp.position), self.apply_flag(rp.flag))

    def apply_cell(self, cell: Cell) -> Cell:
        return cell.moved(self.form)

    def apply_polytope(self, p: RefinedPolytope) -> RefinedPolytope:
        return RefinedPolytope(p.rank, [self.apply_cell(c) for c in p.cells])

    def compose(self, other: "Motion") -> "Motion":
        """self after other: x -> self(other(x)), with R = R1 R2 and
        t = R1 t2 + t1."""
        r1, dr1 = self.form[:2]
        r2, dr2, t2, dt2 = other.form
        if r1 is None or r2 is None:
            rot = (r2, dr2) if r1 is None else (r1, dr1)
        else:
            cols = [_rotated(r1, col) for col in zip(*r2)]
            rot = _rotation_form([e for row in zip(*cols) for e in row], dr1 * dr2)
        return Motion._of((*rot, *_mapped(self.form, t2, dt2)))

    def inverse(self) -> "Motion":
        """x -> R^T x - R^T t."""
        rot, dr, t, dt = self.form
        back = None if rot is None else tuple(zip(*rot))
        ints, den = _reduced(_rotated(back, t), dr * dt)
        return Motion._of((back, dr, [_scale(e, -1) for e in ints], den))

    def is_identity(self) -> bool:
        return self.form[0] is None and self.translation.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Motion):
            return NotImplemented
        return self.translation == other.translation and all(
            sign(x - y) == 0
            for rx, ry in zip(self.rotation, other.rotation)
            for x, y in zip(rx, ry)
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        (a, b), (c, d) = self.rotation
        return (
            f"Motion(rot=[[{scalar_str(a)}, {scalar_str(b)}], "
            f"[{scalar_str(c)}, {scalar_str(d)}]], t={self.translation!r})"
        )


# -- polygons --------------------------------------------------------------------
#
# A polygon is encoded once: ``_encoded`` turns all its coordinates into
# integer tower dicts over one positive denominator D, and every test below
# is the exact sign of an integer polynomial in them.  Each test is
# homogeneous in the coordinates, so D > 0 leaves its sign as it is on the
# scalars.  A vertex is an index into the encoded points, so the caller's
# ``Vec``s come back unchanged.


def _as_vecs(vertices: Sequence) -> list[Vec]:
    out = []
    for v in vertices:
        vec = v if isinstance(v, Vec) else Vec(*v)
        if vec.dim != 2:
            raise GeometryError("polygon vertices must be planar")
        out.append(vec)
    return out


def _encoded(vertices: Sequence) -> tuple[list[Vec], list[tuple[dict, dict]], int]:
    """A polygon's vertices as ``Vec``s, and their points (x, y) as integer
    tower dicts over one positive denominator."""
    vecs = _as_vecs(vertices)
    if len(vecs) < 3:
        raise GeometryError("a polygon needs at least 3 vertices")
    ints, den = _encode([c for v in vecs for c in v.coords])
    return vecs, list(zip(ints[::2], ints[1::2])), den


def _diff(p, q) -> tuple[dict, dict]:
    """q - p."""
    return _sub(q[0], p[0]), _sub(q[1], p[1])


def _det(u, v) -> dict:
    return _sub(_mul(u[0], v[1]), _mul(u[1], v[0]))


def _dot(u, v) -> dict:
    return _add(_mul(u[0], v[0]), _mul(u[1], v[1]))


def _orient(p, q, r) -> int:
    """Sign of cross2(q - p, r - p): 1 when p, q, r turn left."""
    return _sign(_det(_diff(p, q), _diff(p, r)))


def _edges(pts: list) -> list[tuple[dict, dict]]:
    """Edge i runs from point i to point i + 1."""
    return [_diff(p, q) for p, q in zip(pts, pts[1:] + pts[:1])]


def _turns(edges: list) -> list[int]:
    """The sign of each vertex's turn, from its incoming and outgoing edge."""
    return [_sign(_det(edges[i - 1], e)) for i, e in enumerate(edges)]


def _twice_area(pts: list, order: list[int]) -> dict:
    """Twice the signed area of the cycle, over D^2 (the shoelace sum)."""
    twice: dict = {}
    for i, j in zip(order, order[1:] + order[:1]):
        twice = _add(twice, _det(pts[i], pts[j]))
    return twice


def shoelace_area(vertices: Sequence[Vec]) -> Scalar:
    """Signed area of a vertex cycle (positive when counterclockwise)."""
    return _shoelace(_as_vecs(vertices))


def _strictly_convex(turns: list[int], edges: list, s: int) -> bool:
    """Is a cycle with these turn signs and edge vectors, whose area has the
    sign s, strictly convex, hence simple?  Every turn must have the sign
    s != 0, and the edge directions must wind exactly once: one step passes
    from the lower half-plane of directions [pi, 2pi) into the upper one
    [0, pi).  A star's turns all agree, but its edges wind more.  Reversing
    a cycle reverses and negates its edges, which maps each such step to
    one, so the count is that of the counterclockwise cycle."""
    if not s or any(t != s for t in turns):
        return False
    upper = [_sign(y) > 0 or (not _sign(y) and _sign(x) > 0) for x, y in edges]
    return sum(u and not upper[i - 1] for i, u in enumerate(upper)) == 1


def _cell(pts: list, den: int, order) -> Cell:
    """The cell of encoded points visited in ``order``, a counterclockwise,
    strictly convex cycle."""
    return Cell.convex_polygon(PLANE, [(*pts[i], den) for i in order])


def convex_polygon_cell(vertices: Sequence[Vec]) -> Cell:
    """Refined cell of a convex polygon given by its vertex cycle.

    The cycle is normalized to counterclockwise; strictly convex turns that
    go around once are required (no repeated or collinear vertices, no
    star).  The vertices are encoded once, the convexity test runs on that
    encoding, and the cell's edge cycle is read from it, with no solve."""
    _, pts, den = _encoded(vertices)
    order = list(range(len(pts)))
    edges = _edges(pts)
    s = _sign(_twice_area(pts, order))
    if not _strictly_convex(_turns(edges), edges, s):
        raise GeometryError("vertices must make strictly convex turns around once")
    return _cell(pts, den, order if s > 0 else order[::-1])


def convex_polygon_lift(vertices: Sequence[Vec]) -> RefinedPolytope:
    return RefinedPolytope(2, [convex_polygon_cell(vertices)])


def _segments_conflict(a, b, c, d) -> bool:
    """Do closed segments ab and cd of encoded points share any point?"""
    d1, d2 = _orient(a, b, c), _orient(a, b, d)
    d3, d4 = _orient(c, d, a), _orient(c, d, b)
    if d1 * d2 < 0 and d3 * d4 < 0:
        return True

    def on_segment(p, q, w, side: int) -> bool:
        # w on the line pq, and neither beyond q seen from p nor beyond p from q.
        return (
            not side
            and _sign(_dot(_diff(p, w), _diff(p, q))) >= 0
            and _sign(_dot(_diff(q, w), _diff(q, p))) >= 0
        )

    return (
        on_segment(a, b, c, d1)
        or on_segment(a, b, d, d2)
        or on_segment(c, d, a, d3)
        or on_segment(c, d, b, d4)
    )


def _clean_cycle(pts: list) -> tuple[list[int], bool, dict]:
    """Normalize a simple-polygon cycle of encoded points: drop exactly
    straight vertices, reject repeats and spikes, orient counterclockwise,
    check simplicity (a strictly convex cycle is simple without the pairwise
    edge scan).  Returns the kept indices counterclockwise, whether they are
    strictly convex, and twice their area over D^2."""
    n = len(pts)
    edges = _edges(pts)
    if any(not (_sign(x) or _sign(y)) for x, y in edges):
        raise GeometryError("repeated consecutive vertex")
    turns = _turns(edges)
    # A straight vertex lies strictly inside the segment between its
    # neighbours, so dropping it leaves every other vertex's turn, spike and
    # edge direction as they were.  One pass in order therefore drops the
    # same vertices and meets the same first spike as passes that restart.
    kept = []
    left = n
    for i, t in enumerate(turns):
        if t:
            kept.append(i)
        elif _sign(_dot(edges[i - 1], edges[i])) < 0:
            raise GeometryError("polygon has a spike (zero-angle vertex)")
        else:
            left -= 1
            if left < 3:
                raise GeometryError("degenerate polygon (zero area)")
    twice = _twice_area(pts, kept)
    s = _sign(twice)
    if not s:
        raise GeometryError("degenerate polygon (zero area)")
    convex = _strictly_convex([turns[i] for i in kept], [edges[i] for i in kept], s)
    if not convex:
        m = len(kept)
        segs = [(pts[kept[i]], pts[kept[(i + 1) % m]]) for i in range(m)]
        for i in range(m):
            for j in range(i + 2, m - (i == 0)):  # adjacent edges share only their endpoint
                if _segments_conflict(*segs[i], *segs[j]):
                    raise GeometryError("polygon is not simple (edges cross)")
    if s < 0:
        kept.reverse()
        twice = _scale(twice, -1)
    return kept, convex, twice


def _ears(pts: list, poly: list[int]) -> list[tuple[int, int, int]]:
    """Deterministic exact ear clipping of a cycle ``_clean_cycle`` returned,
    as counterclockwise index triples; consumes ``poly``."""
    def orient(i: int, j: int, k: int) -> int:
        return _orient(pts[i], pts[j], pts[k])

    tris: list[tuple[int, int, int]] = []
    while len(poly) > 3:
        n = len(poly)
        for i in range(n):
            a, b, c = poly[i - 1], poly[i], poly[(i + 1) % n]
            if orient(a, b, c) <= 0:
                continue  # reflex or straight corner
            if not any(
                orient(a, b, w) >= 0 and orient(b, c, w) >= 0 and orient(c, a, w) >= 0
                for w in poly
                if w != a and w != b and w != c
            ):
                tris.append((a, b, c))
                poly.pop(i)
                break
        else:
            raise GeometryError("ear clipping failed; polygon is not simple")
        # Removal can straighten a neighbor; drop such vertices.
        k = 0
        while k < len(poly) and len(poly) > 3:
            if orient(poly[k - 1], poly[k], poly[(k + 1) % len(poly)]) == 0:
                poly.pop(k)
                k = 0
            else:
                k += 1
    tris.append((poly[0], poly[1], poly[2]))
    return tris


def triangulate_cycle(vertices: Sequence[Vec]) -> list[tuple[Vec, Vec, Vec]]:
    """Deterministic exact ear clipping of a simple polygon: counterclockwise
    triples of the caller's vertices, decided on their one encoding."""
    vecs, pts, _ = _encoded(vertices)
    return [(vecs[a], vecs[b], vecs[c]) for a, b, c in _ears(pts, _clean_cycle(pts)[0])]


def polygon_lift(vertices: Sequence[Vec]) -> RefinedPolytope:
    """Lift of a simple polygon: one cell when it is strictly convex, else
    the seamless union of its ear triangles.  The vertices are encoded once;
    every check and every cell is read from that encoding."""
    _, pts, den = _encoded(vertices)
    order, convex, _ = _clean_cycle(pts)
    parts = [order] if convex else _ears(pts, order)
    return RefinedPolytope(2, [_cell(pts, den, t) for t in parts])


def triangulate(vertices: Sequence[Vec]) -> list[RefinedPolytope]:
    """Pairwise-disjoint refined triangles whose union lifts the polygon."""
    _, pts, den = _encoded(vertices)
    return [RefinedPolytope(2, [_cell(pts, den, t)]) for t in _ears(pts, _clean_cycle(pts)[0])]


def _tri_area(t: Sequence[Vec]) -> Scalar:
    return cross2(t[1] - t[0], t[2] - t[0]) * _HALF


def _ccw_triple(t: Sequence[Vec]) -> tuple[Vec, Vec, Vec]:
    a, b, c = _as_vecs(t)
    s = sign(cross2(b - a, c - a))
    if s == 0:
        raise GeometryError("degenerate triangle")
    return (a, b, c) if s > 0 else (a, c, b)


# -- area matching ---------------------------------------------------------------


def _split_triangle(t: tuple[Vec, Vec, Vec], first_area: Scalar):
    """Cevian cut from the first vertex: a sub-triangle of the given area
    and the remaining triangle."""
    total = _tri_area(t)
    frac = first_area / total
    x, y, z = t
    w = y + (z - y).scale(frac)
    return (x, y, w), (x, w, z)


def match_triangle_areas(
    a_tris: Sequence[Sequence[Vec]], b_tris: Sequence[Sequence[Vec]]
) -> tuple[list[tuple[Vec, Vec, Vec]], list[tuple[Vec, Vec, Vec]]]:
    """Cut both triangle lists so their area sequences coincide.

    Two-pointer merge over the remaining areas; each cut is a cevian from
    the current triangle's first vertex.  Output lists are aligned: entry i
    of either list has the same area.  At most m+n-1 entries."""
    a_list = [_ccw_triple(t) for t in a_tris]
    b_list = [_ccw_triple(t) for t in b_tris]
    total_a = sum((_tri_area(t) for t in a_list), _ZERO)
    total_b = sum((_tri_area(t) for t in b_list), _ZERO)
    if sign(total_a - total_b) != 0:
        raise GeometryError(
            f"total areas differ: {scalar_str(total_a)} vs {scalar_str(total_b)}"
        )
    out_a: list[tuple[Vec, Vec, Vec]] = []
    out_b: list[tuple[Vec, Vec, Vec]] = []
    i = j = 0
    while i < len(a_list) and j < len(b_list):
        cur_a, cur_b = a_list[i], b_list[j]
        ra, rb = _tri_area(cur_a), _tri_area(cur_b)
        cmp = sign(ra - rb)
        if cmp == 0:
            out_a.append(cur_a)
            out_b.append(cur_b)
            i += 1
            j += 1
        elif cmp > 0:
            head, rest = _split_triangle(cur_a, rb)
            out_a.append(head)
            out_b.append(cur_b)
            a_list[i] = rest
            j += 1
        else:
            head, rest = _split_triangle(cur_b, ra)
            out_a.append(cur_a)
            out_b.append(head)
            b_list[j] = rest
            i += 1
    if i < len(a_list) or j < len(b_list):
        raise GeometryError("area matching left unmatched triangles")
    return out_a, out_b


# -- cut-and-paste stages ----------------------------------------------------------


def _pgram_lift(origin: Vec, base: Vec, side: Vec) -> RefinedPolytope:
    return convex_polygon_lift(
        [origin, origin + base, origin + base + side, origin + side]
    )


def _check_stage(
    pieces: Sequence[RefinedPolytope],
    motions: Sequence[Motion],
    source: RefinedPolytope,
    target: RefinedPolytope,
) -> None:
    failure = partition_failure(list(pieces), source)
    if failure is not None:
        raise GeometryError(f"stage does not partition its source: {failure[0]}")
    moved = [m.apply_polytope(p) for p, m in zip(pieces, motions)]
    failure = partition_failure(moved, target)
    if failure is not None:
        raise GeometryError(f"stage does not partition its target: {failure[0]}")


def triangle_to_parallelogram(
    triangle: Sequence[Vec], check: bool = True
) -> tuple[list[RefinedPolytope], list[Motion], RefinedPolytope]:
    """Midline cut: the top triangle rotates 180 degrees onto the side,
    producing a parallelogram on the same base with half the height."""
    v0, v1, v2 = _ccw_triple(triangle)
    m1 = (v0 + v2).scale(_HALF)
    m2 = (v1 + v2).scale(_HALF)
    h = (v2 - v0).scale(_HALF)
    pieces = [
        convex_polygon_lift([v0, v1, m2, m1]),
        convex_polygon_lift([m1, m2, v2]),
    ]
    motions = [
        Motion.identity(),
        Motion(((-_ONE, _ZERO), (_ZERO, -_ONE)), m2 + m2),
    ]
    target = _pgram_lift(v0, v1 - v0, h)
    if check:
        _check_stage(pieces, motions, convex_polygon_lift([v0, v1, v2]), target)
    return pieces, motions, target


def equiareal_shear(
    origin: Vec, base: Vec, side: Vec, new_side: Vec, check: bool = True
) -> tuple[list[RefinedPolytope], list[Motion], RefinedPolytope]:
    """Shear a parallelogram along its base by translating strip pieces.

    Source and target share the base segment and the parallel line pair
    (new_side - side must be parallel to base).  Pieces are intersections
    of the source with integer base-translates of the target; each moves
    by a whole multiple of the base vector."""
    if sign(cross2(base, side)) == 0:
        raise GeometryError("degenerate parallelogram")
    delta = new_side - side
    if sign(cross2(delta, base)) != 0:
        raise GeometryError("shear must move the side parallel to the base")
    if sign(base[0]) != 0:
        mu = delta[0] / base[0]
    else:
        mu = delta[1] / base[1]
    source = _pgram_lift(origin, base, side)
    target = _pgram_lift(origin, base, new_side)
    lo = floor_scalar(mu if sign(mu) < 0 else _ZERO) - 1
    hi = ceil_scalar(mu if sign(mu) > 0 else _ZERO) + 1
    pieces: list[RefinedPolytope] = []
    motions: list[Motion] = []
    for k in range(lo, hi + 1):
        shift = base.scale(Fraction(k))
        piece = _tight(intersect(source, target.translated(-shift)))
        if piece.cells:
            pieces.append(piece)
            motions.append(Motion.translation_by(shift))
    if check:
        _check_stage(pieces, motions, source, target)
    return pieces, motions, target


def _cycles(t: tuple[Vec, Vec, Vec]) -> list[tuple[Vec, Vec, Vec]]:
    v0, v1, v2 = t
    return [(v0, v1, v2), (v1, v2, v0), (v2, v0, v1)]


def _plan_pair(
    tp: tuple[Vec, Vec, Vec], tq: tuple[Vec, Vec, Vec]
) -> tuple[tuple[Vec, Vec, Vec], tuple[Vec, Vec, Vec], int, int]:
    """Pick base edges and base doublings for one matched triangle pair.

    Floats only rank candidate plans; every stage built from the winner is
    exact, so a bad ranking can cost pieces but never correctness.  The
    score mirrors where translate tilings fragment: the parallelogram shear
    offset on each side, one cut per doubling, and the two slant shears,
    whose offsets shrink as the rectangle bases approach each other.
    """

    def stats(cycle: tuple[Vec, Vec, Vec]) -> tuple[float, float]:
        v0, v1, v2 = cycle
        b = v1 - v0
        nsq = float(b.dot(b))
        return nsq, abs(float((v2 - v0).dot(b))) / (2.0 * nsq)

    area = abs(float(cross2(tp[1] - tp[0], tp[2] - tp[0]))) / 2.0
    best = None
    for pi, pc in enumerate(_cycles(tp)):
        np0, mu_p = stats(pc)
        for qi, qc in enumerate(_cycles(tq)):
            nq0, mu_q = stats(qc)
            for kp in range(7):
                for kq in range(7):
                    if kp and kq:
                        continue
                    npk = np0 * 4.0**kp
                    nqk = nq0 * 4.0**kq
                    m = npk * nqk - area * area
                    if m < 0.0:
                        continue
                    lam = m**0.5
                    score = mu_p + mu_q + kp + kq + lam / nqk + lam / npk
                    key = (score, pi, qi, kp, kq)
                    if best is None or key < best:
                        best = key
    if best is None:
        return tp, tq, 0, 0
    _, pi, qi, kp, kq = best
    return _cycles(tp)[pi], _cycles(tq)[qi], kp, kq


def _tight(p: RefinedPolytope) -> RefinedPolytope:
    return RefinedPolytope(p.rank, [c.pruned() for c in p.cells])


class _Chain:
    """Images of a start figure's pieces on the current figure, each with
    the motion that carried its start piece there.

    A stage cuts every image by the stage pieces and moves each cut once,
    composing the stage motion onto the image's motion.  Start pieces are
    not kept; they are recovered once, at the end, through each final
    motion's inverse."""

    def __init__(self, start: RefinedPolytope):
        self.images: list[RefinedPolytope] = [start]
        self.motions: list[Motion] = [Motion.identity()]

    def apply_stage(
        self, stage_pieces: Sequence[RefinedPolytope], stage_motions: Sequence[Motion]
    ) -> None:
        images: list[RefinedPolytope] = []
        motions: list[Motion] = []
        for image, f in zip(self.images, self.motions):
            for sp, sm in zip(stage_pieces, stage_motions):
                e = _tight(intersect(image, sp))
                if e.cells:
                    images.append(sm.apply_polytope(e))
                    motions.append(sm.compose(f))
        self.images = images
        self.motions = motions

    def move(self, m: Motion) -> None:
        """Move every image by one motion; nothing is cut."""
        self.images = [m.apply_polytope(image) for image in self.images]
        self.motions = [m.compose(f) for f in self.motions]


def _rect_frame(triangle: tuple[Vec, Vec, Vec], log: list[str], tag: str):
    """Triangle -> parallelogram -> perpendicular rectangle.  Returns the
    chain and the rectangle frame (origin, base, height vector)."""
    v0, v1, v2 = triangle
    chain = _Chain(convex_polygon_lift([v0, v1, v2]))
    pieces, motions, _ = triangle_to_parallelogram(triangle, check=False)
    chain.apply_stage(pieces, motions)
    b = v1 - v0
    h = (v2 - v0).scale(_HALF)
    n = h - b.scale(h.dot(b) / b.dot(b))
    pieces, motions, _ = equiareal_shear(v0, b, h, n, check=False)
    chain.apply_stage(pieces, motions)
    log.append(f"{tag}: triangle to rectangle (midline cut + shear)")
    return chain, (v0, b, n)


def _double_frame(chain: _Chain, frame: tuple[Vec, Vec, Vec]) -> tuple[Vec, Vec, Vec]:
    """Halve the rectangle at mid-height and translate the top strip to the
    end of the base: same area, double base, half side."""
    o, b, n = frame
    half = n.scale(_HALF)
    pieces = [_pgram_lift(o, b, half), _pgram_lift(o + half, b, half)]
    chain.apply_stage(pieces, [Motion.identity(), Motion.translation_by(b - half)])
    return o, b + b, half


def _chain_q_onto_rect_p(
    triangle: tuple[Vec, Vec, Vec],
    p_frame: tuple[Vec, Vec, Vec],
    log: list[str],
    tag: str,
    planned_doublings: int = 0,
) -> _Chain:
    """Q-triangle chain ending exactly on the P rectangle."""
    op, bp, np_ = p_frame
    n_p_sq = bp.dot(bp)
    chain, frame = _rect_frame(triangle, log, tag)
    a = cross2(frame[1], frame[2])  # common area, positive, doubling-invariant
    doublings = 0
    # Planned doublings come from the pair planner; the while loop below is
    # the exact safety net for the slant bound N_P * N_Q >= a^2.
    while doublings < planned_doublings or sign(
        n_p_sq * frame[1].dot(frame[1]) - a * a
    ) < 0:
        frame = _double_frame(chain, frame)
        doublings += 1
    o, b, n = frame
    if doublings:
        log.append(f"{tag}: doubled the rectangle base {doublings} time(s)")
    n_q_sq = b.dot(b)
    m_val = n_p_sq * n_q_sq - a * a  # nonnegative rational
    root = adjoin_sqrt(m_val)
    lam = root / n_q_sq
    s = b.scale(lam) + n
    if sign(s.dot(s) - n_p_sq) != 0:
        raise GeometryError("slant side length drifted; exact arithmetic bug")
    pieces, motions, _ = equiareal_shear(o, b, n, s, check=False)
    chain.apply_stage(pieces, motions)
    m = b - s.scale(root / n_p_sq)
    pieces, motions, _ = equiareal_shear(o, s, b, m, check=False)
    chain.apply_stage(pieces, motions)
    log.append(f"{tag}: two shears through the slant side")
    # Rigid motion: s -> -bp forces m -> np (orientation), corner o -> op+bp.
    cos = -(s.dot(bp)) / n_p_sq
    sin = -cross2(s, bp) / n_p_sq
    rot = Motion(((cos, -sin), (sin, cos)), Vec(_ZERO, _ZERO))
    if rot.apply_direction(s) != -bp or rot.apply_direction(m) != np_:
        raise GeometryError("rigid alignment failed; exact arithmetic bug")
    chain.move(Motion.translation_by((op + bp) - rot.apply_direction(o)).compose(rot))
    log.append(f"{tag}: rotated onto the target rectangle")
    return chain


# -- decompositions ----------------------------------------------------------------


class Decomposition:
    """Matched piece lists with motions carrying each P-piece to its Q-piece.

    ``report`` is None until assigned, unless the decomposition keeps the
    two lifts it was cut from (``equidecompose``'s do): then its first read
    runs ``verify_decomposition`` against them."""

    __slots__ = ("pieces_p", "pieces_q", "motions", "provenance", "_report", "_lifts")

    def __init__(
        self,
        pieces_p: Sequence[RefinedPolytope],
        pieces_q: Sequence[RefinedPolytope],
        motions: Sequence[Motion],
        provenance: Sequence[str] = (),
    ):
        if not (len(pieces_p) == len(pieces_q) == len(motions)):
            raise GeometryError("piece and motion lists must have equal length")
        self.pieces_p = list(pieces_p)
        self.pieces_q = list(pieces_q)
        self.motions = list(motions)
        self.provenance = list(provenance)
        self._report: Optional[VerificationReport] = None
        self._lifts: Optional[tuple[RefinedPolytope, RefinedPolytope]] = None

    @property
    def report(self) -> Optional[VerificationReport]:
        if self._report is None and self._lifts is not None:
            self._report = verify_decomposition(self, *self._lifts)
        return self._report

    @report.setter
    def report(self, value: Optional[VerificationReport]) -> None:
        self._report = value

    def __len__(self) -> int:
        return len(self.pieces_p)

    def __repr__(self) -> str:
        return f"Decomposition(pieces={len(self.pieces_p)})"


class VerificationReport:
    """Outcome list for every decomposition check."""

    def __init__(self):
        self.entries: list[tuple[str, bool, str]] = []

    def add(self, label: str, ok: bool, detail: str = "") -> None:
        self.entries.append((label, ok, detail))

    @property
    def all_passed(self) -> bool:
        return all(ok for _, ok, _ in self.entries)

    def __str__(self) -> str:
        lines = []
        for label, ok, detail in self.entries:
            mark = "PASS" if ok else "FAIL"
            lines.append(f"{mark} {label}" + (f": {detail}" if detail else ""))
        return "\n".join(lines)


def _vertex_multiset(p: RefinedPolytope) -> list[Vec]:
    pts: list[Vec] = []
    for cell in p.cells:
        for v in cell.closure().vertex_positions():
            if not any(v == w for w in pts):
                pts.append(v)
    return pts


def _congruence_signature(p: RefinedPolytope) -> list[Scalar]:
    pts = _vertex_multiset(p)
    out = []
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            d = pts[i] - pts[j]
            out.append(d.dot(d))
    return sorted(out)


def _signatures_match(a: list[Scalar], b: list[Scalar]) -> bool:
    return len(a) == len(b) and all(sign(x - y) == 0 for x, y in zip(a, b))


def _vertex_keys(p: RefinedPolytope) -> Optional[frozenset]:
    """The exact keys of a plane p's vertices (``Cell.keyed_boundary``)."""
    return frozenset().union(*(c.keyed_boundary()[1] for c in p.cells)) if _plane(p) else None


def verify_decomposition(
    d: Decomposition, p: RefinedPolytope, q: RefinedPolytope
) -> VerificationReport:
    """Exact checks: both partitions, per-piece motion equality, and the
    congruence cross-check on squared vertex distances.

    A partition that boundary cancellation certifies needs no clipping
    (the argument is in ``algebra.partition_failure``).  When both sides
    are certified, every piece is a union of rank-2 plane cells, and m
    carries pp onto qq exactly when the boundary chain of m's image of pp
    equals qq's.  Equal chains make the sums of the two sides' interior
    indicators agree almost everywhere, so the unions agree up to measure
    0, and a nonempty rank-2 cell of either difference would have positive
    area.  m has determinant 1, so images of counterclockwise cycles stay
    counterclockwise.  A pair whose chains differ, and every pair when a
    side was not certified, is decided by ``equals``.  The image is moved
    once, by m's integer form (``Cell.moved``).

    The same image decides the signature line.  Equal exact keys are equal
    values, so when the keys of the image's vertices are the keys of qq's
    vertices, qq's vertex values are m's image of pp's, as sets.  m is
    rigid, so the squared distances between distinct vertices, which the
    reference signature lists after deduplicating vertices by value, are
    the same multiset on both sides.  Otherwise, as when an equal set is
    encoded differently or qq's cells are split elsewhere, both signatures
    are computed and compared."""
    report = VerificationReport()
    certified = True
    for label, pieces, whole in (("source", d.pieces_p, p), ("target", d.pieces_q, q)):
        failure = None
        if not partition_certified(pieces, whole):
            certified = False
            failure = _partition_witness(pieces, whole)
        report.add(
            f"pieces partition the {label} polygon",
            failure is None,
            "" if failure is None else f"{failure[0]} at {failure[1]!r}",
        )
    for i, (pp, qq, m) in enumerate(zip(d.pieces_p, d.pieces_q, d.motions), start=1):
        image = m.apply_polytope(pp)
        ok = certified and boundary_cancels(
            [(1, c) for c in image.cells] + [(-1, c) for c in qq.cells]
        )
        if not ok:
            ok = equals(image, qq)
        report.add(f"motion {i} carries piece {i} exactly", ok)
        keys = _vertex_keys(image)
        sig_ok = keys is not None and keys == _vertex_keys(qq)
        sig_ok = sig_ok or _signatures_match(_congruence_signature(pp), _congruence_signature(qq))
        report.add(f"piece pair {i} congruence signature", sig_ok)
    return report


def equidecompose(
    p_vertices: Sequence[Vec],
    q_vertices: Sequence[Vec],
    check: bool = True,
) -> Decomposition:
    """Cut two equal-area simple polygons into pairwise-congruent refined
    pieces, verified exactly.

    ``d.report`` verifies against the lifts of both triangulations when
    first read.  ``check=True`` reads it for cut polygons and raises
    GeometryError when an entry failed; ``check=False`` leaves it unread,
    for the caller to read or to replace by a verification of its own."""
    vecs_p, pts_p, den_p = _encoded(p_vertices)
    order_p, _, twice_p = _clean_cycle(pts_p)
    vecs_q, pts_q, den_q = _encoded(q_vertices)
    order_q, _, twice_q = _clean_cycle(pts_q)
    # The areas are twice_p / (2 den_p^2) and twice_q / (2 den_q^2).
    if _sign(_sub(_scale(twice_p, den_q * den_q), _scale(twice_q, den_p * den_p))):
        area_p = _scalar(twice_p, 2 * den_p * den_p)
        area_q = _scalar(twice_q, 2 * den_q * den_q)
        raise GeometryError(
            f"areas differ: {scalar_str(area_p)} vs {scalar_str(area_q)}"
        )
    log: list[str] = []
    ears_p, ears_q = _ears(pts_p, order_p), _ears(pts_q, order_q)
    lift_p = RefinedPolytope(2, [_cell(pts_p, den_p, t) for t in ears_p])
    lift_q = RefinedPolytope(2, [_cell(pts_q, den_q, t) for t in ears_q])
    tris_p = [(vecs_p[a], vecs_p[b], vecs_p[c]) for a, b, c in ears_p]
    tris_q = [(vecs_q[a], vecs_q[b], vecs_q[c]) for a, b, c in ears_q]
    if equals(lift_p, lift_q):
        log.append("identical polygons: single piece, identity motion")
        d = Decomposition([lift_p], [lift_q], [Motion.identity()], log)
        d._lifts = (lift_p, lift_q)
        return d
    log.append(f"triangulated into {len(tris_p)} and {len(tris_q)} triangles")
    matched_p, matched_q = match_triangle_areas(tris_p, tris_q)
    log.append(f"matched areas across {len(matched_p)} triangle pairs")
    pieces_p: list[RefinedPolytope] = []
    pieces_q: list[RefinedPolytope] = []
    motions: list[Motion] = []
    # Stage-level partition checks are skipped here: the final verification
    # below re-establishes every intermediate claim globally and exactly.
    for idx, (tp, tq) in enumerate(zip(matched_p, matched_q), start=1):
        tp_c, tq_c, kp, kq = _plan_pair(tp, tq)
        chain_p, frame = _rect_frame(tp_c, log, f"pair {idx} P-side")
        for _ in range(kp):
            frame = _double_frame(chain_p, frame)
        if kp:
            log.append(f"pair {idx} P-side: doubled the rectangle base {kp} time(s)")
        chain_q = _chain_q_onto_rect_p(tq_c, frame, log, f"pair {idx} Q-side", kq)
        # Both chains end on the P rectangle: cutting P's images by Q's and
        # moving the cuts back along Q's motions lands them on Q's triangle.
        chain_p.apply_stage(chain_q.images, [g.inverse() for g in chain_q.motions])
        pieces_q += chain_p.images
        motions += chain_p.motions
        for image, m in zip(chain_p.images, chain_p.motions):
            pieces_p.append(m.inverse().apply_polytope(image))
    log.append(f"composed chains: {len(pieces_p)} matched pieces")
    d = Decomposition(pieces_p, pieces_q, motions, log)
    d._lifts = (lift_p, lift_q)
    if check and not d.report.all_passed:
        raise GeometryError("decomposition failed verification:\n" + str(d.report))
    return d
