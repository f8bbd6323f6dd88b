"""Refined convex cells: intersections of refined half-spaces on a carrier.

A cell's constraints are regular affine functionals in the carrier's
intrinsic coordinates; a refined point belongs to the cell when it lies in
the carrier and every constraint's refinement sign-sequence is
lexicographically positive.  Emptiness of the refined set coincides with
infeasibility of the strict interior system, and the closure of a nonempty
cell is the conventional weak polytope with the same constraints.

Cells on carriers of any dimension but 2 ask ``fm`` about that system.  A
cell on a 2-dimensional carrier instead holds its closure as an exact edge
cycle (see the plane kernel below), or knows it is empty, from the moment
it is made: ``with_extra`` clips the parent's cycle by the added
constraints, other constraints clip the whole plane's, and a convex
polygon's cell is given its cycle by its vertices.  The cycle gives the
constraints that carry an edge, boundedness and vertices; plane cells ask
``fm`` only for witnesses.

Constraints are read as integer rows over one positive denominator, the
form every ``AffineFunctional`` has from birth.  A rigid motion is an
integer form too (see ``Motion``): it moves a cell on a full carrier by
mapping those rows (``_moved_row``), and a moved plane cell keeps its
cycle's labels.  Lower-dimensional carriers move through the scalar
reference path, ``Cell._moved_via_carrier``, with R and t decoded.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import GeometryError
from .fm import LinIneq, feasible, is_bounded, sample_point, vertices
from .linalg import AffineFunctional, Carrier, Vec, cross2, rank, restrict_functional
from .resolution import Flag, RefinedPoint, eval_refinement, lex_positive
from .scalars import Scalar, _add, _encode, _inverse, _mul, _reduced, _scalar, _scale, _sign, _sub, sign

__all__ = [
    "Cell",
    "ClosedPiece",
    "ccw_order",
    "cell_closure",
    "cell_contains",
    "cell_is_empty",
    "complement_halfspace",
]

_ONE = Fraction(1)
_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def complement_halfspace(xi: AffineFunctional) -> AffineFunctional:
    """The refined half-space of -xi is the exact set complement of xi's."""
    if not xi.is_regular:
        raise GeometryError("complement of a non-regular functional")
    return -xi


def _checked(carrier: Carrier, constraints: Iterable[AffineFunctional]) -> tuple:
    """Constraints from outside as a tuple, once each is known to be a
    regular functional on the carrier."""
    cons = tuple(constraints)
    for xi in cons:
        if xi.dim != carrier.dim:
            raise GeometryError("cell constraint dimension mismatch")
        if not xi.is_regular:
            raise GeometryError("cell constraint must be regular on its carrier")
    return cons


def _ambient_form(carrier: Carrier, intrinsic: Sequence[AffineFunctional]) -> list[AffineFunctional]:
    """One ambient preimage per intrinsic functional (supported on the
    carrier's pivot columns; restriction is exactly the inverse)."""
    out = []
    d = carrier.ambient_dim
    for xi in intrinsic:
        linear = [_ZERO] * d
        const = xi.constant
        for coeff, col in zip(xi.linear, carrier.pivots):
            linear[col] = coeff
            const = const - coeff * carrier.base[col]
        out.append(AffineFunctional(Vec(*linear), const))
    return out


def _rotated(rot, v: list) -> list:
    """r v for two rows r of integer tower dicts, or v itself for r = None."""
    if rot is None:
        return v
    return [functools.reduce(_add, map(_mul, row, v)) for row in rot]


def _mapped(form: tuple, v: list, dv: int, shift: bool = True) -> tuple[list, int]:
    """R (v / dv) + t, or R (v / dv) with ``shift`` false, for a rigid
    motion's integer form (r, DR, t, DT) and integer tower dicts v over
    dv > 0: integer tower dicts over one positive denominator, in lowest
    terms."""
    rot, dr, t, dt = form
    out, den = _rotated(rot, v), dr * dv
    if shift:
        out = [_add(_scale(a, dt), _scale(b, den)) for a, b in zip(out, t)]
        den *= dt
    return _reduced(out, den)


def _rotation_form(entries: list, den: int) -> tuple:
    """(r, DR) for the rotation with entries a, b, c, d / den, row by row:
    (None, 1) when it is I, else in lowest terms."""
    a, b, c, d = entries
    if not (_sign(b) or _sign(c) or _sign(_sub(a, {0: den})) or _sign(_sub(d, {0: den}))):
        return None, 1
    (a, b, c, d), den = _reduced(entries, den)
    return ((a, b), (c, d)), den


def _vec(ints: list, den: int) -> Vec:
    """The vector of scalars ints / den."""
    return Vec(*[_scalar(e, den) for e in ints])


def _moved_row(xi: AffineFunctional, form: tuple) -> AffineFunctional:
    """The functional whose value at R x + t is xi's value at x, for a
    rigid motion's integer form (r, DR, t, DT) (see ``Motion``).  Since R is
    orthogonal, the row (a, c) / den, a the linear part, moves to
    (DT P, DR DT c - P . t) / (DR DT den) with P = r a."""
    rot, dr, shift, dt = form
    ints, den = xi.row()
    lin, c = _rotated(rot, ints[:-1]), ints[-1]
    const = _scale(c, dr * dt)
    for p, t in zip(lin, shift):
        if t:
            const = _sub(const, _mul(p, t))
    ints = [_scale(p, dt) for p in lin] if dt != 1 else lin
    ints.append(const)
    return AffineFunctional.from_row(ints, den * dr * dt)


# -- the plane kernel -------------------------------------------------------------
#
# The closure of a nonempty cell on a 2-dimensional carrier is kept as a
# counterclockwise edge cycle in the oriented projective plane (Stolfi,
# "Oriented Projective Geometry", 1991).  A point is a homogeneous triple
# (X, Y, W) of integer tower dicts with W >= 0; W = 0 is the point at
# infinity in direction (X, Y).  An edge is labelled by the index of the
# constraint whose line carries it, or by _INF for the line at infinity, and
# the vertex between two edges is the cross product of their integer rows
# (``row()``), so vertices never grow beyond degree 2 in the input.  The
# sign of a constraint at a vertex is one integer dot product.
#
# The closure is the conic hull of the cycle's vertices once every edge is
# shorter than 180 degrees.  An edge whose two ends lie at infinity is not:
# it gets an interior vertex, a split, so that a parallel line, which is 0 at
# both ends, still sees the edge's inside.  Clipping by one more constraint
# is Sutherland-Hodgman (CACM 1974) on the vertex signs, and the cell is
# empty as soon as no vertex is strictly inside; a cell runs its clips when
# it is made.  A constraint whose line carries an existing edge relabels it,
# so among same-line duplicates the last one labels the edge, the one
# ``pruned`` has always kept.

_INF = -1
_INF_ROW = ({}, {}, {0: 1})
# The whole plane: the line at infinity through four directions.
_FULL_PLANE = (
    (_INF, _INF, _INF, _INF),
    (({0: 1}, {}, {}), ({}, {0: 1}, {}), ({0: -1}, {}, {}), ({}, {0: -1}, {})),
)


def _cross(r, s) -> tuple:
    return (
        _sub(_mul(r[1], s[2]), _mul(r[2], s[1])),
        _sub(_mul(r[2], s[0]), _mul(r[0], s[2])),
        _sub(_mul(r[0], s[1]), _mul(r[1], s[0])),
    )


def _side(row, v) -> int:
    """Sign of a constraint at a homogeneous vertex."""
    return _sign(_add(_add(_mul(row[0], v[0]), _mul(row[1], v[1])), _mul(row[2], v[2])))


def _split(row, prev) -> tuple:
    """An interior vertex of an edge whose ends lie at infinity: the finite
    point (-ac, -bc, a^2 + b^2) of a line, or for the line at infinity the
    direction 90 degrees counterclockwise from the edge's start ``prev``."""
    if row is _INF_ROW:
        return (_scale(prev[1], -1), prev[0], {})
    a, b, c = row
    return (_scale(_mul(a, c), -1), _scale(_mul(b, c), -1), _add(_mul(a, a), _mul(b, b)))


def _resplit(labels: list, verts: list, row_of) -> tuple:
    """Drop vertices inside an edge, then split every edge whose ends both
    lie at infinity and which is a whole line or a half-turn at infinity."""
    keep = [i for i in range(len(labels)) if labels[i] != labels[i - 1]]
    m = len(keep)
    out_l: list = []
    out_v: list = []
    for k, i in enumerate(keep):
        label, v = labels[i], verts[i]
        out_l.append(label)
        out_v.append(v)
        if not v[2]:
            w = verts[keep[(k + 1) % m]]
            if not w[2] and (
                label != _INF or not _sign(_sub(_mul(v[0], w[1]), _mul(v[1], w[0])))
            ):
                out_l.append(label)
                out_v.append(_split(row_of(label), v))
    return tuple(out_l), tuple(out_v)


def _clip(cycle: tuple, label: int, row, row_of) -> Optional[tuple]:
    """The cycle cut by the constraint ``label`` with integer row ``row``;
    None when no vertex is strictly inside it."""
    labels, verts = cycle
    signs = [_side(row, v) for v in verts]
    if max(signs) <= 0:
        return None
    n = len(verts)
    if min(signs) >= 0:
        on_line = [signs[i] == 0 and signs[i + 1 - n] == 0 for i in range(n)]
        if not any(on_line):
            return cycle
        return tuple(label if on else l for l, on in zip(labels, on_line)), verts
    out_l: list = []
    out_v: list = []
    for i in range(n):
        si, sj, li = signs[i], signs[i + 1 - n], labels[i]
        if si > 0:
            out_l.append(li)
            out_v.append(verts[i])
            if sj < 0:  # leaves the half-plane along edge i
                out_l.append(label)
                out_v.append(_cross(row_of(li), row))
        elif si == 0:  # on the line: where the cut enters or leaves
            out_l.append(label if sj < 0 else li)
            out_v.append(verts[i])
        elif sj > 0:  # enters the half-plane along edge i
            out_l.append(li)
            out_v.append(_cross(row, row_of(li)))
    return _resplit(out_l, out_v, row_of)


def _key_over(v, e: dict) -> tuple:
    """A dict key for integer tower dicts v over a nonzero e, which may be
    one of them: v times num, 1/e = num/d, with e itself becoming d, then
    over the gcd.  Equal keys are equal quotients, not conversely."""
    if max(e):
        num, d = _inverse(e)
        v = [{0: d} if x is e else _mul(x, num) if x else x for x in v]
    elif e[0] < 0:
        v = [_scale(x, -1) for x in v]
    return tuple(tuple(sorted(x.items())) for x in _reduced(v, 0)[0])


def _point_key(v) -> tuple:
    """(X, Y, W) over W > 0, or over |X| or |Y| at infinity, where opposite
    directions are distinct points."""
    e = next(e for e in (v[2], v[0], v[1]) if _sign(e))
    return _key_over(v, e if _sign(e) > 0 else _scale(e, -1))


def _mapped_key(form: tuple, key: tuple) -> tuple:
    """The point key of a rigid motion's image of the point keyed ``key``,
    for the motion's integer form (see ``Motion``).  A finite key is
    (X, Y, d) with an int d > 0 and no common factor, and ``_mapped``
    gives the image R (X, Y) / d + t in that form; a direction rotates."""
    x, y, w = (dict(e) for e in key)
    if not w:
        return _point_key((*_rotated(form[0], [x, y]), w))
    ints, den = _mapped(form, [x, y], w[0])
    return (*(tuple(sorted(e.items())) for e in ints), ((0, den),))


def _cycle_vertices(labels: tuple, row_of) -> tuple:
    """The vertices of a cycle from its labels alone."""
    n = len(labels)
    verts: list = [None] * n
    for i in range(n):
        if labels[i - 1] != labels[i]:
            verts[i] = _cross(row_of(labels[i - 1]), row_of(labels[i]))
    for i in range(n):
        if verts[i] is None:  # a split; a corner comes before it
            verts[i] = _split(row_of(labels[i]), verts[i - 1])
    return tuple(verts)


def ccw_order(points: Sequence[Vec]) -> list[Vec]:
    """Convex-position points sorted counterclockwise around their centroid.

    Exact angular comparison: half-plane split first, cross product within
    a half.  The input must be in convex position (e.g. cell vertices)."""
    pts = list(points)
    if len(pts) < 3:
        return pts
    n = Fraction(len(pts))
    cx = sum((p[0] for p in pts), _ZERO) / n
    cy = sum((p[1] for p in pts), _ZERO) / n
    center = Vec(cx, cy)
    rel = [(p, p - center) for p in pts]

    def half(v: Vec) -> int:
        # 0 for the upper half-plane sweep start, 1 for the lower.
        if sign(v[1]) > 0 or (sign(v[1]) == 0 and sign(v[0]) > 0):
            return 0
        return 1

    def cmp(a, b) -> int:
        ha, hb = half(a[1]), half(b[1])
        if ha != hb:
            return -1 if ha < hb else 1
        c = sign(cross2(a[1], b[1]))
        return -c

    return [p for p, _ in sorted(rel, key=functools.cmp_to_key(cmp))]


def _shoelace(pts: list[Vec]) -> Scalar:
    """Signed area of a vertex cycle, positive when counterclockwise."""
    twice: Scalar = _ZERO
    for p, q in zip(pts, pts[1:] + pts[:1]):
        twice = twice + cross2(p, q)
    return twice * _HALF


class ClosedPiece:
    """A conventional convex piece: carrier plus weak intrinsic inequalities."""

    __slots__ = ("carrier", "functionals", "_bounded", "_vertices", "_cycle")

    def __init__(self, carrier: Carrier, functionals: Iterable[AffineFunctional]):
        fns = tuple(functionals)
        for xi in fns:
            if xi.dim != carrier.dim:
                raise GeometryError("piece constraint dimension mismatch")
        self.carrier = carrier
        self.functionals = fns
        self._bounded: Optional[bool] = None
        self._vertices: Optional[list[Vec]] = None
        # A cell's closure on a 2-dimensional carrier gets the cell's edge
        # cycle; pieces built directly ask fm.
        self._cycle: Optional[tuple] = None

    def _system(self) -> list[LinIneq]:
        return [LinIneq.from_functional(xi, strict=False) for xi in self.functionals]

    def contains_position(self, x: Vec) -> bool:
        if not self.carrier.contains_point(x):
            return False
        t = self.carrier.coords_of_point(x)
        return all(sign(xi.value(t)) >= 0 for xi in self.functionals)

    def is_bounded(self) -> bool:
        if self._bounded is None:
            if self._cycle is not None:
                self._bounded = all(v[2] for v in self._cycle[1])
            else:
                self._bounded = is_bounded(self._system(), self.carrier.dim)
        return self._bounded

    def vertex_positions(self) -> list[Vec]:
        """The closure's vertices; counterclockwise when read from a cycle."""
        if self._vertices is None:
            if self._cycle is not None:
                labels, verts = self._cycle
                points = []
                for i, (x, y, w) in enumerate(verts):
                    if w and labels[i] != labels[i - 1]:
                        inum, iden = _inverse(w)
                        points.append((_scalar(_mul(x, inum), iden), _scalar(_mul(y, inum), iden)))
            else:
                points = vertices(self._system(), self.carrier.dim)
            embed = self.carrier.dim < self.carrier.ambient_dim  # else the identity
            self._vertices = [self.carrier.embed_point(Vec(*p)) if embed else Vec(*p) for p in points]
        return list(self._vertices)

    def ambient_constraints(self) -> list[AffineFunctional]:
        """Ambient functionals restricting back to this piece's inequalities."""
        return _ambient_form(self.carrier, self.functionals)

    def __repr__(self) -> str:
        return f"ClosedPiece({self.carrier!r}, {list(self.functionals)!r})"


class Cell:
    """Intersection of refined half-spaces inside a carrier."""

    __slots__ = ("carrier", "constraints", "_empty", "_closure", "_cycle", "_keys")

    def __init__(self, carrier: Carrier, constraints: Iterable[AffineFunctional] = ()):
        self._init(carrier, _checked(carrier, constraints))

    def _init(self, carrier: Carrier, cons: tuple, empty=None, cycle=_FULL_PLANE, start=0) -> "Cell":
        """The private constructor, ``Cell.__new__(Cell)._init(...)``, from
        checked constraints; ``empty`` is what is known of the cell's
        emptiness.  On a 2-dimensional carrier ``cycle`` is the edge cycle of
        the first ``start`` constraints, None when they are empty, and the
        rest clip it here."""
        self.carrier, self.constraints = carrier, cons
        self._closure: Optional[ClosedPiece] = None
        self._keys: Optional[tuple] = None  # keyed_boundary's, once asked
        plane, row_of = carrier.dim == 2, self._row_of
        while plane and cycle is not None and start < len(cons):
            cycle = _clip(cycle, start, row_of(start), row_of)
            start += 1
        self._empty: Optional[bool] = cycle is None if plane else empty
        # Only on 2-dimensional carriers: the closure's edge cycle as
        # (labels, vertices), vertices None while only labels are known.
        self._cycle: Optional[tuple] = cycle if plane else None
        return self

    @classmethod
    def from_ambient(
        cls, carrier: Carrier, functionals: Iterable[AffineFunctional]
    ) -> Optional["Cell"]:
        """Restrict ambient functionals to the carrier.  Constant restrictions
        with positive value are tautological and dropped; zero or negative
        constants make the cell empty (None)."""
        kept = []
        for xi in functionals:
            rho = restrict_functional(xi, carrier)
            if rho.is_regular:
                kept.append(rho)
            elif sign(rho.constant) <= 0:
                return None
        return cls(carrier, kept)

    @classmethod
    def convex_polygon(cls, plane: Carrier, pts: Sequence[tuple]) -> "Cell":
        """The cell of a counterclockwise, strictly convex vertex cycle on the
        full plane carrier, which the caller checks.  Each vertex comes
        encoded as (x, y, d), integer tower dicts over a positive int, such
        as one denominator shared by a whole polygon.  Its edge cycle is
        given: edge i runs from vertex i to vertex i + 1, vertex i is
        (x, y, d) in lowest terms, which is the point's own encoding over the
        lcm of its coordinates' denominators whatever d it came over, and the
        row of edge i is the cross product of vertices i and i + 1, a
        positive multiple of the line through them with the inside
        positive."""
        enc = [_reduced([x, y], d) for x, y, d in pts]
        cons = tuple(  # _cross of (x, y, d) and (u, v, e), with int W = d, e
            AffineFunctional.from_row(
                [_sub(_scale(y, e), _scale(v, d)), _sub(_scale(u, d), _scale(x, e)),
                 _sub(_mul(x, v), _mul(y, u))],
                d * e,
            )
            for ((x, y), d), ((u, v), e) in zip(enc, enc[1:] + enc[:1])
        )
        cycle = (tuple(range(len(enc))), tuple((x, y, {0: d}) for (x, y), d in enc))
        return cls.__new__(cls)._init(plane, cons, False, cycle, len(cons))

    # -- semantics ----------------------------------------------------------

    def contains(self, p: RefinedPoint) -> bool:
        if p.flag.dim != self.carrier.dim:
            raise GeometryError("flag dimension does not match the carrier")
        if not self.carrier.contains_point(p.position):
            return False
        if not all(self.carrier.contains_direction(v) for v in p.flag):
            return False
        t = self.carrier.coords_of_point(p.position)
        intrinsic = RefinedPoint(
            t, Flag([self.carrier.coords_of_direction(v) for v in p.flag])
        )
        return all(
            lex_positive(eval_refinement(xi, intrinsic)) for xi in self.constraints
        )

    def _strict_system(self) -> list[LinIneq]:
        return [LinIneq.from_functional(xi, strict=True) for xi in self.constraints]

    def is_empty(self) -> bool:
        if self._empty is None:  # plane cells know it from birth
            self._empty = not feasible(self._strict_system(), self.carrier.dim)
        return self._empty

    def _row_of(self, label: int):
        return _INF_ROW if label == _INF else self.constraints[label].row()[0]

    def _edges(self) -> Optional[tuple]:
        """The closure's edge cycle (2-dimensional carriers only), None when
        empty; a motion's image derives its vertices on first need."""
        cycle = self._cycle
        if cycle is not None and cycle[1] is None:
            cycle = self._cycle = (cycle[0], _cycle_vertices(cycle[0], self._row_of))
        return cycle

    def closure(self) -> ClosedPiece:
        """The conventional polytope with the same constraints read weakly.
        Only valid for nonempty cells (the weak set can exceed the image of
        an empty cell's closure)."""
        if self._closure is None:
            if self.is_empty():
                raise GeometryError("closure of an empty cell is not represented")
            # Kept, so that its vertices and boundedness are computed once.
            self._closure = ClosedPiece(self.carrier, self.constraints)
            if self.carrier.dim == 2:
                self._closure._cycle = self._edges()
        return self._closure

    def keyed_boundary(self) -> tuple:
        """The point keys of the closure's vertices in cycle order, and of
        its finite corners, which ``vertex_positions`` lists; computed once
        (nonempty cells on a 2-dimensional carrier).  The closure is the
        conic hull of its vertices, so equal key sets mean equal closures."""
        if self._keys is None:
            labels, verts = self._edges()
            points = tuple(_point_key(v) for v in verts)
            corners = [p for i, p in enumerate(points) if verts[i][2] and labels[i] != labels[i - 1]]
            self._keys = (points, frozenset(corners))
        return self._keys

    def boundary_jumps(self) -> list:
        """The closure's boundary chain as jumps: (line key, point key, +1)
        at the start of each edge and -1 at its end.  Edges at infinity run
        counterclockwise; the one from Y <= 0 to Y > 0 covers the direction
        just counterclockwise of (1, 0): +1 at None."""
        labels, verts = self._edges()
        points = self.keyed_boundary()[0]
        lines = {}
        for label in set(labels):  # a row over its first nonzero entry: either side inside
            row = self._row_of(label)
            lines[label] = _key_over(row, next(e for e in row if _sign(e)))
        jumps, n = [], len(labels)
        for i, label in enumerate(labels):
            line = lines[label]
            jumps += [(line, points[i], 1), (line, points[i + 1 - n], -1)]
            if label == _INF and _sign(verts[i][1]) <= 0 < _sign(verts[i + 1 - n][1]):
                jumps.append((line, None, 1))
        return jumps

    # -- witnesses ------------------------------------------------------------

    def _full_flag_at(self, interior_first: Optional[Vec] = None) -> Flag:
        """A flag of the carrier's direction space in intrinsic coordinates,
        optionally led by a prescribed first vector."""
        k = self.carrier.dim
        rows: list[Vec] = []
        if interior_first is not None and not interior_first.is_zero():
            rows.append(interior_first)
        for i in range(k):
            unit = Vec(*[_ONE if j == i else _ZERO for j in range(k)])
            if rank(rows + [unit]) > len(rows):
                rows.append(unit)
            if len(rows) == k:
                break
        return Flag([self.carrier.embed_direction(r) for r in rows])

    def witness(self) -> Optional[RefinedPoint]:
        """A refined point inside the cell (interior position, any full
        flag), or None when the cell is empty."""
        point = sample_point(self._strict_system(), self.carrier.dim)
        if point is None:
            return None
        t = Vec(*point)
        rp = RefinedPoint(self.carrier.embed_point(t), self._full_flag_at())
        return rp

    def inward_refined_point(self, x: Vec) -> Optional[RefinedPoint]:
        """A refined point of the cell located at the (possibly boundary)
        position x: the flag leads toward a strictly interior point, which
        makes every constraint's first nonzero refinement entry positive.
        None when x is outside the closure or the cell is empty."""
        if not self.carrier.contains_point(x):
            return None
        t = self.carrier.coords_of_point(x)
        if any(sign(xi.value(t)) < 0 for xi in self.constraints):
            return None
        interior = sample_point(self._strict_system(), self.carrier.dim)
        if interior is None:
            return None
        u = Vec(*interior) - t
        rp = RefinedPoint(x, self._full_flag_at(u))
        if not self.contains(rp):  # exact self-check; never expected to fire
            return None
        return rp

    # -- derived representations -----------------------------------------------

    def ambient_constraints(self) -> list[AffineFunctional]:
        """Ambient functionals restricting back to this cell's constraints.
        (One canonical preimage; enough to rebuild the cell on its carrier.)"""
        return _ambient_form(self.carrier, self.constraints)

    def moved(self, form: tuple) -> "Cell":
        """The image under the rigid motion x -> R x + t with the integer
        form ``form`` (see ``Motion``).  A full carrier maps onto itself,
        so its constraints' rows map directly.  R is a rotation, so a plane
        cell's edge cycle keeps its labels, and its vertices are re-derived
        from the moved rows."""
        rot, _, shift, dt = form
        if len(shift) != self.carrier.ambient_dim:
            raise GeometryError("motion and cell dimension mismatch")
        if rot is None and not any(shift):
            return self  # the identity
        # A rigid motion is a bijection, so the image is empty iff the cell is.
        if self.carrier.dim == self.carrier.ambient_dim:
            cons = tuple(_moved_row(xi, form) for xi in self.constraints)  # still regular
            cycle = self._cycle
            if cycle is not None and cons:  # the whole plane has no labels
                cycle = (cycle[0], None)
            return Cell.__new__(Cell)._init(self.carrier, cons, self._empty, cycle, len(cons))
        out = self._moved_via_carrier(
            lambda v: _vec(*_mapped(form, *_encode(v), shift=False)), _vec(shift, dt)
        )
        out._empty = self._empty
        return out

    def _moved_via_carrier(self, rotate: Callable[[Vec], Vec], shift: Vec) -> "Cell":
        """The reference map, in scalars: move the carrier, then restrict the
        moved ambient constraints to it.  With R orthogonal, a functional's
        linear part l maps like a direction: l.x + c at x is (R l).y + c -
        (R l).shift at y = R x + shift."""
        carrier = Carrier(
            rotate(self.carrier.base) + shift, [rotate(b) for b in self.carrier.basis]
        )
        moved = []
        for xi in self.ambient_constraints():
            linear = rotate(xi.linear)
            moved.append(AffineFunctional(linear, xi.constant - linear.dot(shift)))
        out = Cell.from_ambient(carrier, moved)
        if out is None:  # rigid motions cannot introduce emptiness
            raise GeometryError("rigid motion produced an inconsistent cell")
        return out

    def translated(self, v: Vec) -> "Cell":
        return self.moved((None, 1, *_encode(v)))

    def with_extra(self, constraints: Sequence[AffineFunctional]) -> "Cell":
        """The cell with ``constraints`` added, which are checked; a plane
        cell's cycle is clipped by them alone."""
        cons = self.constraints + _checked(self.carrier, constraints)
        return Cell.__new__(Cell)._init(
            self.carrier, cons, self._empty or None, self._edges(), len(self.constraints)
        )

    def pruned(self) -> "Cell":
        """An equal cell without constraints the others already imply.

        Intersections stack constraints faster than they add facets, and
        every later feasibility question fans out over the constraint list,
        so dropping implied ones once pays for itself downstream.  A
        nonempty plane cell keeps the constraints that label an edge of its
        cycle; otherwise each constraint in turn is dropped when the rest
        imply it, which also keeps the last of same-line duplicates."""
        cycle = self._edges() if self.carrier.dim == 2 else None
        if cycle is not None:
            labels, verts = cycle
            index = {old: new for new, old in enumerate(sorted(set(labels) - {_INF}))}
            if len(index) == len(self.constraints):
                return self
            cons = tuple(self.constraints[i] for i in index)
            cycle = (tuple(index.get(l, _INF) for l in labels), verts)
            return Cell.__new__(Cell)._init(self.carrier, cons, False, cycle, len(cons))
        kept = self.constraints
        i = 0
        while len(kept) > 1 and i < len(kept):
            rest = kept[:i] + kept[i + 1 :]
            probe = Cell.__new__(Cell)._init(self.carrier, rest + (complement_halfspace(kept[i]),))
            if probe.is_empty():
                kept = rest
            else:
                i += 1
        if len(kept) == len(self.constraints):
            return self
        return Cell.__new__(Cell)._init(self.carrier, kept, self._empty, None, len(kept))

    def __repr__(self) -> str:
        return f"Cell({self.carrier!r}, {list(self.constraints)!r})"


# -- spec-level operation names ------------------------------------------------


def cell_contains(cell: Cell, p: RefinedPoint) -> bool:
    return cell.contains(p)


def cell_is_empty(cell: Cell) -> bool:
    return cell.is_empty()


def cell_closure(cell: Cell) -> ClosedPiece:
    return cell.closure()
