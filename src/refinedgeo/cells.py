"""Refined convex cells: intersections of refined half-spaces on a carrier.

A cell's constraints are regular affine functionals in the carrier's
intrinsic coordinates; a refined point belongs to the cell when it lies in
the carrier and every constraint's refinement sign-sequence is
lexicographically positive.  Emptiness of the refined set coincides with
infeasibility of the strict interior system, and the closure of a nonempty
cell is the conventional weak polytope with the same constraints.
"""

from __future__ import annotations

import functools
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

from .errors import GeometryError
from .fm import LinIneq, feasible, is_bounded, sample_point, vertices
from .linalg import AffineFunctional, Carrier, Vec, cross2, rank, restrict_functional
from .resolution import Flag, RefinedPoint, eval_refinement, lex_positive
from .scalars import Scalar, sign

__all__ = [
    "Cell",
    "ClosedPiece",
    "ccw_order",
    "cell_closure",
    "cell_contains",
    "cell_is_empty",
    "complement_halfspace",
    "convex_area",
]

_ONE = Fraction(1)
_ZERO = Fraction(0)
_HALF = Fraction(1, 2)


def complement_halfspace(xi: AffineFunctional) -> AffineFunctional:
    """The refined half-space of -xi is the exact set complement of xi's."""
    if not xi.is_regular:
        raise GeometryError("complement of a non-regular functional")
    return -xi


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


def _moved_functional(xi: AffineFunctional, rotate: Callable[[Vec], Vec], shift: Vec):
    """The functional whose value at R x + shift is xi's value at x."""
    linear = rotate(xi.linear)
    return AffineFunctional(linear, xi.constant - linear.dot(shift))


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


def convex_area(points: Sequence[Vec]) -> Scalar:
    """Exact area of the convex hull of planar points that are its vertices
    (e.g. the vertex positions of a bounded planar closure); 0 below three."""
    cycle = ccw_order(points)
    twice: Scalar = _ZERO
    for p, q in zip(cycle, cycle[1:] + cycle[:1]):
        twice = twice + cross2(p, q)
    return twice * _HALF


class ClosedPiece:
    """A conventional convex piece: carrier plus weak intrinsic inequalities."""

    __slots__ = ("carrier", "functionals", "_bounded", "_vertices")

    def __init__(self, carrier: Carrier, functionals: Iterable[AffineFunctional]):
        fns = tuple(functionals)
        for xi in fns:
            if xi.dim != carrier.dim:
                raise GeometryError("piece constraint dimension mismatch")
        self.carrier = carrier
        self.functionals = fns
        self._bounded: Optional[bool] = None
        self._vertices: Optional[list[Vec]] = None

    def _system(self) -> list[LinIneq]:
        return [LinIneq.from_functional(xi, strict=False) for xi in self.functionals]

    def contains_position(self, x: Vec) -> bool:
        if not self.carrier.contains_point(x):
            return False
        t = self.carrier.coords_of_point(x)
        return all(sign(xi.value(t)) >= 0 for xi in self.functionals)

    def is_bounded(self) -> bool:
        if self._bounded is None:
            self._bounded = is_bounded(self._system(), self.carrier.dim)
        return self._bounded

    def vertex_positions(self) -> list[Vec]:
        if self._vertices is None:
            self._vertices = [
                self.carrier.embed_point(Vec(*p))
                for p in vertices(self._system(), self.carrier.dim)
            ]
        return list(self._vertices)

    def ambient_constraints(self) -> list[AffineFunctional]:
        """Ambient functionals restricting back to this piece's inequalities."""
        return _ambient_form(self.carrier, self.functionals)

    def __repr__(self) -> str:
        return f"ClosedPiece({self.carrier!r}, {list(self.functionals)!r})"


class Cell:
    """Intersection of refined half-spaces inside a carrier."""

    __slots__ = ("carrier", "constraints", "_empty", "_closure")

    def __init__(self, carrier: Carrier, constraints: Iterable[AffineFunctional] = ()):
        cons = tuple(constraints)
        for xi in cons:
            if xi.dim != carrier.dim:
                raise GeometryError("cell constraint dimension mismatch")
            if not xi.is_regular:
                raise GeometryError("cell constraint must be regular on its carrier")
        self.carrier = carrier
        self.constraints = cons
        self._empty: Optional[bool] = None
        self._closure: Optional[ClosedPiece] = None

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
        if self._empty is None:
            self._empty = not feasible(self._strict_system(), self.carrier.dim)
        return self._empty

    def closure(self) -> ClosedPiece:
        """The conventional polytope with the same constraints read weakly.
        Only valid for nonempty cells (the weak set can exceed the image of
        an empty cell's closure)."""
        if self._closure is None:
            if self.is_empty():
                raise GeometryError("closure of an empty cell is not represented")
            # Kept, so that its vertices and boundedness are computed once.
            self._closure = ClosedPiece(self.carrier, self.constraints)
        return self._closure

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

    def moved(self, rotate: Callable[[Vec], Vec], shift: Vec) -> "Cell":
        """The image under x -> R x + shift, where ``rotate`` applies an
        orthogonal R to a direction.  Orthogonality is what lets a
        functional's linear part map like a direction: l.x + c at x is
        (R l).y + c - (R l).shift at y = R x + shift.  A full carrier maps
        onto itself, so its constraints map directly."""
        if self.carrier.dim == self.carrier.ambient_dim:
            moved = [_moved_functional(xi, rotate, shift) for xi in self.constraints]
            out = Cell(self.carrier, moved)
        else:
            out = self._moved_via_carrier(rotate, shift)
        # A rigid motion is a bijection, so the image is empty iff the cell is.
        out._empty = self._empty
        return out

    def _moved_via_carrier(self, rotate: Callable[[Vec], Vec], shift: Vec) -> "Cell":
        """The reference map: move the carrier, then restrict the moved
        ambient constraints to it."""
        carrier = Carrier(
            rotate(self.carrier.base) + shift, [rotate(b) for b in self.carrier.basis]
        )
        moved = [_moved_functional(xi, rotate, shift) for xi in self.ambient_constraints()]
        out = Cell.from_ambient(carrier, moved)
        if out is None:  # rigid motions cannot introduce emptiness
            raise GeometryError("rigid motion produced an inconsistent cell")
        return out

    def translated(self, v: Vec) -> "Cell":
        return self.moved(lambda u: u, v)

    def with_extra(self, constraints: Sequence[AffineFunctional]) -> "Cell":
        return Cell(self.carrier, list(self.constraints) + list(constraints))

    def pruned(self) -> "Cell":
        """An equal cell without constraints the others already imply.

        Intersections stack constraints faster than they add facets, and
        every later feasibility question fans out over the constraint list,
        so dropping implied ones once pays for itself downstream."""
        kept = list(self.constraints)
        i = 0
        while len(kept) > 1 and i < len(kept):
            rest = kept[:i] + kept[i + 1 :]
            probe = Cell(self.carrier, rest + [complement_halfspace(kept[i])])
            if probe.is_empty():
                kept = rest
            else:
                i += 1
        if len(kept) == len(self.constraints):
            return self
        cell = Cell(self.carrier, kept)
        cell._empty = self._empty
        return cell

    def __repr__(self) -> str:
        return f"Cell({self.carrier!r}, {list(self.constraints)!r})"


# -- spec-level operation names ------------------------------------------------


def cell_contains(cell: Cell, p: RefinedPoint) -> bool:
    return cell.contains(p)


def cell_is_empty(cell: Cell) -> bool:
    return cell.is_empty()


def cell_closure(cell: Cell) -> ClosedPiece:
    return cell.closure()
