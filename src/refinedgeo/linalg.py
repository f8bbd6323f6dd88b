"""Exact vectors, affine functionals, and canonical affine subspaces.

Everything here runs over the exact scalar field.  Carriers (affine
subspaces) are kept in a canonical form: reduced row echelon basis with unit
pivots, base point reduced modulo the basis.  Two carriers describe the same
subspace iff their representations compare equal componentwise, which is
what lets higher layers group cells by carrier with plain list scans.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Optional, Sequence

from .errors import GeometryError
from .scalars import Scalar, _encode, _scalar, _scale, _sign, scalar_str, sign, to_scalar

__all__ = [
    "AffineFunctional",
    "Carrier",
    "Vec",
    "affine_hull",
    "affine_solution_space",
    "carrier_intersection",
    "cross2",
    "nullspace",
    "rank",
    "restrict_functional",
    "solve_square",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Vec:
    """Immutable exact vector of fixed dimension."""

    __slots__ = ("coords",)

    def __init__(self, *coords):
        if len(coords) == 1 and isinstance(coords[0], (list, tuple)):
            coords = tuple(coords[0])
        self.coords = tuple(to_scalar(c) for c in coords)

    @property
    def dim(self) -> int:
        return len(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self):
        return iter(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def _check_dim(self, other: "Vec"):
        if self.dim != other.dim:
            raise GeometryError(f"vector dimension mismatch: {self.dim} vs {other.dim}")

    def __add__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec(*[a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other: "Vec") -> "Vec":
        self._check_dim(other)
        return Vec(*[a - b for a, b in zip(self.coords, other.coords)])

    def __neg__(self) -> "Vec":
        return Vec(*[-a for a in self.coords])

    def scale(self, factor) -> "Vec":
        f = to_scalar(factor)
        return Vec(*[f * a for a in self.coords])

    def __mul__(self, factor) -> "Vec":
        return self.scale(factor)

    def __rmul__(self, factor) -> "Vec":
        return self.scale(factor)

    def dot(self, other: "Vec") -> Scalar:
        self._check_dim(other)
        total: Scalar = _ZERO
        for a, b in zip(self.coords, other.coords):
            total = total + a * b
        return total

    def is_zero(self) -> bool:
        return all(sign(c) == 0 for c in self.coords)

    def __eq__(self, other):
        if not isinstance(other, Vec):
            return NotImplemented
        return self.dim == other.dim and all(
            sign(a - b) == 0 for a, b in zip(self.coords, other.coords)
        )

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return "(" + ", ".join(scalar_str(c) for c in self.coords) + ")"


def cross2(u: Vec, v: Vec) -> Scalar:
    """2D cross product u.x*v.y - u.y*v.x."""
    if u.dim != 2 or v.dim != 2:
        raise GeometryError("cross2 needs 2-dimensional vectors")
    return u[0] * v[1] - u[1] * v[0]


class AffineFunctional:
    """xi(x) = linear . x + constant.  Regular means the linear part is nonzero.

    Two exact forms, each derived from the other on first need: the scalars
    ``linear`` and ``constant``, and the integer row that ``fm``, the plane
    kernel and motions read, one integer tower dict per coefficient and the
    constant last, over one positive denominator (value = row / den).  A
    functional built by ``from_row`` sets its scalar slots on their first
    read, and later reads are plain slot reads."""

    __slots__ = ("linear", "constant", "_ints", "_den")

    def __init__(self, linear, constant=0):
        self.linear = linear if isinstance(linear, Vec) else Vec(linear)
        self.constant = to_scalar(constant)
        self._ints: Optional[list] = None

    @classmethod
    def from_row(cls, ints: list, den: int) -> "AffineFunctional":
        """The functional ints / den, for integer tower dicts and den > 0,
        reduced by the gcd of den and every numerator."""
        g = gcd(den, *(v for e in ints for v in e.values()))
        if g > 1:
            ints = [{m: v // g for m, v in e.items()} for e in ints]
            den //= g
        xi = object.__new__(cls)
        xi._ints = ints
        xi._den = den
        return xi

    def __getattr__(self, name):
        # Reached only for an unset slot: the scalars of a row-built functional.
        if name != "linear" and name != "constant":
            raise AttributeError(name)
        den = self._den
        self.linear = Vec(*[_scalar(e, den) for e in self._ints[:-1]])
        self.constant = _scalar(self._ints[-1], den)
        return self.linear if name == "linear" else self.constant

    def row(self) -> tuple[list, int]:
        """(integer row, positive denominator), the constant last."""
        if self._ints is None:
            self._ints, self._den = _encode([*self.linear.coords, self.constant])
        return self._ints, self._den

    @property
    def dim(self) -> int:
        return len(self.row()[0]) - 1

    @property
    def is_regular(self) -> bool:
        return any(_sign(e) for e in self.row()[0][:-1])

    def value(self, point: Vec) -> Scalar:
        return self.linear.dot(point) + self.constant

    def __neg__(self) -> "AffineFunctional":
        if self._ints is not None:
            return AffineFunctional.from_row([_scale(e, -1) for e in self._ints], self._den)
        return AffineFunctional(-self.linear, -self.constant)

    def scale(self, factor) -> "AffineFunctional":
        f = to_scalar(factor)
        return AffineFunctional(self.linear.scale(f), f * self.constant)

    def __eq__(self, other):
        if not isinstance(other, AffineFunctional):
            return NotImplemented
        return self.linear == other.linear and sign(self.constant - other.constant) == 0

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        terms = [scalar_str(c) for c in self.linear]
        return f"AffineFunctional([{', '.join(terms)}], {scalar_str(self.constant)})"


# -- exact elimination helpers ------------------------------------------------


def _rref(rows: list[list[Scalar]]) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form with unit pivots.  Returns (rows, pivot cols);
    zero rows are dropped.  Deterministic: first usable row per column."""
    work = [list(r) for r in rows]
    if not work:
        return [], []
    ncols = len(work[0])
    pivots: list[int] = []
    out: list[list[Scalar]] = []
    for col in range(ncols):
        pivot_idx = None
        for i, r in enumerate(work):
            if sign(r[col]) != 0:
                pivot_idx = i
                break
        if pivot_idx is None:
            continue
        pivot_row = work.pop(pivot_idx)
        inv = pivot_row[col]
        pivot_row = [v / inv for v in pivot_row]
        for group in (out, work):
            for r in group:
                f = r[col]
                if sign(f) != 0:
                    for j in range(ncols):
                        r[j] = r[j] - f * pivot_row[j]
        out.append(pivot_row)
        pivots.append(col)
        if not work:
            break
    return out, pivots


def rank(vectors: Iterable[Vec]) -> int:
    """Exact rank of a list of vectors."""
    rows = [list(v.coords) for v in vectors]
    reduced, _ = _rref(rows)
    return len(reduced)


def solve_square(rows: Sequence[Sequence[Scalar]], rhs: Sequence[Scalar]) -> Optional[list[Scalar]]:
    """Solve the square system rows . x = rhs exactly; None when singular."""
    n = len(rows)
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    reduced, pivots = _rref(aug)
    if len(reduced) != n or pivots != list(range(n)):
        return None
    return [r[n] for r in reduced]


def nullspace(rows: Sequence[Vec], n: int) -> list[Vec]:
    """Basis of {x : row . x = 0 for every row}, for vectors of length n."""
    reduced, pivots = _rref([list(v.coords) for v in rows])
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        coords = [_ZERO] * n
        coords[f] = _ONE
        for i, p in enumerate(pivots):
            coords[p] = -reduced[i][f]
        basis.append(Vec(*coords))
    return basis


def affine_solution_space(
    rows: Sequence[Vec], rhs: Sequence[Scalar], n: int
) -> Optional[tuple[Vec, list[Vec]]]:
    """Solve rows . x = rhs over n variables.  Returns (particular solution,
    nullspace basis), or None when the system is inconsistent."""
    aug = [list(v.coords) + [to_scalar(b)] for v, b in zip(rows, rhs)]
    reduced, pivots = _rref(aug)
    if n in pivots:
        return None
    particular = [_ZERO] * n
    for i, p in enumerate(pivots):
        particular[p] = reduced[i][n]
    free = [j for j in range(n) if j not in pivots]
    basis = []
    for f in free:
        coords = [_ZERO] * n
        coords[f] = _ONE
        for i, p in enumerate(pivots):
            coords[p] = -reduced[i][f]
        basis.append(Vec(*coords))
    return Vec(*particular), basis


def carrier_intersection(c1: "Carrier", c2: "Carrier") -> Optional["Carrier"]:
    """Intersection of two carriers as a carrier, or None when disjoint.

    Each carrier is the solution set of the linear equations cut out by the
    annihilator of its direction space; stacking both systems and solving
    gives the intersection.
    """
    if c1.ambient_dim != c2.ambient_dim:
        raise GeometryError("carrier ambient dimension mismatch")
    n = c1.ambient_dim
    rows: list[Vec] = []
    rhs: list[Scalar] = []
    for c in (c1, c2):
        for ell in nullspace(list(c.basis), n):
            rows.append(ell)
            rhs.append(ell.dot(c.base))
    if not rows:
        return Carrier.full(n)
    solved = affine_solution_space(rows, rhs, n)
    if solved is None:
        return None
    particular, basis = solved
    return Carrier(particular, basis)


# -- carriers -------------------------------------------------------------------


class Carrier:
    """Affine subspace in canonical form: RREF basis + reduced base point."""

    __slots__ = ("base", "basis", "pivots")

    def __init__(self, base: Vec, directions: Iterable[Vec] = ()):
        dirs = list(directions)
        for v in dirs:
            if v.dim != base.dim:
                raise GeometryError("carrier direction dimension mismatch")
        reduced, pivots = _rref([list(v.coords) for v in dirs])
        basis = tuple(Vec(*row) for row in reduced)
        # Zero the base point's pivot coordinates: unique representative.
        b = list(base.coords)
        for row, col in zip(basis, pivots):
            f = b[col]
            if sign(f) != 0:
                for j in range(len(b)):
                    b[j] = b[j] - f * row[j]
        self.base = Vec(*b)
        self.basis = basis
        self.pivots = tuple(pivots)

    @classmethod
    def full(cls, d: int) -> "Carrier":
        unit = [Vec(*[_ONE if i == j else _ZERO for j in range(d)]) for i in range(d)]
        return cls(Vec(*[_ZERO] * d), unit)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def ambient_dim(self) -> int:
        return self.base.dim

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, Carrier):
            return NotImplemented
        return (
            self.base == other.base
            and len(self.basis) == len(other.basis)
            and all(a == b for a, b in zip(self.basis, other.basis))
        )

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Carrier(base={self.base!r}, basis={list(self.basis)!r})"

    # -- membership and coordinates ------------------------------------------

    def _reduce(self, v: Vec) -> Vec:
        out = list(v.coords)
        for row, col in zip(self.basis, self.pivots):
            f = out[col]
            if sign(f) != 0:
                for j in range(len(out)):
                    out[j] = out[j] - f * row.coords[j]
        return Vec(*out)

    def contains_direction(self, v: Vec) -> bool:
        if v.dim != self.ambient_dim:
            raise GeometryError("direction dimension mismatch")
        return self._reduce(v).is_zero()

    def contains_point(self, p: Vec) -> bool:
        if p.dim != self.ambient_dim:
            raise GeometryError("point dimension mismatch")
        return self._reduce(p - self.base).is_zero()

    def coords_of_direction(self, v: Vec) -> Vec:
        """Intrinsic coordinates of a direction that lies in the carrier.

        Pivot columns of the RREF basis are unit columns, so the i-th
        coordinate is just the vector's entry at pivot i.
        """
        if not self.contains_direction(v):
            raise GeometryError("direction not in carrier")
        return Vec(*[v[col] for col in self.pivots])

    def coords_of_point(self, p: Vec) -> Vec:
        if not self.contains_point(p):
            raise GeometryError("point not in carrier")
        rel = p - self.base
        return Vec(*[rel[col] for col in self.pivots])

    def embed_direction(self, t: Vec) -> Vec:
        out = Vec(*[_ZERO] * self.ambient_dim)
        for coeff, row in zip(t.coords, self.basis):
            out = out + row.scale(coeff)
        return out

    def embed_point(self, t: Vec) -> Vec:
        return self.base + self.embed_direction(t)


def affine_hull(points: Sequence[Vec]) -> Carrier:
    """Canonical carrier of the affine hull of a nonempty point list."""
    if not points:
        raise GeometryError("affine_hull of an empty point list")
    base = points[0]
    return Carrier(base, [p - base for p in points[1:]])


def restrict_functional(xi: AffineFunctional, carrier: Carrier) -> AffineFunctional:
    """Express xi in the carrier's intrinsic coordinates.

    The result may be constant (non-regular); callers decide how to treat
    that (drop, declare empty) based on the constant's sign.
    """
    if xi.dim != carrier.ambient_dim:
        raise GeometryError("functional dimension mismatch")
    linear = [xi.linear.dot(b) for b in carrier.basis]
    constant = xi.value(carrier.base)
    return AffineFunctional(Vec(*linear), constant)
