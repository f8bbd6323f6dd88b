"""Exact Fourier-Motzkin elimination over mixed strict/weak inequalities.

A constraint is ``coeffs . x + const >= 0`` (weak) or ``> 0`` (strict).
Systems live in the intrinsic coordinates of some carrier, so the ambient
dimension here is the carrier dimension (desk scale: <= 3 variables).
Cells on carriers of any dimension but 2 decide emptiness, pruning and
closures here.  Plane cells read those from their edge cycles in
``cells``, and come here only for witnesses (``sample_point``) and ranks
(``affine_dim``).  ``vertices`` and ``is_bounded`` still answer for any
system, such as a closed piece built directly.

Every scalar lies in the square-root tower of ``scalars``, whose encoding is
a sparse vector of integer numerators over the monomial basis of the tower's
generators, above one positive denominator.  The solver reads that encoding
directly and brings each row over one denominator, which it drops, so
elimination, substitution and Cramer's rule are integer arithmetic on the
same vectors.  Signs come from the tower's exact integer enclosure, with no
float used; the recursive norm rule decides only when the enclosure contains
0.  Each output coordinate is one quotient of two vectors.
Feasibility answers are definitive, and sample points and vertices are exact.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd
from typing import Optional, Sequence

from .linalg import AffineFunctional, Vec, rank
from .scalars import (
    Scalar,
    _add,
    _encode,
    _inverse,
    _mul,
    _scalar,
    _scale,
    _sign,
    _sub,
    sign,
    to_scalar,
)

__all__ = [
    "LinIneq",
    "affine_dim",
    "feasible",
    "implicit_equalities",
    "is_bounded",
    "sample_point",
    "vertices",
]

_ZERO = Fraction(0)


class LinIneq:
    """coeffs . x + const >= 0, strict for > 0."""

    __slots__ = ("coeffs", "const", "strict", "source")

    def __init__(self, coeffs: Sequence, const, strict: bool):
        self.coeffs = tuple(to_scalar(c) for c in coeffs)
        self.const = to_scalar(const)
        self.strict = bool(strict)
        self.source: Optional[AffineFunctional] = None

    @classmethod
    def from_functional(cls, xi: AffineFunctional, strict: bool) -> "LinIneq":
        out = cls(xi.linear.coords, xi.constant, strict)
        out.source = xi
        return out

    def value(self, point: Sequence[Scalar]) -> Scalar:
        total = self.const
        for c, x in zip(self.coeffs, point):
            total = total + c * x
        return total

    def satisfied(self, point: Sequence[Scalar]) -> bool:
        s = sign(self.value(point))
        return s > 0 if self.strict else s >= 0

    def __repr__(self) -> str:
        op = ">" if self.strict else ">="
        return f"LinIneq({list(self.coeffs)!r} . x + {self.const!r} {op} 0)"


def _row(xi: AffineFunctional) -> list:
    """xi's integer row without its positive denominator: a positive
    multiple of xi, which is all a sign or an elimination needs.  The
    functional keeps its row, so every question asked about the same
    geometry encodes it once, and a moved functional is born with one."""
    ints = xi._ints
    return xi.row()[0] if ints is None else ints


def _rows(cons: Sequence[LinIneq]) -> list:
    """(strict, integer row) pairs."""
    return [
        (c.strict, _encode([*c.coeffs, c.const])[0] if c.source is None else _row(c.source))
        for c in cons
    ]


# -- elimination ------------------------------------------------------------------


def _simplify(rows) -> Optional[list]:
    """Drop tautologies and dominated duplicates; None when a constant row
    is already violated."""
    kept: list = []
    seen: dict = {}
    for strict, ints in rows:
        if all(not e for e in ints[:-1]):
            s = _sign(ints[-1])
            if s < 0 or (s == 0 and strict):
                return None
            continue
        g = 0
        for e in ints:
            for v in e.values():
                g = gcd(g, v)
        if g > 1:
            ints = [{m: v // g for m, v in e.items()} for e in ints]
        key = tuple(tuple(sorted(e.items())) for e in ints[:-1])
        j = seen.get(key)
        if j is None:
            seen[key] = len(kept)
            kept.append((strict, ints))
            continue
        kstrict, kints = kept[j]
        d = _sign(_sub(ints[-1], kints[-1]))
        if d < 0 or (d == 0 and strict and not kstrict):
            kept[j] = (strict, ints)
    return kept


def _eliminate(rows, var: int) -> Optional[list]:
    pos, neg, out = [], [], []
    for strict, ints in rows:
        s = _sign(ints[var])
        if s > 0:
            pos.append((strict, ints))
        elif s < 0:
            neg.append((strict, ints))
        else:
            if ints[var]:
                ints = list(ints)
                ints[var] = {}  # exact zero despite a nonzero encoding
            out.append((strict, ints))
    for ps, pi in pos:
        pc = pi[var]
        for ns, ni in neg:
            mnc = _scale(ni[var], -1)
            # (-nc) * p + pc * n cancels the variable; both factors positive.
            row = [_add(_mul(mnc, a), _mul(pc, b)) for a, b in zip(pi, ni)]
            row[var] = {}
            out.append((ps or ns, row))
    return _simplify(out)


def _pick_var(rows, remaining: list[int]) -> int:
    best, best_cost = remaining[0], None
    for var in remaining:
        npos = sum(1 for _, ints in rows if _sign(ints[var]) > 0)
        nneg = sum(1 for _, ints in rows if _sign(ints[var]) < 0)
        cost = npos * nneg - (npos + nneg)
        if best_cost is None or cost < best_cost:
            best, best_cost = var, cost
    return best


def _compare(x: tuple, y: tuple) -> int:
    """Sign of x - y for bounds (num, positive den, ...)."""
    return _sign(_sub(_mul(x[0], y[1]), _mul(y[0], x[1])))


def _interval(rows, var: int):
    """Bounds on ``var`` from rows where it is the only variable left: a
    pair (lower, upper) of (num, positive den, strict) or None when open
    on that side.  None when the rows leave no room.  A linear scan, which
    avoids the quadratic combination step on the largest derived rows."""
    lo = hi = None
    for strict, ints in rows:
        a = ints[var]
        s = _sign(a)
        if s == 0:
            c = _sign(ints[-1])
            if c < 0 or (c == 0 and strict):
                return None
        elif s > 0:  # x >= -const/a
            bound = (_scale(ints[-1], -1), a, strict)
            if lo is None:
                lo = bound
            else:
                d = _compare(bound, lo)
                if d > 0 or (d == 0 and strict and not lo[2]):
                    lo = bound
        else:  # x <= const/(-a)
            bound = (ints[-1], _scale(a, -1), strict)
            if hi is None:
                hi = bound
            else:
                d = _compare(bound, hi)
                if d < 0 or (d == 0 and strict and not hi[2]):
                    hi = bound
    if lo is not None and hi is not None:
        d = _compare(hi, lo)
        if d < 0 or (d == 0 and (lo[2] or hi[2])):
            return None
    return lo, hi


def feasible(cons: Sequence[LinIneq], nvars: int) -> bool:
    """Exact feasibility of the mixed strict/weak system."""
    system = _simplify(_rows(cons))
    if system is None:
        return False
    remaining = list(range(nvars))
    while len(remaining) > 1:
        var = _pick_var(system, remaining)
        remaining.remove(var)
        system = _eliminate(system, var)
        if system is None:
            return False
    return not remaining or _interval(system, remaining[0]) is not None


def _substitute(rows, values: dict) -> list:
    """Rows with each variable of ``values`` (var -> (num, positive den))
    replaced by its value; a row is scaled by the denominators it meets."""
    out = []
    for strict, ints in rows:
        for var, (num, den) in values.items():
            a = ints[var]
            if a:
                ints = [_mul(e, den) for e in ints]
                ints[-1] = _add(ints[-1], _mul(a, num))
                ints[var] = {}
        out.append((strict, ints))
    return out


def _choose(lo, hi) -> tuple:
    """The value taken from a nonempty interval, as (num, positive den):
    0 when unbounded, a weak bound, a strict bound moved inward by 1, or
    the midpoint."""
    if lo is None and hi is None:
        return {}, {0: 1}
    if lo is None:
        num, den, strict = hi
        return (_sub(num, den) if strict else num), den
    if hi is None:
        num, den, strict = lo
        return (_add(num, den) if strict else num), den
    if _compare(hi, lo) == 0:
        return lo[0], lo[1]
    num = _add(_mul(lo[0], hi[1]), _mul(hi[0], lo[1]))
    return num, _scale(_mul(lo[1], hi[1]), 2)


def sample_point(cons: Sequence[LinIneq], nvars: int) -> Optional[list[Scalar]]:
    """An exact feasible point, or None when the system is infeasible."""
    system = _simplify(_rows(cons))
    if system is None:
        return None
    stages: list[tuple[int, list]] = []
    remaining = list(range(nvars))
    while remaining:
        var = _pick_var(system, remaining)
        remaining.remove(var)
        stages.append((var, system))
        if remaining:
            system = _eliminate(system, var)
            if system is None:
                return None
    values: dict = {}
    for var, stage in reversed(stages):
        bounds = _interval(_substitute(stage, values), var)
        if bounds is None:
            return None
        values[var] = _choose(*bounds)
    point = [_ZERO] * nvars
    for var, (num, den) in values.items():
        inum, iden = _inverse(den)
        point[var] = _scalar(_mul(num, inum), iden)
    for c in cons:
        if not c.satisfied(point):  # exact self-check, never expected to fire
            return None
    return point


def implicit_equalities(cons: Sequence[LinIneq], nvars: int) -> list[int]:
    """Indices of weak constraints tight on every feasible point.

    Meaningful for feasible systems; strict constraints are never implicit
    equalities (they cannot be tight at a feasible point).
    """
    out = []
    base = list(cons)
    for i, c in enumerate(base):
        if c.strict:
            continue
        probe = list(base)
        probe[i] = LinIneq(c.coeffs, c.const, True)
        if not feasible(probe, nvars):
            out.append(i)
    return out


def affine_dim(cons: Sequence[LinIneq], nvars: int) -> int:
    """Dimension of the affine hull of the solution set; -1 when empty.

    Intended for weak systems (closures): the hull is cut out by the
    implicit equalities, so its dimension is nvars minus their rank.
    """
    if not feasible(cons, nvars):
        return -1
    eq = implicit_equalities(cons, nvars)
    normals = [Vec(*cons[i].coeffs) for i in eq]
    return nvars - rank(normals)


def is_bounded(cons: Sequence[LinIneq], nvars: int) -> bool:
    """True iff the solution set has empty recession cone (no feasible ray).

    Intended for nonempty systems; vacuously true for empty ones.
    """
    if nvars == 0:
        return True
    recession = [LinIneq(c.coeffs, _ZERO, False) for c in cons]
    for var in range(nvars):
        for direction in (1, -1):
            probe = list(recession)
            unit = [_ZERO] * nvars
            unit[var] = Fraction(direction)
            # Ray with var-component +-1: scaling normalizes any nonzero ray.
            probe.append(LinIneq(unit, Fraction(-1), False))
            if feasible(probe, nvars):
                return False
    return True


def _det(mat: list) -> dict:
    """Determinant by cofactor expansion along the first row."""
    if len(mat) <= 1:
        return mat[0][0] if mat else {0: 1}
    out: dict = {}
    for j, a in enumerate(mat[0]):
        if a:
            term = _mul(a, _det([row[:j] + row[j + 1 :] for row in mat[1:]]))
            out = _sub(out, term) if j % 2 else _add(out, term)
    return out


def vertices(cons: Sequence[LinIneq], nvars: int) -> list[list[Scalar]]:
    """Vertices of the closure (all constraints read weakly).

    Square subsystems of tight constraints are solved exactly by Cramer's
    rule; solutions satisfying the whole weak system are collected
    (deduplicated).
    """
    systems = [ints for _, ints in _rows(cons)]
    found: list[tuple[list[dict], dict]] = []
    out: list[list[Scalar]] = []
    for combo in combinations(range(len(systems)), nvars):
        mat = [systems[i][:nvars] for i in combo]
        det = _det(mat)
        sd = _sign(det)
        if sd == 0:
            continue
        rhs = [_scale(systems[i][-1], -1) for i in combo]
        nums = []
        for j in range(nvars):
            replaced = [row[:j] + [rhs[k]] + row[j + 1 :] for k, row in enumerate(mat)]
            nums.append(_det(replaced))
        ok = True
        for ints in systems:
            acc = _mul(ints[-1], det)
            for j in range(nvars):
                acc = _add(acc, _mul(ints[j], nums[j]))
            if _sign(acc) * sd < 0:
                ok = False
                break
        if not ok:
            continue
        duplicate = False
        for snums, sden in found:
            if all(
                _sign(_sub(_mul(nums[j], sden), _mul(snums[j], det))) == 0
                for j in range(nvars)
            ):
                duplicate = True
                break
        if duplicate:
            continue
        found.append((nums, det))
        inum, iden = _inverse(det)
        out.append([_scalar(_mul(n, inum), iden) for n in nums])
    return out
