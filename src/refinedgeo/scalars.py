"""Exact scalar arithmetic: rationals extended by nested square roots.

A scalar is either a ``fractions.Fraction`` or a ``QuadExt`` node denoting
``a + b*sqrt(r)`` whose coefficients ``a``, ``b`` and radicand ``r`` are
themselves scalars.  The tower grows on demand (``adjoin_sqrt``) and mixes
freely: arithmetic between values from different extensions nests one tree
inside the other's coefficients.  Every comparison bottoms out in the exact
recursive sign rule; no floating point ever participates in a decision.
``float()`` exists for rendering only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Optional, Union

from .errors import GeometryError, ParseError

Scalar = Union[Fraction, "QuadExt"]

__all__ = [
    "QuadExt",
    "Scalar",
    "adjoin_sqrt",
    "ceil_scalar",
    "exact_sqrt",
    "floor_scalar",
    "parse_scalar",
    "scalar_float",
    "scalar_str",
    "sign",
    "to_scalar",
]


def to_scalar(x) -> Scalar:
    """Coerce ``x`` to a Scalar.  Floats are rejected: they are not exact."""
    if isinstance(x, (QuadExt, Fraction)):
        return x
    if isinstance(x, bool):
        raise TypeError(f"not an exact scalar: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_scalar(x)
    raise TypeError(f"not an exact scalar: {x!r}")


def _sign_of(x: Scalar) -> int:
    if isinstance(x, Fraction):
        n = x.numerator
        return (n > 0) - (n < 0)
    return x._sign_value()


def sign(x) -> int:
    """Exact sign in {-1, 0, +1}."""
    return _sign_of(to_scalar(x))


def _structural_eq(x: Scalar, y: Scalar) -> bool:
    # Fast syntactic check; semantic equality is always sign(x - y) == 0.
    if isinstance(x, Fraction) and isinstance(y, Fraction):
        return x == y
    if isinstance(x, QuadExt) and isinstance(y, QuadExt):
        return (
            _structural_eq(x.radicand, y.radicand)
            and _structural_eq(x.a, y.a)
            and _structural_eq(x.b, y.b)
        )
    return False


def _mk(a: Scalar, b: Scalar, r: Scalar) -> Scalar:
    if _sign_of(b) == 0:
        return a
    return QuadExt(a, b, r)


class QuadExt:
    """One quadratic-tower level: the value ``a + b*sqrt(radicand)``.

    Instances are immutable and deliberately unhashable: distinct trees can
    denote the same value, so no hash can agree with ``==``.  Code that
    groups scalars scans lists with exact equality instead of using dicts.
    """

    __slots__ = ("a", "b", "radicand", "_sign")

    def __init__(self, a: Scalar, b: Scalar, radicand: Scalar):
        self.a = a
        self.b = b
        self.radicand = radicand
        self._sign: Optional[int] = None

    # -- sign ------------------------------------------------------------

    def _sign_value(self) -> int:
        if self._sign is None:
            sa = _sign_of(self.a)
            sb = _sign_of(self.b)
            if sb == 0:
                s = sa
            elif sa == 0:
                s = sb
            elif sa == sb:
                s = sa
            else:
                # Opposite signs: compare a^2 against b^2 * r; the norm
                # a^2 - b^2 r carries the verdict and drops this radical.
                sn = _sign_of(self.a * self.a - self.b * self.b * self.radicand)
                s = 0 if sn == 0 else sa * sn
            self._sign = s
        return self._sign

    # -- coercion ----------------------------------------------------------

    @staticmethod
    def _coerce(x) -> Optional[Scalar]:
        if isinstance(x, (QuadExt, Fraction)):
            return x
        if isinstance(x, bool):
            return None
        if isinstance(x, int):
            return Fraction(x)
        return None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, QuadExt) and _structural_eq(o.radicand, self.radicand):
            return _mk(self.a + o.a, self.b + o.b, self.radicand)
        return _mk(self.a + o, self.b, self.radicand)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.radicand)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.__add__(-o)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return (-self).__add__(o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, QuadExt) and _structural_eq(o.radicand, self.radicand):
            r = self.radicand
            return _mk(
                self.a * o.a + self.b * o.b * r,
                self.a * o.b + self.b * o.a,
                r,
            )
        return _mk(self.a * o, self.b * o, self.radicand)

    __rmul__ = __mul__

    # -- division ------------------------------------------------------------

    def _inverse(self) -> Scalar:
        norm = self.a * self.a - self.b * self.b * self.radicand
        if _sign_of(norm) == 0:
            if self._sign_value() == 0:
                raise ZeroDivisionError("division by zero scalar")
            # a^2 == b^2 r with a nonzero value forces a == b*sqrt(r),
            # so the value equals 2a exactly.
            return _invert(self.a + self.a)
        return _mk(self.a, -self.b, self.radicand) * _invert(norm)

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if isinstance(o, Fraction):
            if o == 0:
                raise ZeroDivisionError("division by zero scalar")
            return _mk(self.a / o, self.b / o, self.radicand)
        return self * o._inverse()

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o * self._inverse()

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            return self._inverse() ** (-n)
        result: Scalar = Fraction(1)
        base: Scalar = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order ---------------------------------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_of(self - o) == 0

    def __ne__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_of(self - o) != 0

    __hash__ = None  # type: ignore[assignment]

    def __lt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_of(self - o) < 0

    def __le__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_of(self - o) <= 0

    def __gt__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_of(self - o) > 0

    def __ge__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return _sign_of(self - o) >= 0

    def __bool__(self) -> bool:
        return self._sign_value() != 0

    def __abs__(self):
        return -self if self._sign_value() < 0 else self

    # -- rendering only --------------------------------------------------------

    def __float__(self) -> float:
        return float(self.a) + float(self.b) * math.sqrt(max(0.0, float(self.radicand)))

    def __str__(self) -> str:
        return scalar_str(self)

    def __repr__(self) -> str:
        return scalar_str(self)


def _invert(x: Scalar) -> Scalar:
    if isinstance(x, Fraction):
        if x == 0:
            raise ZeroDivisionError("division by zero scalar")
        return Fraction(1) / x
    return x._inverse()


# -- square roots ---------------------------------------------------------------


def exact_sqrt(x: Scalar) -> Optional[Scalar]:
    """Square root of ``x`` inside the tower visible in its own tree.

    Returns None when no such presentation exists (the caller then adjoins a
    fresh radical).  Denesting is limited to the visible tower on purpose;
    general algebraic-number normalization is out of scope.
    """
    if isinstance(x, Fraction):
        if x < 0:
            return None
        num = math.isqrt(x.numerator)
        den = math.isqrt(x.denominator)
        if num * num == x.numerator and den * den == x.denominator:
            return Fraction(num, den)
        return None
    if x._sign_value() < 0:
        return None
    a, b, r = x.a, x.b, x.radicand
    if _sign_of(b) == 0:
        return exact_sqrt(a)
    # Candidate sqrt(x) = c + d*sqrt(r): then a = c^2 + d^2 r, b = 2cd, and
    # the norm a^2 - b^2 r must be a perfect square (c^2 - d^2 r)^2.
    n = a * a - b * b * r
    if _sign_of(n) >= 0:
        sn = exact_sqrt(n)
        if sn is not None:
            for c_sq in ((a + sn) / 2, (a - sn) / 2):
                if _sign_of(c_sq) <= 0:
                    continue
                c = exact_sqrt(c_sq)
                if c is None or _sign_of(c) == 0:
                    continue
                cand = _mk(c, b / (c + c), r)
                if _sign_of(cand) < 0:
                    cand = -cand
                if _sign_of(cand * cand - x) == 0:
                    return cand
    return None


def adjoin_sqrt(x) -> Scalar:
    """Exact nonnegative square root, growing the tower when needed.

    Perfect squares of the visible tower come back as existing scalars
    (``adjoin_sqrt(4) == 2``); otherwise a fresh extension node is returned
    whose square is exactly ``x``.  Negative input is an error.
    """
    x = to_scalar(x)
    s = _sign_of(x)
    if s < 0:
        raise GeometryError("adjoin_sqrt of a negative scalar")
    if s == 0:
        return Fraction(0)
    root = exact_sqrt(x)
    if root is not None:
        return root
    return QuadExt(Fraction(0), Fraction(1), x)


# -- integer rounding (exact, float-assisted only as a starting hint) -------------


def floor_scalar(x) -> int:
    x = to_scalar(x)
    if isinstance(x, Fraction):
        return x.numerator // x.denominator
    n = math.floor(float(x))
    while _sign_of(x - n) < 0:
        n -= 1
    while _sign_of(x - (n + 1)) >= 0:
        n += 1
    return n


def ceil_scalar(x) -> int:
    return -floor_scalar(-to_scalar(x))


def scalar_float(x) -> float:
    """Float approximation, for rendering only."""
    return float(to_scalar(x))


# -- literal syntax ---------------------------------------------------------------
#
# expr    := product (('+'|'-') product)*
# product := unary (('*'|'/') unary)*
# unary   := '-' unary | atom
# atom    := INT | 'sqrt' '(' expr ')' | '(' expr ')'

_TOKEN_RE = re.compile(r"(\d+)|(sqrt)|([()+\-*/])|(\s+)|(.)")


def _tokenize(text: str):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        if m.group(4):
            continue
        if m.group(5):
            raise ParseError(f"bad character in scalar literal: {m.group(5)!r}", col=m.start() + 1)
        kind = "int" if m.group(1) else ("sqrt" if m.group(2) else m.group(3))
        tokens.append((kind, m.group(0), m.start() + 1))
    return tokens


def _expect(tokens, pos: int, kind: str):
    if pos >= len(tokens) or tokens[pos][0] != kind:
        where = tokens[pos][2] if pos < len(tokens) else -1
        raise ParseError(f"expected {kind!r} in scalar literal", col=where)
    return pos + 1


def _parse_expr(tokens, pos: int):
    value, pos = _parse_product(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] in "+-":
        op = tokens[pos][0]
        rhs, pos = _parse_product(tokens, pos + 1)
        value = value + rhs if op == "+" else value - rhs
    return value, pos


def _parse_product(tokens, pos: int):
    value, pos = _parse_unary(tokens, pos)
    while pos < len(tokens) and tokens[pos][0] in "*/":
        op = tokens[pos][0]
        rhs, pos = _parse_unary(tokens, pos + 1)
        value = value * rhs if op == "*" else value / rhs
    return value, pos


def _parse_unary(tokens, pos: int):
    if pos < len(tokens) and tokens[pos][0] == "-":
        value, pos = _parse_unary(tokens, pos + 1)
        return -value, pos
    return _parse_atom(tokens, pos)


def _parse_atom(tokens, pos: int):
    if pos >= len(tokens):
        raise ParseError("unexpected end of scalar literal")
    kind, text, col = tokens[pos]
    if kind == "int":
        return Fraction(int(text)), pos + 1
    if kind == "sqrt":
        pos = _expect(tokens, pos + 1, "(")
        value, pos = _parse_expr(tokens, pos)
        pos = _expect(tokens, pos, ")")
        return adjoin_sqrt(value), pos
    if kind == "(":
        value, pos = _parse_expr(tokens, pos + 1)
        pos = _expect(tokens, pos, ")")
        return value, pos
    raise ParseError(f"unexpected {text!r} in scalar literal", col=col)


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar literal grammar: integers, p/q, sqrt(...), + - * / ()."""
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty scalar literal")
    value, pos = _parse_expr(tokens, 0)
    if pos != len(tokens):
        raise ParseError(f"trailing input in scalar literal: {tokens[pos][1]!r}", col=tokens[pos][2])
    return value


def scalar_str(x) -> str:
    """Serialize to the literal grammar with no internal spaces.

    ``parse_scalar(scalar_str(x)) == x`` always holds (value equality; the
    tree shape may differ).
    """
    x = to_scalar(x)
    if isinstance(x, Fraction):
        return str(x)
    root = f"sqrt({scalar_str(x.radicand)})"
    sb = _sign_of(x.b)
    mag = -x.b if sb < 0 else x.b
    if isinstance(mag, Fraction):
        term = root if mag == 1 else f"{mag}*{root}"
    else:
        term = f"({scalar_str(mag)})*{root}"
    if _sign_of(x.a) == 0:
        return f"-{term}" if sb < 0 else term
    return f"{scalar_str(x.a)}{'-' if sb < 0 else '+'}{term}"
