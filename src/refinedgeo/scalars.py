"""Exact scalar arithmetic: rationals extended by a tower of square roots.

A scalar is either a ``fractions.Fraction`` or a ``QuadExt``.  Every square
root the library meets is a generator sqrt(R_i) of one tower, each radicand
R_i a positive integer or a value encoded over earlier generators, and a
``QuadExt`` is a sparse vector over the monomial basis of those generators.
Arithmetic multiplies monomials and folds a repeated generator into its
radicand, so a generator never sits below itself.  New generators come only
from ``adjoin_sqrt``.  A sign is read from an exact integer enclosure of the
value (integer square roots at a fixed 2^-64 scale, rounded outward), and
the recursive norm rule decides only when that enclosure contains 0.  No
floating point ever participates in a decision; ``float()`` exists for
rendering only.
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

_ZERO = Fraction(0)


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


# -- the tower encoding --------------------------------------------------------
#
# Generator i is sqrt(R_i) with R_i > 0.  A value is a sparse dict over the
# monomial basis of the generators,
#     value = sum over bitmasks m of coeff[m] * prod(sqrt(R_i) for i in m),
# and each radicand R_i is an int or, for a nested root, an integer dict over
# generators below i.  adjoin_sqrt encodes a radicand before it registers
# the root, so that order holds by construction.  A sign comes first from an
# integer enclosure of the value (see _BOX below); no float is used.  Only
# when the enclosure contains 0 does the norm rule decide: it splits the
# value on its top generator as p + q*sqrt(R) and compares p^2 with q^2*R.
# Neither step assumes that the generators are independent (sqrt(2+sqrt2)
# and sqrt(2-sqrt2) get separate bits although their product is sqrt2), so
# every sign is exact.  A value that is 0 with a nonempty encoding is caught
# by its sign.  Scalars carry Fraction coefficients; fm clears its rows to
# integers and runs the same helpers on them.

# The generators seen so far.  The registry is process-wide and only ever
# appends, so encodings cached on functionals stay valid.
_RADICANDS: list = []  # bit -> int, or integer dict over lower bits
_INDEX: dict = {}  # integer radicand, or its sorted items -> bit


def _split(val: dict, top: int) -> tuple[dict, dict]:
    """(p, q) with val = p + q*sqrt(R_top), both free of generator ``top``."""
    flag = 1 << top
    p = {m: v for m, v in val.items() if not m & flag}
    q = {m & ~flag: v for m, v in val.items() if m & flag}
    return p, q


# The enclosure: _BOX[mask] = (lo, hi) with
#     lo <= 2**64 * prod(sqrt(R_i) for i in mask) <= hi,
# from math.isqrt of each radicand (a nested one enclosed first), and
# products and sums rounded outward in integers.  Entries never change,
# since the registry only appends.
_SCALE = 64
_BOX: dict = {0: (1 << _SCALE, 1 << _SCALE)}


def _box(mask: int) -> tuple[int, int]:
    box = _BOX.get(mask)
    if box is None:
        low = mask & -mask
        if mask == low:
            r = _RADICANDS[low.bit_length() - 1]
            if isinstance(r, int):
                lo = hi = r << 2 * _SCALE
            else:
                lo, hi = _enclose(r)
                lo, hi = max(lo, 0) << _SCALE, hi << _SCALE
            up = math.isqrt(hi)
            box = (math.isqrt(lo), up if up * up == hi else up + 1)
        else:
            alo, ahi = _box(low)
            blo, bhi = _box(mask ^ low)
            box = ((alo * blo) >> _SCALE, -((-ahi * bhi) >> _SCALE))
        _BOX[mask] = box
    return box


def _enclose(val: dict) -> tuple[int, int]:
    """(lo, hi) with lo <= 2**64 * val <= hi; int or Fraction coefficients."""
    lo = hi = 0
    for m, c in val.items():
        blo, bhi = _BOX.get(m) or _box(m)
        n, d = c.numerator, c.denominator
        if n < 0:
            blo, bhi = bhi, blo
        if d == 1:
            lo += n * blo
            hi += n * bhi
        else:
            lo += (n * blo) // d
            hi -= (-n * bhi) // d
    return lo, hi


def _sign(val: dict) -> int:
    if not val:
        return 0
    if not max(val):  # rational
        return 1 if val[0] > 0 else -1
    lo, hi = _enclose(val)
    if lo > 0:
        return 1
    if hi < 0:
        return -1
    return _norm_sign(val)


def _norm_sign(val: dict) -> int:
    """The exact sign rule on its own: p + q*sqrt(R) has the sign of p when
    q is 0, else of q when p agrees or is 0, else of p times p^2 - q^2*R.
    Its recursive calls go through the enclosure again."""
    if not val:
        return 0
    top = max(val).bit_length() - 1
    if top < 0:
        return 1 if val[0] > 0 else -1
    p, q = _split(val, top)
    sp = _sign(p)
    sq = _sign(q)
    if sq == 0:
        return sp
    if sp == 0 or sp == sq:
        return sq
    r = _RADICANDS[top]
    qq = _mul(q, q)
    qqr = _scale(qq, r) if isinstance(r, int) else _mul(qq, r)
    return sp * _sign(_sub(_mul(p, p), qqr))


def _mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ma, va in a.items():
        for mb, vb in b.items():
            v = va * vb
            m = ma ^ mb
            common = ma & mb
            nested = None  # product of the nested radicands met
            while common:
                r = _RADICANDS[(common & -common).bit_length() - 1]
                if isinstance(r, int):
                    v *= r
                else:
                    nested = r if nested is None else _mul(nested, r)
                common &= common - 1
            if nested is None:
                cur = out.get(m)
                out[m] = v if cur is None else cur + v
            else:
                for mt, vt in _mul({m: v}, nested).items():
                    out[mt] = out.get(mt, 0) + vt
    return {m: v for m, v in out.items() if v}


def _scale(a: dict, factor) -> dict:
    return {m: v * factor for m, v in a.items()} if factor else {}


def _sub(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, v in b.items():
        cur = out.get(m, 0)
        cur -= v
        if cur:
            out[m] = cur
        else:
            out.pop(m, None)
    return out


def _add(a: dict, b: dict) -> dict:
    out = dict(a)
    for m, v in b.items():
        cur = out.get(m, 0)
        cur += v
        if cur:
            out[m] = cur
        else:
            out.pop(m, None)
    return out


def _inverse(den: dict) -> dict:
    """1/den: den is made rational by multiplying through with its
    conjugate on the top generator, one generator at a time."""
    num: dict = {0: 1}
    while den and max(den):
        flag = 1 << (max(den).bit_length() - 1)
        conj = {m: -v if m & flag else v for m, v in den.items()}
        if _sign(conj) == 0:  # den = p + q*sqrt(R) with q*sqrt(R) = p
            den = {m: 2 * v for m, v in den.items() if not m & flag}
        else:
            num, den = _mul(num, conj), _mul(den, conj)
    # A zero value stays zero through every step and ends as {}.
    if not den:
        raise ZeroDivisionError("division by zero scalar")
    return _scale(num, Fraction(1, den[0]))


def _terms(x) -> Optional[dict]:
    """The encoding of an exact operand; None for anything else."""
    if isinstance(x, QuadExt):
        return x.terms
    if isinstance(x, Fraction):
        return {0: x} if x else {}
    if isinstance(x, int) and not isinstance(x, bool):
        return {0: Fraction(x)} if x else {}
    return None


def _scalar(terms: dict) -> Scalar:
    """The scalar of an encoding: a Fraction once no generator is left."""
    if not terms:
        return _ZERO
    if len(terms) == 1 and 0 in terms:
        return terms[0]
    return QuadExt(terms)


def _radicand(bit: int) -> Scalar:
    r = _RADICANDS[bit]
    if isinstance(r, int):
        return Fraction(r)
    return _scalar({m: Fraction(v) for m, v in r.items()})


def _sign_of(x: Scalar) -> int:
    if isinstance(x, Fraction):
        n = x.numerator
        return (n > 0) - (n < 0)
    s = x._sgn
    if s is None:
        s = x._sgn = _sign(x.terms)
    return s


def sign(x) -> int:
    """Exact sign in {-1, 0, +1}."""
    return _sign_of(to_scalar(x))


class QuadExt:
    """An irrational scalar: a sparse vector over the tower's monomial basis.

    ``terms`` maps a bitmask of generators to a nonzero Fraction and holds
    at least one generator; a result with none left is a Fraction instead.
    Its value can still be 0 (sqrt2*sqrt3 - sqrt6), which its sign shows.
    Instances are immutable and deliberately unhashable: distinct encodings
    can denote the same value, so no hash can agree with ``==``.  Code that
    groups scalars scans lists with exact equality instead of using dicts.
    """

    __slots__ = ("terms", "_sgn")

    def __init__(self, terms: dict):
        self.terms = terms
        self._sgn: Optional[int] = None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return _scalar(_add(self.terms, o))

    __radd__ = __add__

    def __neg__(self):
        return QuadExt({m: -v for m, v in self.terms.items()})

    def __sub__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return _scalar(_sub(self.terms, o))

    def __rsub__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return _scalar(_sub(o, self.terms))

    def __mul__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return _scalar(_mul(self.terms, o))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return _scalar(_mul(self.terms, _inverse(o)))

    def __rtruediv__(self, other):
        o = _terms(other)
        if o is None:
            return NotImplemented
        return _scalar(_mul(o, _inverse(self.terms)))

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            return _scalar(_inverse(self.terms)) ** (-n)
        result: Scalar = Fraction(1)
        base: Scalar = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- order ---------------------------------------------------------------

    def _cmp(self, other) -> Optional[int]:
        o = _terms(other)
        return None if o is None else _sign(_sub(self.terms, o))

    def __eq__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s == 0

    def __ne__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s != 0

    __hash__ = None  # type: ignore[assignment]

    def __lt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s < 0

    def __le__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s <= 0

    def __gt__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s > 0

    def __ge__(self, other):
        s = self._cmp(other)
        return NotImplemented if s is None else s >= 0

    def __bool__(self) -> bool:
        return _sign_of(self) != 0

    def __abs__(self):
        return -self if _sign_of(self) < 0 else self

    # -- rendering only --------------------------------------------------------

    def __float__(self) -> float:
        return _float(self.terms)

    def __str__(self) -> str:
        return scalar_str(self)

    def __repr__(self) -> str:
        return scalar_str(self)


def _float(val: dict) -> float:
    if not val:
        return 0.0
    top = max(val).bit_length() - 1
    if top < 0:
        return float(val[0])
    p, q = _split(val, top)
    r = _RADICANDS[top]
    root = math.sqrt(max(0.0, float(r) if isinstance(r, int) else _float(r)))
    return _float(p) + _float(q) * root


# -- square roots ---------------------------------------------------------------


def exact_sqrt(x: Scalar) -> Optional[Scalar]:
    """Square root of ``x`` over the generators ``x`` already uses.

    Returns None when no such presentation exists (the caller then adjoins a
    fresh generator).  Denesting is limited to that tower on purpose;
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
    if _sign_of(x) < 0:
        return None
    top = max(x.terms).bit_length() - 1
    p, q = _split(x.terms, top)
    a, b, r = _scalar(p), _scalar(q), _radicand(top)
    # Candidate sqrt(x) = c + d*sqrt(r): then a = c^2 + d^2 r, b = 2cd, and
    # the norm a^2 - b^2 r must be a perfect square (c^2 - d^2 r)^2.
    n = a * a - b * b * r
    if _sign_of(n) >= 0:
        sn = exact_sqrt(n)
        if sn is not None:
            root = QuadExt({1 << top: Fraction(1)})
            for c_sq in ((a + sn) / 2, (a - sn) / 2):
                if _sign_of(c_sq) <= 0:
                    continue
                c = exact_sqrt(c_sq)
                if c is None or _sign_of(c) == 0:
                    continue
                cand = c + b / (c + c) * root
                if _sign_of(cand) < 0:
                    cand = -cand
                if _sign_of(cand * cand - x) == 0:
                    return cand
    return None


def adjoin_sqrt(x) -> Scalar:
    """Exact nonnegative square root, growing the tower when needed.

    Perfect squares over the generators of ``x`` come back as existing
    scalars (``adjoin_sqrt(4) == 2``); otherwise the root is a multiple of a
    generator whose square is exactly ``x`` up to a rational square.  This
    is the only way a generator is made.  Negative input is an error.
    """
    x = to_scalar(x)
    s = _sign_of(x)
    if s < 0:
        raise GeometryError("adjoin_sqrt of a negative scalar")
    if s == 0:
        return _ZERO
    root = exact_sqrt(x)
    if root is not None:
        return root
    r = _terms(x)
    # sqrt(R) = sqrt(R * D^2) / D with an integer radicand R * D^2.
    d = 1
    for v in r.values():
        d = math.lcm(d, v.denominator)
    r = {m: (v * d * d).numerator for m, v in r.items()}
    key = r[0] if len(r) == 1 and 0 in r else tuple(sorted(r.items()))
    bit = _INDEX.get(key)
    if bit is None:
        bit = len(_RADICANDS)
        _INDEX[key] = bit
        _RADICANDS.append(key if isinstance(key, int) else r)
    return QuadExt({1 << bit: Fraction(1, d)})


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

    The value is split on its top generator as ``p + q*sqrt(R)``, so
    ``parse_scalar(scalar_str(x)) == x`` always holds (value equality; the
    encoding may differ).
    """
    x = to_scalar(x)
    if isinstance(x, Fraction):
        return str(x)
    top = max(x.terms).bit_length() - 1
    p, q = _split(x.terms, top)
    a, b = _scalar(p), _scalar(q)
    root = f"sqrt({scalar_str(_radicand(top))})"
    sb = _sign_of(b)
    mag = -b if sb < 0 else b
    if isinstance(mag, Fraction):
        term = root if mag == 1 else f"{mag}*{root}"
    else:
        term = f"({scalar_str(mag)})*{root}"
    if _sign_of(a) == 0:
        return f"-{term}" if sb < 0 else term
    return f"{scalar_str(a)}{'-' if sb < 0 else '+'}{term}"
