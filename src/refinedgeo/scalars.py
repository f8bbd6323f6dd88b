"""Exact scalar arithmetic: rationals extended by a tower of square roots.

A scalar is either a ``fractions.Fraction`` or a ``QuadExt``.  Every square
root the library meets is a generator sqrt(R_i) of one tower, each radicand
R_i a positive integer or a value encoded over earlier generators, and a
``QuadExt`` is a sparse vector of integer numerators over the monomial basis
of those generators, above one positive integer denominator.  Arithmetic
multiplies monomials and folds a repeated generator into its radicand, so a
generator never sits below itself; every operation runs on integers and
reduces to lowest terms once, at the end.  New generators come only from
``adjoin_sqrt``.  A sign is read from an exact integer enclosure of the
numerators (integer square roots at a fixed 2^-64 scale, rounded outward),
and the recursive norm rule decides only when that enclosure contains 0.
No floating point ever participates in a decision; ``float()`` exists for
rendering only.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from math import gcd
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
# Generator i is sqrt(R_i) with R_i > 0.  A value is a sparse dict of
# integers over the monomial basis of the generators and one positive
# integer denominator,
#     value = (sum over bitmasks m of num[m] * prod(sqrt(R_i) for i in m)) / den,
# and each radicand R_i is an int or, for a nested root, an integer dict over
# generators below i.  adjoin_sqrt encodes a radicand before it registers
# the root, so that order holds by construction.  The helpers below work on
# the integer dicts alone; since den > 0, a value's sign is its dict's sign.
# A sign comes first from an integer enclosure of the dict (see _BOX below);
# no float is used.  Only when the enclosure contains 0 does the norm rule
# decide: it splits the dict on its top generator as p + q*sqrt(R) and
# compares p^2 with q^2*R.  Neither step assumes that the generators are
# independent (sqrt(2+sqrt2) and sqrt(2-sqrt2) get separate bits although
# their product is sqrt2), so every sign is exact.  A value that is 0 with a
# nonempty encoding is caught by its sign.  fm brings each row over one
# denominator and drops it, and runs the same helpers.

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
    """(lo, hi) with lo <= 2**64 * val <= hi, for an integer dict."""
    lo = hi = 0
    for m, c in val.items():
        blo, bhi = _BOX.get(m) or _box(m)
        if c < 0:
            blo, bhi = bhi, blo
        lo += c * blo
        hi += c * bhi
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


def _inverse(den: dict) -> tuple[dict, int]:
    """1/den as (num, d) with d a positive int: den is made rational by
    multiplying through with its conjugate on the top generator, one
    generator at a time."""
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
    d = den[0]
    return (num, d) if d > 0 else (_scale(num, -1), -d)


def _pair(x) -> Optional[tuple[dict, int]]:
    """(numerators, positive denominator) of an exact operand; None for
    anything else."""
    if isinstance(x, QuadExt):
        return x.terms, x.den
    if isinstance(x, Fraction):
        n = x.numerator
        return ({0: n} if n else {}), x.denominator
    if isinstance(x, int) and not isinstance(x, bool):
        return ({0: x} if x else {}), 1
    return None


def _encode(values) -> tuple[list, int]:
    """Exact scalars as integer dicts over one positive denominator, the
    lcm of theirs: (numerators, den)."""
    pairs = [_pair(v) for v in values]
    d = math.lcm(*(den for _, den in pairs))
    return [num if den == d else _scale(num, d // den) for num, den in pairs], d


def _reduced(ints: list, den: int) -> tuple[list, int]:
    """The integer dicts ints over den with the gcd of den and every
    numerator divided out; den = 0 divides out the numerators' gcd alone."""
    g = gcd(den, *(v for e in ints for v in e.values()))
    if g > 1:
        return [{m: v // g for m, v in e.items()} for e in ints], den // g
    return ints, den


def _scalar(num: dict, den: int = 1) -> Scalar:
    """The scalar num/den (den > 0) in lowest terms: a Fraction once no
    generator is left."""
    if not num:
        return _ZERO
    if len(num) == 1 and 0 in num:
        return Fraction(num[0], den)
    g = gcd(den, *num.values())
    if g != 1:
        num = {m: v // g for m, v in num.items()}
        den //= g
    return QuadExt(num, den)


def _over(a: dict, da: int, b: dict, db: int) -> tuple[dict, dict, int]:
    """a/da and b/db brought over one denominator: (a', b', d)."""
    if da == db:
        return a, b, da
    g = gcd(da, db)
    return _scale(a, db // g), _scale(b, da // g), da // g * db


def _quotient(a: dict, da: int, b: dict, db: int) -> tuple[dict, int]:
    """(a/da) / (b/db) as (num, positive den)."""
    inum, iden = _inverse(b)
    return _scale(_mul(a, inum), db), da * iden


def _radicand(bit: int) -> Scalar:
    r = _RADICANDS[bit]
    return Fraction(r) if isinstance(r, int) else _scalar(r)


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
    """An irrational scalar: integer numerators over the tower's monomial
    basis, above one positive integer denominator.

    ``terms`` maps a bitmask of generators to a nonzero int and holds at
    least one generator; ``den`` is a positive int, and the gcd of ``den``
    and every numerator is 1.  The value is ``terms / den``.  A result with
    no generator left is a Fraction instead.  Its value can still be 0
    (sqrt2*sqrt3 - sqrt6), which its sign shows.  Instances are immutable
    and deliberately unhashable: distinct encodings can denote the same
    value, so no hash can agree with ``==``.  Code that groups scalars scans
    lists with exact equality, or keys by encoding where a value split over
    two keys is harmless (``algebra.boundary_cancels``).
    """

    __slots__ = ("terms", "den", "_sgn")

    def __init__(self, terms: dict, den: int):
        self.terms = terms
        self.den = den
        self._sgn: Optional[int] = None

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        a, b, d = _over(self.terms, self.den, *o)
        return _scalar(_add(a, b), d)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt({m: -v for m, v in self.terms.items()}, self.den)

    def __sub__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        a, b, d = _over(self.terms, self.den, *o)
        return _scalar(_sub(a, b), d)

    def __rsub__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        a, b, d = _over(self.terms, self.den, *o)
        return _scalar(_sub(b, a), d)

    def __mul__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        b, db = o
        return _scalar(_mul(self.terms, b), self.den * db)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return _scalar(*_quotient(self.terms, self.den, *o))

    def __rtruediv__(self, other):
        o = _pair(other)
        if o is None:
            return NotImplemented
        return _scalar(*_quotient(*o, self.terms, self.den))

    def __pow__(self, n):
        if not isinstance(n, int) or isinstance(n, bool):
            return NotImplemented
        if n < 0:
            return _scalar(*_quotient({0: 1}, 1, self.terms, self.den)) ** (-n)
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
        o = _pair(other)
        if o is None:
            return None
        a, b, _ = _over(self.terms, self.den, *o)
        return _sign(_sub(a, b))

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
        return _float(self.terms, self.den)

    def __str__(self) -> str:
        return scalar_str(self)

    def __repr__(self) -> str:
        return scalar_str(self)


def _float(val: dict, den: int) -> float:
    if not val:
        return 0.0
    top = max(val).bit_length() - 1
    if top < 0:
        return val[0] / den
    p, q = _split(val, top)
    r = _RADICANDS[top]
    root = math.sqrt(max(0.0, float(r) if isinstance(r, int) else _float(r, 1)))
    return _float(p, den) + _float(q, den) * root


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
    a, b, r = _scalar(p, x.den), _scalar(q, x.den), _radicand(top)
    # Candidate sqrt(x) = c + d*sqrt(r): then a = c^2 + d^2 r, b = 2cd, and
    # the norm a^2 - b^2 r must be a perfect square (c^2 - d^2 r)^2.
    n = a * a - b * b * r
    if _sign_of(n) >= 0:
        sn = exact_sqrt(n)
        if sn is not None:
            root = QuadExt({1 << top: 1}, 1)
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
    num, d = _pair(x)
    # sqrt(num / d) = sqrt(num * d) / d with an integer radicand num * d.
    r = _scale(num, d)
    key = r[0] if len(r) == 1 and 0 in r else tuple(sorted(r.items()))
    bit = _INDEX.get(key)
    if bit is None:
        bit = len(_RADICANDS)
        _INDEX[key] = bit
        _RADICANDS.append(key if isinstance(key, int) else r)
    return QuadExt({1 << bit: 1}, d)


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
    a, b = _scalar(p, x.den), _scalar(q, x.den)
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
