"""Exact scalar arithmetic tests.

Expected values below were derived by hand (conjugate multiplication,
integer square roots) before the implementation existed; the float-based
checks are independent numeric oracles with a wide guard band, never the
decision procedure.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from conftest import deadline
from hypothesis import given, settings
from hypothesis import strategies as st

from refinedgeo import scalars as sc
from refinedgeo.errors import GeometryError, ParseError
from refinedgeo.scalars import (
    QuadExt,
    adjoin_sqrt,
    ceil_scalar,
    exact_sqrt,
    floor_scalar,
    parse_scalar,
    scalar_float,
    scalar_str,
    sign,
    to_scalar,
)

SQRT2 = adjoin_sqrt(2)
SQRT3 = adjoin_sqrt(3)
COS8 = adjoin_sqrt(2 + SQRT2)  # 2 cos(pi/8)
SIN8 = adjoin_sqrt(2 - SQRT2)  # 2 sin(pi/8)


# -- golden cases ------------------------------------------------------------


def test_rational_arithmetic_stays_rational():
    assert Fraction(1, 3) + Fraction(1, 6) == Fraction(1, 2)
    assert isinstance(to_scalar(3), Fraction)


def test_conjugate_product_collapses_to_rational():
    product = (1 + SQRT2) * (1 - SQRT2)
    assert isinstance(product, Fraction)
    assert product == -1


def test_sign_of_one_minus_sqrt2():
    assert sign(1 - SQRT2) == -1
    assert sign(SQRT2 - 1) == 1
    assert sign(SQRT2 - SQRT2) == 0


def test_adjoin_sqrt_perfect_squares_collapse():
    assert adjoin_sqrt(4) == 2
    assert isinstance(adjoin_sqrt(4), Fraction)
    assert adjoin_sqrt(1 + Fraction(3, 4) ** 2) == Fraction(5, 4)
    assert adjoin_sqrt(0) == 0


def test_adjoin_sqrt_squares_back():
    assert SQRT2 ** 2 == 2
    assert isinstance(SQRT2 ** 2, Fraction)
    r = adjoin_sqrt(Fraction(7, 3))
    assert r * r == Fraction(7, 3)


def test_adjoin_sqrt_negative_rejected():
    with pytest.raises(GeometryError):
        adjoin_sqrt(-1)
    with pytest.raises(GeometryError):
        adjoin_sqrt(1 - SQRT2)


def test_division_via_conjugate():
    # (1 + 2*sqrt(2)) / (3 - sqrt(2)) = (7 + 7*sqrt(2)) / 7 = 1 + sqrt(2)
    q = (1 + 2 * SQRT2) / (3 - SQRT2)
    assert q == 1 + SQRT2
    assert q * (3 - SQRT2) == 1 + 2 * SQRT2


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        (1 + SQRT2) / 0
    # A zero value hiding behind a nontrivial presentation still raises.
    hidden_zero = SQRT2 * SQRT3 - adjoin_sqrt(6)
    assert sign(hidden_zero) == 0
    with pytest.raises(ZeroDivisionError):
        1 / hidden_zero


def test_cross_presentation_identities():
    assert SQRT2 * SQRT3 == adjoin_sqrt(6)
    assert adjoin_sqrt(8) == 2 * SQRT2
    assert (SQRT2 + SQRT3) ** 2 == 5 + 2 * adjoin_sqrt(6)
    assert adjoin_sqrt(Fraction(1, 2)) * SQRT2 == 1


def test_cross_root_identities():
    # sqrt(2+sqrt2) * sqrt(2-sqrt2) = sqrt(4-2) = sqrt2, although the two
    # nested roots are separate generators.
    assert sign(COS8 * SIN8 - SQRT2) == 0
    assert COS8 * SIN8 == SQRT2
    den = COS8 - SIN8
    assert (1 / den) * den == 1
    assert sign(COS8 ** 2 + SIN8 ** 2 - 4) == 0


def test_visible_tower_denesting():
    assert exact_sqrt(to_scalar(3) + 2 * SQRT2) == 1 + SQRT2
    assert adjoin_sqrt(3 + 2 * SQRT2) == 1 + SQRT2
    # 11 - 6*sqrt(2) = (3 - sqrt(2))^2
    assert adjoin_sqrt(11 - 6 * SQRT2) == 3 - SQRT2
    assert exact_sqrt(to_scalar(Fraction(2, 3))) is None


def test_comparisons_are_exact():
    assert SQRT2 < Fraction(3, 2)
    assert SQRT2 > Fraction(7, 5)
    assert 1 + SQRT2 <= 1 + SQRT2
    assert SQRT3 > SQRT2
    # 99/70 is a convergent of sqrt(2): barely above it.
    assert SQRT2 < Fraction(99, 70)
    assert SQRT2 > Fraction(140, 99)


def test_scalars_are_unhashable():
    with pytest.raises(TypeError):
        hash(SQRT2)


def test_floats_rejected():
    with pytest.raises(TypeError):
        to_scalar(1.5)
    with pytest.raises(TypeError):
        SQRT2 + 1.5  # type: ignore[operator]
    with pytest.raises(ParseError):
        parse_scalar("1.5")


def test_floor_and_ceil():
    assert floor_scalar(Fraction(7, 2)) == 3
    assert floor_scalar(Fraction(-7, 2)) == -4
    assert floor_scalar(SQRT2) == 1
    assert floor_scalar(-SQRT2) == -2
    assert ceil_scalar(SQRT2) == 2
    assert ceil_scalar(2 * SQRT2) == 3
    assert floor_scalar(SQRT2 * SQRT2) == 2
    assert ceil_scalar(SQRT2 * SQRT2) == 2


# -- literal syntax -----------------------------------------------------------


def test_parse_scalar_literals():
    assert parse_scalar("42") == 42
    assert parse_scalar("-7/3") == Fraction(-7, 3)
    assert parse_scalar("sqrt(2)") == SQRT2
    assert parse_scalar("1-sqrt(2)") < 0
    assert parse_scalar("sqrt(1+(3/4)*(3/4))") == Fraction(5, 4)
    assert parse_scalar("(1+sqrt(5))/2") == (1 + adjoin_sqrt(5)) / 2
    assert parse_scalar("sqrt(3+2*sqrt(2))") == 1 + SQRT2


@pytest.mark.parametrize("bad", ["", "1.5", "1++2", "sqrt(2", "2x", "(1", "1/ /2"])
def test_parse_scalar_rejects_malformed(bad):
    with pytest.raises(ParseError):
        parse_scalar(bad)


def test_parse_scalar_negative_radicand():
    with pytest.raises(GeometryError):
        parse_scalar("sqrt(1-2)")


@pytest.mark.parametrize(
    "value",
    [
        Fraction(0),
        Fraction(-5, 3),
        SQRT2,
        -SQRT2,
        1 - SQRT2,
        Fraction(3, 4) * SQRT2 - Fraction(1, 2),
        (SQRT2 + SQRT3) / 5,
        adjoin_sqrt(3 + SQRT2),
        (1 - adjoin_sqrt(3 + SQRT2)) * SQRT3,
        (1 + COS8) / (SIN8 - SQRT2),
        COS8 * SIN8 - SQRT3 * COS8,
        SIN8 / 2 - COS8 * SQRT3 / 7,
    ],
)
def test_scalar_str_round_trip(value):
    text = scalar_str(value)
    assert " " not in text
    assert parse_scalar(text) == value


# -- property tests -----------------------------------------------------------

rationals = st.builds(Fraction, st.integers(-30, 30), st.integers(1, 12))


def _abs_sqrt(x):
    return adjoin_sqrt(abs(to_scalar(x)))


def scalars(depth: int = 2):
    strat = rationals
    for _ in range(depth):
        prev = strat
        strat = st.one_of(
            prev,
            st.builds(_abs_sqrt, prev),
            st.builds(lambda x, y: x + y, prev, prev),
            st.builds(lambda x, y: x * y, prev, prev),
        )
    return strat


@settings(deadline=None)
@given(scalars(), scalars(), scalars())
def test_field_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert x * (y + z) == x * y + x * z
    assert x + 0 == x
    assert x * 1 == x
    assert x - x == 0
    if sign(y) != 0:
        assert (x / y) * y == x


@settings(deadline=None)
@given(scalars(), scalars())
def test_sign_is_multiplicative_and_orders_addition(x, y):
    assert sign(x * y) == sign(x) * sign(y)
    assert sign(-x) == -sign(x)
    if sign(x) > 0 and sign(y) > 0:
        assert sign(x + y) > 0
    assert (sign(x - y) > 0) == (x > y)


@settings(deadline=None)
@given(scalars())
def test_sign_agrees_with_float_oracle(x):
    f = scalar_float(x)
    if abs(f) > 1e-6:
        assert sign(x) == (1 if f > 0 else -1)


@settings(deadline=None)
@given(scalars())
def test_adjoin_sqrt_squares_to_input(x):
    mag = abs(to_scalar(x))
    root = adjoin_sqrt(mag)
    assert root * root == mag
    assert sign(root) >= 0


@settings(deadline=None)
@given(scalars())
def test_serialization_round_trip(x):
    assert parse_scalar(scalar_str(x)) == x


@settings(deadline=None)
@given(scalars())
def test_float_tracks_value(x):
    # Loose numeric oracle: exact value and float approximation stay close.
    f = scalar_float(x)
    assert math.isfinite(f)
    g = scalar_float(x + 1)
    assert abs(g - f - 1.0) < 1e-6


def test_quadext_repr_is_literal():
    assert repr(1 + SQRT2) == "1+sqrt(2)"
    assert repr(1 - SQRT2) == "1-sqrt(2)"
    assert repr(-SQRT2) == "-sqrt(2)"
    assert repr(Fraction(3, 4) * SQRT2) == "3/4*sqrt(2)"
    assert isinstance((1 + SQRT2), QuadExt)


# -- the sign enclosure against the norm rule ---------------------------------
#
# Every tower sign is read from an integer enclosure first; the norm rule
# decides only when the enclosure contains 0.  The benchmark workloads never
# reach that fallback, so these tests are its coverage.

TOWERS = {
    "sqrt2-sqrt3": [SQRT2, SQRT3],
    "sqrt2-cos8": [SQRT2, COS8],
    "sqrt2-sin8": [SQRT2, SIN8],
    "mixed": [SQRT2, COS8, SIN8],
}
HIDDEN_ZEROS = [SQRT2 * SQRT3 - adjoin_sqrt(6), COS8 * SIN8 - SQRT2]


def _reference_sign(terms: dict) -> int:
    """The norm rule alone: the enclosure is bypassed at every level."""
    saved = sc._sign
    sc._sign = sc._norm_sign
    try:
        return sc._norm_sign(terms)
    finally:
        sc._sign = saved


def _encloses_zero(x) -> bool:
    lo, hi = sc._enclose(x.terms)
    return lo <= 0 <= hi


def _monomials(roots):
    out = [Fraction(1)]
    for r in roots:
        out += [m * r for m in out]
    return out


def _tower_value(rng: random.Random, roots):
    """A random combination of the monomials of ``roots``; now and then a
    hidden zero times a tower value plus a tiny rational, which only the
    norm rule can sign."""
    monos = _monomials(roots)
    x = Fraction(0)
    for _ in range(rng.randint(1, 5)):
        x = x + Fraction(rng.randint(-40, 40), rng.randint(1, 9)) * rng.choice(monos)
    if rng.random() < 0.3:
        tiny = Fraction(rng.randint(-3, 3), 2 ** rng.randint(66, 90))
        x = rng.choice(HIDDEN_ZEROS) * (x + rng.choice(monos)) + tiny
    return x


def _pell_pairs(count: int):
    """(a, b) with a^2 - 2b^2 = +-1 and a + b*sqrt2 > 2^66, so that
    |a - b*sqrt2| < 2^-66: from the powers of 1 + sqrt2."""
    a, b = 1, 1
    out = []
    while len(out) < count:
        a, b = a + 2 * b, a + b
        if a > 1 << 66:
            out.append((a, b))
    return out


def _check_sign(x) -> None:
    if isinstance(x, QuadExt):
        ref = _reference_sign(x.terms)
        assert sc._sign(x.terms) == ref
        assert sign(x) == ref


@pytest.mark.parametrize("tower", sorted(TOWERS))
def test_enclosure_sign_matches_norm_rule_on_seeded_values(tower):
    rng = random.Random(f"enclosure-{tower}")
    roots = TOWERS[tower]
    fallbacks = 0
    with deadline(20, f"enclosure differential, {tower}"):
        for _ in range(300):
            x = _tower_value(rng, roots)
            _check_sign(x)
            fallbacks += isinstance(x, QuadExt) and _encloses_zero(x)
    assert fallbacks > 0  # the norm rule decided some of them


def test_enclosure_falls_back_on_hidden_zeros_and_pell_near_zeros():
    with deadline(20, "enclosure hidden zeros"):
        for zero in HIDDEN_ZEROS:
            assert isinstance(zero, QuadExt) and _encloses_zero(zero)
            assert sc._sign(zero.terms) == _reference_sign(zero.terms) == 0
        for a, b in _pell_pairs(12):
            x = a - b * SQRT2
            assert _encloses_zero(x)  # so the norm rule runs
            expected = a * a - 2 * b * b  # +-1: the sign of (a - b*sqrt2)(a + b*sqrt2)
            assert sc._sign(x.terms) == _reference_sign(x.terms) == expected
            assert sign(x) == expected and sign(-x) == -expected


def test_enclosure_contains_the_value():
    # lo <= 2^64 * den * x <= hi for the numerators x.terms = den * x,
    # checked exactly by the norm rule.
    rng = random.Random(7)
    with deadline(20, "enclosure bounds"):
        for tower in sorted(TOWERS):
            for _ in range(50):
                x = _tower_value(rng, TOWERS[tower])
                if not isinstance(x, QuadExt):
                    continue
                lo, hi = sc._enclose(x.terms)
                scaled = x * (x.den << 64)
                assert _reference_sign(sc._pair(scaled - lo)[0]) >= 0
                assert _reference_sign(sc._pair(hi - scaled)[0]) >= 0


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from(sorted(TOWERS)),
    st.lists(st.tuples(rationals, st.integers(0, 7)), min_size=1, max_size=6),
    st.integers(-3, 3),
)
def test_enclosure_sign_matches_norm_rule_property(tower, terms, tiny):
    monos = _monomials(TOWERS[tower])
    x = sum((c * monos[i % len(monos)] for c, i in terms), Fraction(0))
    with deadline(20, "enclosure property"):
        _check_sign(x)
        _check_sign(HIDDEN_ZEROS[tiny % 2] * x + Fraction(tiny, 1 << 70))


# -- the integer encoding against Fraction-coefficient dicts -------------------
#
# A QuadExt keeps integer numerators over one positive denominator.  The
# reference runs the same generic dict helpers on Fraction coefficients, with
# its own conjugate inverse, and every result must denote the same dict
# exactly, not merely share its sign.  This catches a missing gcd reduce, an
# inverse that keeps a negative denominator, and a sum over two denominators
# that scales the wrong side.


def _fdict(x) -> dict:
    """A scalar's value as a Fraction-coefficient dict."""
    if isinstance(x, QuadExt):
        return {m: Fraction(v, x.den) for m, v in x.terms.items()}
    return {0: Fraction(x)} if x else {}


def _fsign(d: dict) -> int:
    """The norm rule on a Fraction-coefficient dict, cleared to integers."""
    scale = math.lcm(*(v.denominator for v in d.values())) if d else 1
    return _reference_sign({m: int(v * scale) for m, v in d.items()})


def _finverse(d: dict) -> dict:
    num = {0: Fraction(1)}
    while d and max(d):
        flag = 1 << (max(d).bit_length() - 1)
        conj = {m: -v if m & flag else v for m, v in d.items()}
        if _fsign(conj) == 0:
            d = {m: 2 * v for m, v in d.items() if not m & flag}
        else:
            num, d = sc._mul(num, conj), sc._mul(d, conj)
    return sc._scale(num, 1 / d[0])


def _fpow(d: dict, n: int) -> dict:
    if n < 0:
        d, n = _finverse(d), -n
    out = {0: Fraction(1)}
    for _ in range(n):
        out = sc._mul(out, d)
    return out


def _check_encoding(x) -> None:
    if isinstance(x, QuadExt):
        assert type(x.den) is int and x.den > 0
        assert x.terms and max(x.terms) > 0
        assert all(type(v) is int and v for v in x.terms.values())
        assert math.gcd(x.den, *x.terms.values()) == 1
    else:
        assert isinstance(x, Fraction)


def _agrees(result, reference: dict) -> None:
    _check_encoding(result)
    assert _fdict(result) == reference
    assert isinstance(result, Fraction) == (not reference or set(reference) == {0})


def _operand(rng: random.Random, roots):
    kind = rng.random()
    if kind < 0.2:
        return rng.randint(-9, 9)
    if kind < 0.4:
        return Fraction(rng.randint(-40, 40), rng.randint(1, 12))
    return _tower_value(rng, roots)


def _check_pair(x, y) -> None:
    fx, fy = _fdict(x), _fdict(y)
    _agrees(x + y, sc._add(fx, fy))
    _agrees(y + x, sc._add(fy, fx))
    _agrees(x - y, sc._sub(fx, fy))
    _agrees(y - x, sc._sub(fy, fx))
    _agrees(x * y, sc._mul(fx, fy))
    _agrees(y * x, sc._mul(fy, fx))
    _agrees(-x, sc._scale(fx, -1))
    s = _fsign(sc._sub(fx, fy))
    assert ((x < y), (x <= y), (x == y), (x != y), (x >= y), (x > y)) == (
        s < 0, s <= 0, s == 0, s != 0, s >= 0, s > 0
    )
    assert ((y < x), (y == x), (y > x)) == (s > 0, s == 0, s < 0)
    if _fsign(fy):
        _agrees(x / y, sc._mul(fx, _finverse(fy)))
    if _fsign(fx):
        _agrees(y / x, sc._mul(fy, _finverse(fx)))


def _check_roots(rng: random.Random, x) -> None:
    fx = _fdict(x)
    if isinstance(x, QuadExt) and _fsign(fx):
        for n in (-3, -2, -1, 0, 1, 2, 3):
            _agrees(x**n, _fpow(fx, n))
    square = x * x
    root = exact_sqrt(square)
    if root is not None:
        _check_encoding(root)
        assert _fsign(_fdict(root)) >= 0
        assert _fsign(sc._sub(sc._mul(_fdict(root), _fdict(root)), _fdict(square))) == 0
    if isinstance(x, QuadExt) and set(x.terms) == {0} | set(SQRT2.terms):
        # Over Q(sqrt2) the dict of a value is unique: the root is |x|.
        _agrees(root, _fdict(abs(x)))
    if _fsign(fx) > 0 and rng.random() < 0.2:
        root = adjoin_sqrt(x)
        _check_encoding(root)
        if exact_sqrt(x) is None:
            # The radicand is x cleared by the lcm L of its denominators
            # and times L, registered as an integer dict; the root is
            # that generator over L.
            lcm = math.lcm(*(v.denominator for v in fx.values()))
            radicand = {m: int(v * lcm * lcm) for m, v in fx.items()}
            assert len(root.terms) == 1
            (mask,) = root.terms
            registered = sc._RADICANDS[mask.bit_length() - 1]
            assert registered == (radicand[0] if set(radicand) == {0} else radicand)
            _agrees(root, {mask: Fraction(1, lcm)})
        assert _fsign(sc._sub(sc._mul(_fdict(root), _fdict(root)), fx)) == 0
    text = scalar_str(x)
    back = parse_scalar(text)
    _check_encoding(back)
    assert _fsign(sc._sub(_fdict(back), fx)) == 0
    assert scalar_str(back) == text


@pytest.mark.parametrize("tower", sorted(TOWERS))
def test_integer_encoding_matches_fraction_dicts(tower):
    rng = random.Random(f"encoding-{tower}")
    roots = TOWERS[tower]
    with deadline(30, f"encoding differential, {tower}"):
        for _ in range(150):
            x, y = _tower_value(rng, roots), _operand(rng, roots)
            _check_pair(x, y)
            _check_roots(rng, x)
        for zero in HIDDEN_ZEROS:
            x = _tower_value(rng, roots)
            _check_pair(x, zero)
            _check_pair(zero, x)
            _check_pair(zero * x + Fraction(1, 1 << 70), x)
