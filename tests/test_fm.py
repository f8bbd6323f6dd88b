"""Fourier-Motzkin engine tests.

Feasibility oracles: systems built around a known witness point must be
feasible (the witness proves it independently), and every sample point is
re-checked against the raw constraints.
"""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from conftest import deadline

from refinedgeo.errors import GeometryError
from refinedgeo.linalg import AffineFunctional
from refinedgeo.fm import (
    LinIneq,
    affine_dim,
    feasible,
    implicit_equalities,
    is_bounded,
    sample_point,
    vertices,
)
from refinedgeo.scalars import adjoin_sqrt, parse_scalar, sign

SQRT2 = adjoin_sqrt(2)
SQRT3 = adjoin_sqrt(3)
COS8 = adjoin_sqrt(2 + SQRT2)  # 2 cos(pi/8)
SIN8 = adjoin_sqrt(2 - SQRT2)  # 2 sin(pi/8), a separate nested root
# Units the coefficients draw on: rational, sqrt2/sqrt3, one nested root
# sqrt(2+-sqrt2) over sqrt2, and both nested roots together.
UNITS = {
    "rational": [],
    "sqrt": [SQRT2, SQRT3],
    "nested+": [SQRT2, COS8],
    "nested-": [SQRT2, SIN8],
    "mixed": [SQRT2, COS8, SIN8],
}


def ineq(coeffs, const, strict=False):
    return LinIneq([Fraction(c) if isinstance(c, int) else c for c in coeffs],
                   Fraction(const) if isinstance(const, int) else const, strict)


def unit_square(strict=False):
    return [
        ineq([1, 0], 0, strict),
        ineq([-1, 0], 1, strict),
        ineq([0, 1], 0, strict),
        ineq([0, -1], 1, strict),
    ]


def test_feasible_golden():
    assert feasible(unit_square(), 2)
    assert feasible(unit_square(strict=True), 2)
    # x > 0 and x < 0 is empty; weakly it pins x = 0.
    assert not feasible([ineq([1], 0, True), ineq([-1], 0, True)], 1)
    assert feasible([ineq([1], 0), ineq([-1], 0)], 1)
    # x + y < 1 and x + y > 1 is empty even with the box.
    bad = unit_square() + [ineq([1, 1], -1, True), ineq([-1, -1], 1, True)]
    assert not feasible(bad, 2)


def test_feasible_zero_vars():
    assert feasible([ineq([], 1, True)], 0)
    assert not feasible([ineq([], 0, True)], 0)
    assert feasible([ineq([], 0)], 0)
    assert not feasible([ineq([], -1)], 0)


def test_sample_point_satisfies_system():
    rng = random.Random(3)
    found_feasible = 0
    for _ in range(120):
        nvars = rng.choice([1, 2, 3])
        cons = []
        for _ in range(rng.randint(1, 6)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            cons.append(LinIneq(coeffs, Fraction(rng.randint(-4, 4)), rng.random() < 0.5))
        point = sample_point(cons, nvars)
        if point is None:
            assert not feasible(cons, nvars)
        else:
            found_feasible += 1
            assert feasible(cons, nvars)
            for c in cons:
                assert c.satisfied(point)
    assert found_feasible > 20


def test_systems_built_around_witness_are_feasible():
    rng = random.Random(17)
    for _ in range(80):
        nvars = rng.choice([1, 2, 3])
        witness = [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(nvars)]
        cons = []
        for _ in range(rng.randint(1, 7)):
            coeffs = [Fraction(rng.randint(-4, 4)) for _ in range(nvars)]
            value = sum(c * w for c, w in zip(coeffs, witness))
            margin = Fraction(rng.randint(0, 3))
            # coeffs . x - value + margin is >= margin >= 0 at the witness.
            cons.append(LinIneq(coeffs, -value + margin, strict=margin > 0))
        assert feasible(cons, nvars)
        point = sample_point(cons, nvars)
        assert point is not None
        for c in cons:
            assert c.satisfied(point)


def test_implicit_equalities():
    # x >= 0, -x >= 0 pins x = 0: both weak rows are implicit equalities.
    cons = [ineq([1, 0], 0), ineq([-1, 0], 0), ineq([0, 1], 0), ineq([0, -1], 1)]
    assert implicit_equalities(cons, 2) == [0, 1]
    assert implicit_equalities(unit_square(), 2) == []
    # Tightness forced by combination: x >= 0, y >= 0, -x-y >= 0.
    cone = [ineq([1, 0], 0), ineq([0, 1], 0), ineq([-1, -1], 0)]
    assert implicit_equalities(cone, 2) == [0, 1, 2]


def test_affine_dim_golden():
    assert affine_dim(unit_square(), 2) == 2
    segment = [ineq([1, 0], 0), ineq([-1, 0], 1), ineq([0, 1], 0), ineq([0, -1], 0)]
    assert affine_dim(segment, 2) == 1
    point = [ineq([1, 0], 0), ineq([-1, 0], 0), ineq([0, 1], 0), ineq([0, -1], 0)]
    assert affine_dim(point, 2) == 0
    empty = [ineq([1], -2), ineq([-1], 1)]
    assert affine_dim(empty, 1) == -1
    assert affine_dim([], 3) == 3


def test_is_bounded():
    assert is_bounded(unit_square(), 2)
    assert not is_bounded([ineq([1, 0], 0), ineq([0, 1], 0)], 2)
    assert not is_bounded([ineq([0, 1], 0), ineq([0, -1], 1)], 2)  # strip
    assert is_bounded([], 0)
    triangle = [ineq([1, 0], 0), ineq([0, 1], 0), ineq([-1, -1], 1)]
    assert is_bounded(triangle, 2)


def test_vertices_unit_square():
    vs = vertices(unit_square(), 2)
    assert len(vs) == 4
    corners = {(0, 0), (1, 0), (0, 1), (1, 1)}
    got = {(int(p[0]), int(p[1])) for p in vs}
    assert got == corners


def test_vertices_with_redundant_constraint():
    cons = unit_square() + [ineq([1, 1], 5)]  # x + y + 5 >= 0 never tight
    assert len(vertices(cons, 2)) == 4


def test_tower_scalars_flow_through():
    # Triangle with an irrational edge: feasibility and sampling stay exact.
    cons = [
        ineq([1, 0], 0),
        ineq([0, 1], 0),
        LinIneq([-SQRT2, -1], SQRT2, False),  # sqrt(2)*x + y <= sqrt(2)
    ]
    assert feasible(cons, 2)
    point = sample_point(cons, 2)
    assert point is not None
    for c in cons:
        assert c.satisfied(point)
    assert is_bounded(cons, 2)
    vs = vertices(cons, 2)
    assert len(vs) == 3
    assert any(sign(p[0] - 1) == 0 and sign(p[1]) == 0 for p in vs)
    assert any(sign(p[0]) == 0 and sign(p[1] - SQRT2) == 0 for p in vs)


def test_strict_shrinks_feasibility():
    # Weakly feasible at exactly one point; strictly infeasible.
    cons = [ineq([1, 1], 0), ineq([-1, -1], 0)]
    assert feasible(cons, 2)
    strictened = [LinIneq(c.coeffs, c.const, True) for c in cons]
    assert not feasible(strictened, 2)


def _tower_scalar(rng, units, lo=-4, hi=4):
    value = Fraction(rng.randint(lo, hi), rng.choice([1, 2, 3]))
    if units and rng.random() < 0.6:
        value = value + rng.randint(-2, 2) * rng.choice(units)
    return value


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_tower_systems_built_around_witness(kind):
    rng = random.Random(f"witness-{kind}")
    units = UNITS[kind]
    with deadline(20, f"witness-built {kind} systems"):
        for _ in range(40):
            nvars = rng.choice([1, 2, 3])
            witness = [_tower_scalar(rng, units, -3, 3) for _ in range(nvars)]
            cons = []
            for _ in range(rng.randint(1, 6)):
                coeffs = [_tower_scalar(rng, units) for _ in range(nvars)]
                value = sum((c * w for c, w in zip(coeffs, witness)), Fraction(0))
                margin = Fraction(rng.randint(0, 2))
                cons.append(LinIneq(coeffs, -value + margin, strict=margin > 0))
            assert feasible(cons, nvars)
            point = sample_point(cons, nvars)
            assert point is not None
            for c in cons:
                assert c.satisfied(point)


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_farkas_combinations_are_infeasible(kind):
    # Rows r_1..r_k plus -sum(l_i r_i) - eps with l >= 0: at any point the
    # rows would sum to -eps < 0, or to 0 with the added row strict.
    rng = random.Random(f"farkas-{kind}")
    units = UNITS[kind]
    with deadline(20, f"Farkas {kind} systems"):
        for _ in range(40):
            nvars = rng.choice([1, 2, 3])
            cons = []
            for _ in range(rng.randint(1, 5)):
                coeffs = [_tower_scalar(rng, units) for _ in range(nvars)]
                cons.append(LinIneq(coeffs, _tower_scalar(rng, units), rng.random() < 0.5))
            lam = [Fraction(rng.randint(0, 2)) for _ in cons]
            eps = Fraction(rng.randint(0, 1))
            coeffs = [
                -sum((l * c.coeffs[j] for l, c in zip(lam, cons)), Fraction(0))
                for j in range(nvars)
            ]
            const = -sum((l * c.const for l, c in zip(lam, cons)), Fraction(0)) - eps
            cons.append(LinIneq(coeffs, const, strict=eps == 0 or rng.random() < 0.5))
            rng.shuffle(cons)
            assert not feasible(cons, nvars)
            assert sample_point(cons, nvars) is None


@pytest.mark.parametrize("kind", sorted(UNITS))
def test_functional_systems_answer_as_coefficient_systems(kind):
    """A LinIneq holds a functional, whose integer row fm reads.  Systems
    built from coefficients and from row-built functionals of the same
    values give identical answers, and fm decodes no row-built functional's
    scalars for ``feasible`` or ``vertices``."""
    rng = random.Random(f"from-functional-{kind}")
    units = UNITS[kind]
    outcomes = set()
    with deadline(20, f"functional-built {kind} systems"):
        for _ in range(40):
            nvars = rng.choice([1, 2, 3])
            cons = [
                LinIneq(
                    [_tower_scalar(rng, units) for _ in range(nvars)],
                    _tower_scalar(rng, units),
                    rng.random() < 0.5,
                )
                for _ in range(rng.randint(1, 6))
            ]
            fns = [AffineFunctional.from_row(*c.xi.row()) for c in cons]
            same = [LinIneq.from_functional(xi, c.strict) for xi, c in zip(fns, cons)]
            outcomes.add(feasible(same, nvars))
            assert feasible(cons, nvars) is feasible(same, nvars)
            assert repr(vertices(cons, nvars)) == repr(vertices(same, nvars))
            for xi in fns:
                with pytest.raises(AttributeError):
                    object.__getattribute__(xi, "linear")
            assert repr(sample_point(cons, nvars)) == repr(sample_point(same, nvars))
            assert [repr(c) for c in cons] == [repr(c) for c in same]
    assert outcomes == {True, False}


def test_vertices_of_tower_triangle():
    corners = [
        (Fraction(0), Fraction(0)),
        (COS8, Fraction(1, 2)),
        (SIN8 - 1, 1 + SQRT2),
    ]
    cons = []
    for i, (p, q) in enumerate(zip(corners, corners[1:] + corners[:1])):
        r = corners[i - 1]
        normal = (p[1] - q[1], q[0] - p[0])
        const = -(normal[0] * p[0] + normal[1] * p[1])
        if sign(normal[0] * r[0] + normal[1] * r[1] + const) < 0:
            normal, const = (-normal[0], -normal[1]), -const
        cons.append(LinIneq(list(normal), const, False))
    vs = vertices(cons, 2)
    assert len(vs) == 3
    for x, y in corners:
        assert sum(1 for v in vs if sign(v[0] - x) == 0 and sign(v[1] - y) == 0) == 1
    point = sample_point([LinIneq(c.coeffs, c.const, True) for c in cons], 2)
    assert point is not None


@pytest.mark.parametrize(
    "zero",
    [
        COS8 * SIN8 - SQRT2,  # sqrt(2+sqrt2) * sqrt(2-sqrt2) = sqrt2
        2 * adjoin_sqrt(Fraction(1, 2)) - SQRT2,  # a plain Fraction(0), not encoded
        SQRT2 * SQRT3 - adjoin_sqrt(6),
        2 * adjoin_sqrt(Fraction(1, 2) + SQRT2 / 4) - COS8,
    ],
    ids=["product", "rational-radicand", "integer-product", "nested-radicand"],
)
def test_coefficient_zero_despite_nonempty_encoding(zero):
    assert sign(zero) == 0
    # 0*x - 1 >= 0 is empty; 0*x + 1 > 0 holds everywhere.
    assert not feasible([LinIneq([zero], -1, False)], 1)
    assert feasible([LinIneq([zero], 1, True)], 1)
    assert sample_point([LinIneq([zero], -1, False)], 1) is None
    # x >= 0, y >= 0 and 0*x - y + 1 >= 0: the x-ray over the segment 0 <= y <= 1.
    cons = [
        ineq([1, 0], 0),
        ineq([0, 1], 0),
        LinIneq([zero, Fraction(-1)], 1, False),
    ]
    assert feasible(cons, 2)
    point = sample_point(cons, 2)
    assert point is not None and all(c.satisfied(point) for c in cons)
    assert not is_bounded(cons, 2)
    got = vertices(cons + [LinIneq([Fraction(-1), zero], 1, False)], 2)
    assert len(got) == 4


def test_nonpositive_radicand_is_rejected():
    # adjoin_sqrt is the only way to make a root, so no scalar can carry a
    # negative radicand for fm to meet.
    for make in (
        lambda: adjoin_sqrt(-2),
        lambda: adjoin_sqrt(SQRT2 - 2),
        lambda: parse_scalar("sqrt(-2)"),
        lambda: parse_scalar("sqrt(sqrt(2)-2)"),
    ):
        with pytest.raises(GeometryError):
            make()
