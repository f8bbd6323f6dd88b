"""Exact linear algebra tests: rank, carriers, functional restriction."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from refinedgeo.errors import GeometryError
from refinedgeo.linalg import (
    AffineFunctional,
    Carrier,
    Vec,
    affine_hull,
    cross2,
    nullspace,
    rank,
    restrict_functional,
    solve_square,
)
from refinedgeo.scalars import _encode, adjoin_sqrt, sign

SQRT2 = adjoin_sqrt(2)
SQRT3 = adjoin_sqrt(3)


def test_rank_golden():
    assert rank([Vec(1, 0), Vec(0, 1)]) == 2
    assert rank([Vec(1, 2), Vec(2, 4)]) == 1
    assert rank([]) == 0
    assert rank([Vec(0, 0, 0)]) == 0
    assert rank([Vec(1, 2, 3), Vec(2, 4, 6), Vec(0, 0, 1)]) == 2


def test_vector_arithmetic():
    assert Vec(1, 2) + Vec(3, 4) == Vec(4, 6)
    assert Vec(1, 2) - Vec(3, 4) == Vec(-2, -2)
    assert Vec(1, 2).scale(Fraction(1, 2)) == Vec(Fraction(1, 2), 1)
    assert 2 * Vec(1, 2) == Vec(2, 4)
    assert Vec(1, 2) * SQRT2 == Vec(SQRT2, 2 * SQRT2)
    assert Vec(3, 4).dot(Vec(1, 2)) == 11
    assert cross2(Vec(1, 0), Vec(0, 1)) == 1
    with pytest.raises(GeometryError):
        Vec(1, 2) + Vec(1, 2, 3)


def test_affine_hull_golden():
    line = affine_hull([Vec(0, 0), Vec(1, 1)])
    assert line.dim == 1
    assert line.basis[0] == Vec(1, 1)
    assert line.base == Vec(0, 0)

    point = affine_hull([Vec(2, 3)])
    assert point.dim == 0
    assert point.base == Vec(2, 3)

    plane = affine_hull([Vec(0, 0), Vec(1, 0), Vec(0, 1)])
    assert plane.dim == 2
    assert plane == Carrier.full(2)


def test_carrier_canonical_equality():
    a = affine_hull([Vec(0, 1), Vec(1, 2)])
    b = affine_hull([Vec(2, 3), Vec(-1, 0)])
    assert a == b
    assert a.contains_point(Vec(5, 6))
    assert not a.contains_point(Vec(5, 7))
    c = affine_hull([Vec(0, 0), Vec(1, 1)])
    assert a != c


def test_carrier_base_reduction_is_canonical():
    # The x-axis described from different base points.
    a = Carrier(Vec(7, 0), [Vec(3, 0)])
    b = Carrier(Vec(-2, 0), [Vec(1, 0)])
    assert a == b
    assert a.base == Vec(0, 0)
    assert a.basis[0] == Vec(1, 0)


def test_carrier_coordinates_round_trip():
    carrier = affine_hull([Vec(0, 1, 2), Vec(1, 1, 2), Vec(0, 2, 2)])
    assert carrier.dim == 2
    p = Vec(3, 5, 2)
    t = carrier.coords_of_point(p)
    assert carrier.embed_point(t) == p
    v = Vec(2, -1, 0)
    assert carrier.contains_direction(v)
    tv = carrier.coords_of_direction(v)
    assert carrier.embed_direction(tv) == v
    with pytest.raises(GeometryError):
        carrier.coords_of_point(Vec(0, 0, 0))


def test_restrict_functional_golden():
    x_axis = affine_hull([Vec(0, 0), Vec(1, 0)])

    xi = AffineFunctional(Vec(1, 1), -1)  # x + y - 1
    rho = restrict_functional(xi, x_axis)
    assert rho.is_regular
    assert rho.linear == Vec(1)
    assert sign(rho.constant + 1) == 0  # t - 1

    eta = AffineFunctional(Vec(0, 1), 0)  # y
    rho = restrict_functional(eta, x_axis)
    assert not rho.is_regular
    assert sign(rho.constant) == 0

    diag = Carrier(Vec(0, 1), [Vec(1, 1)])
    zeta = AffineFunctional(Vec(1, -1), 0)  # x - y
    rho = restrict_functional(zeta, diag)
    assert not rho.is_regular
    assert rho.constant == -1


def test_restriction_commutes_with_evaluation():
    rng = random.Random(7)

    def rand_scalar():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    for _ in range(50):
        d = rng.choice([2, 3])
        k = rng.randint(1, d)
        pts = [Vec(*[rand_scalar() for _ in range(d)]) for _ in range(k + 1)]
        carrier = affine_hull(pts)
        xi = AffineFunctional(
            Vec(*[rand_scalar() for _ in range(d)]), rand_scalar()
        )
        rho = restrict_functional(xi, carrier)
        for _ in range(5):
            t = Vec(*[rand_scalar() for _ in range(carrier.dim)])
            assert sign(rho.value(t) - xi.value(carrier.embed_point(t))) == 0


def test_carrier_set_equality_iff_representation_equality():
    rng = random.Random(11)

    def rand_vec(d):
        return Vec(*[Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d)])

    for _ in range(40):
        d = rng.choice([2, 3])
        pts = [rand_vec(d) for _ in range(rng.randint(1, d + 1))]
        a = affine_hull(pts)
        # Re-describe the same subspace with shuffled affine combinations.
        mixed = []
        for _ in range(len(pts) + 1):
            weights = [Fraction(rng.randint(-3, 3)) for _ in pts]
            total = sum(weights)
            if total == 0:
                weights[0] = weights[0] + 1
                total = total + 1
            q = Vec(*[Fraction(0)] * d)
            for w, p in zip(weights, pts):
                q = q + p.scale(Fraction(w, total))
            mixed.append(q)
        b = affine_hull(mixed)
        # b's hull is contained in a's; equality of representations must
        # happen exactly when dimensions agree (same subspace).
        if b.dim == a.dim:
            assert a == b
            for p in mixed:
                assert a.contains_point(p)
        else:
            assert a != b


def test_solve_square():
    sol = solve_square([[Fraction(2), Fraction(1)], [Fraction(1), Fraction(-1)]],
                       [Fraction(5), Fraction(1)])
    assert sol is not None
    assert sol[0] == 2 and sol[1] == 1
    assert solve_square([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]],
                        [Fraction(1), Fraction(2)]) is None
    # Exact solve with tower scalars.
    sol = solve_square([[SQRT2, Fraction(0)], [Fraction(0), Fraction(1)]], [Fraction(2), SQRT2])
    assert sol is not None
    assert sol[0] == SQRT2 and sol[1] == SQRT2


def test_zero_dim_carrier():
    pt = Carrier(Vec(2, 3))
    assert pt.dim == 0
    assert pt.contains_point(Vec(2, 3))
    assert not pt.contains_point(Vec(2, 4))
    assert pt.coords_of_point(Vec(2, 3)) == Vec()


def test_nullspace_golden():
    # One basis vector per free column, pivots solved: x + 2y - z = 0.
    assert nullspace([Vec(1, 2, -1)], 3) == [Vec(-2, 1, 0), Vec(1, 0, 1)]
    assert nullspace([], 2) == [Vec(1, 0), Vec(0, 1)]
    assert nullspace([Vec(1, 0), Vec(1, SQRT2)], 2) == []
    (v,) = nullspace([Vec(SQRT2, 1, 0), Vec(0, 0, 1)], 3)
    assert v == Vec(-1 / SQRT2, 1, 0)


def _rand_tower(rng: random.Random):
    x = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
    for u in (SQRT2, SQRT3):
        if rng.random() < 0.5:
            x = x + Fraction(rng.randint(-3, 3), rng.randint(1, 3)) * u
    return x


def test_every_functional_has_its_row_from_birth():
    """Each way a functional is made gives the integer row that encoding its
    scalars gives, in lowest terms: ``__init__``, ``from_row`` on a row
    with a common factor, negation, ``scale`` and ``restrict_functional``."""

    def encoded(xi) -> bool:
        return xi.row() == _encode([*xi.linear.coords, xi.constant])

    rng = random.Random("rows-at-birth")
    for _ in range(60):
        d = rng.choice([1, 2, 3])
        xi = AffineFunctional(Vec(*[_rand_tower(rng) for _ in range(d)]), _rand_tower(rng))
        ints, den = xi.row()
        k = rng.randint(2, 6)
        grown = AffineFunctional.from_row([{m: k * v for m, v in e.items()} for e in ints], k * den)
        carrier = affine_hull([Vec(*[_rand_tower(rng) for _ in range(d)]) for _ in range(d)])
        made = [
            xi,
            grown,
            -xi,
            -grown,
            xi.scale(_rand_tower(rng)),
            restrict_functional(xi, carrier),
            restrict_functional(grown, carrier),
        ]
        assert grown.row() == (ints, den) and grown == xi and (-grown).row() == (-xi).row()
        assert all(encoded(eta) for eta in made)
