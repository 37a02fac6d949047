import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ratlinalg import frac_interpolate
from zetajoin import (
    ConstantTermNotOneError,
    ExactDivisionFailure,
    IntegralityViolation,
    IntPoly,
    RatPoly,
    interpolate_at_integers,
    interpolation_points,
    poly_gcd,
    series_log,
    squarefree_decomposition,
)


def test_mul_difference_of_squares():
    one_plus = IntPoly([1, 1])
    one_minus = IntPoly([1, -1])
    assert one_plus * one_minus == IntPoly([1, 0, -1])


def test_derivative_at_one():
    assert IntPoly.monomial(3).derivative()(1) == 3


def test_eval_at_one():
    assert IntPoly([1, 0, 0, 0, -1])(1) == 0


def test_eval_rational_point():
    p = IntPoly([1, -2, 1])  # (1-u)^2
    assert p(Fraction(1, 2)) == Fraction(1, 4)


def test_negative_power_rejected():
    with pytest.raises(ValueError):
        IntPoly([1, 1]) ** -1


def test_degree_of_product():
    rng = random.Random(7)
    for _ in range(50):
        p = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)])
        q = IntPoly([rng.randint(-5, 5) for _ in range(rng.randint(1, 6))] + [rng.randint(1, 5)])
        assert (p * q).degree == p.degree + q.degree


def test_pow_matches_repeated_mul():
    p = IntPoly([2, -1, 3])
    acc = IntPoly.one()
    for k in range(6):
        assert p**k == acc
        acc = acc * p


def test_compose_with_monomial():
    p = IntPoly([-6, 0, 1])  # t^2 - 6
    assert p.compose(IntPoly([0, 0, 1])) == IntPoly([-6, 0, 0, 0, 1])


def test_shifted():
    assert IntPoly([1, 2]).shifted(2) == IntPoly([0, 0, 1, 2])


def test_divexact_quartic():
    quartic = IntPoly([-3, -8, -6, 0, 1])  # (t-3)(t+1)^3
    cube = IntPoly([1, 3, 3, 1])
    assert quartic.divexact(IntPoly([-3, 1])) == cube
    assert quartic.divexact(cube) == IntPoly([-3, 1])


def test_divexact_failure():
    with pytest.raises(ExactDivisionFailure):
        IntPoly([1, 0, 1]).divexact(IntPoly([1, 1]))
    with pytest.raises(ExactDivisionFailure):
        IntPoly([1, 3]).divexact(IntPoly([0, 2]))


def test_string_roundtrip():
    p = IntPoly([1, 0, -6])
    assert p.to_decimal_strings() == ["1", "0", "-6"]
    assert IntPoly.from_decimal_strings(["1", "0", "-6"]) == p


def test_pretty_printing():
    assert str(IntPoly([1, 0, -6])) == "-6*u^2 + 1"
    assert str(IntPoly()) == "0"


def test_gcd_shared_factor():
    assert poly_gcd(IntPoly([-1, 0, 1]), IntPoly([1, 2, 1])) == IntPoly([1, 1])


def test_gcd_coprime_is_constant():
    assert poly_gcd(IntPoly([1, 0, 1]), IntPoly([-2, 1])).degree == 0


def test_squarefree_decomposition_triple_root():
    quartic = IntPoly([-3, -8, -6, 0, 1])
    assert squarefree_decomposition(quartic) == [
        (IntPoly([-3, 1]), 1),
        (IntPoly([1, 1]), 3),
    ]


def test_squarefree_decomposition_no_repeats():
    p = IntPoly([-1, 0, 1])
    assert squarefree_decomposition(p) == [(p, 1)]


def test_series_log_geometric():
    got = series_log(IntPoly([1, -1]), 3)
    assert got == RatPoly([0, 1, Fraction(1, 2), Fraction(1, 3)])


def test_series_log_even():
    got = series_log(IntPoly([1, 0, -1]), 4)
    assert got == RatPoly([0, 0, 1, 0, Fraction(1, 2)])


def test_series_log_squared_cubic():
    p = IntPoly([1, 0, 0, -1]) * IntPoly([1, 0, 0, -1])
    assert series_log(p, 6) == RatPoly([0, 0, 0, 2, 0, 0, 1])


def test_series_log_requires_unit_constant():
    with pytest.raises(ConstantTermNotOneError):
        series_log(IntPoly([2, 1]), 4)


def test_interpolation_roundtrip():
    rng = random.Random(11)
    for _ in range(30):
        p = IntPoly([rng.randint(-9, 9) for _ in range(rng.randint(0, 9))])
        bound = max(p.degree, 0) + rng.randint(0, 2)  # overestimates allowed
        points = interpolation_points(bound + 1)
        values = [p(t) for t in points]
        assert interpolate_at_integers(points, values) == p


def test_interpolation_points_are_canonical():
    assert interpolation_points(6) == [0, 1, -1, 2, -2, 3]


def test_interpolation_integrality_violation():
    with pytest.raises(IntegralityViolation):
        interpolate_at_integers([0, 2], [0, 1])


_interpolation_settings = settings(
    max_examples=150, deadline=None, derandomize=True, database=None
)


@_interpolation_settings
@given(st.lists(st.integers(-(10**6), 10**6), unique=True, max_size=14), st.data())
def test_interpolation_roundtrip_at_arbitrary_points(points, data):
    coeffs = data.draw(st.lists(st.integers(-(10**9), 10**9), max_size=len(points)))
    p = IntPoly(coeffs)
    assert interpolate_at_integers(points, [p(t) for t in points]) == p


@_interpolation_settings
@given(st.lists(st.integers(-8, 8), unique=True, max_size=8), st.data())
def test_interpolation_raises_iff_rational_interpolant_is_not_integral(points, data):
    # integer polynomial data, then a few values nudged by +-1
    base = IntPoly(data.draw(st.lists(st.integers(-50, 50), max_size=len(points))))
    nudges = st.sampled_from([0, 0, 0, 1, -1])
    values = [base(t) + data.draw(nudges) for t in points]
    expected = frac_interpolate(points, values)
    if all(c.denominator == 1 for c in expected):
        assert interpolate_at_integers(points, values) == IntPoly(int(c) for c in expected)
    else:
        with pytest.raises(IntegralityViolation):
            interpolate_at_integers(points, values)


def test_ratpoly_arithmetic():
    a = RatPoly([Fraction(1, 2), 1])
    b = RatPoly([Fraction(1, 2), -1])
    assert a + b == RatPoly([1])
    assert a * b == RatPoly([Fraction(1, 4), 0, -1])
    assert 2 * a == RatPoly([1, 2])
    assert a.truncated(0) == RatPoly([Fraction(1, 2)])
