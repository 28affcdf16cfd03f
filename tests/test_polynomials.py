import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bsdecomp import (
    PolynomialQ,
    cauchy_threshold,
    eventual_min,
    eventually_nonnegative,
    eventually_positive,
    interpolate_consecutive,
    sign_threshold,
)
from oracles import (
    ref_add,
    ref_cauchy_threshold,
    ref_mul,
    ref_poly,
    ref_scale,
    ref_sign_threshold,
    ref_value,
)


def poly(*coeffs):
    return PolynomialQ(tuple(Fraction(c) for c in coeffs))


def test_zero_normalization():
    assert not PolynomialQ(())
    assert not poly(0, 0, 0)
    assert poly(1, 2, 0, 0).coefficients == (1, 2)
    assert poly(0, 0, 3).degree() == 2


def test_arithmetic_small():
    p = poly(1, 2)       # 1 + 2k
    q = poly(0, 0, 1)    # k^2
    assert (p + q).coefficients == (1, 2, 1)
    assert (p - p).degree() == -1
    assert (p * q).coefficients == (0, 0, 1, 2)
    assert (p * Fraction(1, 2)).coefficients == (Fraction(1, 2), 1)
    assert (3 * p).coefficients == (3, 6)
    assert (-p).coefficients == (-1, -2)


def test_evaluation_horner():
    p = poly(0, 2, -3, 1)  # k^3 - 3k^2 + 2k
    assert p(0) == 0
    assert p(1) == 0
    assert p(2) == 0
    assert p(3) == 6
    assert p(Fraction(1, 2)) == Fraction(3, 8)


def test_arithmetic_matches_evaluation_random():
    rng = random.Random(20240817)
    for _ in range(200):
        a = poly(*[rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
        b = poly(*[rng.randint(-6, 6) for _ in range(rng.randint(0, 5))])
        for k in range(-3, 4):
            assert (a + b)(k) == a(k) + b(k)
            assert (a - b)(k) == a(k) - b(k)
            assert (a * b)(k) == a(k) * b(k)


def test_text_forms():
    assert poly().text() == "0"
    assert poly(1).text() == "1"
    assert poly(0, 2, -3, 1).text() == "2*k - 3*k^2 + k^3"
    assert poly(-4, -4).text() == "-4 - 4*k"
    assert poly(1, "11/6", 1, "1/6").text() == "1 + 11/6*k + k^2 + 1/6*k^3"


def test_interpolation_recovers_random_polynomials():
    rng = random.Random(7)
    for _ in range(100):
        degree = rng.randint(0, 4)
        target = poly(*[Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(degree + 1)])
        start = rng.randint(-5, 5)
        samples = [target(start + t) for t in range(degree + 1 + rng.randint(0, 3))]
        assert interpolate_consecutive(start, samples[: degree + 1]) == target


def test_interpolation_exact_on_values():
    values = [Fraction(3), Fraction(5), Fraction(9), Fraction(15)]
    p = interpolate_consecutive(2, values)
    for t, v in enumerate(values):
        assert p(2 + t) == v
    assert p.degree() <= len(values) - 1


def test_interpolation_empty_rejected():
    with pytest.raises(ValueError):
        interpolate_consecutive(0, [])


def test_cauchy_threshold_bounds_roots():
    p = poly(0, 2, -3, 1)  # roots 0, 1, 2
    t = cauchy_threshold(p)
    assert t >= 2
    assert sign_threshold(p) == 2
    assert cauchy_threshold(poly(5)) == 0
    assert cauchy_threshold(poly()) == 0


def test_sign_threshold_certifies():
    rng = random.Random(99)
    for _ in range(100):
        p = poly(*[rng.randint(-8, 8) for _ in range(rng.randint(1, 5))])
        if not p:
            continue
        t = sign_threshold(p)
        lead_positive = p.coefficients[-1] > 0
        for k in range(t + 1, t + 30):
            value = p(k)
            assert value != 0
            assert (value > 0) == lead_positive


def test_sign_threshold_is_tight_for_known_roots():
    # (k-10)(k-3) has its last root at 10
    p = poly(30, -13, 1)
    assert sign_threshold(p) == 10
    assert sign_threshold(poly(10, -1)) == 10  # 10 - k, negative beyond 10


def test_eventual_sign_predicates():
    assert eventually_positive(poly(0, 1))
    assert not eventually_positive(poly())
    assert not eventually_positive(poly(5, -1))
    assert eventually_nonnegative(poly())
    assert eventually_nonnegative(poly(-100, 1))
    assert not eventually_nonnegative(poly(100, -1))


def test_eventual_min_examples():
    index, threshold = eventual_min([poly(10, 1), poly(0, 2)])
    assert index == 0
    assert threshold >= 10
    assert eventual_min([poly(3), poly(3)]) == (0, 0)
    index, _ = eventual_min([poly(0, 0, 1), poly(0, 5)])
    assert index == 1


def test_eventual_min_certificate_sampled():
    rng = random.Random(41)
    for _ in range(60):
        polys = [
            poly(*[rng.randint(-5, 5) for _ in range(rng.randint(1, 4))])
            for _ in range(rng.randint(1, 5))
        ]
        index, threshold = eventual_min(polys)
        for k in range(threshold + 1, threshold + 51):
            best = polys[index](k)
            assert all(best <= q(k) for q in polys)


def test_eventual_min_tie_breaks_to_lowest_index():
    a = poly(0, 1)
    b = poly(0, 1)
    c = poly(1, 1)
    assert eventual_min([a, b, c])[0] == 0
    assert eventual_min([c, a, b])[0] == 1


def test_eventual_min_rejects_empty():
    with pytest.raises(ValueError):
        eventual_min([])


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=12)
COEFFICIENTS = st.lists(RATIONALS, max_size=5)
NONZERO_INTS = st.integers(-30, 30).filter(bool)


def assert_canonical(p: PolynomialQ) -> None:
    """Lowest terms over a positive denominator, with no trailing zero."""
    assert p.denominator > 0
    assert math.gcd(p.denominator, *p.numerators) == 1
    assert not p.numerators or p.numerators[-1] != 0
    assert all(type(n) is int for n in (*p.numerators, p.denominator))


def assert_is(p: PolynomialQ, reference: list[Fraction]) -> None:
    assert_canonical(p)
    assert list(p.coefficients) == reference
    assert p == PolynomialQ(reference)
    assert hash(p) == hash(PolynomialQ(reference))


@settings(max_examples=300)
@given(COEFFICIENTS, COEFFICIENTS, st.one_of(st.integers(-30, 30), RATIONALS), NONZERO_INTS, st.integers(-8, 8), RATIONALS)
def test_integer_kernel_matches_fraction_reference(a, b, factor, divisor, k, x):
    p, q = PolynomialQ(a), PolynomialQ(b)
    ra, rb = ref_poly(a), ref_poly(b)
    assert_is(p, ra)
    assert_is(p + q, ref_add(ra, rb))
    assert_is(p - q, ref_add(ra, ref_scale(rb, -1)))
    assert_is(-p, ref_scale(ra, -1))
    assert_is(p * q, ref_mul(ra, rb))
    assert_is(p * factor, ref_scale(ra, factor))
    assert_is(factor * p, ref_scale(ra, factor))
    assert_is(p / divisor, ref_scale(ra, Fraction(1, divisor)))
    assert p(k) == ref_value(ra, k) and type(p(k)) is Fraction
    assert p(x) == ref_value(ra, x)
    assert p.degree() == len(ra) - 1
    assert cauchy_threshold(p) == ref_cauchy_threshold(ra)
    assert sign_threshold(p) == ref_sign_threshold(ra)


def test_one_canonical_form_per_value():
    half = [PolynomialQ((Fraction(1, 2), 0)), PolynomialQ(("2/4",)), PolynomialQ((Fraction(3, 6),))]
    assert len(set(half)) == 1 and half[0] == half[1] == half[2]
    assert (half[0].numerators, half[0].denominator) == ((1,), 2)
    p = poly(1, "-2/3", "5/6")
    zeros = [PolynomialQ(()), PolynomialQ((0, 0)), p - p]
    assert len(set(zeros)) == 1 and zeros[0] == zeros[1] == zeros[2]
    assert (zeros[0].numerators, zeros[0].denominator) == ((), 1)
    assert not zeros[2] and zeros[2].coefficients == ()


def test_attributes_cannot_be_assigned():
    p = poly(1, 2)
    for name, value in [("numerators", (3,)), ("denominator", 2), ("coefficients", ()), ("other", 1)]:
        with pytest.raises(AttributeError):
            setattr(p, name, value)
    assert p == poly(1, 2)


def test_adding_or_subtracting_a_number_raises_type_error():
    p = poly(1, 2)
    for operation in (lambda: p + 1, lambda: p - 1, lambda: 1 + p, lambda: 1 - p, lambda: p + Fraction(1, 2)):
        with pytest.raises(TypeError):
            operation()


def test_multiplying_by_a_boolean_raises_type_error():
    with pytest.raises(TypeError):
        poly(1, 2) * True


def test_evaluating_at_a_boolean_raises_type_error():
    with pytest.raises(TypeError):
        poly(1, 2)(True)


def test_boolean_coefficient_raises_type_error():
    with pytest.raises(TypeError):
        PolynomialQ((True,))


def test_division_takes_only_a_nonzero_int():
    p = poly(3, 6)
    assert p / -3 == poly(-1, -2)
    with pytest.raises(ZeroDivisionError):
        p / 0
    for divisor in (True, Fraction(1, 2), 2.0, "2", p):
        with pytest.raises(TypeError):
            p / divisor
