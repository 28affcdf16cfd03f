"""Exact univariate polynomials over Q.

These carry the coefficients of translated Betti table families: everything is
a polynomial in the power exponent k, stored constant term first, and all
arithmetic is exact. A polynomial keeps integer numerators over one positive
denominator, so its arithmetic runs on Python ints with one gcd per result;
its coefficients and values read out as ``fractions.Fraction``s.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Sequence


def _rational(value) -> int | Fraction:
    """An exact rational as an int or a Fraction, reading a string as a
    Fraction; anything else, a bool included, raises TypeError."""
    if isinstance(value, (int, Fraction)) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


def _over_lcm(values: Sequence) -> tuple[list[int], int]:
    """The numerators of exact rationals (as ``_rational`` reads them) over
    their least common denominator, and that denominator."""
    qs = [_rational(v) for v in values]
    den = math.lcm(*(q.denominator for q in qs))
    return [q.numerator * (den // q.denominator) for q in qs], den


@dataclass(frozen=True, init=False)
class PolynomialQ:
    """Polynomial in one variable with rational coefficients, constant first.

    ``PolynomialQ(coefficients)`` takes ints, Fractions or decimal strings;
    ``coefficients`` gives them back as Fractions, with no trailing zero, so
    the zero polynomial has none. They are stored as ``numerators`` over one
    positive ``denominator`` in lowest terms, so equal polynomials compare and
    hash equal. Instances are immutable and hashable.
    """

    numerators: tuple[int, ...]
    denominator: int

    def __new__(cls, coefficients: Sequence = ()):
        return _reduced(*_over_lcm(coefficients))

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(n, self.denominator) for n in self.numerators)

    def __bool__(self) -> bool:
        return bool(self.numerators)

    def degree(self) -> int:
        """Degree, with -1 for the zero polynomial."""
        return len(self.numerators) - 1

    def __call__(self, point) -> Fraction:
        """The value at p/q, by Horner's rule on the numerators scaled by q^degree."""
        x = _rational(point)
        p, q = x.numerator, x.denominator
        value, scale = 0, 1
        for n in reversed(self.numerators):
            value, scale = value * p + n * scale, scale * q
        return Fraction(value * q, self.denominator * scale)

    def _plus(self, other, sign: int):
        """self + sign * other over the lcm of the two denominators."""
        if not isinstance(other, PolynomialQ):
            return NotImplemented
        g = math.gcd(self.denominator, other.denominator)
        mine, theirs = other.denominator // g, sign * (self.denominator // g)
        pairs = zip_longest(self.numerators, other.numerators, fillvalue=0)
        return _reduced([m * mine + n * theirs for m, n in pairs], self.denominator * mine)

    def __add__(self, other) -> PolynomialQ:
        return self._plus(other, 1)

    def __sub__(self, other) -> PolynomialQ:
        return self._plus(other, -1)

    def __neg__(self) -> PolynomialQ:
        return _reduced([-n for n in self.numerators], self.denominator)

    def __mul__(self, other) -> PolynomialQ:
        if isinstance(other, PolynomialQ):
            out = [0] * (len(self.numerators) + len(other.numerators) - 1)
            for m, a in enumerate(self.numerators):
                for p, b in enumerate(other.numerators):
                    out[m + p] += a * b
            return _reduced(out, self.denominator * other.denominator)
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        q = _rational(other)
        return _reduced([n * q.numerator for n in self.numerators], self.denominator * q.denominator)

    __rmul__ = __mul__

    def __truediv__(self, other) -> PolynomialQ:
        """Division by a nonzero int."""
        if not isinstance(other, int):
            return NotImplemented
        if not _rational(other):
            raise ZeroDivisionError("polynomial division by zero")
        return _reduced([n if other > 0 else -n for n in self.numerators], self.denominator * abs(other))

    def text(self) -> str:
        """Human-readable form in ascending degree, e.g. ``2*k - 3*k^2 + k^3``."""
        if not self:
            return "0"
        parts: list[str] = []
        for m, n in enumerate(self.numerators):
            if not n:
                continue
            g = math.gcd(n, self.denominator)
            mag = str(abs(n) // g) if g == self.denominator else f"{abs(n) // g}/{self.denominator // g}"
            if m == 0:
                body = mag
            else:
                power = "k" if m == 1 else f"k^{m}"
                body = power if mag == "1" else f"{mag}*{power}"
            if not parts:
                parts.append(body if n > 0 else f"-{body}")
            else:
                parts.append(f"+ {body}" if n > 0 else f"- {body}")
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"PolynomialQ({self.text()})"


def _reduced(numerators: list[int], denominator: int) -> PolynomialQ:
    """The polynomial with these numerators over ``denominator`` > 0, with
    trailing zeros dropped and one gcd taken out."""
    while numerators and not numerators[-1]:
        numerators.pop()
    g = math.gcd(denominator, *numerators)
    poly = object.__new__(PolynomialQ)
    object.__setattr__(poly, "numerators", tuple([n // g for n in numerators] if g > 1 else numerators))
    object.__setattr__(poly, "denominator", denominator // g)
    return poly


def interpolate_consecutive(start: int, values: Sequence) -> PolynomialQ:
    """Unique polynomial of degree < len(values) through (start+t, values[t]).

    Newton forward differences on the integer grid; exact, no pivoting needed.
    The differences are taken on the values' numerators over their common
    denominator.
    """
    row, den = _over_lcm(values)
    if not row:
        raise ValueError("need at least one sample")
    deltas: list[int] = []
    while row:
        deltas.append(row[0])
        row = [b - a for a, b in zip(row, row[1:])]
    # den * p(x) = sum_m deltas[m] * binom(x - start, m)
    result = PolynomialQ()
    binom = PolynomialQ((1,))
    for m, d in enumerate(deltas):
        if m > 0:
            binom = binom * PolynomialQ((-(start + m - 1), 1)) / m
        if d:
            result = result + binom * d
    return result / den


def cauchy_threshold(p: PolynomialQ) -> int:
    """Integer T >= 0 with no real root of p beyond T.

    For every integer k > T the sign of p(k) equals the sign of the leading
    coefficient (Cauchy root bound, floored). Constants and zero get T = 0.
    """
    if p.degree() <= 0:
        return 0
    *rest, lead = p.numerators
    return 1 + max(map(abs, rest)) // abs(lead)


_WALK_LIMIT = 4096  # refinement steps; any early stop still returns a sound bound


def sign_threshold(p: PolynomialQ) -> int:
    """Least integer T >= 0 (best effort) with sign(p(k)) fixed for all k > T.

    The Cauchy bound certifies everything beyond it; the integers below are
    then checked one by one, so the certificate stays exact while the
    threshold drops to where the sign actually settles. The downward walk is
    capped, which can only leave the threshold larger than necessary.
    """
    if p.degree() <= 0:
        return 0
    positive = p.numerators[-1] > 0
    t = cauchy_threshold(p)
    for _ in range(_WALK_LIMIT):
        if t == 0:
            break
        value = 0  # p(t) times the denominator
        for n in reversed(p.numerators):
            value = value * t + n
        if value == 0 or (value > 0) != positive:
            break
        t -= 1
    return t


def eventually_positive(p: PolynomialQ) -> bool:
    return bool(p) and p.numerators[-1] > 0


def eventually_nonnegative(p: PolynomialQ) -> bool:
    return not p or p.numerators[-1] > 0


def eventual_min(polys: Sequence[PolynomialQ]) -> tuple[int, int]:
    """Index of the eventually smallest polynomial, with a sign-change bound.

    Returns ``(index, threshold)``: for every integer k > threshold,
    ``polys[index](k) <= polys[j](k)`` for all j. Ties between identical
    polynomials go to the lowest index. The threshold covers every pairwise
    comparison (no difference changes sign beyond it, by the Cauchy bound),
    so it certifies the whole family at once.
    """
    if not polys:
        raise ValueError("need at least one polynomial")
    best = 0
    for j in range(1, len(polys)):
        diff = polys[j] - polys[best]
        if diff and diff.numerators[-1] < 0:
            best = j
    threshold = 0
    for a in range(len(polys)):
        for b in range(a + 1, len(polys)):
            threshold = max(threshold, sign_threshold(polys[a] - polys[b]))
    return best, threshold
