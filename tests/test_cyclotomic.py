"""Tests for exact integer polynomials, cyclotomic factors, and the
characteristic polynomial of a period system."""

import doctest
import functools
import math
import random

import pytest

import persum.cyclotomic
from persum.cyclotomic import (
    ONE,
    X,
    IntPolynomial,
    characteristic_poly,
    cyclotomic_poly,
    poly_powmod,
    x_power_minus_one,
)
from persum.numth import divisors, euler_phi
from persum.spectrum import PeriodSystem, build_spectrum


def schoolbook_mul(a, b):
    # independent convolution oracle
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


@functools.lru_cache(maxsize=None)
def cascade_cyclotomic(d):
    # reference route: x^d - 1 long-divided by the cyclotomic polynomial
    # of each proper divisor in turn
    poly = x_power_minus_one(d)
    for e in divisors(d)[:-1]:
        poly, _ = poly.divmod_exact(cascade_cyclotomic(e))
    return poly


def random_poly(rng, max_deg=12, max_abs=30):
    return IntPolynomial(
        tuple(rng.randint(-max_abs, max_abs) for _ in range(rng.randint(0, max_deg + 1)))
    )


def test_module_doctests():
    failures, _ = doctest.testmod(persum.cyclotomic)
    assert failures == 0


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()
    assert IntPolynomial(()).is_zero()


def test_degree_and_monic():
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((7,)).degree == 0
    assert IntPolynomial((0, 0, 1)).degree == 2
    assert IntPolynomial((0, 0, 1)).is_monic()
    assert not IntPolynomial((0, 0, 2)).is_monic()
    assert not IntPolynomial(()).is_monic()


def test_coeff_out_of_range_is_zero():
    p = IntPolynomial((3, 5))
    assert p.coeff(0) == 3
    assert p.coeff(1) == 5
    assert p.coeff(2) == 0
    assert p.coeff(99) == 0


def test_evaluate():
    p = IntPolynomial((-1, 0, 1))  # x^2 - 1
    assert p.evaluate(0) == -1
    assert p.evaluate(1) == 0
    assert p.evaluate(-3) == 8
    assert IntPolynomial(()).evaluate(5) == 0


def test_arithmetic_matches_pointwise_evaluation():
    rng = random.Random(21)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        s = p + q
        d = p - q
        m = p * q
        for x in range(-4, 5):
            assert s.evaluate(x) == p.evaluate(x) + q.evaluate(x)
            assert d.evaluate(x) == p.evaluate(x) - q.evaluate(x)
            assert m.evaluate(x) == p.evaluate(x) * q.evaluate(x)


def test_product_example():
    got = IntPolynomial((-1, 0, 1)) * IntPolynomial((1, 1, 1))
    assert got == IntPolynomial((-1, -1, 0, 1, 1))


def test_scalar_multiplication():
    p = IntPolynomial((1, -2, 3))
    assert 2 * p == IntPolynomial((2, -4, 6))
    assert p * -1 == -p
    assert 0 * p == IntPolynomial(())


def test_multiplication_by_zero():
    p = IntPolynomial((4, 5))
    z = IntPolynomial(())
    assert (p * z).is_zero()
    assert (z * p).is_zero()


def test_kronecker_route_matches_schoolbook():
    # large operands go through the packed-integer multiply; check it
    # against direct convolution on signed inputs
    rng = random.Random(22)
    for _ in range(60):
        a = [rng.randint(-500, 500) for _ in range(rng.randint(33, 120))]
        b = [rng.randint(-500, 500) for _ in range(rng.randint(33, 120))]
        got = IntPolynomial(tuple(a)) * IntPolynomial(tuple(b))
        expect = IntPolynomial(tuple(schoolbook_mul(a, b)))
        assert got == expect


def test_divmod_exact_examples():
    q, r = x_power_minus_one(6).divmod_exact(IntPolynomial((-1, -1, 0, 1, 1)))
    assert q == IntPolynomial((1, -1, 1))
    assert r.is_zero()
    q, r = IntPolynomial((-1, 0, 1)).divmod_exact(IntPolynomial((-1, 1)))
    assert q == IntPolynomial((1, 1))
    assert r.is_zero()
    q, r = IntPolynomial((0, 0, 0, 1)).divmod_exact(IntPolynomial((0, 0, 1)))
    assert q == X
    assert r.is_zero()


def test_divmod_round_trips_random_products():
    rng = random.Random(23)
    for _ in range(150):
        # monic divisor of degree 8: random low-order part plus x^8
        d = random_poly(rng, max_deg=7) + x_power_minus_one(8) + ONE
        q = random_poly(rng, max_deg=8)
        prod = d * q
        quot, rem = prod.divmod_exact(d)
        assert rem.is_zero()
        assert quot == q


def test_divmod_requires_unit_leading_coefficient():
    with pytest.raises(ValueError, match="inexact division"):
        IntPolynomial((1, 1)).divmod_exact(IntPolynomial((1, 2)))
    with pytest.raises(ValueError, match="inexact division"):
        IntPolynomial((1, 1)).divmod_exact(IntPolynomial(()))


def test_nonzero_remainder():
    q, r = IntPolynomial((1, 0, 1)).divmod_exact(IntPolynomial((1, 1)))
    # x^2 + 1 = (x - 1)(x + 1) + 2
    assert q == IntPolynomial((-1, 1))
    assert r == IntPolynomial((2,))


def test_str_rendering():
    assert str(IntPolynomial((-1, -1, 0, 1, 1))) == "x^4 + x^3 - x - 1"
    assert str(IntPolynomial((1, -1, 1))) == "x^2 - x + 1"
    assert str(IntPolynomial(())) == "0"
    assert str(ONE) == "1"
    assert str(X) == "x"
    assert str(IntPolynomial((-3,))) == "-3"


def test_x_power_minus_one():
    assert x_power_minus_one(1) == IntPolynomial((-1, 1))
    assert x_power_minus_one(6).coeffs == (-1, 0, 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        x_power_minus_one(0)


def test_cyclotomic_examples():
    assert cyclotomic_poly(1) == IntPolynomial((-1, 1))
    assert cyclotomic_poly(2) == IntPolynomial((1, 1))
    assert cyclotomic_poly(3) == IntPolynomial((1, 1, 1))
    assert cyclotomic_poly(4) == IntPolynomial((1, 0, 1))
    assert cyclotomic_poly(6) == IntPolynomial((1, -1, 1))
    assert cyclotomic_poly(12) == IntPolynomial((1, 0, -1, 0, 1))


def test_cyclotomic_prime_is_all_ones():
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97):
        assert cyclotomic_poly(p) == IntPolynomial((1,) * p)


def test_cyclotomic_degree_is_phi():
    for d in range(1, 150):
        assert cyclotomic_poly(d).degree == euler_phi(d)


def test_cyclotomic_is_monic_with_unit_constant():
    for d in range(2, 150):
        f = cyclotomic_poly(d)
        assert f.is_monic()
        assert f.coeff(0) in (-1, 1)


def test_cyclotomic_product_identity():
    # the product of the d-th factors over all divisors d of n is x^n - 1
    for n in range(1, 61):
        prod = ONE
        for d in divisors(n):
            prod = prod * cyclotomic_poly(d)
        assert prod == x_power_minus_one(n)


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient leaves {-1, 0, 1}
    assert -2 in cyclotomic_poly(105).coeffs
    for d in range(1, 105):
        assert set(cyclotomic_poly(d).coeffs) <= {-1, 0, 1}


def test_cyclotomic_matches_division_cascade():
    for d in range(1, 301):
        assert cyclotomic_poly(d) == cascade_cyclotomic(d)


def test_cyclotomic_30030_is_monic_of_degree_phi():
    f = cyclotomic_poly(30030)
    assert f.is_monic()
    assert f.degree == 5760 == euler_phi(30030)


def test_characteristic_poly_is_schoolbook_product_over_closure():
    rng = random.Random(27)
    for _ in range(100):
        ps = PeriodSystem(tuple(rng.randint(1, 60) for _ in range(rng.randint(1, 6))))
        expect = [1]
        for d in range(1, max(ps.periods) + 1):
            if any(n % d == 0 for n in ps.periods):
                expect = schoolbook_mul(expect, cascade_cyclotomic(d).coeffs)
        assert characteristic_poly(ps).coeffs == tuple(expect)


def test_characteristic_poly_depends_on_the_divisor_closure_alone():
    rng = random.Random(28)
    for _ in range(100):
        ps = PeriodSystem(tuple(rng.randint(1, 60) for _ in range(rng.randint(1, 5))))
        assert characteristic_poly(ps) == characteristic_poly(PeriodSystem(ps.divisor_closure))


def test_characteristic_poly_examples():
    assert characteristic_poly(PeriodSystem((2, 3))) == IntPolynomial((-1, -1, 0, 1, 1))
    assert characteristic_poly(PeriodSystem((2,))) == IntPolynomial((-1, 0, 1))
    assert characteristic_poly(PeriodSystem((1,))) == IntPolynomial((-1, 1))


def test_characteristic_poly_monic_of_spectrum_degree():
    rng = random.Random(24)
    for _ in range(80):
        ps = PeriodSystem(tuple(rng.randint(1, 18) for _ in range(rng.randint(1, 4))))
        p = characteristic_poly(ps)
        assert p.is_monic()
        assert p.degree == len(build_spectrum(ps))


def test_characteristic_poly_divides_common_period_polynomial():
    rng = random.Random(25)
    for _ in range(60):
        ps = PeriodSystem(tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3))))
        p = characteristic_poly(ps)
        n = math.lcm(*ps.periods)
        quot, rem = x_power_minus_one(n).divmod_exact(p)
        assert rem.is_zero()
        assert quot * p == x_power_minus_one(n)


def test_characteristic_poly_roots_are_spectrum_values():
    # over the complex numbers: p(e^(2*pi*i*f)) == 0 exactly for f in the
    # spectrum; check numerically at modest size
    import cmath
    from fractions import Fraction

    ps = PeriodSystem((4, 6))
    sp = build_spectrum(ps)
    p = characteristic_poly(ps)
    for num in range(ps.modulus):
        z = cmath.exp(2j * cmath.pi * num / ps.modulus)
        val = sum(c * z**i for i, c in enumerate(p.coeffs))
        is_root = Fraction(num, ps.modulus) in sp.elements
        assert (abs(val) < 1e-9) == is_root


def test_poly_powmod_matches_direct_remainder():
    rng = random.Random(26)
    for _ in range(100):
        mod = random_poly(rng, max_deg=5) + x_power_minus_one(6) + ONE
        e = rng.randint(0, 40)
        got = poly_powmod(X, e, mod)
        direct = ONE
        for _ in range(e):
            direct = direct * X
        _, expect = direct.divmod_exact(mod)
        assert got == expect


def test_poly_powmod_detects_full_period():
    # x^N == 1 modulo the characteristic polynomial, N the common period,
    # and at no smaller positive exponent
    for periods in ((2, 3), (4, 6), (5,), (6, 10, 15)):
        ps = PeriodSystem(periods)
        n = math.lcm(*periods)
        p = characteristic_poly(ps)
        assert poly_powmod(X, n, p) == ONE
        for e in range(1, n):
            assert poly_powmod(X, e, p) != ONE


def test_poly_powmod_zero_exponent():
    assert poly_powmod(X, 0, IntPolynomial((1, 1))) == ONE


def test_polynomials_are_hashable_value_objects():
    a = IntPolynomial((1, 2, 3))
    b = IntPolynomial([1, 2, 3])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
