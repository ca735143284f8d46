"""Tests for exact integer polynomials, cyclotomic factors, and the
characteristic polynomial of a period system."""

import ast
import doctest
import functools
import math
import random
from pathlib import Path

import pytest
from poly_oracle import divmod_exact, schoolbook_mul, trim, x_powmod

import persum.cyclotomic
from persum.cyclotomic import IntPolynomial, _kronecker_mul, characteristic_poly, cyclotomic_poly
from persum.numth import divisors, euler_phi
from persum.spectrum import PeriodSystem, build_spectrum


def x_power_minus_one(n):
    return [-1] + [0] * (n - 1) + [1]


@functools.lru_cache(maxsize=None)
def cascade_cyclotomic(d):
    # reference route: x^d - 1 long-divided by the cyclotomic polynomial
    # of each proper divisor in turn
    poly = x_power_minus_one(d)
    for e in divisors(d)[:-1]:
        poly, _ = divmod_exact(poly, cascade_cyclotomic(e))
    return tuple(poly)


def random_poly(rng, max_deg=12, max_abs=30):
    return trim(rng.randint(-max_abs, max_abs) for _ in range(rng.randint(0, max_deg + 1)))


def random_monic(rng, degree):
    # x^degree plus a random part of lower degree
    low = random_poly(rng, max_deg=degree - 1)
    return low + [0] * (degree - len(low)) + [1]


def test_poly_oracle_imports_nothing_from_persum():
    # an oracle that shared the package's code could drift with it
    tree = ast.parse((Path(__file__).parent / "poly_oracle.py").read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.module]
    assert not [name for name in modules if name.split(".")[0] == "persum"], modules


def test_module_doctests():
    failures, _ = doctest.testmod(persum.cyclotomic)
    assert failures == 0


def test_trailing_zeros_trimmed():
    assert IntPolynomial((1, 2, 0, 0)).coeffs == (1, 2)
    assert IntPolynomial((0, 0)).coeffs == ()


def test_degree_and_monic():
    assert IntPolynomial(()).degree == -1
    assert IntPolynomial((7,)).degree == 0
    assert IntPolynomial((0, 0, 1)).degree == 2
    assert IntPolynomial((0, 0, 1)).is_monic()
    assert not IntPolynomial((0, 0, 2)).is_monic()
    assert not IntPolynomial(()).is_monic()


def test_arithmetic_matches_pointwise_evaluation():
    # both products, the package's and the oracle's, against Horner's rule
    def evaluate(p, x):
        value = 0
        for c in reversed(p):
            value = value * x + c
        return value

    rng = random.Random(21)
    for _ in range(200):
        p = random_poly(rng)
        q = random_poly(rng)
        products = [schoolbook_mul(p, q)]
        if p and q:  # the kernel takes no zero operand
            products.append(_kronecker_mul(p, q))
        for m in products:
            for x in range(-4, 5):
                assert evaluate(m, x) == evaluate(p, x) * evaluate(q, x)


def test_product_example():
    a, b = (-1, 0, 1), (1, 1, 1)
    assert _kronecker_mul(a, b) == schoolbook_mul(a, b) == [-1, -1, 0, 1, 1]


def test_kronecker_route_matches_schoolbook():
    # the packed-integer multiply against direct convolution on signed
    # inputs, from one coefficient a side up, and with entries in -1..1 for
    # zero operands and trailing zeros
    rng = random.Random(22)
    shapes = [(rng.randint(33, 120), rng.randint(33, 120), 500) for _ in range(60)]
    shapes += [(m, n, magnitude) for m in range(1, 33) for n in (1, m, rng.randint(1, 40))
               for magnitude in (1, 500)]
    for m, n, magnitude in shapes:
        a = [rng.randint(-magnitude, magnitude) for _ in range(m)]
        b = [rng.randint(-magnitude, magnitude) for _ in range(n)]
        assert _kronecker_mul(a, b) == schoolbook_mul(a, b), (m, n, magnitude)
    # the packed route itself: from one byte per digit up to digits of many
    # bytes
    for size in range(1, 121):
        for magnitude in (1, 127, 10**30):
            a = [rng.randint(-magnitude, magnitude) for _ in range(size)]
            b = [rng.randint(-magnitude, magnitude) for _ in range(rng.randint(1, 120))]
            assert _kronecker_mul(a, b) == schoolbook_mul(a, b)
    a = [rng.randint(-10**30, 10**30) for _ in range(2000)]
    b = [rng.randint(-10**30, 10**30) for _ in range(2000)]
    assert _kronecker_mul(a, b) == schoolbook_mul(a, b)


def test_divmod_exact_examples():
    assert divmod_exact(x_power_minus_one(6), (-1, -1, 0, 1, 1)) == ([1, -1, 1], [])
    assert divmod_exact((-1, 0, 1), (-1, 1)) == ([1, 1], [])
    assert divmod_exact((0, 0, 0, 1), (0, 0, 1)) == ([0, 1], [])
    # a leading coefficient of -1: x^2 - 1 = (1 - x)(-x - 1)
    assert divmod_exact((-1, 0, 1), (1, -1)) == ([-1, -1], [])


def test_divmod_round_trips_random_products():
    rng = random.Random(23)
    for _ in range(150):
        d = random_monic(rng, 8)
        q = random_poly(rng, max_deg=8)
        quot, rem = divmod_exact(schoolbook_mul(d, q), d)
        assert rem == []
        assert quot == q


def test_divmod_requires_unit_leading_coefficient():
    with pytest.raises(ValueError, match="inexact division"):
        divmod_exact((1, 1), (1, 2))
    with pytest.raises(ValueError, match="inexact division"):
        divmod_exact((1, 1), ())


def test_nonzero_remainder():
    # x^2 + 1 = (x - 1)(x + 1) + 2
    assert divmod_exact((1, 0, 1), (1, 1)) == ([-1, 1], [2])


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
        assert f.coeffs[0] in (-1, 1)


def test_cyclotomic_product_identity():
    # the product of the d-th factors over all divisors d of n is x^n - 1
    for n in range(1, 61):
        prod = [1]
        for d in divisors(n):
            prod = schoolbook_mul(prod, cyclotomic_poly(d).coeffs)
        assert prod == x_power_minus_one(n)


def test_cyclotomic_105_has_coefficient_minus_two():
    # first index where a coefficient leaves {-1, 0, 1}
    assert -2 in cyclotomic_poly(105).coeffs
    for d in range(1, 105):
        assert set(cyclotomic_poly(d).coeffs) <= {-1, 0, 1}


def test_cyclotomic_matches_division_cascade():
    for d in range(1, 301):
        assert cyclotomic_poly(d).coeffs == cascade_cyclotomic(d)


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
                expect = schoolbook_mul(expect, cascade_cyclotomic(d))
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
        quot, rem = divmod_exact(x_power_minus_one(n), p.coeffs)
        assert rem == []
        assert schoolbook_mul(quot, p.coeffs) == x_power_minus_one(n)


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
        mod = random_monic(rng, 6)
        e = rng.randint(0, 40)
        _, expect = divmod_exact([0] * e + [1], mod)
        assert x_powmod(e, mod) == expect


def test_poly_powmod_detects_full_period():
    # x^N == 1 modulo the characteristic polynomial, N the common period,
    # and at no smaller positive exponent
    for periods in ((2, 3), (4, 6), (5,), (6, 10, 15)):
        ps = PeriodSystem(periods)
        n = math.lcm(*periods)
        p = characteristic_poly(ps)
        assert x_powmod(n, p.coeffs) == [1]
        for e in range(1, n):
            assert x_powmod(e, p.coeffs) != [1]


def test_poly_powmod_zero_exponent():
    assert x_powmod(0, (1, 1)) == [1]
    with pytest.raises(ValueError, match="nonnegative"):
        x_powmod(-1, (1, 1))


def test_polynomials_are_hashable_value_objects():
    a = IntPolynomial((1, 2, 3))
    b = IntPolynomial([1, 2, 3])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
