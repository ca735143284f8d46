"""Tests for the small number-theory helpers."""

import itertools
import math
import random

import pytest

from persum.numth import check_positive, divisors, euler_phi, gcd_exponents, lcm_all, strict_int


def phi_by_count(n):
    # independent oracle: count coprime residues directly
    return sum(1 for r in range(1, n + 1) if math.gcd(r, n) == 1)


def divisors_by_scan(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def test_check_positive_accepts_positive_ints():
    for n in (1, 2, 17, 10**9):
        check_positive(n, "period")


def test_check_positive_rejects_bad_values():
    for bad in (0, -1, -100):
        with pytest.raises(ValueError):
            check_positive(bad, "period")
    for bad in (1.5, "3", None, True):
        with pytest.raises((TypeError, ValueError)):
            check_positive(bad, "period")


def test_strict_int_accepts_ascii_decimals_and_json_ints():
    assert strict_int("0") == strict_int("-0") == strict_int(0) == 0
    assert strict_int("-45") == strict_int(-45) == -45
    assert strict_int("9" * 60) == 10**60 - 1


@pytest.mark.parametrize(
    "bad",
    ["", "-", "--1", "+1", " 1", "1 ", "1\n", "1_0", "1.0", "0x1", "\u0663", "-\u0663",
     "\u00b2", 1.0, True, False, None, [1]],
)
def test_strict_int_refuses_everything_else(bad):
    with pytest.raises(ValueError, match="not an integer"):
        strict_int(bad)


def test_gcd_examples():
    assert math.gcd(12, 18) == 6
    assert math.gcd(7, 13) == 1
    assert math.gcd(5, 5) == 5


def test_gcd_lcm_product_identity():
    rng = random.Random(1)
    for _ in range(300):
        a = rng.randint(1, 1000)
        b = rng.randint(1, 1000)
        assert math.gcd(a, b) * lcm_all([a, b]) == a * b


def gcd_exponents_by_subsets(values):
    # independent oracle: walk all 2**k - 1 subsets
    exps = {}
    for size in range(1, len(values) + 1):
        for subset in itertools.combinations(values, size):
            g = math.gcd(*subset)
            exps[g] = exps.get(g, 0) + (1 if size % 2 else -1)
    return {g: e for g, e in exps.items() if e}


def test_gcd_exponents_examples():
    assert gcd_exponents([]) == {}
    assert gcd_exponents([6]) == {6: 1}
    assert gcd_exponents([2, 3]) == {2: 1, 3: 1, 1: -1}
    assert gcd_exponents([2, 2, 2]) == {2: 1}
    assert gcd_exponents([1, 2, 3, 6]) == {6: 1}


def test_gcd_exponents_against_subsets():
    # repeats and divisor chains, explicit and drawn from the divisors of 360,
    # cancel whole groups of subsets, so their exponents must still match
    rng = random.Random(3)
    explicit = [[4, 4, 2, 8], [6, 6, 3], [12, 6, 6, 3, 1], [9, 27, 3, 9, 3], [5, 5, 5, 5]]
    drawn = [[rng.randint(1, 60) for _ in range(rng.randint(1, 8))] for _ in range(200)]
    chains = [[rng.choice(divisors(360)) for _ in range(rng.randint(1, 8))] for _ in range(100)]
    for values in explicit + drawn + chains:
        exps = gcd_exponents(values)
        assert exps == gcd_exponents_by_subsets(values), values
        assert 0 not in exps.values(), values


def test_lcm_examples():
    assert lcm_all([2, 3]) == 6
    assert lcm_all([4, 6]) == 12
    assert lcm_all([1]) == 1
    assert lcm_all([2, 3, 4, 5, 6]) == 60


def test_lcm_empty_rejected():
    with pytest.raises(ValueError):
        lcm_all([])


def test_lcm_divisibility():
    rng = random.Random(2)
    for _ in range(200):
        values = [rng.randint(1, 40) for _ in range(rng.randint(1, 6))]
        m = lcm_all(values)
        assert all(m % v == 0 for v in values)
        # minimality: no proper divisor of m works
        for d in divisors(m):
            if d < m:
                assert any(d % v != 0 for v in values)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(2) == 1
    assert euler_phi(6) == 2
    assert euler_phi(12) == 4
    assert euler_phi(97) == 96


def test_euler_phi_against_count():
    for n in range(1, 200):
        assert euler_phi(n) == phi_by_count(n)


def test_euler_phi_divisor_sum():
    # sum of phi(d) over divisors d of n equals n
    for n in range(1, 101):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_divisors_examples():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(13) == [1, 13]


def test_divisors_against_scan():
    for n in range(1, 300):
        got = divisors(n)
        assert got == divisors_by_scan(n)
        assert got[0] == 1 and got[-1] == n
        assert got == sorted(got)
