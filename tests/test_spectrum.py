"""Tests for period systems and their fraction spectra."""

import functools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum.numth import divisors
from persum.spectrum import (
    PeriodSystem,
    Spectrum,
    build_spectrum,
    fraction_str,
    parse_fraction,
    size_by_inclusion_exclusion,
    size_by_phi,
)


def brute_spectrum_pairs(periods):
    # independent oracle: reduce r/n by hand, sort by cross-multiplication
    seen = set()
    for n in periods:
        for r in range(n):
            g = math.gcd(r, n)
            seen.add((r // g, n // g))

    def cmp(p, q):
        lhs = p[0] * q[1]
        rhs = q[0] * p[1]
        return (lhs > rhs) - (lhs < rhs)

    return sorted(seen, key=functools.cmp_to_key(cmp))


def random_system(rng, max_k=5, max_n=30):
    k = rng.randint(1, max_k)
    return PeriodSystem(tuple(rng.randint(1, max_n) for _ in range(k)))


def test_period_system_normalizes_to_tuple():
    ps = PeriodSystem([3, 2])
    assert ps.periods == (3, 2)
    assert len(ps) == 2


def test_period_system_rejects_bad_input():
    with pytest.raises(ValueError):
        PeriodSystem(())
    with pytest.raises(ValueError):
        PeriodSystem((2, 0))
    with pytest.raises((TypeError, ValueError)):
        PeriodSystem((2, 2.5))


def test_spectrum_2_3():
    ps = PeriodSystem((2, 3))
    sp = build_spectrum(ps)
    assert sp.elements == (
        Fraction(0, 1),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
    )
    assert ps.modulus == 6
    assert ps.divisor_closure == (1, 2, 3)
    assert len(sp) == 4


def test_spectrum_singleton():
    ps = PeriodSystem((1,))
    sp = build_spectrum(ps)
    assert sp.elements == (Fraction(0, 1),)
    assert ps.modulus == 1
    assert ps.divisor_closure == (1,)


def test_spectrum_4_6():
    ps = PeriodSystem((4, 6))
    sp = build_spectrum(ps)
    assert len(sp) == 8
    assert ps.modulus == 12
    assert ps.divisor_closure == (1, 2, 3, 4, 6)


def test_spectrum_matches_brute_force():
    rng = random.Random(11)
    for _ in range(150):
        ps = random_system(rng, max_k=4, max_n=20)
        sp = build_spectrum(ps)
        expect = brute_spectrum_pairs(ps.periods)
        got = [(f.numerator, f.denominator) for f in sp.elements]
        assert got == expect


@st.composite
def period_systems(draw):
    """At most 4 periods up to 60, often with a divisor chain below the
    first period or a repeated period, in any order."""
    periods = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    n = periods[0]
    while len(periods) < 4 and draw(st.booleans()):
        n = draw(st.sampled_from(divisors(n)))
        periods.append(n)
    if len(periods) < 4 and draw(st.booleans()):
        periods.append(draw(st.sampled_from(periods)))
    return PeriodSystem(tuple(draw(st.permutations(periods))))


@settings(derandomize=True, deadline=None, database=None)
@given(period_systems())
def test_spectrum_matches_the_fraction_set(ps):
    # independent oracle: every r/m as a Fraction, merged and sorted
    expect = sorted({Fraction(r, m) for m in ps.periods for r in range(m)})
    sp = build_spectrum(ps)
    assert sp.labels() == [fraction_str(q) for q in expect]
    assert sp.elements == tuple(expect)
    assert len(sp) == size_by_phi(ps)


def test_spectrum_elements_are_reduced_and_sorted():
    rng = random.Random(12)
    for _ in range(100):
        sp = build_spectrum(random_system(rng))
        for f in sp.elements:
            assert 0 <= f < 1
            assert math.gcd(f.numerator, f.denominator) == 1
        assert list(sp.elements) == sorted(sp.elements)


def test_period_system_divisor_closure_matches_brute_force():
    rng = random.Random(19)
    for _ in range(200):
        ps = random_system(rng, max_k=4, max_n=60)
        expect = [d for d in range(1, max(ps.periods) + 1) if any(n % d == 0 for n in ps.periods)]
        assert ps.divisor_closure == tuple(expect)
        # the closure ignores the order of the periods and repeats among them
        shuffled = list(ps.periods) + [rng.choice(ps.periods)]
        rng.shuffle(shuffled)
        assert PeriodSystem(tuple(shuffled)).divisor_closure == tuple(expect)
        assert {f.denominator for f in build_spectrum(ps).elements} == set(expect)


def test_divisor_closure_is_closed_under_divisors():
    rng = random.Random(13)
    for _ in range(100):
        ps = random_system(rng)
        sp = build_spectrum(ps)
        closure = set(ps.divisor_closure)
        for d in closure:
            for e in range(1, d + 1):
                if d % e == 0:
                    assert e in closure
        # every element denominator lies in the closure, and conversely
        assert {f.denominator for f in sp.elements} == closure
        # the modulus is the least common denominator
        assert math.lcm(*closure) == ps.modulus
        assert all(ps.modulus % d == 0 for d in closure)


def test_three_size_routes_agree():
    rng = random.Random(14)
    for _ in range(200):
        ps = random_system(rng)
        sp = build_spectrum(ps)
        assert size_by_phi(ps) == len(sp)
        assert size_by_inclusion_exclusion(ps) == len(sp)


def test_size_examples():
    assert size_by_phi(PeriodSystem((2, 3))) == 4
    assert size_by_inclusion_exclusion(PeriodSystem((2, 3))) == 4
    assert size_by_inclusion_exclusion(PeriodSystem((2, 3, 4))) == 6
    assert size_by_inclusion_exclusion(PeriodSystem((6,))) == 6
    assert size_by_inclusion_exclusion(PeriodSystem((1, 1))) == 1


def test_size_upper_bound():
    # |S| never exceeds (sum of periods) - k + 1
    rng = random.Random(15)
    for _ in range(200):
        ps = random_system(rng)
        bound = sum(ps.periods) - len(ps) + 1
        assert len(build_spectrum(ps)) <= bound


def test_size_never_exceeds_common_period():
    rng = random.Random(16)
    for _ in range(200):
        ps = random_system(rng)
        assert len(build_spectrum(ps)) <= ps.modulus


def test_pairwise_size_formula():
    # for two periods the size is m + n - gcd(m, n)
    for m in range(1, 16):
        for n in range(1, 16):
            got = len(build_spectrum(PeriodSystem((m, n))))
            assert got == m + n - math.gcd(m, n)


def test_spectra_equal_iff_closures_equal():
    rng = random.Random(17)
    systems = [random_system(rng, max_k=3, max_n=12) for _ in range(40)]
    spectra = [build_spectrum(ps) for ps in systems]
    for p, a in zip(systems, spectra):
        for q, b in zip(systems, spectra):
            assert (a == b) == (p.divisor_closure == q.divisor_closure)


def test_order_and_repeats_do_not_matter():
    assert build_spectrum(PeriodSystem((2, 3))) == build_spectrum(PeriodSystem((3, 2)))
    assert build_spectrum(PeriodSystem((2, 3))) == build_spectrum(PeriodSystem((2, 2, 3)))
    assert build_spectrum(PeriodSystem((2, 3))) != build_spectrum(PeriodSystem((6,)))


def test_inclusion_exclusion_takes_any_number_of_periods():
    # 2**26 - 1 subsets, all of gcd 2
    assert size_by_inclusion_exclusion(PeriodSystem((2,) * 26)) == 2
    # the Farey fractions of order 40 in [0, 1), by all three routes
    ps = PeriodSystem(tuple(range(1, 41)))
    assert len(build_spectrum(ps)) == 490
    assert size_by_phi(ps) == 490
    assert size_by_inclusion_exclusion(ps) == 490


def test_fraction_round_trip():
    assert fraction_str(Fraction(0, 1)) == "0/1"
    assert fraction_str(Fraction(2, 3)) == "2/3"
    assert parse_fraction("2/3") == Fraction(2, 3)
    assert parse_fraction("0/1") == Fraction(0)
    rng = random.Random(18)
    for _ in range(100):
        f = Fraction(rng.randint(0, 50), rng.randint(1, 50))
        assert parse_fraction(fraction_str(f)) == f


def test_parse_fraction_rejects_garbage():
    for bad in ("", "1", "1/", "/2", "a/b", "1/0", "1/2/3", 0, None, 0.5, ["1/2"],
                "2/\u0663", " 2/3", "2/+3", "1_0/3", "-/3"):
        with pytest.raises(ValueError):
            parse_fraction(bad)
