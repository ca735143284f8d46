"""Tests for the coefficient table, extrapolation, constancy, and the
two-period difference gcd."""

import itertools
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import persum.cyclotomic
import persum.reconstruction
import persum.spectrum
from persum.cyclotomic import X, IntPolynomial, characteristic_poly, cyclotomic_poly, poly_powmod
from persum.groups import IntVector, ModInt
from persum.reconstruction import (
    CoefficientTable,
    PeriodicMap,
    SumOfPeriodicMaps,
    TableSizeError,
    check_size,
    coefficient_table,
    constancy_check,
    extrapolate,
    finewilf_difference_gcd,
    recurrence_coeffs,
    table_from_json_dict,
    table_rows,
    table_to_json_dict,
)
from persum.spectrum import PeriodSystem, build_spectrum, size_by_inclusion_exclusion

TABLE_2_3_ROWS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, -1),
    (-1, 0, 1, 1),
)


def random_sum(rng, periods, make_value):
    comps = [
        PeriodicMap(tuple(make_value(rng) for _ in range(n))) for n in periods
    ]
    return SumOfPeriodicMaps(tuple(comps))


def test_periodic_map_wraps_both_directions():
    g = PeriodicMap((10, 20, 30))
    assert g.period == 3
    assert g(0) == 10
    assert g(4) == 20
    assert g(-1) == 30
    assert g(-3) == 10


def test_periodic_map_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        PeriodicMap(())
    with pytest.raises(ValueError):
        PeriodicMap((1, ModInt(1, 2)))
    with pytest.raises(ValueError):
        PeriodicMap((ModInt(0, 2), ModInt(0, 3)))


def test_sum_of_maps_requires_common_realization():
    with pytest.raises(ValueError):
        SumOfPeriodicMaps(())
    with pytest.raises(ValueError):
        SumOfPeriodicMaps((PeriodicMap((1,)), PeriodicMap((ModInt(1, 2),))))


def test_eval_sum_examples():
    psi = SumOfPeriodicMaps((PeriodicMap((1, 0)), PeriodicMap((0, 0, 1))))
    assert psi(2) == 2
    assert psi.period_system == PeriodSystem((2, 3))
    # full fundamental period: 1+0, 0+0, 1+1, 0+0, 1+0, 0+1
    assert [psi(x) for x in range(6)] == [1, 0, 2, 0, 1, 1]
    assert psi(-1) == 1
    assert psi(6) == psi(0)


def test_eval_sum_zero_components_give_zero():
    psi = SumOfPeriodicMaps((PeriodicMap((0, 0)), PeriodicMap((0, 0, 0))))
    for x in (-7, 0, 5, 11):
        assert psi(x) == 0
    zmod = SumOfPeriodicMaps((PeriodicMap((ModInt(0, 4),)),))
    assert zmod(123) == ModInt(0, 4)


def test_eval_sum_single_component_periodicity():
    g = PeriodicMap((7, -3, 5))
    psi = SumOfPeriodicMaps((g,))
    assert psi(3) == psi(0) == 7


def test_recurrence_coeffs_examples():
    assert recurrence_coeffs(IntPolynomial((-1, 1))) == (1,)
    assert recurrence_coeffs(IntPolynomial((-1, 0, 1))) == (0, 1)
    assert recurrence_coeffs(IntPolynomial((-1, -1, 0, 1, 1))) == (-1, 0, 1, 1)


def test_recurrence_coeffs_rejects_bad_polynomials():
    with pytest.raises(ValueError):
        recurrence_coeffs(IntPolynomial((-1, 0, 2)))  # not monic
    with pytest.raises(ValueError):
        recurrence_coeffs(IntPolynomial((1,)))  # degree 0
    with pytest.raises(ValueError):
        recurrence_coeffs(IntPolynomial(()))


def test_table_1():
    t = coefficient_table(PeriodSystem((1,)))
    assert t.modulus == 1
    assert t.width == 1
    assert t.rows == ((1,),)


def test_table_2():
    t = coefficient_table(PeriodSystem((2,)))
    assert t.modulus == 2
    assert t.width == 2
    assert t.rows == ((1, 0), (0, 1))


def test_table_2_3_frozen():
    t = coefficient_table(PeriodSystem((2, 3)))
    assert t.modulus == 6
    assert t.width == 4
    assert t.recurrence == (-1, 0, 1, 1)
    assert t.rows == TABLE_2_3_ROWS
    assert t.periods == (2, 3)


def test_row_for_wraps_modulus():
    t = coefficient_table(PeriodSystem((2, 3)))
    assert t.row_for(4) == (1, 1, 0, -1)
    assert t.row_for(-1) == t.row_for(5) == (-1, 0, 1, 1)
    assert t.row_for(6) == t.row_for(0)


def test_table_invariants_random():
    rng = random.Random(41)
    for _ in range(60):
        ps = PeriodSystem(tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4))))
        t = coefficient_table(ps)
        l, N = t.width, t.modulus
        assert len(t.rows) == N
        assert all(len(row) == l for row in t.rows)
        # identity block
        for n in range(min(l, N)):
            assert t.rows[n] == tuple(1 if c == n else 0 for c in range(l))
        # recurrence rows
        for n in range(l, N):
            expect = tuple(
                sum(a * t.rows[n - j][r] for j, a in enumerate(t.recurrence, start=1))
                for r in range(l)
            )
            assert t.rows[n] == expect
        # every row resolves the constant map, so weights sum to 1
        for row in t.rows:
            assert sum(row) == 1


def predecessor_sum_rows(recurrence, n_rows):
    """The O(l^2)-per-row fill: every cell summed over its l predecessors."""
    l = len(recurrence)
    rows = [tuple(1 if c == r else 0 for c in range(l)) for r in range(l)]
    for n in range(l, n_rows):
        rows.append(
            tuple(
                sum(a * rows[n - j][r] for j, a in enumerate(recurrence, start=1))
                for r in range(l)
            )
        )
    return tuple(rows)


def test_shift_fill_matches_predecessor_sum_oracle():
    # N <= 360 keeps the oracle's O(N l^2) cost under a second in total
    rng = random.Random(51)
    checked = 0
    while checked < 100:
        periods = tuple(rng.randint(1, 60) for _ in range(rng.randint(1, 3)))
        if math.lcm(*periods) > 360:
            continue
        t = coefficient_table(PeriodSystem(periods))
        assert t.rows == predecessor_sum_rows(t.recurrence, t.modulus), periods
        checked += 1


@pytest.mark.parametrize("periods, nonzero", [
    ((97, 101), 193),
    ((199, 211), 397),
    ((60, 84, 90), 23),
    ((210, 330, 462), 53),
], ids=str)
def test_walked_rows_match_poly_powmod(periods, nonzero):
    # dense P (193 of l = 197 and 397 of 409 lower coefficients nonzero) and
    # sparse P (23 of 192 and 53 of 870), where a row differs from the shift
    # of the row before only under P's nonzero coefficients; both walks,
    # ints and cells, against the generic powering at random n
    ps = PeriodSystem(periods)
    charpoly = characteristic_poly(ps)
    assert sum(1 for c in charpoly.coeffs[:-1] if c) == nonzero
    rows = table_rows(ps)
    width, n_rows = charpoly.degree, ps.modulus
    rng = random.Random(sum(periods))
    picks = {0, width - 1, width, n_rows - 1, *rng.sample(range(n_rows), 12)}
    for n, (row, text) in enumerate(zip(rows.walk(), rows.walk(str))):
        if n in picks:
            coeffs = poly_powmod(X, n, charpoly).coeffs
            expect = list(coeffs) + [0] * (width - len(coeffs))
            assert row == expect, (periods, n)
            assert text == list(map(str, expect)), (periods, n)
    assert n == n_rows - 1


def test_table_size_cap_checked_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a spectrum past the row cap")

    monkeypatch.setattr(persum.reconstruction, "build_spectrum", refuse)
    huge = PeriodSystem((999983, 1000003))
    with pytest.raises(TableSizeError):
        coefficient_table(huge)
    with pytest.raises(TableSizeError):
        extrapolate(huge, (1,), 5)


def test_cell_cap_checked_before_any_work(monkeypatch):
    def refuse(*args):
        raise AssertionError("computed past the cell cap")

    for module, name in (
        (persum.reconstruction, "characteristic_poly"),
        (persum.reconstruction, "build_spectrum"),
        (persum.cyclotomic, "divisors"),
        (persum.spectrum, "divisors"),
    ):
        monkeypatch.setattr(module, name, refuse)
    # N * l = 999983^2 cells, refused by the bound l >= max(periods) alone
    with pytest.raises(TableSizeError, match="table too large: 999983 rows of 999983 cells"):
        coefficient_table(PeriodSystem((999983,)))
    # (8, 27, 5, 7, 11, 13): N = 1081080 rows of l = 66 cells, refused by l itself
    with pytest.raises(TableSizeError, match="^table too large: 1081080 rows of 66 cells exceed the cap"):
        coefficient_table(PeriodSystem((8, 27, 5, 7, 11, 13)))


def test_table_size_cap(monkeypatch):
    # (2, 3): N = 6 rows of l = 4 cells
    monkeypatch.setattr(persum.reconstruction, "DEFAULT_MAX_CELLS", 23)
    with pytest.raises(TableSizeError) as info:
        coefficient_table(PeriodSystem((2, 3)))
    assert "table too large" in str(info.value)
    # the cap error is still a ValueError for generic handling
    assert isinstance(info.value, ValueError)
    # exactly at the cap is fine
    monkeypatch.setattr(persum.reconstruction, "DEFAULT_MAX_CELLS", 24)
    assert coefficient_table(PeriodSystem((2, 3))).modulus == 6


def test_cell_cap_bounds_n_times_l(monkeypatch):
    # (2, 3): N = 6 rows of l = 4 cells
    monkeypatch.setattr(persum.reconstruction, "DEFAULT_MAX_CELLS", 24)
    assert coefficient_table(PeriodSystem((2, 3))).rows == TABLE_2_3_ROWS
    monkeypatch.setattr(persum.reconstruction, "DEFAULT_MAX_CELLS", 23)
    with pytest.raises(TableSizeError, match="table too large"):
        coefficient_table(PeriodSystem((2, 3)))
    # a spectrum alone is held to the same count of elements
    monkeypatch.setattr(persum.reconstruction, "DEFAULT_MAX_CELLS", 4)
    check_size(PeriodSystem((2, 3)))
    monkeypatch.setattr(persum.reconstruction, "DEFAULT_MAX_CELLS", 3)
    with pytest.raises(TableSizeError, match="^spectrum too large: 4 elements exceed the cap of 3$"):
        check_size(PeriodSystem((2, 3)))


def prime_factors(n):
    """{p: j} with p^j exactly dividing n, by trial division."""
    factors = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        factors[n] = factors.get(n, 0) + 1
    return factors


def enumerated_width(periods):
    """l, as the count of distinct fractions r/n, each written over N."""
    n = math.lcm(*periods)
    return len({r * (n // m) for m in periods for r in range(m)})


def test_no_modulus_above_360360_has_fifty_or_fewer_spectrum_elements():
    # The fractions over p, ..., p^j for each p^j exactly dividing N are
    # q - 1 = p^j - 1 nonzero elements, disjoint across primes, so
    # l >= 1 + sum(q - 1). The largest product of coprime prime powers within
    # that bound at l = 50 is 360360; so N > 10^6 forces l >= 51 and
    # N * l > 5.1 * 10^7, and the cell cap alone refuses every such table.
    primes = [p for p in range(2, 50) if all(p % d for d in range(2, p))]

    def largest(i, budget):
        if i == len(primes):
            return 1
        best = largest(i + 1, budget)
        q = primes[i]
        while q - 1 <= budget:
            best = max(best, q * largest(i + 1, budget - (q - 1)))
            q *= primes[i]
        return best

    assert largest(0, 50 - 1) == 360360 == 8 * 9 * 5 * 7 * 11 * 13
    assert 10**6 * 51 > persum.reconstruction.DEFAULT_MAX_CELLS
    rng = random.Random(52)
    for _ in range(200):
        periods = tuple(rng.randint(1, 400) for _ in range(rng.randint(1, 4)))
        bound = 1 + sum(p**j - 1 for p, j in prime_factors(math.lcm(*periods)).items())
        assert enumerated_width(periods) >= bound, periods


class Accepted(Exception):
    """Raised in place of the characteristic polynomial: the request passed the caps."""


def refuse_the_fill(ps):
    raise Accepted


# N just above 10^6 at the least l there is, N * l on both sides of the cap,
# and N * sum(periods) over the cap with N * l under it
@example((3500, 7000))
@example((8, 27, 5, 7, 11, 13))
@example((8, 9, 5, 7, 11, 13))
@example((7071,))
@example((7072,))
@example((1009, 997))
@example((5000, 5001))
@given(st.one_of(
    st.lists(st.integers(1, 20000), min_size=1, max_size=3),
    st.tuples(st.integers(6500, 7500), st.integers(1, 40)),
    st.tuples(st.integers(900, 1100), st.integers(900, 1100), st.integers(1, 12)),
).map(tuple))
@settings(derandomize=True, deadline=None, database=None)
def test_coefficient_table_refuses_exactly_what_the_row_and_cell_caps_refused(periods):
    n = math.lcm(*periods)
    refused = n > 10**6 or n * enumerated_width(periods) > 5 * 10**7
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(persum.reconstruction, "characteristic_poly", refuse_the_fill)
        with pytest.raises(TableSizeError if refused else Accepted):
            coefficient_table(PeriodSystem(periods))


def test_table_recurrence_matches_characteristic_poly():
    rng = random.Random(42)
    for _ in range(40):
        ps = PeriodSystem(tuple(rng.randint(1, 10) for _ in range(rng.randint(1, 3))))
        t = coefficient_table(ps)
        p = characteristic_poly(ps)
        assert t.recurrence == recurrence_coeffs(p)


def test_table_universality():
    base = coefficient_table(PeriodSystem((2, 3)))
    assert coefficient_table(PeriodSystem((3, 2))) == base
    assert coefficient_table(PeriodSystem((2, 2, 3))) == base
    assert coefficient_table(PeriodSystem((6,))) != base
    # provenance is retained but not compared
    assert coefficient_table(PeriodSystem((3, 2))).periods == (3, 2)


def test_extrapolate_frozen_example():
    t = coefficient_table(PeriodSystem((2, 3)))
    initial = (1, 0, 2, 0)
    assert extrapolate(t, initial, 4) == 1
    assert extrapolate(t, initial, -1) == 1
    for x in range(4):
        assert extrapolate(t, initial, x) == initial[x]


def test_extrapolate_zero_and_constant_windows():
    t = coefficient_table(PeriodSystem((4, 6)))
    l = t.width
    for x in (-25, -1, 0, 7, 100):
        assert extrapolate(t, (0,) * l, x) == 0
        assert extrapolate(t, (9,) * l, x) == 9
        c = ModInt(3, 7)
        assert extrapolate(t, (c,) * l, x) == c


def test_extrapolate_errors():
    t = coefficient_table(PeriodSystem((2, 3)))
    with pytest.raises(ValueError):
        extrapolate(t, (1, 2, 3), 0)
    with pytest.raises(ValueError):
        extrapolate(t, (1, 2, 3, ModInt(1, 5)), 0)


def test_extrapolate_from_period_system_reads_the_table_row():
    rng = random.Random(48)
    systems = [PeriodSystem(tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 3))))
               for _ in range(40)]
    # l = 1; N = l; l = 16, at the Kronecker cutoff; l = 32; l = 88
    systems += [PeriodSystem(p) for p in ((1,), (7,), (16,), (16, 24), (24, 40, 60))]
    for ps in systems:
        t = coefficient_table(ps)
        n = t.modulus
        # exponents 0 and N-1 are the edges of the left-to-right powering
        for x in (0, -1, n - 1, n, *(rng.randint(-3 * n, 3 * n) for _ in range(5))):
            initial = [rng.randint(-9, 9) for _ in range(t.width)]
            assert extrapolate(ps, initial, x) == extrapolate(t, initial, x)
    with pytest.raises(ValueError):
        extrapolate(PeriodSystem((2, 3)), (1, 2, 3), 0)
    with pytest.raises(ValueError):
        extrapolate(PeriodSystem((2, 3)), (1, 2, 3, ModInt(1, 5)), 0)


def test_extrapolate_checks_the_initial_values_before_the_row(monkeypatch):
    # the powmod is the costly step; on (999983,) a one-value request used to
    # run it in full before the count was compared with l
    def refuse(*args):
        raise AssertionError("computed the row before checking the initial values")

    monkeypatch.setattr(persum.reconstruction, "poly_powmod", refuse)
    with pytest.raises(ValueError, match="expected 7 initial values, got 1"):
        extrapolate(PeriodSystem((7,)), [1], 5)
    with pytest.raises(ValueError, match="mixed group realizations"):
        extrapolate(PeriodSystem((2,)), [1, ModInt(1, 5)], 5)


def test_extrapolate_from_period_system_builds_no_fractions(monkeypatch):
    def refuse(*args):
        raise AssertionError("built a spectrum to answer one row")

    psi = SumOfPeriodicMaps((PeriodicMap((5, -2)), PeriodicMap((1, 7, -3))))
    initial = [psi(r) for r in range(4)]
    monkeypatch.setattr(persum.reconstruction, "build_spectrum", refuse)
    for x in (-10**12 - 1, -7, 0, 5, 6, 10**18 + 5):
        assert extrapolate(PeriodSystem((2, 3)), initial, x) == psi(x)


def test_table_fill_and_lookup_build_no_fractions(monkeypatch):
    # only the JSON writer and loader need the spectrum's fractions
    def refuse(*args):
        raise AssertionError("built a spectrum for a table fill or a row lookup")

    psi = SumOfPeriodicMaps((PeriodicMap((5, -2)), PeriodicMap((1, 7, -3))))
    initial = [psi(r) for r in range(4)]
    monkeypatch.setattr(persum.reconstruction, "build_spectrum", refuse)
    t = coefficient_table(PeriodSystem((2, 3)))
    assert t.rows == TABLE_2_3_ROWS
    assert (t.modulus, t.width, t.periods) == (6, 4, (2, 3))
    for x in (-10**12 - 1, -7, 0, 5, 6, 10**18 + 5):
        assert extrapolate(t, initial, x) == psi(x)


@pytest.mark.parametrize(
    "make_value",
    [
        lambda r, m, dim: r.randint(-10**6, 10**6),
        lambda r, m, dim: ModInt(r.randint(0, m - 1), m),
        lambda r, m, dim: IntVector(tuple(r.randint(-99, 99) for _ in range(dim))),
    ],
    ids=["int", "mod", "vec"],
)
def test_extrapolate_from_period_system_matches_brute_force(make_value):
    rng = random.Random(49)
    for _ in range(30):
        periods = tuple(rng.randint(1, 60) for _ in range(rng.randint(1, 3)))
        m, dim = rng.randint(2, 10**9), rng.randint(1, 3)
        psi = random_sum(rng, periods, lambda r: make_value(r, m, dim))
        ps = PeriodSystem(periods)
        width = len(build_spectrum(ps))
        initial = [psi(r) for r in range(width)]
        for _ in range(4):
            x = rng.randint(-10**18, 10**18)
            assert extrapolate(ps, initial, x) == psi(x), (periods, x)


def test_reconstruction_identity_integers():
    rng = random.Random(43)
    for _ in range(40):
        periods = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        t = coefficient_table(PeriodSystem(periods))
        psi = random_sum(rng, periods, lambda r: r.randint(-9, 9))
        initial = [psi(r) for r in range(t.width)]
        for x in range(-t.modulus, 2 * t.modulus):
            assert extrapolate(t, initial, x) == psi(x)


def test_reconstruction_identity_mod_m():
    rng = random.Random(44)
    for _ in range(25):
        periods = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        m = rng.randint(1, 12)
        t = coefficient_table(PeriodSystem(periods))
        psi = random_sum(rng, periods, lambda r: ModInt(r.randint(0, 50), m))
        initial = [psi(r) for r in range(t.width)]
        for x in range(-t.modulus, 2 * t.modulus):
            assert extrapolate(t, initial, x) == psi(x)


def test_reconstruction_identity_vectors():
    rng = random.Random(45)
    for _ in range(25):
        periods = tuple(rng.randint(1, 8) for _ in range(rng.randint(1, 3)))
        dim = rng.randint(1, 3)
        t = coefficient_table(PeriodSystem(periods))
        psi = random_sum(
            rng,
            periods,
            lambda r: IntVector(tuple(r.randint(-9, 9) for _ in range(dim))),
        )
        initial = [psi(r) for r in range(t.width)]
        for x in range(-t.modulus, 2 * t.modulus):
            assert extrapolate(t, initial, x) == psi(x)


def test_constancy_check_examples():
    t = coefficient_table(PeriodSystem((2, 3)))
    verdict = constancy_check(t, (5, 5, 5, 5))
    assert verdict
    assert verdict.is_constant
    assert verdict.constant == 5
    verdict = constancy_check(t, (1, 0, 2, 0))
    assert not verdict
    assert verdict.constant is None


def test_constancy_check_window_length():
    t = coefficient_table(PeriodSystem((2, 3)))
    with pytest.raises(ValueError):
        constancy_check(t, (5, 5, 5))


def test_constant_window_forces_constant_map():
    # exhaustive over integers mod 2 for periods (2, 3): whenever any l
    # consecutive values agree, the whole sum is constant on Z
    t = coefficient_table(PeriodSystem((2, 3)))
    l, N = t.width, t.modulus
    hits = 0
    for bits_g in itertools.product(range(2), repeat=2):
        for bits_h in itertools.product(range(2), repeat=3):
            psi = SumOfPeriodicMaps(
                (
                    PeriodicMap(tuple(ModInt(b, 2) for b in bits_g)),
                    PeriodicMap(tuple(ModInt(b, 2) for b in bits_h)),
                )
            )
            values = [psi(x) for x in range(N + l)]
            for a in range(N):
                window = values[a : a + l]
                if constancy_check(t, window):
                    hits += 1
                    assert all(v == window[0] for v in values[:N])
    assert hits > 0


def test_finewilf_examples():
    g = PeriodicMap((0, 1))
    h = PeriodicMap((0, 1, 0, 1, 0, 1))
    assert finewilf_difference_gcd(g, h) == 0
    assert finewilf_difference_gcd(PeriodicMap((2, 4)), PeriodicMap((0, 0, 0))) == 2
    assert finewilf_difference_gcd(PeriodicMap((0, 1)), PeriodicMap((0, 1, 0))) == 1


def test_finewilf_zero_gcd_means_identical():
    rng = random.Random(46)
    for _ in range(150):
        m = rng.randint(1, 12)
        n = rng.randint(1, 12)
        g = PeriodicMap(tuple(rng.randint(-5, 5) for _ in range(m)))
        h = PeriodicMap(tuple(rng.randint(-5, 5) for _ in range(n)))
        d = finewilf_difference_gcd(g, h)
        period = math.lcm(m, n)
        diffs = [g(x) - h(x) for x in range(-period, 2 * period)]
        if d == 0:
            assert all(v == 0 for v in diffs)
        else:
            assert all(v % d == 0 for v in diffs)
            assert math.gcd(*diffs) == d


def test_finewilf_window_is_sharp():
    # one point less than the m+n-gcd window is not enough: these maps agree
    # at 0, 1, 2 but are not identical
    g = PeriodicMap((0, 1))
    h = PeriodicMap((0, 1, 0))
    window = g.period + h.period - math.gcd(g.period, h.period)
    assert window == 4
    assert all(g(x) == h(x) for x in range(window - 1))
    assert g(3) != h(3)


def test_gcd_of_any_l_values_is_the_gcd_over_z():
    # the local-global fact both gcd windows rest on: every table row is an
    # integer vector, so each value of an integer sum is an integer
    # combination of any l consecutive values, wherever they start
    rng = random.Random(48)
    for _ in range(200):
        periods = [rng.randint(1, 12) for _ in range(rng.randint(1, 4))]
        factor = rng.choice([1, 2, 6])
        psi = SumOfPeriodicMaps(tuple(
            PeriodicMap(tuple(factor * rng.choice([0, 0, rng.randint(-5, 5)]) for _ in range(n)))
            for n in periods
        ))
        ps = psi.period_system
        width, n_rows = size_by_inclusion_exclusion(ps), ps.modulus
        whole = math.gcd(*(psi(x) for x in range(n_rows)))
        for a in (rng.randint(-2 * n_rows, 2 * n_rows) for _ in range(3)):
            assert math.gcd(*(psi(a + r) for r in range(width))) == whole, (periods, a)


def test_finewilf_requires_integer_values():
    with pytest.raises(ValueError):
        finewilf_difference_gcd(
            PeriodicMap((ModInt(0, 2),)), PeriodicMap((ModInt(0, 2),))
        )


def test_json_round_trip():
    rng = random.Random(47)
    for _ in range(30):
        ps = PeriodSystem(tuple(rng.randint(1, 10) for _ in range(rng.randint(1, 3))))
        t = coefficient_table(ps)
        doc = table_to_json_dict(t)
        back = table_from_json_dict(doc)
        assert back == t
        assert back.periods == t.periods


def test_json_document_shape():
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    assert doc["periods"] == ["2", "3"]
    assert doc["N"] == "6"
    assert doc["l"] == "4"
    assert doc["spectrum"] == ["0/1", "1/3", "1/2", "2/3"]
    assert doc["charpoly"] == ["-1", "-1", "0", "1", "1"]
    assert doc["recurrence"] == ["-1", "0", "1", "1"]
    assert doc["rows"][4] == ["1", "1", "0", "-1"]
    # strings only, so arbitrary precision survives any JSON reader
    assert all(isinstance(s, str) for s in doc["charpoly"])


def test_json_rejects_malformed_documents():
    good = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))

    broken = dict(good)
    del broken["rows"]
    with pytest.raises(ValueError):
        table_from_json_dict(broken)

    broken = dict(good)
    broken["l"] = "3"
    with pytest.raises(ValueError):
        table_from_json_dict(broken)

    broken = dict(good)
    broken["charpoly"] = ["1", "0", "0", "0", "1"]
    with pytest.raises(ValueError):
        table_from_json_dict(broken)

    broken = dict(good)
    broken["N"] = "7"
    with pytest.raises(ValueError):
        table_from_json_dict(broken)

    broken = dict(good)
    broken["rows"] = good["rows"][:-1]
    with pytest.raises(ValueError):
        table_from_json_dict(broken)

    # a width of 0 with every field consistent with it
    broken = dict(good, l="0", spectrum=[], charpoly=["1"], recurrence=[], rows=[[]] * 6)
    with pytest.raises(ValueError):
        table_from_json_dict(broken)


def test_json_takes_list_fields_only_as_arrays():
    # "23" iterates as "2", "3" and "1000" as row 0 of the (2, 3) table
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    doc["periods"] = "23"
    doc["rows"][0] = "1000"
    with pytest.raises(ValueError, match="malformed table document: expected a list, got str"):
        table_from_json_dict(doc)


@pytest.mark.parametrize(
    "periods, message",
    [
        (["7"], "spectrum or N disagrees"),
        ([], "malformed table document"),
        (["-5", "0"], "malformed table document"),
        ([True], "malformed table document"),
        (["6"], "spectrum or N disagrees"),
    ],
    ids=["other-N", "empty", "nonpositive", "bool", "same-N-other-closure"],
)
def test_json_rejects_periods_that_are_not_the_tables(periods, message):
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    doc["periods"] = periods
    with pytest.raises(ValueError, match=message):
        table_from_json_dict(doc)


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(N=6.9),
        lambda doc: doc.update(l=4.2),
        lambda doc: doc.update(periods=[2.5, 3.99]),
        lambda doc: doc["spectrum"].__setitem__(0, 0),
        lambda doc: doc["spectrum"].__setitem__(0, None),
        lambda doc: doc["charpoly"].__setitem__(-1, True),
        lambda doc: doc["rows"][1].__setitem__(1, 1.0),
        lambda doc: doc.update(N=" 6"),
        lambda doc: doc.update(N="+6"),
        lambda doc: doc.update(N="6\n"),
        lambda doc: doc.update(N="\u0666"),
        lambda doc: doc["spectrum"].__setitem__(3, "2/\u0663"),
        lambda doc: doc["rows"][4].__setitem__(0, "0_1"),
    ],
    ids=["float-N", "float-l", "float-periods", "int-fraction", "null-fraction", "bool-coeff",
         "float-cell", "space-N", "plus-N", "newline-N", "arabic-indic-N", "arabic-indic-fraction",
         "underscore-cell"],
)
def test_json_takes_integers_strictly(mutate):
    # each number would pass for the one it replaces if floats were
    # truncated, bools read as ints or strings read by int(), which also
    # takes spaces, '+', '_' and non-ASCII digits; a fraction that is not
    # a string must fail as malformed, not with an AttributeError
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    mutate(doc)
    with pytest.raises(ValueError, match="malformed table document"):
        table_from_json_dict(doc)


@pytest.mark.parametrize("as_numbers", [False, True], ids=["string-cells", "number-cells"])
def test_json_refuses_a_true_cell_beside_cells_equal_to_1(as_numbers):
    # each distinct cell is read once; True == 1 and they hash alike, so a
    # reading kept for a 1 cell must not let a true cell through
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    if as_numbers:
        doc["rows"] = [[int(c) for c in row] for row in doc["rows"]]
    assert doc["rows"][4][0] in ("1", 1) and doc["rows"][4][1] in ("1", 1)
    doc["rows"][4][1] = True
    with pytest.raises(ValueError, match="malformed table document"):
        table_from_json_dict(doc)


def test_json_takes_integers_as_json_numbers():
    def as_numbers(value):
        return [as_numbers(v) for v in value] if isinstance(value, list) else int(value)

    t = coefficient_table(PeriodSystem((2, 3)))
    doc = {key: value if key == "spectrum" else as_numbers(value)
           for key, value in table_to_json_dict(t).items()}
    assert doc["N"] == 6 and doc["rows"][4] == [1, 1, 0, -1]
    assert table_from_json_dict(doc) == t


def test_json_rejects_a_corrupt_identity_entry():
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2, 3))))
    doc["rows"][1] = ["0", "1", "0", "1"]
    with pytest.raises(ValueError, match="identity block"):
        table_from_json_dict(doc)
    # on (4, 6), l = 8: rows 0 and 7 are the first and last of the block
    for n in (0, 7):
        doc = table_to_json_dict(coefficient_table(PeriodSystem((4, 6))))
        doc["rows"][n][-1] = str(int(doc["rows"][n][-1]) + 1)
        with pytest.raises(ValueError, match="identity block"):
            table_from_json_dict(doc)


def test_json_rejects_a_corrupt_recurrence_row():
    # on (4, 6), l = 8: row 8 is the first row past the identity block
    for n in (8, 9):
        doc = table_to_json_dict(coefficient_table(PeriodSystem((4, 6))))
        doc["rows"][n][2] = str(int(doc["rows"][n][2]) + 1)
        with pytest.raises(ValueError, match=f"row {n} is not the shift of row {n - 1}"):
            table_from_json_dict(doc)
    # the last row is checked against the wrap as well as its predecessor
    doc = table_to_json_dict(coefficient_table(PeriodSystem((4, 6))))
    doc["rows"][-1][0] = str(int(doc["rows"][-1][0]) - 1)
    with pytest.raises(ValueError, match="row 11 is not the shift"):
        table_from_json_dict(doc)


def consistent_document(base, charpoly):
    """base with its charpoly replaced and its rows refilled from it, so the
    identity block and every shift agree with the new recurrence."""
    doc = table_to_json_dict(base)
    recurrence = recurrence_coeffs(charpoly)
    rows = [[int(c == r) for c in range(len(recurrence))] for r in range(len(recurrence))]
    while len(rows) < base.modulus:
        top, prev = rows[-1][-1], [0] + rows[-1]
        rows.append([top * a + r for a, r in zip(recurrence[::-1], prev)])
    doc["charpoly"] = [str(c) for c in charpoly.coeffs]
    doc["recurrence"] = [str(a) for a in recurrence]
    doc["rows"] = [[str(c) for c in row] for row in rows]
    return doc


def test_json_rejects_a_broken_wrap_around():
    # x^4 - 1 does not divide x^6 - 1, so row 5 does not shift back to row 0
    doc = consistent_document(coefficient_table(PeriodSystem((2, 3))), IntPolynomial((-1, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="row N-1 is not row 0"):
        table_from_json_dict(doc)
    # N = l on (7,): every row is in the identity block, so only the wrap
    # can fail, and x^7 + 1 does not divide x^7 - 1
    doc = consistent_document(coefficient_table(PeriodSystem((7,))), IntPolynomial((1, 0, 0, 0, 0, 0, 0, 1)))
    with pytest.raises(ValueError, match="the shift of row N-1 is not row 0"):
        table_from_json_dict(doc)


def test_json_rejects_a_charpoly_of_another_spectrum():
    # Phi_1 Phi_2 Phi_6 divides x^6 - 1 like the charpoly of (2, 3), so
    # every row and the wrap agree, but it belongs to the closure {1, 2, 6}
    other = cyclotomic_poly(1) * cyclotomic_poly(2) * cyclotomic_poly(6)
    doc = consistent_document(coefficient_table(PeriodSystem((2, 3))), other)
    with pytest.raises(ValueError, match="not the spectrum's"):
        table_from_json_dict(doc)


def test_json_rejects_a_spectrum_with_a_repeated_fraction():
    doc = table_to_json_dict(coefficient_table(PeriodSystem((2,))))
    doc["spectrum"] = ["1/2", "1/2"]
    with pytest.raises(ValueError, match="spectrum or N disagrees"):
        table_from_json_dict(doc)


def test_json_rejects_a_spectrum_missing_a_fraction():
    # 0/1 dropped and 5/6 doubled: same length, same denominators' lcm
    doc = table_to_json_dict(coefficient_table(PeriodSystem((4, 6))))
    assert doc["spectrum"][0] == "0/1" and doc["spectrum"][-1] == "5/6"
    doc["spectrum"] = doc["spectrum"][1:] + ["5/6"]
    with pytest.raises(ValueError, match="spectrum or N disagrees"):
        table_from_json_dict(doc)


def test_json_checks_N_before_enumerating_the_denominators(monkeypatch):
    # enumerating the spectrum of a denominator of 10^12 would not finish,
    # so N is compared with the denominators' lcm first
    def refuse(*args):
        raise AssertionError("enumerated the spectrum of a denominator beyond N")

    doc = table_to_json_dict(coefficient_table(PeriodSystem((2,))))
    doc["spectrum"] = ["0/1", f"1/{10**12}"]
    monkeypatch.setattr(persum.reconstruction, "build_spectrum", refuse)
    with pytest.raises(ValueError, match="spectrum or N disagrees"):
        table_from_json_dict(doc)
