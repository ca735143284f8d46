"""Acceptance suite: ten exact, property-based criteria with time budgets.

Each test drives one criterion end to end and records a verdict line that
pytest prints in its terminal summary. Budgets are wall-clock upper bounds
on the whole criterion body; all equality checks are exact."""

import itertools
import json
import math
import random

from conftest import criterion
from poly_oracle import divmod_exact, schoolbook_mul, x_powmod

from persum.cli import main
from persum.cyclotomic import characteristic_poly
from persum.groups import IntVector, ModInt
from persum.reconstruction import (
    PeriodicMap,
    SumOfPeriodicMaps,
    coefficient_table,
    constancy_check,
    extrapolate,
    finewilf_difference_gcd,
    recurrence_coeffs,
    table_from_json_dict,
    table_to_json_dict,
)
from persum.covering import ResidueClass, ResidueSystem, gcd_window, maximal_moduli_distinct, multiplicity, window_class_check
from persum.spectrum import (
    PeriodSystem,
    build_spectrum,
    size_by_inclusion_exclusion,
    size_by_phi,
)

TABLE_2_3_ROWS = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (0, 0, 1, 0),
    (0, 0, 0, 1),
    (1, 1, 0, -1),
    (-1, 0, 1, 1),
)


def batch_500_systems():
    # the shared randomized batch for criteria 1 and 2
    rng = random.Random(2025)
    systems = []
    for _ in range(500):
        k = rng.randint(1, 5)
        systems.append(PeriodSystem(tuple(rng.randint(1, 30) for _ in range(k))))
    return systems


def test_criterion_01_cardinality_triple_agreement():
    with criterion(1, "cardinality: enumeration = totient sum = inclusion-exclusion", budget=5.0):
        pair_cases = 0
        for ps in batch_500_systems():
            size = len(build_spectrum(ps))
            assert size == size_by_phi(ps)
            assert size == size_by_inclusion_exclusion(ps)
            if len(ps) == 2:
                m, n = ps.periods
                assert size == m + n - math.gcd(m, n)
                pair_cases += 1
        assert pair_cases > 20


def test_criterion_02_characteristic_polynomial():
    with criterion(2, "characteristic polynomial: degree |S| and divides x^N - 1", budget=5.0):
        direct_checked = 0
        for ps in batch_500_systems():
            sp = build_spectrum(ps)
            p = characteristic_poly(ps)
            assert p.is_monic()
            assert p.degree == len(sp)
            # (x^N - 1) mod p == 0, via modular exponentiation
            assert x_powmod(ps.modulus, p.coeffs) == [1]
            # second route on small moduli: direct long division
            if ps.modulus <= 1000:
                x_n_minus_1 = [-1] + [0] * (ps.modulus - 1) + [1]
                quot, rem = divmod_exact(x_n_minus_1, p.coeffs)
                assert rem == []
                assert schoolbook_mul(quot, p.coeffs) == x_n_minus_1
                direct_checked += 1
        assert direct_checked > 100


def test_criterion_03_reconstruction_identity():
    with criterion(3, "reconstruction: extrapolate = direct evaluation on [-N, 2N)", budget=30.0):
        rng = random.Random(77)
        for _ in range(200):
            k = rng.randint(1, 4)
            periods = tuple(rng.randint(1, 10) for _ in range(k))
            table = coefficient_table(PeriodSystem(periods))
            N, l = table.modulus, table.width
            m = rng.randint(2, 12)
            dim = rng.randint(1, 3)
            makers = (
                lambda v: v,
                lambda v: ModInt(v, m),
                lambda v: IntVector(tuple(v + j for j in range(dim))),
            )
            for make in makers:
                psi = SumOfPeriodicMaps(
                    tuple(
                        PeriodicMap(tuple(make(rng.randint(-9, 9)) for _ in range(n)))
                        for n in periods
                    )
                )
                initial = [psi(r) for r in range(l)]
                for x in range(-N, 2 * N):
                    assert extrapolate(table, initial, x) == psi(x)


def test_criterion_04_table_structure():
    with criterion(4, "table structure: identity block, recurrence rows, row sums 1"):
        assert coefficient_table(PeriodSystem((2, 3))).rows == TABLE_2_3_ROWS
        rng = random.Random(88)
        for _ in range(80):
            ps = PeriodSystem(tuple(rng.randint(1, 12) for _ in range(rng.randint(1, 4))))
            t = coefficient_table(ps)
            l, N = t.width, t.modulus
            expect_recurrence = recurrence_coeffs(characteristic_poly(ps))
            assert t.recurrence == expect_recurrence
            for n in range(min(l, N)):
                assert t.rows[n] == tuple(1 if c == n else 0 for c in range(l))
            for n in range(l, N):
                assert t.rows[n] == tuple(
                    sum(a * t.rows[n - j][r] for j, a in enumerate(t.recurrence, start=1))
                    for r in range(l)
                )
            for row in t.rows:
                assert sum(row) == 1


def test_criterion_05_universality():
    with criterion(5, "universality: equal divisor closures give identical tables"):
        base = coefficient_table(PeriodSystem((2, 3)))
        assert coefficient_table(PeriodSystem((3, 2))) == base
        assert coefficient_table(PeriodSystem((2, 2, 3))) == base
        assert coefficient_table(PeriodSystem((6,))) != base


def test_criterion_06_local_global_constancy():
    with criterion(6, "constancy: window-constant sums are globally constant (mod 2)", budget=1.0):
        for periods in ((2, 3), (2, 4)):
            t = coefficient_table(PeriodSystem(periods))
            l, N = t.width, t.modulus
            hits = 0
            total = 0
            for values in itertools.product(
                *(itertools.product(range(2), repeat=n) for n in periods)
            ):
                total += 1
                psi = SumOfPeriodicMaps(
                    tuple(
                        PeriodicMap(tuple(ModInt(b, 2) for b in comp))
                        for comp in values
                    )
                )
                trace = [psi(x) for x in range(N + l)]
                for a in range(N):
                    if constancy_check(t, trace[a : a + l]):
                        hits += 1
                        assert all(v == trace[a] for v in trace[:N])
            assert total == 2 ** sum(periods)
            assert hits > 0


def test_criterion_07_finewilf():
    with criterion(7, "difference gcd: zero window gcd forces identical maps", budget=5.0):
        rng = random.Random(99)
        zero_cases = 0
        for _ in range(200):
            m = rng.randint(1, 12)
            g = PeriodicMap(tuple(rng.randint(-4, 4) for _ in range(m)))
            if rng.random() < 0.3:
                # tile g to a multiple period so the two maps coincide
                reps = rng.randint(1, 12 // m) if m <= 12 else 1
                h = PeriodicMap(g.values * max(reps, 1))
            else:
                n = rng.randint(1, 12)
                h = PeriodicMap(tuple(rng.randint(-4, 4) for _ in range(n)))
            d = finewilf_difference_gcd(g, h)
            period = math.lcm(g.period, h.period)
            if d == 0:
                zero_cases += 1
                assert all(g(x) == h(x) for x in range(period))
            else:
                assert all((g(x) - h(x)) % d == 0 for x in range(period))
        assert zero_cases > 10

        # sharpness at (2, 3) over values {0, 1}: agreeing on the full
        # 4-point window forces identity, agreeing on 3 points does not
        sharp_pair = None
        for gv in itertools.product(range(2), repeat=2):
            for hv in itertools.product(range(2), repeat=3):
                g = PeriodicMap(gv)
                h = PeriodicMap(hv)
                agree4 = all(g(x) == h(x) for x in range(4))
                identical = all(g(x) == h(x) for x in range(6))
                if agree4:
                    assert identical
                if all(g(x) == h(x) for x in range(3)) and not identical:
                    sharp_pair = (gv, hv)
        assert sharp_pair is not None


def test_criterion_08_covering_window():
    with criterion(8, "covering: a passing multiplicity window decides all of Z", budget=10.0):
        rng = random.Random(111)
        nontrivial_passes = 0
        for _ in range(100):
            k = rng.randint(1, 5)
            classes = []
            for _ in range(k):
                n = rng.randint(1, 12)
                classes.append(ResidueClass(rng.randint(0, n - 1), n))
            sys_ = ResidueSystem(tuple(classes))
            start = rng.randint(-20, 20)
            N = math.lcm(*sys_.moduli)
            for m in range(1, 7):
                a = multiplicity(sys_, start)
                result = window_class_check(sys_, m, a, start)
                if not result:
                    continue
                if m > 1:
                    nontrivial_passes += 1
                assert all(multiplicity(sys_, x) % m == a % m for x in range(N))
        assert nontrivial_passes > 0


def test_criterion_09_covering_gcd():
    with criterion(9, "covering gcd: distinct maximal moduli force window gcd 1", budget=10.0):
        rng = random.Random(222)
        confirmed = 0
        while confirmed < 100:
            k = rng.randint(2, 5)
            classes = []
            for _ in range(k):
                n = rng.randint(1, 20)
                classes.append(ResidueClass(rng.randint(0, n - 1), n))
            sys_ = ResidueSystem(tuple(classes))
            if not maximal_moduli_distinct(sys_):
                continue
            a = rng.randint(-50, 50)
            b = rng.randint(-10, 10)
            assert gcd_window(sys_, a, b) == 1, (sys_.classes, a, b)
            confirmed += 1


def test_criterion_10_cli_round_trip(tmp_path, capsys):
    with criterion(10, "cli: emitted tables reload and extrapolate byte-for-byte", budget=5.0):
        rng = random.Random(333)
        for case in range(20):
            k = rng.randint(1, 3)
            periods = tuple(rng.randint(1, 8) for _ in range(k))
            table = coefficient_table(PeriodSystem(periods))
            argv_periods = [str(n) for n in periods]

            # emit through the CLI and compare bytes against the library dump
            target = tmp_path / f"case{case}.json"
            assert main(["coeffs", *argv_periods, "--out", str(target)]) == 0
            capsys.readouterr()
            expect_text = json.dumps(table_to_json_dict(table), indent=2) + "\n"
            assert target.read_text() == expect_text

            # reloading gives the identical table object
            reloaded = table_from_json_dict(json.loads(target.read_text()))
            assert reloaded == table

            # CLI extrapolation output matches the in-process value exactly
            initial = [rng.randint(-9, 9) for _ in range(table.width)]
            x = rng.randint(-2 * table.modulus, 2 * table.modulus)
            code = main(
                ["extrapolate", "--periods", *argv_periods,
                 "--initial", *[str(v) for v in initial], "--at", str(x)]
            )
            out, _ = capsys.readouterr()
            assert code == 0
            value = extrapolate(reloaded, initial, x)
            assert value == extrapolate(table, initial, x)
            expect_doc = {
                "periods": argv_periods,
                "group": "int",
                "x": str(x),
                "initial": [str(v) for v in initial],
                "value": str(value),
            }
            assert out == json.dumps(expect_doc, indent=2) + "\n"
