"""Tests for residue-class systems and multiplicity window checks."""

import math
import random
import time

import pytest

import persum.covering
from persum.covering import (
    ResidueClass,
    ResidueSystem,
    gcd_window,
    maximal_moduli_distinct,
    multiplicity,
    odd_cover_check,
    parse_residue_system,
    window_class_check,
)
from persum.numth import divisors
from persum.reconstruction import SumOfPeriodicMaps, TableSizeError
from persum.spectrum import build_spectrum, size_by_phi


def system(*pairs):
    return ResidueSystem(tuple(ResidueClass(a, n) for a, n in pairs))


def random_system(rng, max_k=5, max_n=12):
    k = rng.randint(1, max_k)
    pairs = []
    for _ in range(k):
        n = rng.randint(1, max_n)
        pairs.append((rng.randint(0, n - 1), n))
    return system(*pairs)


def test_residue_class_normalizes():
    assert ResidueClass(7, 5).residue == 2
    assert ResidueClass(-1, 5).residue == 4
    assert str(ResidueClass(7, 5)) == "2 mod 5"


def test_residue_class_requires_positive_modulus():
    with pytest.raises(ValueError):
        ResidueClass(0, 0)
    with pytest.raises(ValueError):
        ResidueClass(1, -2)


@pytest.mark.parametrize("residue", [1.5, 1.0, "1", True])
def test_residue_class_requires_integer_residue(residue):
    with pytest.raises(ValueError, match="residue must be an integer"):
        ResidueClass(residue, 4)


def test_residue_class_contains():
    cls = ResidueClass(2, 5)
    assert cls.contains(2)
    assert cls.contains(7)
    assert cls.contains(-3)
    assert not cls.contains(3)


def test_indicator_map_matches_contains():
    rng = random.Random(51)
    for _ in range(50):
        n = rng.randint(1, 15)
        cls = ResidueClass(rng.randint(-20, 20), n)
        ind = cls.indicator_map()
        assert ind.period == n
        for x in range(-2 * n, 2 * n):
            assert ind(x) == (1 if cls.contains(x) else 0)


def test_residue_system_basics():
    sys23 = system((0, 2), (0, 3))
    assert sys23.moduli == (2, 3)
    assert sys23.window_length() == 4
    with pytest.raises(ValueError):
        ResidueSystem(())


def test_window_length_is_the_spectrum_size():
    # one rule sizes every window; the spectrum itself and the totient route
    # are independent counts, and for two moduli the Fine-Wilf closed form
    # m + n - gcd(m, n) is the oracle
    rng = random.Random(57)
    for _ in range(300):
        moduli = [rng.randint(1, 30)]
        for _ in range(rng.randint(0, 3)):
            pick = rng.choice(moduli)
            moduli.append(rng.choice([rng.randint(1, 30), pick, rng.choice(divisors(pick))]))
        rng.shuffle(moduli)
        sys = system(*((0, n) for n in moduli))
        ps = sys.period_system
        assert sys.window_length() == len(build_spectrum(ps)) == size_by_phi(ps), moduli
        if len(moduli) == 2:
            m, n = moduli
            assert sys.window_length() == m + n - math.gcd(m, n), moduli


@pytest.mark.parametrize("check", [
    lambda sys: gcd_window(sys, 0, 0),
    lambda sys: window_class_check(sys, 2, 1, 0),
    lambda sys: odd_cover_check(sys),
], ids=["gcd_window", "window_class_check", "odd_cover_check"])
def test_window_checks_refuse_an_oversized_system_at_once(check):
    # sized by check_size before the window is counted: a modulus of 10^18+3
    # is refused by its bound, not factored or allocated
    huge = system((0, 10**18 + 3))
    start = time.perf_counter()
    with pytest.raises(TableSizeError, match="^spectrum too large: "):
        check(huge)
    assert time.perf_counter() - start < 1.0


def test_multiplicity_examples():
    sys23 = system((0, 2), (0, 3))
    assert multiplicity(sys23, 0) == 2
    assert multiplicity(sys23, 1) == 0
    full = system((0, 1))
    for x in (-5, 0, 3, 100):
        assert multiplicity(full, x) == 1


def test_multiplicity_is_periodic():
    rng = random.Random(52)
    for _ in range(60):
        sys = random_system(rng)
        N = math.lcm(*sys.moduli)
        for x in range(-N, N):
            assert multiplicity(sys, x) == multiplicity(sys, x + N)


def test_multiplicity_agrees_with_indicator_sum():
    # bridge to the reconstruction module: the multiplicity function is the
    # sum of the indicator maps of the classes
    rng = random.Random(53)
    for _ in range(40):
        sys = random_system(rng)
        psi = SumOfPeriodicMaps(tuple(cls.indicator_map() for cls in sys.classes))
        for x in range(-15, 30):
            assert multiplicity(sys, x) == psi(x)


def test_window_class_check_examples():
    exact = system((0, 2), (1, 2))
    res = window_class_check(exact, 2, 1, 0)
    assert res.ok
    assert res.window == (1, 1)
    assert res.start == 0

    sys23 = system((0, 2), (0, 3))
    res = window_class_check(sys23, 2, 1, 0)
    assert not res
    assert res.window == (2, 0, 1, 1)

    full = system((0, 1))
    assert window_class_check(full, 5, 1, 7).ok


def test_window_class_check_negative_a_normalized():
    exact = system((0, 2), (1, 2))
    assert window_class_check(exact, 2, -1, 0).ok  # -1 ≡ 1 (mod 2)


def test_window_pass_certifies_all_of_z():
    # a passing window really does pin the multiplicity class everywhere,
    # verified over a full lcm period
    rng = random.Random(54)
    confirmed = 0
    while confirmed < 60:
        sys = random_system(rng, max_k=4, max_n=10)
        m = rng.randint(1, 6)
        start = rng.randint(-20, 20)
        a = multiplicity(sys, start)
        res = window_class_check(sys, m, a, start)
        if not res:
            continue
        N = math.lcm(*sys.moduli)
        assert all(multiplicity(sys, x) % m == a % m for x in range(N))
        confirmed += 1


def test_window_checks_call_no_per_position_multiplicity(monkeypatch):
    # the checks read one marked window; multiplicity stays only as the oracle
    def refuse(*args):
        raise AssertionError("tested every class at a window position")

    monkeypatch.setattr(persum.covering, "multiplicity", refuse)
    mixed = system((0, 2), (1, 3), (3, 4))
    res = window_class_check(mixed, 3, 1, -5)
    assert not res.ok
    assert res.window == (2, 1, 0, 2, 1, 1)
    assert res.start == -5
    assert not odd_cover_check(mixed, 7)
    assert gcd_window(mixed, 10, 2) == 1
    exact = system((0, 2), (1, 4), (3, 4))
    assert window_class_check(exact, 2, 1, 3).window == (1, 1, 1, 1)
    assert odd_cover_check(exact, -9)
    assert gcd_window(exact, 5, 1) == 2


def test_odd_cover_examples():
    assert odd_cover_check(system((0, 2), (1, 2)), 0)
    assert not odd_cover_check(system((0, 2)), 0)
    assert not odd_cover_check(system((0, 1), (0, 2), (1, 2)), 3)


def test_odd_cover_default_start():
    assert odd_cover_check(system((0, 2), (1, 2)))


def test_maximal_moduli_examples():
    assert maximal_moduli_distinct(system((0, 2), (0, 3)))
    assert not maximal_moduli_distinct(system((0, 2), (1, 2)))
    assert maximal_moduli_distinct(system((0, 2), (1, 4), (0, 3)))


def test_maximal_moduli_ignores_duplicate_nonmaximal():
    # the repeated 2s all divide 4, so only (4, 3) are maximal
    assert maximal_moduli_distinct(system((0, 2), (1, 2), (3, 4), (0, 3)))
    # two copies of the maximal 4 disqualify
    assert not maximal_moduli_distinct(system((0, 4), (1, 4), (0, 3)))
    # a single class is vacuously fine
    assert maximal_moduli_distinct(system((0, 5)))


def test_gcd_window_examples():
    sys23 = system((0, 2), (0, 3))
    assert gcd_window(sys23, 0, 0) == 1  # gcd(2, 0, 1, 1)
    assert gcd_window(sys23, 0, 2) == 1  # gcd(4, 2, 3, 3)
    assert gcd_window(system((0, 2), (1, 2)), 0, 1) == 2  # gcd(2, 2)


def test_gcd_window_all_zero_reports_zero():
    # constant multiplicity 1 cancelled by b = -1 zeroes the whole window
    sys = system((0, 1))
    assert gcd_window(sys, 3, -1) == 0
    # two copies of the full class give multiplicity 2 everywhere
    assert gcd_window(system((0, 1), (0, 1)), 0, -2) == 0


def test_gcd_window_divides_everywhere():
    # whatever the gcd is, it divides multiplicity(x) + b for all x
    rng = random.Random(55)
    for _ in range(80):
        sys = random_system(rng)
        a = rng.randint(-30, 30)
        b = rng.randint(-5, 5)
        d = gcd_window(sys, a, b)
        N = math.lcm(*sys.moduli)
        if d == 0:
            assert all(multiplicity(sys, x) + b == 0 for x in range(N))
        else:
            assert all((multiplicity(sys, x) + b) % d == 0 for x in range(N))


def test_distinct_maximal_moduli_force_gcd_one():
    rng = random.Random(56)
    confirmed = 0
    while confirmed < 60:
        sys = random_system(rng, max_k=5, max_n=12)
        if len(sys.classes) < 2 or not maximal_moduli_distinct(sys):
            continue
        a = rng.randint(-50, 50)
        b = rng.randint(-10, 10)
        assert gcd_window(sys, a, b) == 1, (sys.classes, a, b)
        confirmed += 1


def test_parse_text_format():
    sys = parse_residue_system("0 mod 2\n0 mod 3\n")
    assert sys == system((0, 2), (0, 3))


def test_parse_text_comments_and_blanks():
    text = """
    # an exact cover
    0 mod 2

    1 mod 2   # trailing comments are not supported, this line is data
    """
    with pytest.raises(ValueError) as info:
        parse_residue_system(text)
    assert "line 5" in str(info.value)

    sys = parse_residue_system("# header\n\n0 mod 2\n1 mod 2\n")
    assert sys == system((0, 2), (1, 2))


def test_parse_text_normalizes_residues():
    sys = parse_residue_system("-1 mod 5\n")
    assert sys.classes[0] == ResidueClass(4, 5)


def test_parse_text_errors():
    with pytest.raises(ValueError) as info:
        parse_residue_system("0 mod 2\n0 rem 3\n")
    assert "line 2" in str(info.value)
    with pytest.raises(ValueError) as info:
        parse_residue_system("0 mod 0\n")
    assert "positive" in str(info.value)
    with pytest.raises(ValueError):
        parse_residue_system("")
    with pytest.raises(ValueError):
        parse_residue_system("# only comments\n")
    with pytest.raises(ValueError):
        parse_residue_system("0 mod\n")
    # int() would read each of these; a residue file takes ASCII digits only
    for line in ("\u0663 mod \u0667", "+3 mod 7", "3 mod 0_7", "3 mod +7"):
        with pytest.raises(ValueError, match="line 2: expected 'a mod n'"):
            parse_residue_system("0 mod 2\n" + line)


def test_parse_json_format():
    sys = parse_residue_system('[[0, 2], [0, 3]]')
    assert sys == system((0, 2), (0, 3))
    # decimal strings are accepted too
    sys = parse_residue_system('[["0", "2"], ["1", "2"]]')
    assert sys == system((0, 2), (1, 2))


def test_parse_json_errors():
    with pytest.raises(ValueError):
        parse_residue_system("[")
    with pytest.raises(ValueError):
        parse_residue_system("[]")
    with pytest.raises(ValueError) as info:
        parse_residue_system("[[0, 2], [1]]")
    assert "entry 1" in str(info.value)
    with pytest.raises(ValueError):
        parse_residue_system("[[0, 2.5]]")
    with pytest.raises(ValueError):
        parse_residue_system("[[0, 0]]")
    with pytest.raises(ValueError):
        parse_residue_system('[[true, 2]]')
    for pair in ('["1_0", " 3"]', '["+1", "3"]', '["1", "\\u0663"]', '["1", "3 "]'):
        with pytest.raises(ValueError, match="entry 1: expected an"):
            parse_residue_system(f"[[0, 2], {pair}]")
    # nesting too deep for the JSON decoder
    with pytest.raises(ValueError, match="bad JSON"):
        parse_residue_system("[" * 100_000)


def test_parse_round_trip_through_str():
    rng = random.Random(57)
    for _ in range(30):
        sys = random_system(rng)
        text = "\n".join(str(cls) for cls in sys.classes)
        assert parse_residue_system(text) == sys
