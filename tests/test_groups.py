"""Tests for the abelian group value realizations."""

import random
from fractions import Fraction

import pytest

from persum.groups import IntVector, ModInt, scale, zero_like
from persum.reconstruction import PeriodicMap


def test_modint_normalizes():
    assert ModInt(7, 5).value == 2
    assert ModInt(-1, 5).value == 4
    assert ModInt(10, 5).value == 0
    assert ModInt(3, 1).value == 0


def test_modint_requires_positive_modulus():
    with pytest.raises(ValueError):
        ModInt(1, 0)
    with pytest.raises(ValueError):
        ModInt(1, -3)


def test_modint_arithmetic():
    a = ModInt(3, 7)
    b = ModInt(6, 7)
    assert a + b == ModInt(2, 7)
    assert a - b == ModInt(4, 7)
    assert -a == ModInt(4, 7)
    assert a + a.zero() == a


def test_modint_mixed_moduli_rejected():
    with pytest.raises(ValueError):
        ModInt(1, 5) + ModInt(1, 7)
    with pytest.raises(ValueError):
        ModInt(1, 5) - ModInt(1, 7)


def test_modint_str():
    assert str(ModInt(9, 5)) == "4 (mod 5)"


def test_intvector_basic():
    v = IntVector((1, -2, 3))
    w = IntVector((10, 20, 30))
    assert v.dimension == 3
    assert v + w == IntVector((11, 18, 33))
    assert v - w == IntVector((-9, -22, -27))
    assert -v == IntVector((-1, 2, -3))
    assert v.zero() == IntVector((0, 0, 0))


def test_intvector_rejects_empty_and_mixed():
    with pytest.raises(ValueError):
        IntVector(())
    with pytest.raises(ValueError):
        IntVector((1, 2)) + IntVector((1, 2, 3))


@pytest.mark.parametrize("make", [
    lambda: ModInt(1.5, 3),
    lambda: ModInt("1", 3),
    lambda: ModInt(True, 3),
    lambda: IntVector((1.5, "a")),
    lambda: IntVector((1, 2.0)),
    lambda: IntVector((False,)),
], ids=["float", "str", "bool", "vec-float-str", "vec-float", "vec-bool"])
def test_group_values_take_ints_only(make):
    # a float or a string would pass into every value reconstructed from it
    with pytest.raises(ValueError, match="must be an integer"):
        make()


def test_zero_like():
    assert zero_like(5) == 0
    assert zero_like(ModInt(3, 7)) == ModInt(0, 7)
    assert zero_like(IntVector((1, 2))) == IntVector((0, 0))


class Halves:
    """(1/2)Z, a group persum ships no class for: only zero(), +, unary -
    and ==."""

    def __init__(self, twice: int):
        self.q = Fraction(twice, 2)

    def zero(self):
        return Halves(0)

    def __add__(self, other):
        return Halves(2 * (self.q + other.q))

    def __neg__(self):
        return Halves(-2 * self.q)

    def __eq__(self, other):
        return isinstance(other, Halves) and self.q == other.q


@pytest.mark.parametrize("a, b, same", [
    (1, -5, True),
    (ModInt(1, 4), ModInt(3, 4), True),
    (ModInt(1, 4), ModInt(1, 5), False),
    (1, ModInt(1, 4), False),
    (IntVector((1,)), IntVector((2,)), True),
    (IntVector((1,)), IntVector((1, 2)), False),
    (IntVector((1,)), 1, False),
    (ModInt(0, 1), IntVector((0,)), False),
    (True, 1, "not an int"),
    (Halves(1), Halves(-3), True),
    (Halves(1), 1, False),
    (0, Halves(0), False),
], ids=["int-int", "mod4-mod4", "mod4-mod5", "int-mod4", "vec1-vec1", "vec1-vec2",
        "vec1-int", "mod1-vec1", "bool-int", "halves-halves", "halves-int", "int-halves"])
def test_same_realization(a, b, same):
    # two values share a group, and one map, exactly when their zeros are
    # equal: an int (zero 0) never matches a ModInt or an IntVector, and
    # True is not an int, as check_int and extrapolate refuse it
    if same is True:
        assert PeriodicMap((a, b)).values == (a, b)
    elif same:
        with pytest.raises(ValueError, match=same):
            PeriodicMap((a, b))
    else:
        with pytest.raises(ValueError, match="^mixed group realizations$"):
            PeriodicMap((a, b))


def test_scale_examples():
    assert scale(4, 3) == 12
    assert scale(4, 0) == 0
    assert scale(4, -2) == -8
    assert scale(ModInt(2, 5), 4) == ModInt(3, 5)
    assert scale(IntVector((1, -1)), 3) == IntVector((3, -3))


def test_scale_matches_repeated_addition():
    rng = random.Random(31)
    for _ in range(200):
        kind = rng.randrange(3)
        if kind == 0:
            g = rng.randint(-50, 50)
        elif kind == 1:
            g = ModInt(rng.randint(-50, 50), rng.randint(1, 20))
        else:
            g = IntVector(tuple(rng.randint(-50, 50) for _ in range(rng.randint(1, 4))))
        n = rng.randint(-30, 30)
        expect = zero_like(g)
        step = g if n >= 0 else -g
        for _ in range(abs(n)):
            expect = expect + step
        assert scale(g, n) == expect


def test_scale_is_additive_in_the_count():
    rng = random.Random(32)
    for _ in range(100):
        g = ModInt(rng.randint(0, 100), rng.randint(1, 30))
        a = rng.randint(-20, 20)
        b = rng.randint(-20, 20)
        assert scale(g, a) + scale(g, b) == scale(g, a + b)


def test_group_axioms_samples():
    rng = random.Random(33)
    for _ in range(100):
        m = rng.randint(1, 25)
        a = ModInt(rng.randint(0, 99), m)
        b = ModInt(rng.randint(0, 99), m)
        c = ModInt(rng.randint(0, 99), m)
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a + (-a) == a.zero()
