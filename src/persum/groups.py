"""Additive abelian values the reconstruction machinery can range over.

A group value needs zero() (its group's identity), binary +, unary - and
==; any class with these runs through the same code path. The zero
identifies the group: two values may be added exactly when their zeros are
equal. Integer scaling is derived from + and - by scale(), so a
realization never implements multiplication itself. Two classes ship
here: ModInt, integers mod m >= 1 (Z_m), whose zero carries m, and
IntVector, integer vectors of dimension d (Z^d), whose zero carries d.

Plain ints (Z, whose zero_like() is 0) and points of Z^d as plain tuples
of d ints need no class: `reconstruction._initial_kind`, the one value
rule of maps, sums, windows and extrapolate, takes them, a bool never as
an int, and extrapolate rebuilds them by one int dot product per
coordinate, as the CLI does each of its groups (Z_m as Z, reduced once).
A group value takes the scale() route.
"""

from __future__ import annotations

from .numth import Record, check_int, check_positive


class ModInt(Record):
    """A residue in Z_m, normalized to [0, m)."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int):
        check_positive(modulus, "modulus")
        check_int(value)
        object.__setattr__(self, "value", value % modulus)
        object.__setattr__(self, "modulus", modulus)

    def zero(self) -> ModInt:
        return ModInt(0, self.modulus)

    def __add__(self, other: ModInt) -> ModInt:
        if not isinstance(other, ModInt):
            return NotImplemented
        if self.modulus != other.modulus:
            raise ValueError("mixed moduli")
        return ModInt(self.value + other.value, self.modulus)

    def __neg__(self) -> ModInt:
        return ModInt(-self.value, self.modulus)

    def __sub__(self, other: ModInt) -> ModInt:
        return self + (-other)

    def __str__(self) -> str:
        return f"{self.value} (mod {self.modulus})"


class IntVector(Record):
    """An integer vector; addition is componentwise."""

    __slots__ = ("entries",)

    def __init__(self, entries: tuple[int, ...]):
        entries = tuple(entries)
        if not entries:
            raise ValueError("empty vector")
        for a in entries:
            check_int(a, "vector entry")
        object.__setattr__(self, "entries", entries)

    @property
    def dimension(self) -> int:
        return len(self.entries)

    def zero(self) -> IntVector:
        return IntVector((0,) * len(self.entries))

    def __add__(self, other: IntVector) -> IntVector:
        if not isinstance(other, IntVector):
            return NotImplemented
        if len(self.entries) != len(other.entries):
            raise ValueError("mixed vector dimensions")
        return IntVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __neg__(self) -> IntVector:
        return IntVector(tuple(-a for a in self.entries))

    def __sub__(self, other: IntVector) -> IntVector:
        return self + (-other)

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


def zero_like(g):
    """The additive identity of g's group: 0 for an int, g.zero() otherwise."""
    if isinstance(g, int):
        return 0
    return g.zero()


def scale(g, n: int):
    """The n-fold group sum of g, for any integer n.

    Derived from addition and negation alone by binary doubling, so large
    positive or negative table coefficients cost O(log |n|) group
    additions regardless of the realization.
    """
    if n < 0:
        g = -g
        n = -n
    acc = zero_like(g)
    while n:
        if n & 1:
            acc = acc + g
        n >>= 1
        if n:
            g = g + g
    return acc
