"""Additive abelian values the reconstruction machinery can range over.

A group value needs zero() (its group's identity), binary +, unary - and
==; any class with these runs through the same code path. The zero
identifies the group: two values may be added exactly when their zeros are
equal. Integer scaling is derived from + and - by scale(), so a
realization never implements multiplication itself. Three ship here:

  * plain Python ints (the group Z), whose zero_like() is 0,
  * ModInt, integers mod m for m >= 1 (the group Z_m), whose zero carries m,
  * IntVector, integer vectors of dimension d (the group Z^d), whose zero
    carries d.
"""

from __future__ import annotations

from dataclasses import dataclass

from .numth import check_positive


@dataclass(frozen=True)
class ModInt:
    """A residue in Z_m, normalized to [0, m)."""

    value: int
    modulus: int

    def __post_init__(self):
        check_positive(self.modulus, "modulus")
        object.__setattr__(self, "value", self.value % self.modulus)

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


@dataclass(frozen=True)
class IntVector:
    """An integer vector; addition is componentwise."""

    entries: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        if not self.entries:
            raise ValueError("empty vector")

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


def same_realization(a, b) -> bool:
    """Whether a and b live in the same group and may be added: exactly when
    their zeros are equal, so an int (zero 0) never matches a ModInt or an
    IntVector, and True counts as an int."""
    return zero_like(a) == zero_like(b)


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
