"""The spectrum of a period list: every reduced fraction r/n_s in [0, 1).

The size of the spectrum is the window length for all reconstruction and
constancy machinery in this package, so it can be computed three independent
ways: by direct enumeration, by a totient sum over the divisor closure, and
by inclusion-exclusion over gcds of period subsets. The test suite requires
the three to agree.

A spectrum is held as ints over N, and `fractions` is imported only where a
Fraction is made (`Spectrum.elements`, `parse_fraction`), so a command that
writes a spectrum loads neither `fractions` nor the `decimal` it imports.
"""

from __future__ import annotations

import math

from .numth import Record, check_positive, divisors, euler_phi, gcd_exponents, lcm_all, strict_int


class PeriodSystem(Record):
    """An ordered tuple of positive periods; duplicates are allowed."""

    __slots__ = ("periods",)

    def __init__(self, periods: tuple[int, ...]):
        periods = tuple(periods)
        if not periods:
            raise ValueError("empty period list")
        for n in periods:
            check_positive(n, "period")
        object.__setattr__(self, "periods", periods)

    def __len__(self) -> int:
        return len(self.periods)

    @property
    def modulus(self) -> int:
        """N, the lcm of the periods and the spectrum's least common denominator."""
        return lcm_all(self.periods)

    @property
    def divisor_closure(self) -> tuple[int, ...]:
        """Every positive integer dividing at least one period, ascending."""
        return tuple(sorted({d for n in self.periods for d in divisors(n)}))


class Spectrum(Record):
    """Ascending values in [0, 1), held as their int numerators over the
    common denominator `modulus`, N. Its denominators are the divisor closure
    of the periods, whose lcm is N, so equal spectra have equal fields.
    `elements` and `labels()` make the fractions and their text on request."""

    __slots__ = ("modulus", "numerators")

    def __init__(self, modulus: int, numerators: tuple[int, ...]):
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "numerators", tuple(numerators))

    def __len__(self) -> int:
        return len(self.numerators)

    @property
    def elements(self) -> tuple[Fraction, ...]:
        """The values as reduced Fractions, ascending; built on each read."""
        from fractions import Fraction

        n = self.modulus
        return tuple(Fraction(a, n) for a in self.numerators)

    def labels(self) -> list[str]:
        """The values' `fraction_str` text, "num/den" in lowest terms,
        written from the ints without a Fraction."""
        n, gcd = self.modulus, math.gcd
        return [f"{a // g}/{n // g}" for a in self.numerators for g in (gcd(a, n),)]


def build_spectrum(ps: PeriodSystem) -> Spectrum:
    """The distinct reduced values r/n_s over all periods, ascending, as the
    int numerators r*(N/n_s) over N = ps.modulus; no Fraction is built."""
    n = ps.modulus
    return Spectrum(n, sorted({r * (n // m) for m in ps.periods for r in range(m)}))


def size_by_phi(ps: PeriodSystem) -> int:
    """Spectrum size as the totient sum over the divisor closure."""
    return sum(euler_phi(d) for d in ps.divisor_closure)


def size_by_inclusion_exclusion(ps: PeriodSystem) -> int:
    """Spectrum size as the signed sum of gcds over nonempty period subsets,
    merged per distinct gcd by gcd_exponents instead of listed."""
    return sum(g * e for g, e in gcd_exponents(ps.periods).items())


def fraction_str(value: Fraction) -> str:
    """Serialize as "num/den" with the denominator always spelled out."""
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of fraction_str."""
    if not isinstance(text, str):
        raise ValueError(f"expected num/den, got {text!r}")
    num, sep, den = text.partition("/")
    if not sep or "/" in den:
        raise ValueError(f"expected num/den, got {text!r}")
    try:
        numerator = strict_int(num)
        denominator = strict_int(den)
    except ValueError:
        raise ValueError(f"expected num/den, got {text!r}") from None
    if denominator < 1:
        raise ValueError(f"denominator must be positive in {text!r}")
    from fractions import Fraction

    return Fraction(numerator, denominator)
