"""The spectrum of a period list: every reduced fraction r/n_s in [0, 1).

The size of the spectrum is the window length for all reconstruction and
constancy machinery in this package, so it can be computed three independent
ways: by direct enumeration, by a totient sum over the divisor closure, and
by inclusion-exclusion over gcds of period subsets. The test suite requires
the three to agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .numth import check_positive, divisors, euler_phi, gcd_exponents, lcm_all


@dataclass(frozen=True)
class PeriodSystem:
    """An ordered tuple of positive periods; duplicates are allowed."""

    periods: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "periods", tuple(self.periods))
        if not self.periods:
            raise ValueError("empty period list")
        for n in self.periods:
            check_positive(n, "period")

    def __len__(self) -> int:
        return len(self.periods)


@dataclass(frozen=True)
class Spectrum:
    """Ascending reduced fractions with their common structure.

    modulus is the lcm N of the periods, which is also the least common
    denominator of the elements. divisor_closure lists every positive
    integer dividing at least one period; it equals the set of denominators
    that actually occur among the elements.
    """

    elements: tuple[Fraction, ...]
    modulus: int
    divisor_closure: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.elements)


def build_spectrum(ps: PeriodSystem) -> Spectrum:
    """Collect the distinct reduced values r/n_s over all periods, ascending."""
    values = {Fraction(r, n) for n in ps.periods for r in range(n)}
    closure = sorted({d for n in ps.periods for d in divisors(n)})
    return Spectrum(tuple(sorted(values)), lcm_all(ps.periods), tuple(closure))


def size_by_phi(ps: PeriodSystem) -> int:
    """Spectrum size as the totient sum over the divisor closure."""
    closure = {d for n in ps.periods for d in divisors(n)}
    return sum(euler_phi(d) for d in closure)


def size_by_inclusion_exclusion(ps: PeriodSystem) -> int:
    """Spectrum size as the signed sum of gcds over nonempty period subsets,
    merged per distinct gcd by gcd_exponents instead of listed."""
    return sum(g * e for g, e in gcd_exponents(ps.periods).items())


def fraction_str(value: Fraction) -> str:
    """Serialize as "num/den" with the denominator always spelled out."""
    return f"{value.numerator}/{value.denominator}"


def parse_fraction(text: str) -> Fraction:
    """Inverse of fraction_str."""
    num, sep, den = text.partition("/")
    if not sep or "/" in den:
        raise ValueError(f"expected num/den, got {text!r}")
    try:
        numerator = int(num)
        denominator = int(den)
    except ValueError:
        raise ValueError(f"expected num/den, got {text!r}") from None
    if denominator < 1:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(numerator, denominator)
