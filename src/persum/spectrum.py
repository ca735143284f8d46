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

    @property
    def modulus(self) -> int:
        """N, the lcm of the periods and the spectrum's least common denominator."""
        return lcm_all(self.periods)

    @property
    def divisor_closure(self) -> tuple[int, ...]:
        """Every positive integer dividing at least one period, ascending."""
        return tuple(sorted({d for n in self.periods for d in divisors(n)}))


@dataclass(frozen=True)
class Spectrum:
    """Ascending reduced fractions, with the divisor closure as denominators."""

    elements: tuple[Fraction, ...]

    def __len__(self) -> int:
        return len(self.elements)


def build_spectrum(ps: PeriodSystem) -> Spectrum:
    """The distinct reduced values r/n_s over all periods, ascending; merged and
    sorted as the int numerators r*(N/n_s) over N, then made Fractions once."""
    n = ps.modulus
    numerators = sorted({r * (n // m) for m in ps.periods for r in range(m)})
    return Spectrum(tuple(Fraction(a, n) for a in numerators))


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


def _strict_int(value) -> int:
    """An integer from a document: a JSON int, or a string of ASCII digits
    after an optional leading '-'. Floats and booleans are not integers, and
    int() alone would also take spaces, '+', '_' and non-ASCII digits."""
    if isinstance(value, str):
        if value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
            return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"not an integer: {value!r}")


def parse_fraction(text: str) -> Fraction:
    """Inverse of fraction_str."""
    if not isinstance(text, str):
        raise ValueError(f"expected num/den, got {text!r}")
    num, sep, den = text.partition("/")
    if not sep or "/" in den:
        raise ValueError(f"expected num/den, got {text!r}")
    try:
        numerator = _strict_int(num)
        denominator = _strict_int(den)
    except ValueError:
        raise ValueError(f"expected num/den, got {text!r}") from None
    if denominator < 1:
        raise ValueError(f"denominator must be positive in {text!r}")
    return Fraction(numerator, denominator)
