"""Exact integer-coefficient polynomials and cyclotomic factor products.

Coefficients are stored in ascending degree order (constant term first);
printing is descending. All arithmetic stays in arbitrary-precision ints,
and division is only offered against divisors with a unit leading
coefficient. Cyclotomic and characteristic polynomials are both formed as
products of binomials (x^g - 1)^e_g, one O(degree) pass per factor.

>>> cyclotomic_poly(6)
IntPolynomial(coeffs=(1, -1, 1))
>>> print(cyclotomic_poly(6))
x^2 - x + 1
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .numth import check_positive, divisors, gcd_exponents
from .spectrum import PeriodSystem

# Below this many coefficients on either side, schoolbook convolution beats
# the packing overhead of Kronecker substitution.
_KRONECKER_CUTOFF = 32


@dataclass(frozen=True, init=False)
class IntPolynomial:
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i.

    Trailing zeros are trimmed on construction, so the zero polynomial is
    the empty tuple and the leading coefficient is never 0.
    """

    coeffs: tuple[int, ...]

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def coeff(self, i: int) -> int:
        """Coefficient of x^i, 0 beyond the stored range."""
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def evaluate(self, x: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * x + c
        return value

    def __add__(self, other: IntPolynomial) -> IntPolynomial:
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return IntPolynomial(out)

    def __sub__(self, other: IntPolynomial) -> IntPolynomial:
        return self + (-other)

    def __neg__(self) -> IntPolynomial:
        return IntPolynomial(-c for c in self.coeffs)

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(c * other for c in self.coeffs)
        if not isinstance(other, IntPolynomial):
            return NotImplemented
        if self.is_zero() or other.is_zero():
            return IntPolynomial()
        if min(len(self.coeffs), len(other.coeffs)) >= _KRONECKER_CUTOFF:
            return IntPolynomial(_kronecker_mul(self.coeffs, other.coeffs))
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return IntPolynomial(out)

    __rmul__ = __mul__

    def divmod_exact(self, q: IntPolynomial) -> tuple[IntPolynomial, IntPolynomial]:
        """Quotient and remainder against q, staying inside Z[x].

        q must be nonzero with leading coefficient 1 or -1; then
        self == q * quot + rem with deg rem < deg q holds exactly.
        """
        if q.is_zero() or q.coeffs[-1] not in (1, -1):
            raise ValueError(
                "inexact division: divisor must be nonzero with leading "
                "coefficient 1 or -1"
            )
        lead = q.coeffs[-1]
        qlen = len(q.coeffs)
        rem = list(self.coeffs)
        quot = [0] * max(len(rem) - qlen + 1, 0)
        for i in range(len(rem) - 1, qlen - 2, -1):
            c = rem[i]
            if not c:
                continue
            c *= lead
            shift = i - (qlen - 1)
            quot[shift] = c
            for j in range(qlen):
                rem[shift + j] -= c * q.coeffs[j]
        return IntPolynomial(quot), IntPolynomial(rem[: qlen - 1])

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            if i == 0:
                body = str(mag)
            else:
                var = "x" if i == 1 else f"x^{i}"
                body = var if mag == 1 else f"{mag}{var}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)


ONE = IntPolynomial((1,))
X = IntPolynomial((0, 1))


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Exact convolution via single big-int multiplication.

    Coefficients are packed into one integer per operand with enough slack
    bits that the product's balanced digits recover the signed result
    uniquely.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    bits = bound.bit_length() + 2  # keeps every |digit| < 2**(bits-1)
    packed = _pack(a, bits) * _pack(b, bits)
    out = []
    half = 1 << (bits - 1)
    full = 1 << bits
    mask = full - 1
    for _ in range(len(a) + len(b) - 1):
        digit = packed & mask
        if digit >= half:
            digit -= full
        out.append(digit)
        packed = (packed - digit) >> bits
    return out


def _pack(coeffs, bits: int) -> int:
    n = len(coeffs)
    if n == 1:
        return coeffs[0]
    half = n // 2
    return _pack(coeffs[:half], bits) + (_pack(coeffs[half:], bits) << (bits * half))


def x_power_minus_one(n: int) -> IntPolynomial:
    """x^n - 1."""
    check_positive(n, "n")
    return IntPolynomial([-1] + [0] * (n - 1) + [1])


def _binomial_product(exps: dict[int, int]) -> IntPolynomial:
    """prod_g (x^g - 1)^e_g, for signed exponents whose product is a polynomial.

    All multiplications come first, so every division that follows is
    exact: if q * (x^g - 1) == p then q_i = q_(i-g) - p_i.
    """
    p = [1]
    for g, e in exps.items():
        for _ in range(e):
            p = [a - b for a, b in zip([0] * g + p, p + [0] * g)]
    for g, e in exps.items():
        for _ in range(-e):
            p = [-c for c in p[: len(p) - g]]
            for i in range(g, len(p)):
                p[i] += p[i - g]
    return IntPolynomial(p)


@lru_cache(maxsize=None)
def cyclotomic_poly(d: int) -> IntPolynomial:
    """The d-th cyclotomic polynomial: x^d - 1 over the lcm of the x^e - 1
    for the proper divisors e of d.

    The result is monic of degree phi(d) with integer coefficients.
    """
    check_positive(d, "d")
    exps = {g: -e for g, e in gcd_exponents(divisors(d)[:-1]).items()}
    exps[d] = 1
    return _binomial_product(exps)


def characteristic_poly(ps: PeriodSystem) -> IntPolynomial:
    """The lcm of the x^(n_s) - 1 over the periods n_s, which is the product
    of the cyclotomic polynomials over the divisor closure.

    Monic with integer coefficients; its degree equals the spectrum size,
    and it divides x^N - 1 exactly for N = lcm(periods).
    """
    return _binomial_product(gcd_exponents(ps.periods))


def poly_powmod(base: IntPolynomial, exponent: int, modulus: IntPolynomial) -> IntPolynomial:
    """base**exponent reduced mod modulus, by binary exponentiation.

    modulus must satisfy the divmod_exact precondition (unit leading
    coefficient). Used to check divisibility of x^N - 1 at values of N far
    beyond what a dense remainder could handle.
    """
    if exponent < 0:
        raise ValueError("exponent must be nonnegative")
    result = ONE.divmod_exact(modulus)[1]
    acc = base.divmod_exact(modulus)[1]
    e = exponent
    while e:
        if e & 1:
            result = (result * acc).divmod_exact(modulus)[1]
        e >>= 1
        if e:
            acc = (acc * acc).divmod_exact(modulus)[1]
    return result
