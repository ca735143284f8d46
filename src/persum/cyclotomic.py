"""Exact integer-coefficient polynomials and cyclotomic factor products.

Coefficients are stored in ascending degree order (constant term first),
and all arithmetic stays in arbitrary-precision ints. Cyclotomic and
characteristic polynomials are both formed as products of binomials
(x^g - 1)^e_g, one O(degree) pass per factor. The one product of two
polynomials, with which `reconstruction._row` squares its row, is the
Kronecker substitution `_kronecker_mul`: one big-int multiplication.

>>> cyclotomic_poly(6)
IntPolynomial(coeffs=(1, -1, 1))
"""

from __future__ import annotations

from functools import lru_cache

from .numth import Record, check_positive, divisors, gcd_exponents
from .spectrum import PeriodSystem


class IntPolynomial(Record):
    """Dense integer polynomial; coeffs[i] is the coefficient of x^i.

    Trailing zeros are trimmed on construction, so the zero polynomial is
    the empty tuple and the leading coefficient is never 0.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coeffs", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree of the leading term; the zero polynomial has degree -1."""
        return len(self.coeffs) - 1

    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1


def _kronecker_mul(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """Exact convolution via single big-int multiplication.

    Each coefficient gets a digit of whole bytes, offset by half a digit
    so that it is nonnegative; no product coefficient reaches half a digit
    in size, so no digit carries. Packing is one from_bytes over the joined
    digits, and unpacking one to_bytes cut into slices. Neither operand
    may be all zeros.
    """
    bound = min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b))
    width = bound.bit_length() // 8 + 1  # bytes per digit: bound < half
    half = 1 << (8 * width - 1)
    halves = half.to_bytes(width, "little")

    def pack(coeffs) -> int:
        digits = b"".join([(c + half).to_bytes(width, "little") for c in coeffs])
        return int.from_bytes(digits, "little") - int.from_bytes(halves * len(coeffs), "little")

    n = len(a) + len(b) - 1
    product = pack(a) * pack(b) + int.from_bytes(halves * n, "little")
    digits = product.to_bytes(n * width, "little")
    return [int.from_bytes(digits[i:i + width], "little") - half
            for i in range(0, n * width, width)]


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

