"""The polynomial oracle of the tests: schoolbook products, exact division
and powers of x modulo a polynomial.

A polynomial is a sequence of int coefficients in ascending degree order
(constant term first); every result is a list with its trailing zeros
trimmed, so the zero polynomial is []. Nothing here is imported from
persum, so no check that uses this oracle shares a kernel with the code it
checks.
"""

from itertools import repeat
from operator import add, mul


def trim(coeffs) -> list[int]:
    """coeffs as a list, without trailing zeros."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def schoolbook_mul(a, b) -> list[int]:
    """The product of a and b by direct convolution, one shifted copy of b
    per nonzero coefficient of a, untrimmed: a product of nonempty operands
    has len(a) + len(b) - 1 coefficients."""
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    n = len(b)
    for i, ai in enumerate(a):
        if ai:
            out[i:i + n] = map(add, out[i:i + n], map(mul, repeat(ai), b))
    return out


def divmod_exact(a, q) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by q, staying inside Z[x].

    q must be nonempty with last coefficient 1 or -1; then
    a == q * quot + rem with deg rem < deg q holds exactly.
    """
    if not q or q[-1] not in (1, -1):
        raise ValueError("inexact division: divisor must be nonzero with leading "
                         "coefficient 1 or -1")
    lead, top = q[-1], len(q) - 1
    terms = [(j, qj) for j, qj in enumerate(q) if qj]
    rem = list(a)
    quot = [0] * max(len(rem) - top, 0)
    for shift in reversed(range(len(quot))):
        c = rem[shift + top] * lead
        quot[shift] = c
        if c:
            for j, qj in terms:
                rem[shift + j] -= c * qj
    return trim(quot), trim(rem[:top])


def x_powmod(e: int, q) -> list[int]:
    """x^e mod q, powered left to right: each bit of e, from the top,
    squares the result by schoolbook_mul and, when set, shifts it once;
    each step is reduced by divmod_exact. q is a divisor divmod_exact
    takes."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    result = divmod_exact([1], q)[1]
    for i in reversed(range(e.bit_length())):
        result = divmod_exact(schoolbook_mul(result, result), q)[1]
        if e >> i & 1:
            result = divmod_exact([0] + result, q)[1]
    return result
