"""Exact elementary number theory used throughout the package.

Everything operates on plain Python ints (arbitrary precision), so nothing
here can overflow. Positive arguments are validated at entry points rather
than wrapped in a dedicated integer type, and strict_int is the one way
outside text, on the command line or in a document, becomes an integer.

Record, the immutable base of the package's value classes, lives here too:
every module imports numth, and a module of its own would cost an import.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from operator import attrgetter


class Record:
    """An immutable value whose fields are its class's __slots__, in
    constructor order. Equality (same class only), the hash and the repr
    read the fields; a subclass may name the compared ones with compare=.
    Its __init__ checks and normalizes its arguments, then stores each with
    object.__setattr__; unpickling and copying call the constructor again."""

    __slots__ = ()

    def __init_subclass__(cls, compare: tuple[str, ...] = ()):
        # an attrgetter is no method, so it is called as self._key(self)
        cls._key = attrgetter(*(compare or cls.__slots__))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        key = self._key
        return key(self) == key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        # the default route would unpickle or copy by assigning each field
        return type(self), tuple([getattr(self, name) for name in self.__slots__])


def check_int(n: int, what: str = "value") -> int:
    """Return n unchanged, raising ValueError unless it is an int; a bool is not."""
    if not isinstance(n, int) or isinstance(n, bool):
        raise ValueError(f"{what} must be an integer, got {n!r}")
    return n


def check_positive(n: int, what: str = "value") -> int:
    """Return n unchanged, raising ValueError unless it is an int >= 1."""
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return n


def strict_int(value) -> int:
    """An integer from outside the program: a string of ASCII digits after an
    optional leading '-', or a JSON int. Floats and booleans are not integers,
    and int() alone would also take spaces, '+', '_' and non-ASCII digits."""
    if isinstance(value, str):
        if value.isascii() and (value.isdigit() or value[:1] == "-" and value[1:].isdigit()):
            return int(value)
    elif isinstance(value, int) and not isinstance(value, bool):
        return value
    raise ValueError(f"not an integer: {value!r}")


def strict_ints(texts: list[str]) -> list[int]:
    """strict_int of each string, in order. Over ASCII digits and '-', int()
    takes exactly the strings strict_int takes: '-' can only be a leading
    sign, and nothing else int() would take is there. So where the join of
    the strings is such text, the rule is tested once and int() reads each
    string in C; otherwise strict_int refuses the first that breaks it."""
    joined = "".join(texts)
    if joined.isascii() and joined.replace("-", "").isdigit():
        try:
            return list(map(int, texts))
        except ValueError:  # a '-' out of place, or an empty string
            pass
    return list(map(strict_int, texts))


def gcd_exponents(values: Iterable[int]) -> dict[int, int]:
    """Signed gcd counts: e_g sums (-1)^(|T|+1) over the nonempty subsets T
    of values with gcd(T) == g; zero entries are dropped.

    sum(g * e_g) is the inclusion-exclusion size of the union of the
    (1/v)Z/Z, and prod (x^g - 1)^e_g is the lcm of the x^v - 1, which fixes
    the e_g and ignores repeats. So each distinct value is folded in once,
    at one gcd per distinct gcd so far instead of one per subset.
    """
    exps: dict[int, int] = {}
    for v in sorted(set(values)):
        step = {v: 1}
        for g, e in exps.items():
            h = math.gcd(g, v)
            step[h] = step.get(h, 0) - e
        for g, e in step.items():
            e += exps.pop(g, 0)
            if e:
                exps[g] = e
    return exps


def lcm_all(values: Sequence[int]) -> int:
    """Least common multiple of a nonempty list of positive integers."""
    if not values:
        raise ValueError("empty period list")
    for v in values:
        check_positive(v, "period")
    return math.lcm(*values)


def euler_phi(n: int) -> int:
    """Euler's totient: count of integers in [1, n] coprime to n; phi(1) == 1."""
    check_positive(n, "n")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            result -= result // p
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        result -= result // m
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order.

    Trial division up to sqrt(n); the periods this package deals with are
    desk-scale, so factorization speed is irrelevant.
    """
    check_positive(n, "n")
    small = []
    large = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            small.append(d)
            if d != n // d:
                large.append(n // d)
        d += 1
    large.reverse()
    return small + large
