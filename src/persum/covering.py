"""Finite systems of residue classes and their covering multiplicities.

The covering multiplicity of an integer is how many classes of the system
contain it. Because each class contributes a periodic indicator map, the
multiplicity is a sum of periodic maps, and l consecutive multiplicities,
for l the spectrum size of the moduli (window_length), determine it on
all of Z: the paper's l-value certificate for that sum. That yields
two window tests: membership of every multiplicity in a fixed residue
class, and a gcd identity for systems whose divisibility-maximal moduli
are pairwise distinct.

Every window comes from multiplicity_window, which marks each class's
members instead of testing every class at every position: L + sum(L/n_s + 1)
steps for a window of length L, against L*k for k classes. Its values are
multiplicities, 0 to k, so a window holds at most k + 1 distinct values,
and both verdicts (all_in_class, window_gcd) are taken over those.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable

from .numth import Record, check_int, check_positive, strict_int
from .reconstruction import PeriodicMap, check_size
from .spectrum import PeriodSystem, size_by_inclusion_exclusion
from .spectrum import size_by_phi  # noqa: F401  perfbench/tracing.py wraps it by name


class ResidueClass(Record):
    """The arithmetic progression residue + modulus * Z, normalized."""

    __slots__ = ("residue", "modulus")

    def __init__(self, residue: int, modulus: int):
        check_positive(modulus, "modulus")
        check_int(residue, "residue")
        object.__setattr__(self, "residue", residue % modulus)
        object.__setattr__(self, "modulus", modulus)

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.residue

    def indicator_map(self) -> PeriodicMap:
        """The 0/1-valued periodic map that is 1 exactly on this class."""
        return PeriodicMap(
            tuple(1 if r == self.residue else 0 for r in range(self.modulus))
        )

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"


class ResidueSystem(Record):
    """A nonempty list of residue classes; duplicates are allowed."""

    __slots__ = ("classes",)

    def __init__(self, classes: tuple[ResidueClass, ...]):
        classes = tuple(classes)
        if not classes:
            raise ValueError("empty residue system")
        object.__setattr__(self, "classes", classes)

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(cls.modulus for cls in self.classes)

    @property
    def period_system(self) -> PeriodSystem:
        return PeriodSystem(self.moduli)

    def window_length(self) -> int:
        """l, the spectrum size of the moduli, counted by the rule of every
        window, size_by_inclusion_exclusion, once check_size has passed: an
        oversized system raises TableSizeError before any window is filled."""
        ps = self.period_system
        check_size(ps)
        return size_by_inclusion_exclusion(ps)


class WindowClassResult(Record):
    """Verdict of a multiplicity window test, with the inspected values."""

    __slots__ = ("ok", "window", "start")

    def __init__(self, ok: bool, window: tuple[int, ...], start: int):
        object.__setattr__(self, "ok", ok)
        object.__setattr__(self, "window", window)
        object.__setattr__(self, "start", start)

    def __bool__(self) -> bool:
        return self.ok


def multiplicity(sys: ResidueSystem, x: int) -> int:
    """How many classes of the system contain x."""
    return sum(1 for cls in sys.classes if cls.contains(x))


def multiplicity_window(sys: ResidueSystem, start: int, length: int) -> list[int]:
    """The multiplicities at start, ..., start+length-1.

    Each class is a periodic 0/1 indicator map, so the window is a sum of
    indicator windows; at length window_length() it is the paper's l-value
    certificate for that sum. Each class adds 1 at each of its members in
    the window, found by one reduction and a stride of its modulus, so the
    cost is L + sum(L/n_s + 1) steps for L = length, not L*k reductions.
    """
    window = [0] * length
    for cls in sys.classes:
        for i in range((cls.residue - start) % cls.modulus, length, cls.modulus):
            window[i] += 1
    return window


def window_class_check(sys: ResidueSystem, m: int, a: int, start: int) -> WindowClassResult:
    """Test the multiplicities at start, ..., start+|S|-1 against a (mod m).

    A passing window certifies that the multiplicity of every integer lies
    in a (mod m); the certificate carries the window values actually seen.
    """
    check_positive(m, "m")
    window = tuple(multiplicity_window(sys, start, sys.window_length()))
    return WindowClassResult(all_in_class(set(window), m, a), window, start)


def all_in_class(values: Iterable[int], m: int, a: int) -> bool:
    """Whether every value lies in a (mod m), for m >= 1."""
    a %= m
    return all(v % m == a for v in values)


def odd_cover_check(sys: ResidueSystem, start: int = 0) -> bool:
    """Whether a spectrum-length window shows every multiplicity odd.

    True certifies that the system covers every integer an odd number of
    times.
    """
    return window_class_check(sys, 2, 1, start).ok


def maximal_moduli_distinct(sys: ResidueSystem) -> bool:
    """Whether the divisibility-maximal moduli carry no repeated value.

    A modulus is maximal when it divides no other modulus of the multiset
    apart from copies of itself; each must occur exactly once. Repeats among
    non-maximal moduli are irrelevant.
    """
    counts = Counter(sys.moduli)
    return all(
        counts[n] == 1 for n in counts
        if not any(other != n and other % n == 0 for other in counts)
    )


def gcd_window(sys: ResidueSystem, a: int, b: int) -> int:
    """gcd of multiplicity(a+r) + b over a spectrum-length window.

    When the system has more than one class and its maximal moduli are
    distinct, the result is 1 for every a and b. The precondition is
    reported by maximal_moduli_distinct, not enforced here. An all-zero
    window comes back as 0.
    """
    return window_gcd(multiplicity_window(sys, a, sys.window_length()), b)


def window_gcd(window: Iterable[int], b: int) -> int:
    """gcd of w + b over the window's distinct values w; 0 when every w + b is 0."""
    return math.gcd(*[v + b for v in set(window)])


def parse_residue_system(text: str) -> ResidueSystem:
    """Read a residue system from either of the two interchange formats.

    Text format: one "a mod n" class per line; blank lines and lines whose
    first nonblank character is '#' are ignored. JSON format: an array of
    [a, n] pairs (numbers or decimal strings); detected by a leading '['.
    """
    stripped = text.lstrip()
    if stripped.startswith("["):
        return _parse_json_system(stripped)
    classes = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.strip()
        if not body or body.startswith("#"):
            continue
        parts = body.split()
        where, form = f"line {lineno}", f"expected 'a mod n', got {line!r}"
        if len(parts) != 3 or parts[1] != "mod":
            raise ValueError(f"{where}: {form}")
        classes.append(_read_class(parts[0], parts[2], where, form))
    if not classes:
        raise ValueError("no residue classes found")
    return ResidueSystem(tuple(classes))


def _parse_json_system(text: str) -> ResidueSystem:
    import json  # here alone, so `import persum` loads no json

    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"bad JSON residue system: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ValueError("JSON residue system must be a nonempty array of [a, n] pairs")
    classes = []
    for i, pair in enumerate(data):
        where, form = f"entry {i}", f"expected an [a, n] pair, got {pair!r}"
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"{where}: {form}")
        classes.append(_read_class(*pair, where, form))
    return ResidueSystem(tuple(classes))


def _read_class(residue, modulus, where: str, form: str) -> ResidueClass:
    """The class of two strict integers; errors start with where, and form
    is the complaint when either is not an integer."""
    try:
        residue, modulus = strict_int(residue), strict_int(modulus)
    except ValueError:
        raise ValueError(f"{where}: {form}") from None
    if modulus < 1:
        raise ValueError(f"{where}: modulus must be positive, got {modulus}")
    return ResidueClass(residue, modulus)
