"""Finite systems of residue classes and their covering multiplicities.

The covering multiplicity of an integer is how many classes of the system
contain it. Because each class contributes a periodic indicator map, the
multiplicity is a sum of periodic maps, and a spectrum-length window of
multiplicities determines its behaviour on all of Z: the window is the
paper's l-value certificate for that sum. That yields two window tests:
membership of every multiplicity in a fixed residue class, and a gcd
identity for systems whose divisibility-maximal moduli are pairwise
distinct.

Every window comes from multiplicity_window, which marks each class's
members instead of testing every class at every position: L + sum(L/n_s + 1)
steps for a window of length L, against L*k for k classes.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .numth import check_positive
from .reconstruction import PeriodicMap
from .spectrum import PeriodSystem, _strict_int, size_by_phi


@dataclass(frozen=True)
class ResidueClass:
    """The arithmetic progression residue + modulus * Z, normalized."""

    residue: int
    modulus: int

    def __post_init__(self):
        check_positive(self.modulus, "modulus")
        object.__setattr__(self, "residue", self.residue % self.modulus)

    def contains(self, x: int) -> bool:
        return x % self.modulus == self.residue

    def indicator_map(self) -> PeriodicMap:
        """The 0/1-valued periodic map that is 1 exactly on this class."""
        return PeriodicMap(
            tuple(1 if r == self.residue else 0 for r in range(self.modulus))
        )

    def __str__(self) -> str:
        return f"{self.residue} mod {self.modulus}"


@dataclass(frozen=True)
class ResidueSystem:
    """A nonempty list of residue classes; duplicates are allowed."""

    classes: tuple[ResidueClass, ...]

    def __post_init__(self):
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes:
            raise ValueError("empty residue system")

    @property
    def moduli(self) -> tuple[int, ...]:
        return tuple(cls.modulus for cls in self.classes)

    @property
    def period_system(self) -> PeriodSystem:
        return PeriodSystem(self.moduli)

    def window_length(self) -> int:
        """The spectrum size of the moduli: how many consecutive
        multiplicities pin down the covering behaviour everywhere."""
        return size_by_phi(self.period_system)


@dataclass(frozen=True)
class WindowClassResult:
    """Verdict of a multiplicity window test, with the inspected values."""

    ok: bool
    window: tuple[int, ...]
    start: int

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
    ok = all(w % m == a % m for w in window)
    return WindowClassResult(ok, window, start)


def odd_cover_check(sys: ResidueSystem, start: int = 0) -> bool:
    """Whether a spectrum-length window shows every multiplicity odd.

    True certifies that the system covers every integer an odd number of
    times.
    """
    return window_class_check(sys, 2, 1, start).ok


def maximal_moduli_distinct(sys: ResidueSystem) -> bool:
    """Whether the divisibility-maximal moduli carry no repeated value.

    A modulus is maximal when it divides no other modulus of the multiset
    apart from copies of itself. Repeats among non-maximal moduli are
    irrelevant.
    """
    moduli = sys.moduli
    maximal = [
        n for n in moduli
        if not any(other != n and other % n == 0 for other in moduli)
    ]
    return len(maximal) == len(set(maximal))


def gcd_window(sys: ResidueSystem, a: int, b: int) -> int:
    """gcd of multiplicity(a+r) + b over a spectrum-length window.

    When the system has more than one class and its maximal moduli are
    distinct, the result is 1 for every a and b. The precondition is
    reported by maximal_moduli_distinct, not enforced here. An all-zero
    window comes back as 0.
    """
    return math.gcd(*(w + b for w in multiplicity_window(sys, a, sys.window_length())))


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
        if len(parts) != 3 or parts[1] != "mod":
            raise ValueError(f"line {lineno}: expected 'a mod n', got {line!r}")
        try:
            residue, modulus = _strict_int(parts[0]), _strict_int(parts[2])
        except ValueError:
            raise ValueError(f"line {lineno}: expected 'a mod n', got {line!r}") from None
        if modulus < 1:
            raise ValueError(f"line {lineno}: modulus must be positive, got {modulus}")
        classes.append(ResidueClass(residue, modulus))
    if not classes:
        raise ValueError("no residue classes found")
    return ResidueSystem(tuple(classes))


def _parse_json_system(text: str) -> ResidueSystem:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ValueError(f"bad JSON residue system: {exc}") from exc
    if not isinstance(data, list) or not data:
        raise ValueError("JSON residue system must be a nonempty array of [a, n] pairs")
    classes = []
    for i, pair in enumerate(data):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ValueError(f"entry {i}: expected an [a, n] pair, got {pair!r}")
        try:
            residue, modulus = (_strict_int(v) for v in pair)
        except ValueError:
            raise ValueError(f"entry {i}: expected an [a, n] pair, got {pair!r}") from None
        if modulus < 1:
            raise ValueError(f"entry {i}: modulus must be positive, got {modulus}")
        classes.append(ResidueClass(residue, modulus))
    return ResidueSystem(tuple(classes))
