"""Independent checks of persum's JSON answers.

None of this imports persum. Each check recounts the answer by the most
direct route available and returns None when the document is right, or a
one-line reason when it is not:

- tables: every row dotted with the first l values of a random integer map
  equals that map's value, and the first l rows form the identity block;
- extrapolated values: direct evaluation of the generated components;
- charpoly: monic of degree l, where l counts distinct reduced fractions, and
  divisible by each x^n - 1 (folding the coefficients mod n leaves zeros).
  Together these force P = lcm of the x^n - 1;
- spectrum: the reduced fractions themselves;
- cover: windows, verdicts and gcd recounted class by class;
- finewilf: the difference gcd over a whole common period.
"""

from __future__ import annotations

import math
from fractions import Fraction

from workloads import Op, psi_at


def reduced_fractions(periods) -> set[tuple[int, int]]:
    out = set()
    for n in set(periods):
        for r in range(n):
            g = math.gcd(r, n)
            out.add((r // g, n // g))
    return out


def brute_divisor_closure(periods) -> list[int]:
    return [d for d in range(1, max(periods) + 1) if any(n % d == 0 for n in periods)]


def ints(strings) -> list[int]:
    return [int(s) for s in strings]


def check(op: Op, doc) -> str | None:
    """None if doc answers op correctly, else the first discrepancy found."""
    try:
        return CHECKS[op.kind](op, doc)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return f"malformed document: {exc!r}"


def check_coeffs(op: Op, doc) -> str | None:
    periods = op.expect["periods"]
    n, l = math.lcm(*periods), len(reduced_fractions(periods))
    if int(doc["N"]) != n or int(doc["l"]) != l:
        return f"N, l = {doc['N']}, {doc['l']}; expected {n}, {l}"
    rows = doc["rows"]
    if len(rows) != n:
        return f"{len(rows)} rows, expected {n}"
    initial = [psi_at(op.expect["psi"], ("int",), r) for r in range(l)]
    for x, row in enumerate(rows):
        row = ints(row)
        if len(row) != l:
            return f"row {x} has {len(row)} entries, expected {l}"
        if x < l and row != [int(c == x) for c in range(l)]:
            return f"row {x} breaks the identity block"
        if sum(c * v for c, v in zip(row, initial)) != psi_at(op.expect["psi"], ("int",), x):
            return f"row {x} dotted with psi(0..l-1) is not psi({x})"
    return None


def check_extrapolate(op: Op, doc) -> str | None:
    group, value = op.expect["group"], op.expect["value"]
    got = ints(doc["value"]) if group[0] == "vec" else int(doc["value"])
    if doc["group"] != group[0] or int(doc["x"]) != op.expect["x"]:
        return "group or x echoed wrong"
    if got != value:
        return f"value {got} at x={op.expect['x']}, expected {value}"
    return None


def check_charpoly(op: Op, doc) -> str | None:
    periods = op.expect["periods"]
    coeffs = ints(doc["charpoly"])
    l = len(reduced_fractions(periods))
    if len(coeffs) != l + 1 or coeffs[-1] != 1 or int(doc["degree"]) != l:
        return f"not monic of degree {l}"
    for n in set(periods):
        folded = [0] * n
        for i, c in enumerate(coeffs):
            folded[i % n] += c
        if any(folded):
            return f"not divisible by x^{n} - 1"
    if ints(doc["divisor_closure"]) != brute_divisor_closure(periods):
        return "wrong divisor closure"
    return None


def check_spectrum(op: Op, doc) -> str | None:
    periods = op.expect["periods"]
    pairs = [tuple(int(part) for part in s.split("/")) for s in doc["elements"]]
    if set(pairs) != reduced_fractions(periods) or len(pairs) != len(set(pairs)):
        return "elements are not the distinct reduced fractions"
    if any(Fraction(*a) >= Fraction(*b) for a, b in zip(pairs, pairs[1:])):
        return "elements not ascending"
    l = len(pairs)
    sizes = [int(doc[k]) for k in ("size_enumerated", "size_phi", "size_inclusion_exclusion")]
    if sizes != [l] * 3 or doc["sizes_agree"] is not True:
        return f"sizes {sizes}, expected {l}"
    if int(doc["modulus"]) != math.lcm(*periods):
        return "wrong modulus"
    if ints(doc["divisor_closure"]) != brute_divisor_closure(periods):
        return "wrong divisor closure"
    return None


def multiplicities(classes, start: int, length: int) -> list[int]:
    """How many classes contain each of start, ..., start+length-1, counted by
    stepping through each class's members in the window."""
    counts = [0] * length
    for a, n in classes:
        for i in range((a - start) % n, length, n):
            counts[i] += 1
    return counts


def check_cover(op: Op, doc) -> str | None:
    classes, extra = op.expect["classes"], op.expect["extra"]
    length = len(reduced_fractions([n for _, n in classes]))
    window = multiplicities(classes, 0, length)
    if int(doc["window_length"]) != length or ints(doc["window"]) != window:
        return "wrong multiplicity window"
    moduli = [n for _, n in classes]
    maximal = [n for n in moduli if not any(m != n and m % n == 0 for m in moduli)]
    if doc["maximal_moduli_distinct"] != (len(maximal) == len(set(maximal))):
        return "wrong maximal-moduli verdict"
    if "--odd" in extra and doc["odd_cover"] != all(w % 2 for w in window):
        return "wrong odd-cover verdict"
    if "--check" in extra:
        i = extra.index("--check")
        m, a = int(extra[i + 1]), int(extra[i + 2])
        check_doc = doc["class_check"]
        if check_doc["ok"] != all(w % m == a % m for w in window) or ints(check_doc["window"]) != window:
            return "wrong class-check verdict"
    if "--gcd-window" in extra:
        i = extra.index("--gcd-window")
        a, b = int(extra[i + 1]), int(extra[i + 2])
        value = math.gcd(*(w + b for w in multiplicities(classes, a, length)))
        if int(doc["gcd_window"]["value"]) != value:
            return f"gcd window {doc['gcd_window']['value']}, expected {value}"
    return None


def check_finewilf(op: Op, doc) -> str | None:
    first, second = op.expect["first"], op.expect["second"]
    period = math.lcm(len(first), len(second))
    value = math.gcd(*(first[x % len(first)] - second[x % len(second)] for x in range(period)))
    if int(doc["difference_gcd"]) != value or doc["identical"] != (value == 0):
        return f"difference gcd {doc['difference_gcd']}, expected {value}"
    return None


CHECKS = {
    "coeffs": check_coeffs,
    "extrapolate": check_extrapolate,
    "charpoly": check_charpoly,
    "spectrum": check_spectrum,
    "cover": check_cover,
    "finewilf": check_finewilf,
}


def max_int_bits(doc) -> int:
    """Bit length of the largest integer written as a decimal string in doc."""
    if isinstance(doc, dict):
        return max((max_int_bits(v) for v in doc.values()), default=0)
    if isinstance(doc, list):
        return max((max_int_bits(v) for v in doc), default=0)
    if isinstance(doc, str) and doc.lstrip("-").isdigit():
        return int(doc).bit_length()
    return 0
