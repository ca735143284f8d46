"""Universal integer tables that rebuild sums of periodic maps.

Given periods (n_1, ..., n_k) with spectrum size l and lcm N, the table
holds N rows of l integers. Row n stores the coordinates of the value at n
of any map that decomposes as a sum of maps with these periods: the first
l rows form an identity block, every later row is the fixed linear
recurrence applied to its l predecessors, and arguments outside [0, N) wrap
around through the least nonnegative residue mod N. The recurrence
coefficients come from the characteristic polynomial by flipping the signs
of everything below the leading term.

The rows depend only on the spectrum, never on how the periods were
listed, so one table serves every period system with the same divisor
closure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cyclotomic import IntPolynomial, characteristic_poly
from .groups import same_realization, scale, zero_like
from .spectrum import (
    PeriodSystem,
    Spectrum,
    build_spectrum,
    fraction_str,
    parse_fraction,
)

DEFAULT_MAX_ROWS = 10**6


class TableSizeError(ValueError):
    """The requested table would exceed the row cap."""


@dataclass(frozen=True)
class PeriodicMap:
    """A map from Z to a group, given by its values at 0, ..., period-1."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a periodic map needs at least one value")
        first = self.values[0]
        for v in self.values[1:]:
            if not same_realization(first, v):
                raise ValueError("mixed group realizations")

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, x: int):
        return self.values[x % len(self.values)]


@dataclass(frozen=True)
class SumOfPeriodicMaps:
    """The pointwise group sum of one or more periodic maps."""

    components: tuple[PeriodicMap, ...]

    def __post_init__(self):
        object.__setattr__(self, "components", tuple(self.components))
        if not self.components:
            raise ValueError("empty component list")
        first = self.components[0].values[0]
        for comp in self.components[1:]:
            if not same_realization(first, comp.values[0]):
                raise ValueError("mixed group realizations")

    @property
    def period_system(self) -> PeriodSystem:
        return PeriodSystem(tuple(comp.period for comp in self.components))

    def __call__(self, x: int):
        acc = self.components[0](x)
        for comp in self.components[1:]:
            acc = acc + comp(x)
        return acc


@dataclass(frozen=True)
class CoefficientTable:
    """The N x l reconstruction table for one spectrum.

    rows[n][r] is the integer weight of the r-th initial value in the
    reconstructed value at n. periods records which period list the table
    was requested for; it is provenance only and excluded from equality,
    since equal divisor closures give identical tables.
    """

    spectrum: Spectrum
    recurrence: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]
    periods: tuple[int, ...] = field(compare=False, default=())

    @property
    def width(self) -> int:
        """l, the spectrum size and window length."""
        return len(self.recurrence)

    @property
    def modulus(self) -> int:
        """N, the number of rows and the period of every column."""
        return self.spectrum.modulus

    def row_for(self, x: int) -> tuple[int, ...]:
        """The row at the least nonnegative residue of x mod N."""
        return self.rows[x % len(self.rows)]


@dataclass(frozen=True)
class ConstancyResult:
    """Verdict of a window constancy test, with the constant on success."""

    is_constant: bool
    constant: object = None

    def __bool__(self) -> bool:
        return self.is_constant


def recurrence_coeffs(p: IntPolynomial) -> tuple[int, ...]:
    """Sign-flipped lower coefficients (a_1, ..., a_l) of a monic p.

    Writing p as z^l - a_1 z^(l-1) - ... - a_l, the sequence of powers of
    any root of p satisfies u_n = sum_j a_j u_(n-j).
    """
    if not p.is_monic() or p.degree < 1:
        raise ValueError("recurrence needs a monic polynomial of degree >= 1")
    l = p.degree
    return tuple(-p.coeffs[l - j] for j in range(1, l + 1))


def coefficient_table(ps: PeriodSystem, max_rows: int = DEFAULT_MAX_ROWS) -> CoefficientTable:
    """Build the full reconstruction table for a period system.

    Identity block on the first l rows, recurrence fill up to row N-1.
    Raises TableSizeError when N exceeds max_rows; the default cap keeps a
    runaway lcm from thrashing memory.
    """
    sp = build_spectrum(ps)
    coeffs = recurrence_coeffs(characteristic_poly(sp))
    l = len(coeffs)
    n_rows = sp.modulus
    if n_rows > max_rows:
        raise TableSizeError(f"table too large: {n_rows} rows exceed the cap of {max_rows}")
    rows: list[tuple[int, ...]] = [
        tuple(1 if c == r else 0 for c in range(l)) for r in range(l)
    ]
    for n in range(l, n_rows):
        rows.append(
            tuple(
                sum(a * rows[n - j][r] for j, a in enumerate(coeffs, start=1))
                for r in range(l)
            )
        )
    return CoefficientTable(sp, coeffs, tuple(rows), ps.periods)


def extrapolate(table: CoefficientTable, initial, x: int):
    """Reconstruct the value at any integer x from l initial values.

    initial is read as the values at 0, ..., l-1 of a map that is a sum of
    periodic maps with the table's periods; the result then equals that
    map's value at x, negative x included. Arbitrary initial vectors are
    accepted, with the agreement promise only where such a sum exists.
    """
    initial = tuple(initial)
    if len(initial) != table.width:
        raise ValueError(
            f"expected {table.width} initial values, got {len(initial)}"
        )
    first = initial[0]
    for v in initial[1:]:
        if not same_realization(first, v):
            raise ValueError("mixed group realizations")
    acc = zero_like(first)
    for c, g in zip(table.row_for(x), initial):
        if c:
            acc = acc + scale(g, c)
    return acc


def constancy_check(table: CoefficientTable, window) -> ConstancyResult:
    """Decide whether l consecutive values force the whole map constant.

    window holds the values at a, ..., a+l-1 for an arbitrary start a; the
    start itself is irrelevant and not taken. A constant window certifies a
    constant map provided the map really is a sum of maps with the table's
    periods.
    """
    window = tuple(window)
    if len(window) != table.width:
        raise ValueError(f"expected a window of {table.width} values, got {len(window)}")
    first = window[0]
    for v in window[1:]:
        if v != first:
            return ConstancyResult(False)
    return ConstancyResult(True, first)


def finewilf_difference_gcd(g: PeriodicMap, h: PeriodicMap) -> int:
    """gcd of g - h over the two-period agreement window.

    For integer-valued g and h with periods m and n, every difference
    g(x) - h(x) anywhere on Z is divisible by the gcd of the differences
    at 0, ..., m+n-gcd(m,n)-1. A result of 0 means the window differences
    all vanish and hence g and h are identical.
    """
    for pm in (g, h):
        if not all(isinstance(v, int) for v in pm.values):
            raise ValueError("integer-valued maps required")
    window = g.period + h.period - math.gcd(g.period, h.period)
    return math.gcd(*(g(r) - h(r) for r in range(window)))


def table_to_json_dict(table: CoefficientTable) -> dict:
    """The table as a JSON-ready document; every number is a decimal string."""
    recurrence = table.recurrence
    charpoly = [-a for a in reversed(recurrence)] + [1]
    return {
        "periods": [str(n) for n in table.periods],
        "N": str(table.modulus),
        "l": str(table.width),
        "spectrum": [fraction_str(q) for q in table.spectrum.elements],
        "charpoly": [str(c) for c in charpoly],
        "recurrence": [str(a) for a in recurrence],
        "rows": [[str(c) for c in row] for row in table.rows],
    }


def table_from_json_dict(doc: dict) -> CoefficientTable:
    """Rebuild a table from its JSON document, checking basic consistency."""
    try:
        periods = tuple(int(s) for s in doc["periods"])
        n_rows = int(doc["N"])
        width = int(doc["l"])
        elements = tuple(parse_fraction(s) for s in doc["spectrum"])
        charpoly = [int(s) for s in doc["charpoly"]]
        recurrence = tuple(int(s) for s in doc["recurrence"])
        rows = tuple(tuple(int(s) for s in row) for row in doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed table document: {exc}") from exc
    if width < 1:
        raise ValueError("malformed table document: width must be positive")
    if len(recurrence) != width or len(elements) != width:
        raise ValueError("malformed table document: width fields disagree")
    if len(rows) != n_rows or any(len(row) != width for row in rows):
        raise ValueError("malformed table document: row shape mismatch")
    if charpoly != [-a for a in reversed(recurrence)] + [1]:
        raise ValueError("malformed table document: charpoly and recurrence disagree")
    closure = tuple(sorted({q.denominator for q in elements}))
    if math.lcm(*closure) != n_rows:
        raise ValueError("malformed table document: N is not the lcm of the denominators")
    sp = Spectrum(elements, n_rows, closure)
    return CoefficientTable(sp, recurrence, rows, periods)
