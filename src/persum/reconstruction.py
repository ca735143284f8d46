"""Universal integer tables that rebuild sums of periodic maps.

Given periods (n_1, ..., n_k) with spectrum size l and lcm N, the table
holds N rows of l integers. Row n stores the coordinates of the value at n
of any map that decomposes as a sum of maps with these periods, and
arguments outside [0, N) wrap around through the least nonnegative residue
mod N. The recurrence coefficients come from the characteristic polynomial
P by flipping the signs of everything below the leading term.

Row n is the coordinate vector of x^n mod P in the basis 1, x, ...,
x^(l-1). So the first l rows form an identity block, and each later row is
the one before it multiplied by x and reduced mod P: shifted up one place,
plus its top entry times the reversed recurrence. That shift costs O(l) a
row; it fills the table, and it verifies a table loaded from JSON, row by
row and across the wrap from row N-1 back to row 0. A single value needs
only one row, x^(x mod N) mod P, which extrapolate computes by
square-and-multiply (Fiduccia's method) when it is given the period system
instead of a table.

The rows depend only on the spectrum, never on how the periods were
listed, so one table serves every period system with the same divisor
closure. N is checked against the row cap before any other work.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cyclotomic import X, IntPolynomial, characteristic_poly, poly_powmod
from .groups import scale, zero_like
from .spectrum import (
    PeriodSystem,
    _strict_int,
    build_spectrum,
    fraction_str,
    parse_fraction,
)

DEFAULT_MAX_ROWS = 10**6


class TableSizeError(ValueError):
    """The requested table would exceed the row cap."""


def _check_one_group(values) -> None:
    zero = zero_like(values[0])
    if not all(zero_like(v) == zero for v in values[1:]):
        raise ValueError("mixed group realizations")


@dataclass(frozen=True)
class PeriodicMap:
    """A map from Z to a group, given by its values at 0, ..., period-1."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("a periodic map needs at least one value")
        _check_one_group(self.values)

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
        _check_one_group([comp.values[0] for comp in self.components])

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
    reconstructed value at n. system is the period system the table was
    requested for; it is excluded from equality, since the recurrence fixes
    the divisor closure and equal closures give identical tables.
    """

    system: PeriodSystem = field(compare=False)
    recurrence: tuple[int, ...]
    rows: tuple[tuple[int, ...], ...]

    @property
    def periods(self) -> tuple[int, ...]:
        return self.system.periods

    @property
    def width(self) -> int:
        """l, the spectrum size and window length."""
        return len(self.recurrence)

    @property
    def modulus(self) -> int:
        """N, the number of rows and the period of every column."""
        return len(self.rows)

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


def _checked_modulus(ps: PeriodSystem, max_rows: int) -> int:
    """N = lcm(periods), or TableSizeError when N exceeds max_rows."""
    n_rows = ps.modulus
    if n_rows > max_rows:
        raise TableSizeError(f"table too large: {n_rows} rows exceed the cap of {max_rows}")
    return n_rows


def _identity_rows(l: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple(1 if c == r else 0 for c in range(l)) for r in range(l))


def _shift(row: tuple[int, ...], tail: tuple[int, ...]) -> tuple[int, ...]:
    """The table row after row: x times its residue, reduced mod P.

    tail is the recurrence reversed, (a_l, ..., a_1), the coordinates of
    x^l mod P; the new row is (top*a_l, row[0] + top*a_(l-1), ...,
    row[l-2] + top*a_1) with top = row[l-1].
    """
    top = row[-1]
    shifted = (0,) + row
    if not top:
        return shifted[:-1]
    return tuple([top * a + r for a, r in zip(tail, shifted)])


def coefficient_table(ps: PeriodSystem, max_rows: int = DEFAULT_MAX_ROWS) -> CoefficientTable:
    """Build the full reconstruction table for a period system.

    Identity block on the first l rows, then one O(l) shift per row up to
    row N-1. Raises TableSizeError when N exceeds max_rows, before anything
    else is computed; the default cap keeps a runaway lcm from thrashing
    memory.
    """
    n_rows = _checked_modulus(ps, max_rows)
    coeffs = recurrence_coeffs(characteristic_poly(ps))
    tail = coeffs[::-1]
    rows = list(_identity_rows(len(coeffs)))
    for _ in range(len(rows), n_rows):
        rows.append(_shift(rows[-1], tail))
    return CoefficientTable(ps, coeffs, tuple(rows))


def _power_row(ps: PeriodSystem, x: int) -> tuple[int, tuple[int, ...]]:
    """l, and the row for x without the table: the coefficients of
    x^(x mod N) mod P, trailing zeros dropped. The row cap still applies."""
    n_rows = _checked_modulus(ps, DEFAULT_MAX_ROWS)
    charpoly = characteristic_poly(ps)
    return charpoly.degree, poly_powmod(X, x % n_rows, charpoly).coeffs


def extrapolate(source: CoefficientTable | PeriodSystem, initial, x: int):
    """Reconstruct the value at any integer x from l initial values.

    source is a CoefficientTable, or a PeriodSystem, for which only the row
    for x is computed (in O(l^2 log N), with no table built) and N is held
    to the default row cap. initial is read as the values at 0, ..., l-1 of
    a map that is a sum of periodic maps with the source's periods; the
    result then equals that map's value at x, negative x included.
    Arbitrary initial vectors are accepted, with the agreement promise only
    where such a sum exists.
    """
    if isinstance(source, PeriodSystem):
        width, row = _power_row(source, x)
    else:
        width, row = source.width, source.row_for(x)
    initial = tuple(initial)
    if len(initial) != width:
        raise ValueError(f"expected {width} initial values, got {len(initial)}")
    _check_one_group(initial)
    acc = zero_like(initial[0])
    for c, g in zip(row, initial):
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


def finewilf_window(m: int, n: int) -> int:
    """m + n - gcd(m, n), the agreement window for periods m and n."""
    return m + n - math.gcd(m, n)


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
    return math.gcd(*(g(r) - h(r) for r in range(finewilf_window(g.period, h.period))))


def table_to_json_dict(table: CoefficientTable) -> dict:
    """The table as a JSON-ready document; every number is a decimal string."""
    recurrence = table.recurrence
    charpoly = [-a for a in reversed(recurrence)] + [1]
    return {
        "periods": [str(n) for n in table.periods],
        "N": str(table.modulus),
        "l": str(table.width),
        "spectrum": [fraction_str(q) for q in build_spectrum(table.system).elements],
        "charpoly": [str(c) for c in charpoly],
        "recurrence": [str(a) for a in recurrence],
        "rows": [[str(c) for c in row] for row in table.rows],
    }


def table_from_json_dict(doc: dict) -> CoefficientTable:
    """Rebuild a table from its JSON document, verifying it first.

    Integers are JSON ints or decimal strings. The fields must agree: the
    charpoly is the recurrence's, N is the lcm of the periods (checked before
    anything is enumerated), the spectrum is every reduced fraction over the
    periods' divisor closure, the first l rows are the identity block, each
    later row is the shift of the one before it, the shift of row N-1 is row
    0, and the charpoly is the periods'. Any failure raises ValueError.
    """
    try:
        ps = PeriodSystem(tuple(_strict_int(s) for s in doc["periods"]))
        n_rows = _strict_int(doc["N"])
        width = _strict_int(doc["l"])
        elements = tuple(parse_fraction(s) for s in doc["spectrum"])
        charpoly = [_strict_int(s) for s in doc["charpoly"]]
        recurrence = tuple(_strict_int(s) for s in doc["recurrence"])
        rows = tuple(tuple(_strict_int(s) for s in row) for row in doc["rows"])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed table document: {exc}") from exc
    if len(recurrence) != width or len(elements) != width:
        raise ValueError("malformed table document: width fields disagree")
    if len(rows) != n_rows or any(len(row) != width for row in rows):
        raise ValueError("malformed table document: row shape mismatch")
    if charpoly != [-a for a in reversed(recurrence)] + [1]:
        raise ValueError("malformed table document: charpoly and recurrence disagree")
    if (ps.modulus != n_rows or set(ps.divisor_closure) != {q.denominator for q in elements}
            or build_spectrum(ps).elements != elements):
        raise ValueError("malformed table document: spectrum or N disagrees with the periods")
    if rows[:width] != _identity_rows(width):
        raise ValueError("malformed table document: the first l rows are not the identity block")
    tail = recurrence[::-1]
    for n in range(width, n_rows):
        if rows[n] != _shift(rows[n - 1], tail):
            raise ValueError(f"malformed table document: row {n} is not the shift of row {n - 1}")
    if _shift(rows[-1], tail) != rows[0]:
        raise ValueError("malformed table document: the shift of row N-1 is not row 0")
    if IntPolynomial(charpoly) != characteristic_poly(ps):
        raise ValueError("malformed table document: charpoly is not the spectrum's")
    return CoefficientTable(ps, recurrence, rows)
