"""Universal integer tables that rebuild sums of periodic maps.

Given periods (n_1, ..., n_k) with spectrum size l and lcm N, the table
holds N rows of l integers. Row n stores the coordinates of the value at n
of any map that decomposes as a sum of maps with these periods, and
arguments outside [0, N) wrap around through the least nonnegative residue
mod N. The recurrence coefficients come from the characteristic polynomial
P by flipping the signs of everything below the leading term.

Row n is the coordinate vector of x^n mod P in the basis 1, x, ...,
x^(l-1). Row 0 is x^0, and each row is x times the one before it, reduced
mod P: shifted up one place, plus its top entry times the reversed
recurrence. P is a product of cyclotomic polynomials, mostly zero
coefficients, so a row differs from the plain shift only under P's nonzero
coefficients, and only when the top entry is nonzero. The first l rows
are the identity block, since x^r with r < l needs no reduction. One walk,
`TableRows.walk`, does that shift: it fills the table, feeds the CLI
writer the rows as cell text one row at a time, and verifies a table
loaded from JSON, across the wrap from row N-1 back to row 0 too. A single
value needs only one row, x^(x mod N) mod P, which extrapolate computes by
powering left to right with x as the multiplier (Fiduccia's method) when it
is given the period system instead of a table.

l consecutive values decide such a map (the paper's local-global theorem),
so l sizes every window certificate: the constancy window, the difference
gcd window of two maps (Fine-Wilf's m + n - gcd(m, n)) and the covering
windows, each counted as check_size counts l, by size_by_inclusion_exclusion.

The rows depend only on the spectrum, never on how the periods were
listed, so one table serves every period system with the same divisor
closure. One rule sizes a table, before any other work: N*l cells at most
DEFAULT_MAX_CELLS (see check_size). A table held whole costs about 8
bytes a cell, a pointer to an int shared with the other cells of its
value; streamed to the CLI writer, only a row or two is held at a time.
As l >= 1 + sum(q - 1) over the prime powers q exactly dividing N, no N
above 360360 has l <= 50, so the rule also refuses every N above 10^6.
"""

from __future__ import annotations

import math

from .cyclotomic import X, IntPolynomial, characteristic_poly, poly_powmod
from .groups import scale, zero_like
from .numth import Record, strict_int
from .spectrum import (
    PeriodSystem,
    build_spectrum,
    parse_fraction,
    size_by_inclusion_exclusion,
)

DEFAULT_MAX_ROWS = 10**6
DEFAULT_MAX_CELLS = 5 * 10**7


class TableSizeError(ValueError):
    """The requested table, spectrum or row would exceed its cap."""


def _check_one_group(values) -> None:
    zero = zero_like(values[0])
    if not all(zero_like(v) == zero for v in values[1:]):
        raise ValueError("mixed group realizations")


class PeriodicMap(Record):
    """A map from Z to a group, given by its values at 0, ..., period-1."""

    __slots__ = ("values",)

    def __init__(self, values: tuple):
        values = tuple(values)
        if not values:
            raise ValueError("a periodic map needs at least one value")
        _check_one_group(values)
        object.__setattr__(self, "values", values)

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, x: int):
        return self.values[x % len(self.values)]


class SumOfPeriodicMaps(Record):
    """The pointwise group sum of one or more periodic maps."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[PeriodicMap, ...]):
        components = tuple(components)
        if not components:
            raise ValueError("empty component list")
        _check_one_group([comp.values[0] for comp in components])
        object.__setattr__(self, "components", components)

    @property
    def period_system(self) -> PeriodSystem:
        return PeriodSystem(tuple(comp.period for comp in self.components))

    def __call__(self, x: int):
        acc = self.components[0](x)
        for comp in self.components[1:]:
            acc = acc + comp(x)
        return acc


class CoefficientTable(Record, compare=("recurrence", "rows")):
    """The N x l reconstruction table for one spectrum.

    rows[n][r] is the integer weight of the r-th initial value in the
    reconstructed value at n. system is the period system the table was
    requested for; it is excluded from equality and the hash, since the
    recurrence fixes the divisor closure and equal closures give identical
    tables.
    """

    __slots__ = ("system", "recurrence", "rows")

    def __init__(self, system: PeriodSystem, recurrence: tuple[int, ...],
                 rows: tuple[tuple[int, ...], ...]):
        object.__setattr__(self, "system", system)
        object.__setattr__(self, "recurrence", recurrence)
        object.__setattr__(self, "rows", rows)

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


class ConstancyResult(Record):
    """Verdict of a window constancy test, with the constant on success."""

    __slots__ = ("is_constant", "constant")

    def __init__(self, is_constant: bool, constant: object = None):
        object.__setattr__(self, "is_constant", is_constant)
        object.__setattr__(self, "constant", constant)

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


def _count(n: int) -> str:
    """n in decimal, or its size in bits when n is above 2^64: a message
    stays one short line however large the request."""
    return str(n) if n <= 2**64 else f"at least 2^{n.bit_length() - 1}"


def check_size(ps: PeriodSystem, rows: int | None = None) -> None:
    """TableSizeError unless rows*l is at most DEFAULT_MAX_CELLS, for l the
    spectrum size of ps (rows=None sizes the spectrum alone). Each element is
    an r/n with 0 <= r < n for some period n, distinct for one n, so
    max(periods) <= l <= sum(periods): the bounds settle most requests in
    O(k), a huge period or N at once, and l is counted from gcds only between.
    """
    if rows is None:
        factor, what = 1, "spectrum too large: {} elements"
    else:
        factor, what = rows, f"table too large: {_count(rows)} rows of {{}} cells"
    cap = f" exceed the cap of {DEFAULT_MAX_CELLS}"
    least = max(ps.periods)
    if factor * least > DEFAULT_MAX_CELLS:
        raise TableSizeError(what.format(_count(least)) + " or more" + cap)
    if factor * sum(ps.periods) > DEFAULT_MAX_CELLS:
        width = size_by_inclusion_exclusion(ps)
        if factor * width > DEFAULT_MAX_CELLS:
            raise TableSizeError(what.format(_count(width)) + cap)


class TableRows(Record):
    """Rows 0, ..., count-1 of the table of a recurrence, walked on demand.

    Row n is the coordinate vector of x^n mod P, for P the monic polynomial
    z^l - a_1 z^(l-1) - ... - a_l of the recurrence (a_1, ..., a_l). Each
    row is x times the row before: shifted up one place, plus its top entry
    times the reversed recurrence, which is nonzero only under P's nonzero
    coefficients. Only `walk` computes a row; the CLI writer takes these
    rows as their own case, since every cell is an int the walk computed.
    """

    __slots__ = ("recurrence", "count")

    def __init__(self, recurrence: tuple[int, ...], count: int):
        recurrence = tuple(recurrence)
        if not recurrence:
            raise ValueError("a table needs a recurrence of length >= 1")
        object.__setattr__(self, "recurrence", recurrence)
        object.__setattr__(self, "count", count)

    def walk(self, cell=None):
        """Each row in turn, from x^0, as a new list of its int entries, or
        of cell(c) for each entry c when cell is given; the next row is made
        from it, so it must not be changed.

        A row is the row before shifted one place: one list copy, whose
        insert at 0 moves the entries in C. When that row's top entry is
        nonzero, only the entries under the recurrence's nonzero coefficients
        are then recomputed as ints; with cell given, a second list, of
        cells, is shifted alike, and just those entries are passed through
        cell again. So no entry is computed or encoded where it cannot differ
        from the shift."""
        tail = self.recurrence[::-1]
        sparse = [(j, a) for j, a in enumerate(tail) if a]
        row = [1] + [0] * (len(tail) - 1)
        if cell is None:
            for _ in range(self.count):
                yield row
                top = row[-1]
                row = row[:-1]
                row.insert(0, 0)
                if top:
                    for j, a in sparse:
                        row[j] += top * a
            return
        cells = list(map(cell, row))
        blank = cell(0)
        for _ in range(self.count):
            yield cells
            top = row[-1]
            row = row[:-1]
            row.insert(0, 0)
            cells = cells[:-1]
            cells.insert(0, blank)
            if top:
                for j, a in sparse:
                    row[j] = c = row[j] + top * a
                    cells[j] = cell(c)


def table_rows(ps: PeriodSystem) -> TableRows:
    """The N rows of the period system's table, not yet walked. Raises
    TableSizeError when N*l exceeds DEFAULT_MAX_CELLS, before anything else
    is computed, so a runaway lcm or spectrum cannot thrash memory; then
    builds the recurrence."""
    n_rows = ps.modulus
    check_size(ps, n_rows)
    return TableRows(recurrence_coeffs(characteristic_poly(ps)), n_rows)


def coefficient_table(ps: PeriodSystem) -> CoefficientTable:
    """Build the full reconstruction table for a period system: the int rows
    of `table_rows(ps)`, refused as it refuses."""
    rows = table_rows(ps)
    return CoefficientTable(ps, rows.recurrence, tuple(map(tuple, rows.walk())))


def _check_initial(initial: tuple, width: int) -> None:
    if len(initial) != width:
        raise ValueError(f"expected {width} initial values, got {len(initial)}")
    _check_one_group(initial)


def extrapolate(source: CoefficientTable | PeriodSystem, initial, x: int):
    """Reconstruct the value at any integer x from l initial values.

    source is a CoefficientTable, or a PeriodSystem, for which only the row
    for x is computed (in O(l^2 log N), with no table built) and N is held
    to DEFAULT_MAX_ROWS. initial is read as the values at 0, ..., l-1 of
    a map that is a sum of periodic maps with the source's periods; the
    result then equals that map's value at x, negative x included.
    Arbitrary initial vectors are accepted, with the agreement promise only
    where such a sum exists. N, then the count and group of the initial
    values, are checked before the row is computed.
    """
    initial = tuple(initial)
    if isinstance(source, PeriodSystem):
        n_rows = source.modulus
        if n_rows > DEFAULT_MAX_ROWS:
            raise TableSizeError(f"table too large: {_count(n_rows)} rows exceed the cap of "
                                 f"{DEFAULT_MAX_ROWS}")
        charpoly = characteristic_poly(source)
        _check_initial(initial, charpoly.degree)
        # x^(x mod N) mod P; its coefficients are the row, trailing zeros dropped
        row = poly_powmod(X, x % n_rows, charpoly).coeffs
    else:
        _check_initial(initial, source.width)
        row = source.row_for(x)
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


def finewilf_difference_gcd(g: PeriodicMap, h: PeriodicMap) -> int:
    """gcd of g - h over the two-period agreement window.

    For integer-valued g and h with periods m and n, every difference
    g(x) - h(x) anywhere on Z is divisible by the gcd of the differences
    at 0, ..., l-1, for l = m + n - gcd(m, n) the spectrum size of (m, n).
    A result of 0 means they all vanish and hence g and h are identical.
    """
    for pm in (g, h):
        if not all(isinstance(v, int) for v in pm.values):
            raise ValueError("integer-valued maps required")
    window = size_by_inclusion_exclusion(PeriodSystem((g.period, h.period)))
    return math.gcd(*(g(r) - h(r) for r in range(window)))


def table_json_fields(ps: PeriodSystem, recurrence: tuple[int, ...]) -> dict:
    """Every field of the JSON document of the period system's table but the
    last, its rows, in document order; every number is a decimal string."""
    charpoly = [-a for a in reversed(recurrence)] + [1]
    return {
        "periods": [str(n) for n in ps.periods],
        "N": str(ps.modulus),
        "l": str(len(recurrence)),
        "spectrum": build_spectrum(ps).labels(),
        "charpoly": [str(c) for c in charpoly],
        "recurrence": [str(a) for a in recurrence],
    }


def table_to_json_dict(table: CoefficientTable) -> dict:
    """The table as a JSON-ready document; every number is a decimal string."""
    # a table holds few distinct values, so its cells share one string each
    cell = {c: str(c) for c in set().union(*table.rows)}.__getitem__
    rows = [list(map(cell, row)) for row in table.rows]
    return {**table_json_fields(table.system, table.recurrence), "rows": rows}


class _CellReader(dict):
    """`strict_int` of a table cell, read once per distinct string. Only
    strings are kept: True == 1 and they hash alike, so a kept int would
    let a true cell pass as 1."""

    def __missing__(self, cell):
        value = strict_int(cell)
        if type(cell) is str:
            self[cell] = value
        return value


def _list(value) -> list:
    """value itself if it is a list: a string or an object would otherwise
    be read as the list of its characters or keys."""
    if not isinstance(value, list):
        raise ValueError(f"expected a list, got {type(value).__name__}")
    return value


def table_from_json_dict(doc: dict) -> CoefficientTable:
    """Rebuild a table from its JSON document, verifying it first.

    Integers are JSON ints or decimal strings, and every list field and row
    is a JSON array. The fields must agree: the charpoly is the
    recurrence's, N is the lcm of the periods (checked before anything is
    enumerated), the spectrum is every reduced fraction over the periods'
    divisor closure, the first l rows are the identity block, each later
    row is the shift of the one before it, the shift of row N-1 is row 0,
    and the charpoly is the periods'. Any failure raises ValueError.
    """
    try:
        ps = PeriodSystem(tuple(strict_int(s) for s in _list(doc["periods"])))
        n_rows = strict_int(doc["N"])
        width = strict_int(doc["l"])
        elements = tuple(parse_fraction(s) for s in _list(doc["spectrum"]))
        charpoly = [strict_int(s) for s in _list(doc["charpoly"])]
        recurrence = tuple(strict_int(s) for s in _list(doc["recurrence"]))
        cell = _CellReader().__getitem__
        rows = tuple(tuple(map(cell, _list(row))) for row in _list(doc["rows"]))
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
    # row N of the walk is x^N mod P, which must wrap back to row 0
    expected = TableRows(recurrence, n_rows + 1).walk()
    for n, (row, shifted) in enumerate(zip(rows, expected)):
        if list(row) != shifted:
            if n < width:
                raise ValueError("malformed table document: the first l rows are not the identity block")
            raise ValueError(f"malformed table document: row {n} is not the shift of row {n - 1}")
    if tuple(next(expected)) != rows[0]:
        raise ValueError("malformed table document: the shift of row N-1 is not row 0")
    if IntPolynomial(charpoly) != characteristic_poly(ps):
        raise ValueError("malformed table document: charpoly is not the spectrum's")
    return CoefficientTable(ps, recurrence, rows)
