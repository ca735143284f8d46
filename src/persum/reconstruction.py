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
are the identity block, since x^r with r < l needs no reduction. So a
table needs no object of its own, only its recurrence
(`table_recurrence`) and one walk, `table_walk`, a generator that does
that shift: it fills the table, feeds the CLI writer the rows as cell
text one row at a time, and verifies a table loaded from JSON, across the
wrap from row N-1 back to row 0 too. A single value needs only one row,
x^(x mod N) mod P, which extrapolate computes when it is given the period
system instead of a table. The spectrum is closed under q -> -q mod 1, so
P is its own reciprocal up to sign: x^l P(1/x) = -P(x). As x^N = 1 mod P,
row t reversed is then row (l-1-t) mod N, so row r is x^s for s = min(r,
(l-1-r) mod N), reversed when s is not r. `_row` powers x^s left to right
(Fiduccia's method) and reduces each power from its top by the walk's
substitution, x^l = -sum p_j x^j over P's nonzero coefficients p_j below
its top, nnz of them: a row below 2l takes no product, and each squaring
past it up to l*nnz updates.

One rule, `_initial_kind`, takes the values of every map, sum, window
and extrapolate: ints, or points of Z^d as tuples of d ints, which a row
joins by one int dot product a coordinate, or values of one group class,
joined by `groups.scale`. l consecutive values decide such a map (the
paper's local-global theorem), so l sizes every window certificate: the
constancy window, the difference gcd window of two maps (Fine-Wilf's
m + n - gcd(m, n)) and the covering windows, each counted as check_size
counts l, by size_by_inclusion_exclusion.

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
from itertools import chain
from operator import mul

from .cyclotomic import IntPolynomial, _kronecker_mul, characteristic_poly
from .groups import scale
from .numth import Record, check_int, strict_int
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


class PeriodicMap(Record):
    """A map from Z to a group, given by its values at 0, ..., period-1:
    ints, tuples of d ints, or values of one group class (`_initial_kind`)."""

    __slots__ = ("values",)

    def __init__(self, values: tuple):
        values = tuple(values)
        if not values:
            raise ValueError("a periodic map needs at least one value")
        _initial_kind(values, len(values))
        object.__setattr__(self, "values", values)

    @property
    def period(self) -> int:
        return len(self.values)

    def __call__(self, x: int):
        if type(x) is not int:  # one C test for an int; check_int takes a subclass
            check_int(x, "x")
        return self.values[x % len(self.values)]


class SumOfPeriodicMaps(Record):
    """The pointwise sum of periodic maps of one kind; tuples add by coordinates."""

    __slots__ = ("components",)

    def __init__(self, components: tuple[PeriodicMap, ...]):
        components = tuple(components)
        if not components:
            raise ValueError("empty component list")
        _initial_kind([comp.values[0] for comp in components], len(components))
        object.__setattr__(self, "components", components)

    @property
    def period_system(self) -> PeriodSystem:
        return PeriodSystem(tuple(comp.period for comp in self.components))

    def __call__(self, x: int):
        acc = self.components[0](x)
        if type(acc) is tuple:
            return tuple(map(sum, zip(acc, *(comp(x) for comp in self.components[1:]))))
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
        if type(x) is not int:
            check_int(x, "x")
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
        hedge = "" if least > 2**64 else " or more"  # above 2^64, _count says "at least"
        raise TableSizeError(what.format(_count(least)) + hedge + cap)
    if factor * sum(ps.periods) > DEFAULT_MAX_CELLS:
        width = size_by_inclusion_exclusion(ps)
        if factor * width > DEFAULT_MAX_CELLS:
            raise TableSizeError(what.format(_count(width)) + cap)


def table_walk(recurrence: tuple[int, ...], count: int, cell=None):
    """Rows 0, ..., count-1 of the table of a recurrence, each in turn, from
    x^0, as a new list of its int entries, or of cell(c) for each entry c
    when cell is given; the next row is made from it, so it must not be
    changed.

    Row n is the coordinate vector of x^n mod P, for P the monic polynomial
    z^l - a_1 z^(l-1) - ... - a_l of the recurrence (a_1, ..., a_l), l >= 1.
    A row is the row before shifted one place: one list copy, whose insert
    at 0 moves the entries in C. When that row's top entry is nonzero, only
    the entries under the recurrence's nonzero coefficients are then
    recomputed as ints; with cell given, a second list, of cells, is shifted
    alike, and just those entries are passed through cell again. So no entry
    is computed or encoded where it cannot differ from the shift."""
    tail = recurrence[::-1]
    sparse = [(j, a) for j, a in enumerate(tail) if a]
    row = [1] + [0] * (len(tail) - 1)
    if cell is None:
        for _ in range(count):
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
    for _ in range(count):
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


def table_recurrence(ps: PeriodSystem) -> tuple[int, ...]:
    """The recurrence of the period system's table, whose `table_walk` over
    N rows is the table. Raises TableSizeError when N*l exceeds
    DEFAULT_MAX_CELLS, before anything else is computed, so a runaway lcm or
    spectrum cannot thrash memory; then builds the recurrence."""
    check_size(ps, ps.modulus)
    return recurrence_coeffs(characteristic_poly(ps))


def coefficient_table(ps: PeriodSystem) -> CoefficientTable:
    """Build the full reconstruction table for a period system: the int rows
    of its `table_walk`, refused as `table_recurrence(ps)` refuses."""
    recurrence = table_recurrence(ps)
    rows = tuple(map(tuple, table_walk(recurrence, ps.modulus)))
    return CoefficientTable(ps, recurrence, rows)


def _row(charpoly: IntPolynomial, r: int, n_rows: int) -> list[int]:
    """Row r of the table of P = charpoly with N = n_rows rows: x^s mod P
    for s = min(r, (l-1-r) mod N), reversed when s is not r. x^s is powered
    left to right from x^t, t the longest prefix of s below 2l, squaring by
    the one product `_kronecker_mul` (x is a unit mod P, so no row is zero);
    each power is reduced from its top by x^l = sum a x^j over the (j, a)
    pairs of `table_walk`, P's nonzero coefficients negated, kept as
    (j - l, a). So a row below 2l takes no product."""
    width = charpoly.degree
    s = min(r, (width - 1 - r) % n_rows)
    sparse = [(j - width, -c) for j, c in enumerate(charpoly.coeffs[:-1]) if c]
    bits = 0
    while s >> bits >= 2 * width:
        bits += 1
    row = [0] * (s >> bits) + [1]
    for i in range(bits, -1, -1):
        if i < bits:
            row = _kronecker_mul(row, row)
            if s >> i & 1:
                row.insert(0, 0)
        for top in range(len(row) - 1, width - 1, -1):
            c = row[top]
            if c:
                for j, a in sparse:
                    row[top + j] += c * a
        row = row[:width] + [0] * (width - len(row))
    return row if s == r else row[::-1]


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _initial_kind(initial, width: int, what: str = "initial values") -> str:
    """The kind of the values of a map, a sum, a window or extrapolate:
    "int" for ints, one column; "tuple" for points of Z^d as tuples of the
    same d >= 1 ints, d columns; "group" for values of a group class with
    equal zeros. A count other than width or anything else, a bool, a
    float, a string, a ragged or mixed list, raises ValueError. The type
    tests run in C where every value is well formed."""
    if len(initial) != width:
        raise ValueError(f"expected {width} {what}, got {len(initial)}")
    kinds = set(map(type, initial))
    if kinds == {int} or all(map(_is_int, initial)):
        return "int"
    if kinds == {tuple}:
        if not initial[0] or set(map(len, initial)) != {len(initial[0])}:
            raise ValueError("tuple values need one number d >= 1 of entries, the same for each")
        entries = list(chain.from_iterable(initial))
        if set(map(type, entries)) != {int}:
            for a in entries:
                check_int(a, "a tuple entry")
        return "tuple"
    if all(hasattr(value, "zero") for value in initial):
        zero = initial[0].zero()
        if all(value.zero() == zero for value in initial[1:]):
            return "group"
        raise ValueError("mixed group realizations")
    for value in initial:
        if not (_is_int(value) or type(value) is tuple or hasattr(value, "zero")):
            raise ValueError(f"not an int, a tuple of ints or a group value: {value!r}")
    raise ValueError("mixed group realizations")


def extrapolate(source: CoefficientTable | PeriodSystem, initial, x: int):
    """Reconstruct the value at any integer x from l initial values.

    source is a CoefficientTable, or a PeriodSystem, for which only the row
    for x is computed, with no table built (see `_row`). That row costs
    about log2(s/l) squarings for s = min(x mod N, (l-1-x) mod N) < N, each
    of up to l*nnz(P) <= l^2 updates to reduce; so N is held to
    DEFAULT_MAX_ROWS, and the row to l^2 <= DEFAULT_MAX_CELLS, the cells of
    l rows of l. initial is read as the values at 0, ..., l-1 of a map that
    is a sum of periodic maps with the source's periods; the result then
    equals that map's value at x, negative x included.

    The value is sum c_r g_r over the row (c_r), whose entries are ints,
    and the initial values (g_r), of one kind by `_initial_kind`: each int
    column is one dot product with the row, a tuple value gives a tuple
    (Z_m is a quotient of Z, so values mod m are rebuilt over Z and reduced
    once), and group values are summed by `scale`. Arbitrary initial
    vectors are accepted, with the agreement promise only where such a sum
    exists. x, then N, then l, then the count and kind of the initial
    values, are checked before the row is computed.
    """
    check_int(x, "x")
    initial = tuple(initial)
    if isinstance(source, PeriodSystem):
        n_rows = source.modulus
        if n_rows > DEFAULT_MAX_ROWS:
            raise TableSizeError(f"row too large: the single row is one of N = {_count(n_rows)} "
                                 f"rows, which exceed the cap of {DEFAULT_MAX_ROWS}")
        width = size_by_inclusion_exclusion(source)
        if width * width > DEFAULT_MAX_CELLS:
            raise TableSizeError(f"row too large: the single row of l = {width} cells is sized as "
                                 f"{width} rows of {width} cells, which exceed the cap of "
                                 f"{DEFAULT_MAX_CELLS}")
        kind = _initial_kind(initial, width)
        row = _row(characteristic_poly(source), x % n_rows, n_rows)
    else:
        kind = _initial_kind(initial, source.width)
        row = source.row_for(x)
    if kind == "int":
        return sum(map(mul, row, initial))
    if kind == "tuple":
        return tuple(sum(map(mul, row, column)) for column in zip(*initial))
    acc = initial[0].zero()
    for c, g in zip(row, initial):
        if c:
            acc = acc + scale(g, c)
    return acc


def constancy_check(table: CoefficientTable, window) -> ConstancyResult:
    """Decide whether l consecutive values force the whole map constant.

    window holds the values at a, ..., a+l-1 for an arbitrary start a; the
    start itself is irrelevant and not taken, and its values must be of one
    kind, as a map's are. A constant window certifies a constant map
    provided the map really is a sum of maps with the table's periods.
    """
    window = tuple(window)
    _initial_kind(window, table.width, "window values")
    first = window[0]
    for v in window[1:]:
        if v != first:
            return ConstancyResult(False)
    return ConstancyResult(True, first)


def finewilf_difference_gcd(g: PeriodicMap, h: PeriodicMap) -> int:
    """gcd of g - h over the two-period agreement window.

    For int-valued g and h (of the kind "int", so no bool) with periods m
    and n, every difference g(x) - h(x) anywhere on Z is divisible by the
    gcd of the differences at 0, ..., l-1, for l = m + n - gcd(m, n) the
    spectrum size of (m, n). A result of 0 means they all vanish and hence
    g and h are identical.
    """
    if _initial_kind(g.values + h.values, g.period + h.period) != "int":
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
    # every denominator of the spectrum divides N, so a document's that does
    # not is refused before the spectrum is built
    if (ps.modulus != n_rows or any(n_rows % q.denominator for q in elements)
            or build_spectrum(ps).elements != elements):
        raise ValueError("malformed table document: spectrum or N disagrees with the periods")
    # row N of the walk is x^N mod P, which must wrap back to row 0
    expected = table_walk(recurrence, n_rows + 1)
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
