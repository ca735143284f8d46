"""Property tests: the table, the single-row route and brute force agree on
random sums in four groups, one of them a class defined here, the marked multiplicity window agrees with per-position
counting, the two parsers of outside input fail only with ValueError, the
CLI takes an integer exactly when it is ASCII digits after an optional '-',
the CLI's grammar reader reads argv exactly as argparse does or leaves it to
argparse, and the CLI's JSON writer, table rows included, writes the bytes of
`json.dumps(indent=2)`.

Every test runs derandomized and without a deadline, so a run is the same
on every machine and never fails for being slow.
"""

import contextlib
import copy
import functools
import io
import json
import re
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persum.cli import _COMMANDS, _dumps, _QuotedCell, _read, build_parser, main
from persum.covering import (
    ResidueClass,
    ResidueSystem,
    multiplicity,
    multiplicity_window,
    parse_residue_system,
)
from persum.groups import IntVector, ModInt, zero_like
from persum.numth import divisors
from persum.reconstruction import (
    PeriodicMap,
    SumOfPeriodicMaps,
    coefficient_table,
    extrapolate,
    table_from_json_dict,
    table_rows,
    table_to_json_dict,
)
from persum.spectrum import PeriodSystem

FIXED = settings(derandomize=True, deadline=None, database=None)

periods = st.lists(st.integers(1, 40), min_size=1, max_size=3).map(tuple)


@functools.lru_cache(maxsize=64)
def table_for(ps):
    return coefficient_table(ps)


class Rational:
    """The rationals under addition, a group persum ships no class for: it
    has only zero(), +, unary - and ==."""

    def __init__(self, q: Fraction):
        self.q = q

    def zero(self):
        return Rational(Fraction(0))

    def __add__(self, other):
        return Rational(self.q + other.q)

    def __neg__(self):
        return Rational(-self.q)

    def __eq__(self, other):
        return isinstance(other, Rational) and self.q == other.q


def group_values(draw, group):
    """A strategy for one group's values, the group drawn first."""
    if group == "int":
        return st.integers(-10**6, 10**6)
    if group == "mod":
        m = draw(st.integers(2, 10**9))
        return st.integers(0, m - 1).map(lambda v: ModInt(v, m))
    if group == "rational":
        return st.fractions(-10**3, 10**3, max_denominator=60).map(Rational)
    d = draw(st.integers(1, 3))
    return st.tuples(*[st.integers(-99, 99)] * d).map(IntVector)


def times(g, c):
    """c times the group value g, computed here rather than by persum."""
    if isinstance(g, ModInt):
        return ModInt(c * g.value % g.modulus, g.modulus)
    if isinstance(g, IntVector):
        return IntVector(tuple(c * a for a in g.entries))
    if isinstance(g, Rational):
        return Rational(c * g.q)
    return c * g


@pytest.mark.parametrize("group", ["int", "mod", "vec", "rational"])
@settings(FIXED, max_examples=40)
@given(data=st.data())
def test_table_row_single_row_and_brute_force_agree(group, data):
    ps = PeriodSystem(data.draw(periods, label="periods"))
    values = group_values(data.draw, group)
    psi = SumOfPeriodicMaps(tuple(
        PeriodicMap(tuple(data.draw(st.lists(values, min_size=n, max_size=n)))) for n in ps.periods
    ))
    x = data.draw(st.integers(-10**6, 10**6), label="x")
    table = table_for(ps)
    initial = [psi(r) for r in range(table.width)]
    by_row = zero_like(initial[0])
    for c, g in zip(table.row_for(x), initial):
        by_row = by_row + times(g, c)
    assert by_row == extrapolate(table, initial, x) == extrapolate(ps, initial, x) == psi(x)


residue_classes = st.builds(ResidueClass, st.integers(-10**6, 10**6), st.integers(1, 60))


@settings(FIXED, max_examples=300)
@given(
    classes=st.lists(residue_classes, min_size=1, max_size=6),
    repeats=st.lists(st.integers(0, 5), max_size=3),
    start=st.integers(-10**30, 10**30),
    length=st.integers(0, 40),
)
@example(classes=[ResidueClass(2, 3)], repeats=[0, 0], start=5, length=9)  # duplicates
@example(classes=[ResidueClass(0, 1), ResidueClass(1, 2)], repeats=[], start=-3, length=7)  # modulus 1
@example(classes=[ResidueClass(59, 60), ResidueClass(1, 2)], repeats=[], start=0, length=5)  # no member
@example(classes=[ResidueClass(0, 2)], repeats=[], start=4, length=0)
@example(classes=[ResidueClass(7, 11), ResidueClass(3, 4)], repeats=[1], start=-10**30, length=30)
@example(classes=[ResidueClass(7, 11), ResidueClass(3, 4)], repeats=[], start=10**30, length=30)
def test_multiplicity_window_matches_per_position_count(classes, repeats, start, length):
    sys = ResidueSystem(tuple(classes) + tuple(classes[i % len(classes)] for i in repeats))
    expect = [multiplicity(sys, start + i) for i in range(length)]
    assert multiplicity_window(sys, start, length) == expect


json_scalars = st.none() | st.booleans() | st.integers(-10**4, 10**4) | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    json_scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)


def near_miss(draw, leaf):
    """A value close to leaf: another decimal string or fraction, or the
    same number in another JSON type."""
    if "/" in leaf:
        num, _, den = leaf.partition("/")
        return f"{int(num) + draw(st.integers(-2, 2))}/{int(den) + draw(st.integers(-2, 2))}"
    n = int(leaf)
    return draw(st.sampled_from([str(n + draw(st.integers(-2, 2))), n, float(n), n == 1, f" {n}"]))


@settings(FIXED, max_examples=200)
@given(ps=st.lists(st.integers(1, 12), min_size=1, max_size=3).map(tuple), data=st.data())
def test_a_mutated_table_document_loads_equal_or_raises_value_error(ps, data):
    table = table_for(PeriodSystem(ps))
    doc = copy.deepcopy(table_to_json_dict(table))
    key = data.draw(st.sampled_from(sorted(doc)), label="field")
    kind = data.draw(st.sampled_from(["delete", "replace", "leaf", "drop", "repeat", "unlist"]), label="kind")
    field = doc[key]
    # the list that holds the leaf or entry to change: the field, or one row
    row = None
    if key == "rows" and (kind == "unlist" or not data.draw(st.booleans())):
        row = data.draw(st.integers(0, len(field) - 1), label="row")
    holder = field if row is None else field[row]
    if kind == "delete":
        del doc[key]
    elif kind == "replace" or not isinstance(holder, list) or not holder:
        doc[key] = data.draw(json_values, label="value")
    elif kind == "unlist":
        # the same strings joined, or as an object's keys: a loader that
        # iterated them without checking the type would read the list
        unlisted = data.draw(st.sampled_from(["".join, dict.fromkeys]), label="container")(holder)
        if row is None:
            doc[key] = unlisted
        else:
            field[row] = unlisted
        with pytest.raises(ValueError, match="malformed table document"):
            table_from_json_dict(doc)
        return
    else:
        i = data.draw(st.integers(0, len(holder) - 1), label="index")
        if kind == "drop":
            del holder[i]
        elif kind == "repeat":
            holder.insert(i, copy.deepcopy(holder[i]))
        elif isinstance(holder[i], str) and data.draw(st.booleans(), label="near miss"):
            holder[i] = near_miss(data.draw, holder[i])
        else:
            holder[i] = data.draw(json_values, label="value")
    try:
        back = table_from_json_dict(doc)
    except ValueError:
        return
    assert back == table


residue_tokens = st.sampled_from(["0", "1", "-1", "2", "12", "0x1", "1.5", "mod", "#", "", "[", "]", "é", "１"])
residue_lines = st.lists(st.lists(residue_tokens, max_size=4).map(" ".join), max_size=5).map("\n".join)
residue_json = st.one_of(
    json_values,
    st.lists(st.lists(json_scalars, max_size=3), max_size=4),
).map(json.dumps)


@settings(FIXED, max_examples=300)
@given(text=st.one_of(st.text(max_size=40), residue_lines, residue_json))
def test_parse_residue_system_fails_only_with_value_error(text):
    try:
        system = parse_residue_system(text)
    except ValueError:
        return
    assert isinstance(system, ResidueSystem)
    assert all(0 <= cls.residue < cls.modulus for cls in system.classes)


# no 'h': "-h" would print the help and exit 0
argv_tokens = st.one_of(
    st.integers().map(str),
    st.text(st.sampled_from("0123456789-+_ .,x\n\t\u0663\u00b2\uff11"), max_size=6),
)


@settings(FIXED, max_examples=200)
@given(token=argv_tokens)
@example(token="-\u0663")
@example(token="-0")
@example(token="007")
def test_cli_takes_an_argv_integer_exactly_when_it_is_ascii_decimal(token):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(["extrapolate", "--periods", "1", "--initial", "0", "--at", token])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    if re.fullmatch("-?[0-9]+", token):
        assert code == 0, err.getvalue()
        assert json.loads(out.getvalue())["x"] == str(int(token))
    else:
        assert (code, out.getvalue()) == (2, "")


# Value tokens besides plain integers: --vec tokens, and what argparse reads
# apart from a plain value: '-', '--', '=', '-h', empty strings, spaces, '+1'
# and digits of other scripts.
odd_tokens = st.sampled_from([
    "", " ", "-", "--", "-h", "--help", "=", "1=2", "+1", "\u0663", "-\u0663", " 1", "1 ", "-1 ", "1_0",
    "-1,2", "3,-4", "-4,12,-18", "1,", "0 mod 2", "-1 mod 3", "x", "-x", "--x", "-1.5", "-1\n", "-\u00b2",
])
plain_integers = st.integers(1, 12).map(str) | st.integers().map(str)


@st.composite
def command_lines(draw):
    """argv for one command, mostly well formed: some of its arguments, each
    as its flag (mostly exact, else abbreviated or with =value) and mostly as
    many values as its nargs takes, mostly integers, in any order, and now
    and then a stray token."""
    command = draw(st.sampled_from(list(_COMMANDS)))
    pieces = []
    for flag, spec in _COMMANDS[command][-1]:
        if not draw(st.booleans()) and not (spec.get("required") and draw(st.booleans())):
            continue
        nargs = spec.get("nargs", 0 if "action" in spec else 1)
        count = draw(st.sampled_from([nargs, nargs, nargs, 0, 1, 3])) if nargs != "+" else draw(st.integers(0, 3))
        count = 1 if count == "?" else count
        values = [draw(st.one_of(plain_integers, plain_integers, odd_tokens)) for _ in range(count)]
        if flag[0] != "-":
            pieces.append(values)
            continue
        form = draw(st.sampled_from(["exact"] * 6 + ["prefix", "equals"]))
        if form == "prefix":
            flag = flag[: draw(st.integers(2, len(flag)))]
        elif form == "equals" and values:
            flag, values = f"{flag}={values[0]}", values[1:]
        pieces.append([flag, *values])
    pieces = draw(st.permutations(pieces))
    argv = [command, *(token for piece in pieces for token in piece)]
    if draw(st.integers(0, 3)) == 0:
        stray = draw(st.one_of(odd_tokens, plain_integers, st.sampled_from(["--out", "--bogus", "--int"])))
        argv.insert(draw(st.integers(1, len(argv))), stray)
    return argv


PARSER = build_parser()


@settings(FIXED, max_examples=400)
@given(argv=command_lines())
@example(argv=["extrapolate", "--periods", "2", "--initial", "-4,12", "3,-4", "--at", "-5", "--vec", "2"])
@example(argv=["cover", "-", "--odd", "--check", "3", "-1"])
@example(argv=["cover", "--odd", "src"])
@example(argv=["coeffs", "--out", "t.json", "2", "3"])
@example(argv=["coeffs", "2", "--out", "-1,2"])  # '-' then a digit is a value on extrapolate alone
@example(argv=["cover", "--classes", "-\u00b2"])  # a digit, not a decimal digit
@example(argv=["extrapolate", "--periods", "2", "--initial", "1", "2", "--at", "3", "--mod", "2", "--vec", "2"])
@example(argv=["extrapolate", "--periods", "2", "--initial", "1", "2", "--at", "3", "--int", "--mod", "2"])
def test_the_grammar_reader_reads_what_argparse_reads_or_nothing(argv):
    read = _read(argv)
    if read is None:
        return
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(err):
        try:
            expect = vars(PARSER.parse_args(argv))
        except SystemExit as exc:
            expect = f"exit {exc.code}: {err.getvalue()}"
    assert vars(read) == expect


# The trees the CLI writes: str-keyed dicts, lists, strings and booleans,
# drawn here; a table's rows, a `TableRows`, are drawn on their own below.
# Strings from ASCII with `"` and `\` come often, so lists that need only one
# escape are drawn as well as lists that need none.
json_strings = st.one_of(st.text(), st.text(st.characters(max_codepoint=127)))
json_trees = st.recursive(
    st.one_of(json_strings, st.booleans()),
    lambda children: st.one_of(
        st.lists(json_strings), st.lists(children), st.dictionaries(json_strings, children)
    ),
    max_leaves=30,
)


@settings(FIXED, max_examples=500)
@given(tree=json_trees)
@example(tree=['"', "\\", "\x7f", "\n", "é", "\ud800"])  # each needs an escape
@example(tree=["1", 'a"b'])
@example(tree=["1", "a\\b"])
@example(tree=["1", "\x7f"])
@example(tree=[])
@example(tree={})
@example(tree=[[], ["1"]])
@example(tree=[True, "1"])
@example(tree={"a": []})
def test_cli_writer_matches_json_dumps_indent_2(tree):
    assert _dumps(tree) == json.dumps(tree, indent=2)


@pytest.mark.parametrize(
    "tree",
    [1, None, ["1", 1], {"a": None}, ((None,),), (("1",),), ((1.0,),), ((True,),),
     (), ((),), ((), (0, -1)), {"rows": ((1, 0), (1, 0), (-(2**70), 1))}, [((),), ()]],
)
def test_cli_writer_refuses_a_non_string_scalar(tree):
    # a tuple of int tuples is no table's rows: only `TableRows` are
    with pytest.raises(TypeError):
        _dumps(tree)


@settings(FIXED, max_examples=500)
@given(value=st.integers())
@example(value=0)
@example(value=-1)
@example(value=-(2**70))
def test_cell_token_is_the_json_text_of_the_decimal_string(value):
    assert _QuotedCell()[value] == json.dumps(str(value))


@st.composite
def small_systems(draw):
    """k <= 3 periods with lcm N <= 600: each period divides a drawn N."""
    n = draw(st.integers(1, 600), label="N")
    return tuple(draw(st.lists(st.sampled_from(divisors(n)), min_size=1, max_size=3), label="periods"))


@settings(FIXED, max_examples=100)
@given(value=small_systems().map(PeriodSystem))
@example(value=PeriodSystem((1,)))
@example(value=PeriodSystem((60, 84, 90)))
@example(value=((1, True, 1.0),))  # hand-made rows, of cells equal to 1 or not, are no JSON value
@example(value=((0, -1), (False, 0)))
def test_cli_writer_matches_json_dumps_indent_2_on_table_rows(value):
    if not isinstance(value, PeriodSystem):
        with pytest.raises(TypeError):
            _dumps(value)
        return
    rows = [[str(cell) for cell in row] for row in coefficient_table(value).rows]
    streamed = table_rows(value)
    for doc, expect in ((streamed, rows), ({"N": "1", "rows": streamed}, {"N": "1", "rows": rows})):
        same = _dumps(doc) == json.dumps(expect, indent=2)
        assert same  # a bool: a failing example is not diffed as two long texts


@settings(FIXED, max_examples=40)
@given(ps=small_systems())
@example(ps=(1,))
@example(ps=(7,))
@example(ps=(2, 3))
@example(ps=(60, 84, 90))
def test_coeffs_stdout_and_out_file_have_the_bytes_of_json_dumps(ps):
    expect = json.dumps(table_to_json_dict(coefficient_table(PeriodSystem(ps))), indent=2) + "\n"
    argv = ["coeffs", *map(str, ps)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert out.getvalue() == expect
    with tempfile.TemporaryDirectory() as tmp:
        target = Path(tmp) / "table.json"
        with contextlib.redirect_stdout(out):
            assert main([*argv, "--out", str(target)]) == 0
        assert target.read_text() == expect
    assert out.getvalue() == expect  # --out printed nothing
