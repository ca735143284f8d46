"""Property tests: the table, the single-row route and brute force agree on
random sums in four groups, one of them a class defined here, the marked multiplicity window agrees with per-position
counting, the two parsers of outside input fail only with ValueError, and
the CLI's JSON writer writes the bytes of `json.dumps(indent=2)`.

Every test runs derandomized and without a deadline, so a run is the same
on every machine and never fails for being slow.
"""

import copy
import functools
import json
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from persum.cli import _dumps
from persum.covering import (
    ResidueClass,
    ResidueSystem,
    multiplicity,
    multiplicity_window,
    parse_residue_system,
)
from persum.groups import IntVector, ModInt, zero_like
from persum.reconstruction import (
    PeriodicMap,
    SumOfPeriodicMaps,
    coefficient_table,
    extrapolate,
    table_from_json_dict,
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
    kind = data.draw(st.sampled_from(["delete", "replace", "leaf", "drop", "repeat"]), label="kind")
    field = doc[key]
    # the list that holds the leaf or entry to change: the field, or one row
    holder = field if key != "rows" or data.draw(st.booleans()) else data.draw(st.sampled_from(field))
    if kind == "delete":
        del doc[key]
    elif kind == "replace" or not isinstance(holder, list) or not holder:
        doc[key] = data.draw(json_values, label="value")
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


# The trees the CLI writes: str-keyed dicts, lists, strings and booleans.
# Strings from ASCII with `"` and `\` come often, so lists that need only
# one escape are drawn as well as lists that need none.
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


@pytest.mark.parametrize("tree", [1, None, ["1", 1], {"a": None}])
def test_cli_writer_refuses_a_non_string_scalar(tree):
    with pytest.raises(TypeError):
        _dumps(tree)
