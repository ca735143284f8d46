"""Property tests: the table, the single-row route and brute force agree on
random sums, and the two parsers of outside input fail only with ValueError.

Every test runs derandomized and without a deadline, so a run is the same
on every machine and never fails for being slow.
"""

import copy
import functools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from persum.covering import ResidueSystem, parse_residue_system
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


def group_values(draw, group):
    """A strategy for one group's values, the group drawn first."""
    if group == "int":
        return st.integers(-10**6, 10**6)
    if group == "mod":
        m = draw(st.integers(2, 10**9))
        return st.integers(0, m - 1).map(lambda v: ModInt(v, m))
    d = draw(st.integers(1, 3))
    return st.tuples(*[st.integers(-99, 99)] * d).map(IntVector)


def times(g, c):
    """c times the group value g, computed here rather than by persum."""
    if isinstance(g, ModInt):
        return ModInt(c * g.value % g.modulus, g.modulus)
    if isinstance(g, IntVector):
        return IntVector(tuple(c * a for a in g.entries))
    return c * g


@pytest.mark.parametrize("group", ["int", "mod", "vec"])
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
    assert by_row == extrapolate(ps, initial, x) == psi(x)


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
