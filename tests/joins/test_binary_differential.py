"""Differential test: the binary hash-join pipeline against a bag oracle.

The oracle is a nested-loop replay of the same left-deep atom order,
written here and sharing nothing with the driver: it extends every
partial binding with every row of the next atom that agrees on the
bound attributes (Python ``==``, so ``1 == 1.0 == True`` join), keeping
duplicates.  The pipeline must reproduce its result rows as a bag — with
each value's type intact — and its ``lookups`` (partial bindings probing
a stage) and ``intermediate_tuples`` (bindings leaving a stage) exactly.

Three entry points run the same pipeline: the standalone
:class:`BinaryHashJoin` driver (tables built per run, batch bound shrunk
so every window split is exercised), ``join(algorithm="binary")`` and a
``unified`` plan whose root is a binary stage (the engine's prepared
path, tables built at prepare time).
"""

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import join
from repro.engine import bind, plan, prepare
from repro.joins import BinaryHashJoin, resolve_relations
from repro.joins import binary
from repro.planner import parse_query
from repro.storage import Relation

ATTRIBUTES = ("a", "b", "c", "d")

#: small ints (duplicate-prone), int64 edges and just past them, and
#: values equal to ints under Python equality but of another type
VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2 ** 63 - 1, 2 ** 63 - 2, -(2 ** 63), 2 ** 63]),
    st.sampled_from(["x", "007", "7", True, False, 1.0, 2.5, -0.0]),
)


@st.composite
def instances(draw):
    """A random query (1-4 atoms over a-d), its relations and an order.

    Covers single-atom and disconnected queries, multi-column keys,
    empty relations and duplicate rows; a quarter of the relations hold
    only small ints, so the int64 stage-table path is common.
    """
    count = draw(st.integers(1, 4))
    atoms = []
    for index in range(count):
        attrs = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                                    max_size=3, unique=True)))
        values = draw(st.sampled_from([VALUES, st.integers(-3, 3)]))
        rows = draw(st.lists(st.tuples(*[values] * len(attrs)), max_size=8))
        atoms.append((f"R{index}", attrs, rows))
    order = draw(st.permutations([alias for alias, _, _ in atoms]))
    return atoms, list(order)


def query_text(atoms) -> str:
    return ", ".join(f"{alias}({','.join(attrs)})" for alias, attrs, _ in atoms)


def sources(atoms) -> dict:
    return {alias: Relation(alias, attrs, rows) for alias, attrs, rows in atoms}


def bag_oracle(atoms, order):
    """``(rows, lookups, intermediates)`` of the left-deep pipeline.

    Rows are bindings as dicts; an attribute keeps the value of the
    first atom that bound it, as a pipeline carries the probe side's
    value forward.
    """
    spec = {alias: (attrs, rows) for alias, attrs, rows in atoms}
    attrs, rows = spec[order[0]]
    partial = [dict(zip(attrs, row)) for row in rows]
    lookups = intermediates = 0
    for alias in order[1:]:
        attrs, rows = spec[alias]
        lookups += len(partial)
        partial = [{**dict(zip(attrs, row)), **binding}
                   for binding in partial for row in rows
                   if all(binding.get(a, v) == v for a, v in zip(attrs, row))]
        intermediates += len(partial)
    return partial, lookups, intermediates


def typed(row) -> tuple:
    """A row with every value's type attached: ``True`` != ``1`` here."""
    return tuple((type(value), value) for value in row)


def check(result, atoms, order) -> None:
    bindings, lookups, intermediates = bag_oracle(atoms, order)
    attributes = result.attributes
    expected = Counter(typed(tuple(b[a] for a in attributes))
                       for b in bindings)
    assert Counter(typed(row) for row in result.rows) == expected
    assert result.count == len(bindings)
    assert result.metrics.lookups == lookups
    assert result.metrics.intermediate_tuples == intermediates


@settings(max_examples=80, deadline=None)
@given(instance=instances(), batch=st.sampled_from([1, 2, 3, 4096]))
def test_standalone_driver_matches_bag_oracle(instance, batch):
    atoms, order = instance
    query = parse_query(query_text(atoms))
    relations = resolve_relations(query, sources(atoms))
    with mock.patch.object(binary, "BATCH_ROWS", batch):
        result = BinaryHashJoin(query, relations, order=order).run(
            materialize=True)
        counted = BinaryHashJoin(query, relations, order=order).run()
    check(result, atoms, order)
    assert counted.count == result.count
    assert counted.metrics.lookups == result.metrics.lookups
    assert (counted.metrics.intermediate_tuples
            == result.metrics.intermediate_tuples)


@settings(max_examples=40, deadline=None)
@given(instance=instances())
def test_join_binary_matches_bag_oracle(instance):
    atoms, order = instance
    result = join(query_text(atoms), sources(atoms), algorithm="binary",
                  binary_order=order, materialize=True)
    check(result, atoms, order)


@settings(max_examples=40, deadline=None)
@given(instance=instances())
def test_unified_binary_root_matches_bag_oracle(instance):
    atoms, order = instance
    bound = bind(query_text(atoms), sources(atoms))
    unified = plan(bound, algorithm="unified", binary_order=order)
    root = unified.root_stage
    if root.algorithm != "binary" or root.children:
        return  # a WCOJ stage runs here; its semantics are not the bag's
    with prepare(bound, unified) as prepared:
        result = prepared.execute(materialize=True)
    check(result, atoms, order)


def test_unified_mixed_plan_root_probes_core_output():
    """A cyclic core (triangle) with an ear: the binary root stage probes
    the core's materialized output; on duplicate-free inputs set and
    bag semantics agree, so the row bag must match the oracle's."""
    edges = [(0, 1), (1, 2), (2, 0), (1, 0), (0, 2), (2, 1), (2, 3)]
    ear = [(0, "x"), (0, 2.5), (1, True), (3, "y")]
    atoms = [("E1", ("a", "b"), edges), ("E2", ("b", "c"), edges),
             ("E3", ("c", "a"), edges), ("L", ("a", "d"), ear)]
    bound = bind(query_text(atoms), sources(atoms))
    unified = plan(bound, algorithm="unified")
    assert unified.root_stage.algorithm == "binary"
    assert unified.root_stage.children
    with prepare(bound, unified) as prepared:
        result = prepared.execute(materialize=True)
    bindings, _, _ = bag_oracle(atoms, ["E1", "E2", "E3", "L"])
    positions = [result.attributes.index(a) for a in "abcd"]
    assert Counter(typed(tuple(row[p] for p in positions))
                   for row in result.rows) == Counter(
        typed(tuple(b[a] for a in "abcd")) for b in bindings)


@pytest.mark.parametrize("materialize", [False, True])
def test_expansion_past_the_batch_bound(materialize):
    """One probe batch expands to far more than ``BATCH_ROWS`` tuples,
    and so does the stage after it: the windows must cover the whole
    bag, in depth-first order, without losing or repeating a tuple."""
    fanout = binary.BATCH_ROWS * 2 + 5
    atoms = [("R", ("a", "b"), [(0, 1), (0, 2), (7, 3)]),
             ("S", ("a", "c"), [(0, c % 3) for c in range(fanout)]),
             ("T", ("c", "d"), [(0, 10), (1, 11), (1, 12)])]
    order = ["R", "S", "T"]
    query = parse_query(query_text(atoms))
    relations = resolve_relations(query, sources(atoms))
    result = BinaryHashJoin(query, relations, order=order).run(
        materialize=materialize)
    bindings, lookups, intermediates = bag_oracle(atoms, order)
    assert result.count == len(bindings)
    assert result.metrics.lookups == lookups
    assert result.metrics.intermediate_tuples == intermediates
    if materialize:
        # left-deep, depth-first: the same sequence as the nested loop
        assert result.rows == [tuple(b[a] for a in result.attributes)
                               for b in bindings]
