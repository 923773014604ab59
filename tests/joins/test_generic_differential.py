"""Differential test: both Generic Join engines against a set oracle.

The oracle is a brute force written here and sharing nothing with the
drivers.  For the total order the join ran under, it extends every
partial binding of the first ``d`` attributes with every value of
attribute ``d + 1`` and keeps the bindings every atom can still match
on its bound attributes — exactly the partial bindings a Generic Join
level lets through.  That gives the result (set semantics: duplicate
rows count once), the per-level survivors (``intermediate_tuples``) and
the bindings each level probes (``lookups`` of the batch engine: one per
binding and participating atom).

Every index runs under ``engine="tuple"`` and ``engine="batch"``, the
batch engine also with its window bound shrunk so that each level's
frontier is cut into many windows.  Batch rows come out in
lexicographic order; the tuple engine enumerates children in index
order, which is sorted for ``sortedtrie`` and ``btree`` only.
"""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import join
from repro.errors import ConfigurationError
from repro.joins import binary
from repro.storage import Relation

ATTRIBUTES = ("a", "b", "c", "d")
INDEXES = ("sonic", "sortedtrie", "hashtrie", "btree")
#: structures without inner-depth false positives: their counters must
#: equal the oracle's (Sonic may let a rare candidate survive a level)
EXACT = ("sortedtrie", "hashtrie", "btree")
#: structures whose tuple-engine child walks run in sorted order
ORDERED = ("sortedtrie", "btree")

#: small ints (duplicate-prone, negative), int64 extremes, whose value
#: span overflows a naive (prefix, value) composite key, and ints just
#: past int64, which a float64 candidate array would merge
VALUES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([2 ** 63 - 1, -(2 ** 63 - 1), -(2 ** 63), 2 ** 63 - 2,
                     2 ** 63, 2 ** 63 + 1]),
)


@st.composite
def instances(draw):
    """1-4 atoms over a-d: single-atom and disconnected queries, empty
    relations and duplicate rows included."""
    atoms = []
    for index in range(draw(st.integers(1, 4))):
        attrs = tuple(draw(st.lists(st.sampled_from(ATTRIBUTES), min_size=1,
                                    max_size=3, unique=True)))
        values = draw(st.sampled_from([VALUES, st.integers(-3, 3)]))
        rows = draw(st.lists(st.tuples(*[values] * len(attrs)), max_size=10))
        atoms.append((f"R{index}", attrs, rows))
    return atoms


def query_text(atoms) -> str:
    return ", ".join(f"{alias}({','.join(attrs)})" for alias, attrs, _ in atoms)


def sources(atoms) -> dict:
    return {alias: Relation(alias, attrs, rows) for alias, attrs, rows in atoms}


def set_oracle(atoms, order):
    """``(rows, intermediates, lookups)`` of a Generic Join over ``order``."""
    specs = [(attrs, set(rows)) for _, attrs, rows in atoms]
    domain = {attribute: {row[attrs.index(attribute)]
                          for attrs, rows in specs if attribute in attrs
                          for row in rows}
              for attribute in order}

    projections: dict = {}

    def alive(binding: dict) -> bool:
        for number, (attrs, rows) in enumerate(specs):
            bound = tuple(i for i, a in enumerate(attrs) if a in binding)
            if not bound:
                continue
            key = (number, bound)
            if key not in projections:
                projections[key] = {tuple(row[i] for i in bound)
                                    for row in rows}
            if tuple(binding[attrs[i]] for i in bound) not in projections[key]:
                return False
        return True

    frontier = [{}]
    intermediates = lookups = 0
    for attribute in order:
        participants = sum(attribute in attrs for attrs, _ in specs)
        lookups += len(frontier) * participants
        frontier = [extended for binding in frontier
                    for value in sorted(domain[attribute])
                    if alive(extended := {**binding, attribute: value})]
        intermediates += len(frontier)
    rows = [tuple(binding[a] for a in order) for binding in frontier]
    return rows, intermediates, lookups


def run(atoms, index, engine, materialize=True):
    return join(query_text(atoms), sources(atoms), algorithm="generic",
                index=index, engine=engine, materialize=materialize)


def counters(result) -> tuple:
    metrics = result.metrics
    return metrics.lookups, metrics.intermediate_tuples, result.count


@settings(max_examples=60, deadline=None)
@given(atoms=instances(), window=st.sampled_from([1, 2, 3]))
def test_engines_match_set_oracle(atoms, window):
    for index in INDEXES:
        if index == "sonic" and any(len(attrs) < 2 for _, attrs, _ in atoms):
            # Sonic indexes tuples of two or more columns, by design
            with pytest.raises(ConfigurationError):
                run(atoms, index, "batch")
            continue
        batch = run(atoms, index, "batch")
        tuple_ = run(atoms, index, "tuple")
        rows, intermediates, lookups = set_oracle(atoms, batch.attributes)
        assert tuple_.attributes == batch.attributes
        # lexicographic, as the oracle enumerates
        assert batch.rows == rows, index
        if index in ORDERED:
            assert tuple_.rows == batch.rows, index
        else:
            assert sorted(tuple_.rows) == batch.rows, index
        if index in EXACT:
            assert counters(batch) == (lookups, intermediates, len(rows))
            assert (tuple_.metrics.intermediate_tuples
                    == batch.metrics.intermediate_tuples)
        counted = run(atoms, index, "batch", materialize=False)
        with mock.patch.object(binary, "BATCH_ROWS", window):
            windowed = run(atoms, index, "batch")
        assert windowed.rows == batch.rows, index
        assert counters(windowed) == counters(batch) == counters(counted)


def test_frontier_wider_than_one_window():
    """Level ``b`` lets 5,000 bindings through, so level ``c`` runs over
    two windows at the default bound; rows and counters must not see
    the cut."""
    atoms = [("R", ("a", "b"), [(a, b) for a in range(50) for b in range(100)]),
             ("S", ("b", "c"), [(b, c) for b in range(100) for c in range(3)
                                if (b + c) % 3]),
             ("T", ("a", "c"), [(a, c) for a in range(50) for c in range(3)
                                if a % 4 != c])]
    rows, intermediates, lookups = set_oracle(atoms, ("a", "b", "c"))
    for index in INDEXES:
        results = {}
        for engine in ("tuple", "batch"):
            results[engine] = join(query_text(atoms), sources(atoms),
                                   algorithm="generic", index=index,
                                   engine=engine, order=("a", "b", "c"),
                                   materialize=True, profile=True)
        batch = results["batch"]
        assert batch.profile.levels[1].survivors > binary.BATCH_ROWS
        assert batch.rows == rows
        assert sorted(results["tuple"].rows) == rows
        assert counters(batch) == (lookups, intermediates, len(rows))


@pytest.mark.parametrize("index", INDEXES)
def test_int64_extremes_in_one_window(index):
    """Prefixes holding -(2**63 - 1) and 2**63 - 1 side by side: the
    (prefix, value) keys must not wrap."""
    nodes = [-(2 ** 63 - 1), -(2 ** 63), -1, 0, 2 ** 63 - 1]
    edges = [(x, y) for x in nodes for y in nodes if x != y]
    atoms = [("E1", ("a", "b"), edges), ("E2", ("b", "c"), edges),
             ("E3", ("c", "a"), edges)]
    result = run(atoms, index, "batch")
    rows, _, _ = set_oracle(atoms, result.attributes)
    assert len(rows) == 5 * 4 * 3
    assert result.rows == rows


@pytest.mark.parametrize("index", INDEXES)
def test_seed_is_the_smallest_array_and_ties_go_first(index):
    """Per binding, the seed is the participant with the fewest
    candidates, the first one on a tie: at ``c``, binding (0, 1) sees
    S and T with two values each (S, first), binding (0, 2) sees S with
    three and T with two (T)."""
    atoms = [("R", ("a", "b"), [(0, 1), (0, 2)]),
             ("S", ("b", "c"), [(1, 5), (1, 6), (2, 5), (2, 6), (2, 7)]),
             ("T", ("a", "c"), [(0, 5), (0, 6)])]
    result = join(query_text(atoms), sources(atoms), algorithm="generic",
                  index=index, engine="batch", order=("a", "b", "c"),
                  profile=True)
    assert result.count == 4
    assert [level.seed_counts for level in result.profile.levels] == [
        {"R": 1, "T": 0}, {"R": 1, "S": 0}, {"S": 1, "T": 1}]


@pytest.mark.parametrize("index", INDEXES)
def test_ints_past_int64_keep_their_values(index):
    """A node whose children are 5, 2**63 and 2**63 + 1 keeps them as
    exact ints: no float64 array merges the two large ones or turns 5
    into 5.0."""
    atoms = [("R", ("a", "b"), [(0, 5), (0, 2 ** 63), (0, 2 ** 63 + 1)]),
             ("S", ("b", "c"), [(2 ** 63 + 1, 1), (5, 2)])]
    rows, _, _ = set_oracle(atoms, ("b", "a", "c"))
    for engine in ("tuple", "batch"):
        result = join(query_text(atoms), sources(atoms), algorithm="generic",
                      index=index, engine=engine, order=("b", "a", "c"),
                      materialize=True)
        assert sorted(result.rows) == rows == [(5, 0, 2), (2 ** 63 + 1, 0, 1)]
        assert all(type(row[0]) is int for row in result.rows)
