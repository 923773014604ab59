"""Engine-equivalence property tests: batch vs tuple Generic Join.

The batch driver (:class:`repro.joins.batch.GenericJoinBatch`) must be
observationally identical to the tuple driver over every registered index
— same counts, same materialized rows, same Python value types — on
randomized query/data combinations including empty results and Zipf-skewed
inputs.  These tests are the local mirror of the CI ``perf-trajectory``
equivalence gate.
"""

import random

import pytest

from repro.data.zipf import ZipfGenerator
from repro.joins import join
from repro.planner.query import parse_query
from repro.storage.relation import Relation

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
BOWTIE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a), E4=E(a,d), E5=E(d,e), E6=E(e,a)")
CHAIN3 = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,d)")

#: every index exercised through the batch engine: three native kernels
#: plus one structure that joins through the per-value fallback shim
INDEXES = ("sonic", "sortedtrie", "hashtrie", "btree")


def random_edges(count: int, domain: int, seed: int) -> Relation:
    rng = random.Random(seed)
    rows = {(rng.randrange(domain), rng.randrange(domain)) for _ in range(count)}
    return Relation("E", ("src", "dst"), rows)


def zipf_edges(count: int, domain: int, alpha: float, seed: int) -> Relation:
    src = ZipfGenerator(domain, alpha=alpha, seed=seed).sample(count)
    dst = ZipfGenerator(domain, alpha=alpha, seed=seed + 1).sample(count)
    rows = set(zip(src.tolist(), dst.tolist()))
    return Relation("E", ("src", "dst"), rows)


def self_join_relations(query, edges: Relation) -> dict:
    return {atom.alias: edges for atom in query.atoms}


def assert_engines_agree(query, relations, index: str, **kwargs):
    tuple_result = join(query, relations, index=index, engine="tuple",
                        materialize=True, **kwargs)
    batch_result = join(query, relations, index=index, engine="batch",
                        materialize=True, **kwargs)
    assert batch_result.count == tuple_result.count
    assert sorted(batch_result.rows) == sorted(tuple_result.rows)
    for row in batch_result.rows[:50]:
        assert all(not hasattr(value, "dtype") for value in row), (
            f"numpy scalar leaked into batch results: {row!r}"
        )


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("query", [TRIANGLE, BOWTIE, CHAIN3],
                         ids=["triangle", "bowtie", "chain3"])
@pytest.mark.parametrize("seed", range(3))
def test_randomized_self_joins(index, query, seed):
    edges = random_edges(300, 40, seed=seed)
    assert_engines_agree(query, self_join_relations(query, edges), index)


@pytest.mark.parametrize("index", INDEXES)
@pytest.mark.parametrize("alpha", [0.6, 1.1], ids=["mild", "heavy"])
def test_zipf_skewed_inputs(index, alpha):
    edges = zipf_edges(400, 60, alpha=alpha, seed=7)
    assert_engines_agree(TRIANGLE, self_join_relations(TRIANGLE, edges), index)


@pytest.mark.parametrize("index", INDEXES)
def test_empty_relation(index):
    empty = Relation("E", ("src", "dst"), [])
    assert_engines_agree(TRIANGLE, self_join_relations(TRIANGLE, empty), index)
    result = join(TRIANGLE, self_join_relations(TRIANGLE, empty),
                  index=index, engine="batch")
    assert result.count == 0


@pytest.mark.parametrize("index", INDEXES)
def test_empty_result_nonempty_input(index):
    # a strict DAG on distinct levels: plenty of edges, zero triangles
    rows = [(a, a + 100) for a in range(50)] + [(a + 100, a + 200) for a in range(50)]
    edges = Relation("E", ("src", "dst"), rows)
    assert_engines_agree(TRIANGLE, self_join_relations(TRIANGLE, edges), index)
    result = join(TRIANGLE, self_join_relations(TRIANGLE, edges),
                  index=index, engine="batch")
    assert result.count == 0


@pytest.mark.parametrize("index", ("sonic", "sortedtrie"))
@pytest.mark.parametrize("dynamic_seed", [True, False], ids=["dynamic", "static"])
def test_seed_selection_modes_agree(index, dynamic_seed):
    edges = random_edges(250, 30, seed=11)
    assert_engines_agree(TRIANGLE, self_join_relations(TRIANGLE, edges),
                         index, dynamic_seed=dynamic_seed)


@pytest.mark.parametrize("index", INDEXES)
def test_non_self_join(index):
    rng = random.Random(5)
    r = Relation("R", ("a", "b"),
                 {(rng.randrange(25), rng.randrange(25)) for _ in range(120)})
    s = Relation("S", ("b", "c"),
                 {(rng.randrange(25), rng.randrange(25)) for _ in range(120)})
    t = Relation("T", ("c", "a"),
                 {(rng.randrange(25), rng.randrange(25)) for _ in range(120)})
    query = parse_query("R(a,b), S(b,c), T(c,a)")
    assert_engines_agree(query, {"R": r, "S": s, "T": t}, index)


def test_auto_engine_picks_batch_only_with_native_kernels():
    edges = random_edges(100, 20, seed=1)
    relations = self_join_relations(TRIANGLE, edges)
    batch = join(TRIANGLE, relations, index="sonic", engine="auto")
    assert batch.metrics.algorithm == "generic_join_batch"
    fallback = join(TRIANGLE, relations, index="btree", engine="auto")
    assert fallback.metrics.algorithm == "generic_join"
    assert batch.count == fallback.count


@pytest.mark.parametrize("index", INDEXES)
def test_profiled_and_plain_runs_take_one_path(index):
    """``profile=True`` only hands the run's counts to the observer: the
    bowtie's rows, lookups and intermediates are those of a plain run."""
    relations = self_join_relations(BOWTIE, random_edges(300, 40, seed=4))
    runs = [join(BOWTIE, relations, index=index, engine="batch",
                 materialize=True, profile=profile)
            for profile in (False, True)]
    plain, profiled = runs
    assert plain.profile is None and profiled.profile is not None
    assert profiled.rows == plain.rows
    assert (profiled.metrics.lookups, profiled.metrics.intermediate_tuples) \
        == (plain.metrics.lookups, plain.metrics.intermediate_tuples)
    levels = profiled.profile.levels
    assert sum(level.survivors for level in levels) \
        == plain.metrics.intermediate_tuples
    assert levels[-1].survivors == plain.count > 0
