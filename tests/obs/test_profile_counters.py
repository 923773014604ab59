"""Counter accuracy: profile counters must match brute-force ground truth.

The pinned workload is the Fig 1 triangle query over a seeded random
graph.  For the Generic Join order ``(a, b, c)`` the per-level survivor
counts have a closed-form brute force:

* level ``a`` — values appearing as a source (``E1`` prefix) *and* as a
  destination (``E3 = E(c, a)`` is trie-keyed ``(a, c)``, so its first
  key column is the edge destination);
* level ``b`` — edges ``(a, b)`` whose ``a`` survived level 0 and whose
  ``b`` is some edge's source (``E2`` prefix);
* level ``c`` — completed triangles: ``(b, c)`` and ``(c, a)`` both
  edges.

Both Generic Join engines must report these counts *exactly*, agree with
each other candidate-for-candidate, and the emitted-tuple counter must
equal the brute-force triangle count.
"""

import pytest

pytest.importorskip("numpy")

from repro.data.graphs import random_edge_relation
from repro.joins.executor import join
from repro.obs.observer import JoinObserver
from repro.obs.profile import validate_profile
from repro.planner.query import parse_query

QUERY = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")


@pytest.fixture(scope="module")
def edges():
    return random_edge_relation(100, 500, seed=13)


@pytest.fixture(scope="module")
def truth(edges):
    """Brute-force (survivors per level, triangle count)."""
    edge_set = set(tuple(row) for row in edges)
    sources = {s for s, _ in edge_set}
    dests = {d for _, d in edge_set}
    a_surv = sources & dests
    b_surv = [(a, b) for a, b in edge_set if a in a_surv and b in sources]
    triangles = [
        (a, b, c)
        for a, b in b_surv
        for c in {d for s, d in edge_set if s == b}
        if (c, a) in edge_set
    ]
    return {
        "survivors": [len(a_surv), len(b_surv), len(triangles)],
        "count": len(triangles),
    }


def pipeline_partials(edges, order):
    """Bag partial results of a left-deep pipeline over ``order``: entry
    ``i`` lists the bindings after joining the first ``i + 1`` atoms."""
    rows = [tuple(row) for row in edges]
    attrs = {atom.alias: atom.attributes for atom in QUERY.atoms}
    partial = [[dict(zip(attrs[order[0]], row)) for row in rows]]
    for alias in order[1:]:
        partial.append([
            {**binding, **dict(zip(attrs[alias], row))}
            for binding in partial[-1]
            for row in rows
            if all(binding.get(a, v) == v for a, v in zip(attrs[alias], row))
        ])
    return partial


def profiled(edges, **options):
    result = join(QUERY, {"E1": edges, "E2": edges, "E3": edges},
                  profile=True, **options)
    assert result.profile is not None
    return result


class TestGroundTruth:
    @pytest.mark.parametrize("engine", ["tuple", "batch"])
    def test_survivors_match_brute_force(self, edges, truth, engine):
        result = profiled(edges, algorithm="generic", engine=engine)
        profile = result.profile
        assert [lv.survivors for lv in profile.levels] == truth["survivors"]
        assert result.count == truth["count"]
        assert profile.result_count == truth["count"]

    @pytest.mark.parametrize("engine", ["tuple", "batch"])
    def test_emitted_counter_matches_brute_force(self, edges, truth, engine):
        profile = profiled(edges, algorithm="generic", engine=engine).profile
        assert profile.counters["join.emitted"] == truth["count"]
        # the last level's survivors ARE the emitted tuples
        assert profile.levels[-1].survivors == truth["count"]

    def test_hashtrie_survivors_match_brute_force(self, edges, truth):
        profile = profiled(edges, algorithm="hashtrie").profile
        assert [lv.survivors for lv in profile.levels] == truth["survivors"]

    def test_leapfrog_emits_the_truth(self, edges, truth):
        result = profiled(edges, algorithm="leapfrog")
        assert result.count == truth["count"]
        assert result.profile.levels[-1].survivors == truth["count"]

    def test_binary_final_stage_matches_truth(self, edges, truth):
        result = profiled(edges, algorithm="binary")
        assert result.count == truth["count"]
        levels = result.profile.levels
        assert levels[-1].survivors == truth["count"]
        # every stage against a nested-loop replay of the same atom order:
        # a stage's candidates are the partial tuples probing it, its
        # survivors the (bag) join of the atoms so far
        order = [level.label for level in levels]
        assert sorted(order) == ["E1", "E2", "E3"]
        partial = pipeline_partials(edges, order)
        scanned = len(partial[0])
        assert (levels[0].candidates, levels[0].survivors) == (scanned, scanned)
        assert levels[0].seed_counts == {order[0]: 1}
        for depth in range(1, len(order)):
            level = levels[depth]
            probes = len(partial[depth - 1])
            assert level.candidates == probes, level.label
            assert level.survivors == len(partial[depth]), level.label
            assert level.seed_counts == {order[depth]: probes}
        # time is inclusive: a stage includes the stages after it
        cumulative = [level.cumulative_seconds for level in levels]
        assert cumulative == sorted(cumulative, reverse=True)
        assert result.metrics.lookups == sum(
            len(rows) for rows in partial[:-1])
        assert result.metrics.intermediate_tuples == sum(
            len(rows) for rows in partial[1:])


class TestEngineConsistency:
    def test_tuple_and_batch_report_identical_levels(self, edges):
        tuple_levels = profiled(edges, algorithm="generic",
                                engine="tuple").profile.levels
        batch_levels = profiled(edges, algorithm="generic",
                                engine="batch").profile.levels
        assert [(lv.label, lv.candidates, lv.survivors)
                for lv in tuple_levels] == \
            [(lv.label, lv.candidates, lv.survivors) for lv in batch_levels]

    def test_rollup_counters_agree_across_engines(self, edges):
        for engine in ("tuple", "batch"):
            profile = profiled(edges, algorithm="generic",
                               engine=engine).profile
            assert profile.counters["level.survivors"] == sum(
                lv.survivors for lv in profile.levels)
            assert profile.counters["level.candidates"] == sum(
                lv.candidates for lv in profile.levels)


class TestProfileShape:
    @pytest.mark.parametrize("options", [
        {"algorithm": "generic", "engine": "tuple"},
        {"algorithm": "generic", "engine": "batch"},
        {"algorithm": "binary"},
        {"algorithm": "hashtrie"},
        {"algorithm": "leapfrog"},
        {"algorithm": "auto"},
    ])
    def test_every_algorithm_validates(self, edges, options):
        profile = profiled(edges, **options).profile
        validate_profile(profile.as_dict())

    def test_optimizer_estimated_vs_actual(self, edges, truth):
        profile = profiled(edges, algorithm="generic").profile
        opt = profile.optimizer
        assert opt is not None
        assert opt["estimated"]["agm_bound"] > 0
        assert opt["actual"]["results"] == truth["count"]
        assert opt["actual"]["peak_level_cardinality"] == max(
            lv.survivors for lv in profile.levels)

    def test_build_breakdown_covers_every_atom(self, edges):
        profile = profiled(edges, algorithm="generic").profile
        assert set(profile.build_breakdown) == {"E1", "E2", "E3"}
        assert profile.counters["build.indexes"] == 3

    def test_render_mentions_every_level(self, edges):
        text = profiled(edges, algorithm="generic").profile.render()
        assert text.startswith("EXPLAIN ANALYZE")
        for label in ("a", "b", "c"):
            assert f"└─ {label}:" in text

    def test_chrome_trace_has_probe_span(self, edges):
        doc = profiled(edges, algorithm="generic").profile.to_chrome_trace()
        names = {event["name"] for event in doc["traceEvents"]}
        assert "probe" in names
        assert "build_index" in names


class TestDisabledPath:
    def test_unprofiled_run_has_no_profile(self, edges):
        result = join(QUERY, {"E1": edges, "E2": edges, "E3": edges})
        assert result.profile is None

    def test_disabled_observer_is_identical_to_absent(self, edges, truth):
        result = join(QUERY, {"E1": edges, "E2": edges, "E3": edges},
                      obs=JoinObserver.disabled())
        assert result.profile is None
        assert result.count == truth["count"]
