"""Statistics and join-size estimation tests."""

import pytest

from repro.planner import Statistics, estimate_join_size
from repro.storage import Relation


@pytest.fixture
def stats():
    r = Relation("R", ("a", "b"), [(i, i % 5) for i in range(100)])
    s = Relation("S", ("b", "c"), [(i % 5, i) for i in range(50)])
    return Statistics.collect([r, s])


class TestStatistics:
    def test_cardinalities(self, stats):
        assert stats.cardinality("R") == 100
        assert stats.cardinality("S") == 50
        assert stats.cardinalities() == {"R": 100, "S": 50}

    def test_distinct_counts(self, stats):
        assert stats.distinct("R", "a") == 100
        assert stats.distinct("R", "b") == 5
        assert stats.distinct("S", "b") == 5

    def test_unknown_distinct_is_floor_one(self, stats):
        assert stats.distinct("R", "zz") == 1
        assert stats.distinct("nope", "a") == 1


class TestEstimation:
    def test_textbook_formula(self, stats):
        # |R ⋈ S| = 100*50 / max(5,5) = 1000
        estimate = estimate_join_size(100, 50, "R", "S", ["b"], stats)
        assert estimate == pytest.approx(1000)

    def test_cross_product_when_no_join_attrs(self, stats):
        assert estimate_join_size(100, 50, "R", "S", [], stats) == 5000

    def test_multi_attribute_divides_twice(self, stats):
        estimate = estimate_join_size(100, 50, "R", "S", ["b", "c"], stats)
        assert estimate < estimate_join_size(100, 50, "R", "S", ["b"], stats)

    def test_override_distinct(self, stats):
        with_override = estimate_join_size(
            100, 50, "R", "S", ["b"], stats,
            left_distinct_override={"b": 50})
        assert with_override == pytest.approx(100 * 50 / 50)


class TestMemoizedStatistics:
    """Planning reads per-version distinct counts instead of rescanning."""

    QUERY = "T=title(t,y), K=keyword(t,k), I=info(t,i)"

    @pytest.fixture
    def relations(self):
        return {
            "title": Relation("title", ("t", "y"),
                              [(i, 1990 + i % 30) for i in range(300)]),
            "keyword": Relation("keyword", ("t", "k"),
                                [(i % 300, i % 17) for i in range(900)]),
            "info": Relation("info", ("t", "i"),
                             [(i % 250, i % 11) for i in range(600)]),
        }

    @pytest.fixture
    def scans(self, monkeypatch):
        """Sizes of every column conversion and distinct-value scan."""
        from repro.storage import relation as module

        seen: list[int] = []

        def counting(original):
            def wrapper(values):
                seen.append(len(values))
                return original(values)
            return wrapper

        monkeypatch.setattr(module, "_column_array",
                            counting(module._column_array))
        monkeypatch.setattr(module, "_distinct_values",
                            counting(module._distinct_values))
        return seen

    def plan_once(self, relations):
        from repro.engine import bind, plan

        return plan(bind(self.QUERY, relations), algorithm="auto")

    def test_second_plan_scans_nothing(self, relations, scans):
        first = self.plan_once(relations)
        assert scans, "the first plan must compute the statistics"
        scans.clear()
        second = self.plan_once(relations)
        assert scans == []
        assert second.describe() == first.describe()

    def test_plan_after_extend_scans_only_the_chunk(self, relations, scans):
        self.plan_once(relations)
        chunk = [(1000 + i, i % 23) for i in range(7)]
        scans.clear()
        relations["keyword"].extend(chunk)
        after = self.plan_once(relations)
        assert scans and set(scans) == {len(chunk)}
        fresh = {name: Relation(name, rel.schema, list(rel.rows))
                 for name, rel in relations.items()}
        assert after.describe() == self.plan_once(fresh).describe()
        collected = Statistics.collect(relations.values())
        expected = Statistics.collect(fresh.values())
        for name, rel in relations.items():
            for attribute in rel.schema:
                assert (collected.distinct(name, attribute)
                        == expected.distinct(name, attribute))
