"""Cardinality estimation for the binary-join optimizer.

The binary-join baseline needs a join order; join ordering needs output
cardinality estimates.  We implement the textbook System-R style model the
paper's baseline implicitly relies on: per-attribute distinct counts with
independence and preservation assumptions,

.. math::

    |R \\bowtie S| = \\frac{|R|\\,|S|}{\\prod_{a \\in A(R) \\cap A(S)}
                      \\max(d_R(a), d_S(a))}

where ``d_X(a)`` is the distinct count of attribute ``a`` in ``X``.  The
model is deliberately fallible — mis-estimation under correlation and skew
is precisely what produces the exploding intermediate results WCOJ
algorithms are robust against (Fig 1), and the benches exploit that.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.storage.relation import Relation


class Statistics:
    """Collected statistics: cardinality and per-attribute distinct counts."""

    def __init__(self):
        self._cardinality: dict[str, int] = {}
        self._distinct: dict[str, dict[str, int]] = {}

    @classmethod
    def collect(cls, relations: Iterable[Relation]) -> "Statistics":
        """Statistics of ``relations``, registered under their names.

        Distinct counts come from each relation's per-version cache
        (:meth:`Relation.distinct_count`), so collecting over unchanged
        relations scans no column data.
        """
        stats = cls()
        for relation in relations:
            stats.register(relation.name, relation)
        return stats

    def register(self, key: str, relation: Relation) -> None:
        self._cardinality[key] = len(relation)
        self._distinct[key] = {attribute: relation.distinct_count(attribute)
                               for attribute in relation.schema}

    def cardinality(self, key: str) -> int:
        return self._cardinality[key]

    def distinct(self, key: str, attribute: str) -> int:
        """Distinct values of ``attribute`` (1 if unknown, the safe floor)."""
        return max(self._distinct.get(key, {}).get(attribute, 1), 1)

    def cardinalities(self) -> dict[str, int]:
        return dict(self._cardinality)


def estimate_join_size(left_size: float, right_size: float,
                       left_key: str, right_key: str,
                       join_attributes: Iterable[str],
                       stats: Statistics,
                       left_distinct_override: Mapping[str, int] | None = None,
                       ) -> float:
    """System-R estimate of a binary join's output size.

    ``left_distinct_override`` carries distinct counts for an intermediate
    result (distinct counts are assumed preserved through joins, capped by
    the estimated size).
    """
    size = left_size * right_size
    for attribute in join_attributes:
        if left_distinct_override and attribute in left_distinct_override:
            left_d = left_distinct_override[attribute]
        else:
            left_d = stats.distinct(left_key, attribute)
        right_d = stats.distinct(right_key, attribute)
        size /= max(left_d, right_d, 1)
    return max(size, 0.0)
