"""Pipelined binary hash joins — the classical baseline (§1, §5.14).

The paper's baseline is "a sequence of (fully inlined) binary hash-joins
(based on Abseil's hash-set)": a left-deep pipeline where every relation
except the leftmost gets a hash table on its join key, and no join is
materialized (the paper avoids that "due to their poor cache locality").
It runs batch-at-a-time, as a binary plan of Free Join's vectorized
executor: batches of at most :data:`BATCH_ROWS` leading tuples expand
through each stage's columnar :class:`StageTable`; a larger expansion is
cut into windows, each carried to the end of the pipeline before the
next.  Output keeps tuple-at-a-time depth-first order and bag semantics,
and memory does not grow with the intermediate results.

The join order comes from :func:`repro.planner.optimizer.greedy_join_order`
unless the caller pins one — which the Fig 1 bench does to demonstrate the
order-sensitivity WCOJ algorithms are immune to.  The intermediate-tuple
counter in the metrics is the quantity that explodes under adversarial
data.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from repro.errors import QueryError
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.cardinality import Statistics
from repro.planner.optimizer import greedy_join_order
from repro.planner.query import JoinQuery
from repro.storage.relation import Relation

#: most tuples in one probe batch or expansion window: the bound on the
#: pipeline's working memory, however many tuples the join produces
BATCH_ROWS = 4096


def plan_pipeline(query: JoinQuery, relations: dict[str, Relation],
                  order: Sequence[str]) -> tuple[list[dict], tuple[str, ...]]:
    """Stage descriptors for a pinned atom order (no tables built yet).

    Each descriptor carries the stage's alias, its key/payload attribute
    split under the attributes bound so far, and the corresponding column
    positions in the stage relation's schema — everything a hash-table
    build (or an index-cache key) needs.  Returns ``(stages,
    output_attrs)``; the leading atom contributes no stage.
    """
    bound = list(query.attributes_of(order[0]))
    bound_set = set(bound)
    stages: list[dict] = []
    for alias in order[1:]:
        attrs = query.attributes_of(alias)
        key_attrs = tuple(a for a in attrs if a in bound_set)
        payload_attrs = tuple(a for a in attrs if a not in bound_set)
        relation = relations[alias]
        positions = relation.schema.project_positions(attrs)
        stages.append({
            "alias": alias,
            "key_attrs": key_attrs,
            "payload_attrs": payload_attrs,
            "key_positions": tuple(positions[attrs.index(a)]
                                   for a in key_attrs),
            "payload_positions": tuple(positions[attrs.index(a)]
                                       for a in payload_attrs),
        })
        for attribute in payload_attrs:
            bound.append(attribute)
            bound_set.add(attribute)
    return stages, tuple(bound)


@dataclass(frozen=True, eq=False)
class StageTable:
    """One stage's hash table, columnar (CSR) and immutable.

    Group ``g`` owns rows ``starts[g] : starts[g] + counts[g]`` of every
    ``payload`` column, in the relation's row order; a trailing empty
    group is what group id ``-1`` ("no match") indexes.  A single
    ``int64`` key column keeps ``keys``, its distinct values sorted, for
    ``searchsorted`` probes.  Object-dtype or multi-column keys keep
    ``index``, a dict from key (a tuple for several columns) to group id,
    so Python hash/equality semantics hold: ``1 == 1.0 == True`` join.
    A key-less stage (a cross product) is one group holding every row.
    """

    keys: "np.ndarray | None"
    index: "dict | None"
    starts: np.ndarray
    counts: np.ndarray
    payload: tuple[np.ndarray, ...]

    def group_ids(self, batch: list[np.ndarray], slots: Sequence[int],
                  memo: dict) -> np.ndarray:
        """The group id of every tuple in ``batch``, keyed on the columns
        at ``slots``; ``-1`` where nothing matches.  ``memo`` is per-run
        scratch: an ``int64`` table probed with object-dtype keys builds
        its value index there once per run, not once per batch."""
        size = len(batch[0])
        if not slots:
            return np.zeros(size, dtype=np.int64)
        keys, index, probe = self.keys, self.index, batch[slots[0]]
        if keys is not None and probe.dtype == np.int64:
            if not len(keys):
                return np.full(size, -1, dtype=np.int64)
            at = np.minimum(np.searchsorted(keys, probe), len(keys) - 1)
            return np.where(keys[at] == probe, at, -1)
        if index is None:
            if id(self) not in memo:
                memo[id(self)] = dict(zip(keys.tolist(), range(len(keys))))
            index = memo[id(self)]
        values = _key_values([batch[s] for s in slots], size)
        return np.fromiter(map(index.get, values, repeat(-1)),
                           dtype=np.int64, count=size)


def _key_values(columns: list[np.ndarray], size: int):
    """Key values as Python objects, row by row: scalars for one column,
    tuples for several, ``()`` for none."""
    if len(columns) == 1:
        return columns[0].tolist()
    if not columns:
        return repeat((), size)
    return zip(*[column.tolist() for column in columns])


def build_stage_table(relation: Relation, key_positions: Sequence[int],
                      payload_positions: Sequence[int]) -> StageTable:
    """One stage's :class:`StageTable` from ``relation``'s column arrays.

    Standalone so the engine's prepare stage can build (and the session
    cache can reuse) a stage table outside any driver instance.
    """
    columns = relation.columns()
    keyed = [columns[p] for p in key_positions]
    # the snapshot's length, not len(relation): a concurrent extend may
    # have grown the rows since the columns were taken
    size = len(columns[0])
    keys = index = None
    if len(keyed) == 1 and keyed[0].dtype == np.int64:
        order = np.argsort(keyed[0], kind="stable")
        ordered = keyed[0][order]
        first = np.ones(size, dtype=bool)
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        keys = ordered[first]
        starts = np.flatnonzero(first)
        counts = np.diff(np.append(starts, size))
    else:
        index = {}
        groups = np.fromiter((index.setdefault(value, len(index))
                              for value in _key_values(keyed, size)),
                             dtype=np.int64, count=size)
        order = np.argsort(groups, kind="stable")
        counts = np.bincount(groups, minlength=len(index))
        starts = np.cumsum(counts) - counts
    return StageTable(keys, index, np.append(starts, 0), np.append(counts, 0),
                      tuple(columns[p][order] for p in payload_positions))


class BinaryHashJoin:
    """Left-deep pipeline of hash joins over a query.

    ``prebuilt`` (the engine's prepared path) is ``(stages,
    output_attrs)`` where every stage descriptor already carries its
    ``"table"``; the driver then skips the build phase entirely and
    ``metrics.build_seconds`` stays zero — the prepare stage owns the
    build accounting.
    """

    def __init__(self, query: JoinQuery, relations: dict[str, Relation],
                 order: Sequence[str] | None = None,
                 stats: Statistics | None = None, obs=None,
                 prebuilt: "tuple[list[dict], tuple[str, ...]] | None" = None):
        missing = [a.alias for a in query.atoms if a.alias not in relations]
        if missing:
            raise QueryError(f"no relation bound for atoms {missing}")
        self.query = query
        self.relations = relations
        if order is not None:
            order = list(order)
            if sorted(order) != sorted(a.alias for a in query.atoms):
                raise QueryError(f"join order {order} does not cover the query atoms")
        else:
            if stats is None:
                stats = Statistics.collect(relations.values())
            order = greedy_join_order(query, stats)
        self.order = order
        self.metrics = JoinMetrics(algorithm="binary_join", index="hashmap")
        self._plan: list[dict] = []
        self._built = False
        self._output_attrs: tuple[str, ...] = ()
        self.obs = obs if obs is not None else NULL_OBSERVER
        if prebuilt is not None:
            self._plan, self._output_attrs = prebuilt
            self._built = True

    # ------------------------------------------------------------------
    # Build phase: one stage table per non-leading atom
    # ------------------------------------------------------------------
    def build(self) -> None:
        if self._built:
            return
        self._built = True
        watch = Stopwatch()
        obs = self.obs
        stages, self._output_attrs = plan_pipeline(self.query, self.relations,
                                                   self.order)
        self._plan = stages
        for stage in stages:
            if obs.enabled:
                table_t0 = Stopwatch.now_ns()
            stage["table"] = build_stage_table(
                self.relations[stage["alias"]],
                stage["key_positions"], stage["payload_positions"])
            if obs.enabled:
                obs.record_build(stage["alias"],
                                 Stopwatch.now_ns() - table_t0)
        self.metrics.build_seconds += watch.lap()

    # ------------------------------------------------------------------
    # Probe phase: one batch-at-a-time loop over every stage
    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        """Stream the leading relation through the stages, batch by batch.

        ``open_`` holds the expansions still being cut into windows,
        deepest last.  Per stage, ``probes`` counts the tuples looked up
        and ``matches`` the expansions flowing on: the ``lookups`` and
        ``intermediate_tuples`` metrics, and the profile's candidates and
        survivors.  ``spent`` is exclusive time per profile level.
        """
        self.build()
        sink = make_sink(materialize)
        watch = Stopwatch()
        tables = [stage["table"] for stage in self._plan]
        slot = {a: i for i, a in enumerate(self._output_attrs)}
        key_slots = [tuple(slot[a] for a in stage["key_attrs"])
                     for stage in self._plan]
        depth = len(tables)
        leading = self.relations[self.order[0]].columns()
        probes, matches, spent = [0] * depth, [0] * depth, [0] * (depth + 1)
        memo: dict = {}
        open_: list[tuple] = []
        with self.obs.tracer.span("probe", algorithm="binary_join"):
            clock = Stopwatch.now_ns()
            for lo in range(0, len(leading[0]), BATCH_ROWS):
                batch = [column[lo:lo + BATCH_ROWS] for column in leading]
                stage = 0
                while True:
                    if stage == depth:
                        _emit(sink, batch, materialize)
                    else:
                        table = tables[stage]
                        gids = table.group_ids(batch, key_slots[stage], memo)
                        counts = table.counts[gids]
                        ends = np.cumsum(counts)
                        expanded = int(ends[-1])
                        probes[stage] += len(gids)
                        matches[stage] += expanded
                        if expanded and (materialize or stage + 1 < depth):
                            base = table.starts[gids] - ends + counts
                            open_.append((stage, batch, ends, base, 0))
                        elif expanded:
                            # counting the last stage needs no expansion
                            sink.emit_suffixes((), range(expanded))
                    # stage s is profile level s + 1 (level 0 is the scan)
                    now = Stopwatch.now_ns()
                    spent[min(stage + 1, depth)] += now - clock
                    clock = now
                    if not open_:
                        break
                    stage, batch = _next_window(open_, tables)
                    now = Stopwatch.now_ns()
                    spent[stage] += now - clock
                    clock = now
        self.metrics.lookups += sum(probes)
        self.metrics.intermediate_tuples += sum(matches)
        self.metrics.probe_seconds += watch.lap()
        self.metrics.result_count = sink.count
        if self.obs.enabled:
            self._record_levels(len(leading[0]), probes, matches, spent)
        return JoinResult(attributes=self._output_attrs, sink=sink,
                          metrics=self.metrics)

    def _record_levels(self, scanned: int, probes: list[int],
                       matches: list[int], spent: list[int]) -> None:
        """Profile levels from the probe loop's counts: level 0 is the
        leading scan, level ``i + 1`` stage ``i``'s probe (labelled with
        its alias).  ``time_ns`` is inclusive: a level includes the
        levels after it."""
        stats = self.obs.init_levels(self.order, [[a] for a in self.order])
        stats[0].seed_counts[self.order[0]] += 1
        stats[0].candidates = stats[0].survivors = scanned
        for st, alias, probed, matched in zip(stats[1:], self.order[1:],
                                              probes, matches):
            st.candidates, st.survivors = probed, matched
            st.seed_counts[alias] = probed
        inclusive = 0
        for st, exclusive in zip(reversed(stats), reversed(spent)):
            inclusive += exclusive
            st.time_ns = inclusive


def _next_window(open_: list[tuple], tables: list[StageTable]):
    """Cut the next window off the deepest open expansion.

    Returns ``(stage, batch)``: the tuples entering ``stage``, i.e. probe
    rows repeated once per match beside the matched payload rows.  Output
    position ``p`` belongs to the probe row ``r`` whose cumulative match
    count ``ends[r]`` first exceeds ``p``; its payload row is
    ``base[r] + p`` (``base`` folds the group start and output offset).
    """
    stage, batch, ends, base, cursor = open_.pop()
    stop = min(cursor + BATCH_ROWS, int(ends[-1]))
    if stop < ends[-1]:
        open_.append((stage, batch, ends, base, stop))
    positions = np.arange(cursor, stop)
    rows = np.searchsorted(ends, positions, side="right")
    picks = base[rows] + positions
    window = [column[rows] for column in batch]
    window.extend(column[picks] for column in tables[stage].payload)
    return stage + 1, window


def _emit(sink, batch: list[np.ndarray], materialize: bool) -> None:
    """Hand one batch of full bindings to the sink."""
    if materialize:
        sink.emit_rows(zip(*[column.tolist() for column in batch]))
    else:
        sink.emit_suffixes((), range(len(batch[0])))
