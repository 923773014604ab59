"""Frontier-at-a-time Generic Join — one vectorized pass per attribute level.

:class:`~repro.joins.generic_join.GenericJoin` is worst-case optimal but
tuple-at-a-time, so interpreter dispatch dominates long before the
paper's per-level intersection costs become measurable.  Free Join (Wang
et al., SIGMOD'23) evaluates WCOJ trie joins *vectorized*, a whole
column of bindings per step; this driver is that execution model over
the same Alg. 1 structure.  A level runs once per *window* of at most
:data:`~repro.joins.binary.BATCH_ROWS` partial bindings held as numpy
columns (the binary pipeline's bound):

1. **gather** — per participating atom, map the window's bindings to
   their distinct bound prefixes and fetch one sorted candidate array per
   distinct prefix (:meth:`~repro.indexes.base.BatchCursor.candidates`,
   memoized per prefix: Free Join's lazily built COLT nodes);
2. **seed** — per binding, the smallest array (Alg. 1 line 9/10 on exact
   residual counts; ties go to the first participant): one ``argmin``
   over a participants x bindings size matrix;
3. **intersect** — Alg. 1 line 15: each participant tests every seed
   value with one segmented ``searchsorted`` over (prefix, value) keys;
4. **expand or emit** — survivors become the next level's bindings, cut
   into windows and carried depth-first, so rows come out in
   lexicographic order and memory stays bounded; the last level emits.

Candidate sets and the intersection discipline are the tuple driver's,
so worst-case optimality and the exactness contract carry over: a rare
inner-depth false positive (Sonic's patch ambiguity, §3.3) finds empty
candidate arrays below, and results are exact.  Values keep their Python
types; mixed-type columns (``7`` beside ``"007"``) test membership by
hashing.  Counters are counted into local ints on every run and handed
to the observer only when it is enabled: profiled and plain runs take
one path.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.core.adapter import IndexAdapter
from repro.errors import QueryError
from repro.indexes.base import EMPTY_VALUES
from repro.joins import binary
from repro.joins.results import JoinMetrics, JoinResult, Stopwatch, make_sink
from repro.obs.observer import NULL_OBSERVER
from repro.planner.qptree import connectivity_order
from repro.planner.query import JoinQuery


class GenericJoinBatch:
    """Generic Join over pre-built index adapters, frontier-at-a-time;
    constructed like :class:`~repro.joins.generic_join.GenericJoin`
    (validation, total order, ``dynamic_seed`` ablation knob)."""

    def __init__(self, query: JoinQuery, adapters: dict[str, IndexAdapter],
                 order: Sequence[str] | None = None,
                 dynamic_seed: bool = True, obs=None):
        missing = [a.alias for a in query.atoms if a.alias not in adapters]
        if missing:
            raise QueryError(f"no index adapter for atoms {missing}")
        self.query = query
        self.adapters = adapters
        self.order: tuple[str, ...] = tuple(order) if order else connectivity_order(query)
        if set(self.order) != set(query.attributes):
            raise QueryError(
                f"total order {self.order} does not cover query attributes "
                f"{query.attributes}"
            )
        self.dynamic_seed = dynamic_seed
        self._aliases: tuple[str, ...] = tuple(a.alias for a in query.atoms)
        alias_id = {alias: i for i, alias in enumerate(self._aliases)}
        #: per attribute depth: ids (into ``_aliases``) of the atoms binding it
        self._participants: list[list[int]] = [
            [alias_id[atom.alias] for atom in query.atoms_with(attribute)]
            for attribute in self.order
        ]
        #: per depth, per participant: the depths bound into the atom's
        #: prefix there (the earlier levels it took part in)
        self._prefix_depths: list[list[tuple[int, ...]]] = [
            [tuple(k for k in range(depth) if atom in self._participants[k])
             for atom in ids]
            for depth, ids in enumerate(self._participants)
        ]
        #: static seed per depth (by base relation size), as a position
        #: into the participant list; used when dynamic selection is ablated
        self._static_pos: list[int] = [
            min(range(len(ids)),
                key=lambda p: len(adapters[self._aliases[ids[p]]].relation))
            for ids in self._participants
        ]
        self.metrics = JoinMetrics(algorithm="generic_join_batch")
        self.obs = obs if obs is not None else NULL_OBSERVER

    # ------------------------------------------------------------------
    def run(self, materialize: bool = False) -> JoinResult:
        """Execute the join phase (indexes must already be built).
        ``open_`` holds each level's survivors still being cut into
        windows, deepest last; ``spent`` is exclusive time per level."""
        sink = make_sink(materialize)
        watch = Stopwatch()
        cursors = [self.adapters[alias].batch_cursor() for alias in self._aliases]
        obs = self.obs
        if obs.enabled:
            # batch cursors carry their own counters (memo hits, array
            # sizes); point them at this run's registry
            for cursor in cursors:
                cursor.attach_metrics(obs.metrics)
        levels = len(self.order)
        candidates, survivors, spent = [0] * levels, [0] * levels, [0] * levels
        seeds = [np.zeros(len(ids), dtype=np.int64) for ids in self._participants]
        open_: list[tuple] = []
        depth, columns, width = 0, [], 1
        with obs.tracer.span("probe", algorithm="generic_join_batch",
                             engine="batch"):
            clock = Stopwatch.now_ns()
            while True:
                owner, values, offered, seed_pos = self._level(
                    depth, columns, width, cursors)
                self.metrics.lookups += width * len(self._participants[depth])
                candidates[depth] += offered
                survivors[depth] += values.size
                seeds[depth] += np.bincount(seed_pos,
                                            minlength=seeds[depth].size)
                if values.size and depth + 1 < levels:
                    open_.append((depth + 1, columns, owner, values, 0))
                elif values.size:
                    _emit(sink, columns, owner, values, materialize)
                now = Stopwatch.now_ns()
                spent[depth] += now - clock
                clock = now
                if not open_:
                    break
                depth, columns, width = _next_window(open_)
        self.metrics.intermediate_tuples += sum(survivors)
        self.metrics.probe_seconds += watch.lap()
        self.metrics.result_count = sink.count
        if obs.enabled:
            self._record_levels(candidates, survivors, seeds, spent)
        return JoinResult(attributes=self.order, sink=sink, metrics=self.metrics)

    def _level(self, depth: int, columns: list, width: int, cursors: list):
        """One attribute level over a window of ``width`` bindings:
        ``(owner, values, offered, seed_pos)`` — each survivor's binding
        and value (binding, then value order), the number of values the
        seeds put up, and each binding's seed position."""
        tables = [_Candidates(cursors[atom], [columns[k] for k in ks], width)
                  for atom, ks in zip(self._participants[depth],
                                      self._prefix_depths[depth])]
        bindings = np.arange(width)
        sizes = np.stack([table.sizes[table.segment] for table in tables])
        # row p indexes participant p's part of the flat store below
        offsets = np.cumsum([0] + [table.values.size for table in tables])
        starts = np.stack([table.starts[table.segment] + offset
                           for table, offset in zip(tables, offsets)])
        if len(tables) > 1 and self.dynamic_seed:
            seed_pos = sizes.argmin(axis=0)
        else:
            seed_pos = np.full(width, self._static_pos[depth], dtype=np.intp)
        lengths = sizes[seed_pos, bindings]
        ends = np.cumsum(lengths)
        offered = int(ends[-1])
        owner = np.repeat(bindings, lengths)
        first = starts[seed_pos, bindings] - ends + lengths
        picks = np.repeat(first, lengths)
        picks += np.arange(offered)
        values = _concat([table.values for table in tables])[picks]
        del picks  # hold few window-sized arrays at once
        for table in tables if len(tables) > 1 else ():
            keep = table.member(values, owner)
            owner, values = owner[keep], values[keep]
            if not values.size:
                break
        return owner, values, offered, seed_pos

    def _record_levels(self, candidates: list[int], survivors: list[int],
                       seeds: list, spent: list[int]) -> None:
        """Hand the run's per-level counts to the observer; ``time_ns``
        is inclusive (a level includes the levels after it)."""
        stats = self.obs.init_levels(self.order, [
            [self._aliases[i] for i in ids] for ids in self._participants])
        inclusive = 0
        for depth in reversed(range(len(stats))):
            inclusive += spent[depth]
            st = stats[depth]
            st.candidates, st.survivors = candidates[depth], survivors[depth]
            st.time_ns = inclusive
            for alias, chosen in zip(st.participants, seeds[depth].tolist()):
                st.seed_counts[alias] += chosen


class _Candidates:
    """One participant's candidate arrays over a window: one memoized
    array per distinct bound prefix (``segment`` maps each binding to
    its prefix), concatenated once into ``values``."""

    __slots__ = ("arrays", "segment", "sizes", "starts", "values")

    def __init__(self, cursor, columns: list, width: int):
        if not columns:
            keys, self.segment = [()], np.zeros(width, dtype=np.intp)
        elif len(columns) == 1 and columns[0].dtype != object:
            distinct, self.segment = np.unique(columns[0], return_inverse=True)
            keys = [(value,) for value in distinct.tolist()]
        else:
            ids: dict = {}
            self.segment = np.fromiter(
                (ids.setdefault(key, len(ids))
                 for key in zip(*[column.tolist() for column in columns])),
                dtype=np.intp, count=width)
            keys = list(ids)
        self.arrays = [cursor.candidates(key) for key in keys]
        self.sizes = np.array([array.size for array in self.arrays])
        self.starts = np.cumsum(self.sizes) - self.sizes
        self.values = _concat(self.arrays)

    def member(self, values: np.ndarray, owner: np.ndarray) -> np.ndarray:
        """Mask: does ``values[j]`` occur in the array of binding
        ``owner[j]``'s prefix?  One ``searchsorted`` over (prefix, value)
        keys; Python hashing where the dtypes differ or hold objects."""
        segment = self.segment[owner]
        table = self.values
        kind = table.dtype.kind
        if not (table.size and values.size):
            return np.zeros(values.size, dtype=bool)
        if kind != values.dtype.kind or kind == "O":
            members = [set(array.tolist()) for array in self.arrays]
            return np.fromiter(
                (value in members[s]
                 for value, s in zip(values.tolist(), segment.tolist())),
                dtype=bool, count=values.size)
        # sorted int64 (segment, value) keys: values offset by the
        # smallest when segments x span fits in int64, else (values near
        # ±2⁶³, strings) each value's rank among both sides' values
        span = 0
        if kind == "i":
            low = min(int(table.min()), int(values.min()))
            span = max(int(table.max()), int(values.max())) - low + 1
        if kind == "i" and span * len(self.arrays) < 2 ** 63:
            table, values = table - low, values - low
        else:
            _, ranks = np.unique(np.concatenate((table, values)),
                                 return_inverse=True)
            span = int(ranks.max()) + 1
            table, values = ranks[:table.size], ranks[table.size:]
        keys = np.repeat(np.arange(len(self.arrays)) * span, self.sizes) + table
        segment *= span
        segment += values
        del values
        return keys.take(keys.searchsorted(segment), mode="clip") == segment


def _concat(arrays: list) -> np.ndarray:
    """One array holding ``arrays`` in order; object dtype when their
    kinds differ, so no value is converted to another type."""
    arrays = [array for array in arrays if array.size] or [EMPTY_VALUES]
    if len({array.dtype.kind for array in arrays}) > 1:
        arrays = [array.astype(object) for array in arrays]
    return np.concatenate(arrays) if len(arrays) > 1 else arrays[0]


def _next_window(open_: list[tuple]):
    """``(depth, columns, width)``: up to ``BATCH_ROWS`` survivors cut off
    the deepest open set, parent columns gathered beside the new value."""
    depth, parent, owner, values, start = open_.pop()
    stop = min(start + binary.BATCH_ROWS, values.size)
    if stop < values.size:
        open_.append((depth, parent, owner, values, stop))
    rows = owner[start:stop]
    return (depth, [column[rows] for column in parent] + [values[start:stop]],
            stop - start)


def _emit(sink, columns: list, owner: np.ndarray, values: np.ndarray,
          materialize: bool) -> None:
    """Hand the last level's survivors to the sink as full bindings."""
    if materialize:
        sink.emit_rows(zip(*[column[owner].tolist() for column in columns],
                           values.tolist()))
    else:
        sink.emit_suffixes((), range(values.size))
