"""Common interface for every index structure in the study.

The paper's C++ framework (§4.1) accepts "any index … as long as it
provides the required operations".  The required operations (§3.1) are:

* ``insert`` — add one tuple,
* *point lookup* — is this exact tuple present?
* *prefix lookup* — enumerate all stored tuples matching a key prefix,
* *count prefix* — how many stored tuples match a key prefix?

:class:`TupleIndex` is the Python rendering of that contract.  Structures
that cannot answer prefix queries (plain hash sets, Robin Hood maps — the
point-lookup-only group in §5.4) raise
:class:`~repro.errors.UnsupportedOperationError` from the prefix methods and
advertise it via :attr:`TupleIndex.SUPPORTS_PREFIX`, exactly mirroring the
paper's exclusion of those structures from the prefix experiments.

Indexes are keyed by *position*: an index of arity ``k`` stores ``k``-ary
tuples whose components are already permuted into the query's total order
(see :meth:`repro.storage.relation.Relation.reordered`).  Mapping attribute
names to positions is the adapter's job, not the index's.
"""

from __future__ import annotations

import abc
import numbers
from collections.abc import Iterable, Iterator, Sequence
from typing import ClassVar

import numpy as np

from repro.errors import SchemaError, UnsupportedOperationError
from repro.obs.metrics import NULL_METRICS

#: shared empty candidate array (int64, the common key dtype)
EMPTY_VALUES: np.ndarray = np.empty(0, dtype=np.int64)


def value_array(values: "Sequence | np.ndarray") -> np.ndarray:
    """A 1-d array over join values, lossless: int64 when every value is
    an integer that fits, str when every value is a string, else object.

    ``np.asarray`` alone would widen ``2**63`` beside a small int to
    float64, stringify ``1`` beside ``"a"`` and turn ``True`` into ``1``;
    the object fallback keeps every value as stored (Python equality
    and hashing semantics, as the relations' own columns).
    """
    if isinstance(values, np.ndarray):
        return values
    seq = values if isinstance(values, (list, tuple)) else list(values)
    if not seq:
        return EMPTY_VALUES
    kinds = set(map(type, seq))
    if len(kinds) == 1:
        kind = kinds.pop()
        if kind is int or issubclass(kind, np.signedinteger):
            try:
                return np.asarray(seq, dtype=np.int64)
            except OverflowError:
                pass
        elif kind is str:
            return np.asarray(seq)
    array = np.empty(len(seq), dtype=object)
    array[:] = seq
    return array


def bulk_columns(arity: int, columns: "Sequence") -> list[np.ndarray]:
    """Validate a columnar build input: ``arity`` equal-length 1-d arrays.

    Each column is normalized through :func:`value_array` (int64 / string /
    object, never a silently-stringified mix), so every ``build_bulk``
    implementation sees the same canonical dtypes the probe kernels do.
    """
    arrays = [value_array(column) for column in columns]
    if len(arrays) != arity:
        raise SchemaError(
            f"columnar build got {len(arrays)} columns for arity {arity}"
        )
    if len({len(array) for array in arrays}) > 1:
        raise SchemaError(
            "columnar build got ragged columns: lengths "
            f"{[len(array) for array in arrays]}"
        )
    return arrays


#: dtype kinds with a total order consistent with python comparisons
_SORTABLE_KINDS = frozenset("iufbU")


def sorted_unique_rows(arrays: "Sequence[np.ndarray]") -> "list[tuple] | None":
    """Lexicographically sorted, duplicate-free row tuples from columns.

    The vectorized path (one ``np.lexsort`` plus a shifted-comparison
    dedupe) runs whenever every column's dtype admits a total order that
    matches python's; otherwise the rows are python-sorted, and ``None``
    is returned when even that fails (cross-type values with no ordering)
    so callers can keep the per-row insert path, which never compares
    values across tuples.
    """
    if not arrays or len(arrays[0]) == 0:
        return []
    if all(array.dtype.kind in _SORTABLE_KINDS for array in arrays):
        # lexsort's *last* key is primary, so feed the columns reversed
        order = np.lexsort(tuple(arrays[::-1]))
        cols = [array[order] for array in arrays]
        distinct = np.zeros(len(order) - 1, dtype=bool)
        for col in cols:
            distinct |= col[1:] != col[:-1]
        if not distinct.all():
            keep = np.empty(len(order), dtype=bool)
            keep[0] = True
            keep[1:] = distinct
            cols = [col[keep] for col in cols]
        return list(zip(*(col.tolist() for col in cols)))
    try:
        return sorted(set(zip(*(column.tolist() for column in arrays))))
    except TypeError:
        return None


def order_key(value) -> tuple:
    """Sort key giving join values of mixed types one total order: type
    rank (numbers, then strings, then anything else by type name), then
    value."""
    if isinstance(value, numbers.Real):
        return (0, value)
    if isinstance(value, str):
        return (1, value)
    return (2, type(value).__name__, repr(value))


def sorted_value_array(values: "Iterable") -> np.ndarray:
    """``values`` (assumed distinct) as a sorted array.

    The candidate-array constructor shared by the batch kernels; callers
    are responsible for deduplication (child walks never yield
    duplicates).  Values with no common order (``7`` beside ``"007"``)
    sort by :func:`order_key` into an object array, which the probe
    kernels test by hashing.
    """
    if isinstance(values, np.ndarray) and values.dtype != object:
        return np.sort(values)
    values = list(values)
    try:
        values.sort()
    except TypeError:
        values.sort(key=order_key)
    return value_array(values)


def membership_mask(sorted_children: np.ndarray,
                    values: np.ndarray) -> np.ndarray:
    """Boolean mask: which of ``values`` occur in ``sorted_children``.

    One vectorized binary search per call — the batched rendering of the
    Generic Join's per-candidate descend probes.
    """
    if sorted_children.size == 0 or values.size == 0:
        return np.zeros(values.size, dtype=bool)
    if (sorted_children.dtype.kind != values.dtype.kind
            or values.dtype == object):
        # e.g. int64 children probed with an object-dtype vector: binary
        # search would need an ordering across the mixed types, so test
        # membership under python hashing semantics instead
        children = set(sorted_children.tolist())
        return np.fromiter((value in children for value in values.tolist()),
                           dtype=bool, count=values.size)
    positions = sorted_children.searchsorted(values)
    np.minimum(positions, sorted_children.size - 1, out=positions)
    return sorted_children[positions] == values


class TupleIndex(abc.ABC):
    """Abstract base for all tuple indexes in :mod:`repro.indexes`.

    Subclasses set two class attributes consumed by the benchmark harness
    and the join executor:

    * :attr:`NAME` — the registry key (``"sonic"``, ``"btree"``, …).
    * :attr:`SUPPORTS_PREFIX` — whether prefix lookup / count prefix work.
    """

    NAME: ClassVar[str] = "abstract"
    SUPPORTS_PREFIX: ClassVar[bool] = True
    #: does :meth:`batch_cursor` return a *native* vectorized kernel?
    #: Every prefix-capable index still gets a (per-value) fallback batch
    #: cursor; this flag is what ``engine="auto"`` keys on.
    SUPPORTS_BATCH: ClassVar[bool] = False
    #: does :meth:`build_bulk` take a vectorized columnar fast path?
    #: Every index accepts ``build_bulk`` (the default re-rows the columns
    #: and inserts per tuple); adapters consult this flag to decide whether
    #: handing whole columns over is worth materializing them.
    SUPPORTS_BULK_BUILD: ClassVar[bool] = False

    def __init__(self, arity: int):
        if arity < 1:
            raise SchemaError(f"index arity must be >= 1, got {arity}")
        self.arity = arity
        self._size = 0

    # ------------------------------------------------------------------
    # Required operations (§3.1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, row: tuple) -> None:
        """Insert one tuple of exactly :attr:`arity` components.

        Duplicate inserts are idempotent for membership but implementations
        may count them in prefix counters if the source relation is a bag;
        all generators in this repository produce sets, and the join
        algorithms assume set semantics.
        """

    @abc.abstractmethod
    def contains(self, row: tuple) -> bool:
        """Point lookup: is the exact tuple present?"""

    def prefix_lookup(self, prefix: tuple) -> Iterator[tuple]:
        """Enumerate stored tuples whose first ``len(prefix)`` components equal ``prefix``.

        The order of enumeration is implementation-defined.  ``prefix`` may
        have any length from 0 (enumerate everything) to :attr:`arity`
        (point lookup returning zero or one tuple).
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support prefix lookups"
        )

    def count_prefix(self, prefix: tuple) -> int:
        """Number of stored tuples matching ``prefix`` (see :meth:`prefix_lookup`)."""
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not support prefix counting"
        )

    def has_prefix(self, prefix: tuple) -> bool:
        """Does at least one stored tuple match ``prefix``?

        The membership test at the heart of the Generic Join's candidate
        elimination (Alg. 1 line 15).  The default asks :meth:`prefix_lookup`
        for a first match; structures with a cheaper existence probe
        override it.
        """
        for _ in self.prefix_lookup(prefix):
            return True
        return False

    def iter_next_values(self, prefix: tuple) -> Iterator:
        """Distinct values of component ``len(prefix)`` among matching tuples.

        The Generic Join's per-attribute candidate enumeration: given the
        bound prefix, enumerate the possible next attribute values.  The
        default projects and deduplicates :meth:`prefix_lookup`; trie-like
        structures override with a direct child walk.
        """
        position = len(prefix)
        if position >= self.arity:
            raise SchemaError(
                f"no component after a length-{position} prefix in an "
                f"arity-{self.arity} index"
            )
        seen = set()
        for row in self.prefix_lookup(prefix):
            value = row[position]
            if value not in seen:
                seen.add(value)
                yield value

    # ------------------------------------------------------------------
    # Bulk operations and bookkeeping
    # ------------------------------------------------------------------
    def build(self, rows: Iterable[tuple]) -> None:
        """Build the index by inserting every row (the paper's build phase)."""
        for row in rows:
            self.insert(row)

    def build_bulk(self, columns: "Sequence") -> None:
        """Build from per-component columns (the columnar build contract).

        ``columns`` holds one equal-length sequence/array per component,
        already permuted into this index's attribute order.  Set semantics
        match :meth:`build`: duplicates collapse, values round-trip through
        :func:`value_array` canonicalization.  The default re-rows the
        columns and inserts per tuple; indexes advertising
        :attr:`SUPPORTS_BULK_BUILD` override with a vectorized path.
        """
        self._insert_columns(bulk_columns(self.arity, columns))

    def _insert_columns(self, arrays: "Sequence[np.ndarray]") -> None:
        """Row-wise fallback shared by every ``build_bulk`` implementation."""
        if not arrays or len(arrays[0]) == 0:
            return
        for row in zip(*(column.tolist() for column in arrays)):
            self.insert(row)

    def __len__(self) -> int:
        """Number of distinct tuples stored."""
        return self._size

    def __contains__(self, row: object) -> bool:
        return isinstance(row, tuple) and self.contains(row)

    def memory_usage(self) -> int:
        """Estimated resident bytes of the structure (Fig 18).

        Implementations report the bytes their *design* would occupy in a
        native implementation (array slots, node headers, pointers at 8 B),
        not Python object overhead — the quantity the paper plots.
        """
        raise UnsupportedOperationError(
            f"{type(self).__name__} does not report memory usage"
        )

    # ------------------------------------------------------------------
    # Validation helpers shared by subclasses
    # ------------------------------------------------------------------
    def _check_row(self, row: tuple) -> tuple:
        if len(row) != self.arity:
            raise SchemaError(
                f"{type(self).__name__}(arity={self.arity}) got tuple of "
                f"length {len(row)}: {row!r}"
            )
        return row

    def _check_prefix(self, prefix: tuple) -> tuple:
        if len(prefix) > self.arity:
            raise SchemaError(
                f"prefix of length {len(prefix)} longer than index arity {self.arity}"
            )
        return prefix


    def cursor(self) -> "PrefixCursor":
        """A stateful descent cursor over the index's prefix hierarchy.

        This is the probe interface the Generic Join actually drives: it
        binds one attribute at a time and needs O(1)-ish *incremental*
        steps (descend into a child, back up) rather than root-to-leaf
        re-probes per binding — the cost model behind the paper's Alg. 3.
        The default wraps the index's prefix operations; hierarchical
        structures override with a native cursor.
        """
        if not self.SUPPORTS_PREFIX:
            raise UnsupportedOperationError(
                f"{type(self).__name__} does not support prefix descent"
            )
        return FallbackCursor(self)

    def batch_cursor(self) -> "BatchCursor":
        """A vectorized probe cursor for the batch Generic Join.

        Indexes with native batch kernels (``SUPPORTS_BATCH = True``)
        override this; the default wraps any prefix-capable index in a
        per-value shim so every registered structure joins under
        ``engine="batch"`` unchanged, just without the constant-factor win.
        """
        if not self.SUPPORTS_PREFIX:
            raise UnsupportedOperationError(
                f"{type(self).__name__} does not support prefix descent"
            )
        return FallbackBatchCursor(self)


class PrefixCursor(abc.ABC):
    """Incremental descent through an index's prefix hierarchy.

    A cursor sits at a *node*: the set of stored tuples matching the
    component values bound so far (the root matches everything).  The
    Generic Join drives exactly four operations:

    * :meth:`try_descend` — bind the next component to a value; returns
      whether the subtree is (apparently) non-empty.  Implementations may
      report rare false positives at inner depths (Sonic's patch
      ambiguity, §3.3); they must be exact at the final depth, where the
      stored payload is available for verification.
    * :meth:`ascend` — undo the most recent successful descend.
    * :meth:`child_values` — the distinct candidate values for the next
      component (may include the same rare false positives; never
      duplicates).
    * :meth:`count` — (possibly approximate) number of tuples below the
      current node; advisory, used for seed selection only.
    """

    __slots__ = ()

    @abc.abstractmethod
    def try_descend(self, value) -> bool:
        """Bind the next component to ``value``; True if non-empty."""

    @abc.abstractmethod
    def ascend(self) -> None:
        """Pop the most recent binding."""

    @abc.abstractmethod
    def child_values(self):
        """Iterator over distinct next-component candidates."""

    @abc.abstractmethod
    def count(self) -> int:
        """Advisory size of the current subtree."""

    @property
    @abc.abstractmethod
    def depth(self) -> int:
        """Number of components currently bound."""


class FallbackCursor(PrefixCursor):
    """Cursor over any prefix-capable index's whole-prefix operations.

    Correct for every :class:`TupleIndex`; each step re-probes from the
    root (O(depth) per step), which is what structures without a native
    cursor can offer.
    """

    __slots__ = ("_index", "_prefix")

    def __init__(self, index: TupleIndex):
        self._index = index
        self._prefix: list = []

    def try_descend(self, value) -> bool:
        self._prefix.append(value)
        if self._index.has_prefix(tuple(self._prefix)):
            return True
        self._prefix.pop()
        return False

    def ascend(self) -> None:
        self._prefix.pop()

    def child_values(self):
        return self._index.iter_next_values(tuple(self._prefix))

    def count(self) -> int:
        return self._index.count_prefix(tuple(self._prefix))

    @property
    def depth(self) -> int:
        return len(self._prefix)


class BatchCursor(abc.ABC):
    """Vectorized probe interface for the batch Generic Join.

    Where :class:`PrefixCursor` answers one candidate at a time, a batch
    cursor answers *vectors* of candidates per call — the Free-Join-style
    batch-at-a-time evaluation that removes interpreter dispatch from the
    intersection inner loop.  Methods are prefix-addressed (the full bound
    prefix is passed every call) so the interface is stateless; concrete
    cursors keep an internal descent stack and sync to the given prefix,
    which costs O(changed components) under the driver's depth-first
    access pattern.

    Exactness contract (mirrors :class:`PrefixCursor`): at non-final
    depths :meth:`candidates` and :meth:`probe_many` may report rare false
    positives (Sonic's patch ambiguity, §3.3); at the final depth —
    ``len(prefix) == arity - 1`` — both are exact, verified against stored
    payloads, so join results are always exact.

    * :meth:`candidates` — sorted, duplicate-free array of next-component
      values under ``prefix``.
    * :meth:`probe_many` — boolean mask over ``values``: which extend
      ``prefix`` into a (apparently) non-empty subtree.
    * :meth:`count` — advisory subtree size, for seed selection only.

    **Observability.**  Concrete cursors carry a ``_metrics`` reference
    (the shared :data:`~repro.obs.metrics.NULL_METRICS` by default); a
    profiled run points it at its live registry via
    :meth:`attach_metrics`, after which calls record memo hits/misses and
    array sizes — always behind an ``if self._metrics.enabled`` guard, so
    the un-profiled path pays one attribute load and branch per call.
    """

    __slots__ = ()

    def attach_metrics(self, metrics) -> None:
        """Route this cursor's counters into ``metrics`` (a profiled
        run's :class:`~repro.obs.metrics.Metrics` registry)."""
        self._metrics = metrics

    @abc.abstractmethod
    def candidates(self, prefix: tuple) -> np.ndarray:
        """Sorted distinct next-component values below ``prefix``."""

    @abc.abstractmethod
    def probe_many(self, prefix: tuple, values: np.ndarray) -> np.ndarray:
        """Boolean mask aligned with ``values``: non-empty extensions."""

    @abc.abstractmethod
    def count(self, prefix: tuple) -> int:
        """Advisory number of stored tuples below ``prefix``."""


class SyncedBatchCursor(BatchCursor):
    """Shared descent-stack plumbing for native batch kernels.

    Subclasses provide three node-level hooks (``_descend_frame``,
    ``_children_array``, ``_frame_count``); this base maintains the path
    stack, syncs it to each call's prefix, and **memoizes one sorted
    children array (and one advisory count) per distinct prefix** for the
    cursor's lifetime — Free Join's lazily-built column-oriented trie
    (COLT): only the nodes the join actually visits are ever materialized,
    but a node revisited under different outer bindings (E2's subtree
    under a popular ``b``, reached once per ``(a, b)`` edge) answers from
    the memo without re-walking the index.  Memo size is bounded by the
    number of distinct visited prefixes, at most the index's node count;
    indexes are immutable during a join, so entries never invalidate.

    A frame of ``None`` marks a missing node (descent failed): candidates
    are empty, probes all-False, count 0.
    """

    __slots__ = ("_path", "_frames", "_memo", "_counts", "_metrics")

    def __init__(self, root_frame):
        self._path: list = []
        self._frames: list = [root_frame]
        self._memo: dict = {}
        self._counts: dict = {}
        self._metrics = NULL_METRICS

    # -- subclass hooks ------------------------------------------------
    @abc.abstractmethod
    def _descend_frame(self, frame, depth: int, value):
        """Child frame of ``frame`` under ``value`` at ``depth``; None if absent."""

    @abc.abstractmethod
    def _children_array(self, frame, depth: int) -> np.ndarray:
        """Sorted distinct next-component values of the node ``frame``."""

    @abc.abstractmethod
    def _frame_count(self, frame, depth: int) -> int:
        """Advisory subtree size of the node ``frame``."""

    # -- BatchCursor interface -----------------------------------------
    def _sync(self, prefix: tuple):
        """Re-anchor the descent stack at ``prefix``; returns the top frame."""
        path = self._path
        frames = self._frames
        common = 0
        for bound, wanted in zip(path, prefix):
            if bound != wanted:
                break
            common += 1
        while len(path) > common:
            path.pop()
            self._pop_frame(frames.pop())
        for depth in range(common, len(prefix)):
            value = prefix[depth]
            top = frames[-1]
            frame = None if top is None else self._descend_frame(top, depth, value)
            path.append(value)
            frames.append(frame)
        return frames[-1]

    def _pop_frame(self, frame) -> None:
        """Hook: a frame (possibly None) left the stack.  Default no-op."""

    def _materialize(self, prefix: tuple) -> np.ndarray:
        """Memo miss: sync to ``prefix``, walk the node's children once."""
        frame = self._sync(prefix)
        if frame is None:
            array = EMPTY_VALUES
        else:
            array = self._children_array(frame, len(self._path))
        self._memo[prefix] = array
        return array

    def candidates(self, prefix: tuple) -> np.ndarray:
        array = self._memo.get(prefix)
        metrics = self._metrics
        if array is None:
            array = self._materialize(prefix)
            if metrics.enabled:
                metrics.inc("batch.candidates")
                metrics.inc("batch.memo_miss")
                metrics.observe("batch.candidates_size", array.size)
        elif metrics.enabled:
            metrics.inc("batch.candidates")
            metrics.inc("batch.memo_hit")
            metrics.observe("batch.candidates_size", array.size)
        return array

    def probe_many(self, prefix: tuple, values: np.ndarray) -> np.ndarray:
        array = self._memo.get(prefix)
        if array is None:
            array = self._materialize(prefix)
        metrics = self._metrics
        if metrics.enabled:
            metrics.inc("batch.probe_many")
            metrics.observe("batch.probe_many_size", values.size)
        return membership_mask(array, values)

    def count(self, prefix: tuple) -> int:
        cached = self._counts.get(prefix)
        if cached is None:
            frame = self._sync(prefix)
            cached = 0 if frame is None else self._frame_count(frame, len(self._path))
            self._counts[prefix] = cached
        return cached


#: frame token marking a successful native-cursor descent
_DESCENDED = object()


class CursorBatchCursor(SyncedBatchCursor):
    """Batch kernel over an index's *native* :class:`PrefixCursor`.

    Keeps a wrapped incremental cursor in lockstep with the descent stack
    (one ``try_descend``/``ascend`` per changed component — O(1)-ish, the
    Alg. 3 cost model), materializes each visited node's distinct children
    into one sorted array exactly once, and answers ``probe_many`` with a
    single vectorized binary search against it.  A node revisited by many
    sibling bindings — the common case at the upper levels of a descent —
    never re-walks its children.

    Exactness is inherited from the wrapped cursor: its ``child_values``
    may surface inner-depth false positives but is payload-exact at the
    final depth, so the batch contract holds.
    """

    __slots__ = ("_cursor",)

    _ROOT = object()

    def __init__(self, cursor: PrefixCursor):
        self._cursor = cursor
        super().__init__(self._ROOT)

    def _descend_frame(self, frame, depth: int, value):
        return _DESCENDED if self._cursor.try_descend(value) else None

    def _pop_frame(self, frame) -> None:
        if frame is _DESCENDED:
            self._cursor.ascend()

    def _children_array(self, frame, depth: int) -> np.ndarray:
        return sorted_value_array(list(self._cursor.child_values()))

    def _frame_count(self, frame, depth: int) -> int:
        return self._cursor.count()


class FallbackBatchCursor(BatchCursor):
    """Batch shim over any prefix-capable index.

    Correct for every :class:`TupleIndex` whose prefix operations are
    exact (all registered structures except Sonic, which ships a native
    kernel).  Each visited node's distinct children are walked once
    through ``iter_next_values`` and memoized as a sorted array (the
    index is immutable during a join); ``probe_many`` then answers with
    one vectorized binary search against that array instead of a
    per-value ``has_prefix`` loop that re-probed the index from the
    root for every candidate.
    """

    __slots__ = ("_index", "_memo", "_metrics")

    def __init__(self, index: TupleIndex):
        self._index = index
        self._memo: dict = {}
        self._metrics = NULL_METRICS

    def candidates(self, prefix: tuple) -> np.ndarray:
        array = self._memo.get(prefix)
        metrics = self._metrics
        if array is None:
            array = sorted_value_array(self._index.iter_next_values(prefix))
            self._memo[prefix] = array
            if metrics.enabled:
                metrics.inc("batch.candidates")
                metrics.inc("batch.memo_miss")
                metrics.observe("batch.candidates_size", array.size)
        elif metrics.enabled:
            metrics.inc("batch.candidates")
            metrics.inc("batch.memo_hit")
            metrics.observe("batch.candidates_size", array.size)
        return array

    def probe_many(self, prefix: tuple, values: np.ndarray) -> np.ndarray:
        array = self._memo.get(prefix)
        if array is None:
            array = sorted_value_array(self._index.iter_next_values(prefix))
            self._memo[prefix] = array
        metrics = self._metrics
        if metrics.enabled:
            metrics.inc("batch.probe_many")
            metrics.observe("batch.probe_many_size", values.size)
        return membership_mask(array, values)

    def count(self, prefix: tuple) -> int:
        return self._index.count_prefix(prefix)


class PointIndex(TupleIndex):
    """Convenience base for point-lookup-only structures (hash set group)."""

    SUPPORTS_PREFIX: ClassVar[bool] = False
