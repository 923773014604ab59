"""In-memory relations.

A :class:`Relation` is a bag of equal-arity tuples with a
:class:`~repro.storage.schema.Schema`.  Storage is row-major (a list of
tuples) with lazily-built column views; at the scales this reproduction
targets, row-major keeps index builds (which consume whole tuples) simple
and fast, while the column views serve the workload generators and the
binary-join build sides.

Relations are *mostly* immutable: the only mutations are the explicit
append-style methods :meth:`Relation.insert` and :meth:`Relation.extend`,
which bump a **version counter** shared by every
:meth:`~Relation.renamed` view of the same storage.  ``(storage identity,
version)`` — :meth:`Relation.fingerprint` — is the cache key component
the session-scoped index cache (:mod:`repro.engine.cache`) uses to
detect that a cached index no longer reflects the relation.

Everything the views share — rows, the per-position column caches, the
distinct-value statistics, the version counter and the mutation lock —
lives in one :class:`RelationStorage`.  An append keeps the caches warm:
each cached column array is replaced by a new array that holds the old
values plus the converted chunk, and an int64 column's sorted distinct
values absorb the chunk's, so statistics after a write cost
O(appended rows) rather than a rescan.  Published arrays are never
mutated in place; index builds, stage tables and shared-memory shards
keep the snapshot they took.

Relations are the unit every join algorithm in :mod:`repro.joins` consumes;
the ``Relation`` here plays the role of the paper's ``Relation<IndexAdapter,
TableSchema, ...>`` template (Listing 1), minus the compile-time machinery:
the pairing of a relation with an index happens in
:class:`repro.joins.executor.JoinExecutor`.
"""

from __future__ import annotations

import threading
from collections.abc import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SchemaError
from repro.storage.schema import Schema


def _column_array(values: list) -> np.ndarray:
    """Column values as ``int64`` when every value is an integer that fits,
    else ``object``.

    Lossless: ``int64`` only when every value round-trips exactly, so the
    check is on the values' types — ``np.asarray(..., dtype=np.int64)``
    alone would truncate ``2.5``, parse ``"007"`` and promote ``True``.
    Floats, strings, bools and mixed columns keep their values in an
    ``object`` array.  The object fallback is built element-wise —
    ``np.asarray`` on a mixed list would stringify or broadcast instead
    of holding the values.
    """
    if all(kind is int or issubclass(kind, np.signedinteger)
           for kind in set(map(type, values))):
        try:
            return np.asarray(values, dtype=np.int64)
        except OverflowError:
            pass
    array = np.empty(len(values), dtype=object)
    array[:] = values
    return array


def _dtype_class(array: np.ndarray) -> str:
    return "int64" if array.dtype == np.int64 else "object"


def _distinct_values(array: np.ndarray) -> "np.ndarray | int":
    """An int64 column's sorted distinct values, else the distinct count.

    Object columns may hold mutually-incomparable values, which
    ``np.unique``'s sort cannot handle, so they are counted through a set
    (Python equality: ``1 == 1.0 == True`` count once).
    """
    if array.dtype == np.int64:
        return np.unique(array)
    return len(set(array.tolist()))


def _merge_distinct(values: np.ndarray, chunk: np.ndarray) -> np.ndarray:
    """Sorted distinct ``values`` with int64 ``chunk``'s new values inserted."""
    fresh = _distinct_values(chunk)
    slots = np.searchsorted(values, fresh)
    seen = slots < values.size
    seen[seen] = values[slots[seen]] == fresh[seen]
    unseen = ~seen
    return np.insert(values, slots[unseen], fresh[unseen])


class RelationStorage:
    """The state every renamed view of one relation shares.

    Rows, the per-position caches (Python column lists, numpy arrays,
    dtype-class verdicts, distinct values), the version counter and the
    mutation lock guarding them.  Views differ in attribute names only,
    so the caches are keyed by schema position and a write through any
    view is seen by all.

    Every cache is filled lazily with the same double-checked pattern: a
    lock-free ``dict.get`` serves the common hit, the fill runs (or is
    published) under ``_mutlock`` so it cannot pin a snapshot taken
    mid-append.  ``distinct`` holds an int64 column's sorted distinct
    values (so an append can fold new values in) and an object column's
    distinct count.
    """

    __slots__ = ("rows", "columns", "arrays", "dtype_classes", "distinct",
                 "version", "_mutlock")

    def __init__(self, rows: "list[tuple]",
                 arrays: "Mapping[int, np.ndarray] | None" = None):
        self._mutlock = threading.Lock()
        self.rows = rows                                 # repro: shared[lock=_mutlock]
        self.columns: dict[int, list] = {}               # repro: shared[lock=_mutlock]
        self.arrays: dict[int, np.ndarray] = dict(arrays or {})  # repro: shared[lock=_mutlock]
        self.dtype_classes: dict[int, str] = {           # repro: shared[lock=_mutlock]
            position: _dtype_class(array)
            for position, array in self.arrays.items()}
        self.distinct: "dict[int, np.ndarray | int]" = {}  # repro: shared[lock=_mutlock]
        self.version = 0                                 # repro: shared[lock=_mutlock]

    def column(self, position: int) -> list:
        cached = self.columns.get(position)
        if cached is None:
            with self._mutlock:
                cached = self.columns.get(position)
                if cached is None:
                    cached = [row[position] for row in self.rows]
                    self.columns[position] = cached
        return cached

    def array(self, position: int) -> np.ndarray:
        array = self.arrays.get(position)
        if array is None:
            with self._mutlock:
                array = self._filled_array(position)
        return array

    def snapshot(self, arity: int) -> "tuple[np.ndarray, ...]":
        """Every column array of one version (equal lengths).

        Taken under the lock: fetching positions one at a time could mix
        arrays from before and after a concurrent append.
        """
        with self._mutlock:
            return tuple(self._filled_array(position)
                         for position in range(arity))

    def _filled_array(self, position: int) -> np.ndarray:  # repro: borrows-lock[_mutlock]
        array = self.arrays.get(position)
        if array is None:
            array = _column_array([row[position] for row in self.rows])
            self.arrays[position] = array
            # the dtype-class verdict rides along with the array: filled
            # under the same lock, replaced by the same append
            self.dtype_classes[position] = _dtype_class(array)
        return array

    def dtype_class(self, position: int) -> str:
        verdict = self.dtype_classes.get(position)
        if verdict is None:
            verdict = _dtype_class(self.array(position))
        return verdict

    def distinct_count(self, position: int) -> int:
        entry = self.distinct.get(position)
        if entry is None:
            array = self.array(position)
            entry = _distinct_values(array)
            with self._mutlock:
                # publish only while the array is still current: an
                # append in between already moved the column on, and the
                # count computed here belongs to the older snapshot
                if self.arrays.get(position) is array:
                    entry = self.distinct.setdefault(position, entry)
        return entry if isinstance(entry, int) else int(entry.size)

    def append(self, rows: "list[tuple]") -> None:
        """Append validated ``rows``; cached arrays grow by the chunk.

        Each cached array is replaced, never mutated: an int64 column
        that stays int64 is concatenated with the converted chunk and its
        sorted distinct values absorb the chunk's; an object column is
        concatenated element-wise and its distinct count dropped (a count
        alone cannot absorb new values).  An int64 column the chunk turns
        object is dropped and rebuilt lazily from the rows, so it holds
        the stored values exactly as a fresh build would.
        """
        with self._mutlock:
            self.rows.extend(rows)
            self.columns.clear()
            for position, array in list(self.arrays.items()):
                values = [row[position] for row in rows]
                if array.dtype != np.int64:
                    grown = np.empty(array.size + len(values), dtype=object)
                    grown[:array.size] = array
                    grown[array.size:] = values
                    self.arrays[position] = grown
                    self.distinct.pop(position, None)
                    continue
                chunk = _column_array(values)
                if chunk.dtype != np.int64:
                    del self.arrays[position]
                    self.dtype_classes.pop(position, None)
                    self.distinct.pop(position, None)
                    continue
                self.arrays[position] = np.concatenate((array, chunk))
                values_seen = self.distinct.get(position)
                if values_seen is not None:
                    self.distinct[position] = _merge_distinct(
                        values_seen, chunk)
            self.version += 1


class Relation:
    """A named collection of tuples over a schema (append-only mutation)."""

    __slots__ = ("name", "schema", "_store")

    def __init__(self, name: str, schema: Schema | Sequence[str], rows: Iterable[tuple]):
        if not isinstance(schema, Schema):
            schema = Schema(schema)
        self.name = name
        self.schema = schema
        self._store = RelationStorage(self._checked(rows))

    @classmethod
    def from_storage(cls, name: str, schema: Schema,
                     storage: RelationStorage) -> "Relation":
        """A view named ``name`` over existing ``storage`` (no copy)."""
        relation = cls.__new__(cls)
        relation.name = name
        relation.schema = schema
        relation._store = storage
        return relation

    def _checked(self, rows: Iterable[tuple]) -> list[tuple]:
        arity = len(self.schema)
        stored: list[tuple] = []
        for row in rows:
            row = tuple(row)
            if len(row) != arity:
                raise SchemaError(
                    f"relation {self.name!r}: tuple {row!r} has arity "
                    f"{len(row)}, schema expects {arity}"
                )
            stored.append(row)
        return stored

    # ------------------------------------------------------------------
    # Basic container protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._store.rows)

    def __iter__(self) -> Iterator[tuple]:
        return iter(self._store.rows)

    def __contains__(self, row: object) -> bool:
        return row in self._store.rows

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, {self.schema.attributes}, {len(self)} tuples)"

    @property
    def arity(self) -> int:
        return len(self.schema)

    @property
    def rows(self) -> list[tuple]:
        """The backing row list.  Treat as read-only."""
        return self._store.rows

    # ------------------------------------------------------------------
    # Columnar access
    # ------------------------------------------------------------------
    def column(self, attribute: str) -> list:
        """All values of ``attribute``, in row order (lazily materialized)."""
        return self._store.column(self.schema.position(attribute))

    def column_array(self, attribute: str) -> np.ndarray:
        """``attribute``'s values as a numpy array, in row order.

        ``int64`` when every value is an integer that fits, ``object``
        dtype otherwise (floats, strings, bools, mixed columns).  The
        array is materialized once per position and cached; renamed views
        share the cache (attribute names differ, positions do not), so the
        batch join engine, the workload generators and the statistics
        collector all see the same backing arrays.  An append replaces
        the cached array with a grown one.  Treat as read-only.
        """
        return self._store.array(self.schema.position(attribute))

    def columns(self) -> tuple[np.ndarray, ...]:
        """All columns as numpy arrays, in schema position order.

        One consistent snapshot: every array belongs to the same version,
        even while another thread appends.
        """
        return self._store.snapshot(self.arity)

    def column_dtype_class(self, attribute: str) -> str:
        """``"int64"`` or ``"object"`` — the columnar-contract verdict.

        The verdict is cached alongside the column array (one validation
        pass per column per version, under the mutation lock), so kernel
        callers can branch on the int64/object split without re-probing
        the array's dtype, and renamed views agree by construction.
        """
        return self._store.dtype_class(self.schema.position(attribute))

    def dtype_classes(self) -> tuple[str, ...]:
        """Per-column dtype-class verdicts, in schema position order."""
        return tuple(self._store.dtype_class(i) for i in range(self.arity))

    def distinct_count(self, attribute: str) -> int:
        """Exact number of distinct values of ``attribute``.

        Memoized per column and version in the shared storage: computed
        once from the column array, kept across appends for int64
        columns (the sorted distinct values absorb each appended chunk),
        shared by renamed views.
        """
        return self._store.distinct_count(self.schema.position(attribute))

    # ------------------------------------------------------------------
    # Mutation and cache identity
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Mutation counter, shared with every renamed view of this storage."""
        return self._store.version

    def fingerprint(self) -> tuple[int, int]:
        """``(storage identity, version)`` — the index-cache key component.

        Two relations share a fingerprint iff they share backing rows
        *and* no mutation happened in between; any :meth:`insert` /
        :meth:`extend` through any view changes it.  The identity half is
        ``id()`` of the shared row list, which is stable for the life of
        the relation — cache entries keep the built index (and through it
        the relation) alive, so a fingerprint can never be recycled while
        an entry still carries it.
        """
        return (id(self._store.rows), self._store.version)

    def insert(self, row: tuple) -> None:
        """Append one tuple, bumping the shared version counter."""
        self.extend((row,))

    def extend(self, rows: Iterable[tuple]) -> None:
        """Append tuples, growing the column caches and moving the fingerprint.

        The caches and version counter are shared with every renamed
        view, so all views observe the mutation consistently; any
        session-cached index keyed on the old fingerprint simply stops
        matching and ages out of the cache.
        """
        appended = self._checked(rows)
        if appended:
            self._store.append(appended)

    # ------------------------------------------------------------------
    # Relational operations used by the join drivers and generators
    # ------------------------------------------------------------------
    def project(self, attributes: Sequence[str], name: str | None = None,
                distinct: bool = False) -> "Relation":
        """Projection onto ``attributes`` (optionally duplicate-eliminating)."""
        positions = self.schema.project_positions(attributes)
        projected = (tuple(row[i] for i in positions) for row in self.rows)
        if distinct:
            projected = dict.fromkeys(projected)
        return Relation(name or f"{self.name}_proj", Schema(attributes), projected)

    def select(self, predicate, name: str | None = None) -> "Relation":
        """Selection: keep rows where ``predicate(row)`` is true."""
        return Relation(name or f"{self.name}_sel", self.schema,
                        (row for row in self.rows if predicate(row)))

    def reordered(self, total_order: Sequence[str], name: str | None = None) -> "Relation":
        """Rows permuted so attributes align with ``total_order`` (§2.3.1).

        This is the preparation step every WCOJ index build performs: the
        returned relation lists each tuple's attributes in total-order
        sequence so that index levels correspond to total-order positions.
        """
        perm = self.schema.permutation_to(total_order)
        if perm == tuple(range(self.arity)):
            return self
        return Relation(name or self.name, self.schema.reordered(total_order),
                        (tuple(row[i] for i in perm) for row in self.rows))

    def renamed(self, attributes: Sequence[str], name: str | None = None) -> "Relation":
        """Zero-copy view with attributes renamed positionally.

        The join drivers use this to view a stored relation through an
        atom's query attributes (``E(src, dst)`` seen as ``E(a, b)``); the
        storage — rows, caches, version and mutation lock — is shared,
        not copied, so a write through any view is serialized with all.
        """
        if len(attributes) != self.arity:
            raise SchemaError(
                f"renaming {self.name!r} (arity {self.arity}) with "
                f"{len(attributes)} attribute names"
            )
        return Relation.from_storage(name or self.name, Schema(attributes),
                                     self._store)

    def distinct(self, name: str | None = None) -> "Relation":
        """Duplicate-eliminated copy, preserving first-seen order."""
        return Relation(name or self.name, self.schema, dict.fromkeys(self.rows))

    def sorted(self, name: str | None = None) -> "Relation":
        """Copy with rows in lexicographic order (for LFTJ-style tries)."""
        return Relation(name or self.name, self.schema, sorted(self.rows))

    def sample_rows(self, count: int, rng) -> list[tuple]:
        """``count`` rows drawn uniformly with replacement using ``rng``."""
        rows = self.rows
        if not rows:
            return []
        return [rows[rng.randrange(len(rows))] for _ in range(count)]
