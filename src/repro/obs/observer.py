"""The per-run observer the join drivers write into.

One :class:`JoinObserver` travels with one join execution: it bundles a
:class:`~repro.obs.metrics.Metrics` registry, a
:class:`~repro.obs.trace.Tracer`, the per-attribute-level accumulators
(:class:`LevelStats`) and the per-adapter build times.  The executor
creates it (``join(..., profile=True)``), threads it through the driver
and the index cursors, and finally folds it into a
:class:`~repro.obs.profile.JoinProfile`.

**Disabled-path contract.**  Drivers receive either an enabled observer
or :data:`NULL_OBSERVER` and branch exactly once per run on
``obs.enabled``; the un-profiled probe recursion contains *no*
observability code at all (the instrumented twin of each ``_join_level``
only exists on the enabled branch).  Window-at-a-time loops (the
binary pipeline, the batch Generic Join) count into local ints on every
run and hand the counts over only when enabled.  That is what keeps the
measured overhead of carrying this subsystem at noise level — see the
``obs_overhead`` section of ``BENCH_generic_join.json`` and lint rule
RA601, which guards the discipline statically.

:class:`LevelStats` fields are plain slots mutated with ``+=`` so the
profiled recursion never makes a method call per binding; the semantic
meaning of ``candidates``/``survivors`` per algorithm is documented in
``docs/observability.md``.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.obs.metrics import Metrics, NULL_METRICS
from repro.obs.trace import NULL_TRACER, Tracer


class LevelStats:
    """Accumulators for one attribute level (or pipeline stage).

    * ``candidates`` — values the level's seed put up for intersection;
    * ``survivors`` — values every participant accepted (= partial
      bindings entering the next level; at the last level, emitted
      results);
    * ``descends``/``ascends`` — cursor movements issued by the driver;
    * ``time_ns`` — *inclusive* time spent at this level across all its
      invocations (children included; the profile derives exclusive
      time as ``incl[d] - incl[d+1]``);
    * ``seed_counts`` — how often each participating atom was chosen as
      the enumeration seed (the Alg. 1 line 9/10 decision, per binding).
    """

    __slots__ = ("label", "participants", "candidates", "survivors",
                 "descends", "ascends", "time_ns", "seed_counts")

    def __init__(self, label: str, participants: Sequence[str]):
        self.label = label
        self.participants: tuple[str, ...] = tuple(participants)
        self.candidates = 0
        self.survivors = 0
        self.descends = 0
        self.ascends = 0
        self.time_ns = 0
        self.seed_counts: dict[str, int] = dict.fromkeys(self.participants, 0)


class JoinObserver:
    """Everything one profiled join run writes into."""

    __slots__ = ("enabled", "metrics", "tracer", "levels", "build_ns")

    def __init__(self, metrics: "Metrics | None" = None,
                 tracer: "Tracer | None" = None, enabled: bool = True):
        self.enabled = enabled
        if enabled:
            self.metrics = Metrics() if metrics is None else metrics
            self.tracer = Tracer() if tracer is None else tracer
        else:
            self.metrics = NULL_METRICS
            self.tracer = NULL_TRACER
        self.levels: list[LevelStats] = []
        self.build_ns: dict[str, int] = {}

    @classmethod
    def disabled(cls) -> "JoinObserver":
        """An explicitly-disabled observer (null metrics, null tracer).

        Behaviourally identical to passing no observer at all; exists so
        the overhead bench can thread a *present-but-off* observer and
        measure that "disabled" and "absent" really are the same path.
        """
        return cls(enabled=False)

    # ------------------------------------------------------------------
    def init_levels(self, labels: Sequence[str],
                    participants: Sequence[Sequence[str]],
                    ) -> list[LevelStats]:
        """Fresh per-level accumulators for one run; returns them so the
        driver can index by depth without attribute lookups."""
        self.levels = [LevelStats(label, parts)
                       for label, parts in zip(labels, participants)]
        return self.levels

    def record_build(self, alias: str, duration_ns: int) -> None:
        """One adapter's index-build time (the WCOJ build phase, §5.15)."""
        self.build_ns[alias] = self.build_ns.get(alias, 0) + duration_ns
        self.metrics.inc("build.indexes")


#: the shared disabled observer handed to every un-profiled driver
NULL_OBSERVER = JoinObserver.disabled()
