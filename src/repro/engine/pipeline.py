"""The staged compile pipeline: **bind → plan → prepare** (→ execute).

The seed executor did all four stages inline in one monolithic
``join()``; this module splits them into explicit, separately-callable
stages with inert artifacts in between:

* :func:`bind` — parse the query if needed, resolve each atom against a
  :class:`~repro.storage.catalog.Catalog` or mapping, and (in debug
  mode) run the RA301/RA304/RA305 plan checks.  Output:
  :class:`~repro.engine.ir.BoundQuery`.
* :func:`plan` — resolve ``"auto"`` algorithm/engine choices, derive the
  total attribute order (or the binary pipeline's atom order), and emit
  one :class:`~repro.engine.ir.IndexSpec` per supporting structure.
  Nothing is built.  Output: :class:`~repro.engine.ir.JoinPlan`.
* :func:`prepare` — turn every spec into a built structure, going
  through a :class:`~repro.engine.cache.IndexCache` when one is given
  (the :class:`~repro.engine.session.Session` warm path) or building
  fresh when not (the :func:`repro.joins.join` cold path, preserving
  the paper's build-included timing semantics, §5.15).  Output:
  :class:`~repro.engine.prepared.PreparedJoin`, executable many times.

Each stage runs under a tracer span of its own name, so a profiled run
shows ``bind`` / ``plan`` (containing ``optimize``) / ``prepare``
(containing per-atom ``build_index`` spans) ahead of the driver's
``probe`` — the same observable skeleton the seed emitted, plus the
stage boundaries.

Unlike the seed, index options that an algorithm cannot honor raise
:class:`~repro.errors.ConfigurationError` at plan time instead of being
silently swallowed (e.g. ``sonic_bucket_size`` with
``algorithm="binary"``).  ``algorithm="auto"`` validates against the
Generic Join's option set, since that is the algorithm the options
would apply to if chosen; when the optimizer picks the binary pipeline
instead, generic-only options are unused, exactly as in the seed.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import replace

from repro.analysis.plancheck import check_join_plan, check_plan
from repro.core.adapter import IndexAdapter
from repro.core.config import SonicConfig
from repro.core.envflag import resolve_flag
from repro.engine.cache import IndexCache, estimate_structure_bytes
from repro.engine.ir import (
    HASHTABLE_KIND,
    TUPLESET_KIND,
    BoundQuery,
    IndexSpec,
    JoinPlan,
    PlanStage,
    ShardingSpec,
    canonical_options,
    stage_alias,
)
from repro.engine.prepared import PreparedJoin
from repro.errors import ConfigurationError, QueryError, SchemaError
from repro.indexes.lazy import LAZY_CAPABLE_KINDS, LazyTrieAdapter
from repro.indexes.registry import make_index
from repro.joins.binary import build_stage_table, plan_pipeline
from repro.joins.executor import ALGORITHMS, ENGINES, resolve_relations
from repro.joins.results import Stopwatch
from repro.obs.observer import NULL_OBSERVER
from repro.planner.cardinality import Statistics
from repro.planner.hypergraph import Hypergraph
from repro.planner.optimizer import (
    HybridOptimizer,
    PlanChoice,
    cyclic_core,
    greedy_join_order,
)
from repro.planner.qptree import connectivity_order
from repro.planner.query import Atom, JoinQuery, parse_query
from repro.storage.catalog import Catalog
from repro.storage.relation import Relation

#: index options each algorithm can honor; anything else raises
#: ConfigurationError at plan time (the seed swallowed them silently)
_ALLOWED_OPTIONS = {
    "generic": frozenset({"sonic_overallocation", "sonic_bucket_size",
                          "index_options", "lazy"}),
    "hashtrie": frozenset({"lazy", "singleton_pruning"}),
    "binary": frozenset(),
    "leapfrog": frozenset(),
    "recursive": frozenset(),
    # the unified planner builds generic sub-stages, so it honors the
    # generic option set (including lazy COLT builds)
    "unified": frozenset({"sonic_overallocation", "sonic_bucket_size",
                          "index_options", "lazy"}),
}


def bind(query: "JoinQuery | str",
         source: "Catalog | Mapping[str, Relation]",
         debug: "bool | None" = None,
         obs=None) -> BoundQuery:
    """The bind stage: query text → query resolved against relations.

    ``debug`` (default: the ``REPRO_DEBUG`` environment variable) runs
    the relation-level plan checks (RA301/RA304/RA305) on the resolved
    atoms, raising :class:`~repro.errors.PlanValidationError` early.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    if isinstance(query, str):
        query = parse_query(query)
    with observer.tracer.span("bind"):
        relations = resolve_relations(query, source)
        if resolve_flag(debug, "REPRO_DEBUG"):
            check_plan(query, relations=relations)
    return BoundQuery(query=query, relations=relations)


def plan(bound: BoundQuery,
         algorithm: str = "generic",
         index: str = "sonic",
         order: "Sequence[str] | None" = None,
         binary_order: "Sequence[str] | None" = None,
         engine: str = "tuple",
         dynamic_seed: bool = True,
         debug: "bool | None" = None,
         obs=None,
         index_kwargs: "Mapping[str, object] | None" = None,
         parallel: "int | None" = None) -> JoinPlan:
    """The plan stage: a bound query → a fully-resolved :class:`JoinPlan`.

    Runs the hybrid optimizer when ``algorithm="auto"`` or the observer
    is enabled (the optimizer's estimate is part of every profile), pins
    the total attribute order (or the binary atom order), validates the
    index options against the resolved algorithm, and emits one
    :class:`~repro.engine.ir.IndexSpec` per supporting structure.  The
    plan is inert — nothing is built until :func:`prepare`.

    ``parallel`` (default: the ``REPRO_WORKERS`` environment variable;
    0 / unset means single-process) plants a
    :class:`~repro.engine.ir.ShardingSpec` on the plan: the prepare
    stage then partitions the relations into that many shared-memory
    shards on the plan's leading attribute, and execution fans out to a
    worker-process pool (:mod:`repro.parallel`).  ``parallel=1`` is a
    valid degenerate fleet — one worker process, useful as the
    like-for-like baseline when measuring fan-out speedup.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    if algorithm not in ALGORITHMS:
        raise ConfigurationError(
            f"unknown algorithm {algorithm!r}; choose from {ALGORITHMS}"
        )
    if engine not in ENGINES:
        raise ConfigurationError(
            f"unknown engine {engine!r}; choose from {ENGINES}"
        )
    query, relations = bound.query, bound.relations
    kwargs = dict(index_kwargs or {})
    debug_on = resolve_flag(debug, "REPRO_DEBUG")

    with observer.tracer.span("plan"):
        # the optimizer's estimate is part of every profile (estimated vs
        # actual), so an enabled observer computes it even off the auto path
        choice = None
        stats = None
        if algorithm in ("auto", "unified") or observer.enabled:
            # the unified planner always needs statistics: the stage
            # split is a per-component optimizer decision
            with observer.tracer.span("optimize"):
                stats = Statistics.collect(relations.values())
                choice = HybridOptimizer().choose(query, stats)
        requested = algorithm
        if algorithm == "auto":
            algorithm = "binary" if choice.algorithm == "binary" else "generic"
        _validate_index_kwargs(requested, algorithm, index, kwargs)

        if algorithm == "unified":
            result = _plan_unified(query, relations, order, binary_order,
                                   index, engine, dynamic_seed, choice,
                                   stats, kwargs)
        elif algorithm == "binary":
            result = _plan_binary(query, relations, binary_order, stats,
                                  dynamic_seed, choice)
        else:
            total = tuple(order) if order else connectivity_order(query)
            if debug_on:
                check_plan(query, order=total)
            if algorithm == "generic":
                result = _plan_generic(query, relations, total, index, engine,
                                       dynamic_seed, choice, kwargs)
            elif algorithm == "hashtrie":
                result = _plan_hashtrie(query, relations, total, dynamic_seed,
                                        choice, kwargs)
            elif algorithm == "leapfrog":
                result = _plan_leapfrog(query, relations, total, dynamic_seed,
                                        choice)
            else:
                result = _plan_recursive(query, total, dynamic_seed, choice)
        workers = _resolve_workers(parallel)
        if workers and result.algorithm == "unified":
            raise ConfigurationError(
                "unified stage-tree plans do not support sharded execution; "
                "drop parallel= or choose a flat algorithm")
        if workers:
            # shard on the leading attribute: every result tuple binds
            # it to exactly one value, so shard results are disjoint
            attribute = (result.total_order[0] if result.total_order
                         else connectivity_order(query)[0])
            result = replace(result, sharding=ShardingSpec(
                workers=workers, attribute=attribute))
        if debug_on:
            check_join_plan(result, relations=relations)
    return result


def _resolve_workers(parallel: "int | None") -> int:
    # imported lazily: repro.parallel sits beside the engine and its
    # worker module re-enters this pipeline inside worker processes,
    # so the module-scope dependency stays one-directional
    from repro.parallel.pool import resolve_workers

    return resolve_workers(parallel)


def prepare(bound: BoundQuery, join_plan: JoinPlan,
            cache: "IndexCache | None" = None,
            obs=None) -> PreparedJoin:
    """The prepare stage: specs → built structures → a :class:`PreparedJoin`.

    With a ``cache``, every spec is first looked up under
    ``(relation fingerprint, spec suffix)`` — a hit skips the build
    entirely (and two atoms over the same stored relation with the same
    spec share one build *within* a single prepare, the self-join alias
    case).  Without one, every structure is built fresh — the cold-path
    contract of :func:`repro.joins.join`.

    The wall time spent building is returned on the prepared join as
    ``build_seconds`` and charged to the **first** execution's
    ``metrics.build_seconds`` (§5.15's build-included timing); repeat
    executions report zero build.  Cache hit/miss counters live in the
    cache's own metrics registry and are mirrored into an enabled
    observer; fresh builds are recorded as ``build_index`` spans either
    way.
    """
    observer = obs if obs is not None else NULL_OBSERVER
    obs_enabled = observer.enabled
    use_cache = cache is not None and cache.enabled
    if join_plan.sharding is not None:
        return _prepare_sharded(bound, join_plan, cache if use_cache else None,
                                observer)
    structures: dict[str, object] = {}
    watch = Stopwatch()
    with observer.tracer.span("prepare"):
        for spec in join_plan.iter_specs():
            relation = bound.relations[spec.alias]
            key = None
            structure = None
            if use_cache:
                try:
                    key = cache.key_for(relation, spec.cache_key_suffix())
                except TypeError:
                    key = None  # unhashable option value: uncacheable spec
                if key is not None:
                    structure = cache.get(key)
                if obs_enabled:
                    observer.metrics.inc(
                        "cache.hit" if structure is not None else "cache.miss")
            if structure is None:
                if obs_enabled:
                    build_t0 = Stopwatch.now_ns()
                structure = _build_structure(spec, relation)
                if obs_enabled:
                    duration = Stopwatch.now_ns() - build_t0
                    observer.record_build(spec.alias, duration)
                    observer.tracer.add_span("build_index", build_t0, duration,
                                             alias=spec.alias, index=spec.kind,
                                             tuples=len(relation))
                if key is not None:
                    # compare-and-swap publish: when another thread built
                    # the same key first, adopt its structure so every
                    # concurrent preparer shares one canonical build and
                    # the LRU byte accounting never double-charges
                    if isinstance(structure, LazyTrieAdapter):
                        # hook the deepen callback *before* publishing, so
                        # no descent can slip between publish and hookup;
                        # a CAS loss discards this adapter (nothing built
                        # yet) and adopts the winner's, callback included
                        structure.on_deepen = _depth_upgrader(
                            cache, key, len(relation), relation.arity)
                        structure = cache.put_if_absent(
                            key, structure, estimate_structure_bytes(
                                structure, len(relation), relation.arity),
                            built_depth=structure.built_depth)
                    else:
                        structure = cache.put_if_absent(
                            key, structure, estimate_structure_bytes(
                                structure, len(relation), relation.arity))
            structures[spec.alias] = structure
    build_seconds = watch.lap()
    return PreparedJoin(bound, join_plan, structures, build_seconds)


def _depth_upgrader(cache: IndexCache, key: tuple, tuples: int, arity: int):
    """The lazy adapter's deepen callback: upgrade the cached entry in
    place — new ``built_depth``, re-estimated byte charge."""
    def _on_deepen(adapter) -> None:
        cache.upgrade_depth(key, adapter.built_depth,
                            estimate_structure_bytes(adapter, tuples, arity))
    return _on_deepen


def _prepare_sharded(bound: BoundQuery, join_plan: JoinPlan,
                     cache: "IndexCache | None", observer) -> PreparedJoin:
    """The prepare stage for a sharded plan: partition, don't build.

    Indexes are built *inside the workers* (each over its shard, via
    the same bulk-build prepare path); what the parent prepares — and
    what the session cache holds under the usual fingerprint×options
    key — is the :class:`~repro.parallel.shm.ShardedColumns` transport:
    each relation's column arrays hash-partitioned into shared memory.
    The cache suffix pins the scheme, worker count and the partition
    attribute's *storage position* (renamed views share fingerprints,
    so position — not name — is the stable part), meaning plans that
    shard the same storage the same way share one partitioning.
    """
    # lazy import, same one-directional rationale as _resolve_workers
    from repro.parallel.partition import build_sharded_columns

    obs_enabled = observer.enabled
    use_cache = cache is not None
    sharding = join_plan.sharding
    structures: dict[str, object] = {}
    local: dict[tuple, object] = {}
    watch = Stopwatch()
    with observer.tracer.span("prepare"):
        # every atom ships to the workers — not just index_specs, which
        # for a binary plan omit the first atom (the probe side)
        for atom in join_plan.query.atoms:
            relation = bound.relations[atom.alias]
            position = (relation.schema.position(sharding.attribute)
                        if sharding.attribute in relation.schema else None)
            suffix = ("shards", sharding.scheme, sharding.workers, position)
            key = None
            if use_cache:
                key = cache.key_for(relation, suffix)
                columns = cache.get(key)
                if obs_enabled:
                    observer.metrics.inc(
                        "cache.hit" if columns is not None else "cache.miss")
            else:
                # the cold path still shares one partitioning between
                # self-join aliases of the same storage within this call
                columns = local.get((relation.fingerprint(), suffix))
            if columns is None:
                if obs_enabled:
                    build_t0 = Stopwatch.now_ns()
                columns = build_sharded_columns(relation, position,
                                                sharding.workers)
                if obs_enabled:
                    duration = Stopwatch.now_ns() - build_t0
                    observer.tracer.add_span(
                        "partition_shards", build_t0, duration,
                        alias=atom.alias, workers=sharding.workers,
                        tuples=len(relation))
                if key is not None:
                    published = cache.put_if_absent(
                        key, columns, estimate_structure_bytes(
                            columns, len(relation), relation.arity))
                    if published is not columns:
                        columns.close()  # lost the CAS: adopt the winner
                        columns = published
                else:
                    local[(relation.fingerprint(), suffix)] = columns
            structures[atom.alias] = columns
    build_seconds = watch.lap()
    return PreparedJoin(bound, join_plan, structures, build_seconds,
                        owned_shards=not use_cache)


# ----------------------------------------------------------------------
# Per-algorithm planners
# ----------------------------------------------------------------------

def _resolve_generic_engine(index: str, engine: str) -> str:
    if engine == "auto":
        # SUPPORTS_BATCH is a class attribute, so one arity-2 probe
        # instance answers for every adapter the prepare stage will build
        return "batch" if make_index(index, 2).SUPPORTS_BATCH else "tuple"
    return engine


def _generic_options(index: str, kwargs: dict) -> dict:
    options = dict(kwargs.get("index_options") or {})
    if index == "sonic":
        options["bucket_size"] = kwargs.get("sonic_bucket_size", 8)
        options["overallocation"] = kwargs.get("sonic_overallocation", 2.0)
    return options


def _resolve_lazy(index: str, kwargs: dict) -> bool:
    lazy = bool(kwargs.get("lazy", False))
    if lazy and index not in LAZY_CAPABLE_KINDS:
        raise ConfigurationError(
            f"index {index!r} has no level-at-a-time build; lazy=True "
            f"requires one of {sorted(LAZY_CAPABLE_KINDS)}")
    return lazy


def _plan_generic(query: JoinQuery, relations: Mapping[str, Relation],
                  total: tuple[str, ...], index: str, engine: str,
                  dynamic_seed: bool, choice, kwargs: dict) -> JoinPlan:
    engine = _resolve_generic_engine(index, engine)
    options = _generic_options(index, kwargs)
    lazy = _resolve_lazy(index, kwargs)
    specs = tuple(
        _structure_spec(relations[atom.alias], atom.alias, index, total,
                        options, lazy=lazy)
        for atom in query.atoms
    )
    return JoinPlan(query=query, algorithm="generic", engine=engine,
                    index=index, total_order=total, index_specs=specs,
                    dynamic_seed=dynamic_seed, choice=choice)


def _plan_hashtrie(query: JoinQuery, relations: Mapping[str, Relation],
                   total: tuple[str, ...], dynamic_seed: bool, choice,
                   kwargs: dict) -> JoinPlan:
    options = {
        "lazy": bool(kwargs.get("lazy", True)),
        "singleton_pruning": bool(kwargs.get("singleton_pruning", True)),
    }
    specs = tuple(
        _structure_spec(relations[atom.alias], atom.alias, "hashtrie", total,
                        options)
        for atom in query.atoms
    )
    return JoinPlan(query=query, algorithm="hashtrie", total_order=total,
                    index_specs=specs, dynamic_seed=dynamic_seed,
                    choice=choice)


def _plan_leapfrog(query: JoinQuery, relations: Mapping[str, Relation],
                   total: tuple[str, ...], dynamic_seed: bool,
                   choice) -> JoinPlan:
    # "sorted": force the trie's sort during prepare (LFTJ seeks need it
    # ordered up front); distinguishes these specs from a generic join
    # over index="sortedtrie", whose sort lazily lands in the probe phase
    specs = tuple(
        _structure_spec(relations[atom.alias], atom.alias, "sortedtrie",
                        total, {"sorted": True})
        for atom in query.atoms
    )
    return JoinPlan(query=query, algorithm="leapfrog", total_order=total,
                    index_specs=specs, dynamic_seed=dynamic_seed,
                    choice=choice)


def _plan_recursive(query: JoinQuery, total: tuple[str, ...],
                    dynamic_seed: bool, choice) -> JoinPlan:
    specs = tuple(
        IndexSpec(alias=atom.alias, kind=TUPLESET_KIND,
                  attribute_order=atom.attributes,
                  permutation=tuple(range(atom.arity)))
        for atom in query.atoms
    )
    return JoinPlan(query=query, algorithm="recursive", total_order=total,
                    index_specs=specs, dynamic_seed=dynamic_seed,
                    choice=choice)


def _plan_binary(query: JoinQuery, relations: Mapping[str, Relation],
                 binary_order: "Sequence[str] | None", stats,
                 dynamic_seed: bool, choice) -> JoinPlan:
    if binary_order is not None:
        atom_order = list(binary_order)
        if sorted(atom_order) != sorted(a.alias for a in query.atoms):
            raise QueryError(
                f"join order {atom_order} does not cover the query atoms")
    else:
        if stats is None:
            stats = Statistics.collect(relations.values())
        atom_order = greedy_join_order(query, stats)
    stages, _output_attrs = plan_pipeline(query, relations, atom_order)
    specs = tuple(
        IndexSpec(alias=stage["alias"], kind=HASHTABLE_KIND,
                  attribute_order=stage["key_attrs"] + stage["payload_attrs"],
                  permutation=(stage["key_positions"]
                               + stage["payload_positions"]),
                  key_arity=len(stage["key_attrs"]))
        for stage in stages
    )
    return JoinPlan(query=query, algorithm="binary",
                    atom_order=tuple(atom_order), index_specs=specs,
                    dynamic_seed=dynamic_seed, choice=choice)


def _plan_unified(query: JoinQuery, relations: Mapping[str, Relation],
                  order: "Sequence[str] | None",
                  binary_order: "Sequence[str] | None",
                  index: str, engine: str, dynamic_seed: bool,
                  choice: PlanChoice, stats: Statistics,
                  kwargs: dict) -> JoinPlan:
    """Compile a stage-tree plan: per-component binary/WCOJ stages.

    GYO reduction splits the query's hypergraph: the surviving edges —
    the **cyclic core** — get a Generic Join sub-stage (worst-case
    optimal where the AGM bound actually bites), the removed ears get a
    binary hash pipeline stage probing *into the core stage's output*
    (which joins as a synthetic ``stage:core`` relation).  A query that
    is entirely acyclic, entirely cyclic, or a single atom degenerates
    to one root stage running whatever the hybrid optimizer picked —
    the unified plan never does worse than the better flat plan by
    construction of the split.
    """
    engine = _resolve_generic_engine(index, engine)
    options = _generic_options(index, kwargs)
    lazy = _resolve_lazy(index, kwargs)

    def generic_stage(label: str, sub_query: JoinQuery,
                      total: tuple[str, ...], stage_choice) -> PlanStage:
        specs = tuple(
            _structure_spec(relations[atom.alias], atom.alias, index, total,
                            options, lazy=lazy)
            for atom in sub_query.atoms
        )
        return PlanStage(label=label, algorithm="generic", query=sub_query,
                         output=total, engine=engine, index=index,
                         total_order=total, index_specs=specs,
                         choice=stage_choice)

    def binary_stage(label: str, sub_query: JoinQuery,
                     atom_order: Sequence[str],
                     children: tuple = (),
                     stage_choice=None) -> PlanStage:
        stages, output_attrs = plan_pipeline(sub_query, relations, atom_order)
        specs = tuple(
            IndexSpec(alias=stage["alias"], kind=HASHTABLE_KIND,
                      attribute_order=(stage["key_attrs"]
                                       + stage["payload_attrs"]),
                      permutation=(stage["key_positions"]
                                   + stage["payload_positions"]),
                      key_arity=len(stage["key_attrs"]))
            for stage in stages
        )
        return PlanStage(label=label, algorithm="binary", query=sub_query,
                         output=tuple(output_attrs),
                         atom_order=tuple(atom_order), index_specs=specs,
                         children=children, choice=stage_choice)

    core = cyclic_core(Hypergraph.from_query(query))
    aliases = [atom.alias for atom in query.atoms]

    if core and core != set(aliases):
        # mixed plan: WCOJ over the cyclic core, binary ears on top
        core_atoms = tuple(a for a in query.atoms if a.alias in core)
        core_query = JoinQuery(core_atoms)
        core_order = tuple(connectivity_order(core_query))
        core_choice = HybridOptimizer().choose(core_query, stats)
        child = generic_stage("core", core_query, core_order, core_choice)

        feeder = stage_alias(child.label)
        synthetic = Atom(relation=feeder, attributes=child.output,
                         alias=feeder)
        ears = [a for a in query.atoms if a.alias not in core]
        parent_query = JoinQuery((synthetic,) + tuple(ears))
        # ear order: greedy — connected to the bound attributes first,
        # then smallest relation (the core output's cardinality is
        # unknown at plan time, so it always leads)
        atom_order = [feeder]
        bound_attrs = set(child.output)
        remaining = {a.alias for a in ears}
        while remaining:
            connected = [al for al in sorted(remaining)
                         if set(query.attributes_of(al)) & bound_attrs]
            pick = min(connected or sorted(remaining),
                       key=lambda al: (stats.cardinality(al), al))
            atom_order.append(pick)
            remaining.discard(pick)
            bound_attrs |= set(query.attributes_of(pick))
        root_choice = PlanChoice(
            "binary",
            "GYO ear atoms: acyclic attachments probe the core stage's "
            "output with binary hash joins",
            choice.agm_bound, choice.binary_estimate)
        root = binary_stage("root", parent_query, atom_order,
                            children=(child,), stage_choice=root_choice)
    elif choice.algorithm == "binary":
        # fully acyclic (or single-atom) query: one binary root stage
        if binary_order is not None:
            atom_order = list(binary_order)
            if sorted(atom_order) != sorted(aliases):
                raise QueryError(
                    f"join order {atom_order} does not cover the query atoms")
        else:
            atom_order = greedy_join_order(query, stats)
        root = binary_stage("root", query, atom_order, stage_choice=choice)
    else:
        # fully cyclic (or growth-prone) query: one generic root stage
        total = tuple(order) if order else tuple(connectivity_order(query))
        root = generic_stage("root", query, total, choice)

    return JoinPlan(query=query, algorithm="unified", engine=engine,
                    index=index, dynamic_seed=dynamic_seed, choice=choice,
                    root_stage=root)


def _structure_spec(relation: Relation, alias: str, kind: str,
                    total: Sequence[str],
                    options: "Mapping[str, object] | None",
                    lazy: bool = False) -> IndexSpec:
    """An :class:`IndexSpec` for a registry-index structure under ``total``.

    Mirrors :class:`~repro.core.adapter.IndexAdapter`'s order projection
    so the spec's permutation is exactly the one the built adapter will
    apply (and the one the cache keys on).
    """
    attribute_order = tuple(a for a in total if a in relation.schema)
    if len(attribute_order) != relation.arity:
        # same defect, same exception as IndexAdapter would raise at
        # build time — the plan stage just surfaces it earlier
        missing = set(relation.schema.attributes) - set(total)
        raise SchemaError(
            f"total order {list(total)} does not cover attributes "
            f"{sorted(missing)} of relation {relation.name!r}"
        )
    if kind in ORDERED_KINDS:
        _check_orderable(relation, alias, kind)
    return IndexSpec(alias=alias, kind=kind, attribute_order=attribute_order,
                     permutation=relation.schema.permutation_to(
                         attribute_order),
                     options=canonical_options(options), lazy=lazy)


#: index kinds that keep their tuples sorted (leapfrog runs on
#: ``sortedtrie``): each column they hold needs one order over its values
ORDERED_KINDS = frozenset({"sortedtrie", "btree"})


def _check_orderable(relation: Relation, alias: str, kind: str) -> None:
    """Reject a column whose values have no common order (``7`` beside
    ``"007"``) before a sorted structure fails on it mid-build."""
    for attribute, verdict in zip(relation.schema.attributes,
                                  relation.dtype_classes()):
        if verdict == "int64":
            continue
        values = set(relation.column(attribute))
        try:
            sorted(values)
        except TypeError:
            kinds = sorted({type(value).__name__ for value in values})
            raise SchemaError(
                f"column {attribute!r} of relation {relation.name!r} (atom "
                f"{alias!r}) mixes {kinds} values with no common order; "
                f"{kind!r} structures keep their tuples sorted, so use a "
                f"hash-based index (sonic, hashtrie) or algorithm='binary'"
            ) from None


def _validate_index_kwargs(requested: str, resolved: str, index: str,
                           kwargs: Mapping[str, object]) -> None:
    """Reject index options the chosen algorithm cannot honor.

    ``requested`` is what the caller asked for (possibly ``"auto"``),
    ``resolved`` the concrete algorithm; ``"auto"`` is validated against
    the Generic Join's option set (see module docstring).
    """
    if not kwargs:
        return
    allowed = _ALLOWED_OPTIONS["generic" if requested == "auto"
                               else resolved]
    unknown = sorted(set(kwargs) - allowed)
    if unknown:
        raise ConfigurationError(
            f"algorithm {resolved!r} cannot honor index option(s) "
            f"{unknown}; it accepts {sorted(allowed) or 'none'}"
        )
    if (requested != "auto" and resolved in ("generic", "unified")
            and index != "sonic"
            and any(k.startswith("sonic_") for k in kwargs)):
        sonic_only = sorted(k for k in kwargs if k.startswith("sonic_"))
        raise ConfigurationError(
            f"index {index!r} cannot honor Sonic option(s) {sonic_only}; "
            "they apply only with index='sonic'"
        )


# ----------------------------------------------------------------------
# Structure builders (the prepare stage's workhorses)
# ----------------------------------------------------------------------

def _build_structure(spec: IndexSpec, relation: Relation) -> object:
    """Build the structure a spec describes, from ``relation``'s rows."""
    if spec.kind == HASHTABLE_KIND:
        key_arity = spec.key_arity or 0
        return build_stage_table(relation, spec.permutation[:key_arity],
                                 spec.permutation[key_arity:])
    if spec.kind == TUPLESET_KIND:
        return frozenset(relation.rows)
    if spec.lazy:
        # O(1) prepare: pin the column snapshot, build nothing — levels
        # materialize on first descent and their cost surfaces in the
        # executing run's metrics.build_seconds (§5.15 accounting)
        return LazyTrieAdapter(relation, spec.kind, spec.attribute_order,
                               spec.permutation, options=dict(spec.options))
    options = dict(spec.options)
    presort = options.pop("sorted", False)
    if spec.kind == "sonic":
        config = SonicConfig.for_tuples(
            max(len(relation), 1),
            bucket_size=options.pop("bucket_size", 8),
            overallocation=options.pop("overallocation", 2.0),
        )
        index = make_index("sonic", relation.arity, config=config, **options)
    else:
        index = make_index(spec.kind, relation.arity, **options)
    adapter = IndexAdapter(relation, index, spec.attribute_order)
    adapter.build()
    if presort:
        index.rows  # force the SortedTrie sort inside the build phase
    return index
