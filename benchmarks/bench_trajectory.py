"""Perf-trajectory harness: tuple vs batch Generic Join on a pinned suite.

Unlike the ``bench_figNN_*`` files (which reproduce individual paper
figures via pytest-benchmark), this is a standalone script tracking the
repo's own performance trajectory across PRs: the same pinned workloads,
run through both Generic Join execution engines, with the comparison
written to ``BENCH_generic_join.json`` at the repo root so the numbers are
versioned alongside the code that produced them.

Suite (seeds and sizes pinned — reruns are comparable):

* ``triangle``  — directed triangle count on uniform random edge
  relations (Fig 1 / Fig 14's 3-cycle), sweeping edge count;
* ``4clique``   — the 4-clique query (six atoms, the densest small
  pattern; stresses deep intersection);
* ``job_light`` — three JOB-light-style star queries over the synthetic
  IMDB catalog (§5.16's relational regime, where batch wins are smallest).

Every case runs both engines and **fails loudly on any count divergence**
— the script doubles as the CI equivalence gate (smoke mode).

Each case also carries a ``warm`` column: the same query re-executed
through a :class:`~repro.engine.session.Session`-prepared join, whose
indexes come out of the session cache instead of being rebuilt — the
serving-path cost the staged engine exists to eliminate.  A dedicated
``sessions`` section additionally verifies the cache *counters* (exact
hit/miss accounting on the pinned triangle — counter gates are CI-safe
where wall-clock gates are not) and measures a build-dominated
``triangle_hot`` serving case: a handful of hot vertices probed against
the full pinned edge relation, where cold cost ≈ index build and the
warm/cold ratio is the headline number (``--min-warm-speedup``).

Usage::

    python benchmarks/bench_trajectory.py            # full run, ~minutes
    python benchmarks/bench_trajectory.py --smoke    # CI-sized, seconds
    python benchmarks/bench_trajectory.py --min-speedup 3.0   # + perf gate
    python benchmarks/bench_trajectory.py --smoke --sessions-only
    python benchmarks/bench_trajectory.py --min-warm-speedup 5.0
    python benchmarks/bench_trajectory.py --smoke --build-only

``--min-speedup X`` additionally requires batch to beat tuple by ``X``x
(probe time) on every triangle case with >= 50k edges; used when
refreshing the committed full-run JSON, not in smoke mode (wall-clock
gates on shared CI runners are flake factories).  ``--min-warm-speedup``
is the warm-path analogue, gating the ``triangle_hot`` serving case;
``--sessions-only`` runs just the session section (the CI session-reuse
smoke job).

A ``bulk_build`` section compares the cold adapter-build cost of the
per-tuple ``insert()`` loop against the columnar ``build_bulk`` path
(one ``np.lexsort`` + group-at-a-time construction) on the pinned
triangle@100k relation, gated by ``--min-build-speedup``;
``--build-only`` runs just that section (the CI build-speedup smoke
job).  Partial runs (``--sessions-only``/``--build-only``) never
rewrite the committed JSON.

A ``parallel`` section measures the multiprocess sharded path
(:mod:`repro.parallel`): the pinned triangle cold through ``parallel=1``
(one worker — the fleet-overhead floor) vs ``parallel=--workers``
(default 4), total wall clock, with exact count equivalence against
the single-process run.  ``--min-parallel-speedup`` gates the ratio,
but **CPU-aware**: on a runner with fewer cores than workers the gate
is waived (recorded as ``gate_waived`` with a printed warning) since
multiprocess scaling there is physically impossible; equivalence is
never waived.  ``--parallel-only`` runs just this section (the CI
parallel-smoke job) and, like the other partial modes, never rewrites
the committed JSON.

A ``unified`` section runs each pinned JOB-light query as a pure binary
pipeline, a pure batch Generic Join, and a unified stage-tree plan
(``algorithm="unified"``), recording the per-case winner and the
best per-round (back-to-back, drift-cancelling) ratio of the better
pure plan to the unified plan; ``--min-unified-ratio``
(default 0.95) fails the run if a unified plan falls more than 5%
behind.  The section also measures the lazy-COLT prefix-only case: a
probe relation disjoint from the pinned graph, where the join dies at
the first attribute and a ``lazy=True`` build materializes one trie
level instead of two full indexes — cold ``build_s`` lazy vs eager is
the recorded win, gated alongside the ratio.  ``--unified-only`` runs
just this section (the CI unified-plan-smoke job) and never rewrites
the committed JSON.

The run also measures the **observability overhead** (``obs_overhead``
in the output JSON): probe time with no observer vs a present-but-
disabled :class:`~repro.obs.observer.JoinObserver` vs full profiling.
``--max-obs-overhead`` (default 5%) fails the run if the disabled
observer is measurably slower than none at all — the teeth behind the
``obs.enabled`` branch-once discipline that lint rule RA601 checks
statically.  The same three modes also run through the sharded path
(``parallel=2``, recorded under ``obs_overhead.parallel``): the
distributed trace/flight-recorder plumbing must be free when off too,
gated by the same threshold but CPU-aware (waived below 2 cores, where
multiprocess wall clock is scheduler noise).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.core.adapter import set_bulk_build               # noqa: E402
from repro.data.graphs import random_edge_relation          # noqa: E402
from repro.data.imdb import job_light_queries, make_imdb    # noqa: E402
from repro.engine import Session                            # noqa: E402
from repro.joins import join                                # noqa: E402
from repro.obs.observer import JoinObserver                 # noqa: E402
from repro.planner.query import parse_query                 # noqa: E402
from repro.storage.relation import Relation                 # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_generic_join.json"
ENGINES = ("tuple", "batch")

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")
FOUR_CLIQUE = parse_query(
    "E1=E(a,b), E2=E(a,c), E3=E(a,d), E4=E(b,c), E5=E(b,d), E6=E(c,d)"
)

#: pinned sweep points: (nodes, edges) per triangle case
TRIANGLE_SIZES = ((2_000, 10_000), (6_000, 50_000), (10_000, 100_000))
TRIANGLE_SIZES_SMOKE = ((600, 2_000),)
#: 4-clique needs denser, smaller graphs to have non-trivial results
CLIQUE_SIZES = ((300, 6_000), (600, 15_000))
CLIQUE_SIZES_SMOKE = ((120, 1_200),)
#: JOB-light-style: catalog scale and which queries from the workload
IMDB_TITLES = 4_000
IMDB_TITLES_SMOKE = 400
JOB_QUERY_NAMES = ("job_1_cast_info", "job_2_cast_info_keyword",
                   "job_3_cast_info_info_companies")

GRAPH_SEED = 13


def _run_engine(query, relations, engine: str, index: str, repeats: int):
    """Best-of-``repeats`` timings for one (query, engine) cell."""
    best = None
    for _ in range(repeats):
        result = join(query, relations, index=index, engine=engine)
        metrics = result.metrics
        if best is None or metrics.probe_seconds < best["probe_s"]:
            best = {
                "count": result.count,
                "build_s": round(metrics.build_seconds, 6),
                "probe_s": round(metrics.probe_seconds, 6),
                "total_s": round(metrics.total_seconds, 6),
                "intermediates": metrics.intermediate_tuples,
                "lookups": metrics.lookups,
            }
    return best


def _run_warm(query, relations, index: str, repeats: int) -> dict:
    """Best-of-``repeats`` warm (session-prepared) re-execution timings.

    One :class:`Session` prepares the query once — paying every index
    build into the cache — then each timed run re-executes the prepared
    join with all structures coming out of the cache (``build_s`` is 0
    by construction; an assertion would be redundant with the dedicated
    session section's counter gate).

    ``engine="auto"`` matters: the warm column is the *serving path*,
    which must run whatever driver the planner would pick, not a pinned
    tuple-at-a-time rendering.  Pinning ``"tuple"`` here made warm
    re-execution *slower* than a cold batch run on mid-size triangles
    (warm_speedup 0.883 on triangle_n6000_m50000) — a bench artifact,
    not an engine regression.
    """
    with Session(relations) as session:
        prepared = session.prepare(query, index=index, engine="auto")
        prepared.execute()  # consume the one-time build charge
        best = None
        for _ in range(repeats):
            result = prepared.execute()
            metrics = result.metrics
            if best is None or metrics.probe_seconds < best["probe_s"]:
                best = {
                    "count": result.count,
                    "probe_s": round(metrics.probe_seconds, 6),
                    "total_s": round(metrics.total_seconds, 6),
                }
    return best


def _run_case(name: str, workload: str, query, relations,
              index: str, repeats: int, detail: dict) -> dict:
    case = {"name": name, "workload": workload, "index": index, **detail}
    for engine in ENGINES:
        case[engine] = _run_engine(query, relations, engine, index, repeats)
    case["warm"] = _run_warm(query, relations, index, repeats)
    counts = {engine: case[engine]["count"] for engine in ENGINES}
    counts["warm"] = case["warm"]["count"]
    case["count"] = counts["tuple"]
    case["diverged"] = len(set(counts.values())) > 1
    tuple_probe, batch_probe = case["tuple"]["probe_s"], case["batch"]["probe_s"]
    tuple_total, batch_total = case["tuple"]["total_s"], case["batch"]["total_s"]
    warm_total = case["warm"]["total_s"]
    case["probe_speedup"] = round(tuple_probe / batch_probe, 3) if batch_probe else None
    case["total_speedup"] = round(tuple_total / batch_total, 3) if batch_total else None
    case["warm_speedup"] = round(tuple_total / warm_total, 3) if warm_total else None
    status = "DIVERGED" if case["diverged"] else "ok"
    print(f"  {name:42s} count={counts['tuple']:<10d} "
          f"probe {tuple_probe:.3f}s -> {batch_probe:.3f}s "
          f"({case['probe_speedup']}x)  "
          f"warm {warm_total:.3f}s ({case['warm_speedup']}x)  [{status}]")
    return case


def run_suite(smoke: bool, index: str, repeats: int) -> list[dict]:
    cases: list[dict] = []

    print("triangle:")
    for nodes, edges in (TRIANGLE_SIZES_SMOKE if smoke else TRIANGLE_SIZES):
        relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
        relations = {"E1": relation, "E2": relation, "E3": relation}
        cases.append(_run_case(
            f"triangle_n{nodes}_m{edges}", "triangle", TRIANGLE, relations,
            index, repeats, {"nodes": nodes, "edges": edges}))

    print("4clique:")
    for nodes, edges in (CLIQUE_SIZES_SMOKE if smoke else CLIQUE_SIZES):
        relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED + 1)
        relations = {alias: relation
                     for alias in ("E1", "E2", "E3", "E4", "E5", "E6")}
        cases.append(_run_case(
            f"4clique_n{nodes}_m{edges}", "4clique", FOUR_CLIQUE, relations,
            index, repeats, {"nodes": nodes, "edges": edges}))

    print("job_light:")
    catalog = make_imdb(IMDB_TITLES_SMOKE if smoke else IMDB_TITLES,
                        seed=GRAPH_SEED)
    workload = {q.name: q for q in job_light_queries(catalog, seed=GRAPH_SEED)}
    for name in JOB_QUERY_NAMES:
        job = workload[name]
        cases.append(_run_case(
            name, "job_light", job.query, job.relations, index, repeats,
            {"satellites": len(job.query.atoms) - 1}))

    return cases


#: (nodes, edges) for the obs-overhead measurement (mid-size triangle)
OBS_GRAPH = (6_000, 50_000)
OBS_GRAPH_SMOKE = (600, 2_000)
OBS_REPEATS = 5
#: shard count for the parallel-path overhead measurement
OBS_PARALLEL_WORKERS = 2


def _best_of_modes(run, repeats: int) -> dict[str, float]:
    """Best wall time per obs mode (absent / disabled / profiled)."""
    timings: dict[str, float] = {}
    for mode in ("absent", "disabled", "profiled"):
        if mode == "disabled":
            extra = {"obs": JoinObserver.disabled()}
        elif mode == "profiled":
            extra = {"profile": True}
        else:
            extra = {}
        best = None
        for _ in range(repeats):
            seconds = run(extra)
            if best is None or seconds < best:
                best = seconds
        timings[mode] = best
    return timings


def _overhead_pct(timings: dict[str, float], mode: str) -> float:
    if not timings["absent"]:
        return 0.0
    return round(100.0 * (timings[mode] - timings["absent"])
                 / timings["absent"], 2)


def measure_obs_overhead(smoke: bool, index: str) -> dict:
    """Probe time with the observer absent vs disabled vs profiling.

    Disabled must cost the same as absent: the drivers branch exactly
    once per run on ``obs.enabled`` and the un-instrumented recursion
    contains no observability code (lint rule RA601 guards the
    discipline; this measures it).  Best-of-``OBS_REPEATS`` keeps the
    ratio out of scheduler noise.

    The same three modes run again through the sharded path
    (``parallel=OBS_PARALLEL_WORKERS``): a disabled observer must be
    free there too — the fan-out layer's flight recorder and trace
    plumbing sit behind the identical ``enabled`` discipline.  Wall
    clock across K processes is scheduler physics on a starved runner,
    so (like the parallel speedup gate) the parallel overhead gate is
    waived when the runner has fewer CPUs than workers; the numbers
    are still recorded.
    """
    nodes, edges = OBS_GRAPH_SMOKE if smoke else OBS_GRAPH
    relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
    relations = {"E1": relation, "E2": relation, "E3": relation}

    timings = _best_of_modes(
        lambda extra: join(TRIANGLE, relations, index=index, engine="tuple",
                           **extra).metrics.probe_seconds,
        OBS_REPEATS)

    workers = OBS_PARALLEL_WORKERS
    parallel_timings = _best_of_modes(
        lambda extra: join(TRIANGLE, relations, index=index, engine="tuple",
                           parallel=workers, **extra).metrics.total_seconds,
        OBS_REPEATS)
    cpus = os.cpu_count() or 1

    report = {
        "workload": f"triangle_n{nodes}_m{edges}",
        "repeats": OBS_REPEATS,
        "absent_probe_s": round(timings["absent"], 6),
        "disabled_probe_s": round(timings["disabled"], 6),
        "profiled_probe_s": round(timings["profiled"], 6),
        "disabled_overhead_pct": _overhead_pct(timings, "disabled"),
        "profiled_overhead_pct": _overhead_pct(timings, "profiled"),
        "parallel": {
            "workers": workers,
            "cpus": cpus,
            "absent_total_s": round(parallel_timings["absent"], 6),
            "disabled_total_s": round(parallel_timings["disabled"], 6),
            "profiled_total_s": round(parallel_timings["profiled"], 6),
            "disabled_overhead_pct": _overhead_pct(parallel_timings,
                                                   "disabled"),
            "profiled_overhead_pct": _overhead_pct(parallel_timings,
                                                   "profiled"),
            "gate_waived": (f"runner has {cpus} CPU(s) < {workers} workers; "
                            f"parallel obs-overhead gate waived"
                            if cpus < workers else None),
        },
    }
    print("obs overhead:")
    print(f"  absent {timings['absent']:.4f}s  "
          f"disabled {timings['disabled']:.4f}s "
          f"({report['disabled_overhead_pct']:+.2f}%)  "
          f"profiled {timings['profiled']:.4f}s "
          f"({report['profiled_overhead_pct']:+.2f}%)")
    par = report["parallel"]
    print(f"  parallel({workers}w): absent {parallel_timings['absent']:.4f}s  "
          f"disabled {parallel_timings['disabled']:.4f}s "
          f"({par['disabled_overhead_pct']:+.2f}%)  "
          f"profiled {parallel_timings['profiled']:.4f}s "
          f"({par['profiled_overhead_pct']:+.2f}%)")
    if par["gate_waived"]:
        print(f"  WARNING: {par['gate_waived']}")
    return report


#: session section: pinned counter-verification graph (always this size —
#: counter accounting is size-independent, so keep it CI-cheap)
SESSION_GRAPH = (600, 2_000)
#: the hot-vertex serving case runs on the largest pinned triangle graph
HOT_GRAPH = (10_000, 100_000)
HOT_GRAPH_SMOKE = (600, 2_000)
HOT_VERTEX_COUNT = 64
HOT_QUERY = parse_query("E1=H(a,b), E2=E(b,c), E3=E(c,a)")


def verify_session_cache(index: str) -> dict:
    """Exact cache accounting on the pinned triangle (always gated).

    Wall-clock speedups flake on shared runners; cache *counters* do
    not.  The triangle self-join must produce exactly 2 misses (one per
    distinct column permutation of the shared edge storage), 1 hit
    (E2 reuses E1's build), and 3 more hits on a second prepare — and
    warm re-execution must report ``build_seconds == 0.0`` exactly,
    proving no index was rebuilt on the serving path.
    """
    nodes, edges = SESSION_GRAPH
    relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
    relations = {"E1": relation, "E2": relation, "E3": relation}
    with Session(relations) as session:
        prepared = session.prepare(TRIANGLE, index=index)
        first = prepared.execute()
        warm = prepared.execute()
        rewarm = session.prepare(TRIANGLE, index=index).execute()
        stats = session.cache_stats()
    expected = {"misses": 2, "hits": 4, "entries": 2}
    observed = {"misses": stats.misses, "hits": stats.hits,
                "entries": stats.entries}
    report = {
        "workload": f"triangle_n{nodes}_m{edges}",
        "index": index,
        "expected": expected,
        "observed": observed,
        "first_build_s": round(first.metrics.build_seconds, 6),
        "warm_build_s": warm.metrics.build_seconds,
        "counts_agree": first.count == warm.count == rewarm.count,
        "ok": (observed == expected
               and first.metrics.build_seconds > 0.0
               and warm.metrics.build_seconds == 0.0
               and first.count == warm.count == rewarm.count),
    }
    print("session cache:")
    print(f"  {report['workload']:42s} "
          f"misses={observed['misses']} hits={observed['hits']} "
          f"entries={observed['entries']} warm_build={report['warm_build_s']}s "
          f"[{'ok' if report['ok'] else 'FAIL'}]")
    return report


def run_triangle_hot(smoke: bool, index: str, repeats: int) -> dict:
    """The build-dominated serving case behind ``--min-warm-speedup``.

    A handful of "hot" vertices (their out-edges as a small relation H)
    joined against the full pinned edge relation: the probe touches a
    sliver of the graph, so cold cost is almost entirely the two big
    index builds the session cache amortizes away.  This is the staged
    engine's headline workload — repeated small queries over a large,
    slowly-changing graph.
    """
    nodes, edges = HOT_GRAPH_SMOKE if smoke else HOT_GRAPH
    relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
    sources = sorted({row[0] for row in relation.rows})
    step = max(1, len(sources) // HOT_VERTEX_COUNT)
    hot = set(sources[::step][:HOT_VERTEX_COUNT])
    hot_edges = Relation("H", ("src", "dst"),
                         [row for row in relation.rows if row[0] in hot])
    relations = {"E1": hot_edges, "E2": relation, "E3": relation}

    cold = None
    for _ in range(repeats):
        result = join(HOT_QUERY, relations, index=index, engine="tuple")
        metrics = result.metrics
        if cold is None or metrics.total_seconds < cold["total_s"]:
            cold = {
                "count": result.count,
                "build_s": round(metrics.build_seconds, 6),
                "probe_s": round(metrics.probe_seconds, 6),
                "total_s": round(metrics.total_seconds, 6),
            }
    warm = _run_warm(HOT_QUERY, relations, index, max(repeats, 3))

    warm_total = warm["total_s"]
    speedup = round(cold["total_s"] / warm_total, 3) if warm_total else None
    report = {
        "name": f"triangle_hot_n{nodes}_m{edges}",
        "nodes": nodes,
        "edges": edges,
        "hot_vertices": HOT_VERTEX_COUNT,
        "hot_edges": len(hot_edges),
        "index": index,
        "count": cold["count"],
        "cold": cold,
        "warm": warm,
        "warm_speedup": speedup,
        "diverged": cold["count"] != warm["count"],
    }
    status = "DIVERGED" if report["diverged"] else "ok"
    print(f"  {report['name']:42s} count={cold['count']:<10d} "
          f"cold {cold['total_s']:.3f}s -> warm {warm_total:.3f}s "
          f"({speedup}x)  [{status}]")
    return report


def run_session_suite(smoke: bool, index: str, repeats: int) -> dict:
    sessions = {"cache": verify_session_cache(index)}
    print("triangle_hot:")
    sessions["triangle_hot"] = run_triangle_hot(smoke, index, repeats)
    return sessions


#: the columnar-build comparison runs on the largest pinned triangle
BULK_GRAPH = (10_000, 100_000)
BULK_GRAPH_SMOKE = (600, 2_000)


def run_bulk_build(smoke: bool, index: str, repeats: int) -> dict:
    """Cold build cost: per-tuple ``insert()`` vs columnar ``build_bulk``.

    The same cold triangle join runs with the adapter's bulk switch off
    and on; ``build_s`` (the executor's adapter-build phase, which in
    bulk mode includes column materialization, the lexsort and the
    group-walk) is compared best-of-``repeats`` per mode.  The result
    counts must agree exactly — this section doubles as an equivalence
    gate on the integrated path.
    """
    nodes, edges = BULK_GRAPH_SMOKE if smoke else BULK_GRAPH
    relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
    relations = {"E1": relation, "E2": relation, "E3": relation}
    repeats = max(repeats, 3)

    modes: dict[str, dict] = {}
    for mode, enabled in (("per_tuple", False), ("bulk", True)):
        previous = set_bulk_build(enabled)
        try:
            best = None
            for _ in range(repeats):
                result = join(TRIANGLE, relations, index=index, engine="tuple")
                metrics = result.metrics
                if best is None or metrics.build_seconds < best["build_s"]:
                    best = {
                        "count": result.count,
                        "build_s": round(metrics.build_seconds, 6),
                        "probe_s": round(metrics.probe_seconds, 6),
                        "total_s": round(metrics.total_seconds, 6),
                    }
        finally:
            set_bulk_build(previous)
        modes[mode] = best

    per_tuple, bulk = modes["per_tuple"], modes["bulk"]
    speedup = (round(per_tuple["build_s"] / bulk["build_s"], 3)
               if bulk["build_s"] else None)
    report = {
        "name": f"bulk_build_n{nodes}_m{edges}",
        "nodes": nodes,
        "edges": edges,
        "index": index,
        "repeats": repeats,
        "per_tuple": per_tuple,
        "bulk": bulk,
        "build_speedup": speedup,
        "diverged": per_tuple["count"] != bulk["count"],
    }
    status = "DIVERGED" if report["diverged"] else "ok"
    print("bulk build:")
    print(f"  {report['name']:42s} count={per_tuple['count']:<10d} "
          f"build {per_tuple['build_s']:.3f}s -> {bulk['build_s']:.3f}s "
          f"({speedup}x)  [{status}]")
    return report


#: the multiprocess scaling case runs on the largest pinned triangle
PARALLEL_GRAPH = (10_000, 100_000)
PARALLEL_GRAPH_SMOKE = (600, 2_000)


def run_parallel(smoke: bool, index: str, repeats: int, workers: int) -> dict:
    """Wall-clock scaling of the multiprocess sharded path (Fig 16's axis).

    The pinned triangle runs once single-process (the equivalence
    reference), then cold through the sharded path with ``parallel=1``
    (one worker — the fleet overhead floor: partitioning, shared-memory
    transport, one process round-trip) and ``parallel=workers``.  The
    speedup is total wall clock (build + probe, §5.15: partitioning is
    the sharded plan's build phase and the workers' index builds are on
    the probe clock) of 1 worker over ``workers`` workers.  All counts
    must agree exactly.

    The speedup gate (``--min-parallel-speedup``) is **CPU-aware**:
    multiprocess scaling is physics, not code — on a runner with fewer
    cores than ``workers`` the gate cannot pass honestly, so it is
    waived (``gate_waived`` in the JSON names the reason) and the
    measured numbers are recorded as-is.  Count equivalence is never
    waived.
    """
    nodes, edges = PARALLEL_GRAPH_SMOKE if smoke else PARALLEL_GRAPH
    relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
    relations = {"E1": relation, "E2": relation, "E3": relation}
    repeats = max(repeats, 2)

    reference = join(TRIANGLE, relations, index=index, engine="batch")

    modes: dict[str, dict] = {}
    for label, k in (("one_worker", 1), (f"workers_{workers}", workers)):
        best = None
        for _ in range(repeats):
            result = join(TRIANGLE, relations, index=index, engine="batch",
                          parallel=k)
            metrics = result.metrics
            if best is None or metrics.total_seconds < best["total_s"]:
                best = {
                    "count": result.count,
                    "build_s": round(metrics.build_seconds, 6),
                    "probe_s": round(metrics.probe_seconds, 6),
                    "total_s": round(metrics.total_seconds, 6),
                }
        modes[label] = best

    one, many = modes["one_worker"], modes[f"workers_{workers}"]
    speedup = (round(one["total_s"] / many["total_s"], 3)
               if many["total_s"] else None)
    cpus = os.cpu_count() or 1
    report = {
        "name": f"parallel_triangle_n{nodes}_m{edges}",
        "nodes": nodes,
        "edges": edges,
        "index": index,
        "engine": "batch",
        "workers": workers,
        "cpus": cpus,
        "repeats": repeats,
        "count": reference.count,
        "single_process": {
            "count": reference.count,
            "total_s": round(reference.metrics.total_seconds, 6),
        },
        "one_worker": one,
        f"workers_{workers}": many,
        "parallel_speedup": speedup,
        "diverged": len({reference.count, one["count"], many["count"]}) > 1,
        "gate_waived": (f"runner has {cpus} CPU(s) < {workers} workers; "
                        f"wall-clock scaling gate waived"
                        if cpus < workers else None),
    }
    status = "DIVERGED" if report["diverged"] else "ok"
    print("parallel:")
    print(f"  {report['name']:42s} count={reference.count:<10d} "
          f"1w {one['total_s']:.3f}s -> {workers}w {many['total_s']:.3f}s "
          f"({speedup}x, {cpus} cpus)  [{status}]")
    if report["gate_waived"]:
        print(f"  WARNING: {report['gate_waived']}")
    return report


#: the lazy prefix-only case runs on the largest pinned triangle graph
LAZY_GRAPH = (10_000, 100_000)
LAZY_GRAPH_SMOKE = (600, 2_000)
#: probe relation for the prefix-only case: vertices disjoint from the
#: pinned graph, so the join dies at the first attribute level
LAZY_PROBE_VERTICES = 64


def run_unified(smoke: bool, index: str, repeats: int) -> dict:
    """Unified stage-tree plans vs the better pure plan, per JOB-light case.

    Each pinned JOB-light query runs as a pure binary pipeline, a pure
    batch Generic Join, and a unified stage-tree plan (best-of-repeats
    total time each).  The recorded ``winner`` is the fastest cell.
    ``unified_ratio`` is the best *per-round* ratio of best-pure total
    to unified total: the three cells run back-to-back inside each
    repeat round, and pairing within a round is what cancels machine
    drift (frequency scaling, noisy neighbors) that would otherwise
    swamp a few-percent plan difference.  The ``--min-unified-ratio``
    gate (default 0.95) demands the unified plan stay within 5% of
    whichever pure plan wins under those matched conditions.  Counts
    must agree exactly across all three cells.

    The ``lazy_prefix`` sub-case is the headline for lazy COLT builds: a
    probe relation whose vertices are disjoint from the pinned graph, so
    the join dies at the first attribute and a lazy build materializes
    one trie level where the eager build pays for every level of two
    large indexes.  Cold ``build_s`` lazy vs eager is the recorded win.
    """
    from repro.indexes.lazy import LAZY_CAPABLE_KINDS

    print("unified:")
    # the JOB-light cells finish in single-digit milliseconds, where
    # scheduling noise swamps any real plan difference: warm every cell
    # up untimed, then interleave the timed repeats round-robin across
    # the cells (so a transient slowdown hits all of them, not one
    # cell's whole block) and take each cell's best with the garbage
    # collector paused
    repeats = max(repeats, 7)
    catalog = make_imdb(IMDB_TITLES_SMOKE if smoke else IMDB_TITLES,
                        seed=GRAPH_SEED)
    workload = {q.name: q for q in job_light_queries(catalog, seed=GRAPH_SEED)}
    plans = (
        ("binary", {"algorithm": "binary"}),
        ("batch", {"algorithm": "generic", "engine": "batch", "index": index}),
        ("unified", {"algorithm": "unified", "index": index}),
    )
    cases = []
    for name in JOB_QUERY_NAMES:
        job = workload[name]
        cells: dict[str, dict] = {}
        for label, options in plans:
            join(job.query, job.relations, **options)  # warmup, untimed
        ratio = None
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            for _ in range(repeats):
                totals: dict[str, float] = {}
                for label, options in plans:
                    # re-warm right before the timed run: a cell timed
                    # just after another plan's run pays that run's cache
                    # pollution, a position bias that outgrows the gate's
                    # 5% once a cell takes only ~100 microseconds
                    join(job.query, job.relations, **options)
                    result = join(job.query, job.relations, **options)
                    metrics = result.metrics
                    totals[label] = metrics.total_seconds
                    best = cells.get(label)
                    if best is None or metrics.total_seconds < best["total_s"]:
                        cells[label] = {
                            "count": result.count,
                            "build_s": round(metrics.build_seconds, 6),
                            "probe_s": round(metrics.probe_seconds, 6),
                            "total_s": round(metrics.total_seconds, 6),
                        }
                # the gate ratio pairs cells *within* a round — machine
                # drift across rounds (frequency scaling, neighbors)
                # dwarfs the plan difference, and back-to-back runs are
                # the only fairly matched comparison
                if totals["unified"]:
                    round_ratio = (min(totals["binary"], totals["batch"])
                                   / totals["unified"])
                    if ratio is None or round_ratio > ratio:
                        ratio = round(round_ratio, 3)
        finally:
            if was_enabled:
                gc.enable()
        best_pure = min(("binary", "batch"),
                        key=lambda label: cells[label]["total_s"])
        winner = min(cells, key=lambda label: cells[label]["total_s"])
        unified_total = cells["unified"]["total_s"]
        case = {
            "name": name,
            "workload": "job_light",
            **cells,
            "best_pure": best_pure,
            "winner": winner,
            "unified_ratio": ratio,
            "diverged": len({c["count"] for c in cells.values()}) > 1,
        }
        status = "DIVERGED" if case["diverged"] else "ok"
        print(f"  {name:42s} count={cells['unified']['count']:<10d} "
              f"pure({best_pure}) {cells[best_pure]['total_s']:.4f}s  "
              f"unified {unified_total:.4f}s "
              f"(ratio {ratio}x, winner={winner})  [{status}]")
        cases.append(case)

    # --- the prefix-only lazy build case ------------------------------
    lazy_kind = index if index in LAZY_CAPABLE_KINDS else "sonic"
    nodes, edges = LAZY_GRAPH_SMOKE if smoke else LAZY_GRAPH
    relation = random_edge_relation(nodes, edges, seed=GRAPH_SEED)
    probe = Relation("H", ("src", "dst"),
                     [(nodes + i, nodes + i + 1)
                      for i in range(LAZY_PROBE_VERTICES)])
    relations = {"E1": probe, "E2": relation, "E3": relation}
    modes: dict[str, dict] = {}
    for mode, lazy in (("eager", False), ("lazy", True)):
        best = None
        for _ in range(max(repeats, 3)):
            result = join(HOT_QUERY, relations, algorithm="generic",
                          index=lazy_kind, lazy=lazy)
            metrics = result.metrics
            if best is None or metrics.build_seconds < best["build_s"]:
                best = {
                    "count": result.count,
                    "build_s": round(metrics.build_seconds, 6),
                    "probe_s": round(metrics.probe_seconds, 6),
                    "total_s": round(metrics.total_seconds, 6),
                }
        modes[mode] = best
    eager, lazy = modes["eager"], modes["lazy"]
    build_speedup = (round(eager["build_s"] / lazy["build_s"], 3)
                     if lazy["build_s"] else None)
    lazy_prefix = {
        "name": f"lazy_prefix_n{nodes}_m{edges}",
        "nodes": nodes,
        "edges": edges,
        "index": lazy_kind,
        "probe_vertices": LAZY_PROBE_VERTICES,
        "eager": eager,
        "lazy": lazy,
        "build_speedup": build_speedup,
        "diverged": eager["count"] != lazy["count"],
    }
    status = "DIVERGED" if lazy_prefix["diverged"] else "ok"
    print(f"  {lazy_prefix['name']:42s} count={eager['count']:<10d} "
          f"build {eager['build_s']:.4f}s -> {lazy['build_s']:.4f}s "
          f"({build_speedup}x)  [{status}]")
    return {"cases": cases, "lazy_prefix": lazy_prefix}


def check_gates(cases: list[dict], min_speedup: float,
                obs_overhead: "dict | None" = None,
                max_obs_overhead: float = 0.0,
                sessions: "dict | None" = None,
                min_warm_speedup: float = 0.0,
                bulk: "dict | None" = None,
                min_build_speedup: float = 0.0,
                parallel: "dict | None" = None,
                min_parallel_speedup: float = 0.0,
                unified: "dict | None" = None,
                min_unified_ratio: float = 0.0) -> list[str]:
    """Equivalence gate (always) and the optional speedup/overhead gates."""
    failures = []
    if unified is not None:
        for case in unified["cases"]:
            if case["diverged"]:
                counts = {label: case[label]["count"]
                          for label in ("binary", "batch", "unified")}
                failures.append(
                    f"{case['name']}: unified plan counts diverged ({counts})"
                )
            if (min_unified_ratio > 0
                    and (case["unified_ratio"] or 0) < min_unified_ratio):
                failures.append(
                    f"{case['name']}: unified ratio {case['unified_ratio']}x "
                    f"below the {min_unified_ratio}x gate (best pure: "
                    f"{case['best_pure']})"
                )
        lazy = unified["lazy_prefix"]
        if lazy["diverged"]:
            failures.append(
                f"{lazy['name']}: lazy count {lazy['lazy']['count']} != "
                f"eager count {lazy['eager']['count']}"
            )
        if min_unified_ratio > 0 and (lazy["build_speedup"] or 0) <= 1.0:
            failures.append(
                f"{lazy['name']}: lazy cold build ({lazy['lazy']['build_s']}s) "
                f"did not beat the eager build "
                f"({lazy['eager']['build_s']}s) on the prefix-only case"
            )
    if parallel is not None:
        if parallel["diverged"]:
            failures.append(
                f"{parallel['name']}: sharded counts diverged from the "
                f"single-process count {parallel['count']}"
            )
        if min_parallel_speedup > 0 and not parallel["gate_waived"]:
            if (parallel["parallel_speedup"] or 0) < min_parallel_speedup:
                failures.append(
                    f"{parallel['name']}: parallel speedup "
                    f"{parallel['parallel_speedup']}x below the "
                    f"{min_parallel_speedup}x gate"
                )
    if bulk is not None:
        if bulk["diverged"]:
            failures.append(
                f"{bulk['name']}: bulk count {bulk['bulk']['count']} != "
                f"per-tuple count {bulk['per_tuple']['count']}"
            )
        if min_build_speedup > 0 and (bulk["build_speedup"] or 0) < min_build_speedup:
            failures.append(
                f"{bulk['name']}: build speedup {bulk['build_speedup']}x "
                f"below the {min_build_speedup}x gate"
            )
    if sessions is not None:
        cache = sessions["cache"]
        if not cache["ok"]:
            failures.append(
                f"session cache accounting: expected {cache['expected']}, "
                f"observed {cache['observed']} "
                f"(warm build {cache['warm_build_s']}s, "
                f"counts_agree={cache['counts_agree']})"
            )
        hot = sessions["triangle_hot"]
        if hot["diverged"]:
            failures.append(
                f"{hot['name']}: warm count {hot['warm']['count']} != "
                f"cold count {hot['cold']['count']}"
            )
        if min_warm_speedup > 0 and (hot["warm_speedup"] or 0) < min_warm_speedup:
            failures.append(
                f"{hot['name']}: warm speedup {hot['warm_speedup']}x below "
                f"the {min_warm_speedup}x gate"
            )
    if obs_overhead is not None and max_obs_overhead > 0:
        measured = obs_overhead["disabled_overhead_pct"]
        if measured > max_obs_overhead:
            failures.append(
                f"obs overhead: disabled observer costs {measured:+.2f}% "
                f"probe time vs absent (gate: {max_obs_overhead}%)"
            )
        par = obs_overhead.get("parallel")
        if par is not None and not par.get("gate_waived"):
            measured = par["disabled_overhead_pct"]
            if measured > max_obs_overhead:
                failures.append(
                    f"obs overhead (parallel {par['workers']}w): disabled "
                    f"observer costs {measured:+.2f}% wall time vs absent "
                    f"(gate: {max_obs_overhead}%)"
                )
    for case in cases:
        if case["diverged"]:
            counts = {engine: case[engine]["count"] for engine in ENGINES}
            failures.append(f"{case['name']}: engines diverged ({counts})")
    if min_speedup > 0:
        gated = [c for c in cases
                 if c["workload"] == "triangle" and c.get("edges", 0) >= 50_000]
        if not gated:
            failures.append(
                f"--min-speedup given but no triangle case with >=50k edges ran"
            )
        for case in gated:
            if (case["probe_speedup"] or 0) < min_speedup:
                failures.append(
                    f"{case['name']}: probe speedup {case['probe_speedup']}x "
                    f"below the {min_speedup}x gate"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--smoke", action="store_true",
                        help="CI-sized inputs (seconds, not minutes)")
    parser.add_argument("--index", default="sonic",
                        help="index structure for both engines (default: sonic)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="best-of-N per cell (default: 3, smoke: 1)")
    parser.add_argument("--min-speedup", type=float, default=0.0,
                        help="fail unless batch beats tuple by this factor "
                             "(probe time) on triangles with >=50k edges")
    parser.add_argument("--min-warm-speedup", type=float, default=0.0,
                        help="fail unless session-prepared warm re-execution "
                             "beats a cold join() by this factor (total time) "
                             "on the triangle_hot serving case")
    parser.add_argument("--sessions-only", action="store_true",
                        help="run only the session section (cache counter "
                             "verification + triangle_hot); the CI "
                             "session-reuse smoke job")
    parser.add_argument("--min-build-speedup", type=float, default=0.0,
                        help="fail unless the columnar build_bulk path beats "
                             "the per-tuple insert loop by this factor "
                             "(adapter build time) on the pinned triangle")
    parser.add_argument("--build-only", action="store_true",
                        help="run only the bulk-build section (per-tuple vs "
                             "columnar cold build); the CI build-speedup "
                             "smoke job")
    parser.add_argument("--workers", type=int, default=4,
                        help="worker count for the parallel section "
                             "(default: 4)")
    parser.add_argument("--min-parallel-speedup", type=float, default=0.0,
                        help="fail unless the sharded run on --workers "
                             "workers beats one worker by this factor "
                             "(total wall clock); waived with a warning "
                             "when the runner has fewer CPUs than workers")
    parser.add_argument("--parallel-only", action="store_true",
                        help="run only the parallel section (multiprocess "
                             "sharded scaling + equivalence); the CI "
                             "parallel-smoke job")
    parser.add_argument("--min-unified-ratio", type=float, default=0.95,
                        help="fail unless a unified stage-tree plan runs "
                             "within this fraction of the better pure plan "
                             "(total time) on every JOB-light case, and the "
                             "lazy prefix-only case cuts the cold build "
                             "(default: 0.95; <=0 disables the gate)")
    parser.add_argument("--unified-only", action="store_true",
                        help="run only the unified section (stage-tree vs "
                             "pure plans + lazy prefix-only build); the CI "
                             "unified-plan-smoke job")
    parser.add_argument("--max-obs-overhead", type=float, default=5.0,
                        help="fail if a disabled observer costs more than "
                             "this %% probe time vs no observer at all "
                             "(default: 5; <=0 disables the gate)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"output JSON path (default: {DEFAULT_OUTPUT})")
    args = parser.parse_args(argv)
    repeats = args.repeats or (1 if args.smoke else 3)

    partial = (args.sessions_only or args.build_only or args.parallel_only
               or args.unified_only)
    cases: list[dict] = []
    obs_overhead = sessions = bulk_build = parallel = unified = None
    if args.build_only:
        bulk_build = run_bulk_build(args.smoke, args.index, repeats)
    elif args.sessions_only:
        sessions = run_session_suite(args.smoke, args.index, repeats)
    elif args.parallel_only:
        parallel = run_parallel(args.smoke, args.index, repeats, args.workers)
    elif args.unified_only:
        unified = run_unified(args.smoke, args.index, repeats)
    else:
        cases = run_suite(args.smoke, args.index, repeats)
        obs_overhead = measure_obs_overhead(args.smoke, args.index)
        sessions = run_session_suite(args.smoke, args.index, repeats)
        bulk_build = run_bulk_build(args.smoke, args.index, repeats)
        parallel = run_parallel(args.smoke, args.index, repeats, args.workers)
        unified = run_unified(args.smoke, args.index, repeats)
    failures = check_gates(cases, args.min_speedup,
                           obs_overhead=obs_overhead,
                           max_obs_overhead=args.max_obs_overhead,
                           sessions=sessions,
                           min_warm_speedup=args.min_warm_speedup,
                           bulk=bulk_build,
                           min_build_speedup=args.min_build_speedup,
                           parallel=parallel,
                           min_parallel_speedup=args.min_parallel_speedup,
                           unified=unified,
                           min_unified_ratio=args.min_unified_ratio)

    payload = {
        "suite": "generic_join_trajectory",
        "engines": list(ENGINES),
        "index": args.index,
        "smoke": args.smoke,
        "repeats": repeats,
        "graph_seed": GRAPH_SEED,
        "cases": cases,
        "sessions": sessions,
        "obs_overhead": obs_overhead,
        "bulk_build": bulk_build,
        "parallel": parallel,
        "unified": unified,
    }
    if partial:
        which = ("build-only" if args.build_only
                 else "parallel-only" if args.parallel_only
                 else "unified-only" if args.unified_only
                 else "sessions-only")
        print(f"\n{which} run: not rewriting {args.output}")
    else:
        args.output.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {args.output} ({len(cases)} cases)")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("all gates passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
