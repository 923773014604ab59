"""The benchmark's three workloads: seeded inputs, program set-up, ops, oracle.

Inputs are generated in a process of their own (``child.py generate``)
and handed over as plain rows, so neither set-up time nor the run's peak
RSS includes data generation.  Everything the program does goes through
its public pipeline: ``bind -> plan -> prepare -> PreparedJoin.execute
-> close`` for a read and ``Relation.extend`` for a write.

Each workload is a closed loop with one client: the next op starts when
the previous one has returned.  The loop is cut into *units* (one read,
or for ``job_ingest`` one write followed by three reads); a run executes
a fixed number of units, so two runs with the same arguments do the same
work.

Answers are checked against oracles kept outside the program:

* ``graph_cold`` -- ``triangle_count_truth`` of the edge relation,
  computed once at generation time;
* ``job_session`` / ``job_ingest`` -- a star-join count on ``t``,
  ``sum_t prod_i count_i(t)``, from ``Counter`` s that ``job_ingest``
  keeps up to date across its writes.  Every generated relation is
  duplicate-free, so set and bag semantics give the same answer.
"""

from __future__ import annotations

import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass

from repro.engine import IndexCache, bind, plan, prepare
from repro.storage import Relation

#: generator parameters per scale; ``smoke`` only checks the harness
SCALES = {
    "full": {"graph_nodes": 800, "imdb_titles": 20000,
             "ingest_windows": 12, "ingest_rows": 200},
    "smoke": {"graph_nodes": 60, "imdb_titles": 400,
              "ingest_windows": 3, "ingest_rows": 10},
}

TRIANGLE = "E1=E(a,b), E2=E(b,c), E3=E(c,a)"
#: job_session's queries join title with up to this many satellites; the
#: result sizes of the five four-satellite queries swing with where the
#: seed puts the skewed titles, which made p90 and throughput measure the
#: data instance more than the program
JOB_MAX_SATELLITES = 3
#: the satellites job_ingest writes to, in rotation
INGEST_SATELLITES = ("movie_keyword", "movie_info", "cast_info")


def _fresh_payload_floor(satellite: str, titles: int) -> int:
    """The first payload value past ``make_imdb``'s domain for the
    satellite's second column, so written rows never repeat a row."""
    return {"movie_keyword": titles, "movie_info": 40,
            "cast_info": 2 * titles}[satellite]


# ----------------------------------------------------------------------
# Input generation (runs in the generator process only)
# ----------------------------------------------------------------------

def generate(workload: str, seed: int, scale: str) -> dict:
    """The workload's inputs as plain, picklable rows.

    ``relations`` lists ``(name, attributes, rows)``; a query names its
    sources by index into that list.
    """
    sizes = SCALES[scale]
    if workload == "graph_cold":
        return _generate_graph(seed, sizes)
    if workload == "job_session":
        return _generate_job_session(seed, sizes)
    return _generate_job_ingest(seed, sizes)


def _generate_graph(seed: int, sizes: dict) -> dict:
    from repro.data.graphs import (
        edges_relation,
        powerlaw_cluster_graph,
        triangle_count_truth,
    )

    graph = powerlaw_cluster_graph(sizes["graph_nodes"], 5, 0.3, seed=seed)
    edges = edges_relation(graph, name="E", symmetric=True)
    rows = sorted(edges.rows)
    return {
        "relations": [("E", ("src", "dst"), rows)],
        "queries": [{"name": "triangle", "text": TRIANGLE,
                     "sources": {"E1": 0, "E2": 0, "E3": 0},
                     "expected": triangle_count_truth(edges)}],
    }


class _RelationTable:
    """Generated relations as plain rows, each distinct relation once."""

    def __init__(self):
        self.plain: list[tuple] = []
        self._index: dict[int, int] = {}

    def add(self, relation) -> int:
        """The relation's index in ``plain``, adding it on first sight."""
        if id(relation) not in self._index:
            self._index[id(relation)] = len(self.plain)
            self.plain.append((relation.name, relation.schema.attributes,
                               list(relation.rows)))
        return self._index[id(relation)]


def _query_text(aliases: list[tuple[str, tuple]]) -> str:
    return ", ".join(f"{alias}={alias}({','.join(attrs)})"
                     for alias, attrs in aliases)


def _generate_job_session(seed: int, sizes: dict) -> dict:
    from repro.data.imdb import job_light_queries, make_imdb

    catalog = make_imdb(sizes["imdb_titles"], seed=seed)
    table = _RelationTable()
    queries = []
    for job in job_light_queries(catalog, seed=seed,
                                 max_satellites=JOB_MAX_SATELLITES):
        sources = {alias: table.add(relation)
                   for alias, relation in job.relations.items()}
        atoms = [(atom.alias, atom.attributes) for atom in job.query.atoms]
        queries.append({"name": job.name, "text": _query_text(atoms),
                        "sources": sources})
    return {"relations": table.plain, "queries": queries}


def _generate_job_ingest(seed: int, sizes: dict) -> dict:
    from repro.data.imdb import make_imdb

    catalog = make_imdb(sizes["imdb_titles"], seed=seed)
    table = _RelationTable()
    satellites = {name: table.add(catalog.get(name))
                  for name in INGEST_SATELLITES}
    title = catalog.get("title")
    rng = random.Random(seed)
    years = rng.sample(sorted({row[2] for row in title.rows}),
                       sizes["ingest_windows"])
    windows = [table.add(title.select(lambda row, y=year: row[2] == y,
                                      name="title"))
               for year in years]
    return {"relations": table.plain, "satellites": satellites,
            "windows": windows, "titles": sizes["imdb_titles"],
            "write_rows": sizes["ingest_rows"], "seed": seed}


# ----------------------------------------------------------------------
# The program side: relations, cache, one read
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Query:
    name: str
    text: str
    sources: dict


@dataclass(frozen=True)
class Write:
    relation: str
    rows: list


class Workload:
    """One workload: loads relations from rows and runs reads over them.

    ``load`` and ``prime`` are the program's set-up and are timed by the
    caller; ``build_oracle`` is the benchmark's own work and is not.  The
    base class serves the read-only workloads: unit ``i`` reads query
    ``i mod n``, so the schedule repeats every ``period`` units.
    """

    #: keyword arguments of ``repro.engine.plan``
    plan_options: dict = {"algorithm": "auto"}
    #: whether reads go through a shared ``IndexCache`` primed at set-up
    uses_cache = True
    reads_per_unit = 1

    def __init__(self, spec: dict):
        self.spec = spec
        self.cache: "IndexCache | None" = None

    def load(self) -> None:
        self.relations = [Relation(name, attributes, rows)
                          for name, attributes, rows in self.spec["relations"]]
        self.queries = [
            Query(entry["name"], entry["text"],
                  {alias: self.relations[index]
                   for alias, index in entry["sources"].items()})
            for entry in self.spec.get("queries", ())]

    def prime(self) -> None:
        """One prepare per distinct query into a fresh shared cache."""
        if not self.uses_cache:
            return
        self.cache = IndexCache()
        for query in self.distinct_queries():
            bound = bind(query.text, query.sources)
            prepare(bound, plan(bound, **self.plan_options),
                    cache=self.cache).close()

    def read(self, query: Query):
        """One read op; returns its six clock stamps (ns) and the result.

        The stamps bound bind / plan / prepare / execute / close.
        """
        clock = time.perf_counter_ns
        t0 = clock()
        bound = bind(query.text, query.sources)
        t1 = clock()
        join_plan = plan(bound, **self.plan_options)
        t2 = clock()
        prepared = prepare(bound, join_plan, cache=self.cache)
        t3 = clock()
        try:
            result = prepared.execute()
            t4 = clock()
        finally:
            prepared.close()
        t5 = clock()
        return (t0, t1, t2, t3, t4, t5), result

    def profile_ratio(self, samples: int = 6) -> float:
        """Execute time with ``profile=True`` over without, on one prepared
        join at a time: the median of ABBA-paired ratios."""
        queries = self.distinct_queries()
        queries = queries[::max(1, len(queries) // samples)][:samples]
        ratios = []
        for query in queries:
            bound = bind(query.text, query.sources)
            prepared = prepare(bound, plan(bound, **self.plan_options),
                               cache=self.cache)
            try:
                prepared.execute()  # takes the build charge of a cold prepare
                for _ in range(max(1, samples // len(queries))):
                    times = [_execute_seconds(prepared, profile)
                             for profile in (False, True, True, False)]
                    ratios.append((times[1] + times[2])
                                  / (times[0] + times[3]))
            finally:
                prepared.close()
        return statistics.median(ratios)

    def distinct_queries(self) -> list[Query]:
        return self.queries

    @property
    def period(self) -> int:
        return len(self.queries)

    def unit(self, index: int) -> list:
        return [self.queries[index % len(self.queries)]]

    def expected(self, query: Query) -> int:
        return self._expected[query.name]

    def sizes(self) -> dict:
        """Rows per relation name (the largest of its filtered copies)."""
        rows: dict[str, int] = {}
        for relation in self.relations:
            rows[relation.name] = max(rows.get(relation.name, 0),
                                      len(relation))
        return rows


def _execute_seconds(prepared, profile: bool) -> float:
    start = time.perf_counter()
    prepared.execute(profile=profile)
    return time.perf_counter() - start


class GraphCold(Workload):
    """Triangle counting, cold: every op builds its Sonic indexes (§5.15)."""

    plan_options = {"algorithm": "generic", "index": "sonic",
                    "engine": "batch"}
    uses_cache = False

    def build_oracle(self) -> None:
        self._expected = {entry["name"]: entry["expected"]
                          for entry in self.spec["queries"]}


def _t_counter(relation: Relation) -> Counter:
    position = relation.schema.attributes.index("t")
    return Counter(row[position] for row in relation.rows)


def star_count(title: Counter, satellites: list[Counter]) -> int:
    """``sum_t prod_i count_i(t)``: the size of a star join on ``t``."""
    total = 0
    for t, count in title.items():
        for satellite in satellites:
            count *= satellite.get(t, 0)
            if not count:
                break
        total += count
    return total


class JobSession(Workload):
    """Warm JOB-light serving: 30 queries round-robin over a primed cache."""

    def build_oracle(self) -> None:
        counters: dict[int, Counter] = {}

        def counter(relation: Relation) -> Counter:
            if id(relation) not in counters:
                counters[id(relation)] = _t_counter(relation)
            return counters[id(relation)]

        self._expected = {
            query.name: star_count(
                counter(query.sources["title"]),
                [counter(relation) for alias, relation
                 in query.sources.items() if alias != "title"])
            for query in self.queries}


class JobIngest(Workload):
    """Writes beside reads: each unit appends fresh rows to one satellite
    (in rotation), then runs three selective reads through the cache."""

    reads_per_unit = 3

    def load(self) -> None:
        super().load()
        spec = self.spec
        self.by_name = {name: self.relations[index]
                        for name, index in spec["satellites"].items()}
        self.windows = [self.relations[index] for index in spec["windows"]]
        # the reads repeat every len(windows) units; each (window,
        # satellites) pair among them is one distinct query
        self._reads = [self._unit_reads(index)
                       for index in range(len(self.windows))]

    def _unit_reads(self, index: int) -> list[Query]:
        """The written satellite alone, it with the next one, the third."""
        count = len(INGEST_SATELLITES)
        first, second, third = (INGEST_SATELLITES[(index + k) % count]
                                for k in range(count))
        reads = []
        for slot, satellites in enumerate(([first], [first, second],
                                           [third])):
            window = self.windows[(3 * index + slot) % len(self.windows)]
            sources = {"title": window}
            sources.update((name, self.by_name[name]) for name in satellites)
            atoms = [(alias, relation.schema.attributes)
                     for alias, relation in sources.items()]
            reads.append(Query(f"ingest_{index}_{slot}", _query_text(atoms),
                               sources))
        return reads

    def build_oracle(self) -> None:
        self._counters = {name: _t_counter(relation)
                          for name, relation in self.by_name.items()}
        self._titles = {id(window): _t_counter(window)
                        for window in self.windows}

    def distinct_queries(self) -> list[Query]:
        return [query for reads in self._reads for query in reads]

    @property
    def period(self) -> int:
        return len(self._reads)

    def unit(self, index: int) -> list:
        satellite = INGEST_SATELLITES[index % len(INGEST_SATELLITES)]
        return [self._fresh_rows(index, satellite),
                *self._reads[index % len(self._reads)]]

    def _fresh_rows(self, index: int, satellite: str) -> Write:
        spec = self.spec
        titles, count = spec["titles"], spec["write_rows"]
        rng = random.Random(spec["seed"] * 1_000_003 + index)
        base = _fresh_payload_floor(satellite, titles) + index * count
        if satellite == "cast_info":
            rows = [(rng.randrange(titles), base + k, rng.randrange(12))
                    for k in range(count)]
        else:
            rows = [(rng.randrange(titles), base + k) for k in range(count)]
        return Write(satellite, rows)

    def write(self, write: Write) -> tuple[int, int]:
        """One write op; returns its start and end stamps (ns)."""
        relation = self.by_name[write.relation]
        start = time.perf_counter_ns()
        relation.extend(write.rows)
        end = time.perf_counter_ns()
        self._counters[write.relation].update(row[0] for row in write.rows)
        return start, end

    def expected(self, query: Query) -> int:
        return star_count(
            self._titles[id(query.sources["title"])],
            [self._counters[name] for name in query.sources
             if name != "title"])


WORKLOADS = {"graph_cold": GraphCold, "job_session": JobSession,
             "job_ingest": JobIngest}
