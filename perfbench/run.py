#!/usr/bin/env python3
"""The repository's benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload job_session --seed 3 --seconds 20 --trace 0

It imports the program from the checkout's ``src/`` and builds nothing.
The last line of stdout is ``{"correct", "attempted", "failed",
"metrics"}``; the line before it describes the run (sizes, op counts,
cache budget, raw wall times).  ``--trace 0`` reports the end-to-end
metrics, ``--trace 1`` the per-layer ones (see perfbench/README.md).

A run:

1. generates the workload's inputs from ``--seed`` in a child process;
2. sets the program up in ``SETUP_SAMPLES`` fresh interpreters (two
   children and this process) and reports the median as ``setup_s``;
3. warms every distinct query once, then ``gc.collect()`` and
   ``gc.freeze()``;
4. runs a fixed number of units of the closed loop, checking every answer
   against the workload's oracle outside the timed region;
5. checks the deterministic counters against any earlier run of the same
   program, workload, seed and length in this checkout.

Times are in reference units: wall time scaled by the host's speed
measured around the work (see speed.py).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import pickle
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("graph_cold", "job_session", "job_ingest")

#: interpreters that each set the program up once; setup_s is the median
SETUP_SAMPLES = 3
#: loop units per second of --seconds, measured on a 2-vCPU x86-64 VM
#: (CPython 3.11), so a run does a fixed amount of work that takes about
#: --seconds there; both sides of a comparison do the same work
UNIT_RATE = {"graph_cold": 6.0, "job_session": 15.0, "job_ingest": 5.4}
#: the p90 needs at least ten samples above it
MIN_READS = 100
#: the loop stops early after this many seconds, so a run stays under 180 s
DEADLINE_S = 150.0
CHILD_TIMEOUT_S = 120.0
COUNTERS = ("joins.lookups", "joins.intermediates", "joins.results",
            "cache.misses", "cache.evictions")


def _child(args: list[str], stdin: bytes | None = None) -> bytes:
    done = subprocess.run([sys.executable, str(HERE / "child.py"), *args],
                          input=stdin, capture_output=True, cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr.decode(errors="replace"))
        raise RuntimeError(f"child {args[0]} exited with {done.returncode}")
    return done.stdout


class Loop:
    """What the loop saw: latencies, counters, failures, spans."""

    def __init__(self, recorder):
        self.recorder = recorder
        self.plain: list[float] = []   # read latency (ref ns), untraced units
        self.traced: list[float] = []  # read latency (ref ns), traced units
        self.wall: list[int] = []      # read latency (wall ns), untraced units
        self.busy = 0.0                # program time (ref ns), reads and writes
        self.reads = self.writes = 0
        self.attempted = self.failed = 0
        self.counters = dict.fromkeys(COUNTERS, 0)
        #: per traced read: (prepare missed the cache,
        #: metrics.total_seconds, wall-to-reference factor)
        self.traced_reads: dict[int, tuple[bool, float, float]] = {}
        #: per traced write: wall-to-reference factor
        self.traced_writes: dict[int, float] = {}

    def fail(self, message: str) -> None:
        if not self.failed:
            sys.stderr.write(message + "\n")
        self.failed += 1


def run_units(workload, schedule, loop: Loop, deadline: float,
              measured: bool) -> None:
    """Run ``schedule``, pairs of unit index and ops, checking every answer.

    With a recorder, measured units are traced in an ABBA pattern so
    traced and untraced latencies come from interleaved units.  Each op
    is timed by the workload itself; the calibration kernel, the oracle
    check and all bookkeeping happen outside those stamps.
    """
    from workloads import Write

    cache = workload.cache
    op = loop.attempted
    kernel = speed.kernel_seconds()
    for index, steps in schedule:
        if time.monotonic() > deadline:
            sys.stderr.write(f"deadline reached after {index} units\n")
            break
        traced = (measured and loop.recorder is not None
                  and index % 4 in (0, 3))
        for step in steps:
            op += 1
            loop.attempted += 1
            if isinstance(step, Write):
                try:
                    start, end = workload.write(step)
                except Exception:
                    loop.fail(traceback.format_exc())
                    continue
                before, kernel = kernel, speed.kernel_seconds()
                factor = speed.scale(before, kernel)
                loop.writes += 1
                if measured:
                    loop.busy += (end - start) * factor
                if traced:
                    loop.recorder.write(op, start, end)
                    loop.traced_writes[op] = factor
                continue
            misses = cache.stats().misses if cache is not None else 0
            try:
                stamps, result = workload.read(step)
            except Exception:
                loop.fail(traceback.format_exc())
                continue
            before, kernel = kernel, speed.kernel_seconds()
            factor = speed.scale(before, kernel)
            expected = workload.expected(step)
            if result.count != expected:
                loop.fail(f"{step.name}: count {result.count}, "
                          f"oracle {expected}")
            if not measured:
                continue
            loop.reads += 1
            wall = stamps[-1] - stamps[0]
            loop.busy += wall * factor
            metrics = result.metrics
            loop.counters["joins.lookups"] += metrics.lookups
            loop.counters["joins.intermediates"] += metrics.intermediate_tuples
            loop.counters["joins.results"] += result.count
            if traced:
                loop.traced.append(wall * factor)
                loop.recorder.read(op, stamps)
                missed = cache is None or cache.stats().misses > misses
                loop.traced_reads[op] = (missed, metrics.total_seconds, factor)
            else:
                loop.plain.append(wall * factor)
                loop.wall.append(wall)


def source_digest() -> str:
    """A digest of the program's and this benchmark's sources, so counters
    of different versions are never compared."""
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *HERE.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def counters_repeat(key: str, counters: dict) -> bool:
    """Whether ``counters`` equal those of an earlier run under ``key``
    (the first run under a key records them)."""
    path = WORK / "counters" / f"{key}.json"
    if path.exists():
        earlier = json.loads(path.read_text())
        if earlier != counters:
            sys.stderr.write(f"counters differ from an earlier run: "
                             f"{earlier} != {counters}\n")
            return False
        return True
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(counters, sort_keys=True))
    return True


def p90(values) -> float:
    return statistics.quantiles(values, n=10)[8]


def end_to_end(loop: Loop, setup: dict) -> dict:
    return {
        "latency_p50_ms": (statistics.median(loop.plain) / 1e6, "ms"),
        "latency_p90_ms": (p90(loop.plain) / 1e6, "ms"),
        "throughput_qps": (loop.reads / (loop.busy / 1e9), "1/s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024, "MiB"),
    }


def per_layer(workload, loop: Loop, setup: dict, cache_delta: dict,
              profile_ratio: float) -> dict:
    """Per-layer metrics from the traced units' spans (reference ms per
    op, shares of read time) plus counters and set-up parts."""
    from spans import self_times

    factors = {op: factor for op, (_, _, factor)
               in loop.traced_reads.items()}
    factors.update(loop.traced_writes)
    selfs = {name: [(op, ns * factors[op]) for op, ns in values]
             for name, values in self_times(loop.recorder.spans).items()}

    def mean_ms(name: str, ops=None) -> float:
        values = [ns for op, ns in selfs.get(name, ())
                  if ops is None or op in ops]
        return statistics.fmean(values) / 1e6 if values else 0.0

    read_time = sum(loop.traced)

    def share(name: str) -> float:
        return sum(ns for _, ns in selfs[name]) / read_time

    # the program's own total against the wall time of the prepare and
    # execute spans it should account for
    durations = {(op, name): end - start
                 for op, name, _, start, end in loop.recorder.spans}
    spanned = sum(durations[(op, name)] for op in loop.traced_reads
                  for name in ("engine.prepare", "joins.execute"))
    reported = sum(total for _, total, _ in loop.traced_reads.values()) * 1e9
    missed = {op for op, (miss, _, _) in loop.traced_reads.items() if miss}
    hits, misses = cache_delta["hits"], cache_delta["misses"]
    counters = loop.counters
    cache = workload.cache
    return {
        "planner.bind_ms": (mean_ms("planner.bind"), "ms"),
        "planner.plan_ms": (mean_ms("planner.plan"), "ms"),
        "planner.plan_share": (share("planner.plan"), "ratio"),
        "engine.prepare_ms": (mean_ms("engine.prepare"), "ms"),
        "engine.prepare_miss_ms": (mean_ms("engine.prepare", missed), "ms"),
        "engine.prepare_share": (share("engine.prepare"), "ratio"),
        "joins.execute_ms": (mean_ms("joins.execute"), "ms"),
        "joins.execute_share": (share("joins.execute"), "ratio"),
        "engine.close_ms": (mean_ms("engine.close"), "ms"),
        "storage.extend_ms": (mean_ms("storage.extend"), "ms"),
        "cache.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                            "ratio"),
        "cache.misses": (misses, "count"),
        "cache.evictions": (cache_delta["evictions"], "count"),
        "cache.bytes_mb": ((cache.bytes_used if cache is not None else 0)
                           / 2**20, "MiB"),
        "joins.lookups": (counters["joins.lookups"], "count"),
        "joins.intermediates": (counters["joins.intermediates"], "count"),
        "joins.results": (counters["joins.results"], "count"),
        "joins.intermediates_per_result": (
            counters["joins.intermediates"] / max(counters["joins.results"], 1),
            "ratio"),
        "setup.import_s": (setup["import_s"], "s"),
        "setup.load_s": (setup["load_s"], "s"),
        "setup.prime_s": (setup["prime_s"], "s"),
        "obs.profile_ratio": (profile_ratio, "ratio"),
        "obs.accounting_gap": (1 - reported / spanned, "ratio"),
        "trace.overhead_ratio": (statistics.median(loop.traced)
                                 / statistics.median(loop.plain), "ratio"),
    }


def units_for(workload, name: str, seconds: int) -> int:
    """A fixed unit count: about --seconds of work, whole schedule periods,
    at least MIN_READS reads."""
    units = max(seconds * UNIT_RATE[name],
                math.ceil(MIN_READS / workload.reads_per_unit))
    return math.ceil(units / workload.period) * workload.period


def set_up(spec_bytes: bytes):
    """``SETUP_SAMPLES`` set-ups, the last in this process; returns the
    workload set up here, the median parts and the samples."""
    samples = [json.loads(_child(["setup"], stdin=spec_bytes))
               for _ in range(SETUP_SAMPLES - 1)]
    import child

    # the pickle was written by this benchmark's own generate step
    workload, scaled, walls = child.setup_sample(pickle.loads(spec_bytes))
    samples.append({"scaled": scaled, "wall": walls})
    setup = {part: statistics.median(sample["scaled"][part]
                                     for sample in samples)
             for part in scaled}
    setup["setup_s"] = statistics.median(sum(sample["scaled"].values())
                                         for sample in samples)
    return workload, setup, samples


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs, for checking the harness")
    args = parser.parse_args(argv)
    started = time.monotonic()
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to measure: {SRC / 'repro'} is missing\n")
        return 2

    workload, setup, samples = set_up(_child(
        ["generate", args.workload, str(args.seed), args.scale]))
    workload.build_oracle()

    from spans import SpanRecorder

    deadline = started + DEADLINE_S
    loop = Loop(SpanRecorder() if args.trace else None)
    # warm every distinct query once: lazy imports and planner memos make
    # the first pass slower than the steady state being measured
    warm = enumerate([query] for query in workload.distinct_queries())
    run_units(workload, warm, loop, deadline, measured=False)
    gc.collect()
    gc.freeze()

    units = units_for(workload, args.workload, args.seconds)
    cache = workload.cache
    before = cache.stats().as_dict() if cache is not None else None
    run_units(workload, ((index, workload.unit(index))
                         for index in range(units)),
              loop, deadline, measured=True)
    after = cache.stats().as_dict() if cache is not None else None
    cache_delta = {key: after[key] - before[key] if cache is not None else 0
                   for key in ("hits", "misses", "evictions")}
    loop.counters["cache.misses"] = cache_delta["misses"]
    loop.counters["cache.evictions"] = cache_delta["evictions"]
    key = (f"{source_digest()}-{args.workload}-{args.scale}"
           f"-seed{args.seed}-units{units}")
    repeat = counters_repeat(key, loop.counters)

    if args.trace:
        metrics = per_layer(workload, loop, setup, cache_delta,
                            workload.profile_ratio())
        loop.recorder.dump(WORK / "traces" / f"{key}.jsonl")
    else:
        metrics = end_to_end(loop, setup)
    correct = loop.failed == 0 and repeat and loop.reads > 0
    print(json.dumps({"info": {
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "loop": "closed, 1 client, 1 thread", "units": units,
        "reads": loop.reads, "writes": loop.writes,
        "wall_latency_p50_ms": (statistics.median(loop.wall) / 1e6
                                if loop.wall else None),
        "wall_latency_p90_ms": (p90(loop.wall) / 1e6
                                if len(loop.wall) > 1 else None),
        "setup_samples": samples, "rows": workload.sizes(),
        "cache_bytes": cache.bytes_used if cache is not None else 0,
        "cache_budget_bytes": cache.max_bytes if cache is not None else 0,
        "elapsed_s": time.monotonic() - started}}))
    print(json.dumps({
        "correct": correct, "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
