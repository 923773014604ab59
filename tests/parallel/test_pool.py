"""Worker-pool and failure-path tests.

A worker that raises must surface as :class:`~repro.errors.ExecutionError`
carrying the worker-side traceback, and as the worker's own
:mod:`repro.errors` class when it raised one; a dead worker must not
hang the parent; bad configuration fails fast at plan time, not in a child
process.
"""

import gc
import glob

import pytest

from repro.errors import ConfigurationError, ExecutionError
from repro.joins import join
from repro.parallel import WorkerPool, resolve_workers, start_method
from repro.parallel.shm import SEGMENT_PREFIX
from repro.planner.query import parse_query
from repro.storage.relation import Relation

TRIANGLE = parse_query("E1=E(a,b), E2=E(b,c), E3=E(c,a)")


def test_resolve_workers_precedence(monkeypatch):
    monkeypatch.delenv("REPRO_WORKERS", raising=False)
    assert resolve_workers(None) == 0
    assert resolve_workers(3) == 3
    monkeypatch.setenv("REPRO_WORKERS", "2")
    assert resolve_workers(None) == 2
    assert resolve_workers(4) == 4  # explicit beats env
    assert resolve_workers(0) == 0  # explicit zero disables


def test_resolve_workers_rejects_negative():
    with pytest.raises(ConfigurationError):
        resolve_workers(-1)


def test_resolve_workers_rejects_bad_env(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "many")
    with pytest.raises(ValueError, match="REPRO_WORKERS"):
        resolve_workers(None)


def test_start_method_env_override(monkeypatch):
    monkeypatch.setenv("REPRO_MP_START", "spawn")
    assert start_method() == "spawn"


def test_env_workers_drives_join(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    edges = Relation("E", ("src", "dst"), [(0, 1), (1, 2), (2, 0)])
    relations = {"E1": edges, "E2": edges, "E3": edges}
    result = join(TRIANGLE, relations, profile=True)
    assert result.count == 3
    assert result.profile.counters["parallel.executions"] == 1


def test_worker_task_error_propagates_with_traceback():
    with WorkerPool(2) as pool:
        # a task the worker cannot bind: unknown relation alias
        bad_task = {
            "query": "E1=E(a,b)",
            "algorithm": "generic",
            "index": "sonic",
            "engine": "tuple",
            "order": None,
            "atom_order": None,
            "dynamic_seed": True,
            "index_kwargs": {},
            "relations": {},
            "shard": 0,
            "signature": ("bad", 0),
            "materialize": False,
            "with_counters": False,
        }
        with pytest.raises(ExecutionError) as excinfo:
            pool.run([bad_task])
    assert "E1" in str(excinfo.value)


def test_library_error_keeps_its_type_across_the_worker_boundary():
    # a unary atom cannot be indexed by Sonic: the in-process run and
    # the sharded run must raise the same class, and the sharded run
    # must still release every shared-memory segment it exported
    relations = {"U": Relation("U", ("x",), [(1,), (2,)]),
                 "R": Relation("R", ("x", "y"), [(1, 2), (2, 3)])}
    with pytest.raises(ConfigurationError):
        join("U(a), R(a,b)", relations, index="sonic")
    before = set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*"))
    with pytest.raises(ConfigurationError) as excinfo:
        join("U(a), R(a,b)", relations, index="sonic", parallel=2)
    assert isinstance(excinfo.value, ExecutionError)
    assert "failed in worker process" in str(excinfo.value)
    assert "Traceback" in str(excinfo.value)
    assert "pool.error" in excinfo.value.flight_log
    gc.collect()
    assert set(glob.glob(f"/dev/shm/{SEGMENT_PREFIX}*")) - before == set()


def test_dead_worker_raises_not_hangs():
    pool = WorkerPool(1)
    try:
        worker = pool._processes[0]
        worker.terminate()
        worker.join(5)
        with pytest.raises(ExecutionError):
            pool.run([{"shard": 0}], timeout=10)
    finally:
        pool.close()


def test_pool_close_is_idempotent_and_reaps_children():
    pool = WorkerPool(2)
    assert pool.alive()
    pool.close()
    pool.close()
    assert not pool.alive()
    assert not any(p.is_alive() for p in pool._processes)
