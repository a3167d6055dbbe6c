"""Fault-tolerant worker-pool tests: crash, hang, poison, degradation.

The contract under test (DESIGN.md §9): because every pool task is a
pure function of its description, worker crashes, hung workers, poison
tasks, and serial degradation must be invisible in the *results* — the
output stays bit-identical to the serial path — and visible only in the
``pool.*`` metrics and trace events.

Worker crashes are real: the chaos hook in ``repro.core.parallel`` makes
a worker die with ``os._exit`` mid-batch (see the ``crash_worker``
fixture), exactly what a segfault or OOM kill looks like to the parent.
"""

import json
import multiprocessing
import os
import time

from repro.core.parallel import WorkerPool
from repro.obs import (
    Instrumentation,
    MetricsRegistry,
    TraceWriter,
    read_trace,
    runtime,
)

from tests.test_golden_trace import GOLDEN_PATH, run_reference

#: Generous deadline for the hung-worker test: long enough that a healthy
#: loaded CI runner finishes every honest task well inside it, short
#: enough that the test stays fast.
HANG_TIMEOUT_S = 5.0


def _square(task):
    return task * task


def _sleep_while_flagged(task):
    """Hang (once) if the task carries a live flag file.

    The first worker to execute the flagged task claims the flag and then
    sleeps far past any deadline — a wedged worker.  After the pool kills
    it and retries, the flag is gone and the task completes instantly, so
    the test is deterministic: exactly one hang, then recovery.
    """
    if isinstance(task, tuple):
        value, flag = task
        try:
            os.unlink(flag)
        except OSError:
            return _square(value)
        time.sleep(600.0)
    return _square(task)


def _exit_in_worker(task):
    """Poison: kills any *worker* that touches it; harmless in the
    parent process (where quarantine and degraded execution run)."""
    if multiprocessing.parent_process() is not None:
        os._exit(29)
    return _square(task)


def _exit_poison_task(task):
    """Poison only the marked task; other tasks are honest work."""
    if task == "poison":
        if multiprocessing.parent_process() is not None:
            os._exit(31)
        return "quarantined"
    return _square(task)


def _counted_square(task):
    """Counts on the ambient registry, as the DES kernel does."""
    runtime.get_active().counter("test.squares").inc(task)
    return _square(task)


def _observed(trace_path):
    """Instrumentation that is both explicit and ambient, so ``pool.*``
    events/counters emitted via ``runtime.get_active()`` land in it."""
    tracer = TraceWriter(trace_path)
    return Instrumentation(MetricsRegistry(), tracer), tracer


# ---------------------------------------------------------------------------
# unit layer: WorkerPool.map_ordered under injected faults
# ---------------------------------------------------------------------------


def test_chaos_crash_is_retried_and_results_are_exact(crash_worker):
    flag = crash_worker(nth=1)
    with WorkerPool(2, backoff_base_s=0.001) as pool:
        results = pool.map_ordered(_square, list(range(8)))
    assert results == [i * i for i in range(8)]
    assert not flag.exists(), "chaos crash never fired"
    assert pool.retries >= 1
    assert pool.respawns >= 1
    assert not pool.degraded


def test_child_counters_reach_the_parent_registry():
    # each child counts on a fresh registry and ships the increments back
    # with its result; the parent adds them, so totals match serial
    for jobs in (1, 2):
        obs = Instrumentation(MetricsRegistry())
        with runtime.activate(obs), WorkerPool(jobs) as pool:
            results = pool.map_ordered(_counted_square, list(range(6)))
        assert results == [i * i for i in range(6)]
        assert obs.counter("test.squares").value == sum(range(6))


def test_hung_worker_hits_deadline_and_recovers(tmp_path):
    flag = tmp_path / "hang.flag"
    flag.write_text("armed")
    tasks = [0, 1, (2, str(flag)), 3, 4]
    with WorkerPool(
        2, task_timeout_s=HANG_TIMEOUT_S, backoff_base_s=0.001
    ) as pool:
        results = pool.map_ordered(_sleep_while_flagged, tasks)
    assert results == [0, 1, 4, 9, 16]
    assert not flag.exists()
    assert pool.retries >= 1
    assert pool.respawns >= 1
    assert not pool.degraded


def test_poison_task_is_quarantined_to_parent(tmp_path):
    trace = tmp_path / "pool.jsonl"
    obs, tracer = _observed(trace)
    tasks = [1, "poison", 3, 4, 5]
    with tracer, runtime.activate(obs):
        with WorkerPool(
            2, quarantine_after=2, max_respawns=8, backoff_base_s=0.001
        ) as pool:
            results = pool.map_ordered(_exit_poison_task, tasks)
    assert results == [1, "quarantined", 9, 16, 25]
    assert pool.quarantined >= 1
    assert not pool.degraded
    assert obs.counter("pool.quarantined").value >= 1
    kinds = {ev["kind"] for ev in read_trace(trace)}
    assert {"pool.retry", "pool.respawn", "pool.quarantine"} <= kinds


def test_unrecoverable_pool_degrades_to_serial_loudly(tmp_path, capfd):
    trace = tmp_path / "pool.jsonl"
    obs, tracer = _observed(trace)
    tasks = list(range(6))
    with tracer, runtime.activate(obs):
        with WorkerPool(
            2, quarantine_after=100, max_respawns=1, backoff_base_s=0.001
        ) as pool:
            results = pool.map_ordered(_exit_in_worker, tasks)
    assert results == [i * i for i in tasks]
    assert pool.degraded
    # degradation is sticky: later batches go straight to the serial path
    assert pool.map_ordered(_square, [7, 8]) == [49, 64]
    assert "DEGRADED TO SERIAL" in capfd.readouterr().err
    kinds = {ev["kind"] for ev in read_trace(trace)}
    assert "pool.degraded" in kinds


def test_resilience_counters_reach_ambient_metrics(crash_worker, tmp_path):
    """The satellite metrics contract: pool.retries / pool.respawns are
    visible on the ambient instrumentation, with matching trace events."""
    crash_worker(nth=1)
    trace = tmp_path / "pool.jsonl"
    obs, tracer = _observed(trace)
    with tracer, runtime.activate(obs):
        with WorkerPool(2, backoff_base_s=0.001) as pool:
            pool.map_ordered(_square, list(range(6)))
    assert obs.counter("pool.retries").value >= 1
    assert obs.counter("pool.respawns").value >= 1
    events = [ev for ev in read_trace(trace) if ev["kind"] == "pool.retry"]
    assert events and all("tasks" in ev for ev in events)


# ---------------------------------------------------------------------------
# integration layer: worker crash mid-exploration is bit-invisible
# ---------------------------------------------------------------------------


def test_explore_bit_identical_after_worker_crash(crash_worker, tmp_path):
    """SIGKILL-grade worker loss during a parallel campaign must not
    perturb the golden trajectory: retry/respawn re-runs the lost tasks,
    whose outcomes are pure functions of their descriptions."""
    flag = crash_worker(nth=2)
    sequence = run_reference(tmp_path / "crash.jsonl", n_jobs=2)
    assert not flag.exists(), "chaos crash never fired"
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sequence == golden
