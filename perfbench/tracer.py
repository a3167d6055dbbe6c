"""Span tracing installed from outside the program, plus the layer ledger.

The program under test is never edited: :func:`install` replaces public
callables of each layer's module with thin wrappers that record a span
``(name, start, end, parent, lane, extra)`` per call, and
:func:`uninstall` puts the originals back.  A *lane* is one thread of one
process; ``parent`` is the index of the enclosing span on the same lane,
or the index of a span on another lane for work shipped to a pool child.

Pool children are forked from a traced process, so they inherit the
wrappers but not a way home for their spans.  While tracing,
``WorkerPool.map_ordered`` hands each task to :func:`child_body`, which
runs the real task under a fresh recorder and returns ``(result,
spans)``; the parent unpacks the result and adopts the spans.

:func:`ledger` turns the spans into per-layer self times that sum to the
traced wall time exactly: each instant of the window is split equally
among the lanes whose innermost open span belongs to a layer, and an
instant with no such lane is ``residual_s``.  A span whose child is open
on another lane is blocked, not busy, at that instant, and so is a
worker's RPC while the coordinator is serving a request: with one worker
that request is the RPC's own.
"""

from __future__ import annotations

import functools
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

clock = time.monotonic  # CLOCK_MONOTONIC: one time base for every process

#: The root span of one benchmark operation; it belongs to no layer.
OP_SPAN = "op"


class Recorder:
    """In-memory span store for one process: ``spans[i]`` is span ``i``,
    ``None`` while it is still open."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self.spans: List[Optional[tuple]] = []
        self._stacks: Dict[int, List[int]] = {}
        self.pid = os.getpid()

    def begin(self) -> Tuple[int, int, List[int]]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks[tid] = []
        index = len(self.spans)
        self.spans.append(None)
        stack.append(index)
        return index, tid, stack

    def end(self, index, tid, stack, name, start, extra=None) -> None:
        stack.pop()
        parent = stack[-1] if stack else -1
        self.spans[index] = (
            name, start, clock(), parent, (self.pid, tid), extra
        )


RECORDER = Recorder()
_installed: List[Tuple[object, str, object]] = []


def _wrap(fn: Callable, name: str, extra_of: Optional[Callable] = None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = RECORDER
        index, tid, stack = rec.begin()
        start = clock()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            extra = extra_of(args, result) if extra_of is not None else None
            rec.end(index, tid, stack, name, start, extra)

    return wrapper


def _patch(owner, attr: str, replacement) -> None:
    _installed.append((owner, attr, owner.__dict__[attr]))
    setattr(owner, attr, replacement)


def _wrap_attr(owner, attr: str, name: str, extra_of=None) -> None:
    _patch(owner, attr, _wrap(getattr(owner, attr), name, extra_of))


# -- per-layer extras: work counts read from public result fields ------------


def _bb_extra(args, result):
    if result is None:
        return None
    return {
        "bb_nodes": result.nodes_explored,
        "lp_iterations": result.lp_iterations,
        "warm_lp_solves": result.warm_lp_solves,
    }


def _net_extra(args, result):
    return None if result is None else {"events": result.events_executed}


def _batch_extra(args, result):
    _scenario, configs, worlds = args[:3]
    return {"lanes": len(configs) * len(worlds)}


def _ensemble_extra(args, result):
    return {"worlds": len(args[0].ensemble) + 1}


def _rpc_extra(args, result):
    """``work`` is 1 for a served RPC that moved work: a sync that
    granted a lease, or any other call (commit, release).  Idle polls and
    heartbeats follow the clock, so their number does not repeat."""
    path = args[2]
    granted = result is not None and bool(result[1].get("lease"))
    return {"work": int(path != "/fabric/sync" or granted)}


def _wearer_get_extra(args, result):
    return {"hit": int(result is not None)}


def _file_size(path) -> int:
    try:
        return os.stat(path).st_size
    except OSError:
        return 0


def _sized(fn: Callable, name: str, path_of: Callable, grown: bool = True):
    """Like :func:`_wrap`, with the growth of a file (``grown``) or its
    size afterwards as ``extra.bytes``."""

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        rec = RECORDER
        index, tid, stack = rec.begin()
        start = clock()
        before = _file_size(path_of(self)) if grown else 0
        try:
            return fn(self, *args, **kwargs)
        finally:
            size = _file_size(path_of(self)) - before
            rec.end(index, tid, stack, name, start, {"bytes": size})

    return wrapper


def _traced_map(original):
    @functools.wraps(original)
    def map_ordered(self, fn, tasks, on_result=None):
        tasks = list(tasks)
        rec = RECORDER
        index, tid, stack = rec.begin()
        start = clock()
        retries = self.retries
        try:
            if not self.parallel or len(tasks) <= 1:
                return original(self, fn, tasks, on_result)

            def unwrap(i, packed):
                if on_result is not None:
                    on_result(i, packed[0])

            packed = original(
                self, functools.partial(child_body, fn), tasks, unwrap
            )
            for _, spans in packed:
                adopt(spans, parent=index)
            return [result for result, _ in packed]
        finally:
            rec.end(index, tid, stack, "pool.map", start, {
                "tasks": len(tasks), "retries": self.retries - retries,
            })

    return map_ordered


def child_body(fn: Callable, task):
    """Pool-child entry while tracing: run ``fn(task)`` on a fresh
    recorder and ship its spans back with the result."""
    RECORDER.reset()
    index, tid, stack = RECORDER.begin()
    start = clock()
    result = fn(task)
    RECORDER.end(index, tid, stack, "pool.task", start)
    return result, RECORDER.spans


def adopt(spans: List[tuple], parent: int = -1) -> None:
    """Append spans recorded elsewhere (a pool child, a worker process),
    re-indexing their parents; their roots hang under ``parent``."""
    offset = len(RECORDER.spans)
    for span in spans:
        if span is None:
            RECORDER.spans.append(None)
            continue
        name, start, end, p, lane, extra = span
        RECORDER.spans.append(
            (name, start, end, p + offset if p >= 0 else parent, tuple(lane),
             extra)
        )


def install() -> None:
    """Wrap the public entry points of every layer (idempotent)."""
    if _installed:
        return
    from repro.campaign import queue, runner, service, wearer_cache, worker
    from repro.channel.link import Channel
    from repro.core import evaluator, journal, parallel, result_cache
    from repro.core.milp_builder import MilpFormulation
    from repro.faults import resilience
    from repro.milp.branch_bound import BranchAndBoundSolver
    from repro.milp.simplex import SimplexSolver
    from repro.net.network import Network

    _wrap_attr(MilpFormulation, "enumerate_candidates", "milp.enumerate")
    _wrap_attr(BranchAndBoundSolver, "solve", "milp.bb", _bb_extra)
    _wrap_attr(SimplexSolver, "solve", "milp.simplex")
    _wrap_attr(evaluator.SimulationOracle, "evaluate_many", "oracle.evaluate_many")
    _wrap_attr(Network, "run", "net.run", _net_extra)
    _wrap_attr(Channel, "fanout_powers", "channel.fanout")
    for module in (evaluator, resilience):
        _wrap_attr(module, "evaluate_batch", "batch.evaluate", _batch_extra)
    _wrap_attr(resilience.EnsembleOracle, "evaluate_many", "faults.ensemble",
               _ensemble_extra)
    cache = result_cache.ResultCache
    _wrap_attr(cache, "get", "result_cache.get")
    _patch(cache, "load", _sized(cache.load, "result_cache.load",
                                 lambda c: c.path, grown=False))
    _patch(cache, "put", _sized(cache.put, "result_cache.put",
                                lambda c: c.path))
    _patch(journal.EventLog, "append", _sized(
        journal.EventLog.append, "journal.append", lambda j: j.path))
    _patch(journal.RunJournal, "_append", _sized(
        journal.RunJournal._append, "journal.append", lambda j: j.path))
    _patch(parallel.WorkerPool, "map_ordered",
           _traced_map(parallel.WorkerPool.map_ordered))

    class CountingExecutor(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            rec = RECORDER
            index, tid, stack = rec.begin()
            start = clock()
            try:
                super().__init__(*args, **kwargs)
            finally:
                rec.end(index, tid, stack, "pool.spawn", start)

    _patch(parallel, "ProcessPoolExecutor", CountingExecutor)
    _wrap_attr(worker.CoordinatorClient, "request", "fabric.request")
    _wrap_attr(worker.CoordinatorClient, "_roundtrip", "fabric.roundtrip")
    _wrap_attr(service.CampaignService, "_route", "fabric.serve", _rpc_extra)
    _wrap_attr(queue.CampaignQueue, "commit", "queue.commit")
    _wrap_attr(queue, "build_aggregate", "aggregate.build")
    _wrap_attr(wearer_cache.WearerResultCache, "get", "wearer_cache.get",
               _wearer_get_extra)
    _wrap_attr(wearer_cache.WearerResultCache, "put", "wearer_cache.put")
    _wrap_attr(worker.WorkerAgent, "_run_shard", "campaign.shard")
    _wrap_attr(runner, "run_wearer_task", "campaign.wearer")


def uninstall() -> None:
    while _installed:
        owner, attr, original = _installed.pop()
        setattr(owner, attr, original)


# -- the ledger ----------------------------------------------------------------

#: Client and server halves of one fabric RPC.
RPC_CLIENT = ("fabric.request", "fabric.roundtrip")
RPC_SERVER = "fabric.serve"

#: Ledger layers; a span's layer is its name up to the first dot.
LAYERS = (
    "milp", "oracle", "net", "channel", "batch", "faults", "result_cache",
    "journal", "pool", "fabric", "queue", "aggregate", "wearer_cache",
    "campaign",
)


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


def ledger(spans: List[tuple], w0: float, w1: float) -> Dict[str, float]:
    """Split the window ``[w0, w1]`` among layers; see the module doc."""
    events = []
    for index, span in enumerate(spans):
        if span is None:
            continue
        start, end = max(span[1], w0), min(span[2], w1)
        if end > start:
            events.append((start, 1, index))
            events.append((end, 0, index))
    events.sort()
    lane_of = [span[4] if span else None for span in spans]
    parent_of = [span[3] if span else -1 for span in spans]
    open_on: Dict[tuple, List[int]] = defaultdict(list)
    remote_children: Dict[int, int] = defaultdict(int)
    shares = {layer: 0.0 for layer in LAYERS}
    residual = 0.0
    now = w0

    def busy_layers() -> List[str]:
        innermost = [
            spans[stack[-1]][0] for stack in open_on.values()
            if stack and not remote_children.get(stack[-1])
        ]
        serving = any(
            spans[index][0] == RPC_SERVER
            for stack in open_on.values() for index in stack
        )
        return [
            layer_of(name) for name in innermost
            if name != OP_SPAN and not (serving and name in RPC_CLIENT)
        ]

    for when, is_start, index in events:
        if when > now:
            busy = busy_layers()
            if busy:
                part = (when - now) / len(busy)
                for layer in busy:
                    shares[layer] += part
            else:
                residual += when - now
            now = when
        lane = lane_of[index]
        parent = parent_of[index]
        remote = parent >= 0 and lane_of[parent] != lane
        if is_start:
            open_on[lane].append(index)
            if remote:
                remote_children[parent] += 1
        else:
            open_on[lane].remove(index)
            if remote:
                remote_children[parent] -= 1
    residual += max(0.0, w1 - now)
    out = {f"ledger.{layer}_s": value for layer, value in shares.items()}
    out["residual_s"] = residual
    return out
