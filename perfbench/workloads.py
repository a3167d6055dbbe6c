"""The four workloads: what one operation is, and how its answer is checked.

Every workload is a closed loop with one client: the next operation
starts when the previous one returns.  A run measures a fixed number of
whole *rounds*: ``--seconds`` divided by the workload's nominal round
time.  The same ``--seconds`` thus always measures the same operations;
on a slower host the run takes longer.  A time limit would not do: the
count of operations would follow the host's speed, and with it the
operation that the tail percentile lands on.

A round is one pass over the workload's input population: the channel
seeds of its sweeps or solves, or its wearer population.  The population
comes from the workload seed's upper 32 bits and the order of a round
from the whole seed, so every seed below 2**32 measures the same work in
its own order.  Solve times differ tenfold between channel seeds; a run
long enough to average that out does not fit the time budget, and equal
work per run is what keeps the figures steady.  Seeds from 2**32 on draw
other populations: the held-out sets (README.md).

All explorer workloads use the ``smoke`` preset as it stands (T_sim = 8 s,
one replicate, candidate cap 8).  The Figure 3 workloads sweep the ``ci``
preset's five PDR_min levels.  README.md says why not ``ci`` itself.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import pathlib
import random
import signal
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import probe
import tracer

PRESET = "smoke"
FIGURE3_PDR_MINS = (0.50, 0.80, 0.95, 0.99, 1.00)
ROBUST_PDR_MIN = 0.85
ROBUST_QUANTILE = 0.0
HUB_WORLDS = 4
HUB_OUTAGE = 0.20
FLEET_WEARERS = 4
FLEET_COHORTS = (90, 95)
#: One worker process.  With ``jobs`` 2 its WorkerPool children race on
#: the worker-local wearer cache's ``index.json.tmp`` and the worker dies
#: with FileNotFoundError (README.md, "Known defect"), so it runs serially.
FLEET_WORKER_JOBS = 1
#: Population sizes (operations per round: 25, 10, 5 and 50).
FIGURE3_SWEEPS = 5
ROBUST_SOLVES = 5
FLEET_CAMPAIGNS = 50
#: Sweeps replayed by figure3-warm (the first ones of the Figure 3
#: population); each costs one cold sweep of set-up.
WARM_SWEEPS = 2


@dataclass
class OpRecord:
    """One operation: its latency, work-identity counts and answer."""

    index: int
    start: float
    end: float
    work: Dict[str, int] = field(default_factory=dict)
    #: Hex digest of the full answer (status, best, trajectory).
    answer: str = ""
    error: Optional[str] = None
    #: The operation's input, as text.
    spec: str = ""
    #: Host probes taken while the operation ran, and the seconds their
    #: handler took, which are not in ``latency_s``.
    host_probes: List[float] = field(default_factory=list)
    sampler_s: float = 0.0

    @property
    def latency_s(self) -> float:
        return self.end - self.start


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def population(family: str, seed: int, size: int) -> List[int]:
    """``size`` channel seeds of the workload seed's population."""
    rng = random.Random(f"{family}:population:{seed >> 32}")
    return [rng.randrange(1, 2**31) for _ in range(size)]


def shuffled(items, seed: int, round_index: int) -> list:
    """``items`` in the order of one round of the workload seed."""
    items = list(items)
    random.Random(f"order:{seed}:{round_index}").shuffle(items)
    return items


class Workload:
    """Base: ``prepare`` is the set-up, ``round_specs`` one round of
    operation inputs, ``run_op`` one timed operation, which also checks
    its own answer after the clock stops."""

    name = ""
    #: Nominal seconds per round on a loaded 2-core host.
    round_s: float
    #: Set-up repetitions; the reported set-up time is their median.
    setup_repeats = 3
    #: Which per-op work count ``work_per_s`` is made of.
    work_unit = "simulations"

    def __init__(self, seed: int, scratch: pathlib.Path) -> None:
        self.seed = seed
        self.scratch = scratch

    def prepare(self, step: Callable[[], None]) -> None:
        """The set-up; it calls ``step()`` between its longer steps, so
        that each is scaled by the host probes on its two sides."""
        raise NotImplementedError

    def round_specs(self, round_index: int) -> list:
        raise NotImplementedError

    def run_op(self, spec) -> OpRecord:
        raise NotImplementedError

    def setup_errors(self) -> List[str]:
        return []

    def worker_report(self) -> Optional[dict]:
        """The last worker process's counters and spans, if any."""
        return None

    def ops_for(self, seconds: float) -> int:
        """Operations in the whole rounds that ``seconds`` buy nominally."""
        rounds = max(1, int(seconds / self.round_s + 0.5))
        return rounds * len(self.round_specs(0))

    def measure(self, count: int, traced: bool = False) -> List[OpRecord]:
        """Run ``count`` operations back to back, round after round, with
        a host probe right before each and one after the last (their times
        go to ``self.probes``), and, untraced, probes while each runs."""
        records: List[OpRecord] = []
        self.probes: List[float] = []
        round_index = 0
        with probe.HostSampler() as sampler:
            while len(records) < count:
                specs = self.round_specs(round_index)[:count - len(records)]
                for spec in specs:
                    self.probes.append(probe.probe())
                    if not traced:  # the handler's time would join a span
                        sampler.arm()
                    record = self._timed(spec, len(records), traced)
                    for at, seconds, handler_s in sampler.disarm():
                        if record.start <= at <= record.end:
                            record.host_probes.append(seconds)
                            record.sampler_s += handler_s
                    record.end -= record.sampler_s
                    records.append(record)
                round_index += 1
        self.probes.append(probe.probe())
        self.end_phase()
        return records

    def _timed(self, spec, index: int, traced: bool) -> OpRecord:
        if traced:
            rec = tracer.RECORDER
            span = rec.begin()
            start = tracer.clock()
        try:
            record = self.run_op(spec)
        except Exception as exc:  # counted in failed_frac, run goes on
            now = tracer.clock()
            record = OpRecord(index, now, now,
                              error=f"{type(exc).__name__}: {exc}")
        finally:
            if traced:
                rec.end(*span, tracer.OP_SPAN, start, {"op": index})
        record.index = index
        record.spec = repr(spec)
        return record

    def end_phase(self) -> None:
        """Called after each measured phase (fleet: stop its worker)."""

    def close(self) -> None:
        pass


# -- explorer workloads ----------------------------------------------------------


def _oracle_counts(stats: dict) -> Dict[str, int]:
    return {
        "simulations": int(stats["simulations_run"]),
        "memory_hits": int(stats["cache_hits"] - stats["disk_hits"]),
        "disk_hits": int(stats["disk_hits"]),
        "batch_calls": int(stats.get("batch_calls", 0)),
        "batched_lanes": int(stats.get("batched_lanes", 0)),
    }


def _delta(after: Dict[str, int], before: Dict[str, int]) -> Dict[str, int]:
    return {key: after[key] - before.get(key, 0) for key in after}


def _record_key(record) -> str:
    return repr(record.config.key())


def _solve_answer(result) -> dict:
    best = result.best
    return {
        "status": result.status,
        "termination": result.termination_reason,
        "best": _record_key(best) if best else None,
        "best_power": repr(best.power_mw) if best else None,
        "trajectory": [
            [repr(it.analytic_power_mw),
             [[_record_key(e), repr(e.pdr), repr(e.power_mw)]
              for e in it.evaluations]]
            for it in result.iterations
        ],
    }


def check_solve(result, pdr_min: float) -> Optional[str]:
    """An ``optimal`` best meets PDR_min and is the lowest-power feasible
    record simulated; an infeasible run simulated nothing feasible."""
    feasible = [
        e for it in result.iterations for e in it.evaluations
        if e.pdr >= pdr_min
    ]
    if result.status != "optimal":
        return f"infeasible, yet {len(feasible)} feasible records" if feasible else None
    best = result.best
    if best.pdr < pdr_min:
        return f"best PDR {best.pdr} below PDR_min {pdr_min}"
    lowest = min(e.power_mw for e in feasible)
    if best.power_mw != lowest:
        return f"best power {best.power_mw} mW, lowest feasible {lowest} mW"
    return None


class Figure3Cold(Workload):
    """Figure 3 sweeps, one shared oracle per sweep, no disk cache.  One
    operation is one Algorithm 1 solve; a sweep is five of them."""

    name = "figure3-cold"
    round_s = 7.5

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self._oracle = None
        self._oracle_key = None

    def prepare(self, step) -> None:
        from repro.core.milp_builder import MilpFormulation
        from repro.experiments.scenario import make_problem

        channel_seed = population("figure3", self.seed, 1)[0]
        for pdr_min in FIGURE3_PDR_MINS:
            MilpFormulation(make_problem(pdr_min, PRESET, seed=channel_seed))

    def round_specs(self, round_index: int) -> list:
        """Whole sweeps in a shuffled order; PDR_min ascends within one,
        as in the paper's figure."""
        sweeps = population("figure3", self.seed, FIGURE3_SWEEPS)
        return [
            ((round_index, sweep), channel_seed, pdr_min, None)
            for sweep, channel_seed in shuffled(
                enumerate(sweeps), self.seed, round_index)
            for pdr_min in FIGURE3_PDR_MINS
        ]

    def _oracle_for(self, key, channel_seed: int, cache_dir):
        from repro.core.evaluator import SimulationOracle
        from repro.experiments.scenario import make_scenario

        if self._oracle_key != key:
            self.end_phase()
            self._oracle = SimulationOracle(make_scenario(
                PRESET, seed=channel_seed, n_jobs=1, cache_dir=cache_dir
            ))
            self._oracle_key = key
        return self._oracle

    def run_op(self, spec) -> OpRecord:
        from repro.core.explorer import HumanIntranetExplorer
        from repro.experiments.scenario import get_preset, make_problem

        key, channel_seed, pdr_min, cache_dir = spec
        oracle = self._oracle_for(key, channel_seed, cache_dir)
        before = _oracle_counts(oracle.stats())
        start = tracer.clock()
        problem = make_problem(pdr_min, PRESET, seed=channel_seed, n_jobs=1)
        result = HumanIntranetExplorer(
            problem, oracle=oracle,
            candidate_cap=get_preset(PRESET).candidate_cap,
        ).explore()
        end = tracer.clock()
        work = _delta(_oracle_counts(oracle.stats()), before)
        work["milp_enumerations"] = result.milp_solves
        work["candidates"] = sum(len(it.evaluations) for it in result.iterations)
        record = OpRecord(0, start, end, work, _digest(_solve_answer(result)))
        record.error = check_solve(result, pdr_min)
        return record

    def end_phase(self) -> None:
        if self._oracle is not None:
            self._oracle.close()
        self._oracle = self._oracle_key = None

    close = end_phase


def sweep_seconds(records: List[OpRecord]) -> List[float]:
    """Wall time of every complete Figure 3 sweep among ``records``."""
    per = len(FIGURE3_PDR_MINS)
    return [
        records[i + per - 1].end - records[i].start
        for i in range(0, len(records) - per + 1, per)
    ]


class Figure3Warm(Figure3Cold):
    """The first ``WARM_SWEEPS`` sweeps of figure3-cold, replayed in turn,
    each replay by a fresh oracle against the result cache that set-up
    filled.  Every replay must reproduce the cold answer bit for bit."""

    name = "figure3-warm"
    round_s = 3.0
    setup_repeats = 1
    work_unit = "candidates"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self._channel_seeds = population("figure3", seed, WARM_SWEEPS)
        self._cold: Dict[tuple, str] = {}
        self._setup_errors: List[str] = []

    def _cache_dir(self, sweep: int) -> str:
        return str(self.scratch / "result-cache" / f"sweep-{sweep}")

    def prepare(self, step) -> None:
        for sweep, channel_seed in enumerate(self._channel_seeds):
            for pdr_min in FIGURE3_PDR_MINS:
                record = super().run_op(
                    (("fill", sweep), channel_seed, pdr_min,
                     self._cache_dir(sweep))
                )
                if record.error:
                    self._setup_errors.append(f"cold fill: {record.error}")
                self._cold[sweep, pdr_min] = record.answer
                step()
        self.end_phase()

    def round_specs(self, round_index: int) -> list:
        """One replay of every filled sweep, in a shuffled order."""
        return [
            ((round_index, sweep), self._channel_seeds[sweep], pdr_min,
             self._cache_dir(sweep))
            for sweep in shuffled(range(WARM_SWEEPS), self.seed, round_index)
            for pdr_min in FIGURE3_PDR_MINS
        ]

    def run_op(self, spec) -> OpRecord:
        record = super().run_op(spec)
        (_, sweep), _, pdr_min, _ = spec
        if record.answer != self._cold[sweep, pdr_min]:
            record.error = "answer or trajectory differs from the cold solve"
        elif record.work["simulations"]:
            record.error = f"{record.work['simulations']} simulations on replay"
        return record

    def setup_errors(self) -> List[str]:
        return list(self._setup_errors)


class RobustHub(Workload):
    """One chance-constrained solve (``explore_robust``) per operation
    under a hub-stress ensemble, with a fresh ensemble oracle each time."""

    name = "robust-hub"
    round_s = 5.0

    def _oracle(self, channel_seed: int):
        from repro.experiments.scenario import make_problem
        from repro.faults.model import hub_stress_ensemble
        from repro.faults.resilience import EnsembleOracle

        problem = make_problem(ROBUST_PDR_MIN, PRESET, seed=channel_seed,
                               n_jobs=1, batch_mode="auto")
        scenario = problem.scenario
        ensemble = hub_stress_ensemble(
            scenario.tsim_s, coordinator=scenario.coordinator_location,
            outage_fraction=HUB_OUTAGE, size=HUB_WORLDS,
        )
        return problem, EnsembleOracle(scenario, ensemble, n_jobs=1)

    def prepare(self, step) -> None:
        from repro.core.milp_builder import MilpFormulation

        problem, oracle = self._oracle(population("robust", self.seed, 1)[0])
        MilpFormulation(problem)
        oracle.close()

    def round_specs(self, round_index: int) -> list:
        return shuffled(population("robust", self.seed, ROBUST_SOLVES),
                        self.seed, round_index)

    def run_op(self, channel_seed) -> OpRecord:
        from repro.core.explorer import HumanIntranetExplorer
        from repro.experiments.scenario import get_preset

        start = tracer.clock()
        problem, oracle = self._oracle(channel_seed)
        try:
            result = HumanIntranetExplorer(
                problem, candidate_cap=get_preset(PRESET).candidate_cap
            ).explore_robust(oracle, quantile=ROBUST_QUANTILE)
            end = tracer.clock()
            work = _oracle_counts(oracle.stats())
        finally:
            oracle.close()
        work["milp_enumerations"] = result.milp_solves
        work["candidates"] = sum(len(it.records) for it in result.iterations)
        answer = result.to_dict()
        answer.pop("wall_seconds")
        answer.pop("oracle_stats")
        record = OpRecord(0, start, end, work, _digest(answer))
        record.error = check_robust(result)
        return record


def check_robust(result) -> Optional[str]:
    """The q-PDR of the best design meets PDR_min, and no feasible record
    simulated has lower healthy power."""
    q = result.quantile
    feasible = [
        r for it in result.iterations for r in it.records
        if r.pdr_quantile(q) >= result.pdr_min
    ]
    if result.status != "optimal":
        return f"infeasible, yet {len(feasible)} feasible records" if feasible else None
    best = result.best
    if best.pdr_quantile(q) < result.pdr_min:
        return f"q-PDR {best.pdr_quantile(q)} below PDR_min {result.pdr_min}"
    lowest = min(r.healthy.power_mw for r in feasible)
    if best.healthy.power_mw != lowest:
        return f"best power {best.healthy.power_mw} mW, lowest {lowest} mW"
    return None


# -- fleet -------------------------------------------------------------------------

IDENTITY_ARTIFACTS = ("aggregate.json", "atlas.json")
HERE = pathlib.Path(__file__).resolve().parent


class FleetWarm(Workload):
    """The coordinator in this process, one ``WorkerAgent`` process.  Set-up
    runs one cold campaign; each operation resubmits the same population
    under a new name and waits for it to finish."""

    name = "fleet-warm"
    round_s = 3.0
    setup_repeats = 1
    work_unit = "wearers"

    def __init__(self, seed, scratch):
        super().__init__(seed, scratch)
        self._base_seed = population("fleet", seed, 1)[0] % 100_000
        self._loop = None
        self._service = None
        self._worker = None
        self._phases = 0
        self._setup_errors: List[str] = []
        self._worker_reports: List[dict] = []

    def _spec(self, name: str):
        from repro.campaign.spec import make_population

        return make_population(
            FLEET_WEARERS, preset=PRESET, base_seed=self._base_seed,
            pdr_bounds=FLEET_COHORTS, name=name,
        )

    def _single_host(self, spec) -> Dict[str, bytes]:
        """Artifacts of a single-host run of ``spec``; the single-host
        wearer cache is separate from the coordinator's."""
        from repro.campaign.runner import run_campaign

        directory = self.scratch / "single-host" / spec.name
        run_campaign(spec, directory, jobs=1,
                     wearer_cache_dir=str(self.scratch / "single-host-cache"))
        return {name: (directory / name).read_bytes()
                for name in IDENTITY_ARTIFACTS}

    def _fleet_artifacts(self, spec) -> Dict[str, bytes]:
        directory = self._service.campaign_dir(spec.fingerprint())
        return {name: (directory / name).read_bytes()
                for name in IDENTITY_ARTIFACTS}

    def prepare(self, step) -> None:
        from repro.campaign.service import CampaignService

        self._loop = asyncio.new_event_loop()
        self._service = CampaignService(
            self.scratch / "coordinator", lease_ttl=60.0
        )
        _, self._port = self._loop.run_until_complete(
            self._service.start("127.0.0.1", 0)
        )
        cold = self._spec("cold")
        golden = self._single_host(cold)
        step()
        self._start_worker(traced=False)
        step()
        self._campaign(cold)
        self.end_phase()
        if self._fleet_artifacts(cold) != golden:
            self._setup_errors.append(
                "cold fleet artifacts differ from the single-host run")

    def _start_worker(self, traced: bool) -> None:
        self._phases += 1
        workdir = self.scratch / f"worker-{self._phases}"
        self._worker_out = self.scratch / f"worker-{self._phases}.json"
        self._worker_workdir = workdir
        log = open(self._worker_out.with_suffix(".log"), "w")
        self._worker = subprocess.Popen(
            [sys.executable, str(HERE / "worker_child.py"),
             f"http://127.0.0.1:{self._port}", str(workdir),
             str(FLEET_WORKER_JOBS), "1" if traced else "0",
             str(self._worker_out)],
            stdout=log, stderr=subprocess.STDOUT,
        )
        log.close()
        ready = self._worker_out.with_suffix(".ready")

        async def started():
            while not ready.exists():
                if self._worker.poll() is not None:
                    raise RuntimeError("worker process exited at start")
                await asyncio.sleep(0.01)

        self._loop.run_until_complete(asyncio.wait_for(started(), 60.0))

    def _campaign(self, spec) -> None:
        self._service.submit(spec, execution="fleet")
        self._loop.run_until_complete(self._wait_done(spec.fingerprint()))

    async def _wait_done(self, campaign_id: str) -> None:
        while True:
            state = self._service.status(campaign_id)["state"]
            if state == "done":
                return
            if state == "failed" or self._worker.poll() is not None:
                log = self._worker_out.with_suffix(".log").read_text()
                last = (log.strip().splitlines() or ["(no output)"])[-1]
                raise RuntimeError(
                    f"campaign {campaign_id} ended {state!r}; worker: {last}")
            await asyncio.sleep(0.001)

    def round_specs(self, round_index: int) -> list:
        """The same population under ``FLEET_CAMPAIGNS`` new names."""
        return [(round_index, k) for k in range(FLEET_CAMPAIGNS)]

    def measure(self, count, traced=False):
        """One phase with its own fresh worker; every answer is checked
        once the phase is over."""
        self._start_worker(traced)
        self._phase_specs = []
        records = super().measure(count, traced)
        self._verify(records)
        return records

    def run_op(self, op) -> OpRecord:
        spec = self._spec("warm-{}-{}-{}".format(self._phases, *op))
        self._phase_specs.append(spec)
        start = tracer.clock()
        self._campaign(spec)
        end = tracer.clock()
        status = self._service.status(spec.fingerprint())
        work = {"wearers": int(status["wearers_total"]),
                "shards": int(status["queue"]["shards"])}
        record = OpRecord(0, start, end, work)
        record.answer = _digest(
            {k: v.decode() for k, v in self._fleet_artifacts(spec).items()}
        )
        return record

    def end_phase(self) -> None:
        """Stop the phase's worker and wait for it; read its report."""
        worker, self._worker = self._worker, None
        if worker is None:
            return
        worker.send_signal(signal.SIGTERM)
        # The coordinator must keep serving while the worker drains.
        async def wait():
            while worker.poll() is None:
                await asyncio.sleep(0.01)

        try:
            self._loop.run_until_complete(asyncio.wait_for(wait(), 30.0))
        except asyncio.TimeoutError:
            worker.kill()
            worker.wait()
        if self._worker_out.exists():
            self._worker_reports.append(json.loads(self._worker_out.read_text()))

    def _verify(self, records: List[OpRecord]) -> None:
        """Per operation: artifacts byte-identical to a single-host run of
        the same spec.  Per phase: the worker wrote no run journal."""
        journals = sum(
            1 for _ in self._worker_workdir.rglob("journal.jsonl")
        )
        for record, spec in zip(records, self._phase_specs):
            if record.error:
                continue
            if self._fleet_artifacts(spec) != self._single_host(spec):
                record.error = "fleet artifacts differ from single-host"
            elif journals:
                record.error = f"worker wrote {journals} run journal(s)"

    def setup_errors(self) -> List[str]:
        return list(self._setup_errors)

    def worker_report(self) -> Optional[dict]:
        return self._worker_reports[-1] if self._worker_reports else None

    def close(self) -> None:
        self.end_phase()
        if self._service is not None:
            self._loop.run_until_complete(self._service.stop())
        if self._loop is not None:
            self._loop.close()


WORKLOADS = {
    cls.name: cls for cls in (Figure3Cold, Figure3Warm, RobustHub, FleetWarm)
}
