"""End-to-end fabric tests: coordinator + worker agents, byte-identity.

The correctness contract of the cross-host fabric is that a fleet of
pulling workers produces **byte-identical** ``aggregate.json`` and
``atlas.json`` to a single-host ``run_campaign`` of the same spec — no
matter how leases were interleaved, expired, or reassigned along the
way.  These tests run the real service on an ephemeral loopback port
with real :class:`~repro.campaign.worker.WorkerAgent` loops on threads
(blocking HTTP against the asyncio server), simulate worker death by
abandoning leases, and diff the artifacts against a golden run.

Shard-count independence is part of the assertion: the golden run uses
one shard per wearer while the fleet runs use other shard counts — the
aggregate is built from per-wearer summary bytes only, so the lease
granularity must never leak into the artifacts.
"""

import asyncio
import json
import threading

import pytest

from repro.campaign.runner import run_campaign, run_wearer_task, wearer_run_dir
from repro.campaign.service import CampaignService
from repro.campaign.spec import make_population
from repro.campaign.worker import WorkerAgent
from repro.core.journal import JOURNAL_FILENAME, SUMMARY_FILENAME

from tests import fabric_wire as wire


def _spec(size=4, name="fleet", base_seed=40):
    return make_population(
        size, preset="smoke", base_seed=base_seed, pdr_bounds=(90, 95),
        name=name,
    )


@pytest.fixture(scope="module")
def golden(tmp_path_factory):
    """One single-host run of the fleet spec; every test diffs against it."""
    spec = _spec()
    directory = tmp_path_factory.mktemp("golden") / "campaign"
    run_campaign(spec, directory, shards=len(spec.wearers), jobs=1)
    return {
        "spec": spec,
        "aggregate": (directory / "aggregate.json").read_bytes(),
        "atlas": (directory / "atlas.json").read_bytes(),
    }


def _agent(port, workdir, name, **kwargs):
    kwargs.setdefault("poll_interval", 0.1)
    kwargs.setdefault("exit_idle", 1.0)
    return WorkerAgent(
        f"http://127.0.0.1:{port}", workdir, name=name, **kwargs
    )


async def _drain_workers(agents):
    """Run every agent's pull loop on a thread until all exit."""
    codes = {}

    def loop(agent):
        codes[agent.name] = agent.run_forever()

    threads = [
        threading.Thread(target=loop, args=(agent,), daemon=True)
        for agent in agents
    ]
    for t in threads:
        t.start()
    while any(t.is_alive() for t in threads):
        await asyncio.sleep(0.1)
    return codes


class TestFleetExecution:
    def test_two_workers_match_single_host_bytes(self, tmp_path, golden):
        async def scenario():
            service = CampaignService(tmp_path / "coord", lease_ttl=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, golden["spec"])
                workers = [
                    _agent(port, tmp_path / "work", f"w{i}")
                    for i in (1, 2)
                ]
                codes = await _drain_workers(workers)
                assert set(codes.values()) == {0}

                status, payload = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert (status, payload["state"]) == (200, "done")
                assert payload["queue"]["pending"] == 0
                assert payload["queue"]["leased"] == 0
                assert all(
                    s["state"] == "committed" for s in payload["shards"]
                )

                status, result = await wire.request(
                    port, "GET", f"/campaigns/{cid}/result"
                )
                assert status == 200
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]
        telemetry = json.loads((directory / "telemetry.json").read_text())
        census = telemetry["pool"]["workers"]
        assert set(census) <= {"coordinator", "w1", "w2"}

    def test_reassigned_shard_resumes_from_journals(self, tmp_path, golden):
        """A worker dies mid-shard; after the TTL the shard is reassigned
        and the replacement resumes from the dead worker's journals
        (shared workdir) — completed wearers load, a torn journal
        replays its tail — and the artifacts still match the golden
        bytes."""
        spec = golden["spec"]
        workdir = tmp_path / "work"

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", shards=1, lease_ttl=0.8
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, spec)
                # "dead" worker: leases the (single) shard over the real
                # wire, runs two wearers, then vanishes — no heartbeat,
                # no commit.
                status, payload = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync("doomed", acquire=True),
                )
                assert status == 200 and payload["lease"]
                lease = payload["lease"]
                ran = []
                for wearer in lease["wearers"][:2]:
                    ran.append(await asyncio.to_thread(
                        run_wearer_task,
                        {
                            "campaign": lease["campaign"],
                            "preset": lease["preset"],
                            "wearer": wearer,
                            "run_dir": str(wearer_run_dir(
                                workdir / cid, lease["shard"],
                                wearer["wearer_id"],
                            )),
                            "cache_dir": None,
                            "batch_mode": "auto",
                        },
                    ))
                assert [r["state"] for r in ran] == ["ran", "ran"]

                # Tear the second wearer's run mid-write: drop its
                # summary and truncate the journal, as a SIGKILL would.
                torn_dir = wearer_run_dir(
                    workdir / cid, lease["shard"], ran[1]["wearer_id"]
                )
                (torn_dir / SUMMARY_FILENAME).unlink()
                journal = torn_dir / JOURNAL_FILENAME
                lines = journal.read_text().splitlines(keepends=True)
                assert len(lines) > 2
                journal.write_text("".join(lines[: len(lines) // 2]))

                await asyncio.sleep(1.0)  # let the lease TTL lapse

                rescuer = _agent(port, workdir, "rescuer")
                codes = await _drain_workers([rescuer])
                assert codes == {"rescuer": 0}
                # one wearer loaded from its summary, one replayed from
                # the torn journal, two ran fresh
                assert rescuer.wearers_run == len(spec.wearers)
                assert rescuer.wearers_resumed >= 2

                status, payload = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert payload["state"] == "done"
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]


class TestFleetHotPath:
    """PR 9 end-to-end: warm cross-campaign cache and work stealing,
    both under the byte-identity contract."""

    def test_warm_campaign_simulates_nothing(self, tmp_path, golden):
        """Two campaigns over the same wearer population (different
        names) against one coordinator: the second is served entirely
        from the wearer cache — its worker writes zero run journals —
        and still produces byte-identical artifacts."""
        warm_spec = _spec(name="fleet-warm")
        warm_golden = tmp_path / "warm-golden"
        run_campaign(warm_spec, warm_golden, jobs=1)

        async def scenario():
            service = CampaignService(tmp_path / "coord", lease_ttl=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cold_id = await wire.submit_fleet(port, golden["spec"])
                cold = _agent(port, tmp_path / "work-cold", "w-cold")
                codes = await _drain_workers([cold])
                assert codes == {"w-cold": 0}

                warm_id = await wire.submit_fleet(port, warm_spec)
                warm = _agent(port, tmp_path / "work-warm", "w-warm")
                codes = await _drain_workers([warm])
                assert codes == {"w-warm": 0}
                assert warm.wearers_run == len(warm_spec.wearers)
                return cold_id, warm_id
            finally:
                await service.stop()

        cold_id, warm_id = asyncio.run(scenario())
        # the warm worker never simulated: no run journal anywhere in
        # its workdir (cache hits write summary.json only)
        warm_journals = list(
            (tmp_path / "work-warm").rglob(JOURNAL_FILENAME)
        )
        assert warm_journals == []
        for cid, want_dir in (
            (cold_id, None), (warm_id, warm_golden),
        ):
            directory = tmp_path / "coord" / cid
            if want_dir is None:
                want = golden["aggregate"], golden["atlas"]
            else:
                want = (
                    (want_dir / "aggregate.json").read_bytes(),
                    (want_dir / "atlas.json").read_bytes(),
                )
            assert (directory / "aggregate.json").read_bytes() == want[0]
            assert (directory / "atlas.json").read_bytes() == want[1]

    def test_stealing_rescues_a_straggler_shard(self, tmp_path, golden):
        """One shard, a throttled holder, a fast idle worker: the idle
        worker splits the shard, steals tail wearers, and the merged
        result is byte-identical to the single-host golden."""
        spec = golden["spec"]

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", shards=1, lease_ttl=30.0
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, spec)
                slow = _agent(
                    port, tmp_path / "work-slow", "slow", throttle_s=0.6
                )
                fast = _agent(port, tmp_path / "work-fast", "fast")
                codes = {}

                def loop(agent):
                    codes[agent.name] = agent.run_forever()

                slow_thread = threading.Thread(
                    target=loop, args=(slow,), daemon=True
                )
                slow_thread.start()
                # the slow worker must own the shard before the fast one
                # arrives, or there is nothing to steal
                while True:
                    status, payload = await wire.request(
                        port, "GET", f"/campaigns/{cid}/status"
                    )
                    if not payload["queue"]["pending"]:
                        break
                    await asyncio.sleep(0.05)
                fast_thread = threading.Thread(
                    target=loop, args=(fast,), daemon=True
                )
                fast_thread.start()
                while slow_thread.is_alive() or fast_thread.is_alive():
                    await asyncio.sleep(0.1)
                assert set(codes.values()) == {0}

                status, payload = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert payload["state"] == "done"
                # the steal actually happened: the fast worker simulated
                # at least one wearer of the slow worker's only shard
                assert fast.wearers_run >= 1
                assert slow.wearers_run + fast.wearers_run >= len(
                    spec.wearers
                )
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]


class TestCommitProtocol:
    """Wire-level commit semantics with fabricated summaries (fast)."""

    def _fake_summaries(self, lease, tag="a"):
        return {
            w["wearer_id"]: {
                "status": "infeasible",
                "best": None,
                "oracle_stats": {},
                "tag": tag,
            }
            for w in lease["wearers"]
        }

    def test_double_commit_is_idempotent_and_divergence_409s(
        self, tmp_path
    ):
        spec = _spec(size=2, name="commitproto")

        async def scenario():
            service = CampaignService(tmp_path / "coord", shards=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, spec)
                status, payload = await wire.request(
                    port, "POST", "/fabric/sync", wire.sync(acquire=True)
                )
                lease = payload["lease"]
                summaries = self._fake_summaries(lease)

                async def commit(summaries, crc=None):
                    status, sync = await wire.request(
                        port, "POST", "/fabric/sync",
                        wire.sync(commits=[
                            wire.commit(cid, lease, summaries, crc)
                        ]),
                    )
                    assert status == 200
                    return sync["commits"][0]

                first = await commit(summaries)
                assert (first["status"], first["duplicate"]) == (200, False)
                assert first["campaign_state"] == "done"

                # identical double-commit: accepted as a no-op
                second = await commit(summaries)
                assert (second["status"], second["duplicate"]) == (200, True)

                # divergent bytes for the same shard: integrity error
                refused = await commit(self._fake_summaries(lease, tag="b"))
                assert refused["status"] == 409
                assert "integrity" in refused["error"]

                # a corrupt upload (CRC does not match content) is 400
                refused = await commit(summaries, crc="deadbeef")
                assert refused["status"] == 400
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_lease_surface_errors(self, tmp_path):
        spec = _spec(size=2, name="leaseerr")

        async def scenario():
            service = CampaignService(tmp_path / "coord", shards=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, spec)
                local = _spec(size=2, name="localonly")
                status, payload = await wire.request(
                    port, "POST", "/campaigns", local.to_dict()
                )
                assert status in (200, 202)
                release = {"token": "nosuchtoken"}
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(
                        # heartbeat and release of a never-granted token
                        heartbeats=[{"campaign": cid, "token": "t"}],
                        releases=[
                            {**release, "campaign": cid},
                            # an unknown campaign
                            {**release, "campaign": "feedfacefeedface"},
                            # a local-execution campaign (no queue)
                            {**release, "campaign": local.fingerprint()},
                            # a malformed campaign id
                            {**release, "campaign": "../etc"},
                        ],
                        # a commit naming no shard
                        commits=[{"campaign": cid, "summaries": {}}],
                    ),
                )
                assert status == 200
                assert sync["heartbeats"][0]["status"] == 410
                assert [r["status"] for r in sync["releases"]] == [
                    410, 404, 409, 400,
                ]
                assert sync["commits"][0]["status"] == 400
                await service.join()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_coordinator_restart_recovers_queue_state(self, tmp_path):
        """Kill the coordinator between commits: the reopened service
        replays ``queue.jsonl``, keeps committed shards committed, and
        finalizes when the remaining shards land."""
        spec = _spec(size=4, name="recover")
        root = tmp_path / "coord"

        async def first_life():
            service = CampaignService(root, shards=2)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, spec)
                status, payload = await wire.request(
                    port, "POST", "/fabric/sync", wire.sync(acquire=True)
                )
                lease = payload["lease"]
                summaries = self._fake_summaries(lease)
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(commits=[wire.commit(cid, lease, summaries)]),
                )
                assert (status, sync["commits"][0]["status"]) == (200, 200)
                return cid
            finally:
                await service.stop()  # no drain: leases stay in the log

        async def second_life(cid):
            service = CampaignService(root, shards=2)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, payload = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert status == 200
                assert payload["state"] == "fleet"
                assert payload["queue"]["committed"] >= 1
                # a fresh worker finishes the remaining shards, each
                # commit riding the sync that asks for the next lease
                commits = []
                while True:
                    status, grant = await wire.request(
                        port, "POST", "/fabric/sync",
                        wire.sync("w2", acquire=True, commits=commits),
                    )
                    assert status == 200
                    assert all(c["status"] == 200 for c in grant["commits"])
                    lease = grant["lease"]
                    if not lease:
                        break
                    commits = [wire.commit(
                        cid, lease, self._fake_summaries(lease)
                    )]
                status, payload = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert payload["state"] == "done"
            finally:
                await service.stop()

        cid = asyncio.run(first_life())
        asyncio.run(second_life(cid))
        assert (root / cid / "aggregate.json").exists()


class TestHardenedWorker:
    """PR 10 worker-side hardening: endpoint failover lists,
    decorrelated-jitter backoff, and signed fleet traffic."""

    def test_client_parses_endpoint_list_and_rotates(self):
        from repro.campaign.worker import CoordinatorClient

        client = CoordinatorClient(
            "http://127.0.0.1:1001, http://standby.example:1002"
        )
        assert client.endpoints == [
            ("127.0.0.1", 1001), ("standby.example", 1002),
        ]
        assert (client.host, client.port) == ("127.0.0.1", 1001)
        client.rotate()
        assert (client.host, client.port) == ("standby.example", 1002)
        client.rotate()
        assert (client.host, client.port) == ("127.0.0.1", 1001)
        assert client.rotations == 2

        solo = CoordinatorClient("http://127.0.0.1:1001")
        solo.rotate()  # single endpoint: rotation is a no-op
        assert (solo.rotations, solo.port) == (0, 1001)

        with pytest.raises(ValueError):
            CoordinatorClient("https://127.0.0.1:1001")
        with pytest.raises(ValueError):
            CoordinatorClient(",")

    def test_backoff_jitter_is_bounded_and_per_worker(self, tmp_path):
        def agent(name):
            return WorkerAgent(
                "http://127.0.0.1:1001", tmp_path, name=name,
                backoff_base=0.5, backoff_cap=30.0,
            )

        # decorrelated jitter: every delay lives in [base, min(cap,
        # prev*3)] and the walk never crosses the cap
        walker = agent("alpha")
        delay, seen = walker.backoff_base, []
        for _ in range(50):
            prev = delay
            delay = walker._next_delay(prev)
            assert walker.backoff_base <= delay <= walker.backoff_cap
            assert delay <= max(prev * 3, walker.backoff_base)
            seen.append(delay)
        assert len(set(seen)) > 10  # it actually jitters

        # the stream is seeded by the worker name, never the global RNG:
        # same name → same stream (a restarted worker is reproducible,
        # and simulation determinism is untouched); different names →
        # decorrelated peers that cannot thundering-herd in lockstep
        first = agent("alpha")
        probe = [first._next_delay(1.0) for _ in range(8)]
        again = agent("alpha")
        assert [again._next_delay(1.0) for _ in range(8)] == probe
        other = agent("beta")
        assert [other._next_delay(1.0) for _ in range(8)] != probe

    def test_authed_fleet_matches_single_host_bytes(
        self, tmp_path, golden
    ):
        """The ISSUE's CI requirement at unit scale: a whole fleet run
        with HMAC auth enabled end-to-end produces artifacts
        byte-identical to the unauthenticated single-host run."""
        secret = "fleet-test-secret"

        async def scenario():
            service = CampaignService(
                tmp_path / "coord", lease_ttl=30.0, fabric_secret=secret
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(port, golden["spec"])
                workers = [
                    _agent(port, tmp_path / "work", f"w{i}",
                           fabric_secret=secret)
                    for i in (1, 2)
                ]
                codes = await _drain_workers(workers)
                assert set(codes.values()) == {0}
                status, payload = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert (status, payload["state"]) == (200, "done")
                return cid
            finally:
                await service.stop()

        cid = asyncio.run(scenario())
        directory = tmp_path / "coord" / cid
        assert (directory / "aggregate.json").read_bytes() == (
            golden["aggregate"]
        )
        assert (directory / "atlas.json").read_bytes() == golden["atlas"]
