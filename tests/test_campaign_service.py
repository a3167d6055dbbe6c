"""In-process tests for the campaign HTTP service.

The service binds an ephemeral loopback port (``port=0``) so the suite
never collides with a real deployment or a parallel test run, and every
campaign uses the smoke preset with pinned seeds so results — and the
aggregate fingerprints the assertions pin — are deterministic.

The HTTP client here is hand-rolled on asyncio streams: the tests speak
the same stdlib-only wire format the service implements, with no test
dependencies beyond pytest.
"""

import asyncio
import json

import pytest

from repro.campaign.runner import run_campaign
from repro.campaign.service import SERVICE_LOG_FILENAME, CampaignService
from repro.campaign.spec import make_population
from repro.campaign.wearer_cache import wearer_fingerprint
from repro.core.journal import write_campaign_manifest

from tests import fabric_wire as wire


async def _poll_until(port, campaign_id, states, attempts=600):
    for _ in range(attempts):
        status, payload = await wire.request(
            port, "GET", f"/campaigns/{campaign_id}"
        )
        assert status == 200
        if payload["state"] in states:
            return payload
        await asyncio.sleep(0.05)
    raise AssertionError(f"campaign never reached {states}: {payload}")


def _spec(size=6, base_seed=40, name="svc"):
    return make_population(
        size, preset="smoke", base_seed=base_seed, pdr_bounds=(90, 95),
        name=name,
    )


class TestServiceApi:
    def test_submit_poll_result_artifacts(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, health = await wire.request(port, "GET", "/healthz")
                assert (status, health["ok"]) == (200, True)

                spec = _spec()
                status, sub = await wire.request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert status == 202
                assert sub["id"] == spec.fingerprint()
                assert sub["state"] in ("queued", "running")

                final = await _poll_until(
                    port, sub["id"], ("done", "failed")
                )
                assert final["state"] == "done"
                assert final["wearers_done"] == final["wearers_total"] == 6

                status, result = await wire.request(
                    port, "GET", f"/campaigns/{sub['id']}/result"
                )
                assert status == 200
                assert result["kind"] == "campaign_aggregate"
                assert result["wearers"] == 6
                on_disk = json.loads(
                    (tmp_path / sub["id"] / "aggregate.json").read_text()
                )
                assert result == on_disk

                for name, kind in (
                    ("atlas.json", "campaign_atlas"),
                    ("telemetry.json", "campaign_telemetry"),
                    ("campaign.json", None),
                ):
                    status, artifact = await wire.request(
                        port, "GET",
                        f"/campaigns/{sub['id']}/artifacts/{name}",
                    )
                    assert status == 200
                    if kind:
                        assert artifact["kind"] == kind

                # resubmission is idempotent: same id, already done, 200
                status, again = await wire.request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert (status, again["id"], again["state"]) == (
                    200, sub["id"], "done"
                )

                status, listing = await wire.request(port, "GET", "/campaigns")
                assert status == 200
                assert [c["id"] for c in listing["campaigns"]] == [sub["id"]]
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())

    def test_spec_wrapped_under_spec_key_also_accepted(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=1, base_seed=77, name="wrapped")
                status, sub = await wire.request(
                    port, "POST", "/campaigns", {"spec": spec.to_dict()}
                )
                assert status == 202
                assert sub["id"] == spec.fingerprint()
                await _poll_until(port, sub["id"], ("done",))
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())

    def test_error_paths(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, err = await wire.request(port, "GET", "/campaigns/feed")
                assert status == 404 and "unknown campaign" in err["error"]

                status, err = await wire.request(port, "GET", "/nope")
                assert status == 404

                status, err = await wire.request(port, "DELETE", "/campaigns")
                assert status == 405

                status, err = await wire.request(port, "POST", "/healthz")
                assert status == 405

                # invalid JSON and invalid specs are 400, not crashes
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer.write(
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 9\r\nConnection: close\r\n\r\nnot-json!"
                )
                await writer.drain()
                raw = await reader.read()
                writer.close()
                await writer.wait_closed()
                assert b"400" in raw.split(b"\r\n", 1)[0]

                status, err = await wire.request(
                    port, "POST", "/campaigns", {"wearers": []}
                )
                assert status == 400 and "bad campaign spec" in err["error"]

                # a manifest without an aggregate (created behind the
                # service's back) reads as interrupted; result is 409
                spec = _spec(size=1, base_seed=9, name="limbo")
                cid = spec.fingerprint()
                limbo = tmp_path / cid
                limbo.mkdir()
                write_campaign_manifest(limbo, spec.to_dict(), cid, 1)
                status, st = await wire.request(port, "GET", f"/campaigns/{cid}")
                assert (status, st["state"]) == (200, "interrupted")
                status, err = await wire.request(
                    port, "GET", f"/campaigns/{cid}/result"
                )
                assert status == 409 and "no aggregate" in err["error"]
                status, err = await wire.request(
                    port, "GET", f"/campaigns/{cid}/artifacts/journal.jsonl"
                )
                assert status == 404  # journals are replay state, not artifacts
                assert "unknown artifact" in err["error"]
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())


class TestServiceRecovery:
    def test_restart_resumes_interrupted_campaign_byte_identical(
        self, tmp_path
    ):
        """The durability contract: a killed service, restarted over the
        same root, finishes every in-flight campaign through journal
        replay to byte-identical artifacts."""
        spec = _spec(size=3, base_seed=21, name="lazarus")
        cid = spec.fingerprint()
        golden_dir = tmp_path / "golden" / cid
        report = run_campaign(spec, golden_dir, jobs=1)
        golden = report.aggregate_path.read_bytes()
        golden_atlas = report.atlas_path.read_bytes()

        # Stage the "killed mid-campaign" root: copy the completed run,
        # then tear one wearer back to a truncated journal and drop the
        # fleet artifacts — exactly what SIGKILL mid-shard leaves behind.
        import shutil

        root = tmp_path / "root"
        victim_dir = root / cid
        shutil.copytree(golden_dir, victim_dir)
        (victim_dir / "aggregate.json").unlink()
        (victim_dir / "atlas.json").unlink()
        (victim_dir / "telemetry.json").unlink()
        journals = sorted(victim_dir.glob("shards/*/*/journal.jsonl"))
        assert journals
        lines = journals[0].read_text().splitlines()
        journals[0].write_text("\n".join(lines[:3]) + "\n" + lines[3][:20])
        (journals[0].parent / "summary.json").unlink()

        async def scenario():
            service = CampaignService(root, jobs=1)
            _, port = await service.start("127.0.0.1", 0)  # recover() runs
            try:
                final = await _poll_until(port, cid, ("done", "failed"))
                assert final["state"] == "done"
                status, result = await wire.request(
                    port, "GET", f"/campaigns/{cid}/result"
                )
                assert status == 200
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())
        assert (victim_dir / "aggregate.json").read_bytes() == golden
        assert (victim_dir / "atlas.json").read_bytes() == golden_atlas

    def test_recover_marks_unreadable_manifest_failed(self, tmp_path):
        bad = tmp_path / "feedfacecafe0000"
        bad.mkdir()
        (bad / "campaign.json").write_text("{ truncated garbage")

        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, payload = await wire.request(
                    port, "GET", "/campaigns/feedfacecafe0000"
                )
                assert status == 200
                assert payload["state"] == "failed"
                assert "unrecoverable" in payload["error"]
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())


def _cacheable_summary(tag="a"):
    return {
        "status": "infeasible",
        "best": None,
        "oracle_stats": {"simulations_run": 1, "cache_hits": 0},
        "tag": tag,
    }


class TestFabricEndpoints:
    """The worker plane: batched /fabric/sync (commits, releases,
    heartbeats, acquisition), the wearer cache it feeds, round-robin
    lease fairness, and keep-alive connections."""

    def test_wearer_cache_roundtrip_and_integrity(self, tmp_path):
        """Sync commits feed the coordinator's wearer cache; the same
        wearer under another campaign name gets the cached summary on
        its lease; corrupt or divergent commits never change it."""
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                first = _spec(size=1, base_seed=55, name="cache-a")
                fingerprint = wearer_fingerprint(
                    first.preset, first.wearers[0]
                )
                cid = await wire.submit_fleet(port, first)
                _, grant = await wire.request(
                    port, "POST", "/fabric/sync", wire.sync(acquire=True)
                )
                lease = grant["lease"]
                wearer_id = lease["wearers"][0]["wearer_id"]
                summary = _cacheable_summary()
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(commits=[
                        wire.commit(cid, lease, {wearer_id: summary})
                    ]),
                )
                assert (status, sync["commits"][0]["status"]) == (200, 200)
                assert service.wearer_cache.get(fingerprint)["tag"] == "a"

                second = _spec(size=1, base_seed=55, name="cache-b")
                cid2 = await wire.submit_fleet(port, second)
                _, grant = await wire.request(
                    port, "POST", "/fabric/sync", wire.sync(acquire=True)
                )
                lease = grant["lease"]
                assert grant["campaign"] == cid2
                assert lease["cached"][wearer_id]["tag"] == "a"

                # corrupted upload: the crc does not match the bytes
                other = {wearer_id: _cacheable_summary("b")}
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(commits=[
                        wire.commit(cid2, lease, other, crc="deadbeef")
                    ]),
                )
                assert (status, sync["commits"][0]["status"]) == (200, 400)

                # divergent bytes for a cached wearer: the commit stands
                # for its own campaign, the cache keeps the first bytes
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(commits=[wire.commit(cid2, lease, other)]),
                )
                assert (status, sync["commits"][0]["status"]) == (200, 200)
                assert service.wearer_cache.get(fingerprint)["tag"] == "a"
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_commits_then_releases_then_heartbeats(self, tmp_path):
        """One sync carries all three entry kinds; commits land first and
        releases next, so heartbeats for both tokens find them gone."""
        async def scenario():
            service = CampaignService(tmp_path, shards=2)
            _, port = await service.start("127.0.0.1", 0)
            try:
                cid = await wire.submit_fleet(
                    port, _spec(size=6, base_seed=56, name="order")
                )
                leases = []
                for worker in ("w1", "w2"):
                    _, grant = await wire.request(
                        port, "POST", "/fabric/sync",
                        wire.sync(worker, acquire=True),
                    )
                    leases.append(grant["lease"])
                assert sorted(lease["shard"] for lease in leases) == [0, 1]
                done, back = leases
                summaries = {
                    w["wearer_id"]: _cacheable_summary()
                    for w in done["wearers"]
                }
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(
                        commits=[wire.commit(cid, done, summaries)],
                        releases=[{"campaign": cid, "token": back["token"],
                                   "reason": "test"}],
                        heartbeats=[
                            {"campaign": cid, "token": lease["token"]}
                            for lease in leases
                        ],
                    ),
                )
                assert status == 200
                assert sync["commits"][0]["status"] == 200
                assert sync["commits"][0]["duplicate"] is False
                assert sync["releases"][0]["status"] == 200
                assert sync["releases"][0]["state"] == "pending"
                assert [h["status"] for h in sync["heartbeats"]] == [410, 410]
                assert sync["lease"] is None  # acquire was off

                # releasing twice: the token is gone
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    wire.sync(releases=[
                        {"campaign": cid, "token": back["token"]}
                    ]),
                )
                assert sync["releases"][0]["status"] == 410
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_deleted_worker_routes_refuse_and_mutate_nothing(
        self, tmp_path
    ):
        """Only /fabric/sync and /fabric/promote serve workers: the old
        per-campaign lease, commit and wearer-cache paths answer 4xx and
        leave every file under the root as it was."""
        async def scenario():
            service = CampaignService(tmp_path, shards=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=1, base_seed=57, name="gone")
                cid = await wire.submit_fleet(port, spec)
                _, grant = await wire.request(
                    port, "POST", "/fabric/sync", wire.sync(acquire=True)
                )
                lease = grant["lease"]
                summaries = {
                    w["wearer_id"]: _cacheable_summary()
                    for w in lease["wearers"]
                }
                body = {"worker": "w1", **wire.commit(cid, lease, summaries)}
                before = wire.snapshot(tmp_path)
                token = lease["token"]
                for method, path in (
                    ("POST", f"/campaigns/{cid}/leases"),
                    ("POST", f"/campaigns/{cid}/leases/{token}/heartbeat"),
                    ("POST", f"/campaigns/{cid}/leases/{token}/release"),
                    ("POST", f"/campaigns/{cid}/shards/0/complete"),
                    ("GET", "/cache/wearers/ab12"),
                    ("PUT", "/cache/wearers/ab12"),
                ):
                    status, _ = await wire.request(port, method, path, body)
                    assert 400 <= status < 500, (method, path, status)
                assert wire.snapshot(tmp_path) == before
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_batches_heartbeats_with_per_token_status(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=3, base_seed=51, name="sync")
                cid = await wire.submit_fleet(port, spec)

                # one round-trip: no heartbeats yet, lease acquired
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    {"worker": "w1", "heartbeats": []},
                )
                assert status == 200
                assert sync["campaign"] == cid
                lease = sync["lease"]
                assert lease is not None and lease["token"]

                # batched: a live token and a bogus one in one request —
                # each entry carries its own status, one dead lease must
                # not poison the rest of the tick
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync",
                    {
                        "worker": "w1",
                        "acquire": False,
                        "heartbeats": [
                            {"campaign": cid, "token": lease["token"]},
                            {"campaign": cid, "token": "bogus"},
                            {"campaign": "feedfacecafe0000", "token": "x"},
                        ],
                    },
                )
                assert status == 200
                assert sync["lease"] is None
                by_token = {h["token"]: h for h in sync["heartbeats"]}
                assert by_token[lease["token"]]["status"] == 200
                assert by_token[lease["token"]]["shard"] == lease["shard"]
                assert by_token["bogus"]["status"] == 410
                assert by_token["x"]["status"] == 410
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_grants_round_robin_across_campaigns(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                ids = set()
                for name in ("rr-one", "rr-two"):
                    spec = _spec(size=2, base_seed=52, name=name)
                    ids.add(await wire.submit_fleet(port, spec))
                granted = []
                for _ in range(2):
                    status, sync = await wire.request(
                        port, "POST", "/fabric/sync", {"worker": "w1"}
                    )
                    assert status == 200
                    granted.append(sync["campaign"])
                # fairness: consecutive grants come from *different*
                # campaigns — the first submission cannot starve the
                # second
                assert set(granted) == ids
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_lease_carries_cached_prefetch(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=1, base_seed=53, name="prefetch")
                wearer = spec.wearers[0]
                summary = _cacheable_summary()
                service.wearer_cache.put(
                    wearer_fingerprint(spec.preset, wearer), summary
                )
                await wire.submit_fleet(port, spec)
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync", {"worker": "w1"}
                )
                assert status == 200
                cached = sync["lease"]["cached"]
                assert set(cached) == {wearer.wearer_id}
                assert cached[wearer.wearer_id]["tag"] == "a"
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_keep_alive_serves_many_requests_per_connection(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )

                async def exchange(extra=""):
                    writer.write(
                        (
                            f"GET /healthz HTTP/1.1\r\nHost: t\r\n"
                            f"{extra}\r\n"
                        ).encode()
                    )
                    await writer.drain()
                    head = await reader.readuntil(b"\r\n\r\n")
                    length = int(
                        [
                            line.split(b":")[1]
                            for line in head.split(b"\r\n")
                            if line.lower().startswith(b"content-length")
                        ][0]
                    )
                    body = await reader.readexactly(length)
                    return head, json.loads(body)

                # three requests ride one TCP connection
                for _ in range(3):
                    head, payload = await exchange()
                    assert payload["ok"] is True
                    assert b"Connection: keep-alive" in head

                # Connection: close is honoured — response says close
                # and the server hangs up
                head, payload = await exchange("Connection: close\r\n")
                assert b"Connection: close" in head
                assert await reader.read() == b""
                writer.close()
                await writer.wait_closed()
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_failed_state_survives_restart_via_service_journal(
        self, tmp_path
    ):
        """Satellite (a): campaign outcomes are journaled.  A campaign
        that failed stays failed across a coordinator restart — even if
        whatever broke its manifest has since been repaired — because a
        restart is not a retry; only explicit resubmission is."""
        cid = "feedfacecafe0000"
        bad = tmp_path / cid
        bad.mkdir()
        (bad / "campaign.json").write_text("{ truncated garbage")

        async def first_life():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                _, payload = await wire.request(port, "GET", f"/campaigns/{cid}")
                assert payload["state"] == "failed"
                return payload["error"]
            finally:
                await service.stop()

        error = asyncio.run(first_life())
        assert (tmp_path / SERVICE_LOG_FILENAME).exists()

        # repair the manifest behind the service's back: without the
        # journal the restart would happily relaunch this campaign
        spec = _spec(size=1, base_seed=54, name="repaired")
        write_campaign_manifest(bad, spec.to_dict(), cid, 1)

        async def second_life():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                _, payload = await wire.request(port, "GET", f"/campaigns/{cid}")
                assert payload["state"] == "failed"
                assert payload["error"] == error
            finally:
                await service.stop()
                await service.join()

        asyncio.run(second_life())


class TestRequestHardening:
    """The `_read_request` guard rails: slow clients and oversized bodies
    must get an error status and the socket back, not pin a handler."""

    async def _raw_exchange(self, port, blob, settle=0.0):
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        try:
            writer.write(blob)
            await writer.drain()
            if settle:
                await asyncio.sleep(settle)
            raw = await reader.read()
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
        return int(raw.split()[1]) if raw else None

    def test_silent_client_gets_408(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, read_timeout=0.3)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # half a request line, then silence past the deadline
                status = await self._raw_exchange(
                    port, b"GET /healthz HTT", settle=0.0
                )
                assert status == 408
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_stalled_body_gets_408(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, read_timeout=0.3)
            _, port = await service.start("127.0.0.1", 0)
            try:
                head = (
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: 100\r\n\r\n"
                )
                status = await self._raw_exchange(
                    port, head + b"only-part-of-the-body"
                )
                assert status == 408
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_oversized_body_gets_413_before_buffering(self, tmp_path):
        from repro.campaign.service import MAX_BODY_BYTES

        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                head = (
                    b"POST /campaigns HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: %d\r\n\r\n"
                    % (MAX_BODY_BYTES + 1)
                )
                # the declared size alone disqualifies the request: the
                # 413 must arrive without a single body byte being sent
                status = await self._raw_exchange(port, head)
                assert status == 413
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_garbage_header_line_gets_400(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # one header line past the StreamReader's 64 KiB limit,
                # but small enough to land in the socket buffers before
                # the server answers (no write/reset race)
                blob = (
                    b"GET /healthz HTTP/1.1\r\n"
                    + b"X-Junk: " + b"a" * (80 * 1024) + b"\r\n\r\n"
                )
                status = await self._raw_exchange(port, blob)
                assert status == 400
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_status_alias_matches_bare_campaign_route(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, jobs=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                spec = _spec(size=2, base_seed=77, name="alias")
                status, sub = await wire.request(
                    port, "POST", "/campaigns", spec.to_dict()
                )
                assert status in (200, 202)
                cid = sub["id"]
                await _poll_until(port, cid, {"done"})
                _, bare = await wire.request(port, "GET", f"/campaigns/{cid}")
                _, alias = await wire.request(
                    port, "GET", f"/campaigns/{cid}/status"
                )
                assert alias == bare
            finally:
                await service.stop()
                await service.join()

        asyncio.run(scenario())


class TestBackpressure:
    """PR 10 sync backpressure: global in-flight admission and the
    per-connection sync rate floor, both answered with 429 +
    Retry-After so workers can back off instead of piling on."""

    def test_saturated_coordinator_sheds_load_with_429(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, max_inflight=1)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # connection 1 claims the only slot by sending a request
                # line and then stalling mid-headers
                reader1, writer1 = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                writer1.write(b"POST /fabric/sync HTTP/1.1\r\n")
                await writer1.drain()
                await asyncio.sleep(0.2)

                status, headers, err = await wire.exchange(
                    port, "GET", "/campaigns"
                )
                assert status == 429
                assert float(headers["retry-after"]) > 0
                assert err["retry_after"] == float(headers["retry-after"])

                # health stays observable even under saturation — probes
                # and promotion are exempt from admission
                status, _, health = await wire.exchange(
                    port, "GET", "/healthz"
                )
                assert (status, health["ok"]) == (200, True)

                # slot released when connection 1 goes away → accepted
                writer1.close()
                try:
                    await writer1.wait_closed()
                except (ConnectionError, OSError):
                    pass
                await asyncio.sleep(0.2)
                status, _, _ = await wire.exchange(
                    port, "GET", "/campaigns"
                )
                assert status == 200
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_sync_spacing_is_per_connection(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, min_sync_interval=30.0)
            _, port = await service.start("127.0.0.1", 0)
            try:
                # one keep-alive connection syncing twice back-to-back:
                # the second tick violates the spacing floor
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", port
                )
                body = json.dumps(
                    {"worker": "w1", "heartbeats": []}
                ).encode()
                head = (
                    "POST /fabric/sync HTTP/1.1\r\nHost: t\r\n"
                    "Content-Type: application/json\r\n"
                    f"Content-Length: {len(body)}\r\n\r\n"
                ).encode()

                async def one(expect):
                    writer.write(head + body)
                    await writer.drain()
                    status_line = await reader.readline()
                    assert b" %d " % expect in status_line
                    length = None
                    while True:
                        line = await reader.readline()
                        if line in (b"\r\n", b""):
                            break
                        name, _, value = line.decode().partition(":")
                        if name.strip().lower() == "content-length":
                            length = int(value)
                    await reader.readexactly(length)

                try:
                    await one(200)
                    await one(429)
                finally:
                    writer.close()
                    try:
                        await writer.wait_closed()
                    except (ConnectionError, OSError):
                        pass

                # ...but a *fresh* connection is not punished for the
                # old one's chattiness
                status, _, sync = await wire.exchange(
                    port, "POST", "/fabric/sync",
                    {"worker": "w2", "heartbeats": []},
                )
                assert status == 200
            finally:
                await service.stop()

        asyncio.run(scenario())
