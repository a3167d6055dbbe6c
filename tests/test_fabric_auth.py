"""Fabric authentication: unit tests for the HMAC scheme plus
wire-level tests proving the service rejects unauthenticated requests
*before any state mutation*.

The wire tests speak real HTTP against an ephemeral-port service, the
same way a worker (or an attacker) would.
"""

import asyncio
import json

import pytest

from repro.campaign.auth import (
    NONCE_HEADER,
    SIGNATURE_HEADER,
    TIMESTAMP_HEADER,
    AuthError,
    FabricAuth,
    resolve_secret,
)
from repro.campaign.service import CampaignService
from repro.campaign.spec import make_population
from repro.campaign.wearer_cache import WEARER_CACHE_DIRNAME

from tests import fabric_wire as wire

SECRET = "test-fabric-secret"


def _fixed_auth(secret=SECRET, at=1000.0, window=60.0):
    return FabricAuth(secret, window_s=window, clock=lambda: at)


class TestFabricAuthUnit:
    def test_sign_verify_roundtrip(self):
        signer = _fixed_auth()
        verifier = _fixed_auth()
        headers = signer.sign("POST", "/fabric/sync", b'{"a":1}')
        verifier.verify("POST", "/fabric/sync", b'{"a":1}', headers)

    def test_missing_headers_is_401(self):
        verifier = _fixed_auth()
        with pytest.raises(AuthError) as err:
            verifier.verify("POST", "/fabric/sync", b"", {})
        assert err.value.status == 401

    def test_wrong_secret_is_401(self):
        headers = _fixed_auth("other-secret").sign("POST", "/p", b"x")
        with pytest.raises(AuthError) as err:
            _fixed_auth().verify("POST", "/p", b"x", headers)
        assert err.value.status == 401

    def test_tampered_body_is_401(self):
        signer = _fixed_auth()
        headers = signer.sign("POST", "/p", b"honest payload")
        with pytest.raises(AuthError) as err:
            _fixed_auth().verify("POST", "/p", b"evil payload", headers)
        assert err.value.status == 401

    def test_spliced_path_is_401(self):
        # a signature captured for one endpoint must not open another
        signer = _fixed_auth()
        headers = signer.sign("POST", "/fabric/sync", b"{}")
        with pytest.raises(AuthError) as err:
            _fixed_auth().verify(
                "POST", "/fabric/promote", b"{}", headers
            )
        assert err.value.status == 401

    def test_stale_timestamp_is_403(self):
        # valid secret, but signed 2 windows ago → authenticated-but-
        # stale, the 403 side of the distinction
        headers = _fixed_auth(at=1000.0).sign("POST", "/p", b"")
        verifier = _fixed_auth(at=1130.0, window=60.0)
        with pytest.raises(AuthError) as err:
            verifier.verify("POST", "/p", b"", headers)
        assert err.value.status == 403

    def test_replayed_nonce_is_403(self):
        signer = _fixed_auth()
        verifier = _fixed_auth()
        headers = signer.sign("POST", "/p", b"")
        verifier.verify("POST", "/p", b"", headers)
        with pytest.raises(AuthError) as err:
            verifier.verify("POST", "/p", b"", headers)
        assert err.value.status == 403

    def test_nonce_expires_with_window(self):
        # the same nonce is acceptable again once the window has passed
        # (the signature itself is then stale, so re-acceptance needs a
        # fresh timestamp — simulate by re-signing with the same nonce)
        now = {"t": 1000.0}
        auth = FabricAuth(SECRET, window_s=10.0, clock=lambda: now["t"])
        headers = auth.sign("POST", "/p", b"")
        auth.verify("POST", "/p", b"", headers)
        now["t"] += 30.0
        fresh = dict(headers)
        fresh[TIMESTAMP_HEADER] = f"{now['t']:.3f}"
        fresh[SIGNATURE_HEADER] = auth.signature(
            "POST", "/p", b"", fresh[TIMESTAMP_HEADER],
            fresh[NONCE_HEADER],
        )
        auth.verify("POST", "/p", b"", fresh)

    def test_resolve_secret_precedence(self, monkeypatch):
        monkeypatch.delenv("REPRO_FABRIC_SECRET", raising=False)
        assert resolve_secret(None) is None
        assert resolve_secret("flag") == "flag"
        monkeypatch.setenv("REPRO_FABRIC_SECRET", "env")
        assert resolve_secret(None) == "env"
        assert resolve_secret("flag") == "flag"  # the flag wins


def _signed(auth, method, path, payload=None):
    body = b"" if payload is None else json.dumps(payload).encode()
    return auth.sign(method, path, body)


class TestWireAuth:
    """Wire-level: with a secret configured, fabric requests without a
    valid fresh signature are rejected with zero state mutation."""

    async def _leased(self, port, auth=None):
        """Submit a one-wearer fleet campaign and lease its shard; returns
        the sync body that commits it, unsigned."""
        spec = make_population(
            1, preset="smoke", base_seed=70, pdr_bounds=(90,), name="auth",
        )
        cid = await wire.submit_fleet(port, spec)
        body = wire.sync(acquire=True)
        headers = None if auth is None else _signed(
            auth, "POST", "/fabric/sync", body
        )
        status, grant = await wire.request(
            port, "POST", "/fabric/sync", body, headers=headers
        )
        assert status == 200
        lease = grant["lease"]
        summaries = {
            w["wearer_id"]: {
                "status": "infeasible",
                "best": None,
                "oracle_stats": {"simulations_run": 1, "cache_hits": 0},
            }
            for w in lease["wearers"]
        }
        return wire.sync(commits=[wire.commit(cid, lease, summaries)])

    def test_unauthenticated_commit_is_401_and_mutates_nothing(
        self, tmp_path
    ):
        async def scenario():
            service = CampaignService(tmp_path, fabric_secret=SECRET)
            _, port = await service.start("127.0.0.1", 0)
            try:
                body = await self._leased(port, FabricAuth(SECRET))
                before = wire.snapshot(tmp_path)
                status, err = await wire.request(
                    port, "POST", "/fabric/sync", body
                )
                assert status == 401
                assert "auth" in err["error"]
                # zero state mutation: no queue record, no summary, no
                # wearer-cache entry
                assert wire.snapshot(tmp_path) == before
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_bad_signature_is_401_good_signature_accepted(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, fabric_secret=SECRET)
            _, port = await service.start("127.0.0.1", 0)
            try:
                right = FabricAuth(SECRET)
                body = await self._leased(port, right)
                before = wire.snapshot(tmp_path)
                wrong = FabricAuth("some-other-secret")
                status, _ = await wire.request(
                    port, "POST", "/fabric/sync", body,
                    headers=_signed(wrong, "POST", "/fabric/sync", body),
                )
                assert status == 401
                assert wire.snapshot(tmp_path) == before

                status, sync = await wire.request(
                    port, "POST", "/fabric/sync", body,
                    headers=_signed(right, "POST", "/fabric/sync", body),
                )
                assert (status, sync["commits"][0]["status"]) == (200, 200)
                assert list((tmp_path / WEARER_CACHE_DIRNAME).glob(
                    "*.json"
                ))
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_replayed_request_is_403(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path, fabric_secret=SECRET)
            _, port = await service.start("127.0.0.1", 0)
            try:
                auth = FabricAuth(SECRET)
                body = await self._leased(port, auth)
                headers = _signed(auth, "POST", "/fabric/sync", body)
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync", body, headers=headers
                )
                assert (status, sync["commits"][0]["status"]) == (200, 200)
                before = wire.snapshot(tmp_path)
                # byte-identical resend: same nonce inside the window
                status, err = await wire.request(
                    port, "POST", "/fabric/sync", body, headers=headers
                )
                assert status == 403
                assert "replay" in err["error"]
                assert wire.snapshot(tmp_path) == before
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_stale_timestamp_is_403_on_the_wire(self, tmp_path):
        async def scenario():
            service = CampaignService(
                tmp_path, fabric_secret=SECRET, auth_window=1.0
            )
            _, port = await service.start("127.0.0.1", 0)
            try:
                import time as _time

                skewed = FabricAuth(
                    SECRET, clock=lambda: _time.time() - 300.0
                )
                body = {"worker": "w", "heartbeats": []}
                status, err = await wire.request(
                    port, "POST", "/fabric/sync", body,
                    headers=_signed(skewed, "POST", "/fabric/sync", body),
                )
                assert status == 403
                assert "window" in err["error"]
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_operator_plane_stays_open(self, tmp_path):
        # submission/status/result are deliberately unprotected (the
        # threat model protects worker-plane mutations; operators keep
        # curl) — and /healthz reports that auth is on
        async def scenario():
            service = CampaignService(tmp_path, fabric_secret=SECRET)
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, health = await wire.request(port, "GET", "/healthz")
                assert (status, health["auth"]) == (200, True)
                status, listing = await wire.request(
                    port, "GET", "/campaigns"
                )
                assert status == 200
            finally:
                await service.stop()

        asyncio.run(scenario())

    def test_legacy_mode_accepts_unsigned(self, tmp_path):
        async def scenario():
            service = CampaignService(tmp_path)  # no secret
            _, port = await service.start("127.0.0.1", 0)
            try:
                status, health = await wire.request(port, "GET", "/healthz")
                assert (status, health["auth"]) == (200, False)
                body = await self._leased(port)
                status, sync = await wire.request(
                    port, "POST", "/fabric/sync", body
                )
                assert (status, sync["commits"][0]["status"]) == (200, 200)
            finally:
                await service.stop()

        asyncio.run(scenario())
