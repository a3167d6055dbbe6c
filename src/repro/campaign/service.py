"""Stdlib-only async HTTP API over the campaign runtime.

A tiny, dependency-free HTTP/1.1 server hand-rolled on
:func:`asyncio.start_server` (JSON in/out over keep-alive connections)
that turns :func:`repro.campaign.runner.run_campaign` into a service::

    GET  /healthz                       liveness probe
    POST /campaigns                     submit a CampaignSpec (JSON body);
                                        202 {"id", "state"} — idempotent:
                                        resubmitting a known spec returns
                                        the existing campaign.  Body may
                                        carry {"execution": "fleet"} to
                                        queue the campaign for pulling
                                        workers instead of running it on
                                        the service host
    GET  /campaigns                     list known campaigns
    GET  /campaigns/<id>                status + progress (wearers done /
                                        total, read from the filesystem —
                                        the journals are the truth)
    GET  /campaigns/<id>/status         same, spelled out (operator alias)
    GET  /campaigns/<id>/result         the aggregate report (409 until done)
    GET  /campaigns/<id>/artifacts/<n>  raw artifact file (aggregate.json,
                                        atlas.json, telemetry.json,
                                        campaign.json)

Fleet-executed campaigns are served to pulling workers over the
worker plane (:mod:`repro.campaign.queue`, DESIGN.md §12–§14), which is
one RPC plus an operator switch::

    POST /fabric/sync     one round-trip for a whole worker tick; the
                          body may carry, each entry answered with its
                          own status (200, or 400/404/409/410):
                            commits    [{campaign, shard, token, crc,
                                         summaries}] — CRC-checked,
                                         idempotent; the last commit of
                                         a campaign aggregates it
                            releases   [{campaign, token, reason}]
                            heartbeats [{campaign, token}] — renewals
                          processed in that order, then (unless
                          "acquire": false) one new lease granted
                          round-robin across active fleet campaigns,
                          with cached wearer summaries prefetched onto
                          the lease payload
    POST /fabric/promote  turn a standby into the primary

Connections are **keep-alive** by default (HTTP/1.1 semantics: one
request after another on the same socket until the client sends
``Connection: close`` or goes quiet), so a worker's entire
pull→heartbeat→commit loop rides one TCP connection.

Campaign ids are spec fingerprints, so submission is naturally
idempotent and the id is stable across service restarts.

Durability is the whole point: the service holds **no** authoritative
state.  Every campaign lives in ``<root>/<id>/`` as manifests + per-wearer
journals + artifacts; on startup :meth:`CampaignService.recover` scans the
root and re-runs every campaign that has a manifest but no aggregate —
completed wearers load their summaries, in-flight wearers replay their
journals (PR 5), so a SIGKILLed service finishes every interrupted
campaign with byte-identical artifacts.  Fleet campaigns recover through
their ``queue.jsonl`` lease/commit log instead: committed shards stay
committed (the summaries are on disk), in-flight leases are restored
with their original expiry and reassigned once the TTL lapses, and a
campaign killed between its last commit and aggregation is finalized on
the spot.

Campaign execution is CPU-bound and runs on a worker thread
(``asyncio.to_thread``); inside that thread the fault-tolerant
:class:`~repro.core.parallel.WorkerPool` fans wearers out across
processes.  The event loop itself only parses requests and reads files;
queue mutations are synchronous on the loop, which is what makes the
lease state machine race-free without locks.

The hardening layer (PR 10, DESIGN.md §14) adds three orthogonal
defences without changing any artifact byte:

* **Authenticated fabric RPCs** — with a shared secret configured
  (``--fabric-secret`` / ``REPRO_FABRIC_SECRET``), every fabric-plane
  request (``/fabric/sync`` and ``/fabric/promote``) must carry an HMAC
  request signature (:mod:`repro.campaign.auth`); missing/forged → 401,
  stale/replayed → 403, always before any state mutation.  Without a
  secret the service runs in legacy mode and says so loudly at startup.
* **Standby/handoff** — a second coordinator started with
  ``--standby-of <primary-url>`` tails the shared root's journals
  read-only and serves status; on ``POST /fabric/promote`` (or after
  ``ping_misses`` missed health probes of the primary) it claims the
  next **fencing epoch** in ``fencing.jsonl``, replays the journals,
  and takes over.  Every mutating request on the deposed primary first
  checks the fencing log and fails 410 once superseded, so a
  resurrected primary cannot corrupt the queue behind the fleet's back.
* **Sync backpressure** — a global in-flight admission cap (429 +
  ``Retry-After`` when saturated, measured right after the request
  line) and an optional per-connection minimum ``/fabric/sync``
  spacing, surfaced as ``fabric.backpressure`` metrics/events.
"""

from __future__ import annotations

import asyncio
import json
import os
import pathlib
import time
from typing import Dict, List, Optional, Tuple

from repro.campaign.aggregate import (
    AGGREGATE_FILENAME,
    ATLAS_FILENAME,
    TELEMETRY_FILENAME,
)
from repro.campaign.auth import (
    DEFAULT_AUTH_WINDOW,
    AuthError,
    FabricAuth,
    resolve_secret,
)
from repro.campaign.queue import (
    DEFAULT_LEASE_TTL,
    CampaignQueue,
    QueueError,
)
from repro.campaign.spec import CampaignSpec
from repro.campaign.wearer_cache import (
    WEARER_CACHE_DIRNAME,
    WearerCacheDiverged,
    WearerResultCache,
    wearer_fingerprint,
)
from repro.core.journal import (
    CAMPAIGN_MANIFEST_FILENAME,
    QUEUE_LOG_FILENAME,
    SUMMARY_FILENAME,
    EventLog,
    JournalError,
    load_campaign_manifest,
)

#: Durable record of campaign state transitions (``<root>/service.jsonl``):
#: replayed at startup so a restarted coordinator also remembers *failed*
#: campaigns (their error included) instead of silently re-running them.
SERVICE_LOG_FILENAME = "service.jsonl"

#: Durable fencing-epoch log (``<root>/fencing.jsonl``): one ``epoch``
#: record per coordinator take-over.  The highest epoch wins; everyone
#: else is fenced (DESIGN.md §14).
FENCING_LOG_FILENAME = "fencing.jsonl"

#: Global in-flight request cap (the backpressure admission limit).
DEFAULT_MAX_INFLIGHT = 64

#: Seconds a 429'd client is told to wait before retrying.
DEFAULT_RETRY_AFTER = 1.0

#: Standby → primary health-probe cadence and the consecutive-miss count
#: that triggers auto-promotion.
DEFAULT_PING_INTERVAL = 1.0
DEFAULT_PING_MISSES = 3

#: Artifact names the API will serve (everything else 404s: the campaign
#: directory also holds journals, which are replay state, not artifacts).
ARTIFACTS = (
    AGGREGATE_FILENAME,
    ATLAS_FILENAME,
    TELEMETRY_FILENAME,
    CAMPAIGN_MANIFEST_FILENAME,
)

#: Request-body ceiling (specs and shard commits are KiB-scale; anything
#: bigger is abuse and is refused with 413 before a byte is buffered).
MAX_BODY_BYTES = 4 * 1024 * 1024

#: Per-request read deadline: one slow (or silent) client may not pin a
#: connection handler forever; past this it gets 408 and the socket back.
DEFAULT_READ_TIMEOUT = 10.0

_REASONS = {
    200: "OK",
    202: "Accepted",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    410: "Gone",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class HttpError(Exception):
    """Maps straight to an HTTP error response.

    ``extra`` is merged into the JSON error body (machine-readable
    fields like ``fenced`` or ``retry_after``); ``headers`` are extra
    response headers (e.g. ``Retry-After`` on a 429).
    """

    def __init__(
        self,
        status: int,
        message: str,
        extra: Optional[dict] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        super().__init__(message)
        self.status = status
        self.message = message
        self.extra = extra or {}
        self.headers = headers or {}


class _ConnectionClosed(Exception):
    """The client hung up between requests on a keep-alive connection —
    the normal end of a conversation, never an error."""


class CampaignService:
    """Campaign orchestration bound to one root directory.

    ``jobs``/``shards``/``cache_dir``/``batch_mode`` are the execution
    knobs applied to every campaign this service runs; they do not enter
    any fingerprint, so a service restarted with different parallelism
    resumes its campaigns to identical artifacts.
    """

    def __init__(
        self,
        root,
        jobs: int = 1,
        shards: Optional[int] = None,
        cache_dir: Optional[str] = None,
        batch_mode: str = "auto",
        lease_ttl: float = DEFAULT_LEASE_TTL,
        read_timeout: float = DEFAULT_READ_TIMEOUT,
        steal_enabled: bool = True,
        fabric_secret: Optional[str] = None,
        auth_window: float = DEFAULT_AUTH_WINDOW,
        standby_of: Optional[str] = None,
        node_name: Optional[str] = None,
        ping_interval: float = DEFAULT_PING_INTERVAL,
        ping_misses: int = DEFAULT_PING_MISSES,
        max_inflight: int = DEFAULT_MAX_INFLIGHT,
        min_sync_interval: float = 0.0,
        cache_max_bytes: Optional[int] = None,
        cache_max_entries: Optional[int] = None,
    ) -> None:
        self.root = pathlib.Path(root)
        self.jobs = max(1, int(jobs))
        self.shards = shards
        self.cache_dir = cache_dir
        self.batch_mode = batch_mode
        self.lease_ttl = float(lease_ttl)
        self.read_timeout = float(read_timeout)
        self.steal_enabled = bool(steal_enabled)
        #: id → "queued" | "running" | "fleet" | "done" | "failed"
        self._states: Dict[str, str] = {}
        self._errors: Dict[str, str] = {}
        self._tasks: Dict[str, asyncio.Task] = {}
        #: id → shard queue of a fleet-executed campaign
        self._queues: Dict[str, CampaignQueue] = {}
        self._server: Optional[asyncio.base_events.Server] = None
        #: Cross-campaign wearer-result cache (fed by shard commits,
        #: prefetched onto lease grants).
        self.wearer_cache = WearerResultCache(
            self.root / WEARER_CACHE_DIRNAME,
            max_bytes=cache_max_bytes,
            max_entries=cache_max_entries,
        )
        #: Round-robin cursor over active fleet campaigns (lease fairness).
        self._rr_cursor = 0

        # -- hardening state (PR 10) --
        secret = resolve_secret(fabric_secret)
        self.auth = (
            FabricAuth(secret, window_s=auth_window) if secret else None
        )
        self.node_name = node_name or f"pid{os.getpid()}"
        self.standby_of = standby_of
        self.role = "standby" if standby_of else "primary"
        self.ping_interval = float(ping_interval)
        self.ping_misses = max(1, int(ping_misses))
        self.max_inflight = max(1, int(max_inflight))
        self.min_sync_interval = float(min_sync_interval)
        self.retry_after = DEFAULT_RETRY_AFTER
        self._inflight = 0
        self._fenced = False
        self._fencing_path = self.root / FENCING_LOG_FILENAME
        self._fencing_size = 0
        self._fencing_follower = None
        self._watch_task: Optional[asyncio.Task] = None
        self.epoch = 0

        if self.role == "primary":
            self._claim_epoch()
            self._journal: Optional[EventLog] = EventLog(
                self.root / SERVICE_LOG_FILENAME
            )
            self._replay_states()
        else:
            # A standby never opens a journal for append — the primary
            # owns those files until promotion.  State is read through
            # incremental followers instead.
            self._journal = None
            self._service_follower = EventLog.follow(
                self.root / SERVICE_LOG_FILENAME
            )
            self._refresh_standby_view()

    # -- fencing epochs (DESIGN.md §14) ------------------------------------------

    def _claim_epoch(self) -> None:
        """Claim this coordinator's fencing epoch in ``fencing.jsonl``.

        A plain restart (same ``node_name`` as the last holder) re-adopts
        its own epoch, keeping outstanding lease tokens valid — the PR 8
        restart contract.  Any other transition claims ``last + 1``, so
        a promoted standby always outranks the coordinator it replaced.
        """
        self.root.mkdir(parents=True, exist_ok=True)
        self._fencing_log = EventLog(self._fencing_path)
        last_epoch, last_holder = 0, None
        for entry in self._fencing_log.entries:
            if entry.get("kind") == "epoch":
                last_epoch = int(entry.get("epoch", 0))
                last_holder = entry.get("holder")
        if last_epoch > 0 and last_holder == self.node_name:
            self.epoch = last_epoch
        else:
            self.epoch = last_epoch + 1
        self._fencing_log.append(
            {"kind": "epoch", "epoch": self.epoch, "holder": self.node_name}
        )
        self._fencing_follower = EventLog.follow(self._fencing_path)
        self._fencing_follower.poll()  # consume history incl. our claim
        try:
            self._fencing_size = os.stat(self._fencing_path).st_size
        except OSError:
            self._fencing_size = 0

    def _check_fenced(self) -> None:
        """Refuse (410) every mutation once a higher epoch exists.

        Cheap on the happy path — one ``stat`` comparing the fencing
        log's size against the last-seen value; only growth triggers a
        re-read.  Once fenced, a coordinator stays fenced for life: the
        operator restarts it (as a standby or with a fresh claim), the
        process never un-fences itself.
        """
        if self._fenced:
            raise HttpError(
                410,
                f"this coordinator (epoch {self.epoch}) has been "
                "superseded by a higher fencing epoch — fail over to the "
                "current coordinator",
                extra={"fenced": True, "epoch": self.epoch},
            )
        if self._fencing_follower is None:
            return
        try:
            size = os.stat(self._fencing_path).st_size
        except OSError:
            return
        if size == self._fencing_size:
            return
        self._fencing_size = size
        for entry in self._fencing_follower.poll():
            if (
                entry.get("kind") == "epoch"
                and int(entry.get("epoch", 0)) > self.epoch
                and entry.get("holder") != self.node_name
            ):
                self._fenced = True
        if self._fenced:
            self._check_fenced()  # raise via the fenced fast path

    def _replay_states(self) -> None:
        """Restore remembered campaign outcomes from the service journal.

        Only terminal *failures* are restored into memory: ``done`` is
        always derivable from the aggregate on disk, and transient
        states (queued/running/fleet) mean the campaign was interrupted
        and should go through :meth:`recover` as before.  A restored
        failure keeps its error message and is **not** auto-relaunched —
        retrying is an explicit resubmission.
        """
        if self._journal is None:
            return
        states: Dict[str, str] = {}
        errors: Dict[str, str] = {}
        for entry in self._journal.entries:
            kind = entry.get("kind")
            cid = str(entry.get("id", ""))
            if not cid:
                continue
            if kind == "state":
                states[cid] = str(entry.get("state", ""))
                if states[cid] != "failed":
                    errors.pop(cid, None)
            elif kind == "error":
                errors[cid] = str(entry.get("error", ""))
        for cid, state in states.items():
            if state == "failed":
                self._states[cid] = "failed"
                if cid in errors:
                    self._errors[cid] = errors[cid]

    def _refresh_standby_view(self) -> None:
        """Fold any new primary journal records into the standby's
        read-only state view (all states, not just failures — this view
        exists for operator status, not for relaunch decisions)."""
        for entry in self._service_follower.poll():
            kind = entry.get("kind")
            cid = str(entry.get("id", ""))
            if not cid:
                continue
            if kind == "state":
                self._states[cid] = str(entry.get("state", ""))
                if self._states[cid] != "failed":
                    self._errors.pop(cid, None)
            elif kind == "error":
                self._errors[cid] = str(entry.get("error", ""))

    def _set_state(
        self, campaign_id: str, state: str, error: Optional[str] = None
    ) -> None:
        """Record a state transition (journaled so restarts remember it)."""
        if self._states.get(campaign_id) != state:
            self._states[campaign_id] = state
            if self._journal is not None:
                self._journal.append(
                    {"kind": "state", "id": campaign_id, "state": state}
                )
        if error is not None and self._errors.get(campaign_id) != error:
            self._errors[campaign_id] = error
            if self._journal is not None:
                self._journal.append(
                    {"kind": "error", "id": campaign_id, "error": error}
                )

    def _fleet_shards(self, spec: CampaignSpec) -> int:
        """Shard count for a fleet campaign: the lease granularity.

        ``--shards`` wins when given; otherwise one shard per wearer up
        to 8 — fine-grained enough that a small fleet of workers all get
        work, coarse enough that lease traffic stays negligible next to
        simulation time.
        """
        return self.shards or min(len(spec.wearers), 8)

    # -- campaign bookkeeping ----------------------------------------------------

    def campaign_dir(self, campaign_id: str) -> pathlib.Path:
        if not campaign_id or any(c in campaign_id for c in "/\\."):
            raise HttpError(400, f"bad campaign id {campaign_id!r}")
        return self.root / campaign_id

    def known_ids(self):
        ids = set(self._states)
        if self.root.exists():
            for entry in self.root.iterdir():
                if (entry / CAMPAIGN_MANIFEST_FILENAME).exists():
                    ids.add(entry.name)
        return sorted(ids)

    def _progress(self, directory: pathlib.Path) -> Tuple[int, int]:
        """(done, total) wearer counts straight from the filesystem."""
        try:
            manifest = load_campaign_manifest(directory)
        except JournalError:
            return (0, 0)
        total = len(manifest.get("spec", {}).get("wearers", ()))
        done = len(list(directory.glob(f"shards/*/*/{SUMMARY_FILENAME}")))
        return (done, total)

    def status(self, campaign_id: str) -> dict:
        directory = self.campaign_dir(campaign_id)
        if campaign_id not in self._states and not (
            directory / CAMPAIGN_MANIFEST_FILENAME
        ).exists():
            raise HttpError(404, f"unknown campaign {campaign_id!r}")
        state = self._states.get(campaign_id)
        if state is None:
            # Not tracked in memory: the directory is from a previous
            # service life.  The artifacts decide.
            state = (
                "done"
                if (directory / AGGREGATE_FILENAME).exists()
                else "interrupted"
            )
        done, total = self._progress(directory)
        payload = {
            "id": campaign_id,
            "state": state,
            "wearers_done": done,
            "wearers_total": total,
        }
        queue = self._queues.get(campaign_id)
        if queue is not None:
            # Operator view of the fabric: queue counters plus every
            # shard's pending / leased(worker, expiry) / committed state,
            # so fleet progress is visible without reading any journal.
            counts = queue.counts()
            payload["queue"] = {
                "shards": queue.shards,
                "lease_ttl": queue.lease_ttl,
                **counts,
            }
            payload["shards"] = queue.shard_states()
        if campaign_id in self._errors:
            payload["error"] = self._errors[campaign_id]
        return payload

    def submit(self, spec: CampaignSpec, execution: str = "local") -> dict:
        """Start (or attach to) the campaign for ``spec``.

        ``execution="local"`` runs it on this host (PR 7 behaviour);
        ``execution="fleet"`` decomposes it into shard-grain work items
        and waits for pulling workers.  Submission stays idempotent
        either way — resubmitting a known spec attaches to the existing
        campaign regardless of the execution mode requested.
        """
        if execution not in ("local", "fleet"):
            raise HttpError(
                400, f"execution must be 'local' or 'fleet', got "
                f"{execution!r}"
            )
        campaign_id = spec.fingerprint()
        state = self._states.get(campaign_id)
        if state in ("queued", "running", "fleet", "done"):
            return self.status(campaign_id)
        directory = self.campaign_dir(campaign_id)
        if (directory / AGGREGATE_FILENAME).exists():
            self._set_state(campaign_id, "done")
            return self.status(campaign_id)
        if execution == "fleet":
            self._open_queue(campaign_id, spec)
        else:
            self._launch(campaign_id, spec)
        return self.status(campaign_id)

    def _open_queue(self, campaign_id: str, spec: CampaignSpec) -> None:
        """Create (or reopen) the shard queue of a fleet campaign."""
        queue = CampaignQueue(
            spec,
            self.campaign_dir(campaign_id),
            shards=self._fleet_shards(spec),
            lease_ttl=self.lease_ttl,
            steal_enabled=self.steal_enabled,
            epoch=self.epoch,
        )
        self._queues[campaign_id] = queue
        self._errors.pop(campaign_id, None)
        if queue.done:
            # Every shard already committed (e.g. killed between the
            # last commit and aggregation): finalize immediately.
            queue.finalize()
            self._set_state(campaign_id, "done")
        else:
            self._set_state(campaign_id, "fleet")

    def _launch(self, campaign_id: str, spec: CampaignSpec) -> None:
        self._set_state(campaign_id, "queued")
        self._errors.pop(campaign_id, None)
        self._tasks[campaign_id] = asyncio.get_running_loop().create_task(
            self._run(campaign_id, spec)
        )

    async def _run(self, campaign_id: str, spec: CampaignSpec) -> None:
        from repro.campaign.runner import run_campaign

        self._set_state(campaign_id, "running")
        try:
            await asyncio.to_thread(
                run_campaign,
                spec,
                self.campaign_dir(campaign_id),
                shards=self.shards,
                jobs=self.jobs,
                cache_dir=self.cache_dir,
                batch_mode=self.batch_mode,
                wearer_cache_dir=str(self.wearer_cache.directory),
            )
        except Exception as exc:  # surfaced via GET status, not lost
            self._set_state(
                campaign_id, "failed", error=f"{type(exc).__name__}: {exc}"
            )
        else:
            self._set_state(campaign_id, "done")

    def recover(self) -> int:
        """Resume every interrupted campaign found under the root.

        Called at service start; each resumed campaign finishes through
        the journal-replay path to byte-identical artifacts.  Returns the
        number of campaigns resumed.
        """
        resumed = 0
        if not self.root.exists():
            return 0
        for entry in sorted(self.root.iterdir()):
            if not (entry / CAMPAIGN_MANIFEST_FILENAME).exists():
                continue
            if (entry / AGGREGATE_FILENAME).exists():
                self._states.setdefault(entry.name, "done")
                continue
            if self._states.get(entry.name) == "failed":
                # Remembered from the service journal: a failed campaign
                # stays failed (error and all) until explicitly
                # resubmitted — restarting the coordinator is not a retry.
                continue
            try:
                manifest = load_campaign_manifest(entry)
                spec = CampaignSpec.from_dict(manifest["spec"])
            except (JournalError, KeyError, ValueError) as exc:
                self._set_state(
                    entry.name, "failed",
                    error=f"unrecoverable manifest: {exc}",
                )
                continue
            if (entry / QUEUE_LOG_FILENAME).exists():
                # Fleet campaign: rebuild the queue from its lease/commit
                # log.  Committed shards stay committed, in-flight leases
                # keep their original expiry (and are reassigned once it
                # lapses) — the coordinator must never re-run shards
                # locally behind its workers' backs.
                try:
                    self._open_queue(entry.name, spec)
                except (JournalError, QueueError, OSError, ValueError) as exc:
                    self._set_state(
                        entry.name, "failed",
                        error=f"unrecoverable queue log: {exc}",
                    )
                    continue
            else:
                self._launch(entry.name, spec)
            resumed += 1
        return resumed

    # -- HTTP layer --------------------------------------------------------------

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[asyncio.base_events.Server, int]:
        """Bind, recover interrupted campaigns, and begin serving.
        Returns ``(server, bound_port)`` — pass ``port=0`` for an
        ephemeral port (the test suite's socket-flakiness guard).

        A standby binds without recovering (the primary owns the
        campaigns) and starts probing the primary's health for
        auto-promotion instead."""
        if self.role == "primary":
            self.recover()
        elif self.standby_of:
            self._watch_task = asyncio.get_running_loop().create_task(
                self._watch_primary()
            )
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        bound = self._server.sockets[0].getsockname()[1]
        return self._server, bound

    async def stop(self) -> None:
        if self._watch_task is not None:
            self._watch_task.cancel()
            try:
                await self._watch_task
            except (asyncio.CancelledError, Exception):
                pass
            self._watch_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for queue in self._queues.values():
            queue.close()
        if self._journal is not None:
            self._journal.close()
        if getattr(self, "_fencing_log", None) is not None:
            self._fencing_log.close()

    # -- standby promotion -------------------------------------------------------

    def promote(self) -> dict:
        """Turn this standby into the primary (idempotent).

        Claims the next fencing epoch (durably, in ``fencing.jsonl`` —
        from this instant every mutation on the deposed primary fails
        its :meth:`_check_fenced` with 410), opens the service journal,
        and recovers every campaign under the root: committed shards
        stay committed, in-flight leases are restored verbatim (their
        old-epoch tokens remain honoured, so mid-shard work commits
        without re-simulation) and newly minted tokens carry the new
        epoch.
        """
        if self.role == "primary":
            return {"role": self.role, "epoch": self.epoch,
                    "promoted": False}
        self.role = "primary"
        self.standby_of = None
        if self._watch_task is not None:
            self._watch_task.cancel()
            self._watch_task = None
        self._claim_epoch()
        self._states.clear()
        self._errors.clear()
        self._journal = EventLog(self.root / SERVICE_LOG_FILENAME)
        self._replay_states()
        resumed = self.recover()
        from repro.obs import runtime

        obs = runtime.get_active()
        if obs is not None:
            obs.counter("fabric.promotions").inc()
            obs.event(
                "fabric.promote", node=self.node_name, epoch=self.epoch,
                resumed=resumed,
            )
        print(
            f"hi-explore serve: node {self.node_name} promoted to "
            f"primary at fencing epoch {self.epoch} "
            f"({resumed} campaign(s) resumed)",
            flush=True,
        )
        return {"role": self.role, "epoch": self.epoch, "promoted": True,
                "resumed": resumed}

    async def _probe_primary(self) -> bool:
        """One ``GET /healthz`` against the primary; False on any
        failure (connect refused, timeout, non-200, garbage)."""
        target = str(self.standby_of or "")
        target = target.split("//", 1)[-1].rstrip("/")
        host, _, port_text = target.partition(":")
        try:
            port = int(port_text or 80)
        except ValueError:
            return False
        try:
            reader, writer = await asyncio.wait_for(
                asyncio.open_connection(host or "127.0.0.1", port),
                self.ping_interval,
            )
        except (OSError, asyncio.TimeoutError):
            return False
        try:
            writer.write(
                b"GET /healthz HTTP/1.1\r\nHost: primary\r\n"
                b"Connection: close\r\n\r\n"
            )
            await writer.drain()
            status_line = await asyncio.wait_for(
                reader.readline(), self.ping_interval
            )
            return b" 200 " in status_line
        except (OSError, asyncio.TimeoutError):
            return False
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _watch_primary(self) -> None:
        """Auto-promotion loop: probe the primary every
        ``ping_interval`` seconds and promote after ``ping_misses``
        consecutive failures.  A single successful probe resets the
        count, so a slow-but-alive primary is never deposed."""
        misses = 0
        while self.role == "standby":
            await asyncio.sleep(self.ping_interval)
            if await self._probe_primary():
                misses = 0
                continue
            misses += 1
            if misses >= self.ping_misses:
                self.promote()
                return

    async def join(self) -> None:
        """Wait for every launched campaign task to settle (test helper)."""
        tasks = [t for t in self._tasks.values() if not t.done()]
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _admit(self, method: str, path: str) -> bool:
        """Claim a global in-flight slot for one request, or raise 429.

        Runs synchronously right after the request line is parsed —
        before headers or body — so a saturating flood is refused at the
        cheapest possible point and a stalled-body upload holds exactly
        one slot for exactly as long as it stalls.  Health probes and
        promotion are exempt: an overloaded coordinator must stay
        observable and deposable.  Returns True when a slot was taken
        (the caller owes a release).
        """
        bare = path.split("?", 1)[0]
        if bare == "/healthz" or bare == "/fabric/promote":
            return False
        if self._inflight >= self.max_inflight:
            self._note_backpressure("global")
            raise HttpError(
                429,
                f"coordinator is saturated ({self._inflight} requests "
                f"in flight, limit {self.max_inflight}) — retry after "
                f"{self.retry_after}s",
                extra={"retry_after": self.retry_after},
                headers={"Retry-After": f"{self.retry_after:g}"},
            )
        self._inflight += 1
        return True

    def _note_backpressure(self, scope: str) -> None:
        from repro.obs import runtime

        obs = runtime.get_active()
        if obs is not None:
            obs.counter("fabric.backpressure_rejections").inc()
            obs.event(
                "fabric.backpressure", scope=scope,
                inflight=self._inflight, limit=self.max_inflight,
                retry_after=self.retry_after,
            )

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        #: Monotonic time of this connection's last /fabric/sync (the
        #: per-connection backpressure state).
        last_sync: Optional[float] = None
        try:
            first = True
            while True:
                # Mutable per-request holder: _read_request flips it the
                # instant a slot is claimed, so the slot is released even
                # when the read is cancelled (timeout) mid-body.
                slot = {"held": False}
                try:
                    try:
                        # One slow or silent client must not pin this
                        # handler: the whole request read shares a single
                        # deadline.
                        try:
                            method, path, body, want_close, headers = (
                                await asyncio.wait_for(
                                    self._read_request(reader, slot=slot),
                                    self.read_timeout,
                                )
                            )
                        except asyncio.TimeoutError:
                            if not first:
                                # An idle keep-alive connection simply
                                # aged out; hanging up is the answer,
                                # not 408.
                                break
                            raise HttpError(
                                408,
                                f"request not received within "
                                f"{self.read_timeout}s",
                            ) from None
                    except _ConnectionClosed:
                        break
                    except HttpError as exc:
                        # The byte stream is in an unknown state after a
                        # failed read: answer what we can, then hang up.
                        await self._respond(
                            writer, exc.status,
                            {"error": exc.message, **exc.extra},
                            keep_alive=False, headers=exc.headers,
                        )
                        break
                    keep_alive = not want_close
                    extra_headers: Dict[str, str] = {}
                    try:
                        if (
                            self.min_sync_interval > 0
                            and method == "POST"
                            and path.split("?", 1)[0] == "/fabric/sync"
                        ):
                            now = time.monotonic()
                            if (
                                last_sync is not None
                                and now - last_sync < self.min_sync_interval
                            ):
                                wait = self.min_sync_interval - (
                                    now - last_sync
                                )
                                self._note_backpressure("connection")
                                raise HttpError(
                                    429,
                                    "syncing faster than the "
                                    f"{self.min_sync_interval:g}s "
                                    "per-connection minimum — slow down",
                                    extra={"retry_after": wait},
                                    headers={"Retry-After": f"{wait:g}"},
                                )
                            last_sync = now
                        status, payload = self._route(
                            method, path, body, headers
                        )
                    except HttpError as exc:
                        status, payload = exc.status, {
                            "error": exc.message, **exc.extra
                        }
                        extra_headers = exc.headers
                    except Exception as exc:  # never let a request kill us
                        status, payload = 500, {
                            "error": f"{type(exc).__name__}: {exc}"
                        }
                    await self._respond(
                        writer, status, payload, keep_alive=keep_alive,
                        headers=extra_headers,
                    )
                finally:
                    if slot["held"]:
                        self._inflight -= 1
                if not keep_alive:
                    break
                first = False
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader, slot: Optional[dict] = None
    ) -> Tuple[str, str, bytes, bool, Dict[str, str]]:
        raw = await reader.readline()
        if not raw:
            raise _ConnectionClosed()
        request_line = raw.decode("latin-1").strip()
        parts = request_line.split()
        if len(parts) != 3 or not parts[2].startswith("HTTP/"):
            raise HttpError(400, f"malformed request line {request_line!r}")
        method, path = parts[0].upper(), parts[1]
        if slot is not None:
            # Admission control happens here — after the request line,
            # before headers or body — so saturation is answered at the
            # cheapest point and a stalled upload owns exactly one slot.
            slot["held"] = self._admit(method, path)
        # HTTP/1.1 defaults to keep-alive, anything older to close; the
        # Connection header overrides either way.
        want_close = parts[2] != "HTTP/1.1"
        content_length = 0
        headers: Dict[str, str] = {}
        while True:
            try:
                line = (await reader.readline()).decode("latin-1")
            except ValueError:
                # StreamReader refuses header lines past its buffer
                # limit — an oversized/garbage header, not our bug.
                raise HttpError(400, "header line too long") from None
            if line in ("\r\n", "\n", ""):
                break
            name, _, value = line.partition(":")
            name = name.strip().lower()
            headers[name] = value.strip()
            if name == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    raise HttpError(400, "bad Content-Length") from None
            elif name == "connection":
                token = value.strip().lower()
                if token == "close":
                    want_close = True
                elif token == "keep-alive":
                    want_close = False
        if content_length > MAX_BODY_BYTES:
            # Refused before buffering a byte of it: the declared size
            # alone disqualifies the request.
            raise HttpError(
                413,
                f"request body of {content_length} bytes exceeds the "
                f"{MAX_BODY_BYTES}-byte limit",
            )
        body = (
            await reader.readexactly(content_length)
            if content_length
            else b""
        )
        return method, path, body, want_close, headers

    async def _respond(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: dict,
        keep_alive: bool = False,
        headers: Optional[Dict[str, str]] = None,
    ) -> None:
        body = (
            json.dumps(payload, sort_keys=True, indent=1) + "\n"
        ).encode("utf-8")
        connection = "keep-alive" if keep_alive else "close"
        extra = "".join(
            f"{name}: {value}\r\n" for name, value in (headers or {}).items()
        )
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'Status')}\r\n"
            "Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: {connection}\r\n"
            f"{extra}"
            "\r\n"
        ).encode("latin-1")
        writer.write(head + body)
        await writer.drain()

    @staticmethod
    def _protected(segments: List[str]) -> bool:
        """Is this a fabric-plane request that must be signed?

        The fabric plane is everything under ``/fabric/``: the worker's
        one RPC (``/fabric/sync``) plus promotion.  The operator plane
        (submission, status, result, artifact GETs) is deliberately not
        protected: it mutates nothing a worker's signature would
        protect, and keeping it open means `curl` diagnostics keep
        working during an incident.  DESIGN.md §14 spells out the split.
        """
        return segments[:1] == ["fabric"]

    def _authenticate(
        self, method: str, path: str, body: bytes,
        headers: Dict[str, str],
    ) -> None:
        try:
            self.auth.verify(method, path, body, headers)
        except AuthError as exc:
            from repro.obs import runtime

            obs = runtime.get_active()
            if obs is not None:
                obs.counter("fabric.auth_denied").inc()
                obs.event(
                    "fabric.auth", status=exc.status, method=method,
                    path=path.split("?", 1)[0],
                )
            raise HttpError(exc.status, exc.message) from None

    def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, dict]:
        raw_path = path
        path = path.split("?", 1)[0]
        segments = [s for s in path.split("/") if s]
        # Authentication comes first — before fencing, before standby
        # gating, before any handler — so an unauthenticated request
        # learns nothing and mutates nothing.  Signatures cover the raw
        # request-target exactly as the client sent it.
        if self.auth is not None and self._protected(segments):
            self._authenticate(method, raw_path, body, headers or {})
        if segments == ["healthz"]:
            if method != "GET":
                raise HttpError(405, "healthz is GET-only")
            return 200, {
                "ok": True,
                "campaigns": len(self.known_ids()),
                "role": self.role,
                "epoch": self.epoch,
                "node": self.node_name,
                "auth": self.auth is not None,
            }
        if segments == ["fabric", "promote"]:
            if method != "POST":
                raise HttpError(405, "fabric promote is POST-only")
            return 200, self.promote()
        if method in ("POST", "PUT"):
            # Every mutation, fabric- or operator-plane, is refused on a
            # standby (503: retry against the primary or promote first)
            # and on a fenced ex-primary (410: a newer epoch owns the
            # root now).
            if self.role == "standby":
                raise HttpError(
                    503,
                    "this coordinator is a standby (read-only until "
                    "promoted) — send mutations to the primary or "
                    "POST /fabric/promote",
                    extra={"role": "standby"},
                )
            self._check_fenced()
        elif self.role == "standby":
            self._refresh_standby_view()
        if segments == ["fabric", "sync"]:
            if method != "POST":
                raise HttpError(405, "fabric sync is POST-only")
            return self._post_sync(body)
        if not segments or segments[0] != "campaigns":
            raise HttpError(404, f"no route for {path!r}")
        if len(segments) == 1:
            if method == "POST":
                return self._post_campaign(body)
            if method == "GET":
                return 200, {
                    "campaigns": [self.status(cid) for cid in self.known_ids()]
                }
            raise HttpError(405, f"{method} not allowed on /campaigns")
        campaign_id = segments[1]
        if method != "GET":
            raise HttpError(405, f"{method} not allowed on {path!r}")
        if len(segments) == 2:
            return 200, self.status(campaign_id)
        if len(segments) == 3 and segments[2] == "status":
            return 200, self.status(campaign_id)
        if len(segments) == 3 and segments[2] == "result":
            return self._get_result(campaign_id)
        if len(segments) == 4 and segments[2] == "artifacts":
            return self._get_artifact(campaign_id, segments[3])
        raise HttpError(404, f"no route for {path!r}")

    def _json_body(self, body: bytes) -> dict:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            raise HttpError(400, f"body is not valid JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise HttpError(400, "body must be a JSON object")
        return payload

    def _post_campaign(self, body: bytes) -> Tuple[int, dict]:
        payload = self._json_body(body)
        execution = str(payload.pop("execution", "local"))
        try:
            spec = CampaignSpec.from_dict(payload.get("spec", payload))
        except ValueError as exc:
            raise HttpError(400, f"bad campaign spec: {exc}") from None
        status = self.submit(spec, execution=execution)
        return (200 if status["state"] == "done" else 202), status

    # -- fabric handlers ---------------------------------------------------------

    def _queue_for(self, campaign_id: str) -> CampaignQueue:
        queue = self._queues.get(campaign_id)
        if queue is None:
            self.status(campaign_id)  # 400/404 on bad or unknown ids
            raise HttpError(
                409,
                f"campaign {campaign_id!r} is not fleet-executed (no "
                "shard queue); submit it with execution='fleet'",
            )
        return queue

    def _sync_commit(self, worker: str, entry: dict) -> dict:
        """One shard commit: CRC-checked, idempotent (a duplicate is a
        no-op, divergent bytes are 409), feeding the wearer cache, and
        finalizing the campaign when its last shard lands."""
        campaign_id = str(entry.get("campaign") or "")
        try:
            shard = int(entry.get("shard"))
        except (TypeError, ValueError):
            raise HttpError(
                400, f"bad shard index {entry.get('shard')!r}"
            ) from None
        summaries = entry.get("summaries")
        if not isinstance(summaries, dict):
            raise HttpError(400, "commit needs a 'summaries' object")
        queue = self._queue_for(campaign_id)
        outcome = queue.commit(
            shard,
            summaries,
            crc=str(entry.get("crc") or ""),
            worker=worker,
            token=entry.get("token"),
        )
        # Feed the cross-campaign cache: every summary that just landed
        # is now a download for any other campaign naming this wearer.
        self._ingest_summaries(queue, summaries)
        if queue.done and self._states.get(campaign_id) != "done":
            # The last shard just landed: aggregation triggers exactly
            # here, and the artifacts are byte-identical to a single-host
            # run because they are built from the same summary bytes.
            queue.finalize()
            self._set_state(campaign_id, "done")
        outcome["campaign_state"] = self._states.get(campaign_id, "fleet")
        return outcome

    def _sync_release(self, worker: str, entry: dict) -> dict:
        """Hand one lease back to the pending pool."""
        queue = self._queue_for(str(entry.get("campaign") or ""))
        reason = str(entry.get("reason") or "released")
        return queue.release(str(entry.get("token") or ""), reason=reason)

    def _sync_heartbeat(self, worker: str, entry: dict) -> dict:
        """Renew one held lease (410 once it is gone)."""
        campaign_id = str(entry.get("campaign") or "")
        queue = self._queues.get(campaign_id)
        if queue is None:
            raise HttpError(
                410, f"campaign {campaign_id!r} has no active queue"
            )
        return queue.heartbeat(str(entry.get("token") or ""))

    def _ingest_summaries(
        self, queue: CampaignQueue, summaries: Dict[str, dict]
    ) -> None:
        """Fold freshly-committed summaries into the wearer cache.

        The queue has already CRC-validated these bytes against this
        campaign's shard; a divergence surfacing *here* means a different
        campaign cached other bytes for the same fingerprint.  The cache
        is first-writer-wins, so the commit still stands — but silently
        serving either version onward would be wrong, so it is counted
        and the entry left untouched for the operator to compare.
        """
        for wearer_id, summary in summaries.items():
            if not isinstance(summary, dict):
                continue
            try:
                wearer = queue.spec.wearer(str(wearer_id))
            except KeyError:
                continue
            fingerprint = wearer_fingerprint(queue.spec.preset, wearer)
            try:
                self.wearer_cache.put(fingerprint, summary)
            except WearerCacheDiverged:
                from repro.obs import runtime

                obs = runtime.get_active()
                if obs is not None:
                    obs.counter("cache.wearer_divergences").inc()

    # -- the worker-plane RPC ----------------------------------------------------

    def _post_sync(self, body: bytes) -> Tuple[int, dict]:
        """One round-trip for a whole worker tick.

        Processes the body's ``commits``, then its ``releases``, then
        its ``heartbeats``, then (unless ``"acquire": false``) grants
        one new lease, round-robin across active fleet campaigns.  Every
        entry is handled on its own — one dead token must not poison
        the others — and answered with its own ``status``: 200, or the
        code of its :class:`QueueError` / :class:`HttpError` (400 bad
        entry, 404 unknown campaign, 409 not fleet-executed or divergent
        commit, 410 lease gone).
        """
        payload = self._json_body(body)
        worker = str(payload.get("worker") or "anonymous")
        steps = (
            ("commits", self._sync_commit),
            ("releases", self._sync_release),
            ("heartbeats", self._sync_heartbeat),
        )
        for key, _ in steps:
            if not isinstance(payload.get(key) or [], list):
                raise HttpError(400, f"{key!r} must be a list")
        response: dict = {"worker": worker, "campaign": None, "lease": None}
        for key, step in steps:
            response[key] = [
                self._sync_entry(step, worker, entry)
                for entry in payload.get(key) or []
                if isinstance(entry, dict)
            ]
        if payload.get("acquire", True):
            granted = self._grant_lease(worker)
            if granted is not None:
                response["campaign"], response["lease"] = granted
        return 200, response

    @staticmethod
    def _sync_entry(step, worker: str, entry: dict) -> dict:
        """Run one entry through ``step``; the answer echoes its
        campaign and token and carries its own status."""
        result = {
            "campaign": str(entry.get("campaign") or ""),
            "token": str(entry.get("token") or ""),
        }
        try:
            result.update(step(worker, entry))
        except (QueueError, HttpError) as exc:
            result.update(status=exc.status, error=exc.message)
        else:
            result["status"] = 200
        return result

    def _grant_lease(self, worker: str) -> Optional[Tuple[str, dict]]:
        """One lease from the active fleet campaigns, round-robin.

        The cursor advances past whichever campaign granted, so one big
        early campaign cannot starve later submissions.  Cached wearer
        summaries for the granted shard ride along under ``"cached"`` —
        the worker never makes a separate cache round-trip for work the
        coordinator already knew was warm.
        """
        active = [
            cid for cid in sorted(self._queues)
            if not self._queues[cid].done
        ]
        if not active:
            return None
        start = self._rr_cursor % len(active)
        for offset in range(len(active)):
            cid = active[(start + offset) % len(active)]
            queue = self._queues[cid]
            try:
                lease = queue.acquire(worker)
            except QueueError:
                continue
            if lease is None:
                continue
            self._rr_cursor = (start + offset + 1) % len(active)
            cached = self.wearer_cache.prefetch(
                queue.spec.preset, lease.get("wearers") or []
            )
            if cached:
                lease["cached"] = cached
            return cid, lease
        return None

    def _get_result(self, campaign_id: str) -> Tuple[int, dict]:
        status = self.status(campaign_id)
        path = self.campaign_dir(campaign_id) / AGGREGATE_FILENAME
        if not path.exists():
            raise HttpError(
                409,
                f"campaign {campaign_id!r} is {status['state']} "
                f"({status['wearers_done']}/{status['wearers_total']} "
                "wearers done); no aggregate yet",
            )
        with open(path, "r", encoding="utf-8") as fh:
            return 200, json.load(fh)

    def _get_artifact(
        self, campaign_id: str, name: str
    ) -> Tuple[int, dict]:
        self.status(campaign_id)  # 404 on unknown campaigns
        if name not in ARTIFACTS:
            raise HttpError(
                404, f"unknown artifact {name!r} (have {list(ARTIFACTS)})"
            )
        path = self.campaign_dir(campaign_id) / name
        if not path.exists():
            raise HttpError(409, f"artifact {name!r} not written yet")
        with open(path, "r", encoding="utf-8") as fh:
            return 200, json.load(fh)


async def _serve(service: CampaignService, host: str, port: int) -> None:
    server, bound = await service.start(host=host, port=port)
    print(
        f"hi-explore serve: campaigns root {service.root} on "
        f"http://{host}:{bound} (jobs={service.jobs}, "
        f"role={service.role}, epoch={service.epoch}, "
        f"node={service.node_name})",
        flush=True,
    )
    async with server:
        await server.serve_forever()


def serve_forever(
    root,
    host: str = "127.0.0.1",
    port: int = 8732,
    jobs: int = 1,
    shards: Optional[int] = None,
    cache_dir: Optional[str] = None,
    batch_mode: str = "auto",
    lease_ttl: float = DEFAULT_LEASE_TTL,
    steal_enabled: bool = True,
    fabric_secret: Optional[str] = None,
    standby_of: Optional[str] = None,
    node_name: Optional[str] = None,
    ping_interval: float = DEFAULT_PING_INTERVAL,
    ping_misses: int = DEFAULT_PING_MISSES,
    max_inflight: int = DEFAULT_MAX_INFLIGHT,
    min_sync_interval: float = 0.0,
    cache_max_bytes: Optional[int] = None,
    cache_max_entries: Optional[int] = None,
) -> int:
    """Blocking entry point for ``hi-explore serve``."""
    service = CampaignService(
        root, jobs=jobs, shards=shards, cache_dir=cache_dir,
        batch_mode=batch_mode, lease_ttl=lease_ttl,
        steal_enabled=steal_enabled, fabric_secret=fabric_secret,
        standby_of=standby_of, node_name=node_name,
        ping_interval=ping_interval, ping_misses=ping_misses,
        max_inflight=max_inflight, min_sync_interval=min_sync_interval,
        cache_max_bytes=cache_max_bytes,
        cache_max_entries=cache_max_entries,
    )
    if service.auth is None:
        print(
            "hi-explore serve: WARNING — fabric auth is DISABLED (legacy "
            "mode). Anyone who can reach this port can lease shards, "
            "commit results, and write the wearer cache. Set "
            "--fabric-secret or REPRO_FABRIC_SECRET to require signed "
            "fabric RPCs.",
            flush=True,
        )
    try:
        asyncio.run(_serve(service, host, port))
    except KeyboardInterrupt:
        print("hi-explore serve: interrupted, shutting down", flush=True)
    return 0
