"""Cross-campaign wearer-result cache (content-addressed summaries).

A wearer run is a pure function of its *result-relevant* inputs — the
measurement preset plus the :class:`~repro.campaign.spec.WearerSpec`
fields that steer the exploration trajectory.  ``wearer_id`` and
``cohort`` are labels (they appear nowhere in the summary bytes, which
``tests/test_wearer_cache.py`` pins), and the robust-mode knobs are
ignored by ``solve``-mode runs, so :func:`wearer_fingerprint` hashes
exactly the influencing fields and nothing else.  Consequence: two
campaigns that describe the same wearer under different names — the
overwhelmingly common case across robustness studies, which re-sweep
overlapping populations — share one cache entry, and the second campaign
is a download, not a simulation.

The store itself is one file per fingerprint
(``<dir>/<fingerprint>.json``) holding the wearer's *deterministic
summary projection* (:func:`repro.core.journal.summary_projection` — the
exact bytes ``summary.json`` carries) inside the self-healing CRC
envelope from :mod:`repro.core.result_cache`.  Damage handling mirrors
the simulation cache: a file that fails to parse or fails its CRC is
moved to a ``.quarantine`` sidecar and treated as a miss, never trusted
and never fatal.  Writes are first-writer-wins and idempotent; a
*divergent* write for the same fingerprint is a determinism violation
and raises loudly (:class:`WearerCacheDiverged`) instead of silently
replacing bytes other campaigns may already have aggregated.

Both ends of the fabric hold one of these: the coordinator under
``<root>/wearer_cache/`` (fed by shard commits, handed to workers as
prefetches riding on lease grants), each worker under its own local
directory (consulted before any simulation).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import tempfile
from typing import Dict, Optional

from repro.campaign.spec import WearerSpec
from repro.core.journal import canonical_json, summary_projection
from repro.core.result_cache import open_envelope, seal_envelope

#: Version stamp of the on-disk envelope; bump on incompatible change.
WEARER_CACHE_VERSION = 1

#: Conventional directory name for a wearer cache next to campaign state.
WEARER_CACHE_DIRNAME = "wearer_cache"

#: LRU index filename inside a cache directory (atomic temp+replace).
INDEX_FILENAME = "index.json"


class WearerCacheDiverged(RuntimeError):
    """Two executions produced different bytes for one fingerprint —
    an integrity violation (determinism bug), never a benign race."""


def wearer_fingerprint(preset: str, wearer: WearerSpec) -> str:
    """Stable hex digest of everything a wearer's summary depends on.

    Excluded on purpose: ``wearer_id`` and ``cohort`` (labels only — the
    summary bytes do not contain them), and in ``solve`` mode every
    robust-ensemble knob (the nominal accept test never reads them).  A
    ``fault_seed`` of ``None`` normalizes to the wearer seed, matching
    the runner's ensemble construction, so the spelled-out and defaulted
    forms of the same ensemble share one entry.
    """
    payload = {
        "preset": str(preset),
        "seed": wearer.seed,
        "pdr_min": wearer.pdr_min,
        "mode": wearer.mode,
    }
    if wearer.mode == "robust":
        payload.update(
            quantile=wearer.quantile,
            ensemble_size=wearer.ensemble_size,
            hub_stress=wearer.hub_stress,
            outage_fraction=wearer.outage_fraction,
            fault_seed=(
                wearer.fault_seed
                if wearer.fault_seed is not None
                else wearer.seed
            ),
            correlated_links=wearer.correlated_links,
        )
    blob = canonical_json(payload)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _count(name: str, amount: int = 1) -> None:
    from repro.obs import runtime

    obs = runtime.get_active()
    if obs is not None:
        obs.counter(name).inc(amount)


def _event(kind: str, **fields) -> None:
    from repro.obs import runtime

    obs = runtime.get_active()
    if obs is not None:
        obs.event(kind, **fields)


class WearerResultCache:
    """One directory of CRC-enveloped wearer summaries, fingerprint-keyed.

    Files are written atomically (a private temp file per writer, then
    ``os.replace``) so a concurrent reader never observes a torn entry
    and concurrent writers — pool children sharing one directory — never
    race on a temp name; reads quarantine damage instead of raising, so
    the cache may always be treated as advisory.

    ``max_bytes`` / ``max_entries`` bound the store (both default to
    unbounded, the pre-PR-10 behaviour).  Recency lives in an on-disk
    LRU index (``index.json``, atomic temp+replace) mapping fingerprint →
    ``{"bytes", "seq"}`` with a monotonically increasing touch sequence;
    ``put`` evicts least-recently-used entries until the caps hold
    again, never the entry just written — the caps are therefore
    approximate to within one entry, which keeps a single oversized
    summary storable.  A missing or corrupt index is rebuilt from a
    directory scan ordered by mtime, so the index is never a correctness
    dependency: losing it only loses recency ordering.  An eviction is a
    plain ``unlink`` — a concurrent reader that already leased against
    the entry sees a clean miss and re-simulates,
    which the determinism contract guarantees reproduces identical
    bytes.
    """

    def __init__(
        self,
        directory,
        max_bytes: Optional[int] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.max_bytes = max_bytes if max_bytes and max_bytes > 0 else None
        self.max_entries = (
            max_entries if max_entries and max_entries > 0 else None
        )
        self._index: Optional[dict] = None  # loaded lazily

    # -- LRU index ---------------------------------------------------------------

    @property
    def index_path(self) -> pathlib.Path:
        return self.directory / INDEX_FILENAME

    def _scan_index(self) -> dict:
        """Rebuild the index from the directory, oldest-mtime first (so
        pre-index entries get the lowest recency and evict first)."""
        entries: Dict[str, dict] = {}
        seq = 0
        if self.directory.exists():
            found = []
            for path in self.directory.iterdir():
                if path.suffix != ".json" or path.name == INDEX_FILENAME:
                    continue
                try:
                    stat = path.stat()
                except OSError:
                    continue
                found.append((stat.st_mtime, path.stem, stat.st_size))
            for _, fingerprint, size in sorted(found):
                seq += 1
                entries[fingerprint] = {"bytes": size, "seq": seq}
        return {"next_seq": seq + 1, "entries": entries}

    def _load_index(self) -> dict:
        if self._index is not None:
            return self._index
        try:
            with open(self.index_path, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            entries = {
                str(fp): {
                    "bytes": int(rec["bytes"]),
                    "seq": int(rec["seq"]),
                }
                for fp, rec in raw["entries"].items()
            }
            self._index = {
                "next_seq": int(raw["next_seq"]),
                "entries": entries,
            }
        except (OSError, ValueError, KeyError, TypeError):
            self._index = self._scan_index()
        return self._index

    def _write_atomic(self, path: pathlib.Path, text: str) -> None:
        """fsync ``text`` into a temp file of this writer's own, then
        rename it over ``path`` (readers see old or new, never torn)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=self.directory, prefix=path.name + ".", suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    def _save_index(self) -> None:
        if self._index is None:
            return
        self._write_atomic(
            self.index_path, json.dumps(self._index, sort_keys=True)
        )

    def _touch(self, fingerprint: str, size: Optional[int] = None) -> None:
        """Mark ``fingerprint`` most-recently-used (in memory; persisted
        by the next ``put`` — recency is advisory, losing it is safe)."""
        index = self._load_index()
        record = index["entries"].get(fingerprint)
        if record is None:
            if size is None:
                try:
                    size = self.path_for(fingerprint).stat().st_size
                except OSError:
                    return
            record = {"bytes": size, "seq": 0}
            index["entries"][fingerprint] = record
        elif size is not None:
            record["bytes"] = size
        record["seq"] = index["next_seq"]
        index["next_seq"] += 1

    def _drop(self, fingerprint: str) -> None:
        index = self._load_index()
        index["entries"].pop(fingerprint, None)

    def total_bytes(self) -> int:
        index = self._load_index()
        return sum(rec["bytes"] for rec in index["entries"].values())

    def _evict_over_caps(self, protect: str) -> int:
        """Delete least-recently-used entries until the caps hold,
        never touching ``protect`` (the entry just written)."""
        index = self._load_index()
        evicted = 0
        while True:
            entries = index["entries"]
            over_entries = (
                self.max_entries is not None
                and len(entries) > self.max_entries
            )
            over_bytes = (
                self.max_bytes is not None
                and sum(r["bytes"] for r in entries.values()) > self.max_bytes
            )
            if not (over_entries or over_bytes):
                break
            victims = [fp for fp in entries if fp != protect]
            if not victims:
                break
            victim = min(victims, key=lambda fp: entries[fp]["seq"])
            try:
                os.unlink(self.path_for(victim))
            except OSError:
                pass
            del entries[victim]
            evicted += 1
            _count("cache.wearer_evictions")
            _event(
                "cache.wearer",
                action="evict",
                fingerprint=victim,
                entries=len(entries),
            )
        return evicted

    def path_for(self, fingerprint: str) -> pathlib.Path:
        if not fingerprint or not all(
            c in "0123456789abcdef" for c in fingerprint
        ):
            raise ValueError(f"bad wearer fingerprint {fingerprint!r}")
        return self.directory / f"{fingerprint}.json"

    def get(self, fingerprint: str) -> Optional[dict]:
        """The cached summary for ``fingerprint``, or None.

        A damaged entry (unparseable, wrong version, CRC failure) is
        moved aside to ``<entry>.quarantine`` and reported as a miss, so
        one flipped bit costs a re-simulation, never a wrong result.
        """
        path = self.path_for(fingerprint)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except FileNotFoundError:
            self._drop(fingerprint)
            return None
        try:
            summary = open_envelope(
                text, WEARER_CACHE_VERSION, key="summary"
            )
        except Exception:
            quarantine = path.with_suffix(path.suffix + ".quarantine")
            try:
                os.replace(path, quarantine)
            except OSError:
                pass
            self._drop(fingerprint)
            _count("cache.wearer_quarantined")
            return None
        self._touch(fingerprint, size=len(text.encode("utf-8")))
        return summary

    def put(self, fingerprint: str, summary: dict) -> bool:
        """Store a summary (first-writer-wins; True when newly written).

        The stored bytes are the deterministic projection — identical to
        what ``write_summary`` puts in ``summary.json`` — so a cache hit
        replayed into a run directory is byte-identical to a fresh run.
        A divergent repeat raises :class:`WearerCacheDiverged`.
        """
        projected = summary_projection(summary)
        existing = self.get(fingerprint)
        if existing is not None:
            if existing == projected:
                return False
            raise WearerCacheDiverged(
                f"wearer cache entry {fingerprint} already holds different "
                "bytes — two executions of the same wearer disagreed"
            )
        blob = (
            seal_envelope(projected, WEARER_CACHE_VERSION, key="summary")
            + "\n"
        )
        self._write_atomic(self.path_for(fingerprint), blob)
        _count("cache.wearer_stores")
        self._touch(fingerprint, size=len(blob.encode("utf-8")))
        self._evict_over_caps(protect=fingerprint)
        self._save_index()
        return True

    def prefetch(
        self, preset: str, wearers
    ) -> Dict[str, dict]:
        """wearer_id → cached summary for every hit among ``wearers``
        (the coordinator's lease-response piggyback)."""
        out: Dict[str, dict] = {}
        for wearer in wearers:
            if isinstance(wearer, dict):
                wearer = WearerSpec.from_dict(wearer)
            summary = self.get(wearer_fingerprint(preset, wearer))
            if summary is not None:
                out[wearer.wearer_id] = summary
        return out

    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(
            1
            for p in self.directory.iterdir()
            if p.suffix == ".json"
            and p.name != INDEX_FILENAME
            and not p.name.endswith(".tmp")
        )

    def __repr__(self) -> str:
        return f"WearerResultCache({str(self.directory)!r})"
