"""Crash-safe run journal: checkpoint/resume for Algorithm 1 campaigns.

A :class:`RunJournal` is an append-only, fsynced JSONL file recording the
*logical trajectory* of one exploration run — every evaluated candidate
(with its full simulation record and accept/reject verdict) and every
MILP cut, in the exact order Algorithm 1 produced them — plus a manifest
line that fingerprints everything the trajectory depends on (scenario
fingerprint, PDR bound, chance-constraint quantile, fault ensemble,
explorer switches).  Because each line is flushed and ``fsync``'d before
the run advances, a SIGKILL at any point loses at most the line being
written, and that torn tail is detected (per-line CRC32) and dropped on
resume.

Resume protocol (``hi-explore solve/robust --resume <dir>``):

1. The journal is replayed: the manifest must match the resumed run's
   arguments field-for-field, and every journaled candidate's
   :class:`~repro.core.evaluator.EvaluationRecord` is *preloaded* into the
   simulation oracle (:meth:`SimulationOracle.preload_journal`), where its
   first touch counts as a simulation — not a cache hit — so counters,
   summaries, and traces of the resumed run are identical to an
   uninterrupted one.
2. Algorithm 1 then runs from iteration 0.  MILP levels are re-solved
   (cheap — warm-started, and orders of magnitude below simulation cost)
   while every journaled candidate evaluation is answered from the replay
   set with zero new simulations; the cut sequence regenerates itself and
   is *verified* against the journaled cuts as the loop advances
   (:meth:`RunJournal.cut`), so solver state is restored by validated
   replay rather than trusted blindly.
3. Past the journaled prefix the run continues live, appending new
   entries to the same file — a run can be killed and resumed any number
   of times and still produce the bit-identical final result, summary,
   and golden trace of a never-interrupted run.

Any divergence between the replaying run and the journal (different
candidate, different verdict, different cut) raises :class:`JournalError`
instead of silently producing a franken-trajectory.
"""

from __future__ import annotations

import json
import os
import pathlib
import zlib
from typing import Dict, Iterable, List, Optional

#: Bumped when the journal line schema changes incompatibly.
JOURNAL_VERSION = 1

#: File name of the journal inside its run directory.
JOURNAL_FILENAME = "journal.jsonl"

#: File name of the deterministic run summary written next to the journal.
SUMMARY_FILENAME = "summary.json"

#: Campaign-directory layout (see DESIGN.md §11): the campaign manifest
#: pins the spec + fingerprint, each shard directory carries its own
#: manifest linking back to the campaign fingerprint, and every wearer
#: run inside a shard is an ordinary journaled run directory.
CAMPAIGN_MANIFEST_FILENAME = "campaign.json"
SHARD_MANIFEST_FILENAME = "shard.json"
SHARDS_DIRNAME = "shards"

#: Lease/commit record log of a distributed (fleet-executed) campaign —
#: the durable state of the coordinator's shard queue (DESIGN.md §12).
QUEUE_LOG_FILENAME = "queue.jsonl"

#: ``oracle_stats`` keys that are deterministic across interrupted/resumed
#: and uninterrupted runs of the same campaign (wall-clock-derived keys are
#: not, and are stripped from the summary projection).
DETERMINISTIC_STAT_KEYS = (
    "simulations_run",
    "cache_hits",
    "ensemble_size",
    "ensemble_evaluations",
)


class JournalError(RuntimeError):
    """A journal could not be created, replayed, or matched to its run."""


def canonical_json(payload) -> str:
    """The one canonical JSON spelling (sorted keys, no whitespace) that
    every fingerprint, CRC and content digest in the package hashes."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def payload_crc(payload: dict) -> str:
    """CRC32 (8 hex digits) of a payload's canonical JSON form — the
    integrity token of journal lines, manifests, cache envelopes and
    idempotent shard commits (any two parties computing this over the
    same dict agree, because canonicalization sorts keys and fixes
    separators)."""
    return format(zlib.crc32(canonical_json(payload).encode("utf-8")), "08x")


def _load_entries(path: pathlib.Path):
    """Replay a journal file, verifying per-line CRCs.

    A torn *final* line (the crash-mid-append case) is dropped silently;
    a bad line anywhere else means the fsynced prefix itself is damaged,
    which is not survivable — that raises :class:`JournalError`.

    Returns ``(entries, valid_bytes)`` where ``valid_bytes`` is the byte
    length of the intact prefix: everything past it is the torn tail,
    which :meth:`RunJournal.resume` physically truncates away so the
    append handle never writes after a fragment.
    """
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.readlines()
    lines = [
        (i, line.strip()) for i, line in enumerate(raw) if line.strip()
    ]
    entries: List[dict] = []
    last_index = lines[-1][0] if lines else -1
    valid_bytes = 0
    offset = 0
    offsets = []
    for line in raw:
        offset += len(line.encode("utf-8"))
        offsets.append(offset)
    for i, line in lines:
        entry: Optional[dict] = None
        try:
            wrapper = json.loads(line)
            if (
                isinstance(wrapper, dict)
                and isinstance(wrapper.get("entry"), dict)
                and wrapper.get("crc") == payload_crc(wrapper["entry"])
            ):
                entry = wrapper["entry"]
        except ValueError:
            entry = None
        if entry is None:
            if i == last_index:
                break  # torn tail from a kill mid-append: drop it
            raise JournalError(
                f"corrupt journal line {i + 1} in {path} (not a torn "
                "tail); the journal cannot be trusted"
            )
        entries.append(entry)
        valid_bytes = offsets[i]
    return entries, valid_bytes


def summary_projection(payload: dict) -> dict:
    """The deterministic projection of an ``ExplorationResult.to_dict()``.

    Strips wall-clock fields and reduces ``oracle_stats`` to the keys in
    :data:`DETERMINISTIC_STAT_KEYS`; what remains is bit-identical between
    an uninterrupted run and any kill/resume sequence of the same
    campaign — the artifact the chaos-smoke CI job diffs.
    """
    out = dict(payload)
    out.pop("wall_seconds", None)
    stats = out.get("oracle_stats") or {}
    out["oracle_stats"] = {
        k: stats[k] for k in DETERMINISTIC_STAT_KEYS if k in stats
    }
    return out


def write_summary(directory, payload: dict) -> pathlib.Path:
    """Atomically write the deterministic run summary into ``directory``."""
    directory = pathlib.Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / SUMMARY_FILENAME
    tmp = directory / (SUMMARY_FILENAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(summary_projection(payload), fh, indent=1, sort_keys=True)
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


# -- multi-shard campaign manifests ----------------------------------------------
#
# A campaign directory holds many journaled runs (one per wearer) spread
# over shard subdirectories.  The linkage is CRC-checked JSON manifests:
# ``campaign.json`` at the root pins the campaign spec and fingerprint,
# and each ``shards/shard-NN/shard.json`` pins the same fingerprint plus
# its wearer list.  ``load_campaign_shards`` re-validates the whole chain
# on resume, so a campaign directory can never silently mix trajectories
# from two different specs (the per-run analogue is the RunJournal
# manifest check above).


def _write_checked_json(path: pathlib.Path, payload: dict) -> pathlib.Path:
    """Atomically write ``{"crc": ..., "manifest": payload}``."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(
            {"crc": payload_crc(payload), "manifest": payload},
            fh,
            indent=1,
            sort_keys=True,
        )
        fh.write("\n")
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)
    return path


def _load_checked_json(path: pathlib.Path, what: str) -> dict:
    path = pathlib.Path(path)
    if not path.exists():
        raise JournalError(f"no {what} at {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            wrapper = json.load(fh)
    except ValueError as exc:
        raise JournalError(f"unreadable {what} at {path}: {exc}") from None
    manifest = wrapper.get("manifest") if isinstance(wrapper, dict) else None
    if not isinstance(manifest, dict) or (
        wrapper.get("crc") != payload_crc(manifest)
    ):
        raise JournalError(f"corrupt {what} at {path} (CRC mismatch)")
    return manifest


def shard_directory(campaign_dir, index: int) -> pathlib.Path:
    return pathlib.Path(campaign_dir) / SHARDS_DIRNAME / f"shard-{index:02d}"


def write_campaign_manifest(
    campaign_dir, spec_dict: dict, fingerprint: str, shards: int
) -> pathlib.Path:
    payload = {
        "kind": "campaign_manifest",
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "shards": int(shards),
        "spec": spec_dict,
    }
    return _write_checked_json(
        pathlib.Path(campaign_dir) / CAMPAIGN_MANIFEST_FILENAME, payload
    )


def load_campaign_manifest(campaign_dir) -> dict:
    manifest = _load_checked_json(
        pathlib.Path(campaign_dir) / CAMPAIGN_MANIFEST_FILENAME,
        "campaign manifest",
    )
    if manifest.get("kind") != "campaign_manifest":
        raise JournalError(
            f"{campaign_dir}: campaign.json is not a campaign manifest"
        )
    if manifest.get("version") != JOURNAL_VERSION:
        raise JournalError(
            f"campaign manifest version {manifest.get('version')} in "
            f"{campaign_dir} is not version {JOURNAL_VERSION}"
        )
    return manifest


def write_shard_manifest(
    campaign_dir, index: int, fingerprint: str, wearer_ids: List[str]
) -> pathlib.Path:
    payload = {
        "kind": "shard_manifest",
        "version": JOURNAL_VERSION,
        "fingerprint": fingerprint,
        "index": int(index),
        "wearers": list(wearer_ids),
    }
    return _write_checked_json(
        shard_directory(campaign_dir, index) / SHARD_MANIFEST_FILENAME, payload
    )


def load_campaign_shards(campaign_dir) -> List[dict]:
    """Load and cross-validate every shard manifest of a campaign.

    Each shard must carry the campaign manifest's fingerprint and its
    directory's own index; any mismatch means the directory holds pieces
    of different campaigns and raises :class:`JournalError` instead of
    letting an aggregate silently fuse them.  Returns the shard manifests
    sorted by index.
    """
    campaign_dir = pathlib.Path(campaign_dir)
    campaign = load_campaign_manifest(campaign_dir)
    fingerprint = campaign.get("fingerprint")
    shards_root = campaign_dir / SHARDS_DIRNAME
    manifests: List[dict] = []
    if shards_root.exists():
        for entry in sorted(shards_root.iterdir()):
            if not entry.is_dir():
                continue
            manifest = _load_checked_json(
                entry / SHARD_MANIFEST_FILENAME, "shard manifest"
            )
            if manifest.get("fingerprint") != fingerprint:
                raise JournalError(
                    f"shard manifest {entry / SHARD_MANIFEST_FILENAME} "
                    f"belongs to campaign {manifest.get('fingerprint')!r}, "
                    f"not {fingerprint!r} — refusing to mix campaigns"
                )
            expected = f"shard-{manifest.get('index'):02d}"
            if entry.name != expected:
                raise JournalError(
                    f"shard directory {entry} holds manifest index "
                    f"{manifest.get('index')!r}"
                )
            manifests.append(manifest)
    manifests.sort(key=lambda m: m["index"])
    seen: set = set()
    for manifest in manifests:
        for wearer in manifest.get("wearers", ()):
            if wearer in seen:
                raise JournalError(
                    f"wearer {wearer!r} appears in two shard manifests "
                    f"under {campaign_dir}"
                )
            seen.add(wearer)
    return manifests


class EventLog:
    """Append-only, fsynced, CRC-framed JSONL log of plain dict events.

    The generic sibling of :class:`RunJournal`: same wire format (one
    ``{"crc", "entry"}`` wrapper per line), same torn-tail semantics (a
    kill mid-append loses at most the line being written; the fragment is
    detected on open and physically truncated), but no replay cursor or
    trajectory verification — it is a durable record, not a checkpoint.
    The campaign fabric stores its lease/commit records in one of these
    (``queue.jsonl``), which is what lets a restarted coordinator recover
    every in-flight lease instead of forgetting who holds what.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        self._entries: List[dict] = []
        if self.path.exists():
            entries, valid_bytes = _load_entries(self.path)
            if valid_bytes < self.path.stat().st_size:
                with open(self.path, "r+b") as fh:
                    fh.truncate(valid_bytes)
                    fh.flush()
                    os.fsync(fh.fileno())
            self._entries = entries
        else:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = open(self.path, "a", encoding="utf-8")

    @property
    def entries(self) -> List[dict]:
        return list(self._entries)

    def append(self, entry: dict) -> dict:
        """Durably append one event (flushed + fsynced before returning)."""
        if self._fh is None:
            raise JournalError(f"event log {self.path} is closed")
        line = json.dumps({"crc": payload_crc(entry), "entry": entry})
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._entries.append(entry)
        return entry

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    @staticmethod
    def follow(path) -> "EventLogFollower":
        """Open a read-only incremental reader over a (possibly live)
        event log — see :class:`EventLogFollower`.  Unlike constructing
        an :class:`EventLog`, following never opens the file for append
        and never truncates a torn tail, so a standby can tail the
        primary's log without interfering with the writer."""
        return EventLogFollower(path)

    def __enter__(self) -> "EventLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"EventLog({str(self.path)!r}, entries={len(self._entries)})"


class EventLogFollower:
    """Incremental, read-only reader over a live :class:`EventLog` file.

    ``poll()`` returns every *whole, CRC-valid* record appended since the
    previous poll.  The writer appends each record as one
    ``json + "\\n"`` write, so a concurrent reader can observe three
    states of the tail: nothing yet, a torn prefix of the line (no
    terminating newline — withheld until complete), or the full line
    (CRC-checked, then surfaced).  A *newline-terminated* line that fails
    its CRC is never possible from a torn write (fragments lack the
    terminator), so it is held back and retried — if the writer
    truncated a torn tail on restart the bytes simply disappear under
    us, which ``poll`` detects as file shrinkage and handles by
    re-reading from the last consumed offset.

    The follower holds no file handle between polls and never writes, so
    any number of them can tail one log without coordination.
    """

    def __init__(self, path) -> None:
        self.path = pathlib.Path(path)
        #: Byte length of the consumed, CRC-valid prefix.
        self._offset = 0

    def poll(self) -> List[dict]:
        """Every whole CRC-valid record appended since the last poll."""
        try:
            with open(self.path, "rb") as fh:
                fh.seek(0, os.SEEK_END)
                size = fh.tell()
                if size < self._offset:
                    # The file shrank (writer restart truncated a torn
                    # tail past our consumed prefix, or the log was
                    # replaced): drop back to the start of the file so
                    # the next read realigns on a line boundary.
                    self._offset = 0
                fh.seek(self._offset)
                blob = fh.read()
        except FileNotFoundError:
            self._offset = 0
            return []
        out: List[dict] = []
        consumed = 0
        while True:
            newline = blob.find(b"\n", consumed)
            if newline < 0:
                break  # torn tail (no terminator yet): withhold
            line = blob[consumed : newline + 1]
            text = line.strip()
            if not text:
                consumed = newline + 1
                continue
            entry: Optional[dict] = None
            try:
                wrapper = json.loads(text.decode("utf-8"))
                if (
                    isinstance(wrapper, dict)
                    and isinstance(wrapper.get("entry"), dict)
                    and wrapper.get("crc") == payload_crc(wrapper["entry"])
                ):
                    entry = wrapper["entry"]
            except (ValueError, UnicodeDecodeError):
                entry = None
            if entry is None:
                # A complete line that fails its CRC: not a torn write
                # (those lack the newline), so either mid-truncation
                # churn or corruption.  Hold position; a later poll
                # re-reads once the writer has settled.
                break
            out.append(entry)
            consumed = newline + 1
        self._offset += consumed
        return out

    def __repr__(self) -> str:
        return (
            f"EventLogFollower({str(self.path)!r}, offset={self._offset})"
        )


class RunJournal:
    """One run's append-only checkpoint log (see the module docstring).

    Use the :meth:`create` / :meth:`resume` constructors; the journal then
    rides along inside
    :meth:`~repro.core.explorer.HumanIntranetExplorer.explore` or
    :meth:`~repro.core.explorer.HumanIntranetExplorer.explore_robust`,
    which call :meth:`candidate` / :meth:`robust_candidate` / :meth:`cut`
    as the trajectory advances.  While the replay cursor is inside the
    journaled prefix those calls *verify* instead of write; past it they
    append.
    """

    def __init__(
        self,
        directory: pathlib.Path,
        manifest: dict,
        entries: List[dict],
        fh,
    ) -> None:
        self.directory = pathlib.Path(directory)
        self.path = self.directory / JOURNAL_FILENAME
        self.manifest = manifest
        self._entries = entries
        self._cursor = 0
        self._fh = fh

    # -- constructors ------------------------------------------------------------

    @classmethod
    def create(cls, directory, **manifest) -> "RunJournal":
        """Start a fresh journal in ``directory`` (must not hold one)."""
        directory = pathlib.Path(directory)
        path = directory / JOURNAL_FILENAME
        if path.exists():
            raise JournalError(
                f"{path} already exists; use --resume to continue that "
                "run (or point --out at a fresh directory)"
            )
        directory.mkdir(parents=True, exist_ok=True)
        fh = open(path, "a", encoding="utf-8")
        manifest_entry = {
            "kind": "manifest",
            "version": JOURNAL_VERSION,
            **manifest,
        }
        journal = cls(directory, manifest_entry, [], fh)
        journal._append(manifest_entry)
        return journal

    @classmethod
    def resume(cls, directory, **expected_manifest) -> "RunJournal":
        """Reopen a journal, verifying its manifest against the resumed
        run's arguments.  Returns a journal whose replay cursor covers the
        recorded prefix."""
        directory = pathlib.Path(directory)
        path = directory / JOURNAL_FILENAME
        if not path.exists():
            raise JournalError(f"no journal to resume at {path}")
        entries, valid_bytes = _load_entries(path)
        if valid_bytes < path.stat().st_size:
            # physically drop the torn tail: the append handle must
            # start at a clean line boundary, or the fragment would
            # fuse with the next entry and corrupt the journal
            with open(path, "r+b") as fh:
                fh.truncate(valid_bytes)
                fh.flush()
                os.fsync(fh.fileno())
        if not entries or entries[0].get("kind") != "manifest":
            raise JournalError(f"{path} has no readable manifest line")
        manifest = entries[0]
        if manifest.get("version") != JOURNAL_VERSION:
            raise JournalError(
                f"journal version {manifest.get('version')} in {path} is "
                f"not version {JOURNAL_VERSION}"
            )
        for key, value in expected_manifest.items():
            if manifest.get(key) != value:
                raise JournalError(
                    f"journal manifest mismatch on {key!r}: journal has "
                    f"{manifest.get(key)!r}, the resumed run supplies "
                    f"{value!r} — refusing to mix trajectories"
                )
        fh = open(path, "a", encoding="utf-8")
        return cls(directory, manifest, entries[1:], fh)

    # -- low-level append --------------------------------------------------------

    def _append(self, entry: dict) -> None:
        if self._fh is None:
            raise JournalError("journal is closed")
        line = json.dumps({"crc": payload_crc(entry), "entry": entry})
        self._fh.write(line + "\n")
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def _record(self, entry: dict, what: str) -> bool:
        """Advance the replay cursor (verifying) or append ``entry``.

        Returns ``True`` when the entry was newly appended, ``False`` when
        it matched the journaled prefix.
        """
        if self._cursor < len(self._entries):
            expected = self._entries[self._cursor]
            if expected != entry:
                raise JournalError(
                    f"resumed trajectory diverged from the journal at "
                    f"entry {self._cursor + 1} ({what}): journal has "
                    f"{canonical_json(expected)[:200]}, the run produced "
                    f"{canonical_json(entry)[:200]}"
                )
            self._cursor += 1
            return False
        self._append(entry)
        self._entries.append(entry)
        self._cursor += 1
        return True

    # -- trajectory recording ----------------------------------------------------

    def candidate(self, record, accepted: bool) -> bool:
        """Record one nominal candidate evaluation and its verdict."""
        from repro.core.result_cache import record_to_dict

        entry = {
            "kind": "candidate",
            "record": record_to_dict(record),
            "accepted": bool(accepted),
        }
        return self._record(entry, "candidate")

    def robust_candidate(self, resilience_record, accepted: bool) -> bool:
        """Record one chance-constrained candidate: the healthy record
        plus every per-fault-world record, keyed by scenario name."""
        from repro.core.result_cache import record_to_dict

        entry = {
            "kind": "robust_candidate",
            "healthy": record_to_dict(resilience_record.healthy),
            "faulted": [
                [scenario.name, record_to_dict(rec)]
                for scenario, rec in resilience_record.faulted
            ],
            "accepted": bool(accepted),
        }
        return self._record(entry, "robust candidate")

    def cut(self, p_star_mw: float) -> bool:
        """Record one MILP cut (floats round-trip JSON exactly, so replay
        verification is bit-exact)."""
        entry = {"kind": "cut", "p_star_mw": float(p_star_mw)}
        return self._record(entry, "cut")

    # -- replay access -----------------------------------------------------------

    @property
    def entries(self) -> List[dict]:
        return list(self._entries)

    def replay_cuts(self) -> List[float]:
        return [
            e["p_star_mw"] for e in self._entries if e.get("kind") == "cut"
        ]

    def replay_records(self) -> List[object]:
        """Every journaled nominal :class:`EvaluationRecord`, in order."""
        from repro.core.result_cache import record_from_dict

        return [
            record_from_dict(e["record"])
            for e in self._entries
            if e.get("kind") == "candidate"
        ]

    def replay_robust_payloads(self) -> List[dict]:
        """Journaled robust candidates as raw payload dicts (the ensemble
        oracle deserializes them into its per-fault-world sub-oracles)."""
        return [
            e for e in self._entries if e.get("kind") == "robust_candidate"
        ]

    def preload_into(self, oracle) -> int:
        """Feed the journaled nominal records into a simulation oracle's
        replay set; returns the number of preloaded records."""
        records = self.replay_records()
        oracle.preload_journal(records)
        return len(records)

    def preload_robust_into(self, ensemble_oracle) -> int:
        """Feed the journaled robust records into an ensemble oracle's
        per-fault-world sub-oracles; returns the number of candidates."""
        payloads = self.replay_robust_payloads()
        ensemble_oracle.preload_journal(payloads)
        return len(payloads)

    # -- lifecycle ---------------------------------------------------------------

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def __enter__(self) -> "RunJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"RunJournal({str(self.path)!r}, entries={len(self._entries)}, "
            f"cursor={self._cursor})"
        )
