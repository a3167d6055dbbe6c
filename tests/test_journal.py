"""Checkpoint/resume tests for the crash-safe run journal.

Unit layer: CRC framing, torn-tail tolerance, corruption detection,
manifest verification, divergence detection, summary projection.

Integration layer: the contract the journal exists for — kill an
exploration campaign at an arbitrary journal prefix (including a torn
final line), resume it, and get the bit-identical final result, summary
projection, and golden-trace projection of a never-interrupted run, with
every journaled candidate answered by replay instead of re-simulation.
Both the nominal (``explore``) and chance-constrained
(``explore_robust``) paths are exercised, including a resume of a
resumed run (double kill).
"""

import json

import pytest

from repro.analysis.trace_report import explorer_sequence
from repro.core.explorer import HumanIntranetExplorer
from repro.core.journal import (
    JOURNAL_FILENAME,
    JournalError,
    RunJournal,
    SUMMARY_FILENAME,
    canonical_json,
    payload_crc,
    summary_projection,
    write_summary,
)
from repro.experiments.scenario import get_preset, make_problem
from repro.faults.model import hub_stress_ensemble
from repro.faults.resilience import EnsembleOracle
from repro.obs import Instrumentation, MetricsRegistry, TraceWriter, read_trace

from tests.test_golden_trace import (
    PDR_MIN,
    PRESET,
    ROBUST_ENSEMBLE_SIZE,
    ROBUST_OUTAGE_FRACTION,
    ROBUST_PDR_MIN,
    ROBUST_QUANTILE,
    ROBUST_SEED,
    SEED,
)

# ---------------------------------------------------------------------------
# unit layer
# ---------------------------------------------------------------------------


def test_create_refuses_existing_journal(tmp_path):
    with RunJournal.create(tmp_path, command="t"):
        pass
    with pytest.raises(JournalError, match="already exists"):
        RunJournal.create(tmp_path, command="t")


def test_resume_requires_a_journal(tmp_path):
    with pytest.raises(JournalError, match="no journal to resume"):
        RunJournal.resume(tmp_path / "nowhere")


def test_roundtrip_and_replay_cursor(tmp_path):
    with RunJournal.create(tmp_path, command="t", seed=7) as journal:
        assert journal.cut(1.25) is True  # appended
        assert journal.cut(2.5) is True
    with RunJournal.resume(tmp_path, command="t", seed=7) as journal:
        assert journal.replay_cuts() == [1.25, 2.5]
        # inside the prefix the same trajectory verifies, not re-appends
        assert journal.cut(1.25) is False
        assert journal.cut(2.5) is False
        # past the prefix it appends again
        assert journal.cut(3.75) is True
    with RunJournal.resume(tmp_path, command="t", seed=7) as journal:
        assert journal.replay_cuts() == [1.25, 2.5, 3.75]


def test_manifest_mismatch_is_rejected(tmp_path):
    with RunJournal.create(tmp_path, command="t", pdr_min=0.9):
        pass
    with pytest.raises(JournalError, match="manifest mismatch on 'pdr_min'"):
        RunJournal.resume(tmp_path, command="t", pdr_min=0.85)
    # keys the resumed run does not supply are not checked
    with RunJournal.resume(tmp_path, command="t"):
        pass


def test_version_mismatch_is_rejected(tmp_path):
    entry = {"kind": "manifest", "version": 999}
    line = json.dumps({"crc": payload_crc(entry), "entry": entry})
    (tmp_path / JOURNAL_FILENAME).write_text(line + "\n")
    with pytest.raises(JournalError, match="version 999"):
        RunJournal.resume(tmp_path)


def test_torn_final_line_is_dropped(tmp_path):
    with RunJournal.create(tmp_path, command="t") as journal:
        journal.cut(1.0)
        journal.cut(2.0)
    path = tmp_path / JOURNAL_FILENAME
    data = path.read_bytes()
    last_line_start = data[:-1].rfind(b"\n") + 1
    # kill mid-append: only half of the final line made it to disk
    path.write_bytes(data[: last_line_start + 20])
    with RunJournal.resume(tmp_path, command="t") as journal:
        assert journal.replay_cuts() == [1.0]


def test_midfile_corruption_is_fatal(tmp_path):
    with RunJournal.create(tmp_path, command="t") as journal:
        journal.cut(1.0)
        journal.cut(2.0)
    path = tmp_path / JOURNAL_FILENAME
    lines = path.read_text().splitlines()
    lines[1] = lines[1][:-10]  # damage an *interior* (fsynced) line
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(JournalError, match="corrupt journal line 2"):
        RunJournal.resume(tmp_path, command="t")


def test_divergent_resumed_trajectory_is_fatal(tmp_path):
    with RunJournal.create(tmp_path, command="t") as journal:
        journal.cut(1.0)
    with RunJournal.resume(tmp_path, command="t") as journal:
        with pytest.raises(JournalError, match="diverged"):
            journal.cut(9.0)


def test_summary_projection_strips_nondeterminism():
    payload = {
        "found": True,
        "wall_seconds": 12.5,
        "oracle_stats": {
            "simulations_run": 16,
            "cache_hits": 3,
            "journal_replayed": 5,
            "elapsed_seconds": 4.2,
            "n_jobs": 8,
        },
    }
    projected = summary_projection(payload)
    assert projected == {
        "found": True,
        "oracle_stats": {"simulations_run": 16, "cache_hits": 3},
    }
    # input is not mutated
    assert "wall_seconds" in payload


def test_write_summary_is_projected_and_stable(tmp_path):
    payload = {"found": True, "wall_seconds": 3.0, "oracle_stats": {}}
    path = write_summary(tmp_path, payload)
    assert path == tmp_path / SUMMARY_FILENAME
    on_disk = json.loads(path.read_text())
    assert on_disk == summary_projection(payload)
    assert "wall_seconds" not in on_disk


# ---------------------------------------------------------------------------
# integration layer: kill/resume equivalence
# ---------------------------------------------------------------------------


def _explore_manifest():
    return dict(command="test-explore", preset=PRESET, seed=SEED,
                pdr_min=PDR_MIN)


def _robust_manifest():
    return dict(command="test-robust", preset=PRESET, seed=ROBUST_SEED,
                pdr_min=ROBUST_PDR_MIN, quantile=ROBUST_QUANTILE)


def run_explore(trace_path, journal=None):
    """One seeded nominal campaign; mirrors the golden-trace reference."""
    problem = make_problem(PDR_MIN, PRESET, seed=SEED, n_jobs=1)
    preset = get_preset(PRESET)
    with TraceWriter(trace_path) as tracer:
        obs = Instrumentation(MetricsRegistry(), tracer)
        explorer = HumanIntranetExplorer(
            problem, candidate_cap=preset.candidate_cap, obs=obs
        )
        try:
            result = explorer.explore(journal=journal)
            replayed = explorer.oracle.journal_replayed
        finally:
            explorer.oracle.close()
    assert result.found
    return (
        summary_projection(result.to_dict()),
        replayed,
        explorer_sequence(read_trace(trace_path)),
    )


def run_robust(trace_path, journal=None):
    """One seeded chance-constrained campaign (pinned E4 regime)."""
    problem = make_problem(ROBUST_PDR_MIN, PRESET, seed=ROBUST_SEED, n_jobs=1)
    preset = get_preset(PRESET)
    ensemble = hub_stress_ensemble(
        problem.scenario.tsim_s,
        coordinator=problem.scenario.coordinator_location,
        outage_fraction=ROBUST_OUTAGE_FRACTION,
        size=ROBUST_ENSEMBLE_SIZE,
    )
    with TraceWriter(trace_path) as tracer:
        obs = Instrumentation(MetricsRegistry(), tracer)
        with EnsembleOracle(
            problem.scenario, ensemble, n_jobs=1, obs=obs
        ) as oracle:
            result = HumanIntranetExplorer(
                problem, candidate_cap=preset.candidate_cap, obs=obs
            ).explore_robust(
                oracle, quantile=ROBUST_QUANTILE, journal=journal
            )
            # one registry is shared by every sub-oracle, so the healthy
            # oracle's counter is the ensemble-wide replay total
            replayed = oracle.healthy_oracle.journal_replayed
    assert result.found
    return (
        summary_projection(result.to_dict()),
        replayed,
        explorer_sequence(read_trace(trace_path)),
    )


def _kill_at(journal_path, n_entries, torn_bytes=25):
    """Truncate a finished journal to its manifest plus ``n_entries``
    entries, then append a torn fragment of the next line — exactly the
    on-disk state after a SIGKILL mid-append."""
    lines = journal_path.read_text().splitlines()
    assert len(lines) > n_entries + 1, "truncation point beyond journal"
    kept = lines[: n_entries + 1]
    torn = lines[n_entries + 1][:torn_bytes]
    journal_path.write_text("\n".join(kept) + "\n" + torn)
    return [json.loads(line)["entry"] for line in kept[1:]]


def _candidate_count(entries, kind="candidate"):
    return sum(1 for e in entries if e.get("kind") == kind)


def test_explore_kill_resume_is_bit_identical(tmp_path):
    ref_summary, ref_replayed, ref_seq = run_explore(tmp_path / "ref.jsonl")
    assert ref_replayed == 0

    # full journaled run: trajectory identical, journal holds the prefix
    run_dir = tmp_path / "run"
    with RunJournal.create(run_dir, **_explore_manifest()) as journal:
        full_summary, _, full_seq = run_explore(
            tmp_path / "journaled.jsonl", journal=journal
        )
    assert full_summary == ref_summary
    assert full_seq == ref_seq
    journal_path = run_dir / JOURNAL_FILENAME
    total_lines = len(journal_path.read_text().splitlines())
    assert total_lines > 4

    # kill #1: keep 3 entries + a torn tail, then resume to completion
    prefix = _kill_at(journal_path, 3)
    with RunJournal.resume(run_dir, **_explore_manifest()) as journal:
        summary1, replayed1, seq1 = run_explore(
            tmp_path / "resume1.jsonl", journal=journal
        )
    assert summary1 == ref_summary
    assert seq1 == ref_seq
    # zero re-simulation of the journaled prefix: every journaled
    # candidate was answered by replay adoption
    assert replayed1 == _candidate_count(prefix)
    # resume healed the torn tail and re-extended the journal in full
    assert len(journal_path.read_text().splitlines()) == total_lines

    # kill #2 (a later point, in the journal already extended by resume
    # #1), proving multi-kill/resume chains converge to the same run
    prefix2 = _kill_at(journal_path, total_lines - 3)
    with RunJournal.resume(run_dir, **_explore_manifest()) as journal:
        summary2, replayed2, seq2 = run_explore(
            tmp_path / "resume2.jsonl", journal=journal
        )
    assert summary2 == ref_summary
    assert seq2 == ref_seq
    assert replayed2 == _candidate_count(prefix2)
    assert len(journal_path.read_text().splitlines()) == total_lines


def test_explore_resume_of_complete_journal_appends_nothing(tmp_path):
    ref_summary, _, ref_seq = run_explore(tmp_path / "ref.jsonl")
    run_dir = tmp_path / "run"
    with RunJournal.create(run_dir, **_explore_manifest()) as journal:
        run_explore(tmp_path / "journaled.jsonl", journal=journal)
    journal_path = run_dir / JOURNAL_FILENAME
    before = journal_path.read_bytes()
    with RunJournal.resume(run_dir, **_explore_manifest()) as journal:
        summary, replayed, seq = run_explore(
            tmp_path / "resumed.jsonl", journal=journal
        )
    assert (summary, seq) == (ref_summary, ref_seq)
    assert replayed == _candidate_count(
        [json.loads(l)["entry"] for l in before.decode().splitlines()]
    )
    # pure replay: the journal file is byte-identical afterwards
    assert journal_path.read_bytes() == before


def test_robust_kill_resume_is_bit_identical(tmp_path):
    ref_summary, ref_replayed, ref_seq = run_robust(tmp_path / "ref.jsonl")
    assert ref_replayed == 0

    run_dir = tmp_path / "run"
    with RunJournal.create(run_dir, **_robust_manifest()) as journal:
        full_summary, _, full_seq = run_robust(
            tmp_path / "journaled.jsonl", journal=journal
        )
    assert full_summary == ref_summary
    assert full_seq == ref_seq
    journal_path = run_dir / JOURNAL_FILENAME
    total_lines = len(journal_path.read_text().splitlines())
    assert total_lines > 3

    prefix = _kill_at(journal_path, 2)
    with RunJournal.resume(run_dir, **_robust_manifest()) as journal:
        summary, replayed, seq = run_robust(
            tmp_path / "resumed.jsonl", journal=journal
        )
    assert summary == ref_summary
    assert seq == ref_seq
    # each journaled robust candidate holds 1 healthy + ensemble-size
    # fault-world records, all of which must be answered by replay
    n_candidates = _candidate_count(prefix, kind="robust_candidate")
    assert replayed == n_candidates * (1 + ROBUST_ENSEMBLE_SIZE)
    assert len(journal_path.read_text().splitlines()) == total_lines


def test_resume_with_wrong_campaign_arguments_is_fatal(tmp_path):
    run_dir = tmp_path / "run"
    with RunJournal.create(run_dir, **_explore_manifest()) as journal:
        run_explore(tmp_path / "journaled.jsonl", journal=journal)
    wrong = dict(_explore_manifest(), pdr_min=0.5)
    with pytest.raises(JournalError, match="manifest mismatch"):
        RunJournal.resume(run_dir, **wrong)


class TestEventLog:
    """The generic CRC-framed append-only log behind the lease queue."""

    def test_round_trip_and_fsync_framing(self, tmp_path):
        from repro.core.journal import EventLog

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.append({"kind": "lease", "shard": 0})
            log.append({"kind": "commit", "shard": 0, "crc": "aa"})
        with EventLog(path) as log:
            kinds = [e["kind"] for e in log.entries]
            assert kinds == ["lease", "commit"]

    def test_torn_tail_is_truncated_on_open(self, tmp_path):
        from repro.core.journal import EventLog

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.append({"kind": "lease", "shard": 0})
        intact = path.stat().st_size
        with open(path, "a", encoding="utf-8") as fh:
            fh.write('{"kind": "commit", "sha')  # killed mid-write
        with EventLog(path) as log:
            assert [e["kind"] for e in log.entries] == ["lease"]
            # the torn bytes are gone from disk, not just skipped
            assert path.stat().st_size == intact
            log.append({"kind": "commit", "shard": 0})
        with EventLog(path) as log:
            assert [e["kind"] for e in log.entries] == ["lease", "commit"]

    def test_corrupt_frame_inside_the_prefix_is_fatal(self, tmp_path):
        from repro.core.journal import EventLog

        path = tmp_path / "events.jsonl"
        with EventLog(path) as log:
            log.append({"kind": "lease", "shard": 0})
            log.append({"kind": "commit", "shard": 0})
        lines = path.read_text().splitlines(keepends=True)
        # flip a byte inside the *first* frame: the fsynced prefix
        # itself is damaged, which is not survivable (unlike a torn
        # tail) and must refuse the whole log
        path.write_text(lines[0].replace("lease", "laese") + lines[1])
        with pytest.raises(JournalError, match="corrupt journal line"):
            EventLog(path)

    def test_payload_crc_is_canonical(self):
        a = payload_crc({"b": 1, "a": [1, 2]})
        b = payload_crc({"a": [1, 2], "b": 1})
        assert a == b and len(a) == 8 and a != payload_crc({"a": [2, 1]})
        # the exact bytes every journal, manifest, cache envelope and
        # fingerprint hashes: changing them orphans every file on disk
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'
        assert a == "378a8546"


class TestEventLogFollower:
    """The read-only incremental tail behind coordinator standbys."""

    def _records(self, n=4):
        return [{"kind": "state", "seq": i, "pad": "x" * i} for i in
                range(n)]

    def _blob(self, tmp_path, records):
        from repro.core.journal import EventLog

        path = tmp_path / "full.jsonl"
        with EventLog(path) as log:
            for record in records:
                log.append(record)
        return path.read_bytes()

    def test_tails_a_live_writer_incrementally(self, tmp_path):
        from repro.core.journal import EventLog

        path = tmp_path / "events.jsonl"
        follower = EventLog.follow(path)
        assert follower.poll() == []  # not created yet: empty, no error
        with EventLog(path) as log:
            log.append({"kind": "a"})
            assert [e["kind"] for e in follower.poll()] == ["a"]
            assert follower.poll() == []  # nothing new
            log.append({"kind": "b"})
            log.append({"kind": "c"})
            assert [e["kind"] for e in follower.poll()] == ["b", "c"]

    def test_every_truncation_point_yields_only_whole_records(
        self, tmp_path
    ):
        """Property test: cut the log at *every* byte offset.  A fresh
        follower over the cut file must surface exactly the records
        whose full ``json + "\\n"`` line fits in the prefix — never a
        partial or corrupt record — and must pick up the rest once the
        missing bytes land."""
        from repro.core.journal import EventLog

        records = self._records()
        blob = self._blob(tmp_path, records)
        boundaries = [
            i + 1 for i, byte in enumerate(blob) if byte == ord("\n")
        ]
        path = tmp_path / "cut.jsonl"
        for cut in range(len(blob) + 1):
            path.write_bytes(blob[:cut])
            follower = EventLog.follow(path)
            seen = follower.poll()
            whole = sum(1 for b in boundaries if b <= cut)
            assert seen == records[:whole], f"cut at byte {cut}"
            # the writer finishes the interrupted append: the follower
            # resumes mid-line and surfaces the remainder exactly once
            path.write_bytes(blob)
            assert seen + follower.poll() == records, f"cut at {cut}"

    def test_complete_but_corrupt_line_is_withheld_not_surfaced(
        self, tmp_path
    ):
        from repro.core.journal import EventLog

        records = self._records(2)
        blob = self._blob(tmp_path, records)
        first_end = blob.index(b"\n") + 1
        path = tmp_path / "corrupt.jsonl"
        # newline-terminated line whose CRC does not match its entry
        path.write_bytes(
            blob[:first_end]
            + blob[first_end:].replace(b'"seq": 1', b'"seq": 9')
        )
        follower = EventLog.follow(path)
        assert follower.poll() == records[:1]
        assert follower.poll() == []  # corrupt line still withheld
        # the damage heals (writer truncate-and-rewrite): full tail lands
        path.write_bytes(blob)
        assert follower.poll() == records[1:]

    def test_shrunk_file_realigns_from_the_start(self, tmp_path):
        from repro.core.journal import EventLog

        records = self._records(3)
        blob = self._blob(tmp_path, records)
        path = tmp_path / "shrink.jsonl"
        path.write_bytes(blob)
        follower = EventLog.follow(path)
        assert follower.poll() == records
        # the log is replaced with a shorter one (writer restart)
        second = self._records(1)
        path.write_bytes(self._blob(tmp_path / "alt", second))
        assert follower.poll() == second

    def test_follower_never_mutates_the_file(self, tmp_path):
        from repro.core.journal import EventLog

        blob = self._blob(tmp_path, self._records(2)) + b'{"torn'
        path = tmp_path / "readonly.jsonl"
        path.write_bytes(blob)
        follower = EventLog.follow(path)
        follower.poll()
        follower.poll()
        # an EventLog would truncate the torn tail; the follower must not
        assert path.read_bytes() == blob
