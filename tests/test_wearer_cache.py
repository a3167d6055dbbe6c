"""Cross-campaign wearer-result cache: fingerprints, store, integrity.

The cache's correctness rests on two claims this module pins directly:

1. :func:`~repro.campaign.wearer_cache.wearer_fingerprint` hashes
   exactly the result-relevant wearer fields — labels (``wearer_id``,
   ``cohort``) stay out, robust-mode knobs enter only in robust mode —
   so two campaigns naming the same wearer differently share an entry;
2. the summary bytes really are label-free: a real campaign run with
   two wearers that differ *only* in their labels produces byte-
   identical summary projections, which is what makes claim 1 safe.

Everything else is the store discipline: first-writer-wins idempotent
puts, loud divergence, quarantine-on-damage (a flipped bit costs a
re-simulation, never a wrong result).
"""

import dataclasses
import json

import pytest

from repro.campaign.spec import CampaignSpec, WearerSpec
from repro.campaign.wearer_cache import (
    WearerCacheDiverged,
    WearerResultCache,
    wearer_fingerprint,
)
from repro.core.journal import summary_projection


def _wearer(**overrides):
    base = dict(wearer_id="w0", seed=11, pdr_min=0.92)
    base.update(overrides)
    return WearerSpec(**base)


def _summary(tag="a"):
    return {
        "status": "infeasible",
        "best": None,
        "oracle_stats": {"simulations_run": 3, "cache_hits": 1},
        "tag": tag,
    }


def _put_many(directory, tag, count, start):
    cache = WearerResultCache(directory)
    start.wait()
    for i in range(count):
        cache.put(f"{tag}{i:04x}", _summary(tag))


class TestFingerprint:
    def test_stable_across_calls_and_instances(self):
        a = wearer_fingerprint("smoke", _wearer())
        b = wearer_fingerprint("smoke", _wearer())
        assert a == b
        assert len(a) == 16 and all(c in "0123456789abcdef" for c in a)

    def test_labels_do_not_enter_the_fingerprint(self):
        base = wearer_fingerprint("smoke", _wearer())
        renamed = wearer_fingerprint(
            "smoke", _wearer(wearer_id="other-name", cohort="clinic-b")
        )
        assert renamed == base

    def test_result_relevant_fields_all_enter(self):
        base = wearer_fingerprint("smoke", _wearer())
        assert wearer_fingerprint("ci", _wearer()) != base
        assert wearer_fingerprint("smoke", _wearer(seed=12)) != base
        assert wearer_fingerprint("smoke", _wearer(pdr_min=0.93)) != base
        assert (
            wearer_fingerprint("smoke", _wearer(mode="robust")) != base
        )

    def test_robust_knobs_ignored_in_solve_mode(self):
        # `solve` never reads the ensemble knobs, so they must not split
        # the cache key; in `robust` mode every one of them must.
        base = wearer_fingerprint("smoke", _wearer())
        assert (
            wearer_fingerprint("smoke", _wearer(ensemble_size=9))
            == base
        )
        robust = wearer_fingerprint("smoke", _wearer(mode="robust"))
        assert (
            wearer_fingerprint(
                "smoke", _wearer(mode="robust", ensemble_size=9)
            )
            != robust
        )
        assert (
            wearer_fingerprint(
                "smoke", _wearer(mode="robust", quantile=0.5)
            )
            != robust
        )

    def test_default_fault_seed_normalizes_to_wearer_seed(self):
        # The runner builds the fault ensemble from `fault_seed or seed`,
        # so the spelled-out and defaulted forms are the same ensemble
        # and must share one cache entry.
        spelled = wearer_fingerprint(
            "smoke", _wearer(mode="robust", fault_seed=11)
        )
        defaulted = wearer_fingerprint(
            "smoke", _wearer(mode="robust", fault_seed=None)
        )
        assert spelled == defaulted
        assert (
            wearer_fingerprint(
                "smoke", _wearer(mode="robust", fault_seed=12)
            )
            != spelled
        )


class TestSummaryBytesAreLabelFree:
    def test_renamed_wearer_produces_identical_summary_bytes(
        self, tmp_path
    ):
        """The physical claim behind cache sharing: two wearers that
        differ only in their labels simulate to byte-identical summary
        projections, so serving one's cached bytes as the other's
        summary is exact, not approximate."""
        from repro.campaign.runner import run_campaign
        from repro.core.journal import SUMMARY_FILENAME

        twins = CampaignSpec(
            name="twins",
            preset="smoke",
            wearers=(
                _wearer(wearer_id="alpha", cohort="a"),
                _wearer(wearer_id="beta", cohort="b"),
            ),
        )
        run_campaign(twins, tmp_path / "twins", jobs=1)
        blobs = {}
        for wid in ("alpha", "beta"):
            (path,) = (tmp_path / "twins").glob(
                f"shards/*/{wid}/{SUMMARY_FILENAME}"
            )
            blobs[wid] = json.dumps(
                summary_projection(json.loads(path.read_text())),
                sort_keys=True,
            )
        assert blobs["alpha"] == blobs["beta"]


class TestStore:
    def test_put_get_roundtrip_is_the_projection(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc")
        summary = _summary()
        assert cache.put("ab12", summary) is True
        assert cache.get("ab12") == summary_projection(summary)
        assert len(cache) == 1

    def test_put_is_first_writer_wins_idempotent(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc")
        cache.put("ab12", _summary())
        assert cache.put("ab12", _summary()) is False  # identical: no-op

    def test_divergent_put_raises(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc")
        cache.put("ab12", _summary("a"))
        with pytest.raises(WearerCacheDiverged):
            cache.put("ab12", _summary("b"))
        # the original bytes survived the attempt
        assert cache.get("ab12") == summary_projection(_summary("a"))

    def test_damaged_entry_quarantined_and_reported_as_miss(
        self, tmp_path
    ):
        cache = WearerResultCache(tmp_path / "wc")
        cache.put("ab12", _summary())
        path = cache.path_for("ab12")
        path.write_text(path.read_text()[:-10] + "corrupted!")
        assert cache.get("ab12") is None
        assert not path.exists()
        assert path.with_suffix(".json.quarantine").exists()
        # and the slot is usable again
        assert cache.put("ab12", _summary()) is True

    def test_old_format_entry_is_a_quarantined_miss(self, tmp_path):
        # an entry written before the wearer cache shared the journal's
        # framing: one re-simulation, never a wrong answer
        from repro.core.journal import payload_crc

        cache = WearerResultCache(tmp_path / "wc")
        path = cache.path_for("ab12")
        path.parent.mkdir(parents=True)
        body = summary_projection(_summary())
        path.write_text(
            json.dumps({"v": 1, "crc": payload_crc(body), "summary": body})
            + "\n"
        )
        assert cache.get("ab12") is None
        assert not path.exists()
        assert path.with_suffix(".json.quarantine").exists()
        assert cache.put("ab12", _summary()) is True
        assert cache.get("ab12") == body

    def test_bad_fingerprint_refused_before_touching_disk(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc")
        for bad in ("", "../escape", "UPPER", "has space"):
            with pytest.raises(ValueError):
                cache.path_for(bad)

    def test_prefetch_maps_only_hits(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc")
        hot = _wearer(wearer_id="hot")
        cold = _wearer(wearer_id="cold", seed=99)
        cache.put(wearer_fingerprint("smoke", hot), _summary())
        out = cache.prefetch("smoke", [hot, cold.to_dict()])
        assert set(out) == {"hot"}
        assert out["hot"] == summary_projection(_summary())

    def test_stored_bytes_are_the_projection_not_raw(self, tmp_path):
        # wall-clock fields are projected away before sealing, so a
        # repeat that differs only in them is the same entry, not a
        # divergence
        cache = WearerResultCache(tmp_path / "wc")
        fingerprint = wearer_fingerprint("smoke", _wearer())
        assert cache.put(fingerprint, dict(_summary(), wall_seconds=1.5))
        assert not cache.put(fingerprint, dict(_summary(), wall_seconds=9.0))
        assert cache.get(fingerprint) == summary_projection(_summary())

    def test_concurrent_writers_share_one_directory(self, tmp_path):
        """Processes storing different fingerprints into one directory
        at once (pool children sharing a worker's cache): every writer
        has its own temp file, so none dies on a rename race and every
        entry reads back."""
        import multiprocessing

        tags = ("a", "b", "c")  # more writers than a 2-core host has
        ctx = multiprocessing.get_context("spawn")
        start = ctx.Barrier(len(tags))
        writers = [
            ctx.Process(
                target=_put_many, args=(tmp_path / "wc", tag, 40, start)
            )
            for tag in tags
        ]
        for writer in writers:
            writer.start()
        for writer in writers:
            writer.join(120)
        assert [writer.exitcode for writer in writers] == [0] * len(tags)
        cache = WearerResultCache(tmp_path / "wc")
        for tag in tags:
            for i in range(40):
                assert cache.get(f"{tag}{i:04x}") == summary_projection(
                    _summary(tag)
                )
        assert not list((tmp_path / "wc").glob("*.tmp"))


class TestBoundedCache:
    """PR 10 caps: the store stays under ``max_bytes``/``max_entries``
    by LRU eviction, and eviction is always recoverable — an evicted
    entry is a clean miss that re-fills with byte-identical content."""

    def test_entry_cap_evicts_least_recently_used(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc", max_entries=2)
        cache.put("aa01", _summary("one"))
        cache.put("aa02", _summary("two"))
        # touch aa01 so aa02 becomes the LRU victim
        assert cache.get("aa01") is not None
        cache.put("aa03", _summary("three"))
        assert len(cache) == 2
        assert cache.get("aa02") is None
        assert cache.get("aa01") == summary_projection(_summary("one"))
        assert cache.get("aa03") == summary_projection(_summary("three"))

    def test_byte_cap_holds_under_fill_past_capacity(self, tmp_path):
        probe = WearerResultCache(tmp_path / "probe")
        probe.put("aa00", _summary("x" * 64))
        entry_bytes = probe.total_bytes()

        cache = WearerResultCache(
            tmp_path / "wc", max_bytes=entry_bytes * 3
        )
        for i in range(10):
            cache.put(f"bb{i:02d}", _summary("x" * 64))
            assert cache.total_bytes() <= entry_bytes * 3
        assert len(cache) == 3
        # the newest writes are the survivors
        for i in range(7, 10):
            assert cache.get(f"bb{i:02d}") is not None

    def test_eviction_never_removes_the_fresh_write(self, tmp_path):
        # cap of one entry: each put may evict everything *except* what
        # it just wrote
        cache = WearerResultCache(tmp_path / "wc", max_entries=1)
        cache.put("aa01", _summary("one"))
        cache.put("aa02", _summary("two"))
        assert cache.get("aa01") is None
        assert cache.get("aa02") == summary_projection(_summary("two"))

    def test_evicted_entry_refills_with_identical_bytes(self, tmp_path):
        # the correctness story for eviction racing a prefetch: a worker
        # holding a stale prefetch pointer sees a miss, re-simulates,
        # and the re-put stores byte-identical content — first-writer-
        # wins never fires a divergence for a re-computed entry
        cache = WearerResultCache(tmp_path / "wc", max_entries=1)
        cache.put("aa01", _summary("one"))
        original = cache.path_for("aa01").read_bytes()
        cache.put("aa02", _summary("two"))  # evicts aa01 mid-"flight"
        assert cache.get("aa01") is None  # clean miss, not an error
        assert cache.put("aa01", _summary("one")) is True  # re-simulated
        assert cache.path_for("aa01").read_bytes() == original

    def test_index_survives_restart_and_rebuilds_when_lost(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc", max_entries=2)
        cache.put("aa01", _summary("one"))
        cache.put("aa02", _summary("two"))

        # restart with the persisted index: recency order carries over
        reopened = WearerResultCache(tmp_path / "wc", max_entries=2)
        assert reopened.get("aa01") is not None  # aa01 now MRU
        reopened.put("aa03", _summary("three"))
        assert reopened.get("aa02") is None
        assert reopened.get("aa01") is not None

        # corrupt the index outright: the store rebuilds from the files
        reopened.index_path.write_text("{ not json")
        rebuilt = WearerResultCache(tmp_path / "wc", max_entries=2)
        assert len(rebuilt) == 2
        rebuilt.put("aa04", _summary("four"))
        assert len(rebuilt) == 2  # cap still enforced after rebuild

    def test_unbounded_by_default(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc")
        for i in range(20):
            cache.put(f"cc{i:02d}", _summary(str(i)))
        assert len(cache) == 20

    def test_index_file_is_not_an_entry(self, tmp_path):
        cache = WearerResultCache(tmp_path / "wc", max_entries=4)
        cache.put("aa01", _summary("one"))
        assert len(cache) == 1
        assert cache.index_path.exists()


def test_fingerprint_survives_spec_roundtrip():
    # Wire form (to_dict/from_dict, how wearers travel inside leases)
    # must fingerprint identically to the in-memory form.
    wearer = _wearer(mode="robust", fault_seed=None)
    revived = WearerSpec.from_dict(wearer.to_dict())
    assert dataclasses.asdict(revived) == dataclasses.asdict(wearer)
    assert wearer_fingerprint("ci", revived) == wearer_fingerprint(
        "ci", wearer
    )
