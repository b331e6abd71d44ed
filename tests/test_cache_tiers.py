"""The tiered result cache: hot LRU, warm append-log, migration,
maintenance, and the cache-correctness bugfix regressions.

The invariants under test, per tier:

- **hot**: populated only by a disk-verified read, bounded LRU, repeat
  lookups never touch disk again;
- **warm**: single append-log + sidecar index, O(1) re-open (the
  ``dir_scan_entries`` counter stays zero after migration), compaction
  and age-bounded eviction never lose a live verified entry;
- **facade**: legacy directories migrate transparently, ``merge_from``
  copies only entries ``get`` would trust, transient I/O errors are
  plain misses (never quarantine), quarantine files age out and are
  visible in ``stats()``.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.config import AnalysisConfig
from repro.engine.cache import (
    DEFAULT_HOT_CAPACITY,
    ResultCache,
    build_entry,
    classify_entry,
)
from repro.engine.cache.hot import HotTier
from repro.engine.cache.warm import WarmStore, read_log_records
from repro.engine.jobs import AnalysisJob, JobResult
from repro.errors import AnalysisError


def job(index: int) -> AnalysisJob:
    source = (
        "proc p(n) {\n"
        f"  assume(1 <= n && n <= {index + 2});\n"
        "  var i = 0;\n"
        "  while (i < n) { tick(1); i = i + 1; }\n"
        "}\n"
    )
    return AnalysisJob(kind="single", old_source=source,
                       config=AnalysisConfig(), name=f"tier{index}")


def result(the_job: AnalysisJob, index: int) -> JobResult:
    return JobResult(
        job_key=the_job.key,
        name=the_job.name,
        kind=the_job.kind,
        status="ok",
        outcome="bounded",
        threshold=float(index),
        threshold_str=str(index),
        message=f"tier entry {index}",
        seconds=0.25,
    )


def fill(cache: ResultCache, count: int) -> list[str]:
    keys = []
    for index in range(count):
        the_job = job(index)
        assert cache.put(the_job, result(the_job, index))
        keys.append(the_job.key)
    return keys


class TestHotTier:
    def test_repeat_lookup_skips_disk_entirely(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        [key] = fill(cache, 1)
        first = cache.get(key)
        assert first is not None and first.cached
        # Remove the disk tier out from under the handle: only a pure
        # in-process hit can answer now.
        (tmp_path / "cache" / "warm.log").unlink()
        second = cache.get(key)
        assert second is not None
        assert second.threshold == first.threshold
        assert cache.hot.hits == 1
        assert cache.hits == 2

    def test_store_does_not_prime_the_hot_tier(self, tmp_path):
        # Only a verified read vouches for an entry: the bytes published
        # by put() may be damaged behind our back (torn writes).
        cache = ResultCache(tmp_path / "cache", backend="warm")
        fill(cache, 3)
        assert len(cache.hot) == 0

    def test_lru_eviction_is_bounded_and_orders_by_recency(self):
        hot = HotTier(capacity=2)
        hot.put("a", {"x": 1})
        hot.put("b", {"x": 2})
        assert hot.get("a") == {"x": 1}  # refresh a
        hot.put("c", {"x": 3})  # evicts b, the least recently used
        assert hot.get("b") is None
        assert hot.get("a") is not None
        assert hot.get("c") is not None
        assert hot.evictions == 1
        assert len(hot) == 2

    def test_zero_capacity_disables_the_tier(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm",
                            hot_capacity=0)
        [key] = fill(cache, 1)
        assert cache.get(key) is not None
        assert cache.get(key) is not None
        assert len(cache.hot) == 0 and cache.hot.hits == 0

    def test_default_capacity_is_sane(self):
        assert DEFAULT_HOT_CAPACITY >= 64


class TestWarmStore:
    def test_round_trip_and_reopen(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        keys = fill(cache, 5)
        for index, key in enumerate(keys):
            got = cache.get(key)
            assert got is not None
            assert got.threshold == float(index)
        reopened = ResultCache(tmp_path / "cache", backend="warm")
        assert len(reopened) == 5
        assert reopened.get(keys[3]).threshold == 3.0

    def test_reopen_does_no_per_entry_directory_scan(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        fill(cache, 8)
        reopened = ResultCache(tmp_path / "cache", backend="warm")
        stats = reopened.stats()
        assert stats["entries"] == 8
        assert stats["dir_scan_entries"] == 0
        assert stats["warm_backend"] == 1

    def test_sidecar_survives_and_generation_matches(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        fill(cache, 4)
        cache.warm.write_sidecar()
        sidecar = json.loads(
            (tmp_path / "cache" / ".warm-index.json").read_text())
        assert sidecar["generation"] == cache.warm.generation
        assert len(sidecar["entries"]) == 4

    def test_auto_backend_detects_a_warm_log(self, tmp_path):
        ResultCache(tmp_path / "cache", backend="warm")
        assert ResultCache(tmp_path / "cache",
                           backend="auto").backend == "warm"
        assert ResultCache(tmp_path / "dir-cache",
                           backend="auto").backend == "dir"
        with pytest.raises(AnalysisError):
            ResultCache(tmp_path / "x", backend="lukewarm")

    def test_compaction_drops_superseded_records_keeps_answers(
            self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        keys = fill(cache, 4)
        # Rewrite every key once (overwrite path) to fatten the log,
        # then tombstone one.
        for index in range(4):
            the_job = job(index)
            cache.warm.append_many(
                [(the_job.key, build_entry(the_job,
                                           result(the_job, index)))],
                overwrite=True)
        cache.warm.remove(keys[0])
        before = cache.warm.log_bytes()
        summary = cache.compact()
        assert summary["aborted"] == 0
        assert summary["kept"] == 3
        assert cache.warm.log_bytes() < before
        assert cache.get(keys[0]) is None
        for index in (1, 2, 3):
            assert cache.get(keys[index]).threshold == float(index)

    def test_compaction_is_visible_to_a_second_handle(self, tmp_path):
        writer = ResultCache(tmp_path / "cache", backend="warm")
        reader = ResultCache(tmp_path / "cache", backend="warm")
        keys = fill(writer, 3)
        assert reader.get(keys[0]) is not None  # reader indexed gen 1
        writer.compact()  # publishes generation 2, new inode
        for index, key in enumerate(keys):
            assert reader.get(key).threshold == float(index)

    def test_republished_log_never_passes_for_the_indexed_one(
            self, tmp_path):
        """Stores notice a republished log by its inode number.  A
        freed inode number is recycled by the next file the filesystem
        creates, so without the indexed log held open a second
        compaction could publish under the reader's old number and the
        reader would keep serving offsets into bytes that moved."""
        writer = ResultCache(tmp_path / "cache", backend="warm")
        reader = ResultCache(tmp_path / "cache", backend="warm")
        keys = fill(writer, 3)
        # Each compaction frees one inode and takes two (log + sidecar
        # temp files); try several gaps so some filesystem's recycling
        # period is hit.
        for compactions in range(1, 7):
            reader.warm.resync()
            for _ in range(compactions):
                writer.compact()
            reader.warm.resync()
            assert reader.warm.generation == writer.warm.generation
            for index, key in enumerate(keys):
                assert reader.get(key).threshold == float(index)

    def test_eviction_is_age_bounded(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        now = time.time()
        old_job, fresh_job = job(0), job(1)
        cache.warm.append(old_job.key, build_entry(old_job,
                                                   result(old_job, 0)),
                          ts=now - 3600)
        cache.warm.append(fresh_job.key, build_entry(fresh_job,
                                                     result(fresh_job, 1)),
                          ts=now)
        assert cache.evict(max_age_s=600, now=now) == 1
        assert cache.get(old_job.key) is None
        assert cache.get(fresh_job.key) is not None
        assert cache.stats()["evicted"] == 1

    def test_torn_log_tail_is_healed_not_fatal(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        keys = fill(cache, 3)
        log = tmp_path / "cache" / "warm.log"
        data = log.read_bytes()
        log.write_bytes(data[:-10])  # a crash mid-append tears the tail
        reopened = ResultCache(tmp_path / "cache", backend="warm")
        # The torn record is lost (it never finished), every record
        # before it survives, and new appends still work.
        assert reopened.get(keys[0]).threshold == 0.0
        assert reopened.get(keys[1]).threshold == 1.0
        the_job = job(9)
        assert reopened.put(the_job, result(the_job, 9))
        assert reopened.get(the_job.key) is not None

    def test_clear_empties_the_log(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        fill(cache, 3)
        assert cache.clear() == 3
        assert len(cache) == 0
        assert ResultCache(tmp_path / "cache", backend="warm") \
            .stats()["entries"] == 0


class TestLegacyMigration:
    def test_legacy_directory_migrates_transparently(self, tmp_path):
        legacy = ResultCache(tmp_path / "cache")  # dir backend
        keys = fill(legacy, 5)
        warm = ResultCache(tmp_path / "cache", backend="warm")
        assert warm.migrated == 5
        assert sorted(tmp_path.joinpath("cache").glob("[!.]*.json")) == []
        for index, key in enumerate(keys):
            assert warm.get(key).threshold == float(index)
        # The migration scan was the last directory walk ever: a third
        # open finds nothing to migrate and scans nothing.
        again = ResultCache(tmp_path / "cache", backend="warm")
        assert again.migrated == 0
        assert again.stats()["dir_scan_entries"] == 0

    def test_migration_quarantines_corrupt_and_drops_stale(self, tmp_path):
        legacy = ResultCache(tmp_path / "cache")
        keys = fill(legacy, 2)
        # keys[0]: bit rot (checksum mismatch); a third file: stale
        # checksum-less legacy entry.
        path = legacy.path_for(keys[0])
        entry = json.loads(path.read_text())
        entry["result"]["threshold"] = 999.0
        path.write_text(json.dumps(entry))
        stale = dict(entry)
        del stale["checksum"]
        (tmp_path / "cache" / "deadbeef.json").write_text(
            json.dumps(stale))
        warm = ResultCache(tmp_path / "cache", backend="warm")
        assert warm.migrated == 1  # only the intact entry traveled
        assert warm.corrupted == 1
        assert (tmp_path / "cache" / f"{keys[0]}.corrupt").exists()
        assert not (tmp_path / "cache" / "deadbeef.json").exists()
        assert warm.get(keys[1]) is not None


class TestMergeTrust:
    def test_merge_skips_stale_legacy_entries(self, tmp_path):
        """Regression: ``merge_from`` used to copy checksum-less and
        version-mismatched entries that ``get`` would never replay —
        dead weight spread shard to shard, forever re-skipped."""
        source = ResultCache(tmp_path / "source")
        keys = fill(source, 3)
        # keys[0] loses its checksum (pre-checksum legacy format);
        # keys[1] claims a future schema version.
        for key, damage in ((keys[0], "checksum"), (keys[1], "version")):
            path = source.path_for(key)
            entry = json.loads(path.read_text())
            if damage == "checksum":
                del entry["checksum"]
            else:
                entry["version"] = 99
            path.write_text(json.dumps(entry))
        destination = ResultCache(tmp_path / "destination")
        assert destination.merge_from(tmp_path / "source") == 1
        assert destination.merge_skipped == 2
        assert len(destination) == 1
        assert destination.get(keys[2]) is not None

    def test_merge_reads_both_source_formats(self, tmp_path):
        warm_source = ResultCache(tmp_path / "warm-source", backend="warm")
        dir_source = ResultCache(tmp_path / "dir-source")
        warm_keys = fill(warm_source, 2)
        the_job = job(7)
        dir_source.put(the_job, result(the_job, 7))
        destination = ResultCache(tmp_path / "destination", backend="warm")
        copied = destination.merge_from(tmp_path / "warm-source")
        copied += destination.merge_from(tmp_path / "dir-source")
        assert copied == 3
        for key in (*warm_keys, the_job.key):
            assert destination.get(key) is not None
        # The warm source log was never written to.
        assert len(ResultCache(tmp_path / "warm-source",
                               backend="warm")) == 2

    def test_merge_is_first_writer_wins(self, tmp_path):
        a = ResultCache(tmp_path / "a", backend="warm")
        b = ResultCache(tmp_path / "b", backend="warm")
        fill(a, 2)
        fill(b, 2)
        destination = ResultCache(tmp_path / "dest", backend="warm")
        assert destination.merge_from(tmp_path / "a") == 2
        assert destination.merge_from(tmp_path / "b") == 0  # all present
        assert len(destination) == 2


class TestTransientIOErrors:
    def test_oserror_is_a_plain_miss_and_entry_survives(self, tmp_path,
                                                        monkeypatch):
        """Regression: ``get`` used to lump EACCES/EMFILE/NFS hiccups
        with decode failures and quarantine perfectly healthy entries —
        a transient error permanently cost the entry."""
        cache = ResultCache(tmp_path / "cache")
        [key] = fill(cache, 1)
        path = cache.path_for(key)
        real_read_bytes = Path.read_bytes

        def flaky_read_bytes(self):
            if self == path:
                raise PermissionError(13, "Permission denied", str(self))
            return real_read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", flaky_read_bytes)
        assert cache.get(key) is None  # a miss, not a crash
        monkeypatch.undo()
        assert cache.io_errors == 1
        assert cache.corrupted == 0
        assert path.exists()  # never quarantined
        assert not path.with_suffix(".corrupt").exists()
        assert cache.get(key) is not None  # the next reader is luckier
        assert cache.stats()["io_errors"] == 1

    def test_decode_failure_still_quarantines(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        [key] = fill(cache, 1)
        cache.path_for(key).write_bytes(b"}{ not json")
        assert cache.get(key) is None
        assert cache.corrupted == 1
        assert cache.io_errors == 0
        assert cache.path_for(key).with_suffix(".corrupt").exists()


class TestQuarantineLifecycle:
    def test_aged_corrupt_files_swept_fresh_kept(self, tmp_path):
        """Regression: ``.corrupt`` files accumulated forever and were
        invisible to ``stats()``."""
        directory = tmp_path / "cache"
        directory.mkdir()
        old = directory / "aaaa.corrupt"
        old.write_text("rotten")
        long_ago = time.time() - 30 * 24 * 3600
        os.utime(old, (long_ago, long_ago))
        fresh = directory / "bbbb.corrupt"
        fresh.write_text("fresh evidence")
        cache = ResultCache(directory)
        assert cache.corrupt_swept == 1
        assert not old.exists()
        assert fresh.exists()  # post-mortem evidence survives the sweep
        stats = cache.stats()
        assert stats["corrupt_swept"] == 1
        assert stats["corrupt_files"] == 1
        assert stats["total_bytes"] >= len("fresh evidence")

    def test_stats_schema_includes_quarantine_everywhere(self, tmp_path):
        empty = ResultCache.empty_stats()
        assert "corrupt_files" in empty and "corrupt_swept" in empty
        for backend in ("dir", "warm"):
            cache = ResultCache(tmp_path / backend, backend=backend)
            assert set(cache.stats()) == set(empty)

    def test_warm_quarantine_writes_corpse_and_tombstones(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        [key] = fill(cache, 1)
        # Scribble over the record in place: bit rot inside the log.
        offset, length, _ts = cache.warm.index[key]
        with open(cache.warm.log_path, "r+b") as handle:
            handle.seek(offset)
            handle.write(b"x" * (length - 1))
        assert cache.get(key) is None
        assert cache.corrupted == 1
        assert (tmp_path / "cache" / f"{key}.corrupt").exists()
        # The slot is tombstoned: the next lookup is a plain miss.
        assert cache.get(key) is None
        assert cache.corrupted == 1


class TestFederationPrimitives:
    def test_delta_since_apply_delta_round_trip(self, tmp_path):
        a = ResultCache(tmp_path / "a", backend="warm")
        b = ResultCache(tmp_path / "b", backend="warm")
        keys = fill(a, 3)
        watermark, records = a.delta_since(0.0)
        assert watermark > 0.0
        assert sorted(r["key"] for r in records) == sorted(keys)
        applied, skipped = b.apply_delta(records)
        assert (applied, skipped) == (3, 0)
        for index, key in enumerate(keys):
            assert b.get(key).threshold == float(index)
        # Idempotent: re-delivery applies nothing.
        assert b.apply_delta(records) == (0, 0)
        # Nothing newer than the watermark.
        _wm, newer = a.delta_since(watermark)
        assert newer == []

    def test_delta_never_ships_untrusted_entries(self, tmp_path):
        a = ResultCache(tmp_path / "a")
        keys = fill(a, 2)
        path = a.path_for(keys[0])
        entry = json.loads(path.read_text())
        del entry["checksum"]
        path.write_text(json.dumps(entry))
        _watermark, records = a.delta_since(0.0)
        assert [r["key"] for r in records] == [keys[1]]

    def test_apply_delta_rejects_unsafe_and_untrusted_records(
            self, tmp_path):
        b = ResultCache(tmp_path / "b", backend="warm")
        the_job = job(0)
        good = build_entry(the_job, result(the_job, 0))
        bad = dict(good, checksum="0" * 64)
        applied, skipped = b.apply_delta([
            {"key": "../../etc/passwd", "ts": 1.0, "entry": good},
            {"key": "", "ts": 1.0, "entry": good},
            {"key": "deadbeef", "ts": 1.0, "entry": bad},
            "not-a-record",
            {"key": the_job.key, "ts": 1.0, "entry": good},
        ])
        assert (applied, skipped) == (1, 4)
        assert b.get(the_job.key) is not None
        assert b.merge_skipped == 1  # only the checksum-failing record


class TestCacheCLI:
    def run_cli(self, capsys, *argv):
        from repro.cli import main

        code = main(list(argv))
        return code, capsys.readouterr().out

    def test_stats_compact_evict(self, tmp_path, capsys):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        fill(cache, 3)
        cache.warm.remove(job(0).key)

        code, out = self.run_cli(
            capsys, "cache", "stats", "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        stats = json.loads(out)
        assert stats["entries"] == 2
        assert stats["warm_backend"] == 1  # --cache-backend auto found it

        code, out = self.run_cli(
            capsys, "cache", "compact",
            "--cache-dir", str(tmp_path / "cache"))
        assert code == 0
        assert json.loads(out)["kept"] == 2

        code, out = self.run_cli(
            capsys, "cache", "evict",
            "--cache-dir", str(tmp_path / "cache"), "--max-age-s", "0")
        assert code == 0
        assert "evicted 2 entries" in out

    def test_compact_refuses_the_dir_backend(self, tmp_path, capsys):
        ResultCache(tmp_path / "cache")  # plain directory cache
        code, _out = self.run_cli(
            capsys, "cache", "compact",
            "--cache-dir", str(tmp_path / "cache"))
        assert code == 2  # structured ReproError exit

    def test_migration_via_warm_open(self, tmp_path, capsys):
        legacy = ResultCache(tmp_path / "cache")
        fill(legacy, 4)
        code, out = self.run_cli(
            capsys, "cache", "stats",
            "--cache-dir", str(tmp_path / "cache"),
            "--cache-backend", "warm")
        assert code == 0
        stats = json.loads(out)
        assert stats["migrated"] == 4
        assert stats["entries"] == 4


class TestWarmLogReader:
    def test_read_log_records_is_read_only_and_complete(self, tmp_path):
        cache = ResultCache(tmp_path / "cache", backend="warm")
        keys = fill(cache, 3)
        cache.warm.remove(keys[0])
        log = tmp_path / "cache" / "warm.log"
        before = log.read_bytes()
        records = read_log_records(log)
        assert sorted(records) == sorted(keys[1:])
        assert all(classify_entry(r["entry"]) == "ok"
                   for r in records.values())
        assert log.read_bytes() == before
