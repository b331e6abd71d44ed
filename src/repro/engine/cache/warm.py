"""The warm tier: one compacted append-log instead of a file per entry.

The legacy directory store pays O(entries) syscalls for startup sweeps,
``stats()``, ``len()`` and every merge — fatal once a cache holds the
leavings of millions of requests.  The warm store keeps every entry in
a single ``warm.log`` and answers all of those from an in-memory index,
so opening a warm cache costs one ``stat`` plus a scan of whatever tail
the persisted index has not seen yet.

Layout (all inside the cache directory, next to any legacy files):

``warm.log``
    Line 1 is the header ``{"generation": G, "warmlog": 1}``; every
    later line is one record ``{"entry": ..., "key": ..., "ts": ...}``.
    A record whose ``entry`` is ``null`` is a tombstone (quarantine or
    explicit removal).  Appends happen under ``.warm.lock`` with the
    file in ``O_APPEND`` mode; a record is one ``write`` of one
    newline-terminated line, so readers never see interleaved records —
    at worst a torn *tail*, which scanning stops in front of and the
    next locked writer heals by terminating the partial line.

``.warm-index.json``
    A sidecar snapshot of the in-memory index: generation, how many
    log bytes it covers, and ``{key: [offset, length, ts]}``.  Purely
    an accelerator — if it is missing, stale (different generation) or
    corrupt, the log is rescanned and the truth relearned.  Serialized
    with sorted keys so identical caches produce identical sidecars.

``.warm.lock``
    ``flock`` target serializing writers (append, compact, evict)
    across processes.  Readers take no lock.

Compaction rewrites the log — last live record per key, tombstones and
garbage dropped — into a temp file published with an atomic
``os.replace`` and a bumped generation, so a crash mid-compaction
(modelled by the ``cache.torn_write`` fault site with ``name
"compact"``) leaves the old log byte-for-byte intact: a verified entry
can never be lost to a dying compactor.  Readers notice the publish by
inode/size change and reload.  Each store keeps the log it indexed
open: a file's inode number is only recycled once the file is unlinked
*and* closed, so a later publish can never reuse the number the store
compares against and pass for the log it already knows.
"""

from __future__ import annotations

import contextlib
import fcntl
import json
import os
import tempfile
import time
from pathlib import Path
from typing import Any, BinaryIO, Iterator

from repro.faults import fault_point
from repro.obs import get_logger, get_registry

_LOG = get_logger("engine.cache.warm")

#: Schema marker in the log header and index sidecar.
WARM_LOG_VERSION = 1

LOG_NAME = "warm.log"
INDEX_NAME = ".warm-index.json"
LOCK_NAME = ".warm.lock"


class WarmStoreError(Exception):
    """The warm log is unusable (bad header) — caller should treat the
    store as absent rather than guess at the bytes."""


def read_log_records(log_path: str | os.PathLike) -> dict[str, dict]:
    """Read-only scan of a warm log: ``{key: record}`` with the last
    live record winning and tombstones applied.

    Used to merge *from* a warm cache without instantiating a
    :class:`WarmStore` on it — a merge source must never be written to,
    and opening a store creates lock/sidecar files.  Garbage lines and
    a torn tail are skipped, exactly like the indexing scan.
    """
    records: dict[str, dict] = {}
    try:
        with open(log_path, "rb") as handle:
            handle.readline()  # header
            for line in handle:
                if not line.endswith(b"\n"):
                    break
                try:
                    record = json.loads(line)
                    key = record["key"]
                    float(record["ts"])
                except (json.JSONDecodeError, UnicodeDecodeError,
                        KeyError, TypeError, ValueError):
                    continue
                if record.get("entry") is None:
                    records.pop(key, None)
                else:
                    records[key] = record
    except OSError:
        return {}
    return records


def _header_line(generation: int) -> bytes:
    header = {"generation": generation, "warmlog": WARM_LOG_VERSION}
    return (json.dumps(header, sort_keys=True) + "\n").encode()


def _record_line(key: str, ts: float, entry: Any) -> bytes:
    record = {"entry": entry, "key": key, "ts": ts}
    return (json.dumps(record, sort_keys=True) + "\n").encode()


class WarmStore:
    """Append-log entry store with an in-memory ``{key: (offset,
    length, ts)}`` index kept in sync with the log by stat-and-rescan.
    """

    def __init__(self, directory: str | os.PathLike):
        self.directory = Path(directory)
        self.log_path = self.directory / LOG_NAME
        self.index_path = self.directory / INDEX_NAME
        self.lock_path = self.directory / LOCK_NAME
        self.generation = 1
        #: Records whose line failed to parse during a scan (torn heals,
        #: garbage appends) — dropped at the next compaction.
        self.garbage_records = 0
        self.compactions = 0
        self.index: dict[str, tuple[int, int, float]] = {}
        self._scanned_bytes = 0
        self._inode: int | None = None
        #: The log :attr:`index` describes, held open (see the module
        #: docstring) so :attr:`_inode` cannot be recycled under us.
        self._pinned: BinaryIO | None = None
        self._open_or_create()

    # -- locking -----------------------------------------------------------

    @contextlib.contextmanager
    def _locked(self) -> Iterator[None]:
        fd = os.open(self.lock_path, os.O_RDWR | os.O_CREAT, 0o644)
        try:
            fcntl.flock(fd, fcntl.LOCK_EX)
            yield
        finally:
            fcntl.flock(fd, fcntl.LOCK_UN)
            os.close(fd)

    # -- startup / resync --------------------------------------------------

    def _pin(self, handle: BinaryIO | None) -> None:
        """Hold ``handle`` (the log about to be indexed) open in place
        of the previous one and record its inode."""
        if self._pinned is not None:
            self._pinned.close()
        self._pinned = handle
        self._inode = (None if handle is None
                       else os.fstat(handle.fileno()).st_ino)

    def _open_or_create(self) -> None:
        if not self.log_path.exists():
            with self._locked():
                if not self.log_path.exists():  # lost the create race
                    self._publish_log(_header_line(self.generation), {})
        self._reload()

    def _reload(self) -> None:
        """Learn the log from scratch: header, then the persisted index
        if it covers this generation, then whatever tail it missed."""
        self.index = {}
        self._scanned_bytes = 0
        handle = open(self.log_path, "rb")
        self._pin(handle)
        header_raw = handle.readline()
        if not header_raw.endswith(b"\n"):
            # A writer is mid-create; treat as empty until it lands.
            self.generation = 1
            return
        try:
            header = json.loads(header_raw)
            self.generation = int(header["generation"])
            if header.get("warmlog") != WARM_LOG_VERSION:
                raise ValueError(header.get("warmlog"))
        except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                TypeError, ValueError) as exc:
            raise WarmStoreError(
                f"unreadable warm log header in {self.log_path}"
            ) from exc
        self._scanned_bytes = len(header_raw)
        self._load_sidecar()
        self._scan_tail()

    def _load_sidecar(self) -> None:
        """Adopt the persisted index if it matches this generation.
        Any defect just means a longer scan — never an error."""
        try:
            snapshot = json.loads(self.index_path.read_text())
            if (snapshot.get("warmlog") != WARM_LOG_VERSION
                    or snapshot.get("generation") != self.generation):
                return
            entries = snapshot["entries"]
            indexed_bytes = int(snapshot["indexed_bytes"])
            index = {
                str(key): (int(off), int(length), float(ts))
                for key, (off, length, ts) in entries.items()
            }
        except (OSError, json.JSONDecodeError, UnicodeDecodeError,
                KeyError, TypeError, ValueError):
            return
        if indexed_bytes < self._scanned_bytes:
            return
        try:
            if indexed_bytes > self.log_path.stat().st_size:
                return  # sidecar from a longer, since-replaced log
        except OSError:
            return
        self.index = index
        self._scanned_bytes = indexed_bytes

    def _scan_tail(self) -> int:
        """Index records appended past :attr:`_scanned_bytes`; returns
        how many record lines were examined."""
        examined = 0
        try:
            with open(self.log_path, "rb") as handle:
                handle.seek(self._scanned_bytes)
                data = handle.read()
        except OSError:
            return examined
        offset = self._scanned_bytes
        for line in data.splitlines(keepends=True):
            if not line.endswith(b"\n"):
                break  # torn tail — a writer will heal it; rescan later
            examined += 1
            try:
                record = json.loads(line)
                key = record["key"]
                ts = float(record["ts"])
                entry = record["entry"]
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError,
                    TypeError, ValueError):
                self.garbage_records += 1
                offset += len(line)
                self._scanned_bytes = offset
                continue
            if entry is None:
                self.index.pop(key, None)
            else:
                # Last record wins within the log; first-writer-wins is
                # enforced at append time, so duplicates only appear
                # when both writers raced past the same resync — and
                # identical content-addressed keys carry equal results.
                self.index[key] = (offset, len(line), ts)
            offset += len(line)
            self._scanned_bytes = offset
        return examined

    def resync(self) -> None:
        """Cheap freshness check: one ``stat``.  Reload on a published
        compaction (new inode / shrunk log), scan on appended bytes."""
        try:
            meta = self.log_path.stat()
        except OSError:
            return
        if meta.st_ino != self._inode or meta.st_size < self._scanned_bytes:
            self._reload()
        elif meta.st_size > self._scanned_bytes:
            self._scan_tail()

    # -- reads -------------------------------------------------------------

    def __contains__(self, key: str) -> bool:
        return key in self.index

    def __len__(self) -> int:
        return len(self.index)

    def lookup_raw(self, key: str) -> bytes | None:
        """The raw record line of ``key`` (current index view), or
        ``None``.  Retries once through a reload when a concurrent
        compaction moves the log out from under the offset."""
        for attempt in range(2):
            slot = self.index.get(key)
            if slot is None:
                return None
            offset, length, _ = slot
            try:
                with open(self.log_path, "rb") as handle:
                    if os.fstat(handle.fileno()).st_ino != self._inode:
                        raise OSError("log replaced mid-read")
                    handle.seek(offset)
                    data = handle.read(length)
            except OSError:
                data = b""
            if len(data) == length and data.endswith(b"\n"):
                return data
            if attempt == 0:
                self._reload()
        return None

    def timestamps(self) -> dict[str, float]:
        """``{key: last-write ts}`` for every live record — the whole
        stats/eviction/delta view, no file-per-entry scan anywhere."""
        return {key: slot[2] for key, slot in self.index.items()}

    def log_bytes(self) -> int:
        try:
            return self.log_path.stat().st_size
        except OSError:
            return 0

    # -- writes ------------------------------------------------------------

    def _heal_tail(self, fd: int) -> None:
        """Terminate a torn final line (a writer died mid-append) so the
        log is line-aligned again; the partial record becomes one
        garbage line that the next compaction drops."""
        size = os.fstat(fd).st_size
        if size <= 0:
            return
        with open(self.log_path, "rb") as reader:
            reader.seek(size - 1)
            if reader.read(1) != b"\n":
                os.write(fd, b"\n")

    def append(self, key: str, entry: Any,
               ts: float | None = None) -> bool:
        """Publish ``entry`` under ``key`` unless the key is already
        live (first writer wins); returns whether a record was written.
        """
        written = self.append_many([(key, entry, ts)])
        return written == 1

    def append_many(self, items: list[tuple],
                    overwrite: bool = False) -> int:
        """Append several ``(key, entry)`` or ``(key, entry, ts)``
        items under one lock; returns how many were written (keys
        already live are skipped unless ``overwrite``).  A ``None`` or
        missing ``ts`` stamps the write time; federation passes the
        origin node's timestamp through so delta watermarks and age
        stats survive the hop."""
        if not items:
            return 0
        now = time.time()
        written = 0
        with self._locked():
            self.resync()
            fd = os.open(self.log_path, os.O_WRONLY | os.O_APPEND)
            try:
                self._heal_tail(fd)
                offset = os.fstat(fd).st_size
                for item in items:
                    key, entry = item[0], item[1]
                    ts = item[2] if len(item) > 2 else None
                    if ts is None:
                        ts = now
                    if not overwrite and entry is not None \
                            and key in self.index:
                        continue
                    line = _record_line(key, ts, entry)
                    os.write(fd, line)
                    if entry is None:
                        self.index.pop(key, None)
                    else:
                        self.index[key] = (offset, len(line), ts)
                    offset += len(line)
                    written += 1
                self._scanned_bytes = offset
            finally:
                os.close(fd)
        return written

    def clear(self) -> int:
        """Drop every record by publishing a fresh empty log (bumped
        generation); returns how many live records were removed."""
        with self._locked():
            self.resync()
            removed = len(self.index)
            self._publish_log(_header_line(self.generation + 1), {},
                              generation=self.generation + 1)
            self.garbage_records = 0
        return removed

    def remove(self, key: str) -> None:
        """Tombstone ``key`` (quarantine/eviction of one record)."""
        if key in self.index:
            self.append_many([(key, None)], overwrite=True)

    # -- maintenance -------------------------------------------------------

    def _publish_log(self, payload: bytes,
                     index: dict[str, tuple[int, int, float]],
                     generation: int | None = None) -> None:
        """Atomically replace the log (and refresh the sidecar) —
        caller holds the lock."""
        fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                         prefix=".tmp-", suffix=".log")
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(payload)
            os.replace(temp_path, self.log_path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)
            raise
        if generation is not None:
            self.generation = generation
        self.index = index
        self._scanned_bytes = len(payload)
        try:
            self._pin(open(self.log_path, "rb"))
        except OSError:
            self._pin(None)
        self.write_sidecar()

    def write_sidecar(self) -> None:
        """Persist the index snapshot (atomic, best-effort): the next
        open scans only bytes appended after ``indexed_bytes``."""
        snapshot = {
            "entries": {
                key: [offset, length, ts]
                for key, (offset, length, ts) in sorted(self.index.items())
            },
            "generation": self.generation,
            "indexed_bytes": self._scanned_bytes,
            "warmlog": WARM_LOG_VERSION,
        }
        fd, temp_path = tempfile.mkstemp(dir=self.directory,
                                         prefix=".tmp-", suffix=".idx")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(snapshot, handle, sort_keys=True)
            os.replace(temp_path, self.index_path)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(temp_path)

    def compact(self, evict_age_s: float | None = None,
                now: float | None = None,
                classify: Any = None) -> dict[str, int]:
        """Rewrite the log keeping the last live record per key.

        Tombstones, garbage lines and superseded records vanish; with
        ``evict_age_s``, records older than that are dropped too (the
        eviction path).  ``classify`` — ``entry -> verdict`` returning
        ``"ok"``/``"stale"``/``"corrupt"`` — lets the owner drop dead
        entries during the rewrite; corrupt ones are *kept* for the
        read path to quarantine with full ceremony.  The rewritten log
        is published atomically under the writer lock; if the
        ``cache.torn_write`` fault (name ``"compact"``) fires, the
        compactor "crashes" before publish and the old log survives
        untouched.
        """
        if now is None:
            # Gates eviction only — record bytes never embed it, and
            # deterministic callers (tests, replays) pass ``now``.
            now = time.time()  # lint: allow[time-call]
        summary = {"kept": 0, "dropped": 0, "evicted": 0, "aborted": 0}
        with self._locked():
            self.resync()
            try:
                log_data = self.log_path.read_bytes()
            except OSError:
                summary["aborted"] = 1
                return summary
            new_generation = self.generation + 1
            payload = bytearray(_header_line(new_generation))
            new_index: dict[str, tuple[int, int, float]] = {}
            for key in sorted(self.index):
                offset, length, ts = self.index[key]
                raw = log_data[offset:offset + length]
                if len(raw) != length or not raw.endswith(b"\n"):
                    summary["dropped"] += 1
                    continue
                if evict_age_s is not None and now - ts > evict_age_s:
                    summary["evicted"] += 1
                    continue
                if classify is not None:
                    try:
                        record = json.loads(raw)
                        verdict = classify(record.get("entry"))
                    except (json.JSONDecodeError, UnicodeDecodeError):
                        verdict = "corrupt"
                    if verdict == "stale":
                        summary["dropped"] += 1
                        continue
                new_index[key] = (len(payload), len(raw), ts)
                payload += raw
                summary["kept"] += 1
            if fault_point("cache.torn_write", name="compact",
                           key="", kind="cache") is not None:
                # Simulated mid-compaction crash: nothing published, the
                # pre-compaction log still holds every verified entry.
                summary["aborted"] = 1
                _LOG.warning("compaction of %s aborted by fault plan",
                             self.log_path)
                return summary
            try:
                self._publish_log(bytes(payload), new_index,
                                  generation=new_generation)
            except OSError:
                summary["aborted"] = 1
                return summary
            self.garbage_records = 0
        self.compactions += 1
        get_registry().counter(
            "repro_cache_compactions_total",
            "Warm-log compactions published.",
        ).inc()
        if summary["evicted"]:
            get_registry().counter(
                "repro_cache_evicted_total",
                "Cache entries dropped by age-bounded eviction.",
            ).inc(summary["evicted"])
        _LOG.info("compacted %s: kept=%d dropped=%d evicted=%d",
                  self.log_path, summary["kept"], summary["dropped"],
                  summary["evicted"])
        return summary
