"""On-disk persistence for the similarity index: versioned, crash-consistent.

Layout of a store directory::

    <path>/
      manifest.json                snapshot: format, version, generation,
                                   params, options, table map, WAL pointer
      tables/<digest>-g<gen>.json  one file per snapshot table:
                                   instance + sketch
      wal/segment-<gen>.log        write-ahead segment log for every
                                   mutation since the snapshot

Design points:

* **Write-ahead logging** — ``add``/``remove``/``update`` append one
  checksummed record to the current WAL segment
  (:mod:`repro.index.wal`); the snapshot is never rewritten on the
  mutation path.  A mutation is durable exactly when its record is
  fsync'd, which is what the serve layer's ingest ack waits for.
* **Recovery on open** — opening a store scans the segment to its last
  valid record, truncates any torn tail (bytes past the last fsync a
  power cut may have shredded), and replays the valid prefix onto the
  manifest snapshot.  Replay is idempotent: it rebuilds the overlay from
  scratch, so re-opening — or crashing *during* recovery and opening
  again — converges to the same state.
* **Compaction** — :meth:`IndexStore.compact` folds the log into a new
  snapshot generation: new table files (generation-qualified names, so
  files referenced by the old manifest are never touched), a fresh
  segment, then one atomic manifest replace as the commit point.
  Concurrent readers see either the old generation (with its log) or the
  new one — both complete.
* **Integrity** — each table records its instance fingerprint three ways
  (manifest/WAL entry, sketch, recomputed from the decoded instance);
  any disagreement raises :class:`StoreCorruptionError` carrying the
  expected and actual values.  :meth:`IndexStore.verify` runs every
  check without stopping at the first failure and returns a per-table
  report.
* **Crash-enumerable IO** — every state-changing filesystem operation
  goes through the :mod:`repro.runtime.crashfs` layer, so the
  crash-injection matrix can cut the power at each individual write,
  fsync, rename, and directory sync and assert that recovery lands on
  either the pre- or post-mutation state, never a mix.

See ``docs/STORE.md`` for the full on-disk contract.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from ..core.errors import FormatError, StoreCorruptionError
from ..core.instance import Instance
from ..io_.serialization import instance_from_dict, instance_to_dict
from ..mappings.constraints import MatchOptions
from ..obs.metrics import counter_inc
from ..parallel.cache import SignatureCache, instance_fingerprint
from ..runtime.crashfs import io_layer
from ..runtime.faults import fault_checkpoint
from .sketch import (
    IndexParams,
    InstanceSketch,
    sketch_from_dict,
    sketch_to_dict,
)
from .wal import LogReader, SegmentWriter, segment_name

FORMAT_NAME = "repro-index-store"
FORMAT_VERSION = 3
"""Version 3 spells equal numbers alike in sketch keys; older stores are refused."""

_MANIFEST = "manifest.json"
_TABLES_DIR = "tables"
_WAL_DIR = "wal"

# errnos that mean "this filesystem cannot fsync directories" — the only
# ones _fsync_dir is allowed to swallow.
_FSYNC_UNSUPPORTED = frozenset(
    code
    for code in (
        errno.EINVAL,
        getattr(errno, "ENOTSUP", None),
        getattr(errno, "EOPNOTSUPP", None),
    )
    if code is not None
)


def _table_filename(name: str, generation: int) -> str:
    """Stable per-table filename: digest of the *name*, tagged with the
    generation that wrote it.

    The generation tag guarantees compaction writes fresh files instead
    of overwriting ones the previous manifest still references — a crash
    between the table rewrite and the manifest switch must leave the old
    generation fully intact.
    """
    digest = hashlib.blake2b(name.encode(), digest_size=8).hexdigest()
    return f"{digest}-g{generation:06d}.json"


def _options_to_dict(options: MatchOptions) -> dict:
    return {
        "left_injective": options.left_injective,
        "right_injective": options.right_injective,
        "left_total": options.left_total,
        "right_total": options.right_total,
        "lam": options.lam,
    }


def _options_from_dict(payload: dict) -> MatchOptions:
    try:
        return MatchOptions(
            left_injective=bool(payload["left_injective"]),
            right_injective=bool(payload["right_injective"]),
            left_total=bool(payload["left_total"]),
            right_total=bool(payload["right_total"]),
            lam=float(payload["lam"]),
        )
    except (KeyError, TypeError, ValueError) as error:
        raise FormatError(f"invalid match options payload: {error}") from error


def _fsync_dir(path: Path) -> None:
    """fsync a directory so a just-renamed entry survives a power cut.

    Only ``EINVAL``/``ENOTSUP`` are tolerated — filesystems that genuinely
    cannot sync directories — and each skip is counted on the
    ``repro.index.store.fsync_skipped`` metric so a deployment on such a
    filesystem is visible.  Every other failure (``EIO``, ``ENOSPC``, a
    dying disk) is re-raised: swallowing it would turn a real durability
    loss into a silent one.
    """
    try:
        io_layer().fsync_dir(path)
    except OSError as error:
        if error.errno in _FSYNC_UNSUPPORTED:
            counter_inc("repro.index.store.fsync_skipped")
            return
        raise


def _write_json(path: Path, payload: dict) -> None:
    """Atomic, durable, deterministic JSON write.

    The payload goes to a temporary sibling (sorted keys), is fsync'd,
    renamed into place with ``os.replace``, and then the *directory* is
    fsync'd — without the directory sync a crash after rename can still
    lose the entry, leaving a manifest that references a table file the
    directory never durably recorded.
    """
    io = io_layer()
    data = (json.dumps(payload, sort_keys=True, indent=1) + "\n").encode()
    tmp = path.with_name(path.name + ".tmp")
    handle = io.open_fresh(tmp)
    try:
        io.write(handle, data)
        io.fsync(handle)
    finally:
        io.close(handle)
    io.replace(tmp, path)
    _fsync_dir(path.parent)


def _read_json(path: Path, what: str) -> dict:
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FormatError(f"{what} not found at {path}") from None
    except json.JSONDecodeError as error:
        raise StoreCorruptionError(
            f"{what} at {path} is corrupt or truncated: {error}", path=path
        ) from error
    except OSError as error:
        raise FormatError(f"cannot read {what} at {path}: {error}") from error
    if not isinstance(payload, dict):
        raise StoreCorruptionError(
            f"{what} at {path} is not a JSON object", path=path
        )
    return payload


@dataclass
class RecoveryReport:
    """What one recovery-on-open pass found and did."""

    generation: int
    snapshot_tables: int
    wal_records: int
    wal_bytes: int
    torn_bytes_dropped: int = 0
    torn_offset: int | None = None
    torn_reason: str | None = None

    @property
    def was_torn(self) -> bool:
        return self.torn_reason is not None

    def as_dict(self) -> dict:
        return {
            "generation": self.generation,
            "snapshot_tables": self.snapshot_tables,
            "wal_records": self.wal_records,
            "wal_bytes": self.wal_bytes,
            "torn_bytes_dropped": self.torn_bytes_dropped,
            "torn_offset": self.torn_offset,
            "torn_reason": self.torn_reason,
        }


@dataclass
class CompactionReport:
    """What one compaction folded."""

    old_generation: int
    new_generation: int
    records_folded: int
    tables_rewritten: int
    tables_dropped: int
    files_removed: int

    def as_dict(self) -> dict:
        return {
            "old_generation": self.old_generation,
            "new_generation": self.new_generation,
            "records_folded": self.records_folded,
            "tables_rewritten": self.tables_rewritten,
            "tables_dropped": self.tables_dropped,
            "files_removed": self.files_removed,
        }


@dataclass
class StoreFinding:
    """One problem :meth:`IndexStore.verify` found.

    ``severity`` is ``"error"`` for corruption (verify exits non-zero)
    and ``"warning"`` for harmless debris (orphaned files a crashed
    compaction left behind).
    """

    severity: str
    kind: str
    message: str
    path: str | None = None
    table: str | None = None
    offset: int | None = None
    expected: object = None
    actual: object = None

    def as_dict(self) -> dict:
        return {
            "severity": self.severity,
            "kind": self.kind,
            "message": self.message,
            "path": self.path,
            "table": self.table,
            "offset": self.offset,
            "expected": self.expected,
            "actual": self.actual,
        }


def _finding_from_corruption(
    error: StoreCorruptionError, kind: str, table: str | None = None
) -> StoreFinding:
    return StoreFinding(
        severity="error",
        kind=kind,
        message=str(error),
        path=str(error.path) if error.path is not None else None,
        table=table,
        offset=error.offset,
        expected=error.expected,
        actual=error.actual,
    )


class IndexStore:
    """A directory-backed, write-ahead-logged store for one index.

    The store keeps a snapshot manifest plus a WAL overlay in memory and
    mirrors every mutation as one log record; all snapshot writes are
    atomic and the manifest is the commit point, so the manifest never
    references files that do not durably exist.

    Parameters
    ----------
    path:
        The store directory.
    sync_every:
        WAL group-commit window in records (``1`` = every mutation
        durable before the call returns; ``N`` = one fsync per N records;
        ``0`` = only on explicit :meth:`sync`).  Acknowledged-durable
        paths (serve ingest) call :meth:`sync` regardless.
    auto_compact_records:
        When > 0, fold the log into a new snapshot automatically once it
        holds this many records.  Off by default: compaction timing is
        the caller's policy (CLI ``repro index compact``, serve idle
        hooks, cron).
    """

    def __init__(
        self,
        path,
        *,
        sync_every: int = 1,
        auto_compact_records: int = 0,
    ) -> None:
        self.path = Path(path)
        self.sync_every = sync_every
        self.auto_compact_records = auto_compact_records
        self._tables_path = self.path / _TABLES_DIR
        self._wal_path = self.path / _WAL_DIR
        self._manifest: dict | None = None
        self._overlay: dict[str, dict] = {}
        self._deleted: set[str] = set()
        self._writer: SegmentWriter | None = None
        self._wal_records = 0
        self.last_recovery: RecoveryReport | None = None

    # -- lifecycle ----------------------------------------------------------

    def initialize(self, params: IndexParams, options: MatchOptions) -> None:
        """Create (or reset) the store directory for a fresh index."""
        if self.path.exists():
            if not self.path.is_dir():
                raise FormatError(f"{self.path} exists and is not a directory")
            if any(self.path.iterdir()) and not (self.path / _MANIFEST).exists():
                raise FormatError(
                    f"{self.path} is a non-empty directory without a "
                    f"{_MANIFEST}; refusing to overwrite it"
                )
        # Release any segment the previous incarnation held open before
        # its file is unlinked below.
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._tables_path.mkdir(parents=True, exist_ok=True)
        self._wal_path.mkdir(parents=True, exist_ok=True)
        for stale in self._tables_path.glob("*.json"):
            stale.unlink()
        for stale in self._wal_path.glob("segment-*.log"):
            stale.unlink()
        generation = 1
        # Segment before manifest: the manifest names it, so it must be
        # durable first.
        self._writer = SegmentWriter.create(
            self._wal_path / segment_name(generation),
            generation,
            sync_every=self.sync_every,
        )
        _fsync_dir(self._wal_path)
        self._manifest = {
            "format": FORMAT_NAME,
            "version": FORMAT_VERSION,
            "generation": generation,
            "params": params.as_dict(),
            "options": _options_to_dict(options),
            "tables": {},
            "wal": f"{_WAL_DIR}/{segment_name(generation)}",
        }
        self._flush_manifest()
        self._overlay = {}
        self._deleted = set()
        self._wal_records = 0
        self.last_recovery = RecoveryReport(
            generation=generation, snapshot_tables=0,
            wal_records=0, wal_bytes=0,
        )

    def open(self) -> RecoveryReport:
        """Load the manifest and replay the WAL; idempotent.

        Recovery truncates any torn log tail (bytes a power cut left
        half-written past the last fsync) and replays the valid prefix.
        Every accessor calls this lazily, so simply constructing an
        :class:`IndexStore` performs no IO.
        """
        if self._manifest is None:
            self._load_manifest()
            self._recover()
        assert self.last_recovery is not None
        return self.last_recovery

    def close(self) -> None:
        """Sync pending log records and release the segment handle.

        The in-memory state is dropped too, so a later :meth:`open` (or
        any lazy accessor) re-runs recovery from disk instead of
        operating on a store that looks open but has no writer.
        """
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._manifest = None
        self._overlay = {}
        self._deleted = set()
        self._wal_records = 0

    def _load_manifest(self) -> None:
        payload = _read_json(self.path / _MANIFEST, "index manifest")
        if payload.get("format") != FORMAT_NAME:
            raise FormatError(
                f"not an index store: format is "
                f"{payload.get('format')!r}, expected {FORMAT_NAME!r}"
            )
        if payload.get("version") != FORMAT_VERSION:
            raise FormatError(
                f"unsupported index store version "
                f"{payload.get('version')!r} (this build reads "
                f"version {FORMAT_VERSION})"
            )
        if not isinstance(payload.get("tables"), dict):
            raise FormatError("index manifest has no table map")
        if not isinstance(payload.get("generation"), int):
            raise FormatError("index manifest has no snapshot generation")
        if not isinstance(payload.get("wal"), str):
            raise FormatError("index manifest has no WAL segment pointer")
        self._manifest = payload

    def _recover(self) -> None:
        assert self._manifest is not None
        generation = self._manifest["generation"]
        segment_path = self.path / self._manifest["wal"]
        reader = LogReader(segment_path, expect_generation=generation)
        scan = reader.scan()
        torn = scan.torn
        dropped = 0
        if torn is not None:
            dropped = reader.repair(scan)
            counter_inc(
                "repro.index.store.torn_tail_truncated", dropped
            )
        self._overlay = {}
        self._deleted = set()
        for offset, payload in scan.records:
            record = LogReader.decode(
                payload, path=segment_path, offset=offset
            )
            self._apply(record, segment_path, offset)
        self._wal_records = len(scan.records)
        self._writer = SegmentWriter(
            segment_path, generation, sync_every=self.sync_every
        )
        self.last_recovery = RecoveryReport(
            generation=generation,
            snapshot_tables=len(self._manifest["tables"]),
            wal_records=len(scan.records),
            wal_bytes=scan.valid_length,
            torn_bytes_dropped=dropped,
            torn_offset=torn.offset if torn else None,
            torn_reason=torn.reason if torn else None,
        )

    def _apply(self, record: dict, segment_path: Path, offset: int) -> None:
        """Replay one log record onto the overlay (idempotent by design)."""
        op = record.get("op")
        name = record.get("name")
        if not isinstance(name, str):
            raise StoreCorruptionError(
                f"WAL record at byte offset {offset} of {segment_path} "
                f"has no table name",
                path=segment_path, offset=offset,
            )
        if op == "put":
            if (
                not isinstance(record.get("table"), dict)
                or "fingerprint" not in record
            ):
                raise StoreCorruptionError(
                    f"WAL put record for table {name!r} at byte offset "
                    f"{offset} of {segment_path} is missing its payload",
                    path=segment_path, offset=offset,
                )
            self._overlay[name] = record
            self._deleted.discard(name)
        elif op == "del":
            self._overlay.pop(name, None)
            if name in self._manifest["tables"]:
                self._deleted.add(name)
        else:
            raise StoreCorruptionError(
                f"WAL record at byte offset {offset} of {segment_path} "
                f"has unknown op {op!r}",
                path=segment_path, offset=offset,
            )

    def manifest(self) -> dict:
        """The validated snapshot manifest (opening the store if needed)."""
        self.open()
        assert self._manifest is not None
        return self._manifest

    def _flush_manifest(self) -> None:
        assert self._manifest is not None
        _write_json(self.path / _MANIFEST, self._manifest)

    # -- accessors ----------------------------------------------------------

    def params(self) -> IndexParams:
        return IndexParams.from_dict(self.manifest().get("params", {}))

    def options(self) -> MatchOptions:
        return _options_from_dict(self.manifest().get("options", {}))

    def table_names(self) -> list[str]:
        manifest = self.manifest()
        names = set(manifest["tables"]) - self._deleted
        names.update(self._overlay)
        return sorted(names)

    def wal_records(self) -> int:
        """Records currently in the log (replayed + appended)."""
        self.open()
        return self._wal_records

    def stats(self) -> dict:
        """Counters for diagnostics and the CLI verbs."""
        manifest = self.manifest()
        return {
            "generation": manifest["generation"],
            "tables": len(self.table_names()),
            "snapshot_tables": len(manifest["tables"]),
            "wal_records": self._wal_records,
            "wal_synced": self._writer.in_sync if self._writer else True,
            "recovery": (
                self.last_recovery.as_dict() if self.last_recovery else None
            ),
        }

    # -- mutation -----------------------------------------------------------

    def _append(self, record: dict) -> None:
        if self._writer is None:
            raise FormatError(
                f"index store at {self.path} is closed; "
                f"call open() before mutating it"
            )
        self._writer.append_record(record)
        self._wal_records += 1
        counter_inc("repro.index.store.wal_appends")

    def _maybe_auto_compact(self) -> None:
        """Fold the log once it crosses the auto-compaction threshold.

        Must run *after* the caller has mirrored its mutation into
        ``_overlay``/``_deleted``: compaction folds the in-memory overlay
        into the new snapshot and then discards the old segment, so a
        record appended but not yet mirrored would be silently dropped.
        """
        if (
            self.auto_compact_records
            and self._wal_records >= self.auto_compact_records
        ):
            self.compact()

    def write_table(
        self, name: str, instance: Instance, sketch: InstanceSketch
    ) -> None:
        """Log an upsert of one table (durable per the group-commit window)."""
        self.open()
        record = {
            "op": "put",
            "name": name,
            "table": {
                "name": name,
                "instance": instance_to_dict(instance),
                "sketch": sketch_to_dict(sketch),
            },
            "fingerprint": sketch.fingerprint,
        }
        self._append(record)
        self._overlay[name] = record
        self._deleted.discard(name)
        self._maybe_auto_compact()

    def remove_table(self, name: str) -> None:
        """Log the removal of one table (the file lives until compaction)."""
        if name not in self.table_names():
            raise KeyError(f"no table {name!r} in the index store")
        self._append({"op": "del", "name": name})
        self._overlay.pop(name, None)
        if name in self.manifest()["tables"]:
            self._deleted.add(name)
        self._maybe_auto_compact()

    def sync(self) -> None:
        """Make every logged mutation durable (group-commit fsync)."""
        self.open()
        if self._writer is not None:
            self._writer.sync()

    def bulk_write(
        self, tables: list[tuple[str, Instance, InstanceSketch]]
    ) -> None:
        """Write ``tables`` straight into the snapshot (bypassing the log).

        The bulk path for :meth:`SimilarityIndex.save`: table files first,
        then one manifest flush as the commit point.  Requires a freshly
        initialized store (an empty log); incremental mutations belong in
        the WAL.
        """
        manifest = self.manifest()
        if self._wal_records or self._overlay or self._deleted:
            raise FormatError(
                "bulk_write requires a freshly initialized store "
                "(the WAL must be empty)"
            )
        generation = manifest["generation"]
        for name, instance, sketch in tables:
            filename = _table_filename(name, generation)
            _write_json(
                self._tables_path / filename,
                {
                    "name": name,
                    "instance": instance_to_dict(instance),
                    "sketch": sketch_to_dict(sketch),
                },
            )
            manifest["tables"][name] = {
                "file": filename,
                "fingerprint": sketch.fingerprint,
            }
        self._flush_manifest()

    # -- compaction ---------------------------------------------------------

    def compact(self) -> CompactionReport:
        """Fold the log into a new snapshot generation.

        Safe at every crash point: new table files and the new segment
        use generation-qualified names (nothing the old manifest
        references is touched), and the atomic manifest replace is the
        single commit point.  Readers holding the old manifest keep a
        complete store; a crash before the commit leaves the old
        generation; after it, the new one.  Orphaned files from a crash
        mid-cleanup are swept by the next compaction and reported as
        warnings by :meth:`verify`.
        """
        manifest = self.manifest()
        fault_checkpoint("storage")
        old_generation = manifest["generation"]
        records_folded = self._wal_records
        if records_folded == 0:
            return CompactionReport(
                old_generation, old_generation, 0, 0, 0, 0
            )
        assert self._writer is not None
        self._writer.close()
        new_generation = old_generation + 1

        tables = {
            name: dict(entry)
            for name, entry in manifest["tables"].items()
            if name not in self._deleted and name not in self._overlay
        }
        rewritten = 0
        for name in sorted(self._overlay):
            record = self._overlay[name]
            filename = _table_filename(name, new_generation)
            _write_json(self._tables_path / filename, record["table"])
            tables[name] = {
                "file": filename,
                "fingerprint": record["fingerprint"],
            }
            rewritten += 1
        dropped = len(self._deleted)

        writer = SegmentWriter.create(
            self._wal_path / segment_name(new_generation),
            new_generation,
            sync_every=self.sync_every,
        )
        _fsync_dir(self._wal_path)

        new_manifest = dict(
            manifest,
            generation=new_generation,
            tables=tables,
            wal=f"{_WAL_DIR}/{segment_name(new_generation)}",
        )
        _write_json(self.path / _MANIFEST, new_manifest)  # commit point

        removed = self._sweep(tables, new_generation)

        self._manifest = new_manifest
        self._overlay = {}
        self._deleted = set()
        self._wal_records = 0
        self._writer = writer
        counter_inc("repro.index.store.compactions")
        return CompactionReport(
            old_generation=old_generation,
            new_generation=new_generation,
            records_folded=records_folded,
            tables_rewritten=rewritten,
            tables_dropped=dropped,
            files_removed=removed,
        )

    def _sweep(self, tables: dict, generation: int) -> int:
        """Remove files the committed manifest no longer references."""
        io = io_layer()
        referenced = {entry["file"] for entry in tables.values()}
        removed = 0
        for stale in sorted(self._tables_path.glob("*.json")):
            if stale.name not in referenced:
                io.unlink(stale)
                removed += 1
        current = segment_name(generation)
        for stale in sorted(self._wal_path.glob("segment-*.log")):
            if stale.name != current:
                io.unlink(stale)
                removed += 1
        _fsync_dir(self._tables_path)
        _fsync_dir(self._wal_path)
        return removed

    # -- reading ------------------------------------------------------------

    def load_table(self, name: str) -> tuple[Instance, InstanceSketch]:
        """Decode one table, verifying all three fingerprint records agree."""
        self.open()
        if name in self._overlay:
            return self._decode_overlay(name)
        manifest = self.manifest()
        if name in self._deleted or name not in manifest["tables"]:
            raise KeyError(f"no table {name!r} in the index store")
        entry = manifest["tables"][name]
        table_path = self._tables_path / entry["file"]
        payload = _read_json(table_path, f"table file for {name!r}")
        return self._decode_table(
            name, payload, entry.get("fingerprint"), table_path
        )

    def _decode_overlay(self, name: str) -> tuple[Instance, InstanceSketch]:
        record = self._overlay[name]
        segment_path = self.path / self.manifest()["wal"]
        return self._decode_table(
            name, record["table"], record.get("fingerprint"), segment_path
        )

    def _decode_table(
        self, name: str, payload: dict, recorded, where: Path
    ) -> tuple[Instance, InstanceSketch]:
        if payload.get("name") != name:
            raise StoreCorruptionError(
                f"table payload at {where} claims name "
                f"{payload.get('name')!r}, the store says {name!r}",
                path=where, expected=name, actual=payload.get("name"),
            )
        try:
            instance = instance_from_dict(payload["instance"])
            sketch = sketch_from_dict(payload["sketch"])
        except KeyError as error:
            raise StoreCorruptionError(
                f"table payload for {name!r} at {where} is missing {error}",
                path=where,
            ) from error
        recomputed = instance_fingerprint(instance)
        if not (recorded == sketch.fingerprint == recomputed):
            raise StoreCorruptionError(
                f"fingerprint mismatch for table {name!r} at {where}: "
                f"expected {recorded!r} (store entry), actual sketch "
                f"{sketch.fingerprint!r} / recomputed {recomputed!r}",
                path=where,
                expected=recorded,
                actual={
                    "sketch": sketch.fingerprint,
                    "recomputed": recomputed,
                },
            )
        return instance, sketch

    # -- verification -------------------------------------------------------

    def verify(self) -> list[StoreFinding]:
        """Audit the whole store; returns every finding, best-effort.

        Unlike :meth:`open`, verification is read-only (a torn WAL tail
        is reported, not truncated) and never stops at the first problem:
        each table is checked independently so the report names *every*
        corrupt table, and the WAL is scanned even when a table file is
        bad.  ``severity == "error"`` findings mean the store cannot be
        trusted; ``"warning"`` findings are harmless debris.
        """
        findings: list[StoreFinding] = []
        try:
            manifest = _read_json(self.path / _MANIFEST, "index manifest")
            probe = IndexStore(self.path)
            probe._load_manifest()
        except StoreCorruptionError as error:
            return [_finding_from_corruption(error, "manifest")]
        except FormatError as error:
            return [
                StoreFinding(
                    severity="error", kind="manifest", message=str(error),
                    path=str(self.path / _MANIFEST),
                )
            ]

        overlay: dict[str, dict] = {}
        deleted: set[str] = set()
        segment_path = self.path / manifest["wal"]
        try:
            scan = LogReader(
                segment_path, expect_generation=manifest["generation"]
            ).scan()
        except StoreCorruptionError as error:
            findings.append(_finding_from_corruption(error, "wal"))
            scan = None
        if scan is not None:
            if scan.torn is not None:
                findings.append(
                    StoreFinding(
                        severity="error",
                        kind="wal-torn-tail",
                        message=(
                            f"WAL segment {segment_path} has a torn tail: "
                            f"{scan.torn.describe()}; "
                            f"{scan.torn_bytes} byte(s) after the last "
                            f"valid record would be dropped by recovery"
                        ),
                        path=str(segment_path),
                        offset=scan.torn.offset,
                        expected=scan.torn.expected_crc,
                        actual=scan.torn.actual_crc,
                    )
                )
            prober = IndexStore(self.path)
            prober._manifest = manifest
            for offset, payload in scan.records:
                try:
                    record = LogReader.decode(
                        payload, path=segment_path, offset=offset
                    )
                    prober._overlay = overlay
                    prober._deleted = deleted
                    prober._apply(record, segment_path, offset)
                except StoreCorruptionError as error:
                    findings.append(_finding_from_corruption(error, "wal"))

        names = sorted(
            (set(manifest["tables"]) - deleted) | set(overlay)
        )
        checker = IndexStore(self.path)
        checker._manifest = manifest
        checker._overlay = overlay
        checker._deleted = deleted
        checker._wal_records = len(overlay)
        checker._writer = _ClosedWriter()
        checker.last_recovery = RecoveryReport(
            generation=manifest["generation"],
            snapshot_tables=len(manifest["tables"]),
            wal_records=len(overlay),
            wal_bytes=0,
        )
        for name in names:
            try:
                checker.load_table(name)
            except StoreCorruptionError as error:
                findings.append(
                    _finding_from_corruption(error, "table", table=name)
                )
            except FormatError as error:
                findings.append(
                    StoreFinding(
                        severity="error", kind="table", message=str(error),
                        table=name,
                    )
                )

        referenced = {
            entry["file"] for entry in manifest["tables"].values()
        }
        for stale in sorted(self._tables_path.glob("*.json")):
            if stale.name not in referenced:
                findings.append(
                    StoreFinding(
                        severity="warning", kind="orphan",
                        message=(
                            f"table file {stale.name} is not referenced "
                            f"by the manifest (debris from an interrupted "
                            f"compaction; the next compaction sweeps it)"
                        ),
                        path=str(stale),
                    )
                )
        current = Path(manifest["wal"]).name
        for stale in sorted(self._wal_path.glob("segment-*.log")):
            if stale.name != current:
                findings.append(
                    StoreFinding(
                        severity="warning", kind="orphan",
                        message=(
                            f"WAL segment {stale.name} belongs to a "
                            f"previous generation (debris from an "
                            f"interrupted compaction)"
                        ),
                        path=str(stale),
                    )
                )
        return findings


class _ClosedWriter:
    """Stand-in writer for read-only probes (verify must not append)."""

    in_sync = True

    def append_record(self, record: dict) -> int:  # pragma: no cover
        raise AssertionError("read-only store probe cannot append")

    def sync(self) -> None:  # pragma: no cover - nothing to sync
        pass

    def close(self) -> None:
        pass


def save_index(index, path) -> IndexStore:
    """Persist ``index`` at ``path`` and bind the store for incremental writes."""
    return index.save(path)


def load_index(path, cache: SignatureCache | None = None):
    """Rebuild a :class:`~repro.index.core.SimilarityIndex` from a store.

    Opening runs recovery (torn-tail truncation + WAL replay); tables are
    installed in sorted-name order with their *stored* sketches (no
    re-sketching), and the LSH tables are rebuilt from those sketches —
    both deterministic, so two loads of the same store are identical, and
    a load of a just-saved index equals the original.
    """
    from .core import SimilarityIndex

    store = IndexStore(path)
    store.open()
    index = SimilarityIndex(
        params=store.params(), options=store.options(), cache=cache
    )
    for name in store.table_names():
        instance, sketch = store.load_table(name)
        index._restore(name, instance, sketch)
    index.bind(store)
    return index


__all__ = [
    "FORMAT_NAME",
    "FORMAT_VERSION",
    "CompactionReport",
    "IndexStore",
    "RecoveryReport",
    "StoreFinding",
    "load_index",
    "save_index",
]
