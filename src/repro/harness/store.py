"""JSONL-on-disk result store keyed by scenario content hash.

Every record is one JSON object per line with at least a ``spec_hash``
field (the :meth:`~repro.harness.scenario.Scenario.spec_hash` of the run)
plus the measurements the runner produced.  Records contain no timestamps
or host-dependent fields, so a store written by a parallel run is
byte-identical to one written serially.

Every mutation rewrites the file **atomically**: records are serialised to
a temp file in the same directory, fsync'd, and moved over the store with
``os.replace``.  A run interrupted at any point (SIGKILL included) leaves
either the old store or the new one on disk — never a truncated line — and
each rewrite doubles as compaction, so a hash appears at most once.

A handle keeps each record in memory as its canonical line, so a put
encodes only the new records and writes the rest as stored; reads parse
on demand into fresh dicts.  A put re-reads the file (to fold in another
writer's records) only when the file is no longer the one this handle last
loaded or wrote.

Two scenarios carry two distinct keys here:

* ``spec_hash`` — spec **plus** :data:`repro.__version__`; the cache key.
* the *identity* (:func:`record_identity`) — the canonical JSON of the
  spec alone.  It is stable across version bumps, which is what lets
  :meth:`ResultStore.compact` drop superseded-version records of the same
  experiment and :func:`diff_stores` line up before/after measurements of
  one scenario across a simulator change.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro import __version__

Record = Dict[str, Any]


def record_identity(record: Record) -> str:
    """Version-independent identity of a record: its canonical spec JSON.

    Equals :meth:`Scenario.canonical_json` of the scenario that produced
    the record.  Records without an embedded spec (hand-written test
    fixtures) fall back to their ``spec_hash``.
    """
    spec = record.get("scenario")
    if spec is None:
        return str(record.get("spec_hash"))
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


def _version_key(version: Optional[str]) -> Tuple:
    """Sort key ordering release strings like ``1.2.0`` (missing = oldest)."""
    if not version:
        return ((0, 0),)
    parts = []
    for token in str(version).split("."):
        # Numeric components sort numerically, anything else lexically
        # after numbers ("1.2.0" < "1.2.0rc1" is fine for our purposes).
        parts.append((0, int(token)) if token.isdigit() else (1, token))
    return tuple(parts)


class ResultStore:
    """A cache of scenario results persisted as one JSONL file."""

    def __init__(self, path: str | os.PathLike) -> None:
        self.path = Path(path)
        #: spec_hash -> canonical JSONL line (no trailing newline).
        self._lines: Dict[str, str] = {}
        #: (st_dev, st_ino, st_size, st_mtime_ns) of the file this handle
        #: last loaded or wrote; None when it has seen no file.
        self._disk_sig: Optional[Tuple[int, int, int, int]] = None
        #: Observability (repro.obs), attached by run_suite / the CLI for
        #: the span of one operation.  Observer-only: spans cover rewrites,
        #: counters count them; the bytes written never change.
        self.tracer = None
        self.metrics = None
        if self.path.exists():
            self._lines, self._disk_sig = self._read_disk()

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------
    def _read_disk(self) -> Tuple[Dict[str, str], Tuple[int, int, int, int]]:
        """Parse the file into canonical lines, plus the signature of the
        inode actually read (``fstat`` of the open handle, so a concurrent
        ``os.replace`` can never pair our lines with its signature)."""
        lines: Dict[str, str] = {}
        with self.path.open("r", encoding="utf-8") as fh:
            sig = _signature(os.fstat(fh.fileno()))
            for line_no, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"{self.path}:{line_no}: corrupt result store line: {exc}"
                    ) from exc
                key = record.get("spec_hash")
                if not key:
                    raise ValueError(f"{self.path}:{line_no}: record has no spec_hash")
                # Last record for a hash wins (append-only update semantics).
                lines[key] = self.encode(record)
        return lines, sig

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._lines)

    def __contains__(self, spec_hash: str) -> bool:
        return spec_hash in self._lines

    def line(self, spec_hash: str) -> Optional[str]:
        """The stored canonical JSONL line (no newline), or None."""
        return self._lines.get(spec_hash)

    def get(self, spec_hash: str) -> Optional[Record]:
        """The stored record for a scenario hash, or None on a cache miss.

        Each call parses a fresh dict; mutating it never touches the store.
        """
        line = self._lines.get(spec_hash)
        if self.metrics is not None:
            self.metrics.counter(
                "store_lookups_total", "Store cache lookups", ("result",),
            ).inc(result="hit" if line is not None else "miss")
        return None if line is None else json.loads(line)

    def records(self) -> List[Record]:
        """All stored records, in insertion order."""
        return list(self)

    def __iter__(self) -> Iterator[Record]:
        return (json.loads(line) for line in list(self._lines.values()))

    def stale_records(self, current_version: Optional[str] = None) -> List[Record]:
        """Records written by a repro version other than ``current_version``.

        Stale records are unreachable through the cache (the version is part
        of ``spec_hash``) but still occupy the file until compacted away.
        """
        current = current_version if current_version is not None else __version__
        return [r for r in self if r.get("repro_version") != current]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    @staticmethod
    def encode(record: Record) -> str:
        """Canonical single-line encoding shared by every write path."""
        return json.dumps(record, sort_keys=True, separators=(",", ":"))

    def put(self, record: Record) -> None:
        """Insert or replace the record for ``record['spec_hash']``."""
        self.put_many([record])

    def put_many(self, records: List[Record]) -> None:
        """Insert or replace a batch of records with one atomic rewrite.

        Batching matters: a ``--force`` re-run replaces many records at
        once, and one rewrite per batch keeps I/O at O(store) instead of
        O(batch x store).  Each record is encoded once; the rest of the
        store is written from its stored lines.  Before rewriting, records
        another process added to the file since our load are folded in
        (best effort — the window between that read and our rename remains
        a last-writer-wins race, but two suite runs appending different
        scenarios to one store no longer silently drop each other's
        results).
        """
        for record in records:
            key = record.get("spec_hash")
            if not key:
                raise ValueError("record must carry a spec_hash")
            self._lines[key] = self.encode(record)
        if records:
            if self.tracer is not None:
                with self.tracer.span("store_put", "store",
                                      records=len(records)):
                    self._merge_disk()
                    self._rewrite()
            else:
                self._merge_disk()
                self._rewrite()
            if self.metrics is not None:
                self.metrics.counter(
                    "store_puts_total", "Records written to the store",
                ).inc(len(records))

    def _merge_disk(self) -> None:
        """Fold in on-disk records a concurrent writer added since our load.

        Our own records win on conflicting hashes (that is what ``put``
        means); only hashes we have never seen are adopted.  When the file
        is still the one this handle last loaded or wrote (same device,
        inode, size and mtime), nobody else has replaced it and the re-read
        is skipped.
        """
        try:
            sig = _signature(os.stat(self.path))
        except FileNotFoundError:
            return
        if sig == self._disk_sig:
            return
        on_disk, _ = self._read_disk()
        for key, line in on_disk.items():
            if key not in self._lines:
                self._lines[key] = line

    def _rewrite(self) -> None:
        """Persist the in-memory records, crash-safely.

        The new contents are written to a temp file in the store's own
        directory (so ``os.replace`` stays within one filesystem), flushed
        and fsync'd, and only then moved over the store.  An interruption at
        any point leaves the previous store intact.
        """
        if self.metrics is not None:
            self.metrics.counter(
                "store_rewrites_total", "Atomic store rewrites").inc()
            self.metrics.gauge(
                "store_records", "Records in the store").set(len(self._lines))
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=str(self.path.parent), suffix=".jsonl.tmp")
        try:
            # A 1 MiB buffer: a few large writes instead of one per 8 KiB.
            with os.fdopen(fd, "w", encoding="utf-8",
                           buffering=1 << 20) as fh:
                for line in self._lines.values():
                    fh.write(line + "\n")
                fh.flush()
                os.fsync(fh.fileno())
                sig = _signature(os.fstat(fh.fileno()))
            os.replace(tmp, self.path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
        self._disk_sig = sig
        self._fsync_parent()

    def _fsync_parent(self) -> None:
        """Flush the directory entry so the rename itself survives a crash."""
        try:
            dir_fd = os.open(str(self.path.parent), os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(dir_fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(dir_fd)

    # ------------------------------------------------------------------
    # Lifecycle: compaction and garbage collection
    # ------------------------------------------------------------------
    def compact(self) -> List[Record]:
        """Drop superseded-version records; keep the newest per identity.

        When the same experiment (identical spec, so identical
        :func:`record_identity`) has records from several repro versions,
        only the one with the highest version survives.  Returns the
        dropped records; rewrites atomically only when something changed.
        """
        best: Dict[str, Record] = {}
        records = list(self)
        for record in records:
            identity = record_identity(record)
            incumbent = best.get(identity)
            if incumbent is None or (
                _version_key(record.get("repro_version"))
                >= _version_key(incumbent.get("repro_version"))
            ):
                best[identity] = record
        keep = {r["spec_hash"] for r in best.values()}
        dropped = [r for r in records if r["spec_hash"] not in keep]
        if dropped:
            self._drop(dropped, "store_compact")
        return dropped

    def gc(self, current_version: Optional[str] = None) -> List[Record]:
        """Drop every record not written by ``current_version``.

        Stricter than :meth:`compact`: even experiments that only ever ran
        under an old version are dropped, leaving exactly the records the
        cache can still serve.  Returns the dropped records.
        """
        dropped = self.stale_records(current_version)
        if dropped:
            self._drop(dropped, "store_gc")
        return dropped

    def _drop(self, dropped: List[Record], span: str) -> None:
        """Remove ``dropped`` from memory and rewrite the file atomically."""
        gone = {r["spec_hash"] for r in dropped}
        self._lines = {k: line for k, line in self._lines.items()
                       if k not in gone}
        if self.tracer is not None:
            with self.tracer.span(span, "store", dropped=len(dropped)):
                self._rewrite()
        else:
            self._rewrite()


def _signature(st: os.stat_result) -> Tuple[int, int, int, int]:
    """Identity of one file version: a rewrite changes the inode."""
    return (st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns)


# ----------------------------------------------------------------------
# Store diffing
# ----------------------------------------------------------------------
#: Metrics compared by :func:`diff_stores`; dotted paths index into records.
DIFF_METRICS: Tuple[str, ...] = (
    "total_cycles",
    "query_cycles",
    "edges_stored",
    "ghost_blocks",
    "energy.total_uj",
    "energy.time_us",
)


def _metric_value(record: Record, path: str) -> Optional[float]:
    value: Any = record
    for part in path.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value if isinstance(value, (int, float)) else None


@dataclass
class MetricDelta:
    """One metric's movement between two stores for one scenario."""

    metric: str
    before: float
    after: float

    @property
    def delta(self) -> float:
        return self.after - self.before

    @property
    def pct(self) -> Optional[float]:
        """Relative change in percent (None when the baseline is zero)."""
        if self.before == 0:
            return None
        return 100.0 * self.delta / self.before


@dataclass
class DiffEntry:
    """One scenario present in both stores, with its changed metrics."""

    name: str
    identity: str
    version_a: Optional[str]
    version_b: Optional[str]
    deltas: List[MetricDelta] = field(default_factory=list)


@dataclass
class StoreDiff:
    """Structured comparison of two result stores, keyed by spec identity."""

    matched: List[DiffEntry] = field(default_factory=list)
    only_a: List[Record] = field(default_factory=list)
    only_b: List[Record] = field(default_factory=list)
    stale_a: List[Record] = field(default_factory=list)
    stale_b: List[Record] = field(default_factory=list)

    @property
    def changed(self) -> List[DiffEntry]:
        return [entry for entry in self.matched if entry.deltas]

    @property
    def identical(self) -> bool:
        """True when every shared scenario agrees and neither side has extras."""
        return not self.changed and not self.only_a and not self.only_b


def diff_stores(
    store_a: ResultStore,
    store_b: ResultStore,
    *,
    metrics: Tuple[str, ...] = DIFF_METRICS,
    current_version: Optional[str] = None,
) -> StoreDiff:
    """Compare two stores scenario by scenario.

    Records are matched on :func:`record_identity` — the version-independent
    spec — so a store written before a simulator change lines up with one
    written after it even though every ``spec_hash`` differs.  Shared
    scenarios contribute a :class:`MetricDelta` per metric that moved;
    unmatched records land in ``only_a`` / ``only_b``, and each side's
    records from non-current repro versions are listed as stale.
    """
    by_identity_a = {record_identity(r): r for r in store_a}
    by_identity_b = {record_identity(r): r for r in store_b}

    diff = StoreDiff(
        stale_a=store_a.stale_records(current_version),
        stale_b=store_b.stale_records(current_version),
    )
    for identity, rec_a in by_identity_a.items():
        rec_b = by_identity_b.get(identity)
        if rec_b is None:
            diff.only_a.append(rec_a)
            continue
        entry = DiffEntry(
            name=rec_a.get("name") or rec_b.get("name") or identity[:40],
            identity=identity,
            version_a=rec_a.get("repro_version"),
            version_b=rec_b.get("repro_version"),
        )
        for metric in metrics:
            before = _metric_value(rec_a, metric)
            after = _metric_value(rec_b, metric)
            if before is None or after is None or before == after:
                continue
            entry.deltas.append(MetricDelta(metric=metric, before=before,
                                            after=after))
        diff.matched.append(entry)
    for identity, rec_b in by_identity_b.items():
        if identity not in by_identity_a:
            diff.only_b.append(rec_b)
    return diff
