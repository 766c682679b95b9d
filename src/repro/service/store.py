"""Content-addressed artifact store for service results.

Every service request canonicalises (:func:`repro.io.serialization.
canonicalize`) into a stable **digest** — sha256 over the request kind,
the normalised request fields, and
:data:`~repro.analysis.runner.CACHE_SCHEMA_VERSION` — and the store
maps digests to persisted results + metadata.  This is the same
canonical-JSON/schema-version scheme the parallel runner's
:func:`~repro.analysis.runner.job_token` pickle cache uses, lifted to
whole requests: one schema bump invalidates both layers, and equal
digests are the service's licence to dedupe (the queue coalesces
in-flight digests; the store serves finished ones).

Layout: ``<root>/objects/<digest[:2]>/<digest>.json``, one JSON
document per artifact::

    {"format": "repro.artifact.v1",
     "digest": "...",
     "metadata": {"kind": ..., "request": ..., "schema": ...,
                  "created_at": ..., "compute_s": ...},
     "result": <JSON-able result payload>}

Results are stored as JSON (not pickle) so ``GET /artifacts/<digest>``
can stream them verbatim and so float results survive bit-exactly
(Python's JSON float round-trip is lossless).  Writes are atomic
(:func:`repro.io.atomic.atomic_write_bytes`); torn or foreign files
read as misses, never as errors.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from ..analysis import runner as _runner
from ..io.atomic import atomic_write_bytes
from ..io.serialization import canonical_json

PathLike = Union[str, Path]

#: On-disk artifact document format tag.
ARTIFACT_FORMAT = "repro.artifact.v1"


def request_digest(kind: str, request: Any) -> str:
    """Stable content digest of a service request.

    Covers the request kind, the canonicalised request fields, and the
    live :data:`~repro.analysis.runner.CACHE_SCHEMA_VERSION` (read at
    call time, so a version bump immediately re-keys every request).

    A request exposing ``digest_document()`` is digested by that
    document instead of its raw fields — how :class:`~repro.service.
    requests.MapRequest` normalises its benchmark *name* to the
    circuit's content digest, so aliased workload names coalesce onto
    one queue job and one artifact at submission time (layer 1), not
    just at the runner cache (layer 3).
    """
    if hasattr(request, "digest_document"):
        request = request.digest_document()
    payload = canonical_json(
        {"schema": _runner.CACHE_SCHEMA_VERSION, "kind": kind,
         "request": request})
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass(frozen=True)
class ArtifactRecord:
    """One stored artifact: digest, metadata, and the result payload."""

    digest: str
    metadata: Dict[str, Any]
    result: Any

    def to_document(self) -> Dict[str, Any]:
        """The on-disk / over-the-wire JSON document."""
        return {"format": ARTIFACT_FORMAT, "digest": self.digest,
                "metadata": self.metadata, "result": self.result}


class ArtifactStore:
    """Digest-addressed persistence of request results.

    Args:
        root: Store directory (created on first write).
        max_bytes: Optional size cap over all stored artifacts.  Every
            :meth:`put` that pushes the total above the cap evicts the
            oldest-mtime artifacts (never the one just written) until
            the store fits; evictions are counted for ``/metrics``.
    """

    def __init__(self, root: PathLike,
                 max_bytes: Optional[int] = None) -> None:
        if max_bytes is not None and max_bytes < 1:
            raise ValueError("max_bytes must be a positive byte count")
        self.root = Path(root)
        self.max_bytes = max_bytes
        self.evictions = 0
        self.hits = 0
        self.misses = 0
        self._stats_lock = threading.Lock()
        #: Digests this process has validated (successful get) or
        #: written (put) — lets hot-path callers skip re-parsing a
        #: known-good artifact.  Bounded; validity still requires the
        #: file to exist (callers pair this with :meth:`contains`).
        self._validated: set = set()
        self._max_validated = 65536

    def path(self, digest: str) -> Path:
        """On-disk location of one artifact document."""
        return self.root / "objects" / digest[:2] / f"{digest}.json"

    def digest_request(self, kind: str, request: Any) -> str:
        """Alias of :func:`request_digest` (kept on the store for DI)."""
        return request_digest(kind, request)

    def get(self, digest: str) -> Optional[ArtifactRecord]:
        """Load one artifact; ``None`` (a miss) when absent or torn."""
        path = self.path(digest)
        try:
            document = json.loads(path.read_text())
        except (OSError, ValueError):
            with self._stats_lock:
                self.misses += 1
            return None
        if (not isinstance(document, dict)
                or document.get("format") != ARTIFACT_FORMAT
                or document.get("digest") != digest):
            with self._stats_lock:
                self.misses += 1
                self._validated.discard(digest)
            return None
        with self._stats_lock:
            self.hits += 1
            self._remember_locked(digest)
        return ArtifactRecord(digest=digest,
                              metadata=document.get("metadata", {}),
                              result=document.get("result"))

    def contains(self, digest: str) -> bool:
        """Existence check without counting a hit/miss."""
        return self.path(digest).exists()

    def _remember_locked(self, digest: str) -> None:
        if len(self._validated) >= self._max_validated:
            self._validated.clear()  # cheap, refills on demand
        self._validated.add(digest)

    def note_hit(self) -> None:
        """Count a hit served from the :meth:`remembers` fast path.

        Callers that skip the validating read must still feed the
        hit-rate metric, or a fully warm service would report a cold
        cache.
        """
        with self._stats_lock:
            self.hits += 1

    def remembers(self, digest: str) -> bool:
        """True when this process already validated/wrote the digest.

        A positive answer spares callers the O(artifact-size) re-parse
        of :meth:`get` on hot paths; pair it with :meth:`contains` so a
        deleted file still reads as a miss.
        """
        with self._stats_lock:
            return digest in self._validated

    def put(self, digest: str, result: Any,
            metadata: Optional[Dict[str, Any]] = None) -> ArtifactRecord:
        """Persist one result atomically; racing writers never tear.

        The result must be JSON-serialisable (executors return plain
        payload dicts).  Metadata is stamped with the creation time and
        the live schema version.
        """
        metadata = dict(metadata or {})
        metadata.setdefault("schema", _runner.CACHE_SCHEMA_VERSION)
        metadata.setdefault("created_at", time.time())
        record = ArtifactRecord(digest=digest, metadata=metadata,
                                result=result)
        atomic_write_bytes(
            self.path(digest),
            json.dumps(record.to_document(),
                       separators=(",", ":")).encode())
        with self._stats_lock:
            self._remember_locked(digest)
        self._evict_over_cap(keep=digest)
        return record

    def _evict_over_cap(self, keep: str) -> None:
        """Drop oldest-mtime artifacts until the store fits the cap.

        The just-written ``keep`` digest is never evicted, so a single
        artifact larger than the cap still persists (the cap bounds
        steady-state growth, not one write).  Unlink races read as
        already-evicted, never as errors.
        """
        if self.max_bytes is None:
            return
        objects = self.root / "objects"
        if not objects.is_dir():
            return
        entries = []
        total = 0
        for path in objects.glob("*/*.json"):
            try:
                stat = path.stat()
            except OSError:
                continue
            entries.append((stat.st_mtime, stat.st_size, path))
            total += stat.st_size
        if total <= self.max_bytes:
            return
        entries.sort(key=lambda e: (e[0], e[2].name))
        for _, size, path in entries:
            if path.stem == keep:
                continue
            try:
                path.unlink()
            except OSError:
                continue
            with self._stats_lock:
                self.evictions += 1
                self._validated.discard(path.stem)
            total -= size
            if total <= self.max_bytes:
                break

    def nearest_placement(self, topology: str,
                          segment_size_mm: Optional[float] = None
                          ) -> Optional[ArtifactRecord]:
        """Newest stored ``place`` artifact matching a topology.

        The warm-start lookup: scans the store for ``place`` artifacts
        whose request targeted ``topology`` (and, when given,
        ``segment_size_mm``) and that carry serialised layouts, and
        returns the most recently created one — or ``None`` when the
        store holds no usable match.  Torn or foreign files are
        skipped, and the scan bypasses :meth:`get` so it never skews
        the hit/miss metrics.
        """
        objects = self.root / "objects"
        if not objects.is_dir():
            return None
        best: Optional[ArtifactRecord] = None
        best_created = float("-inf")
        for path in objects.glob("*/*.json"):
            try:
                document = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if (not isinstance(document, dict)
                    or document.get("format") != ARTIFACT_FORMAT):
                continue
            metadata = document.get("metadata")
            if not isinstance(metadata, dict) \
                    or metadata.get("kind") != "place":
                continue
            stored = metadata.get("request")
            if isinstance(stored, dict) and "__dataclass__" in stored:
                stored = stored.get("fields")  # canonicalize() wrapper
            if not isinstance(stored, dict) \
                    or stored.get("topology") != topology:
                continue
            if segment_size_mm is not None and \
                    stored.get("segment_size_mm") != segment_size_mm:
                continue
            result = document.get("result")
            if not isinstance(result, dict) \
                    or not result.get("strategies"):
                continue
            layouts = [s for s in result["strategies"].values()
                       if isinstance(s, dict) and s.get("layout")]
            if not layouts:
                continue  # metrics-only artifact: nothing to seed from
            created = metadata.get("created_at")
            created = created if isinstance(created, (int, float)) \
                else float("-inf")
            if best is None or created > best_created:
                best = ArtifactRecord(digest=document.get("digest", ""),
                                      metadata=metadata, result=result)
                best_created = created
        return best

    def artifacts_for_circuit(self, circuit_digest: str
                              ) -> List[ArtifactRecord]:
        """All stored artifacts stamped with one circuit content digest.

        The content-addressed view of the store: map results carry the
        compiled circuit's digest in their metadata (see the scheduler),
        so the same workload submitted under any benchmark name is
        discoverable here.  Newest first; torn or foreign files are
        skipped, and like :meth:`nearest_placement` the scan bypasses
        :meth:`get` so it never skews the hit/miss metrics.
        """
        objects = self.root / "objects"
        if not objects.is_dir():
            return []
        found: List[Tuple[float, ArtifactRecord]] = []
        for path in objects.glob("*/*.json"):
            try:
                document = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
            if (not isinstance(document, dict)
                    or document.get("format") != ARTIFACT_FORMAT):
                continue
            metadata = document.get("metadata")
            if not isinstance(metadata, dict) \
                    or metadata.get("circuit_digest") != circuit_digest:
                continue
            created = metadata.get("created_at")
            created = created if isinstance(created, (int, float)) else 0.0
            found.append((created, ArtifactRecord(
                digest=document.get("digest", ""),
                metadata=metadata, result=document.get("result"))))
        found.sort(key=lambda item: item[0], reverse=True)
        return [record for _, record in found]

    def metrics(self) -> Dict[str, Any]:
        """Hit/miss counters for ``GET /metrics``."""
        total = self.hits + self.misses
        return {
            "artifact_hits": self.hits,
            "artifact_misses": self.misses,
            "artifact_hit_rate": (self.hits / total) if total else 0.0,
            "artifact_evictions": self.evictions,
        }
