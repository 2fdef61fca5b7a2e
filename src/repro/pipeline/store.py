"""Content-addressed on-disk artifact store for the simulation pipeline.

:class:`~repro.pipeline.context.SimulationContext` memoizes expensive
artifacts in memory, which dies with the process: every CI run, CLI
invocation and sweep re-simulates the world from scratch.  The
:class:`ArtifactStore` persists those artifacts on disk, keyed by a SHA-256
digest of the same canonical config key the in-memory cache uses, so a
context constructed with ``store=`` reads through the store before
computing and any process — a later CLI call, a sweep worker, a resumed
run — reuses what an earlier one simulated.

Design points
-------------
* **Content addressing.**  The key of an artifact is the canonical config
  tuple built by :func:`~repro.pipeline.context.config_key`; its digest
  names the payload file.  Any configuration change changes the key, so
  stale payloads are never returned — they are simply never addressed.
* **Typed payloads.**  Numpy arrays are stored as ``.npz`` (loaded with
  ``allow_pickle=False``); JSON-representable values,
  :class:`~repro.experiments.runner.ExperimentResult` and a small registry
  of storable dataclasses (e.g. ``LocalityReport``) as ``.json``
  documents.  Values outside these types are silently kept memory-only
  (``put`` returns ``False``) — pickle is never used.
* **Atomic writes.**  Payloads are written to a temporary file in the
  destination directory and ``os.replace``-d into place, so a killed run
  never leaves a truncated artifact and concurrent writers (sweep workers)
  race benignly: both write identical bytes.
* **Versioned schema.**  Payloads live under ``root/v<N>/``; bumping
  :data:`STORE_SCHEMA_VERSION` (on any change to the payload encoding or
  to what an artifact kind means) invalidates every existing store without
  deleting it.  Each JSON document also records the schema it was written
  with and is treated as a miss on mismatch.

Layout::

    <root>/v2/<digest[:2]>/<digest>.json   # JSON-typed payloads
    <root>/v2/<digest[:2]>/<digest>.npz    # ndarray payloads
"""

from __future__ import annotations

import dataclasses
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from ..core.ioutil import atomic_write_bytes
from ..core.streaming import LocalityReport
from ..obs import get_metrics, get_tracer
from ..streams.ir import RequestStream, StreamKind

__all__ = [
    "ArtifactStore",
    "StoreStats",
    "STORE_MISS",
    "STORE_SCHEMA_VERSION",
    "key_digest",
]

#: Bump on any change to the payload encoding or artifact semantics; old
#: store directories (``v<old>/``) are then ignored wholesale.  Version 2:
#: fp16 fields compute in float32, which changes every fp16 PSNR.
STORE_SCHEMA_VERSION = 2

#: Sentinel returned by :meth:`ArtifactStore.get` on a miss (``None`` is a
#: legitimate artifact value).
STORE_MISS = object()

#: Dataclasses the store may persist as plain field dictionaries.  Only
#: types whose fields are JSON primitives belong here.
_STORABLE_DATACLASSES: dict[str, type[Any]] = {
    "LocalityReport": LocalityReport,
}


def _canonical(obj: Any) -> Any:
    """JSON-representable form of a cache key (tuples become lists)."""
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, bytes):
        return obj.hex()
    if isinstance(obj, (list, tuple)):
        return [_canonical(v) for v in obj]
    return repr(obj)


def key_digest(key: Any) -> str:
    """Stable SHA-256 hex digest of a canonical cache key."""
    payload = json.dumps(_canonical(key), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


#: Marker key of a request-stream ``.npz`` payload; holds the typed JSON
#: metadata document while ``indices``/``group_ids`` ride as plain arrays.
_STREAM_SENTINEL = "__request_stream__"


def _encode_request_stream(stream: RequestStream) -> dict[str, Any]:
    """``np.savez`` keyword arrays for one :class:`RequestStream` payload."""
    meta = json.dumps(
        {
            "entry_bytes": stream.entry_bytes,
            "table_entries": stream.table_entries,
            "base_address": stream.base_address,
            "kind": stream.kind.value,
            "dtype": stream.dtype,
            "source": stream.source,
            "label": stream.label,
        },
        separators=(",", ":"),
        sort_keys=True,
    )
    arrays: dict[str, Any] = {
        _STREAM_SENTINEL: np.array(meta),
        "indices": np.ascontiguousarray(stream.indices),
    }
    if stream.group_ids is not None:
        arrays["group_ids"] = np.ascontiguousarray(stream.group_ids)
    return arrays


def _decode_request_stream(archive: Any) -> RequestStream:
    """Rebuild a :class:`RequestStream` from its ``.npz`` payload."""
    meta = json.loads(str(archive[_STREAM_SENTINEL]))
    return RequestStream(
        indices=archive["indices"],
        entry_bytes=int(meta["entry_bytes"]),
        table_entries=int(meta["table_entries"]),
        base_address=int(meta["base_address"]),
        kind=StreamKind(meta["kind"]),
        dtype=str(meta["dtype"]),
        group_ids=archive["group_ids"] if "group_ids" in archive.files else None,
        source=str(meta["source"]),
        label=str(meta["label"]),
    )


def _json_default(value: Any) -> Any:
    if isinstance(value, np.generic):
        return value.item()
    raise TypeError(f"not JSON-storable: {type(value).__name__}")


def _is_jsonable(value: Any) -> bool:
    if value is None or isinstance(value, (bool, str)):
        return True
    if isinstance(value, (int, float, np.generic)):
        return not isinstance(value, np.complexfloating)
    if isinstance(value, list):
        return all(_is_jsonable(v) for v in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_jsonable(v) for k, v in value.items())
    return False


@dataclass
class StoreStats:
    """Counters for one :class:`ArtifactStore` handle."""

    hits: int = 0
    misses: int = 0
    writes: int = 0
    skipped: int = 0  # values with no storable encoding (memory-only)
    errors: int = 0  # unreadable/corrupt payloads (treated as misses)
    hit_kinds: list[str] = field(default_factory=list)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class ArtifactStore:
    """Persistent, content-addressed artifact store (see module docstring)."""

    def __init__(self, root: str | Path, schema_version: int = STORE_SCHEMA_VERSION):
        self.root = Path(root)
        self.schema_version = int(schema_version)
        self.path = self.root / f"v{self.schema_version}"
        self.stats = StoreStats()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ArtifactStore({str(self.root)!r}, schema_version={self.schema_version})"

    # ------------------------------------------------------------- addressing
    def _payload_path(self, digest: str, suffix: str) -> Path:
        return self.path / digest[:2] / f"{digest}.{suffix}"

    def __len__(self) -> int:
        """Number of persisted payloads (both JSON and npz)."""
        if not self.path.exists():
            return 0
        return sum(1 for p in self.path.glob("*/*") if p.suffix in (".json", ".npz"))

    # ----------------------------------------------------------------- encode
    def _encode(self, value: Any) -> tuple[str, Any] | None:
        """``(kind, payload)`` for a storable value, else ``None``."""
        from ..experiments.runner import ExperimentResult  # lazy: avoids an import cycle

        if isinstance(value, np.generic):
            value = value.item()
        if isinstance(value, np.ndarray):
            if value.dtype == object:
                return None
            return ("ndarray", value)
        if isinstance(value, RequestStream):
            return ("request_stream", value)
        if isinstance(value, ExperimentResult):
            return ("experiment_result", value.to_dict())
        if dataclasses.is_dataclass(value) and not isinstance(value, type):
            name = type(value).__name__
            if name in _STORABLE_DATACLASSES:
                return ("dataclass", {"class": name, "fields": dataclasses.asdict(value)})
            return None
        if (
            isinstance(value, list)
            and value
            and all(type(v).__name__ in _STORABLE_DATACLASSES for v in value)
            and len({type(v) for v in value}) == 1
        ):
            return (
                "dataclass_list",
                {
                    "class": type(value[0]).__name__,
                    "items": [dataclasses.asdict(v) for v in value],
                },
            )
        if _is_jsonable(value):
            return ("json", value)
        return None

    def _decode(self, document: dict[str, Any]) -> Any:
        from ..experiments.runner import ExperimentResult  # lazy: avoids an import cycle

        kind, payload = document["type"], document["value"]
        if kind == "json":
            return payload
        if kind == "experiment_result":
            return ExperimentResult.from_dict(payload)
        if kind == "dataclass":
            cls = _STORABLE_DATACLASSES[payload["class"]]
            return cls(**payload["fields"])
        if kind == "dataclass_list":
            cls = _STORABLE_DATACLASSES[payload["class"]]
            return [cls(**item) for item in payload["items"]]
        raise ValueError(f"unknown payload type {kind!r}")

    # --------------------------------------------------------------------- io
    def put(self, key: Any, value: Any) -> bool:
        """Persist ``value`` under ``key``; ``False`` if it was not stored.

        Content-addressed and deterministic: an existing payload for the
        same key is left untouched (it holds identical bytes by
        construction).  Best-effort: the store is an optimization layer, so
        an I/O failure (full or read-only volume) is counted in
        ``stats.errors`` instead of failing the computation that produced
        the value.
        """
        tracer = get_tracer()
        encoded = self._encode(value)
        if encoded is None:
            self.stats.skipped += 1
            if tracer.enabled:
                get_metrics().counter("store.skipped").inc()
            return False
        kind, payload = encoded
        digest = key_digest(key)
        with tracer.span("store.put", "pipeline") as span:
            try:
                if kind == "ndarray":
                    target = self._payload_path(digest, "npz")
                    if target.exists():
                        return True
                    buffer = io.BytesIO()
                    np.savez(buffer, value=np.ascontiguousarray(payload))
                    atomic_write_bytes(target, buffer.getvalue())
                elif kind == "request_stream":
                    target = self._payload_path(digest, "npz")
                    if target.exists():
                        return True
                    buffer = io.BytesIO()
                    np.savez(buffer, **_encode_request_stream(payload))
                    atomic_write_bytes(target, buffer.getvalue())
                else:
                    target = self._payload_path(digest, "json")
                    if target.exists():
                        return True
                    document = {
                        "schema": self.schema_version,
                        "key": _canonical(key),
                        "type": kind,
                        "value": payload,
                    }
                    try:
                        text = json.dumps(document, separators=(",", ":"), default=_json_default)
                    except (TypeError, ValueError):
                        self.stats.skipped += 1
                        return False
                    atomic_write_bytes(target, text.encode())
            except OSError:
                self.stats.errors += 1
                return False
            if span.enabled:
                span.add_args(kind=kind, digest=digest[:12])
                get_metrics().counter("store.writes").inc()
        self.stats.writes += 1
        return True

    def get(self, key: Any) -> Any:
        """The stored value for ``key``, or :data:`STORE_MISS`.

        Corrupt payloads count as misses (and bump ``stats.errors``) and are
        deleted, so the caller's recompute writes a fresh payload instead of
        leaving the key permanently broken.
        """
        tracer = get_tracer()
        digest = key_digest(key)
        json_path = self._payload_path(digest, "json")
        npz_path = self._payload_path(digest, "npz")
        kind = key[0] if isinstance(key, tuple) and key and isinstance(key[0], str) else None
        with tracer.span("store.get", "pipeline") as span:
            if span.enabled and kind is not None:
                span.add_args(kind=kind)
            try:
                if json_path.exists():
                    document = json.loads(json_path.read_text())
                    if document.get("schema") != self.schema_version:
                        self.stats.misses += 1
                        return STORE_MISS
                    value = self._decode(document)
                elif npz_path.exists():
                    with np.load(npz_path, allow_pickle=False) as archive:
                        if _STREAM_SENTINEL in archive.files:
                            value = _decode_request_stream(archive)
                        else:
                            value = archive["value"]
                            value.flags.writeable = False
                else:
                    self.stats.misses += 1
                    if tracer.enabled:
                        get_metrics().counter("store.misses").inc()
                    return STORE_MISS
            except Exception:
                self.stats.errors += 1
                self.stats.misses += 1
                if tracer.enabled:
                    get_metrics().counter("store.quarantined").inc()
                    tracer.instant("store.quarantine", "pipeline", digest=digest[:12])
                for path in (json_path, npz_path):  # quarantine: recompute rewrites it
                    try:
                        path.unlink(missing_ok=True)
                    except OSError:
                        pass
                return STORE_MISS
        self.stats.hits += 1
        if tracer.enabled:
            get_metrics().counter("store.hits").inc()
        if kind is not None:
            self.stats.hit_kinds.append(kind)
        return value
