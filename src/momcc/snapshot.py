"""Checksummed snapshot and restore of the full governor state.

The file is a JSON envelope: {"format_version", "kind", "payload",
"sha256"} where the digest covers the canonical (sorted-keys, compact)
serialization of the payload. Restores verify the digest before
touching anything, so a truncated or edited file fails loudly; so does
a payload the decoders reject.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import SnapshotIntegrityError
from .governor import GovernorConfig, ServiceGovernor

FORMAT_VERSION = 1
SNAPSHOT_KIND = "governor-state"


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def snapshot_governor(governor: ServiceGovernor) -> dict:
    """The complete persistable state as a JSON-compatible dict."""
    with governor.lock:
        payload = {
            "registry": governor.registry.snapshot_state(),
            "hosts": governor.hosts.snapshot_state(),
            "billing": governor.billing.snapshot_state(),
            "profiler": governor.profiler.snapshot_state(),
        }
    return {
        "format_version": FORMAT_VERSION,
        "kind": SNAPSHOT_KIND,
        "payload": payload,
        "sha256": _digest(payload),
    }


def restore_governor(snapshot: dict, config: GovernorConfig | None = None) -> ServiceGovernor:
    """Rebuild a governor from a snapshot dict, verifying its checksum."""
    for key in ("format_version", "kind", "payload", "sha256"):
        if key not in snapshot:
            raise SnapshotIntegrityError(f"snapshot missing {key!r}")
    if snapshot["kind"] != SNAPSHOT_KIND:
        raise SnapshotIntegrityError(f"not a governor snapshot: {snapshot['kind']!r}")
    if snapshot["format_version"] != FORMAT_VERSION:
        raise SnapshotIntegrityError(
            f"unsupported snapshot version {snapshot['format_version']!r}"
        )
    payload = snapshot["payload"]
    if _digest(payload) != snapshot["sha256"]:
        raise SnapshotIntegrityError("checksum mismatch: snapshot is corrupt or was edited")

    governor = ServiceGovernor(config)
    try:
        with governor.lock:
            governor.registry.restore_state(payload["registry"])
            governor.hosts.restore_state(payload["hosts"])
            governor.billing.restore_state(payload["billing"])
            governor.profiler.restore_state(payload["profiler"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        # A matching checksum does not make a payload well formed: the
        # decoders reject missing keys and values of the wrong shape.
        raise SnapshotIntegrityError(
            f"snapshot payload does not decode: {type(exc).__name__}: {exc}"
        ) from None
    return governor


def write_snapshot(path: str | Path, governor: ServiceGovernor) -> None:
    snapshot = snapshot_governor(governor)
    Path(path).write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_snapshot(path: str | Path) -> dict:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        snapshot = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotIntegrityError(f"snapshot is not valid JSON: {exc}") from None
    if not isinstance(snapshot, dict):
        raise SnapshotIntegrityError("snapshot must be a JSON object")
    return snapshot


def load_governor(path: str | Path, config: GovernorConfig | None = None) -> ServiceGovernor:
    return restore_governor(read_snapshot(path), config)
