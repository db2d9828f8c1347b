"""Checksummed snapshot and restore of a governor: its config and its calls.

The file is a JSON envelope: {"format_version", "kind", "payload",
"sha256"} where the digest covers the canonical (sorted-keys, compact)
serialization of the payload. The payload is {"config", "journal"}: the
config as a scenario's `policies` section, and `ServiceGovernor.journal`
with each call a JSON array (`governor.serialize`). All other state is a
function of those two.

A restore verifies the digest, builds a governor from the config (checked
by the scenario's own `policies` schema, built by
`scenario.governor_config_from`) and replays the journal through the same
public methods, so the restored journal equals the saved one. Only calls
that returned are recorded and each call checks before it writes, so an
entry that does not decode or raises on replay means the file was edited:
it is refused by index. Last, a restore refuses a state on which
`ServiceGovernor.check_invariants()` reports anything. A version-1 file
held derived state without the config or the calls, and is refused.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .errors import MarketplaceError, SnapshotIntegrityError
from .governor import ServiceGovernor
from .governor.serialize import REPLAYED, decode_entry, encode_entry
from .scenario import POLICIES_SCHEMA, governor_config_from, policies_of
from .schema import compile_schema

FORMAT_VERSION = 2
SNAPSHOT_KIND = "governor-state"

_config_diagnostics = compile_schema(POLICIES_SCHEMA)


def _canonical(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _digest(payload: dict) -> str:
    return hashlib.sha256(_canonical(payload).encode("utf-8")).hexdigest()


def snapshot_governor(governor: ServiceGovernor) -> dict:
    """The governor's config and journal as a JSON-compatible dict."""
    with governor.lock:
        payload = {
            "config": policies_of(governor.config),
            "journal": [encode_entry(entry) for entry in governor.journal],
        }
    return {
        "format_version": FORMAT_VERSION,
        "kind": SNAPSHOT_KIND,
        "payload": payload,
        "sha256": _digest(payload),
    }


def restore_governor(snapshot: dict) -> ServiceGovernor:
    """Rebuild a governor from a snapshot dict: verify its checksum, build
    the governor from its config and replay its journal."""
    for key in ("format_version", "kind", "payload", "sha256"):
        if key not in snapshot:
            raise SnapshotIntegrityError(f"snapshot missing {key!r}")
    if snapshot["kind"] != SNAPSHOT_KIND:
        raise SnapshotIntegrityError(f"not a governor snapshot: {snapshot['kind']!r}")
    version = snapshot["format_version"]
    if version == 1:
        raise SnapshotIntegrityError("unsupported snapshot version 1: it holds derived state, "
                                     "not the config and calls; write a new snapshot")
    if version != FORMAT_VERSION:
        raise SnapshotIntegrityError(f"unsupported snapshot version {version!r}")
    payload = snapshot["payload"]
    if _digest(payload) != snapshot["sha256"]:
        raise SnapshotIntegrityError("checksum mismatch: snapshot is corrupt or was edited")
    if type(payload) is not dict or payload.keys() != {"config", "journal"}:
        raise SnapshotIntegrityError("snapshot payload must hold exactly 'config' and 'journal'")
    if type(payload["journal"]) is not list:
        raise SnapshotIntegrityError("snapshot journal must be an array")

    governor = ServiceGovernor(_config(payload["config"]))
    calls = {name: _method(governor, name) for name in REPLAYED}
    with governor.lock:
        for index, raw in enumerate(payload["journal"]):
            try:
                name, args = decode_entry(raw)
                calls[name](*args)
            except (MarketplaceError, AttributeError, LookupError, TypeError, ValueError) as exc:
                raise SnapshotIntegrityError(
                    f"snapshot journal entry {index} does not replay: {type(exc).__name__}: {exc}"
                ) from None
    problems = governor.check_invariants()
    if problems:
        raise SnapshotIntegrityError("snapshot breaks a rule: " + "; ".join(problems))
    return governor


def _config(policies):
    """The config a saved `policies` section builds, refused by exactly a scenario's rules."""
    diagnostics = _config_diagnostics(policies)
    if diagnostics:
        raise SnapshotIntegrityError("snapshot config breaks a rule: " + "; ".join(diagnostics))
    try:
        return governor_config_from(policies)
    except ValueError as exc:
        raise SnapshotIntegrityError(f"snapshot config breaks a rule: {exc}") from None


def _method(governor: ServiceGovernor, name: str):
    """The bound method `name` calls: `unit.method`, or the governor's own."""
    unit, _, method = name.rpartition(".")
    return getattr(getattr(governor, unit) if unit else governor, method)


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


def load_governor(path: str | Path) -> ServiceGovernor:
    return restore_governor(read_snapshot(path))
