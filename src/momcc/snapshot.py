"""Checksummed snapshot and restore of a governor: its config and its calls.

The file is a JSON envelope: {"format_version", "kind", "payload",
"sha256"} where the digest covers the canonical (sorted-keys, compact)
serialization of the payload, the one `wire.compact_json` writes. The
payload is {"config", "journal"}: the config as a scenario's `policies`
section, and `ServiceGovernor.journal` with each call a JSON array: the
call's name, then its arguments in the order the method takes them,
each in its saved form (`governor.journal.encode_entry`; services and
reports in their `wire` dict forms). All other state is a function of
those two.

A restore verifies the digest, builds a governor from the config (checked
by the scenario's own `policies` schema, built by
`scenario.governor_config_from`) and replays the journal through the same
public methods, so the restored journal equals the saved one. Compiled
schemas check every shape: the envelope, the payload, and each entry by
its call's schema in `governor.journal.ENTRY_SCHEMAS` (the call's name,
then per argument the schema a scenario applies to the same field, or
`wire`'s record schema), before the entry's arguments are built. Only
calls that returned are recorded, and each call checks its entry by
that schema and its own rules before it writes, so an entry that fails
its schema or raises on replay means the file was edited: it is refused
by index. Writes one unit makes for another (metering, a certificate, a
deprecation) are no calls of their own: the replayed call that made
them makes them again. Last, a restore refuses a state on which
`ServiceGovernor.check_invariants()` reports anything. A version-1 file
held derived state without the config or the calls, and is refused.
"""
from __future__ import annotations

import hashlib
import json
from operator import attrgetter
from pathlib import Path

from .errors import MarketplaceError, SnapshotIntegrityError
from .governor import ServiceGovernor
from .governor.journal import BUILDERS, encode_entry, saved_entry_diagnostics
from .scenario import POLICIES_SCHEMA, governor_config_from, policies_of
from .schema import compile_schema
from .wire import compact_json

FORMAT_VERSION = 2
SNAPSHOT_KIND = "governor-state"

_envelope_diagnostics = compile_schema({
    "type": "object", "required": ["format_version", "kind", "payload", "sha256"],
})
_payload_diagnostics = compile_schema({  # the config then meets the scenario's `policies` schema
    "type": "object", "properties": {"config": {}, "journal": {"type": "array"}},
    "required": ["config", "journal"], "additionalProperties": False,
})
_config_diagnostics = compile_schema(POLICIES_SCHEMA)


def _digest(payload: dict) -> str:
    return hashlib.sha256(compact_json(payload).encode("utf-8")).hexdigest()


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
    _refuse_unless_valid("snapshot envelope breaks a rule", _envelope_diagnostics(snapshot))
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
    _refuse_unless_valid("snapshot payload breaks a rule", _payload_diagnostics(payload))

    governor = ServiceGovernor(_config(payload["config"]))
    calls = {name: (attrgetter(name)(governor), builders) for name, builders in BUILDERS.items()}
    with governor.lock:
        for index, raw in enumerate(payload["journal"]):
            _refuse_unless_valid(f"snapshot journal entry {index} does not replay", saved_entry_diagnostics(raw))
            call, builders = calls[raw[0]]
            try:
                call(*[value if build is None else build(value) for build, value in zip(builders, raw[1:])])
            except (MarketplaceError, LookupError, TypeError, ValueError) as exc:
                raise SnapshotIntegrityError(
                    f"snapshot journal entry {index} does not replay: {type(exc).__name__}: {exc}"
                ) from None
    problems = governor.check_invariants()
    if problems:
        raise SnapshotIntegrityError("snapshot breaks a rule: " + "; ".join(problems))
    return governor


def _refuse_unless_valid(refusal: str, diagnostics: list[str]) -> None:
    """Refuse the snapshot with `refusal` and every schema diagnostic, if any."""
    if diagnostics:
        raise SnapshotIntegrityError(f"{refusal}: " + "; ".join(diagnostics))


def _config(policies):
    """The config a saved `policies` section builds, refused by exactly a scenario's rules."""
    _refuse_unless_valid("snapshot config breaks a rule", _config_diagnostics(policies))
    try:
        return governor_config_from(policies)
    except ValueError as exc:
        raise SnapshotIntegrityError(f"snapshot config breaks a rule: {exc}") from None


def write_snapshot(path: str | Path, governor: ServiceGovernor) -> None:
    snapshot = snapshot_governor(governor)
    Path(path).write_text(
        json.dumps(snapshot, sort_keys=True, indent=2) + "\n", encoding="utf-8"
    )


def read_snapshot(path: str | Path) -> dict:
    """The file's JSON value; `restore_governor` checks its shape."""
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotIntegrityError(f"snapshot is not UTF-8 text: {exc}") from None
    try:
        return json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotIntegrityError(f"snapshot is not valid JSON: {exc}") from None


def load_governor(path: str | Path) -> ServiceGovernor:
    return restore_governor(read_snapshot(path))
