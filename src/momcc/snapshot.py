"""Checksummed snapshot and restore of a governor: its config and its calls.

The file is a JSON envelope: {"format_version", "kind", "payload",
"sha256"} where the digest covers the canonical (sorted-keys, compact)
serialization of the payload. The payload is {"config", "journal"}: the
config as a scenario's `policies` section, and `ServiceGovernor.journal`
with each call a JSON array: the call's name, then its arguments in the
order the method takes them, each encoded by its type (`encode_entry`;
services and reports in their `wire` dict forms). All other state is a
function of those two.

A restore verifies the digest, builds a governor from the config (checked
by the scenario's own `policies` schema, built by
`scenario.governor_config_from`) and replays the journal through the same
public methods, so the restored journal equals the saved one. Only calls
that returned are recorded and each call checks before it writes, so an
entry that does not decode or raises on replay means the file was edited:
it is refused by index; `decode_entry` knows only the calls in `REPLAYED`,
the governor's public writes, and checks each argument's shape before
any unit sees it. Writes one unit makes for another (metering, a
certificate, a deprecation) are no calls of their own: the replayed
call that made them makes them again. Last, a restore refuses a state
on which `ServiceGovernor.check_invariants()` reports anything. A
version-1 file held derived state without the config or the calls, and
is refused.
"""
from __future__ import annotations

import hashlib
import json
from pathlib import Path

from .domain import ExecutionReport, ResourceVector, ServiceDescription
from .errors import MarketplaceError, SnapshotIntegrityError
from .governor import ServiceGovernor
from .scenario import POLICIES_SCHEMA, governor_config_from, policies_of
from .schema import compile_schema
from .wire import REPORT_KEYS, report_from_dict, report_to_dict, service_from_dict, service_to_dict

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
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SnapshotIntegrityError(f"snapshot is not UTF-8 text: {exc}") from None
    try:
        snapshot = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise SnapshotIntegrityError(f"snapshot is not valid JSON: {exc}") from None
    if not isinstance(snapshot, dict):
        raise SnapshotIntegrityError("snapshot must be a JSON object")
    return snapshot


def load_governor(path: str | Path) -> ServiceGovernor:
    return restore_governor(read_snapshot(path))


# -- journal entries ----------------------------------------------------------

_ENCODERS = {
    ServiceDescription: service_to_dict,
    ResourceVector: ResourceVector.as_dict,
    ExecutionReport: report_to_dict,
    tuple: list,
}


def encode_entry(entry: tuple) -> list:
    """A journal entry as a JSON array; names, ids, flags and numbers stay as they are."""
    encoders = _ENCODERS
    return [value if (encode := encoders.get(type(value))) is None else encode(value) for value in entry]


def _typed(*types: type):
    """A decoder passing only a value of exactly one of `types` (no bool for an int)."""
    def decode(value):
        if type(value) not in types:
            raise TypeError(f"expected {' or '.join(t.__name__ for t in types)}, got {value!r}")
        return value
    return decode


def _object(build):
    """A decoder passing only a JSON object to `build`."""
    def decode(value):
        if type(value) is not dict:
            raise TypeError(f"expected an object, got {value!r}")
        return build(value)
    return decode


def _strs(value) -> list[str]:
    if type(value) is not list or not all(type(item) is str for item in value):
        raise TypeError(f"expected a list of str, got {value!r}")
    return value


def _report(raw) -> ExecutionReport:
    if type(raw) is not dict or raw.keys() != REPORT_KEYS:
        raise ValueError(f"a report holds exactly the fields {sorted(REPORT_KEYS)}, got {raw!r}")
    return report_from_dict(raw, raw["rating"])


_str, _int, _bool, _number = _typed(str), _typed(int), _typed(bool), _typed(int, float)
_service = _object(service_from_dict)
_resources = _object(lambda raw: ResourceVector(**raw))

# Every call a journal may hold, which is every public write of the
# governor: its name and one decoder per argument, in the order the
# method takes them.
REPLAYED = {
    "billing.negotiate_developer": (_str, _int, _number),
    "registry.register_service": (_service, _bool),
    "hosts.register_host": (_str, _str, _str, _resources, _int),
    "hosts.request_hosting": (_str, _str, _bool, _number),
    "hosts.unhost": (_str, _str),
    "hosts.mark_departed": (_str,),
    "hosts.ingest_report": (_report,),
    "profiler.substitution_sweep": (),
    "profiler.report_malfunction": (_str, _str, _number),
    "preprovision_host": (_str, _strs, _bool, _number),
}


def decode_entry(raw) -> tuple[str, list]:
    """The name and the decoded arguments of a saved journal entry."""
    if type(raw) is not list or not raw or type(raw[0]) is not str:
        raise TypeError(f"a journal entry is an array that starts with a call's name, got {raw!r}")
    name = raw[0]
    decoders = REPLAYED.get(name)
    if decoders is None:
        raise LookupError(f"{name!r} is not a call a journal replays")
    if len(raw) != len(decoders) + 1:
        raise TypeError(f"{name} takes {len(decoders)} arguments, got {len(raw) - 1}")
    return name, [decode(value) for decode, value in zip(decoders, raw[1:])]
