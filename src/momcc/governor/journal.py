"""The journal's calls and their saved form: one schema per argument.

`ServiceGovernor.journal` holds each call from outside that changed the
governor as a tuple: the call's name, then its arguments as passed.
`REPLAYED` lists every such call, which is every public write of the
governor, with each argument's saved form (`Argument`): the schema a
scenario applies to the same field, or `wire`'s record schema, and how
a value is encoded to that form and built back from it. A state file
saves each entry as `encode_entry` writes it, a JSON array, and
`ENTRY_SCHEMAS` is each call's saved entry: `{"const": name}`, then its
arguments.

Each write that takes a value it does not look up checks its own entry
by that schema before it writes (`check_entry`), so a restore replays
every entry a governor journals. `hosts.unhost` and `hosts.mark_departed`
take only ids of what is registered. `hosts.ingest_report`, the hottest
write, checks none: the check would cost more than the ingest. A
report's types are checked where it enters as JSON, at the endpoint's
report door and at a restore, and its ranges by `ExecutionReport`.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from ..domain import ResourceVector
from ..schema import compile_schema
from ..wire import (
    DEVICE_FIELDS,
    REPORT_SCHEMA,
    RESOURCES_SCHEMA,
    SERVICE_SCHEMA,
    report_from_dict,
    report_to_dict,
    service_from_dict,
    service_to_dict,
)


class Argument(NamedTuple):
    """One argument's saved form: its schema, and how a value is encoded
    to that form and built back from it; None keeps the value as it is."""

    schema: dict
    encode: Callable | None = None
    build: Callable | None = None


_SERVICE_FIELD = SERVICE_SCHEMA["properties"]
_ID = Argument({"type": "string"})
_SERVICE_ID = Argument(_SERVICE_FIELD["service_id"])
_FLAG = Argument({"type": "boolean"})
_TIME = Argument({"type": "number"})

REPLAYED = {
    "billing.negotiate_developer": (Argument(_SERVICE_FIELD["developer_id"]),
                                    Argument(_SERVICE_FIELD["price_per_invocation"]),
                                    Argument(_SERVICE_FIELD["developer_share"])),
    "registry.register_service": (Argument(SERVICE_SCHEMA, service_to_dict, service_from_dict), _FLAG),
    "hosts.register_host": (_ID, Argument(DEVICE_FIELDS["platform_os"]), Argument(DEVICE_FIELDS["platform_version"]),
                            Argument(RESOURCES_SCHEMA, ResourceVector.as_dict, lambda raw: ResourceVector(**raw)),
                            Argument(DEVICE_FIELDS["battery_mwh"])),
    "hosts.request_hosting": (_ID, _SERVICE_ID, _FLAG, _TIME),
    "hosts.unhost": (_ID, _SERVICE_ID),
    "hosts.mark_departed": (_ID,),
    "hosts.ingest_report": (Argument(REPORT_SCHEMA, report_to_dict, lambda raw: report_from_dict(raw, raw["rating"])),),
    "profiler.substitution_sweep": (),
    "profiler.report_malfunction": (_SERVICE_ID, Argument({"type": "string"}), _TIME),
    "preprovision_host": (_ID, Argument({"type": "array", "items": _SERVICE_FIELD["service_id"]}, list),
                          _FLAG, _TIME),
}

ENTRY_SCHEMAS = {
    name: {"type": "array", "prefixItems": [{"const": name}, *(argument.schema for argument in arguments)],
           "minItems": len(arguments) + 1, "maxItems": len(arguments) + 1}
    for name, arguments in REPLAYED.items()
}

_checks = {name: compile_schema(schema) for name, schema in ENTRY_SCHEMAS.items()}
# What a saved entry must be before its call's schema applies.
_named = compile_schema({"type": "array", "prefixItems": [{"enum": list(REPLAYED)}], "minItems": 1})
# Per call, the index in its entry and the encoder of each argument that has one.
_encoders = {name: tuple((index, argument.encode) for index, argument in enumerate(arguments, 1) if argument.encode)
             for name, arguments in REPLAYED.items()}
BUILDERS = {name: tuple(argument.build for argument in arguments) for name, arguments in REPLAYED.items()}


def encode_entry(entry: tuple) -> list:
    """A journal entry as a state file saves it: a JSON array."""
    saved = list(entry)
    for index, encode in _encoders[entry[0]]:
        saved[index] = encode(saved[index])
    return saved


def saved_entry_diagnostics(raw) -> list[str]:
    """Every way a saved entry breaks its call's schema, or why it names no call."""
    try:
        check = _checks[raw[0]]
    except (LookupError, TypeError):
        return _named(raw)
    return check(raw)


def check_entry(entry: tuple) -> None:
    """Refuse a call, before it writes, whose entry a restore would refuse."""
    diagnostics = _checks[entry[0]](encode_entry(entry))
    if diagnostics:
        raise ValueError(f"{entry[0]} refused: " + "; ".join(diagnostics))
