"""JSON forms of the governor's records: execution reports and journal entries.

The protocol endpoint decodes each execution report with
`report_from_dict`. A state file saves the governor's journal (see
`ServiceGovernor.journal` and `momcc.snapshot`), one JSON array per
entry: the call's name, then its arguments in the order the method
takes them, each encoded by its type (`encode_entry`). A restore reads
an entry back with `decode_entry`, which knows only the names in
`REPLAYED` and checks every argument against that method's decoder, so
a state file never names an arbitrary attribute and an argument of the
wrong shape is refused before any unit sees it.
"""
from __future__ import annotations

from dataclasses import asdict

from ..domain import ExecutionReport, Outcome, ResourceVector, ServiceDescription
from .billing import Agreement
from .registry import service_from_dict, service_to_dict


def report_to_dict(report: ExecutionReport) -> dict:
    return {
        "report_id": report.report_id,
        "host_id": report.host_id,
        "service_id": report.service_id,
        "requester_pseudonym": report.requester_pseudonym,
        "started_at": report.started_at,
        "duration_ms": report.duration_ms,
        "energy_used_mwh": report.energy_used_mwh,
        "ok": report.outcome.ok,
        "failure_reason": report.outcome.reason,
        "rating": report.rating,
    }


def report_from_dict(raw: dict, rating: int | None) -> ExecutionReport:
    """A report from its dict and its rating, passed apart: a wire report
    carries no rating (the consumer's arrives in its own message), and a
    saved one carries it as `raw["rating"]`."""
    outcome = Outcome.success() if raw["ok"] else Outcome.failure(raw["failure_reason"])
    return ExecutionReport(
        raw["report_id"],
        raw["host_id"],
        raw["service_id"],
        raw["requester_pseudonym"],
        raw["started_at"],
        raw["duration_ms"],
        raw["energy_used_mwh"],
        outcome,
        rating,
    )


# -- journal entries ----------------------------------------------------------

_ENCODERS = {
    ServiceDescription: service_to_dict,
    ResourceVector: ResourceVector.as_dict,
    ExecutionReport: report_to_dict,
    Agreement: asdict,
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


_REPORT_FIELDS = frozenset((
    "report_id", "host_id", "service_id", "requester_pseudonym", "started_at",
    "duration_ms", "energy_used_mwh", "ok", "failure_reason", "rating",
))


def _report(raw) -> ExecutionReport:
    if type(raw) is not dict or raw.keys() != _REPORT_FIELDS:
        raise ValueError(f"a report holds exactly the fields {sorted(_REPORT_FIELDS)}, got {raw!r}")
    return report_from_dict(raw, raw["rating"])


_str, _int, _bool, _number = _typed(str), _typed(int), _typed(bool), _typed(int, float)
_service = _object(service_from_dict)
_resources = _object(lambda raw: ResourceVector(**raw))
_agreement = _object(lambda raw: Agreement(**raw))

# Every call a journal may hold: its name and one decoder per argument,
# in the order the method takes them.
REPLAYED = {
    "billing.negotiate_developer": (_str, _int, _number),
    "billing.negotiate_host": (_service,),
    "billing.meter_invocation": (_agreement, _str, _str, _str, _number),
    "billing.meter_report": (_report,),
    "registry.register_service": (_service, _bool),
    "registry.deprecate_service": (_str, _str),
    "security.issue_certificate": (_str, _bool, _number),
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
