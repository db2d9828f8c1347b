"""Wire formats: the XML requirements document, the trace line, and the
dict forms of services and execution reports.

The host-requirements document is the one externally fixed format in the
system. Its canonical serialized form is pinned byte for byte: UTF-8,
LF line endings, two-space indentation, a trailing newline, and the
historical root spelling ``HostRequirments``:

    <?xml version="1.0" encoding="UTF-8" ?>
    <HostRequirments>
      <Platform>
        <OS>Android</OS>
        <MinVersion>3.2</MinVersion>
      </Platform>
      <MinRequiredResources>
        <CPU>512</CPU>
        <Memory>2</Memory>
        <Storage>5</Storage>
        <Energy>500</Energy>
      </MinRequiredResources>
    </HostRequirments>

The decoder is liberal: it accepts ``HostRequirements`` as a root alias,
tolerates ignorable whitespace and element reordering, and skips lines
consisting solely of ``...`` so excerpted documents parse unchanged.

All other traffic is a `ProtocolMessage`: a kind, the sender's role, a
correlation id (a reply reuses its request's) and a JSON-object payload.
A run's trace, `trace.log`, holds one line per delivered message: one
compact JSON object (no spaces, non-ASCII escaped, keys sorted at every
depth) and a newline. Its keys, in order: `correlation_id`, `from` (the
sender's agent id), `kind`, `payload`, `sender_role`, `to` (the
recipient's id), `tr` and `ts` (receive and send times in ms). A time's
text is `repr(round(x, 3))`. `write_trace` writes lines and `read_trace`
reads them back as its exact inverse. Each line is built in sorted key
order through one C encoder kept for the process (`compact_json`), each
kind's and role's JSON text kept on its member, and times written by
`_ms_text`. The per-service dicts and host lists that discovery and
listing replies share, and whole reply payloads that several replies
share, are encoded once per pass (`trace_lines`), like each agent id's
text; nothing encoded outlives its pass. The writer joins lines into
64 KiB chunks, so it never holds the whole file.

A service travels as `service_to_dict` writes it: its fields by name,
`security_level` as its label, `platform` as {os_name, min_version},
`min_resources` as {cpu, memory, storage, energy}, `dependencies` as a
list. A discovery reply lists a service as `listing_to_dict` writes it:
that form without the developer, the platform flattened. An execution
report travels as `report_dict` writes it: its fields by name, the
outcome as `ok` and `failure_reason`, and no rating, which arrives in
its own message. `report_to_dict` adds `rating` to that form, as a
state file saves a report; `report_from_dict` takes the rating apart.

Each saved form has one JSON Schema next to its codec (`SERVICE_SCHEMA`,
`RESOURCES_SCHEMA`, `REPORT_SCHEMA`), and a device's registration fields
one each (`DEVICE_FIELDS`). Scenarios, state files and the governor's
own writes (`governor.journal`) are checked by them, and a report
message by `REPORT_SCHEMA` at the governor's endpoint, before a decoder
builds a record, so the decoders check nothing again. The version
pattern (`DEVICE_FIELDS["platform_version"]`, a service's minimum
version too) ends at `\\Z`, not `$`, which matches before a final
newline, so it admits exactly what `parse_version` parses; the
requirements decoder, which reads XML, leaves the minimum version to
`PlatformRequirement`.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from json.encoder import c_make_encoder, encode_basestring_ascii
from os.path import commonprefix
from typing import Any, BinaryIO, Callable, Iterable, Iterator, NoReturn
from xml.etree import ElementTree

from .domain import (
    ExecutionReport,
    Outcome,
    PlatformRequirement,
    ResourceVector,
    SecurityLevel,
    ServiceDescription,
    VersionError,
)


class RequirementsParseError(ValueError):
    """A requirements document failed to decode; names the offending element."""

    def __init__(self, element: str, detail: str):
        super().__init__(f"{element}: {detail}")
        self.element = element
        self.detail = detail


class EnvelopeError(ValueError):
    """A trace line failed to read back; names the line and the key."""


@dataclass(frozen=True)
class HostRequirementsMessage:
    """Platform and minimum-resource demands a service places on hosts."""

    platform: PlatformRequirement
    min_resources: ResourceVector


_XML_DECLARATION = '<?xml version="1.0" encoding="UTF-8" ?>'
_ROOT_TAG = "HostRequirments"  # canonical, historical spelling
_ROOT_ALIASES = (_ROOT_TAG, "HostRequirements")
_RESOURCE_TAGS = ("CPU", "Memory", "Storage", "Energy")


def encode_requirements(msg: HostRequirementsMessage) -> bytes:
    """Serialize to the canonical byte form documented above."""
    lines = [
        _XML_DECLARATION,
        f"<{_ROOT_TAG}>",
        "  <Platform>",
        f"    <OS>{_escape(msg.platform.os_name)}</OS>",
        f"    <MinVersion>{msg.platform.min_version}</MinVersion>",
        "  </Platform>",
        "  <MinRequiredResources>",
        f"    <CPU>{msg.min_resources.cpu}</CPU>",
        f"    <Memory>{msg.min_resources.memory}</Memory>",
        f"    <Storage>{msg.min_resources.storage}</Storage>",
        f"    <Energy>{msg.min_resources.energy}</Energy>",
        "  </MinRequiredResources>",
        f"</{_ROOT_TAG}>",
    ]
    return ("\n".join(lines) + "\n").encode("utf-8")


def decode_requirements(data: bytes | str) -> HostRequirementsMessage:
    """Parse a requirements document, tolerating excerpt markers and reordering."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise RequirementsParseError("document", f"not valid UTF-8: {exc}") from None
    else:
        text = data

    # Lines of bare dots mark elided envelope content in excerpted documents.
    lines = [line for line in text.splitlines() if line.strip() != "..."]
    cleaned = "\n".join(lines)

    try:
        root = ElementTree.fromstring(cleaned)
    except ElementTree.ParseError as exc:
        raise RequirementsParseError("document", f"malformed XML: {exc}") from None

    if root.tag not in _ROOT_ALIASES:
        raise RequirementsParseError(root.tag, f"unknown root element, expected {_ROOT_TAG}")

    platform_el = root.find("Platform")
    if platform_el is None:
        raise RequirementsParseError("Platform", "missing element")
    os_name = _required_text(platform_el, "OS")
    if not os_name:
        raise RequirementsParseError("OS", "must be non-empty")
    try:
        platform = PlatformRequirement(os_name, _required_text(platform_el, "MinVersion"))
    except VersionError as exc:
        raise RequirementsParseError("MinVersion", str(exc)) from None

    resources_el = root.find("MinRequiredResources")
    if resources_el is None:
        raise RequirementsParseError("MinRequiredResources", "missing element")
    values = {}
    for tag in _RESOURCE_TAGS:
        raw = _required_text(resources_el, tag)
        try:
            values[tag] = int(raw)
        except ValueError:
            raise RequirementsParseError(tag, f"not an integer: {raw!r}") from None
        if values[tag] < 0:
            raise RequirementsParseError(tag, f"must be >= 0: {values[tag]}")

    return HostRequirementsMessage(
        platform=platform,
        min_resources=ResourceVector(
            cpu=values["CPU"],
            memory=values["Memory"],
            storage=values["Storage"],
            energy=values["Energy"],
        ),
    )


def _required_text(parent: ElementTree.Element, tag: str) -> str:
    el = parent.find(tag)
    if el is None:
        raise RequirementsParseError(tag, "missing element")
    return (el.text or "").strip()


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _WireEnum(Enum):
    """An enum whose members keep their value as JSON text (`json`), so a
    trace line reads a plain attribute, not the `value` property.

    Members hash by identity, in C: `Enum.__hash__` hashes the name in
    Python, and every dict keyed by kind would pay for it. Members are
    singletons, so identity hashing agrees with equality.
    """

    __hash__ = object.__hash__

    def __init__(self, value: str):
        self.json = encode_basestring_ascii(value)


class MessageKind(_WireEnum):
    """Every message kind the marketplace protocol exchanges."""

    LIST_SERVICES_REQUEST = "ListServicesRequest"
    LIST_SERVICES_REPLY = "ListServicesReply"
    HOSTING_REQUEST = "HostingRequest"
    SC_QUERY = "ScQuery"
    SC_REPLY = "ScReply"
    TRUST_ESTABLISH = "TrustEstablish"
    SC_ISSUED = "ScIssued"
    ALLOCATION_CONFIRM = "AllocationConfirm"
    ALLOCATION_DENIED = "AllocationDenied"
    DISCOVERY_QUERY = "DiscoveryQuery"
    DISCOVERY_REPLY = "DiscoveryReply"
    INVOKE = "Invoke"
    INVOKE_RESULT = "InvokeResult"
    EXECUTION_REPORT = "ExecutionReportMsg"
    RATE_SERVICE = "RateService"


class Role(_WireEnum):
    DEVELOPER = "developer"
    HOST = "host"
    REQUESTER = "requester"
    GOVERNOR = "governor"


_KIND_BY_VALUE = {k.value: k for k in MessageKind}
_ROLE_BY_VALUE = {r.value: r for r in Role}


@dataclass(slots=True)
class ProtocolMessage:
    """One protocol message; replies reuse the correlation_id of their request.

    Slotted and not frozen: every hop builds one, and a frozen `__init__`
    sets each field through `object.__setattr__`. Nothing assigns to a
    message once it is built, or hashes one (`tests/test_records.py`
    checks this over whole runs). The builders that make a run's messages
    (`agents`, `governor.endpoint`) pass the fields positionally, in
    declaration order: keywords cost about two thirds more per build.
    """

    kind: MessageKind
    sender_role: Role
    correlation_id: str
    payload: dict = field(default_factory=dict)


@dataclass(slots=True)
class Outbound:
    """A message to be delivered: the engine adds latency and routing.
    Slotted and not frozen, and built positionally by the message
    builders, like `ProtocolMessage`."""

    to: str
    latency_class: str
    message: ProtocolMessage
    delay_ms: float = 0.0  # extra local delay before the message leaves


@dataclass(slots=True)
class TraceRecord:
    """One delivered message with its routing: the sender's and recipient's
    ids and the send and receive times in ms. One trace line each."""

    sent_at: float
    received_at: float
    sender: str
    recipient: str
    message: ProtocolMessage


# -- services and execution reports -------------------------------------------

RESOURCES_SCHEMA = {
    "type": "object",
    "properties": dict.fromkeys(("cpu", "memory", "storage", "energy"), {"type": "integer", "minimum": 0}),
    "required": ["cpu", "memory", "storage", "energy"],
    "additionalProperties": False,
}

# A device's registration, as a scenario's host and aggregator entries
# and a saved `register_host` give it. The platform's two fields are a
# service's required platform's too.
DEVICE_FIELDS = {
    "capacity": RESOURCES_SCHEMA,
    "battery_mwh": {"type": "integer", "minimum": 0},
    "platform_os": {"type": "string", "minLength": 1},
    "platform_version": {"type": "string", "pattern": r"^\d+(\.\d+){0,2}\Z"},
}

_SERVICE_FIELDS = {
    "service_id": {"type": "string", "minLength": 1},
    "developer_id": {"type": "string", "minLength": 1},
    "name": {"type": "string", "minLength": 1},
    "description": {"type": "string"},
    "functionality_tag": {"type": "string", "minLength": 1},
    "input_spec": {"type": "string"},
    "output_spec": {"type": "string"},
    "binding_method": {"type": "string"},
    "security_level": {"enum": [level.label for level in SecurityLevel]},
    "platform": {
        "type": "object",
        "properties": {
            "os_name": DEVICE_FIELDS["platform_os"],
            "min_version": DEVICE_FIELDS["platform_version"],
        },
        "required": ["os_name", "min_version"],
        "additionalProperties": False,
    },
    "min_resources": RESOURCES_SCHEMA,
    "price_per_invocation": {"type": "integer", "minimum": 0},
    "developer_share": {"type": "number", "minimum": 0, "maximum": 1},
    "dependencies": {"type": "array", "items": {"type": "string"}},
}

# A service as `service_to_dict` writes it: every field required.
SERVICE_SCHEMA = {
    "type": "object",
    "properties": _SERVICE_FIELDS,
    "required": list(_SERVICE_FIELDS),
    "additionalProperties": False,
}

_REPORT_FIELDS = {
    **dict.fromkeys(("report_id", "host_id", "service_id", "requester_pseudonym"), {"type": "string"}),
    **dict.fromkeys(("started_at", "duration_ms"), {"type": "number"}),
    "energy_used_mwh": {"type": "integer"},
    "ok": {"type": "boolean"},
    "failure_reason": {"type": ["string", "null"]},
    "rating": {"type": ["integer", "null"]},
}

# A report as `report_to_dict` writes it: each value's JSON type, checked
# at the endpoint's report door and at a restore. Its ranges are
# `ExecutionReport`'s own, which also guard a report built in process.
REPORT_SCHEMA = {
    "type": "object",
    "properties": _REPORT_FIELDS,
    "required": list(_REPORT_FIELDS),
    "additionalProperties": False,
}

_LEVELS = {level.label: level for level in SecurityLevel}


def service_to_dict(desc: ServiceDescription) -> dict:
    return {
        "service_id": desc.service_id,
        "developer_id": desc.developer_id,
        "name": desc.name,
        "description": desc.description,
        "functionality_tag": desc.functionality_tag,
        "input_spec": desc.input_spec,
        "output_spec": desc.output_spec,
        "binding_method": desc.binding_method,
        "security_level": desc.security_level.label,
        "platform": {"os_name": desc.platform.os_name, "min_version": desc.platform.min_version},
        "min_resources": desc.min_resources.as_dict(),
        "price_per_invocation": desc.price_per_invocation,
        "developer_share": desc.developer_share,
        "dependencies": list(desc.dependencies),
    }


def listing_to_dict(desc: ServiceDescription) -> dict:
    """A discovery reply's form of a service: `service_to_dict` without
    the developer's id and share, the platform flattened into
    `platform_os` and `platform_min_version`."""
    encoded = service_to_dict(desc)
    del encoded["developer_id"], encoded["developer_share"]
    platform = encoded.pop("platform")
    encoded["platform_os"], encoded["platform_min_version"] = platform["os_name"], platform["min_version"]
    return encoded


def service_from_dict(raw: dict) -> ServiceDescription:
    """The description `service_to_dict` wrote, from a dict that meets
    `SERVICE_SCHEMA`: a scenario's service with its defaults filled in,
    or a restore's saved call. It checks nothing again, and builds the
    records positionally, in declaration order. A host decodes nothing:
    it reads a listed service's id and need from the dict."""
    platform = raw["platform"]
    need = raw["min_resources"]
    return ServiceDescription(
        raw["service_id"], raw["developer_id"], raw["name"], raw["description"],
        raw["functionality_tag"], raw["input_spec"], raw["output_spec"], raw["binding_method"],
        _LEVELS[raw["security_level"]],
        PlatformRequirement(platform["os_name"], platform["min_version"]),
        ResourceVector(need["cpu"], need["memory"], need["storage"], need["energy"]),
        raw["price_per_invocation"], raw["developer_share"], tuple(raw["dependencies"]),
    )


def report_dict(report_id: str, host_id: str, service_id: str, requester_pseudonym: str,
                started_at: float, duration_ms: float, energy_used_mwh: int,
                ok: bool, failure_reason: str | None) -> dict:
    """An execution report as a host sends it: no rating, which reaches
    the governor in the consumer's own message."""
    return {
        "report_id": report_id,
        "host_id": host_id,
        "service_id": service_id,
        "requester_pseudonym": requester_pseudonym,
        "started_at": started_at,
        "duration_ms": duration_ms,
        "energy_used_mwh": energy_used_mwh,
        "ok": ok,
        "failure_reason": failure_reason,
    }


def report_to_dict(report: ExecutionReport) -> dict:
    """`report_dict`'s form of `report`, with its rating."""
    raw = report_dict(
        report.report_id, report.host_id, report.service_id, report.requester_pseudonym,
        report.started_at, report.duration_ms, report.energy_used_mwh,
        report.outcome.ok, report.outcome.reason,
    )
    raw["rating"] = report.rating
    return raw


def report_from_dict(raw: dict, rating: int | None) -> ExecutionReport:
    """A report from its dict and its rating, passed apart: a wire report
    carries no rating (the consumer's arrives in its own message), and a
    saved one carries it as `raw["rating"]`."""
    outcome = Outcome.success() if raw["ok"] else Outcome.failure(raw["failure_reason"])
    return ExecutionReport(
        raw["report_id"], raw["host_id"], raw["service_id"], raw["requester_pseudonym"],
        raw["started_at"], raw["duration_ms"], raw["energy_used_mwh"], outcome, rating,
    )


# -- the trace ----------------------------------------------------------------

def _unencodable(obj: Any) -> NoReturn:
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _compact_encoder() -> Callable[[Any], str]:
    """`json.dumps(obj, sort_keys=True, separators=(",", ":"))`.

    `JSONEncoder.encode` builds a new C encoder and markers dict on every
    call; this builds the C encoder once, for the whole process. It keeps
    no markers: a shared markers dict keeps the containers of a failed
    encode, so encoding one of them again, even once it is fixed, would
    report a circular reference. A cyclic object therefore raises
    `RecursionError`, not `ValueError`; no payload is cyclic. Without the
    `_json` accelerator this is `JSONEncoder.encode`.
    """
    if c_make_encoder is None:
        return json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    # markers, default, string encoder, indent, key and item separators,
    # sort_keys, skipkeys, allow_nan
    encoder = c_make_encoder(None, _unencodable, encode_basestring_ascii, None,
                             ":", ",", True, False, True)
    return lambda obj: "".join(encoder(obj, 0))


compact_json = _compact_encoder()

# Trace lines are ASCII, so this many characters is 64 KiB of trace.log.
TRACE_CHUNK_CHARS = 64 * 1024

_DISCOVERY_REPLY = MessageKind.DISCOVERY_REPLY
_LIST_SERVICES_REPLY = MessageKind.LIST_SERVICES_REPLY


def trace_lines(records: Iterable[TraceRecord]) -> Iterator[str]:
    """The records' trace lines in order, without their newlines, each
    encoded as it is taken. One payload memo and one agent id memo serve
    the whole pass and are dropped with it."""
    memo: dict[int, tuple[Any, str]] = {}
    ids: dict[str, str] = {}
    return (_line(record, memo, ids) for record in records)


def write_trace(fh: BinaryIO, records: Iterable[TraceRecord]) -> None:
    """Write the records' trace lines, each with its newline, to `fh`,
    gathered into chunks of about `TRACE_CHUNK_CHARS` characters, each
    joined, encoded and written at once. The writer holds one chunk of the
    lines, never all of them."""
    chunk: list[str] = []
    size = 0
    for line in trace_lines(records):
        chunk.append(line)
        size += len(line) + 1
        if size >= TRACE_CHUNK_CHARS:
            chunk.append("")  # the chunk's last newline
            fh.write("\n".join(chunk).encode("utf-8"))
            chunk.clear()
            size = 0
    if chunk:
        chunk.append("")
        fh.write("\n".join(chunk).encode("utf-8"))


def _line(record: TraceRecord, memo: dict[int, tuple[Any, str]], ids: dict[str, str]) -> str:
    """One trace line, built directly in sorted key order (see the module
    docstring): shared payloads come from `memo`, id texts from `ids`."""
    msg = record.message
    sender = record.sender
    recipient = record.recipient
    return (
        f'{{"correlation_id":{encode_basestring_ascii(msg.correlation_id)}'
        f',"from":{ids.get(sender) or _id_json(ids, sender)}'
        f',"kind":{msg.kind.json}'
        f',"payload":{_payload_json(msg, memo)}'
        f',"sender_role":{msg.sender_role.json}'
        f',"to":{ids.get(recipient) or _id_json(ids, recipient)}'
        f',"tr":{_ms_text(record.received_at)}'
        f',"ts":{_ms_text(record.sent_at)}}}'
    )


def _ms_text(ms: float) -> str:
    """`repr(round(ms, 3))`, the JSON text of a time to 3 places, at less
    than half its cost.

    Below 1e12 in magnitude this is `'%.3f' % ms` with its trailing zeros
    trimmed to one (`"12.500"` -> `"12.5"`, `"3.000"` -> `"3.0"`). Both
    roundings are CPython's correctly rounded `_Py_dg_dtoa` mode 3, and a
    decimal of at most 15 significant digits, which a value below 1e12
    keeps to 3 places, reads back as the same float, so `repr` writes the
    same digits (this breaks near 1.2e14). NaN, the infinities and larger
    times, which an unbounded `duration_hours` allows, keep `repr(round())`.
    """
    if -1e12 < ms < 1e12:
        text = "%.3f" % ms
        if text[-1] != "0":  # no zeros to trim
            return text
        text = text.rstrip("0")
        return text + "0" if text[-1] == "." else text
    return repr(round(ms, 3))


def _id_json(ids: dict[str, str], agent_id: str) -> str:
    """`agent_id`'s JSON text, kept in `ids`."""
    text = ids[agent_id] = encode_basestring_ascii(agent_id)
    return text


_RESULT_KEYS = {"hosts", "service"}


def _sole_list(payload: dict, key: str) -> bool:
    """Whether `key`, holding a list, is the payload's only key."""
    return len(payload) == 1 and type(payload.get(key)) in (list, tuple)


def _payload_json(msg: ProtocolMessage, memo: dict[int, tuple[Any, str]]) -> str:
    """A payload's compact JSON. Discovery and listing replies carry the
    registry's shared per-service dicts (`ServiceRegistry.listing_dict`,
    `wire_dict`) and discovery replies the host database's holder lists
    (`HostDatabase.ranked_hosts`), each kept until a change of its
    ranking replaces it, so a service's hosts between two such changes
    are one list; a repeated discovery answer and a repeated kept
    listing are one shared payload (`GovernorEndpoint`).
    Each is encoded once per memo: the memo keys by `id()` and holds the
    object itself, so no id is reused while it lives."""
    payload = msg.payload
    kind = msg.kind
    if kind is _DISCOVERY_REPLY:
        return _shared_json(payload, memo, _discovery_json)
    if kind is _LIST_SERVICES_REPLY:
        return _shared_json(payload, memo, _listing_json)
    return compact_json(payload)


def _discovery_json(payload: dict, memo: dict[int, tuple[Any, str]]) -> str:
    if not _sole_list(payload, "results"):
        return compact_json(payload)
    entries = ",".join(
        f'{{"hosts":{_shared_json(entry["hosts"], memo)},"service":{_shared_json(entry["service"], memo)}}}'
        if type(entry) is dict and entry.keys() == _RESULT_KEYS else compact_json(entry)
        for entry in payload["results"]
    )
    return f'{{"results":[{entries}]}}'


def _listing_json(payload: dict, memo: dict[int, tuple[Any, str]]) -> str:
    if not _sole_list(payload, "services"):
        return compact_json(payload)
    services = ",".join(_shared_json(raw, memo) for raw in payload["services"])
    return f'{{"services":[{services}]}}'


def _shared_json(obj: Any, memo: dict[int, tuple[Any, str]],
                 encode: Callable[[Any, dict], str] | None = None) -> str:
    """`obj`'s compact JSON, or `encode(obj, memo)`, kept in `memo` for `obj`."""
    hit = memo.get(id(obj))
    if hit is not None and hit[0] is obj:
        return hit[1]
    text = compact_json(obj) if encode is None else encode(obj, memo)
    memo[id(obj)] = (obj, text)
    return text


_TRACE_KEYS = frozenset(("correlation_id", "from", "kind", "payload", "sender_role", "to", "tr", "ts"))


def read_trace(data: bytes) -> Iterator[TraceRecord]:
    """The records of a trace, in order: the exact inverse of `write_trace`.

    A line is read only if the writer, given its record, writes it again
    byte for byte. Anything else raises `EnvelopeError` naming the line
    (from 1) and, where there is one, the key. Times read back as written,
    rounded to 3 places; a NaN or infinite time's line is not JSON, so it
    is refused.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise EnvelopeError(f"line {line}: not UTF-8: {exc.reason}") from None
    lines = text.split("\n")
    if lines.pop():
        raise EnvelopeError(f"line {len(lines) + 1}: no newline at the end")
    ids: dict[str, str] = {}
    for number, line in enumerate(lines, 1):
        record = _record(number, line)
        written = _line(record, {}, ids)
        if written != line:
            index = len(commonprefix((written, line)))
            raise EnvelopeError(f"line {number}: {_key_at(written, index)!r} is not "
                                f"as the writer writes it (column {index + 1})")
        yield record


def _record(number: int, line: str) -> TraceRecord:
    """The record a trace line holds, its keys and their types checked."""
    if not line:
        raise EnvelopeError(f"line {number}: blank")
    try:
        obj = json.loads(line)
    except (ValueError, RecursionError) as exc:  # too deep a nesting recurses
        raise EnvelopeError(f"line {number}: not JSON: {exc}") from None
    if type(obj) is not dict:
        raise EnvelopeError(f"line {number}: not a JSON object")
    if obj.keys() != _TRACE_KEYS:
        missing = sorted(_TRACE_KEYS - obj.keys())
        if missing:
            raise EnvelopeError(f"line {number}: {missing[0]!r} is missing")
        raise EnvelopeError(f"line {number}: {sorted(obj.keys() - _TRACE_KEYS)[0]!r} is not a trace key")

    kind, role, correlation_id = obj["kind"], obj["sender_role"], obj["correlation_id"]
    for key, ok, expected in (
        ("kind", type(kind) is str and kind in _KIND_BY_VALUE, "a message kind"),
        ("sender_role", type(role) is str and role in _ROLE_BY_VALUE, "a role"),
        ("correlation_id", type(correlation_id) is str and correlation_id != "", "a non-empty string"),
        ("from", type(obj["from"]) is str, "a string"),
        ("to", type(obj["to"]) is str, "a string"),
        ("tr", type(obj["tr"]) is float, "a float"),
        ("ts", type(obj["ts"]) is float, "a float"),
        ("payload", type(obj["payload"]) is dict, "an object"),
    ):
        if not ok:
            raise EnvelopeError(f"line {number}: {key!r} must be {expected}, got {obj[key]!r}")
    message = ProtocolMessage(_KIND_BY_VALUE[kind], _ROLE_BY_VALUE[role], correlation_id, obj["payload"])
    return TraceRecord(obj["ts"], obj["tr"], obj["from"], obj["to"], message)


def _key_at(line: str, index: int) -> str:
    """The top-level key whose value's text holds `index` in a line the
    writer wrote. Only the payload can hold a key's text, so the first
    match of each key before it and the last of each after it is the key."""
    key = "correlation_id"
    for name in ("from", "kind", "payload"):
        if line.find(f',"{name}":') < index:
            key = name
    for name in ("sender_role", "to", "tr", "ts"):
        if line.rfind(f',"{name}":') < index:
            key = name
    return key
