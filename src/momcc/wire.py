"""Wire formats: the XML requirements codec and the line-delimited envelope.

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

All other protocol traffic travels in a newline-delimited JSON envelope:
one object per line with keys kind / sender_role / correlation_id /
payload. Unknown top-level keys are ignored on decode (trace dumps add
routing metadata); unknown kinds are rejected.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from xml.etree import ElementTree

from .domain import PlatformRequirement, ResourceVector, VersionError


class RequirementsParseError(ValueError):
    """A requirements document failed to decode; names the offending element."""

    def __init__(self, element: str, detail: str):
        super().__init__(f"{element}: {detail}")
        self.element = element
        self.detail = detail


class EnvelopeError(ValueError):
    """A protocol envelope record failed to decode."""


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
    min_version = _required_text(platform_el, "MinVersion")
    try:
        platform = PlatformRequirement(os_name=os_name, min_version=min_version)
    except (VersionError, ValueError) as exc:
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


class MessageKind(Enum):
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


class Role(Enum):
    DEVELOPER = "developer"
    HOST = "host"
    REQUESTER = "requester"
    GOVERNOR = "governor"


_KIND_BY_VALUE = {k.value: k for k in MessageKind}
_ROLE_BY_VALUE = {r.value: r for r in Role}


@dataclass(frozen=True)
class ProtocolMessage:
    """One protocol message; replies reuse the correlation_id of their request."""

    kind: MessageKind
    sender_role: Role
    correlation_id: str
    payload: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.correlation_id:
            raise ValueError("correlation_id must be non-empty")


@dataclass(frozen=True)
class Outbound:
    """A message to be delivered: the engine adds latency and routing."""

    to: str
    latency_class: str
    message: ProtocolMessage
    delay_ms: float = 0.0  # extra local delay before the message leaves


def envelope_dict(msg: ProtocolMessage) -> dict:
    """The JSON object form of a message, suitable for extension with metadata."""
    return {
        "kind": msg.kind.value,
        "sender_role": msg.sender_role.value,
        "correlation_id": msg.correlation_id,
        "payload": msg.payload,
    }


def encode_envelope(msg: ProtocolMessage) -> bytes:
    """One newline-terminated JSON record."""
    try:
        line = json.dumps(envelope_dict(msg), sort_keys=True, separators=(",", ":"))
    except (TypeError, ValueError) as exc:
        raise EnvelopeError(f"payload is not JSON-serializable: {exc}") from None
    return (line + "\n").encode("utf-8")


def message_from_dict(obj: dict) -> ProtocolMessage:
    if not isinstance(obj, dict):
        raise EnvelopeError(f"envelope record must be an object, got {type(obj).__name__}")
    for key in ("kind", "sender_role", "correlation_id"):
        if key not in obj:
            raise EnvelopeError(f"envelope record missing {key!r}")
    kind = _KIND_BY_VALUE.get(obj["kind"])
    if kind is None:
        raise EnvelopeError(f"unknown message kind: {obj['kind']!r}")
    role = _ROLE_BY_VALUE.get(obj["sender_role"])
    if role is None:
        raise EnvelopeError(f"unknown sender role: {obj['sender_role']!r}")
    correlation_id = obj["correlation_id"]
    if not isinstance(correlation_id, str) or not correlation_id:
        raise EnvelopeError("correlation_id must be a non-empty string")
    payload = obj.get("payload", {})
    if not isinstance(payload, dict):
        raise EnvelopeError("payload must be an object")
    return ProtocolMessage(kind=kind, sender_role=role, correlation_id=correlation_id, payload=payload)


def decode_envelope(data: bytes | str) -> ProtocolMessage:
    """Inverse of encode_envelope for a single record."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise EnvelopeError(f"not valid UTF-8: {exc}") from None
    else:
        text = data
    text = text.strip()
    if not text:
        raise EnvelopeError("empty envelope record")
    if "\n" in text:
        raise EnvelopeError("decode_envelope takes a single record; use iter_envelopes")
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EnvelopeError(f"malformed envelope record: {exc}") from None
    return message_from_dict(obj)


def iter_envelopes(data: bytes | str):
    """Yield messages from a newline-delimited envelope stream."""
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    for line in data.splitlines():
        if line.strip():
            yield decode_envelope(line)
