"""The governor's protocol endpoint: request messages in, replies out.

Hosts and requesters reach the governor only through messages: listing,
hosting, discovery, execution reports and ratings. The endpoint decodes
each one, calls the governor's units and builds the replies; it knows
nothing of transport, so the caller routes what `handle` returns.

A successful execution report waits for the consumer's rating (or the
rating for its report), so the trust update sees outcome and rating as
one observation. `flush` ends that wait when no more messages will come.

Discovery replies are kept per query: while the registry's answer to a
query equals the last one (the same kept results, so the same listings
and host lists), every reply to it carries the one payload built from
that answer, and the trace encodes it once. Listing replies are kept
per host platform the same way: while the registry returns the same
kept listing, every host of that platform gets the one payload built
from it.

`handle` finds a message's handler in one dict keyed by kind, built with
the class, and the reply builders read kinds and the governor role bound
once here: on CPython 3.11 each read of `MessageKind.X` goes through
`EnumType.__getattr__`.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ..domain import ResourceVector
from ..errors import UnknownEntityError
from ..wire import MessageKind, Outbound, ProtocolMessage, Role, report_from_dict

if TYPE_CHECKING:
    from . import ServiceGovernor

_LIST_SERVICES_REPLY = MessageKind.LIST_SERVICES_REPLY
_ALLOCATION_CONFIRM = MessageKind.ALLOCATION_CONFIRM
_ALLOCATION_DENIED = MessageKind.ALLOCATION_DENIED
_DISCOVERY_REPLY = MessageKind.DISCOVERY_REPLY
_GOVERNOR = Role.GOVERNOR


class GovernorEndpoint:
    def __init__(self, governor: ServiceGovernor):
        self.governor = governor
        self.pending: dict[str, dict] = {}  # correlation -> {"report": payload} or {"rating": r}
        self.replies: dict[str, tuple[list, dict]] = {}  # query -> (its last results, their payload)
        self.listings: dict[tuple[str, str], tuple[list, dict]] = {}  # (os, version) -> (last listing, its payload)

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        """The replies to one message from `sender` received at `now`;
        a kind the governor does not serve gets none."""
        handler = self._HANDLERS.get(msg.kind)
        return [] if handler is None else handler(self, msg, sender, now)

    def flush(self) -> None:
        """Ingest reports still waiting for a rating, unrated, in
        correlation order; ratings that never met their report are dropped."""
        for correlation in sorted(self.pending):
            pending = self.pending[correlation]
            if "report" in pending:
                self._ingest(pending["report"], None)
        self.pending.clear()

    # Reply payloads carry the registry's cached per-service dicts and
    # the host database's kept holder lists, so every reply and trace
    # record naming a service shares one dict, and every discovery reply
    # between two changes of a service's ranking shares one host list.
    # Repeated discovery answers and repeated kept listings share their
    # whole payload. Nothing downstream may mutate a payload.

    def _list_services(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        p = msg.payload
        registry = self.governor.registry
        platform = (p["platform_os"], p["platform_version"])
        services = registry.list_available_services(ResourceVector(**p["free"]), *platform)
        last = self.listings.get(platform)
        # A covering host's listing is the registry's kept list itself.
        if last is not None and last[0] is services:
            payload = last[1]
        else:
            payload = {"services": [registry.wire_dict(d.service_id) for d in services]}
            self.listings[platform] = (services, payload)
        return _reply(_LIST_SERVICES_REPLY, msg, sender, payload)

    def _hosting(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        p = msg.payload
        decision = self.governor.request_hosting(
            p["host_id"], p["service_id"],
            identity_verified=p.get("identity_verified", False),
            at=now,
        )
        payload = {"host_id": p["host_id"], "service_id": p["service_id"]}
        if decision.confirmed:
            return _reply(_ALLOCATION_CONFIRM, msg, sender, payload)
        payload["reason"] = decision.reason
        return _reply(_ALLOCATION_DENIED, msg, sender, payload)

    def _discovery(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        registry = self.governor.registry
        query = msg.payload["query"]
        results = registry.discover(query, msg.payload["requester_pseudonym"])
        last = self.replies.get(query)
        # The kept results make this a list of identity checks between changes.
        if last is not None and last[0] == results:
            payload = last[1]
        else:
            payload = {"results": [
                {"service": registry.listing_dict(r.listing.service_id), "hosts": r.hosts}
                for r in results
            ]}
            self.replies[query] = (results, payload)
        return _reply(_DISCOVERY_REPLY, msg, sender, payload)

    def _report(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        p = msg.payload
        if p["ok"]:
            pending = self.pending.get(msg.correlation_id)
            if pending is not None and "rating" in pending:
                self._ingest(p, pending["rating"])
                del self.pending[msg.correlation_id]
            else:
                self.pending[msg.correlation_id] = {"report": p}
            return []
        if self._ingest(p, None):
            self.governor.profiler.report_malfunction(
                p["service_id"],
                detail=f"invocation failed: {p.get('failure_reason') or 'unknown'}",
                at=now,
            )
        return []

    def _rating(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        pending = self.pending.get(msg.correlation_id)
        rating = msg.payload.get("rating")
        if pending is not None and "report" in pending:
            self._ingest(pending["report"], rating)
            del self.pending[msg.correlation_id]
        else:
            self.pending[msg.correlation_id] = {"rating": rating}
        return []

    def _ingest(self, report_payload: dict, rating: int | None) -> bool:
        """Whether the governor accepted the report: not a re-delivery,
        and naming a host and service it knows."""
        try:
            return self.governor.ingest_report(report_from_dict(report_payload, rating))
        except UnknownEntityError:
            return False  # report raced a deregistration; nothing to update

    # Each handler takes (message, sender, receive time) and returns the replies.
    _HANDLERS = {
        MessageKind.LIST_SERVICES_REQUEST: _list_services,
        MessageKind.HOSTING_REQUEST: _hosting,
        MessageKind.DISCOVERY_QUERY: _discovery,
        MessageKind.EXECUTION_REPORT: _report,
        MessageKind.RATE_SERVICE: _rating,
    }


def _reply(kind: MessageKind, request: ProtocolMessage, to: str, payload: dict) -> list[Outbound]:
    return [Outbound(to, "governor", ProtocolMessage(kind, _GOVERNOR, request.correlation_id, payload))]
