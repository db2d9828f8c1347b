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
that answer, and the trace encodes it once.
"""
from __future__ import annotations

from typing import TYPE_CHECKING

from ..domain import ResourceVector
from ..errors import UnknownEntityError
from ..wire import MessageKind, Outbound, ProtocolMessage, Role
from .serialize import report_from_dict

if TYPE_CHECKING:
    from . import ServiceGovernor


class GovernorEndpoint:
    def __init__(self, governor: ServiceGovernor):
        self.governor = governor
        self.pending: dict[str, dict] = {}  # correlation -> {"report": payload} or {"rating": r}
        self.replies: dict[str, tuple[list, dict]] = {}  # query -> (its last results, their payload)

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        """The replies to one message from `sender` received at `now`."""
        # An == chain, not a dict: hashing an Enum member runs in Python.
        kind = msg.kind
        if kind == MessageKind.LIST_SERVICES_REQUEST:
            return self._list_services(msg, sender)
        if kind == MessageKind.HOSTING_REQUEST:
            return self._hosting(msg, sender, now)
        if kind == MessageKind.DISCOVERY_QUERY:
            return self._discovery(msg, sender)
        if kind == MessageKind.EXECUTION_REPORT:
            self._report(msg, now)
        elif kind == MessageKind.RATE_SERVICE:
            self._rating(msg)
        return []

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
    # Repeated discovery answers share their whole payload. Nothing
    # downstream may mutate a payload.

    def _list_services(self, msg: ProtocolMessage, sender: str) -> list[Outbound]:
        p = msg.payload
        registry = self.governor.registry
        services = registry.list_available_services(
            ResourceVector(**p["free"]), p["platform_os"], p["platform_version"]
        )
        payload = {"services": [registry.wire_dict(d.service_id) for d in services]}
        return _reply(MessageKind.LIST_SERVICES_REPLY, msg, sender, payload)

    def _hosting(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        p = msg.payload
        decision = self.governor.request_hosting(
            p["host_id"], p["service_id"],
            identity_verified=p.get("identity_verified", False),
            at=now,
        )
        payload = {"host_id": p["host_id"], "service_id": p["service_id"]}
        if decision.confirmed:
            return _reply(MessageKind.ALLOCATION_CONFIRM, msg, sender, payload)
        payload["reason"] = decision.reason
        return _reply(MessageKind.ALLOCATION_DENIED, msg, sender, payload)

    def _discovery(self, msg: ProtocolMessage, sender: str) -> list[Outbound]:
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
        return _reply(MessageKind.DISCOVERY_REPLY, msg, sender, payload)

    def _report(self, msg: ProtocolMessage, now: float) -> None:
        p = msg.payload
        if p["ok"]:
            pending = self.pending.get(msg.correlation_id)
            if pending is not None and "rating" in pending:
                self._ingest(p, pending["rating"])
                del self.pending[msg.correlation_id]
            else:
                self.pending[msg.correlation_id] = {"report": p}
            return
        self._ingest(p, None)
        self.governor.profiler.report_malfunction(
            p["service_id"],
            detail=f"invocation failed: {p.get('failure_reason') or 'unknown'}",
            at=now,
        )

    def _rating(self, msg: ProtocolMessage) -> None:
        pending = self.pending.get(msg.correlation_id)
        rating = msg.payload.get("rating")
        if pending is not None and "report" in pending:
            self._ingest(pending["report"], rating)
            del self.pending[msg.correlation_id]
        else:
            self.pending[msg.correlation_id] = {"rating": rating}

    def _ingest(self, report_payload: dict, rating: int | None) -> None:
        try:
            self.governor.ingest_report(report_from_dict({**report_payload, "rating": rating}))
        except UnknownEntityError:
            pass  # report raced a deregistration; nothing to update


def _reply(kind: MessageKind, request: ProtocolMessage, to: str, payload: dict) -> list[Outbound]:
    reply = ProtocolMessage(
        kind=kind,
        sender_role=Role.GOVERNOR,
        correlation_id=request.correlation_id,
        payload=payload,
    )
    return [Outbound(to=to, latency_class="governor", message=reply)]
