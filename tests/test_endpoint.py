"""The governor's protocol endpoint, driven directly with no simulation."""
import pytest

from conftest import governor_with, make_service
from momcc.domain import ResourceVector
from momcc.governor.endpoint import GovernorEndpoint
from momcc.wire import MessageKind, ProtocolMessage, Role

AMPLE = ResourceVector(2048, 32, 64, 2000)


@pytest.fixture
def endpoint():
    governor = governor_with([make_service()])
    governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 20000)
    assert governor.request_hosting("host-a", "svc-resize").confirmed
    return GovernorEndpoint(governor)


def report(correlation: str, ok: bool = True) -> ProtocolMessage:
    return ProtocolMessage(
        kind=MessageKind.EXECUTION_REPORT,
        sender_role=Role.HOST,
        correlation_id=correlation,
        payload={
            "report_id": f"rpt-{correlation}",
            "host_id": "host-a",
            "service_id": "svc-resize",
            "requester_pseudonym": "anon-1",
            "started_at": 10.0,
            "duration_ms": 12.0,
            "energy_used_mwh": 500,
            "ok": ok,
            "failure_reason": None if ok else "fault",
        },
    )


def rating(correlation: str, value: int | None = 5) -> ProtocolMessage:
    return ProtocolMessage(
        kind=MessageKind.RATE_SERVICE,
        sender_role=Role.REQUESTER,
        correlation_id=correlation,
        payload={"service_id": "svc-resize", "rating": value, "requester_pseudonym": "anon-1"},
    )


def ingested(endpoint) -> list[tuple[str, int | None]]:
    return [(r.report_id, r.rating) for r in endpoint.governor.host_db.reports]


@pytest.mark.parametrize("rating_first", [False, True])
def test_report_and_rating_are_ingested_once_together_in_either_order(endpoint, rating_first):
    messages = [report("inv-1"), rating("inv-1", 4)]
    if rating_first:
        messages.reverse()
    for msg in messages:
        assert endpoint.handle(msg, "sender", 50.0) == []
    assert ingested(endpoint) == [("rpt-inv-1", 4)]
    assert len(endpoint.governor.billing.audit()) == 1
    assert endpoint.pending == {}


def test_duplicate_report_delivery_meters_once(endpoint):
    for msg in (report("inv-1"), rating("inv-1"), report("inv-1")):
        endpoint.handle(msg, "host-a", 50.0)
    endpoint.flush()
    assert ingested(endpoint) == [("rpt-inv-1", 5)]
    assert len(endpoint.governor.billing.audit()) == 1
    assert endpoint.governor.check_invariants() == []


def test_failed_report_is_ingested_at_once_and_files_an_escalation(endpoint):
    assert endpoint.handle(report("inv-1", ok=False), "host-a", 70.0) == []
    assert ingested(endpoint) == [("rpt-inv-1", None)]
    assert endpoint.pending == {}
    assert endpoint.governor.billing.audit() == []
    [escalation] = endpoint.governor.profiler.escalations
    assert (escalation.service_id, escalation.detail, escalation.at) == (
        "svc-resize", "invocation failed: fault", 70.0
    )


def test_flush_ingests_waiting_reports_unrated_in_correlation_order(endpoint):
    for msg in (report("inv-2"), report("inv-1"), rating("inv-3")):
        endpoint.handle(msg, "sender", 50.0)
    assert ingested(endpoint) == []
    endpoint.flush()
    assert ingested(endpoint) == [("rpt-inv-1", None), ("rpt-inv-2", None)]
    assert endpoint.pending == {}
    # The orphan rating is gone: a later report for it waits again.
    endpoint.handle(report("inv-3"), "host-a", 60.0)
    assert list(endpoint.pending) == ["inv-3"]
    assert len(ingested(endpoint)) == 2


def test_unknown_kind_gets_no_reply(endpoint):
    msg = ProtocolMessage(MessageKind.SC_QUERY, Role.HOST, "sc-1", {"host_id": "host-a"})
    assert endpoint.handle(msg, "host-a", 1.0) == []


def test_requests_are_answered_to_the_sender_under_their_correlation(endpoint):
    endpoint.governor.hosts.register_host("host-b", "Android", "2.0", AMPLE, 100)
    requests = {
        MessageKind.LIST_SERVICES_REPLY: ProtocolMessage(
            MessageKind.LIST_SERVICES_REQUEST, Role.HOST, "list-1",
            {"host_id": "host-b", "free": AMPLE.as_dict(),
             "platform_os": "Android", "platform_version": "4.0"},
        ),
        MessageKind.ALLOCATION_DENIED: ProtocolMessage(
            MessageKind.HOSTING_REQUEST, Role.HOST, "alloc-1",
            {"host_id": "host-b", "service_id": "svc-resize"},
        ),
        MessageKind.DISCOVERY_REPLY: ProtocolMessage(
            MessageKind.DISCOVERY_QUERY, Role.REQUESTER, "disc-1",
            {"query": "image", "requester_pseudonym": "anon-1"},
        ),
    }
    replies = {}
    for reply_kind, request in requests.items():
        [outbound] = endpoint.handle(request, "peer", 5.0)
        assert (outbound.to, outbound.latency_class) == ("peer", "governor")
        assert outbound.message.kind == reply_kind
        assert outbound.message.sender_role == Role.GOVERNOR
        assert outbound.message.correlation_id == request.correlation_id
        replies[reply_kind] = outbound.message.payload
    assert [s["service_id"] for s in replies[MessageKind.LIST_SERVICES_REPLY]["services"]] == [
        "svc-resize"
    ]
    assert replies[MessageKind.ALLOCATION_DENIED]["reason"] == "platform"
    [result] = replies[MessageKind.DISCOVERY_REPLY]["results"]
    assert (result["service"]["service_id"], result["hosts"]) == ("svc-resize", ["host-a"])
