"""The governor's protocol endpoint, driven directly with no simulation."""
import pytest

from conftest import deprecate, governor_with, make_service
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


def report(correlation: str, ok: bool = True, host_id: str = "host-a") -> ProtocolMessage:
    return ProtocolMessage(
        kind=MessageKind.EXECUTION_REPORT,
        sender_role=Role.HOST,
        correlation_id=correlation,
        payload={
            "report_id": f"rpt-{correlation}",
            "host_id": host_id,
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


def test_a_failed_report_delivered_twice_is_escalated_once(endpoint):
    journal = endpoint.governor.journal
    before = len(journal)
    for _ in range(2):
        assert endpoint.handle(report("inv-1", ok=False), "host-a", 70.0) == []
    assert ingested(endpoint) == [("rpt-inv-1", None)]
    assert len(endpoint.governor.profiler.escalations) == 1
    assert [entry[0] for entry in journal[before:]] == ["hosts.ingest_report", "profiler.report_malfunction"]


def test_a_refused_failed_report_files_no_escalation(endpoint):
    assert endpoint.handle(report("inv-1", ok=False, host_id="host-ghost"), "host-ghost", 70.0) == []
    assert ingested(endpoint) == []
    assert endpoint.governor.profiler.escalations == []


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


def discovery(correlation: str, query: str = "image") -> ProtocolMessage:
    return ProtocolMessage(
        MessageKind.DISCOVERY_QUERY, Role.REQUESTER, correlation,
        {"query": query, "requester_pseudonym": "anon-1"},
    )


def discovered(endpoint, correlation: str, query: str = "image") -> dict:
    [outbound] = endpoint.handle(discovery(correlation, query), "req-0", 5.0)
    return outbound.message.payload


def content(payload: dict) -> list[tuple[str, list[str]]]:
    return [(entry["service"]["service_id"], list(entry["hosts"])) for entry in payload["results"]]


class TestSharedDiscoveryReplies:
    @pytest.fixture
    def market(self, endpoint):
        """Two hosts on svc-resize (host-a ahead after one rated report) and a second service."""
        governor = endpoint.governor
        governor.registry.register_service(make_service(service_id="svc-blur", name="image blur"))
        governor.hosts.register_host("host-b", "Android", "4.0", AMPLE, 20000)
        assert governor.request_hosting("host-b", "svc-resize").confirmed
        endpoint.handle(report("inv-0"), "host-b", 1.0)
        endpoint.handle(rating("inv-0"), "req-0", 1.0)
        return endpoint

    def test_identical_queries_with_nothing_changed_share_one_payload(self, market):
        first = discovered(market, "disc-1")
        assert content(first) == [("svc-blur", []), ("svc-resize", ["host-a", "host-b"])]
        assert discovered(market, "disc-2") is first
        assert discovered(market, "disc-3", "blur") is not first

    def test_a_ranking_reinsert_gives_a_new_payload(self, market):
        first = discovered(market, "disc-1")
        for n in range(1, 4):  # host-b overtakes host-a
            market.handle(report(f"inv-{n}", host_id="host-b"), "host-b", 2.0)
            market.handle(rating(f"inv-{n}"), "req-0", 2.0)
        second = discovered(market, "disc-2")
        assert second is not first
        assert content(second) == [("svc-blur", []), ("svc-resize", ["host-b", "host-a"])]
        assert content(first) == [("svc-blur", []), ("svc-resize", ["host-a", "host-b"])]

    def test_a_deprecation_gives_a_new_payload(self, market):
        first = discovered(market, "disc-1")
        assert deprecate(market.governor, "svc-blur") == ["svc-blur"]
        second = discovered(market, "disc-2")
        assert second is not first
        assert content(second) == [("svc-resize", ["host-a", "host-b"])]

    def test_registering_a_matching_service_gives_a_new_payload(self, market):
        registry = market.governor.registry
        first = discovered(market, "disc-1")
        registry.register_service(make_service(service_id="svc-crop", name="map crop", description="tiles"))
        assert discovered(market, "disc-2") is first  # "map crop tiles" does not hold "image"
        registry.register_service(make_service(service_id="svc-a", name="IMAGE crop"))
        second = discovered(market, "disc-3")
        assert second is not first
        assert content(second) == [
            ("svc-a", []), ("svc-blur", []), ("svc-resize", ["host-a", "host-b"])
        ]


def listing(correlation: str, free: ResourceVector = AMPLE, version: str = "4.0") -> ProtocolMessage:
    return ProtocolMessage(
        MessageKind.LIST_SERVICES_REQUEST, Role.HOST, correlation,
        {"host_id": "host-x", "free": free.as_dict(), "platform_os": "Android",
         "platform_version": version},
    )


def listed(endpoint, correlation: str, **request) -> dict:
    [outbound] = endpoint.handle(listing(correlation, **request), "host-x", 5.0)
    return outbound.message.payload


def service_ids(payload: dict) -> list[str]:
    return [raw["service_id"] for raw in payload["services"]]


class TestSharedListingReplies:
    def test_two_covering_hosts_on_one_platform_share_one_payload(self, endpoint):
        first = listed(endpoint, "list-1")
        assert service_ids(first) == ["svc-resize"]
        assert listed(endpoint, "list-2") is first
        assert listed(endpoint, "list-3", version="4.1") is not first  # another platform

    def test_a_host_short_of_the_largest_need_gets_its_own_payload(self, endpoint):
        first = listed(endpoint, "list-1")
        short = ResourceVector(512, 2, 5, 499)  # svc-resize needs 500 mWh
        assert service_ids(listed(endpoint, "list-2", free=short)) == []
        assert service_ids(listed(endpoint, "list-3")) == ["svc-resize"]
        assert first == listed(endpoint, "list-4")

    def test_a_registration_gives_a_new_payload_and_leaves_the_earlier_one(self, endpoint):
        first = listed(endpoint, "list-1")
        endpoint.governor.registry.register_service(
            make_service(service_id="svc-blur", name="image blur", price=2000)
        )
        second = listed(endpoint, "list-2")
        assert second is not first
        assert service_ids(second) == ["svc-blur", "svc-resize"]
        assert service_ids(first) == ["svc-resize"]
        assert listed(endpoint, "list-3") is second
