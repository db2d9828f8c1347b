"""Message dispatch: each receiver finds a kind's handler in one dict.

Every receiver of the protocol (the governor's endpoint and the three
agents) is sent every `MessageKind`. A kind it serves must get the
replies, and leave the state, that the kind's named handler gives an
identical receiver; every other kind gets no reply and changes nothing.
"""
import copy
import random

import pytest

from conftest import governor_with, make_service
from momcc.agents import (
    AggregatorAgent,
    AggregatorConfig,
    HostAgent,
    HostAgentConfig,
    RequesterAgent,
    RequesterAgentConfig,
)
from momcc.domain import ResourceVector
from momcc.governor.endpoint import GovernorEndpoint
from momcc.snapshot import snapshot_governor
from momcc.wire import MessageKind, ProtocolMessage, Role, service_to_dict

K = MessageKind
AMPLE = ResourceVector(2048, 32, 64, 2000)
EXEC_MS = (5.0, 25.0)

# The kinds each receiver serves, and the handler that serves each.
SERVED = {
    "endpoint": {
        K.LIST_SERVICES_REQUEST: "_list_services",
        K.HOSTING_REQUEST: "_hosting",
        K.DISCOVERY_QUERY: "_discovery",
        K.EXECUTION_REPORT: "_report",
        K.RATE_SERVICE: "_rating",
    },
    "host": {
        K.LIST_SERVICES_REPLY: "_on_listing",
        K.ALLOCATION_CONFIRM: "_on_confirm",
        K.INVOKE: "_on_invoke",
    },
    "requester": {
        K.DISCOVERY_REPLY: "_on_discovery",
        K.INVOKE_RESULT: "_on_result",
    },
    "aggregator": {
        K.INVOKE: "_on_composite_invoke",
        K.DISCOVERY_REPLY: "_on_discovery",
        K.INVOKE_RESULT: "_on_dep_result",
    },
}


class Ids:
    """An id source that counts what it issues, so its use is state."""

    def __init__(self):
        self.issued = 0

    def __call__(self, prefix: str) -> str:
        self.issued += 1
        return f"{prefix}-{self.issued:04d}"


def message(kind, correlation, payload, role=Role.HOST):
    return ProtocolMessage(kind, role, correlation, payload)


def report_payload(correlation, ok):
    return {
        "report_id": f"rpt-{correlation}", "host_id": "host-a", "service_id": "svc-resize",
        "requester_pseudonym": "anon-1", "started_at": 10.0, "duration_ms": 12.0,
        "energy_used_mwh": 500, "ok": ok, "failure_reason": None if ok else "fault",
    }


def endpoint():
    governor = governor_with([make_service()])
    governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 20000)
    governor.hosts.register_host("host-b", "Android", "4.0", AMPLE, 20000)
    assert governor.request_hosting("host-a", "svc-resize").confirmed
    return GovernorEndpoint(governor)


def host():
    config = HostAgentConfig(capacity=AMPLE, battery_mwh=20000, platform_os="Android",
                             platform_version="4.0")
    agent = HostAgent("host-000", config, random.Random("h"), Ids(), EXEC_MS)
    desc = make_service()
    agent.host_service(desc.service_id, desc.min_resources)
    return agent


def requester():
    config = RequesterAgentConfig(demand_rate=10, query_pool=("image",))
    return RequesterAgent("req-000", config, random.Random("r"), Ids(), "anon-77")


def aggregator():
    composite = make_service(service_id="combo", dependencies=("svc-a", "svc-b"))
    config = AggregatorConfig("combo", AMPLE, 20000, "Android", "4.0")
    return AggregatorAgent("agg-000", config, random.Random("a"), Ids(), EXEC_MS, composite,
                           pseudonym="anon-agg", dependency_names={"svc-a": "a", "svc-b": "b"})


# Each receiver's conversation: every kind it serves, with payloads that
# make the handler reply or change state.
RECEIVERS = {
    "endpoint": (endpoint, [
        message(K.LIST_SERVICES_REQUEST, "list-1", {
            "host_id": "host-b", "free": AMPLE.as_dict(),
            "platform_os": "Android", "platform_version": "4.0"}),
        message(K.HOSTING_REQUEST, "alloc-1", {
            "host_id": "host-b", "service_id": "svc-resize", "identity_verified": False}),
        message(K.DISCOVERY_QUERY, "disc-1", {"query": "image", "requester_pseudonym": "anon-1"},
                Role.REQUESTER),
        message(K.EXECUTION_REPORT, "inv-1", report_payload("inv-1", True)),
        message(K.RATE_SERVICE, "inv-1", {
            "service_id": "svc-resize", "rating": 4, "requester_pseudonym": "anon-1"}, Role.REQUESTER),
        message(K.EXECUTION_REPORT, "inv-2", report_payload("inv-2", False)),
    ]),
    "host": (host, [
        message(K.LIST_SERVICES_REPLY, "list-1",
                {"services": [service_to_dict(make_service(service_id="svc-x"))]}, Role.GOVERNOR),
        message(K.ALLOCATION_CONFIRM, "alloc-0001",
                {"host_id": "host-000", "service_id": "svc-x"}, Role.GOVERNOR),
        message(K.INVOKE, "inv-1", {"service_id": "svc-resize", "requester_pseudonym": "anon-1"},
                Role.REQUESTER),
    ]),
    "requester": (requester, [
        message(K.DISCOVERY_REPLY, "disc-1", {"results": [
            {"service": {"service_id": "svc-resize"}, "hosts": ["host-000"]}]}, Role.GOVERNOR),
        message(K.INVOKE_RESULT, "inv-0001", {"service_id": "svc-resize", "ok": True, "reason": None}),
    ]),
    "aggregator": (aggregator, [
        message(K.INVOKE, "inv-1", {"service_id": "combo", "requester_pseudonym": "anon-1"},
                Role.REQUESTER),
        message(K.DISCOVERY_REPLY, "adisc-0001", {"results": [
            {"service": {"service_id": "svc-a"}, "hosts": ["host-000"]}]}, Role.GOVERNOR),
        message(K.INVOKE_RESULT, "ainv-0002", {"service_id": "svc-a", "ok": True, "reason": None}),
    ]),
}


def state(receiver):
    """Everything a message could change, as comparable plain data."""
    if isinstance(receiver, GovernorEndpoint):
        governor = receiver.governor
        return copy.deepcopy((
            snapshot_governor(governor),
            receiver.pending,
            {query: payload for query, (_, payload) in receiver.replies.items()},
            {platform: payload for platform, (_, payload) in receiver.listings.items()},
            len(governor.hosts.decisions),
        ))
    fields = {name: value.getstate() if isinstance(value, random.Random) else value
              for name, value in vars(receiver).items()}
    fields["next_id"] = receiver.next_id.issued
    return copy.deepcopy(fields)


@pytest.mark.parametrize("name", sorted(RECEIVERS))
def test_each_served_kind_gets_what_its_handler_gives(name):
    build, script = RECEIVERS[name]
    served = SERVED[name]
    assert {msg.kind for msg in script} == set(served)
    dispatched, direct = build(), build()
    for step, msg in enumerate(script):
        now = 100.0 * (step + 1)
        replies = dispatched.handle(msg, "peer", now)
        assert replies == getattr(direct, served[msg.kind])(msg, "peer", now)
        assert state(dispatched) == state(direct)
    assert state(dispatched) != state(build())  # the conversation did something


@pytest.mark.parametrize("name", sorted(RECEIVERS))
def test_every_other_kind_gets_no_reply_and_changes_nothing(name):
    build, script = RECEIVERS[name]
    receiver = build()
    correlations = []
    for step, msg in enumerate(script):
        replies = receiver.handle(msg, "peer", 100.0 * (step + 1))
        correlations += [msg.correlation_id, *(out.message.correlation_id for out in replies)]
    # Every payload key of the conversation, and every correlation id it
    # used, the calls still in flight among them: a kind sent to the
    # wrong handler would find what that handler reads.
    payload = {key: value for msg in script for key, value in msg.payload.items()}
    others = [kind for kind in MessageKind if kind not in SERVED[name]]
    assert others
    for kind in others:
        for correlation in correlations:
            before = state(receiver)
            assert receiver.handle(message(kind, correlation, payload), "peer", 1000.0) == []
            assert state(receiver) == before


@pytest.mark.parametrize("member", [*MessageKind, *Role])
def test_members_hash_by_identity(member):
    assert hash(member) == object.__hash__(member)
    assert {member: 1}[type(member)(member.value)] == 1


def test_the_enum_api_still_works():
    assert len(list(MessageKind)) == 15
    assert MessageKind("Invoke") is MessageKind.INVOKE
    assert Role("governor") is Role.GOVERNOR
    assert MessageKind.INVOKE.json == '"Invoke"'
    with pytest.raises(ValueError):
        MessageKind("invoke")
