"""The trace writer and the metrics writer against plain `json.dumps`.

`TraceRecord.to_line` builds each line in sorted key order and splices
the shared per-service dicts of discovery and listing replies, the
shared host lists of discovery replies, and whole discovery payloads
that several replies share, from a memo; `MetricsReport.to_json_bytes`
indents without json's pure-Python encoder. Both must produce exactly what the straightforward encodings
produce, which the tests keep as their oracles.
"""
import json

from hypothesis import given, settings, strategies as st

from momcc.engine import TraceRecord, _indented
from momcc.wire import MessageKind, ProtocolMessage, Role, envelope_dict


def oracle_line(record: TraceRecord) -> str:
    """The trace line as one `json.dumps` of the envelope plus routing keys."""
    return json.dumps({
        **envelope_dict(record.message),
        "ts": round(record.sent_at, 3),
        "tr": round(record.received_at, 3),
        "from": record.sender,
        "to": record.recipient,
    }, sort_keys=True, separators=(",", ":"))


AWKWARD_FLOATS = st.sampled_from([0.0, -0.0, 0.1 + 0.2, 1e-7, 1e16, 123456.0005, 2.5e-308, 1e308])
finite = st.one_of(st.floats(allow_nan=False, allow_infinity=False), AWKWARD_FLOATS)
scalars = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), AWKWARD_FLOATS,
    st.text(), st.text(alphabet="é€😀\"\\\n\t\x00\x7f", max_size=6),
)
json_values = st.recursive(
    scalars,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=12,
)
json_objects = st.dictionaries(st.text(max_size=6), json_values, max_size=4)


host_ids = st.lists(st.text(max_size=8), max_size=4)


@st.composite
def payloads(draw, kind: MessageKind, shared: list[dict], shared_hosts: list):
    """A payload of `kind`: the protocol's shape for discovery and listing
    replies, naming dicts from `shared` and host lists or tuples from
    `shared_hosts` so records repeat them, or any JSON object."""
    pick = st.sampled_from(shared)
    if kind == MessageKind.DISCOVERY_REPLY and draw(st.booleans()):
        hosts = st.one_of(st.sampled_from(shared_hosts), host_ids, host_ids.map(tuple))
        entries = st.one_of(
            st.fixed_dictionaries({"service": pick, "hosts": hosts}),
            json_values,
        )
        return {"results": draw(st.lists(entries, max_size=4))}
    if kind == MessageKind.LIST_SERVICES_REPLY and draw(st.booleans()):
        return {"services": draw(st.lists(st.one_of(pick, json_values), max_size=5))}
    return draw(json_objects)


@st.composite
def trace_records(draw):
    shared = draw(st.lists(json_objects, min_size=1, max_size=4))
    shared_hosts = draw(st.lists(st.one_of(host_ids, host_ids.map(tuple)), min_size=1, max_size=3))
    # Whole discovery payloads, of either shape, that several records carry.
    shared_replies = draw(st.lists(payloads(MessageKind.DISCOVERY_REPLY, shared, shared_hosts),
                                   min_size=1, max_size=2))
    records = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(list(MessageKind)))
        if kind == MessageKind.DISCOVERY_REPLY and draw(st.booleans()):
            payload = draw(st.sampled_from(shared_replies))
        else:
            payload = draw(payloads(kind, shared, shared_hosts))
        message = ProtocolMessage(
            kind=kind,
            sender_role=draw(st.sampled_from(list(Role))),
            correlation_id=draw(st.text(min_size=1, max_size=10)),
            payload=payload,
        )
        records.append(TraceRecord(draw(finite), draw(finite), draw(st.text(max_size=8)),
                                   draw(st.text(max_size=8)), message))
    return records


class TestTraceLine:
    @settings(max_examples=200, deadline=None)
    @given(trace_records())
    def test_line_equals_one_json_dumps_of_the_record(self, records):
        memo = {}
        for record in records:
            expected = oracle_line(record)
            assert record.to_line(memo) == expected
            assert record.to_line() == expected

    def test_memo_is_keyed_by_the_object_not_only_its_id(self):
        """An entry whose object is another one with the same id is not reused."""
        service = {"service_id": "svc-a"}
        record = TraceRecord(1.0, 2.0, "governor", "req-000", ProtocolMessage(
            MessageKind.LIST_SERVICES_REPLY, Role.GOVERNOR, "list-1", {"services": [service]},
        ))
        memo = {id(service): ({"service_id": "stale"}, '{"service_id":"stale"}')}
        assert record.to_line(memo) == oracle_line(record)

    def test_a_host_list_memo_entry_for_another_object_is_not_reused(self):
        hosts = ["host-a", "host-b"]
        record = TraceRecord(1.0, 2.0, "governor", "req-000", ProtocolMessage(
            MessageKind.DISCOVERY_REPLY, Role.GOVERNOR, "disc-1",
            {"results": [{"service": {"service_id": "svc-a"}, "hosts": hosts}]},
        ))
        memo = {id(hosts): (["host-stale"], '["host-stale"]')}
        assert record.to_line(memo) == oracle_line(record)

    def test_a_shared_discovery_payload_is_encoded_once_per_memo(self):
        payload = {"results": [{"service": {"service_id": "svc-a"}, "hosts": ["host-a"]}]}
        records = [
            TraceRecord(float(n), float(n) + 1, "governor", f"req-{n}", ProtocolMessage(
                MessageKind.DISCOVERY_REPLY, Role.GOVERNOR, f"disc-{n}", payload,
            ))
            for n in range(2)
        ]
        memo = {}
        assert [record.to_line(memo) for record in records] == [oracle_line(r) for r in records]
        assert memo[id(payload)] == (payload, '{"results":[{"hosts":["host-a"],"service":{"service_id":"svc-a"}}]}')
        # An entry whose object is another payload with the same id is not reused.
        memo = {id(payload): ({"results": []}, '{"results":[]}')}
        assert records[0].to_line(memo) == oracle_line(records[0])


class TestIndented:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_equals_json_dumps_with_indent(self, value):
        assert _indented(value) == json.dumps(value, sort_keys=True, indent=2)
