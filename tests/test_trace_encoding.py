"""The trace writer and the metrics writer against plain `json.dumps`,
and the trace reader against the writer.

`wire.trace_lines` builds each line in sorted key order and splices
the shared per-service dicts of discovery and listing replies, the
shared host lists of discovery replies, and whole discovery and listing
payloads that several replies share, from a memo; `MetricsReport.to_json_bytes`
indents without json's pure-Python encoder. Both encode through one kept
encoder (`wire.compact_json`), and `trace.log` is written in chunks of
lines. All must produce exactly what the straightforward encodings
produce, which the tests keep as their oracles. `wire.read_trace` is the
writer's exact inverse: what it reads, written again, is the same bytes.
"""
import json
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import composite_scenario, scenario_dict, written
from momcc import cli, wire
from momcc.engine import Simulation, _indented
from momcc.scenario import MODE_MARKETPLACE, MODE_WAN_CLOUD, load_scenario, scenario_from_dict
from momcc.wire import (
    MessageKind,
    ProtocolMessage,
    Role,
    TraceRecord,
    _line,
    _ms_text,
    compact_json,
    read_trace,
    trace_lines,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def oracle_line(record: TraceRecord) -> str:
    """The trace line as one `json.dumps` of the message plus routing keys."""
    msg = record.message
    return json.dumps({
        "kind": msg.kind.value,
        "sender_role": msg.sender_role.value,
        "correlation_id": msg.correlation_id,
        "payload": msg.payload,
        "ts": round(record.sent_at, 3),
        "tr": round(record.received_at, 3),
        "from": record.sender,
        "to": record.recipient,
    }, sort_keys=True, separators=(",", ":"))


# Times at the text guard (1e12) and at half-way points of the third place
# (`wire._ms_text`) as well as other awkward floats.
TIME_CASES = [999999999999.9995, 1e12, -1e12, 0.0005, math.nextafter(0.0005, 0), 123.4565]
AWKWARD_FLOATS = st.sampled_from(
    [0.0, -0.0, 0.1 + 0.2, 1e-7, 1e16, 123456.0005, 2.5e-308, 1e308] + TIME_CASES
)
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
    `shared_hosts` so records repeat them, or any JSON object.

    The JSON object is one of `shared`, not a fresh draw: fresh objects,
    one per record, were most of an example's generation time, and a
    shared one is as arbitrary."""
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
    return draw(pick)


@st.composite
def trace_records(draw):
    shared = draw(st.lists(json_objects, min_size=1, max_size=4))
    shared_hosts = draw(st.lists(st.one_of(host_ids, host_ids.map(tuple)), min_size=1, max_size=3))
    # Whole discovery and listing payloads, of either shape, that several
    # records carry.
    shared_replies = {
        kind: draw(st.lists(payloads(kind, shared, shared_hosts), min_size=1, max_size=2))
        for kind in (MessageKind.DISCOVERY_REPLY, MessageKind.LIST_SERVICES_REPLY)
    }
    # Agent ids that several records name, so a pass's kept id texts are reused.
    agent_ids = st.one_of(
        st.sampled_from(draw(st.lists(st.text(max_size=8), min_size=1, max_size=3))),
        st.text(max_size=8),
    )
    records = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(list(MessageKind)))
        if kind in shared_replies and draw(st.booleans()):
            payload = draw(st.sampled_from(shared_replies[kind]))
        else:
            payload = draw(payloads(kind, shared, shared_hosts))
        message = ProtocolMessage(
            kind=kind,
            sender_role=draw(st.sampled_from(list(Role))),
            correlation_id=draw(st.text(min_size=1, max_size=10)),
            payload=payload,
        )
        records.append(TraceRecord(draw(finite), draw(finite), draw(agent_ids),
                                   draw(agent_ids), message))
    return records


class TestTraceLine:
    @settings(max_examples=200, deadline=None)
    @given(trace_records())
    def test_line_equals_one_json_dumps_of_the_record(self, records):
        expected = [oracle_line(record) for record in records]
        assert list(trace_lines(records)) == expected
        assert [_line(record, {}, {}) for record in records] == expected

    def test_memo_is_keyed_by_the_object_not_only_its_id(self):
        """An entry whose object is another one with the same id is not reused."""
        service = {"service_id": "svc-a"}
        record = TraceRecord(1.0, 2.0, "governor", "req-000", ProtocolMessage(
            MessageKind.LIST_SERVICES_REPLY, Role.GOVERNOR, "list-1", {"services": [service]},
        ))
        memo = {id(service): ({"service_id": "stale"}, '{"service_id":"stale"}')}
        assert _line(record, memo, {}) == oracle_line(record)

    def test_a_host_list_memo_entry_for_another_object_is_not_reused(self):
        hosts = ["host-a", "host-b"]
        record = TraceRecord(1.0, 2.0, "governor", "req-000", ProtocolMessage(
            MessageKind.DISCOVERY_REPLY, Role.GOVERNOR, "disc-1",
            {"results": [{"service": {"service_id": "svc-a"}, "hosts": hosts}]},
        ))
        memo = {id(hosts): (["host-stale"], '["host-stale"]')}
        assert _line(record, memo, {}) == oracle_line(record)

    def test_a_shared_discovery_payload_is_encoded_once_per_memo(self):
        payload = {"results": [{"service": {"service_id": "svc-a"}, "hosts": ["host-a"]}]}
        records = [
            TraceRecord(float(n), float(n) + 1, "governor", f"req-{n}", ProtocolMessage(
                MessageKind.DISCOVERY_REPLY, Role.GOVERNOR, f"disc-{n}", payload,
            ))
            for n in range(2)
        ]
        memo = {}
        assert [_line(record, memo, {}) for record in records] == [oracle_line(r) for r in records]
        assert memo[id(payload)] == (payload, '{"results":[{"hosts":["host-a"],"service":{"service_id":"svc-a"}}]}')
        # An entry whose object is another payload with the same id is not reused.
        memo = {id(payload): ({"results": []}, '{"results":[]}')}
        assert _line(records[0], memo, {}) == oracle_line(records[0])

    def test_a_shared_listing_payload_is_encoded_once_per_memo(self):
        payload = {"services": [{"service_id": "svc-a"}, {"service_id": "svc-b"}]}
        records = [
            TraceRecord(float(n), float(n) + 1, "governor", f"host-{n}", ProtocolMessage(
                MessageKind.LIST_SERVICES_REPLY, Role.GOVERNOR, f"list-{n}", payload,
            ))
            for n in range(2)
        ]
        memo = {}
        assert [_line(record, memo, {}) for record in records] == [oracle_line(r) for r in records]
        assert memo[id(payload)] == (payload, '{"services":[{"service_id":"svc-a"},{"service_id":"svc-b"}]}')
        # An entry whose object is another payload with the same id is not reused.
        memo = {id(payload): ({"services": []}, '{"services":[]}')}
        assert _line(records[0], memo, {}) == oracle_line(records[0])


class TestTimeText:
    """`_ms_text` writes a time as `repr(round(ms, 3))` does."""

    @settings(max_examples=1000, deadline=None)
    @given(st.one_of(st.floats(), AWKWARD_FLOATS))
    def test_equals_repr_of_round_for_every_float(self, ms):
        assert _ms_text(ms) == repr(round(ms, 3))

    @pytest.mark.parametrize("ms", TIME_CASES + [
        0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf, 3.0, 12.5, 0.001, -0.0004,
        math.nextafter(1e12, 0), math.nextafter(-1e12, 0), 1.2e14, 1e300,
    ])
    def test_guard_half_way_and_special_values(self, ms):
        assert _ms_text(ms) == repr(round(ms, 3))


class TestIndented:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_equals_json_dumps_with_indent(self, value):
        assert _indented(value) == json.dumps(value, sort_keys=True, indent=2)


def compact_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class TestCompact:
    @settings(max_examples=200, deadline=None)
    @given(json_values)
    def test_equals_json_dumps(self, value):
        assert compact_json(value) == compact_dumps(value)

    @pytest.mark.parametrize("value", [
        "", "é€😀\"\\\n", 0.1 + 0.2, -0.0, 1e16, math.nan, math.inf, -math.inf, None, True, 7,
    ])
    def test_a_top_level_scalar_equals_json_dumps(self, value):
        assert compact_json(value) == json.dumps(value)

    def test_without_the_accelerator_it_is_json_encoder_encode(self, monkeypatch):
        monkeypatch.setattr(wire, "c_make_encoder", None)
        compact = wire._compact_encoder()
        value = {"b": [1.5, "é", None], "a": {"z": math.nan}}
        assert compact.__self__.__class__ is json.JSONEncoder
        assert compact(value) == compact_json(value) == compact_dumps(value)

    def test_an_unencodable_payload_raises_and_the_next_record_still_encodes(self):
        """The encoder is kept for the whole process, so a failed encode
        must leave nothing behind: encoding the same payload again fails
        the same way, and once fixed it encodes."""
        payload = {"ok": {"n": 1}, "bad": {1}}
        failing, fixed = (
            TraceRecord(float(n), float(n) + 1, "req-000", "governor", ProtocolMessage(
                MessageKind.RATE_SERVICE, Role.REQUESTER, f"rate-{n}", payload,
            ))
            for n in range(2)
        )
        memo = {}
        for _ in range(2):
            with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
                _line(failing, memo, {})
        del payload["bad"]
        assert _line(fixed, memo, {}) == oracle_line(fixed)


class TestTraceFile:
    """`_write_outputs` writes `trace.log` in chunks of whole lines."""

    @pytest.mark.parametrize("chunk_chars", [1, 300, wire.TRACE_CHUNK_CHARS])
    def test_trace_log_is_the_oracle_lines_whatever_the_chunk_size(
        self, chunk_chars, monkeypatch, tmp_path
    ):
        result = Simulation(scenario_from_dict(scenario_dict(seed=3))).run()
        monkeypatch.setattr(wire, "TRACE_CHUNK_CHARS", chunk_chars)
        cli._write_outputs(result, tmp_path)
        expected = "".join(oracle_line(record) + "\n" for record in result.trace)
        assert (tmp_path / "trace.log").read_bytes() == expected.encode("utf-8")

    def test_an_empty_trace_writes_an_empty_file(self, tmp_path):
        result = Simulation(scenario_from_dict(scenario_dict(seed=3, requesters=[], hosts=[]))).run()
        assert result.trace == []
        cli._write_outputs(result, tmp_path)
        assert (tmp_path / "trace.log").read_bytes() == b""


def _bundled_runs():
    runs = {}
    for name in ("default.json", "composite.json"):
        for mode in (MODE_MARKETPLACE, MODE_WAN_CLOUD):
            runs[f"{name}-{mode}"] = lambda name=name, mode=mode: replace(
                load_scenario(SCENARIOS / name), baseline_mode=mode)
    runs["composite-parallel"] = lambda: scenario_from_dict(composite_scenario(parallel=True))
    return runs


BUNDLED_RUNS = _bundled_runs()


class TestReadBack:
    """`read_trace` then `write_trace` gives back the very bytes."""

    @pytest.mark.parametrize("case", sorted(BUNDLED_RUNS))
    def test_a_runs_trace_log_reads_back_byte_for_byte(self, case, tmp_path):
        result = Simulation(BUNDLED_RUNS[case]()).run()
        cli._write_outputs(result, tmp_path)
        data = (tmp_path / "trace.log").read_bytes()
        records = list(read_trace(data))
        assert written(records) == data
        assert len(records) == len(result.trace) > 0
        for back, sent in zip(records, result.trace):
            assert (back.sender, back.recipient) == (sent.sender, sent.recipient)
            assert back.sent_at == round(sent.sent_at, 3)
            assert back.received_at == round(sent.received_at, 3)
            assert back.message.kind is sent.message.kind
            assert back.message.sender_role is sent.message.sender_role
            assert back.message.correlation_id == sent.message.correlation_id

    @settings(max_examples=200, deadline=None)
    @given(trace_records())
    def test_any_written_trace_reads_back_byte_for_byte(self, records):
        data = written(records)
        back = list(read_trace(data))
        assert written(back) == data
        for record, sent in zip(back, records):
            assert record.sent_at == round(sent.sent_at, 3)
            assert record.received_at == round(sent.received_at, 3)
            assert (record.sender, record.recipient) == (sent.sender, sent.recipient)

    def test_an_empty_trace_reads_back_as_no_records(self):
        assert list(read_trace(b"")) == []
