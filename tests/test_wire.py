"""Codec round-trips, golden-file fidelity, and decoder robustness: the
requirements document and the trace reader."""
import json
import math
import random
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from conftest import written
from momcc.domain import PlatformRequirement, ResourceVector
from momcc.engine import run_scenario
from momcc.scenario import MODE_MARKETPLACE, MODE_WAN_CLOUD, load_scenario
from momcc.wire import (
    REPORT_KEYS,
    EnvelopeError,
    HostRequirementsMessage,
    MessageKind,
    Outbound,
    ProtocolMessage,
    RequirementsParseError,
    Role,
    TraceRecord,
    decode_requirements,
    encode_requirements,
    read_trace,
)

FIXTURES = Path(__file__).parent / "fixtures"
SCENARIOS = Path(__file__).parent.parent / "scenarios"

REFERENCE = HostRequirementsMessage(
    platform=PlatformRequirement("Android", "3.2"),
    min_resources=ResourceVector(512, 2, 5, 500),
)


class TestRequirementsEncode:
    def test_reference_document_fields(self):
        text = encode_requirements(REFERENCE).decode("utf-8")
        for token in ("<CPU>512</CPU>", "<Memory>2</Memory>",
                      "<Storage>5</Storage>", "<Energy>500</Energy>",
                      "<OS>Android</OS>", "<MinVersion>3.2</MinVersion>"):
            assert token in text

    def test_root_keeps_historical_spelling(self):
        text = encode_requirements(REFERENCE).decode("utf-8")
        assert "<HostRequirments>" in text
        assert "<HostRequirements>" not in text

    def test_zero_vector_is_valid(self):
        msg = HostRequirementsMessage(
            PlatformRequirement("Android", "1"), ResourceVector(0, 0, 0, 0)
        )
        text = encode_requirements(msg).decode("utf-8")
        assert "<CPU>0</CPU>" in text
        assert decode_requirements(encode_requirements(msg)) == msg

    def test_matches_golden_file_byte_for_byte(self):
        golden = (FIXTURES / "host_requirements_golden.xml").read_bytes()
        assert encode_requirements(REFERENCE) == golden

    def test_round_trip_identity_1000_random_messages(self):
        rng = random.Random(7)
        for _ in range(1000):
            msg = HostRequirementsMessage(
                platform=PlatformRequirement(
                    os_name=rng.choice(["Android", "Tizen", "HarmonyOS"]),
                    min_version=".".join(
                        str(rng.randint(0, 20)) for _ in range(rng.randint(1, 3))
                    ),
                ),
                min_resources=ResourceVector(
                    rng.randint(0, 4096), rng.randint(0, 256),
                    rng.randint(0, 512), rng.randint(0, 5000),
                ),
            )
            assert decode_requirements(encode_requirements(msg)) == msg


class TestRequirementsDecode:
    def test_decodes_verbatim_excerpt_with_elision_marker(self):
        data = (FIXTURES / "requirements_excerpt_verbatim.xml").read_bytes()
        assert decode_requirements(data) == REFERENCE

    def test_encode_of_decoded_excerpt_matches_golden(self):
        data = (FIXTURES / "requirements_excerpt_verbatim.xml").read_bytes()
        golden = (FIXTURES / "host_requirements_golden.xml").read_bytes()
        assert encode_requirements(decode_requirements(data)) == golden

    def test_accepts_corrected_root_spelling_alias(self):
        text = encode_requirements(REFERENCE).decode("utf-8")
        aliased = text.replace("HostRequirments", "HostRequirements")
        assert decode_requirements(aliased) == REFERENCE

    def test_tolerates_whitespace_and_reordering(self):
        doc = (
            "<HostRequirments>\n\n"
            "  <MinRequiredResources><Energy>500</Energy><CPU>512</CPU>"
            "<Memory>2</Memory><Storage>5</Storage></MinRequiredResources>"
            "  <Platform>  <MinVersion>3.2</MinVersion><OS>Android</OS></Platform>"
            "</HostRequirments>"
        )
        assert decode_requirements(doc) == REFERENCE

    def test_non_integer_memory_names_the_element(self):
        doc = encode_requirements(REFERENCE).decode("utf-8").replace(
            "<Memory>2</Memory>", "<Memory>two</Memory>"
        )
        with pytest.raises(RequirementsParseError) as err:
            decode_requirements(doc)
        assert err.value.element == "Memory"

    def test_missing_element_named(self):
        doc = encode_requirements(REFERENCE).decode("utf-8").replace(
            "<Storage>5</Storage>", ""
        )
        with pytest.raises(RequirementsParseError) as err:
            decode_requirements(doc)
        assert err.value.element == "Storage"

    def test_unknown_root_rejected(self):
        with pytest.raises(RequirementsParseError):
            decode_requirements("<Requirements><CPU>1</CPU></Requirements>")

    def test_negative_resource_rejected(self):
        doc = encode_requirements(REFERENCE).decode("utf-8").replace(
            "<CPU>512</CPU>", "<CPU>-5</CPU>"
        )
        with pytest.raises(RequirementsParseError) as err:
            decode_requirements(doc)
        assert err.value.element == "CPU"

    def test_mutation_fuzzing_never_crashes(self):
        """Random single-byte mutations either decode or raise the parse error."""
        rng = random.Random(2024)
        base = bytearray(encode_requirements(REFERENCE))
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                pos = rng.randrange(len(mutated))
                mutated[pos] = rng.randrange(256)
            try:
                decode_requirements(bytes(mutated))
            except RequirementsParseError:
                pass


def random_message(rng: random.Random) -> ProtocolMessage:
    payloads = [
        {},
        {"query": "image", "requester_pseudonym": f"anon-{rng.randint(0, 999):03d}"},
        {"host_id": "host-001", "service_id": "svc-1", "nested": {"ok": True, "n": rng.randint(0, 9)}},
        {"values": [1, 2.5, None, "x"], "flag": rng.random() < 0.5},
    ]
    return ProtocolMessage(
        kind=rng.choice(list(MessageKind)),
        sender_role=rng.choice(list(Role)),
        correlation_id=f"c-{rng.randint(1, 10**6)}",
        payload=rng.choice(payloads),
    )


def random_trace(rng: random.Random, count: int) -> list[TraceRecord]:
    records = []
    for _ in range(count):
        sent = rng.uniform(0.0, 1e7)
        records.append(TraceRecord(sent, sent + rng.uniform(0.5, 300.0), f"req-{rng.randint(0, 9):03d}",
                                   rng.choice(["governor", "host-001", "cloud-host"]), random_message(rng)))
    return records


VALID = {
    "correlation_id": "inv-9", "from": "req-000", "kind": "Invoke", "payload": {"service_id": "s"},
    "sender_role": "requester", "to": "host-001", "tr": 20.25, "ts": 1.5,
}


def line_of(**changes) -> bytes:
    """A trace line holding VALID with `changes`; a change to None drops the key."""
    obj = {key: value for key, value in {**VALID, **changes}.items() if value is not None}
    return (json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")


def refusal(data) -> str:
    with pytest.raises(EnvelopeError) as err:
        list(read_trace(data))
    return str(err.value)


class TestReadTrace:
    def test_a_valid_line_reads_back_with_its_routing_and_times(self):
        [record] = read_trace(line_of())
        assert (record.sender, record.recipient, record.sent_at, record.received_at) == (
            "req-000", "host-001", 1.5, 20.25)
        assert record.message == ProtocolMessage(MessageKind.INVOKE, Role.REQUESTER, "inv-9", {"service_id": "s"})
        assert written([record]) == line_of()

    def test_1000_random_messages_of_every_kind_read_back(self):
        records = random_trace(random.Random(31), 1000)
        assert {record.message.kind for record in records} == set(MessageKind)
        back = list(read_trace(written(records)))
        assert [record.message for record in back] == [record.message for record in records]
        assert [record.sent_at for record in back] == [round(record.sent_at, 3) for record in records]
        assert written(back) == written(records)

    def test_bytes_that_are_not_utf8_are_refused_with_their_line(self):
        assert refusal(b"\xff\n").startswith("line 1: not UTF-8")
        assert refusal(line_of() + b"\xff\n").startswith("line 2: not UTF-8")

    def test_a_missing_payload_is_refused(self):
        assert refusal(line_of(payload=None)) == "line 1: 'payload' is missing"

    def test_a_time_that_is_not_a_number_and_an_id_that_is_not_a_string_are_refused(self):
        assert "'from'" in refusal(line_of(ts="soon", **{"from": 7}))
        assert refusal(line_of(ts="soon")) == "line 1: 'ts' must be a float, got 'soon'"
        assert refusal(line_of(**{"from": 7})) == "line 1: 'from' must be a string, got 7"

    @pytest.mark.parametrize("changes, key", [
        ({"to": None}, "to"),
        ({"correlation_id": None}, "correlation_id"),
        ({"routing": "x"}, "routing"),
        ({"kind": "Teleport"}, "kind"),
        ({"kind": ["Invoke"]}, "kind"),
        ({"sender_role": "wizard"}, "sender_role"),
        ({"payload": ["service_id"]}, "payload"),
        ({"payload": "s"}, "payload"),
        ({"correlation_id": ""}, "correlation_id"),
        ({"correlation_id": 5}, "correlation_id"),
        ({"to": None, "routing": "x"}, "to"),
        ({"tr": True}, "tr"),
        ({"ts": False}, "ts"),
        ({"ts": 5}, "ts"),
        ({"tr": None, "tr_ms": 20.25}, "tr"),
    ])
    def test_a_line_the_writer_cannot_write_is_refused_naming_its_key(self, changes, key):
        message = refusal(line_of(**changes))
        assert message.startswith(f"line 1: {key!r} "), message

    def test_an_unknown_kind_is_named(self):
        assert "Teleport" in refusal(line_of(kind="Teleport"))

    @pytest.mark.parametrize("text, key", [
        ('"ts":1.5', '"ts":1.50'),
        ('"ts":1.5', '"ts":15e-1'),
        ('"tr":20.25', '"tr":20.250'),
        ('"correlation_id":"inv-9"', '"correlation_id":"inv-\\u0039"'),
        ('"correlation_id":"inv-9"', '"correlation_id":"inv-\u00e9"'),
        ('"payload":{"service_id":"s"}', '"payload":{"service_id": "s"}'),
        ('"payload":{"service_id":"s"}', '"payload":{"service_id":"s","a":1}'),
        ('"to":"host-001"', '"to" :"host-001"'),
    ])
    def test_a_value_not_in_the_writers_text_is_refused_naming_its_key(self, text, key):
        line = line_of().decode("utf-8")
        assert text in line
        changed = line.replace(text, key)
        name = text.split('"')[1]
        message = refusal(changed.encode("utf-8"))
        assert message.startswith(f"line 1: {name!r} is not as the writer writes it"), message

    def test_keys_out_of_order_are_refused(self):
        reordered = dict(reversed(VALID.items()))
        line = json.dumps(reordered, separators=(",", ":")).encode("utf-8") + b"\n"
        assert line != line_of()
        assert "is not as the writer writes it" in refusal(line)

    def test_a_blank_line_is_refused(self):
        assert refusal(b"\n") == "line 1: blank"
        assert refusal(line_of() + b"\n" + line_of()) == "line 2: blank"

    def test_a_last_line_without_its_newline_is_refused(self):
        assert refusal(line_of() + line_of()[:-1]) == "line 2: no newline at the end"
        assert refusal(line_of()[:-1]) == "line 1: no newline at the end"

    @pytest.mark.parametrize("line", [
        b"[1]\n", b"null\n", b"{\n", b'{"kind":"Invoke"} x\n', b"[" * 100_000 + b"]" * 100_000 + b"\n",
    ])
    def test_a_line_that_is_not_one_json_object_is_refused(self, line):
        assert refusal(line).startswith("line 1: not ")

    def test_a_truncated_trace_is_refused(self):
        data = written(random_trace(random.Random(5), 3))
        with pytest.raises(EnvelopeError):
            list(read_trace(data[: len(data) // 2]))

    def test_a_nan_time_writes_a_line_that_does_not_read_back(self):
        record = TraceRecord(math.nan, 1.0, "req-000", "governor",
                             ProtocolMessage(MessageKind.INVOKE, Role.REQUESTER, "inv-1", {}))
        assert refusal(written([record])).startswith("line 1: not JSON")

    def test_mutated_traces_read_back_exactly_or_are_refused(self):
        """Random byte changes to a written trace either read back to a
        trace the writer writes as the same bytes, or raise `EnvelopeError`."""
        rng = random.Random(2024)
        base = written(random_trace(rng, 4))
        for _ in range(500):
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 3)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            try:
                records = list(read_trace(bytes(mutated)))
            except EnvelopeError:
                continue
            assert written(records) == bytes(mutated)

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=4))
    def test_any_payload_reads_back(self, payload):
        record = TraceRecord(1.0, 2.0, "req-000", "governor",
                             ProtocolMessage(MessageKind.DISCOVERY_QUERY, Role.REQUESTER, "q-1", payload))
        [back] = read_trace(written([record]))
        assert back.message == record.message


class TestRecords:
    """Every hop builds a `ProtocolMessage`, an `Outbound` and a
    `TraceRecord`; each is slotted, and a message still needs its
    correlation id."""

    def test_hop_records_have_no_instance_dict(self):
        msg = ProtocolMessage(MessageKind.INVOKE, Role.REQUESTER, "inv-1", {})
        records = [msg, Outbound("host-000", "wlan", msg), TraceRecord(1.0, 2.0, "req-000", "host-000", msg)]
        for record in records:
            assert not hasattr(record, "__dict__"), type(record).__name__

    def test_an_empty_correlation_id_is_refused(self):
        with pytest.raises(ValueError, match="correlation_id"):
            ProtocolMessage(MessageKind.INVOKE, Role.REQUESTER, "", {})


@pytest.mark.parametrize("mode", [MODE_MARKETPLACE, MODE_WAN_CLOUD])
@pytest.mark.parametrize("name", ["default.json", "composite.json"])
def test_a_run_sends_every_report_in_the_saved_form_without_its_rating(name, mode):
    """Hosts send reports as `report_dict` writes them, and a state file
    saves one as `report_to_dict` does: the same keys, plus `rating`."""
    trace = run_scenario(replace(load_scenario(SCENARIOS / name), baseline_mode=mode)).trace
    payloads = [r.message.payload for r in trace if r.message.kind is MessageKind.EXECUTION_REPORT]
    assert payloads
    assert all(payload.keys() == REPORT_KEYS - {"rating"} for payload in payloads)
