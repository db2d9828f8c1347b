"""Codec round-trips, golden-file fidelity, and decoder robustness."""
import random
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from momcc.domain import PlatformRequirement, ResourceVector
from momcc.engine import TraceRecord
from momcc.wire import (
    EnvelopeError,
    HostRequirementsMessage,
    MessageKind,
    Outbound,
    ProtocolMessage,
    RequirementsParseError,
    Role,
    decode_envelope,
    decode_requirements,
    encode_envelope,
    encode_requirements,
    iter_envelopes,
)

FIXTURES = Path(__file__).parent / "fixtures"

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


class TestEnvelope:
    def test_list_services_request_round_trips(self):
        msg = ProtocolMessage(
            kind=MessageKind.LIST_SERVICES_REQUEST,
            sender_role=Role.HOST,
            correlation_id="list-000001",
            payload={"host_id": "host-000"},
        )
        assert decode_envelope(encode_envelope(msg)) == msg

    def test_truncated_record_is_an_error(self):
        data = encode_envelope(ProtocolMessage(
            kind=MessageKind.INVOKE, sender_role=Role.REQUESTER,
            correlation_id="inv-1", payload={"service_id": "s"},
        ))
        with pytest.raises(EnvelopeError):
            decode_envelope(data[: len(data) // 2])

    def test_unknown_kind_rejected(self):
        line = '{"kind":"Teleport","sender_role":"host","correlation_id":"x","payload":{}}'
        with pytest.raises(EnvelopeError) as err:
            decode_envelope(line)
        assert "Teleport" in str(err.value)

    def test_unknown_role_rejected(self):
        line = '{"kind":"Invoke","sender_role":"wizard","correlation_id":"x","payload":{}}'
        with pytest.raises(EnvelopeError):
            decode_envelope(line)

    def test_missing_correlation_rejected(self):
        line = '{"kind":"Invoke","sender_role":"host","payload":{}}'
        with pytest.raises(EnvelopeError):
            decode_envelope(line)

    def test_extra_top_level_keys_ignored(self):
        # Trace dumps extend records with routing metadata.
        line = ('{"kind":"Invoke","sender_role":"requester","correlation_id":"inv-9",'
                '"payload":{"service_id":"s"},"ts":1.5,"tr":20.25,"from":"req-000","to":"host-001"}')
        msg = decode_envelope(line)
        assert msg.kind == MessageKind.INVOKE
        assert msg.payload == {"service_id": "s"}

    def test_round_trip_1000_random_messages_all_kinds(self):
        rng = random.Random(31)
        seen_kinds = set()
        for _ in range(1000):
            msg = random_message(rng)
            seen_kinds.add(msg.kind)
            assert decode_envelope(encode_envelope(msg)) == msg
        assert seen_kinds == set(MessageKind)

    def test_stream_iteration(self):
        rng = random.Random(5)
        messages = [random_message(rng) for _ in range(20)]
        blob = b"".join(encode_envelope(m) for m in messages)
        assert list(iter_envelopes(blob)) == messages

    @given(st.dictionaries(st.text(max_size=8), st.integers(), max_size=4))
    def test_envelope_round_trip_property(self, payload):
        msg = ProtocolMessage(
            kind=MessageKind.DISCOVERY_QUERY,
            sender_role=Role.REQUESTER,
            correlation_id="q-1",
            payload=payload,
        )
        assert decode_envelope(encode_envelope(msg)) == msg


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
