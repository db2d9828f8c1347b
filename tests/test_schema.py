"""Scenario and state file checking by schemas compiled into plain checks.

jsonschema is kept here only, as the reference the compiled checks are
compared against. Its Draft 2020-12 type checker is extended with
momcc's two stricter types: an integer is a JSON integer, not `512.0`,
and a number is finite, not NaN or an infinity.
"""
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_service, scenario_dict
from momcc.domain import ExecutionReport, Outcome, ResourceVector
from momcc.engine import run_scenario
from momcc.errors import SnapshotIntegrityError
from momcc.governor.journal import ENTRY_SCHEMAS, REPLAYED, encode_entry
from momcc.scenario import (
    MODE_MARKETPLACE,
    MODE_WAN_CLOUD,
    SCENARIO_SCHEMA,
    scenario_from_dict,
    schema_diagnostics,
    validate_scenario,
)
from momcc.schema import compile_schema
from momcc.snapshot import _digest, restore_governor, snapshot_governor
from momcc.wire import REPORT_SCHEMA

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.workloads import scenario_json  # noqa: E402


def _is_integer(checker, value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(checker, value) -> bool:
    if isinstance(value, float):
        return math.isfinite(value)
    return _is_integer(checker, value)


Reference = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=jsonschema.Draft202012Validator.TYPE_CHECKER.redefine_many(
        {"integer": _is_integer, "number": _is_number}
    ),
)
REFERENCE = Reference(SCENARIO_SCHEMA)


def reference_diagnostics(document, reference=REFERENCE) -> list[str]:
    """The diagnostics momcc printed when jsonschema checked its scenarios."""
    errors = sorted(reference.iter_errors(document), key=lambda e: list(e.absolute_path))
    return [
        f"{'/' + '/'.join(str(p) for p in e.absolute_path) if e.absolute_path else '/'}: {e.message}"
        for e in errors
    ]


# A scenario with every optional section, so that each rule has a value to break.
EVERY_SECTION = scenario_dict(policies={
    "billing": {"governor_commission": 0.1},
    "trust": {"alpha": 0.2, "promote_medium": [0.4, 5], "promote_high": [0.7, 15],
              "hysteresis": 0.05, "rating_weight": 0.3},
    "profiler": {"failure_threshold": 0.5, "window": 7, "sweep_interval_hours": 0.5},
    "registry": {"footprint_ceiling": {"cpu": 600, "memory": 8, "storage": 8, "energy": 600}},
    "assessment_weights": [0.5, 0.3, 0.2],
})
EVERY_SECTION["services"][0].update(input_spec="bytes", output_spec="bytes", binding_method="local-call")
EVERY_SECTION["hosts"][0]["identity_verified"] = True

BASES = [
    json.dumps(EVERY_SECTION),
    (ROOT / "scenarios" / "default.json").read_text(encoding="utf-8"),
    (ROOT / "scenarios" / "composite.json").read_text(encoding="utf-8"),
    scenario_json("market_long", 11),
]

AWKWARD = [
    None, True, False, 0, -1, 1, 1.0, 1.5, 512.0, 2**64,
    float("nan"), float("inf"), float("-inf"),
    "", "x", [], [1.0, 2], {}, {"cpu": 1},
    "4", "v4", "4.", "4.0.0.0", "4..0", " 4.0", "4.0\n", "Low",
]


DELETE = object()
# A value at or beyond each kind of rule: a type, a bound, a length, the pattern.
EDGES = [DELETE, None, True, 0, -1, 1.5, 512.0, float("nan"), float("-inf"),
         "", "4.", [], {"cpu": 1}]


def edited(document, path: tuple, value):
    """`document` with the place at `path` deleted (`DELETE`) or set to a
    copy of `value`, in place."""
    *parents, last = path
    parent = document
    for key in parents:
        parent = parent[key]
    if value is DELETE:
        del parent[last]
    else:
        parent[last] = copy.deepcopy(value)
    return document


def paths(value, path=()):
    """Every place in a document, the whole of it first."""
    yield path
    if isinstance(value, dict):
        for key, item in value.items():
            yield from paths(item, path + (key,))
    elif isinstance(value, list):
        for index, item in enumerate(value):
            yield from paths(item, path + (index,))


@st.composite
def mutated_documents(draw):
    document = json.loads(draw(st.sampled_from(BASES)))
    for _ in range(draw(st.integers(1, 4))):
        path = draw(st.sampled_from(list(paths(document))))
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        value = copy.deepcopy(draw(st.sampled_from(AWKWARD)))
        if not path:
            document = value if action == "replace" else document
            continue
        *parents, last = path
        parent = document
        for key in parents:
            parent = parent[key]
        target = parent[last]
        if action == "replace":
            parent[last] = value
        elif action == "delete":
            del parent[last]
        elif isinstance(target, dict):
            keys = st.lists(st.sampled_from(["unknown", "count", "cpu", "seed", "Zz"]),
                            min_size=1, max_size=3, unique=True)
            target.update(dict.fromkeys(draw(keys), value))
        elif isinstance(target, list):
            target.append(value)
    return document


class TestAgainstJsonschema:
    @settings(max_examples=100, deadline=None)
    @given(mutated_documents())
    def test_diagnostics_equal_the_reference_lists(self, document):
        expected = reference_diagnostics(document)
        assert schema_diagnostics(document) == expected
        if expected:
            assert validate_scenario(document) == expected

    def test_each_awkward_value_in_each_place_of_every_section(self):
        """Exhaustive where the random test samples: each place of the
        every-section scenario deleted, or replaced by each awkward value."""
        text = json.dumps(EVERY_SECTION)
        mismatched = []
        for path in list(paths(EVERY_SECTION))[1:]:
            for value in EDGES:
                document = edited(json.loads(text), path, value)
                if schema_diagnostics(document) != reference_diagnostics(document):
                    mismatched.append((path, value))
        assert mismatched == []

    @pytest.mark.parametrize("base", range(len(BASES)))
    def test_every_base_document_is_valid(self, base):
        document = json.loads(BASES[base])
        assert reference_diagnostics(document) == []
        assert validate_scenario(document) == []


# One saved entry per call a journal replays, as a state file holds it;
# the report twice, a success with a rating and a failure without one.
SAVED_ENTRIES = [encode_entry(call) for call in (
    ("billing.negotiate_developer", "dev-alpha", 1000, 0.4),
    ("registry.register_service", make_service(dependencies=("svc-a",)), True),
    ("hosts.register_host", "host-000", "Android", "4.0", ResourceVector(2048, 32, 64, 1500), 20000),
    ("hosts.request_hosting", "host-000", "svc-resize", False, 12.5),
    ("hosts.unhost", "host-000", "svc-resize"),
    ("hosts.mark_departed", "host-000"),
    ("hosts.ingest_report", ExecutionReport("rep-1", "host-000", "svc-resize", "anon-1", 3.0, 9.5, 40,
                                            Outcome.success(), 4)),
    ("hosts.ingest_report", ExecutionReport("rep-2", "host-000", "svc-resize", "anon-2", 4.0, 1.5, 0,
                                            Outcome.failure("fault"))),
    ("profiler.substitution_sweep",),
    ("profiler.report_malfunction", "svc-resize", "stalls", 3.0),
    ("preprovision_host", "cloud-host", ("svc-resize", "svc-a"), True, 0.0),
)]


class TestSavedRecordsAgainstJsonschema:
    """A state file's schemas word every refusal as jsonschema does: each
    journal entry's schema, and the report's on its own."""

    def test_the_samples_hold_every_replayed_call(self):
        assert {entry[0] for entry in SAVED_ENTRIES} == REPLAYED.keys()

    @pytest.mark.parametrize("entry", SAVED_ENTRIES, ids=lambda entry: entry[0])
    def test_each_awkward_value_in_each_place_of_each_entry(self, entry):
        schema = ENTRY_SCHEMAS[entry[0]]
        compiled, reference = compile_schema(schema), Reference(schema)
        text = json.dumps(entry)
        mismatched = []
        assert compiled(entry) == reference_diagnostics(entry, reference) == []
        for path in list(paths(entry))[1:]:
            for value in [*EDGES, "x", [1.0, 2], {"cpu": 1, "Zz": 2}]:
                document = edited(json.loads(text), path, value)
                if compiled(document) != reference_diagnostics(document, reference):
                    mismatched.append((path, value))
        longer = json.loads(text) + [None]
        assert compiled(longer) == reference_diagnostics(longer, reference) != []
        assert mismatched == []

    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from([entry[1] for entry in SAVED_ENTRIES if entry[0] == "hosts.ingest_report"]),
           st.dictionaries(st.sampled_from(["ok", "rating", "failure_reason", "energy_used_mwh", "extra"]),
                           st.sampled_from(AWKWARD), max_size=3))
    def test_the_report_schema_words_as_the_reference(self, report, changes):
        document = {**report, **copy.deepcopy(changes)}
        assert compile_schema(REPORT_SCHEMA)(document) == reference_diagnostics(document, Reference(REPORT_SCHEMA))

    @pytest.mark.parametrize("schema", [
        {"type": "null"},
        {"type": ["string", "null"]},
        {"type": ["integer", "null"], "minimum": 1},
        {"type": ["number", "boolean", "null"]},
        {"type": ["null", "array"], "minItems": 1},
        {"enum": [None, "Low"]},
        {"const": None},
    ])
    def test_type_lists_and_null_word_as_the_reference(self, schema):
        compiled, reference = compile_schema(schema), Reference(schema)
        for value in [*AWKWARD, [None], {"a": None}]:
            assert compiled(value) == reference_diagnostics(value, reference), value


# The journal argument each scenario place supplies: the call, and where
# in its saved entry the place's value is.
_NEGOTIATED = {"developer_id": 1, "price_per_invocation": 2, "developer_share": 3}
_HOST_ARGUMENTS = {
    "platform_os": ("hosts.register_host", 2),
    "platform_version": ("hosts.register_host", 3),
    "capacity": ("hosts.register_host", 4),
    "battery_mwh": ("hosts.register_host", 5),
    "identity_verified": ("hosts.request_hosting", 3),
}


def journal_places(path: tuple):
    section, _, key, *inner = path
    if section == "services":
        yield "registry.register_service", (1, key, *inner)
        if key in _NEGOTIATED:
            yield "billing.negotiate_developer", (_NEGOTIATED[key], *inner)
    elif section == "hosts" and key in _HOST_ARGUMENTS:
        call, index = _HOST_ARGUMENTS[key]
        yield call, (index, *inner)


def test_each_value_that_breaks_a_scenario_field_breaks_its_saved_argument():
    """The two JSON doors apply one rule per field: each value that breaks
    a place of the every-section scenario (as the exhaustive test above
    places it) is refused by `validate` and, put in the saved argument
    that place supplies, by a restore at that entry, in the same words."""
    governor = run_scenario(scenario_from_dict(scenario_dict(seed=3, duration_hours=1.0))).governor
    saved = json.dumps(snapshot_governor(governor))
    first: dict[str, int] = {}
    for index, entry in enumerate(json.loads(saved)["payload"]["journal"]):
        first.setdefault(entry[0], index)
    scenario_text = json.dumps(EVERY_SECTION)
    compared = 0
    for path in list(paths(EVERY_SECTION))[1:]:
        if len(path) < 3:
            continue
        for call, place in journal_places(path):
            for value in EDGES:
                lines = validate_scenario(edited(json.loads(scenario_text), path, value))
                if not lines:
                    continue
                snap = json.loads(saved)
                index = first[call]
                edited(snap["payload"]["journal"][index], place, value)
                snap["sha256"] = _digest(snap["payload"])
                with pytest.raises(SnapshotIntegrityError) as err:
                    restore_governor(snap)
                refusal = f"snapshot journal entry {index} does not replay: "
                assert str(err.value).startswith(refusal + "/"), (path, value, str(err.value))
                if value is DELETE and len(place) == 1:
                    continue  # a deleted argument shortens the entry: another refusal
                restored = str(err.value)[len(refusal):].split("; ")
                assert [line.split(": ", 1)[1] for line in restored] == \
                    [line.split(": ", 1)[1] for line in lines], (path, value)
                compared += 1
    assert compared > 200, compared


class TestStricterTypes:
    @pytest.mark.parametrize("edit, expected", [
        (lambda d: d["hosts"][0]["capacity"].update(cpu=512.0),
         ["/hosts/0/capacity/cpu: 512.0 is not of type 'integer'"]),
        (lambda d: d["hosts"][0].update(count=-2.0),
         ["/hosts/0/count: -2.0 is not of type 'integer'",
          "/hosts/0/count: -2.0 is less than the minimum of 0"]),
        (lambda d: d.update(seed=True), ["/seed: True is not of type 'integer'"]),
        (lambda d: d.update(latency={"wlan_ms": [float("nan"), 30]}),
         ["/latency/wlan_ms/0: nan is not of type 'number'"]),
        (lambda d: d["hosts"][0].update(departure_rate=float("-inf")),
         ["/hosts/0/departure_rate: -inf is not of type 'number'"]),
        (lambda d: d.update(format_version=True), ["/format_version: 1 was expected"]),
        (lambda d: d.update(format_version=1.0), []),
    ], ids=["fractional-cpu", "fractional-negative-count", "bool-seed", "nan-latency",
            "infinite-rate", "bool-version", "float-version"])
    def test_integers_take_no_fraction_and_numbers_are_finite(self, edit, expected):
        data = scenario_dict()
        edit(data)
        assert validate_scenario(data) == expected


class TestCompiler:
    @pytest.mark.parametrize("schema", [
        {"type": "object", "oneOf": [{"required": ["a"]}]},
        {"type": "object", "properties": {"when": {"type": "string", "format": "date"}}},
        {"type": "array", "items": {"type": "integer", "multipleOf": 2}},
        {"type": "object", "additionalProperties": {"type": "string"}},
        {"type": ["string", "bytes"]},
        {"type": []},
    ])
    def test_a_keyword_it_does_not_implement_is_refused(self, schema):
        with pytest.raises(ValueError, match="unsupported schema"):
            compile_schema(schema)


@pytest.mark.parametrize("mode", [MODE_MARKETPLACE, MODE_WAN_CLOUD])
@pytest.mark.parametrize("name", ["default.json", "composite.json"])
def test_a_valid_document_never_takes_the_slow_path(monkeypatch, name, mode):
    """Every document a bundled run checks passes on the generated
    predicate alone: the scenario, each governor write's entry, each
    report at the endpoint, and each restored entry. A schema edit the
    predicate cannot tell valid would only cost time, so the walk fails
    the test instead."""
    def walk(schema, document, path, errors):
        pytest.fail(f"a valid document took the slow path: {document!r:.300}")

    monkeypatch.setattr("momcc.schema._walk", walk)
    data = json.loads((ROOT / "scenarios" / name).read_text(encoding="utf-8"))
    data["baseline_mode"] = mode
    governor = run_scenario(scenario_from_dict(data)).governor
    restored = restore_governor(json.loads(json.dumps(snapshot_governor(governor))))
    assert restored.journal == governor.journal


def test_importing_the_command_line_leaves_jsonschema_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, momcc.cli; print('jsonschema' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"
