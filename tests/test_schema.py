"""Scenario checking by the schema compiled into plain checks.

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

from conftest import scenario_dict
from momcc.scenario import SCENARIO_SCHEMA, schema_diagnostics, validate_scenario
from momcc.schema import compile_schema

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


def reference_diagnostics(document) -> list[str]:
    """The diagnostics momcc printed when jsonschema checked its scenarios."""
    errors = sorted(REFERENCE.iter_errors(document), key=lambda e: list(e.absolute_path))
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
                document = json.loads(text)
                *parents, last = path
                parent = document
                for key in parents:
                    parent = parent[key]
                if value is DELETE:
                    del parent[last]
                else:
                    parent[last] = copy.deepcopy(value)
                if schema_diagnostics(document) != reference_diagnostics(document):
                    mismatched.append((path, value))
        assert mismatched == []

    @pytest.mark.parametrize("base", range(len(BASES)))
    def test_every_base_document_is_valid(self, base):
        document = json.loads(BASES[base])
        assert reference_diagnostics(document) == []
        assert validate_scenario(document) == []


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
        {"type": ["string", "null"]},
    ])
    def test_a_keyword_it_does_not_implement_is_refused(self, schema):
        with pytest.raises(ValueError, match="unsupported schema"):
            compile_schema(schema)


def test_importing_the_command_line_leaves_jsonschema_unloaded():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run(
        [sys.executable, "-c", "import sys, momcc.cli; print('jsonschema' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert done.stdout == "False\n"
