"""Scenario files: the JSON description of one simulated marketplace.

A scenario section is built into its config dataclass by field name
(the schema admits no other keys), so each built-in default lives only
in its dataclass: the agent configs in `agents`, the governor's configs
in `governor`, and `LatencyModel` and `Scenario` here. Precedence is
always: command-line flags over scenario file over these built-ins.

Schema sketch (all money in integer minor units, rates per hour):

    {
      "format_version": 1,
      "seed": 42,
      "duration_hours": 2.0,
      "baseline_mode": "momcc",              # or "wan_cloud"
      "latency": {"wlan_ms": [5, 30], "wan_ms": [100, 300],
                  "governor_ms": [20, 60]},
      "exec_ms": [5, 25],
      "services": [...],
      "hosts": [{"count": 4, ...}],
      "requesters": [{"count": 2, ...}],
      "aggregators": [{"count": 1, ...}],    # optional
      "policies": {...}                      # optional overrides
    }

Validation reports every violation at once, each prefixed with a
JSON-pointer-style path into the document.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import jsonschema

from .agents import (
    GREEDINESS_STRATEGIES,
    AggregatorConfig,
    HostAgentConfig,
    RequesterAgentConfig,
)
from .domain import ResourceVector, ServiceDescription
from .errors import NegotiationRejected
from .governor import GovernorConfig, ProfilerPolicy, TrustPolicy
from .governor.billing import check_developer_share
from .governor.registry import service_from_dict

FORMAT_VERSION = 1

MODE_MARKETPLACE = "momcc"
MODE_WAN_CLOUD = "wan_cloud"


@dataclass(frozen=True)
class LatencyModel:
    """Transport delay ranges (ms, uniform) for the three message classes."""

    wlan_ms: tuple[float, float] = (5.0, 30.0)
    wan_ms: tuple[float, float] = (100.0, 300.0)
    governor_ms: tuple[float, float] = (20.0, 60.0)

    def range_for(self, latency_class: str) -> tuple[float, float]:
        return {
            "wlan": self.wlan_ms,
            "wan": self.wan_ms,
            "governor": self.governor_ms,
        }[latency_class]


@dataclass(frozen=True)
class PopulationEntry:
    count: int
    config: object


@dataclass(frozen=True)
class Scenario:
    seed: int
    duration_hours: float
    latency: LatencyModel
    services: tuple[ServiceDescription, ...]
    hosts: tuple[PopulationEntry, ...]
    requesters: tuple[PopulationEntry, ...]
    aggregators: tuple[PopulationEntry, ...]
    governor_config: GovernorConfig
    baseline_mode: str = MODE_MARKETPLACE
    exec_ms: tuple[float, float] = (5.0, 25.0)
    sweep_interval_hours: float = 1.0

    @property
    def duration_ms(self) -> float:
        return self.duration_hours * 3_600_000.0


_RANGE = {
    "type": "array",
    "items": {"type": "number", "minimum": 0},
    "minItems": 2,
    "maxItems": 2,
}

_RESOURCES = {
    "type": "object",
    "properties": {
        "cpu": {"type": "integer", "minimum": 0},
        "memory": {"type": "integer", "minimum": 0},
        "storage": {"type": "integer", "minimum": 0},
        "energy": {"type": "integer", "minimum": 0},
    },
    "required": ["cpu", "memory", "storage", "energy"],
    "additionalProperties": False,
}

_SERVICE = {
    "type": "object",
    "properties": {
        "service_id": {"type": "string", "minLength": 1},
        "developer_id": {"type": "string", "minLength": 1},
        "name": {"type": "string", "minLength": 1},
        "description": {"type": "string"},
        "functionality_tag": {"type": "string", "minLength": 1},
        "input_spec": {"type": "string"},
        "output_spec": {"type": "string"},
        "binding_method": {"type": "string"},
        "security_level": {"enum": ["Low", "Medium", "High"]},
        "platform": {
            "type": "object",
            "properties": {
                "os_name": {"type": "string", "minLength": 1},
                "min_version": {"type": "string", "pattern": r"^\d+(\.\d+){0,2}$"},
            },
            "required": ["os_name", "min_version"],
            "additionalProperties": False,
        },
        "min_resources": _RESOURCES,
        "price_per_invocation": {"type": "integer", "minimum": 0},
        "developer_share": {"type": "number", "minimum": 0, "maximum": 1},
        "dependencies": {"type": "array", "items": {"type": "string"}},
    },
    "required": [
        "service_id", "developer_id", "name", "functionality_tag",
        "security_level", "platform", "min_resources",
        "price_per_invocation", "developer_share",
    ],
    "additionalProperties": False,
}

_HOST = {
    "type": "object",
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "capacity": _RESOURCES,
        "battery_mwh": {"type": "integer", "minimum": 0},
        "platform_os": {"type": "string", "minLength": 1},
        "platform_version": {"type": "string", "pattern": r"^\d+(\.\d+){0,2}$"},
        "greediness": {"enum": list(GREEDINESS_STRATEGIES)},
        "departure_rate": {"type": "number", "minimum": 0},
        "failure_prob": {"type": "number", "minimum": 0, "maximum": 1},
        "identity_verified": {"type": "boolean"},
    },
    "required": ["count", "capacity", "battery_mwh", "platform_os", "platform_version"],
    "additionalProperties": False,
}

_REQUESTER = {
    "type": "object",
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "demand_rate": {"type": "number", "minimum": 0},
        "query_pool": {"type": "array", "items": {"type": "string", "minLength": 1}, "minItems": 1},
        "rating_bias": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 5,
            "maxItems": 5,
        },
        "rating_prob": {"type": "number", "minimum": 0, "maximum": 1},
    },
    "required": ["count", "demand_rate", "query_pool"],
    "additionalProperties": False,
}

_AGGREGATOR = {
    "type": "object",
    "properties": {
        "count": {"type": "integer", "minimum": 0},
        "composite_service_id": {"type": "string", "minLength": 1},
        "capacity": _RESOURCES,
        "battery_mwh": {"type": "integer", "minimum": 0},
        "platform_os": {"type": "string", "minLength": 1},
        "platform_version": {"type": "string", "pattern": r"^\d+(\.\d+){0,2}$"},
        "failure_prob": {"type": "number", "minimum": 0, "maximum": 1},
        "identity_verified": {"type": "boolean"},
        "parallel_dependencies": {"type": "boolean"},
    },
    "required": ["count", "composite_service_id", "capacity", "battery_mwh",
                 "platform_os", "platform_version"],
    "additionalProperties": False,
}

_POLICIES = {
    "type": "object",
    "properties": {
        "trust": {
            "type": "object",
            "properties": {
                "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
                "promote_medium": {
                    "type": "array",
                    "prefixItems": [
                        {"type": "number", "minimum": 0, "maximum": 1},
                        {"type": "integer", "minimum": 0},
                    ],
                    "minItems": 2, "maxItems": 2,
                },
                "promote_high": {
                    "type": "array",
                    "prefixItems": [
                        {"type": "number", "minimum": 0, "maximum": 1},
                        {"type": "integer", "minimum": 0},
                    ],
                    "minItems": 2, "maxItems": 2,
                },
                "hysteresis": {"type": "number", "minimum": 0},
                "rating_weight": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "billing": {
            "type": "object",
            "properties": {
                "governor_commission": {"type": "number", "minimum": 0, "maximum": 1},
            },
            "additionalProperties": False,
        },
        "profiler": {
            "type": "object",
            "properties": {
                "failure_threshold": {"type": "number", "minimum": 0, "maximum": 1},
                "window": {"type": "integer", "minimum": 1},
                "sweep_interval_hours": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "registry": {
            "type": "object",
            "properties": {"footprint_ceiling": _RESOURCES},
            "additionalProperties": False,
        },
        "assessment_weights": {
            "type": "array",
            "items": {"type": "number", "minimum": 0},
            "minItems": 3, "maxItems": 3,
        },
    },
    "additionalProperties": False,
}

SCENARIO_SCHEMA = {
    "type": "object",
    "properties": {
        "format_version": {"const": FORMAT_VERSION},
        "seed": {"type": "integer", "minimum": 0},
        "duration_hours": {"type": "number", "exclusiveMinimum": 0},
        "baseline_mode": {"enum": [MODE_MARKETPLACE, MODE_WAN_CLOUD]},
        "latency": {
            "type": "object",
            "properties": {
                "wlan_ms": _RANGE,
                "wan_ms": _RANGE,
                "governor_ms": _RANGE,
            },
            "additionalProperties": False,
        },
        "exec_ms": _RANGE,
        "services": {"type": "array", "items": _SERVICE, "minItems": 1},
        "hosts": {"type": "array", "items": _HOST},
        "requesters": {"type": "array", "items": _REQUESTER},
        "aggregators": {"type": "array", "items": _AGGREGATOR},
        "policies": _POLICIES,
    },
    "required": ["format_version", "seed", "duration_hours", "services"],
    "additionalProperties": False,
}


# The optional service fields of a scenario; the wire form always carries them.
_SERVICE_DEFAULTS = {
    "description": "",
    "input_spec": "",
    "output_spec": "",
    "binding_method": "local-call",
    "dependencies": [],
}


class ScenarioValidationError(ValueError):
    """Carries every diagnostic found, not just the first."""

    def __init__(self, diagnostics: list[str]):
        super().__init__("; ".join(diagnostics))
        self.diagnostics = diagnostics


def _pointer(path) -> str:
    return "/" + "/".join(str(p) for p in path) if path else "/"


def validate_scenario(data: dict) -> list[str]:
    """All schema and semantic diagnostics for a scenario document."""
    validator = jsonschema.Draft202012Validator(SCENARIO_SCHEMA)
    diagnostics = [
        f"{_pointer(error.absolute_path)}: {error.message}"
        for error in sorted(validator.iter_errors(data), key=lambda e: list(e.absolute_path))
    ]
    if diagnostics:
        return diagnostics

    # Semantic checks the schema cannot express.
    service_ids = [s["service_id"] for s in data["services"]]
    seen = set()
    for i, sid in enumerate(service_ids):
        if sid in seen:
            diagnostics.append(f"/services/{i}/service_id: duplicate id {sid!r}")
        seen.add(sid)
    for i, svc in enumerate(data["services"]):
        for dep in svc.get("dependencies", []):
            if dep not in seen:
                diagnostics.append(f"/services/{i}/dependencies: unknown service {dep!r}")
    for name in ("latency", ):
        for key, rng in (data.get(name) or {}).items():
            if rng[0] > rng[1]:
                diagnostics.append(f"/{name}/{key}: low must be <= high")
    exec_ms = data.get("exec_ms")
    if exec_ms and exec_ms[0] > exec_ms[1]:
        diagnostics.append("/exec_ms: low must be <= high")
    composite_ids = {s["service_id"] for s in data["services"] if s.get("dependencies")}
    for i, agg in enumerate(data.get("aggregators", [])):
        if agg["composite_service_id"] not in composite_ids:
            diagnostics.append(
                f"/aggregators/{i}/composite_service_id: "
                f"{agg['composite_service_id']!r} is not a composite service"
            )
    # Rules between policy values (such as the trust thresholds' order)
    # live in the governor's config types; build the config to apply them.
    try:
        config = governor_config_from(data.get("policies", {}))
    except ValueError as exc:
        diagnostics.append(f"/policies: {exc}")
    else:
        # Billing's rule: each developer share leaves room for the commission.
        for i, svc in enumerate(data["services"]):
            try:
                check_developer_share(svc["developer_share"], config.governor_commission)
            except NegotiationRejected as exc:
                diagnostics.append(f"/services/{i}/developer_share: {exc}")
    return diagnostics


def _value(value):
    """A validated JSON value as a config field holds it: arrays become
    tuples and objects (resource vectors) `ResourceVector`s."""
    if isinstance(value, list):
        return tuple(value)
    if isinstance(value, dict):
        return ResourceVector(**value)
    return value


def _build(cls, raw: dict, skip: tuple[str, ...] = ()):
    """`cls` from a validated document section, by field name; the
    schema admits no key but `cls`'s fields and `skip`."""
    return cls(**{key: _value(value) for key, value in raw.items() if key not in skip})


def governor_config_from(policies: dict) -> GovernorConfig:
    """The governor's config from a validated `policies` section: its
    `registry` and `billing` sections and `assessment_weights` name the
    config's own fields, `trust` and `profiler` those of its policies."""
    own = {**policies.get("registry", {}), **policies.get("billing", {})}
    if "assessment_weights" in policies:
        own["assessment_weights"] = policies["assessment_weights"]
    return _build(GovernorConfig, {
        **own,
        "trust_policy": _build(TrustPolicy, policies.get("trust", {})),
        "profiler_policy": _build(ProfilerPolicy, policies.get("profiler", {}),
                                  skip=("sweep_interval_hours",)),
    })


def scenario_from_dict(data: dict, seed_override: int | None = None) -> Scenario:
    diagnostics = validate_scenario(data)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)

    optional = {key: _value(data[key]) for key in ("baseline_mode", "exec_ms") if key in data}
    profiler = data.get("policies", {}).get("profiler", {})
    if "sweep_interval_hours" in profiler:
        optional["sweep_interval_hours"] = profiler["sweep_interval_hours"]
    return Scenario(
        seed=seed_override if seed_override is not None else data["seed"],
        duration_hours=float(data["duration_hours"]),
        latency=_build(LatencyModel, data.get("latency", {})),
        services=tuple(
            service_from_dict({**_SERVICE_DEFAULTS, **raw}) for raw in data["services"]
        ),
        hosts=_populations(HostAgentConfig, data.get("hosts", [])),
        requesters=_populations(RequesterAgentConfig, data.get("requesters", [])),
        aggregators=_populations(AggregatorConfig, data.get("aggregators", [])),
        governor_config=governor_config_from(data.get("policies", {})),
        **optional,
    )


def _populations(cls, entries: list[dict]) -> tuple[PopulationEntry, ...]:
    return tuple(
        PopulationEntry(count=raw["count"], config=_build(cls, raw, skip=("count",)))
        for raw in entries
    )


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([f"/: not valid JSON: {exc}"]) from None
    return scenario_from_dict(data, seed_override=seed_override)
