"""Scenario files: the JSON description of one simulated marketplace.

This module is the single home of built-in defaults. Precedence is
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
from .governor import GovernorConfig, ProfilerPolicy, TrustPolicy
from .governor.registry import service_from_dict

FORMAT_VERSION = 1

DEFAULT_WLAN_MS = (5.0, 30.0)
DEFAULT_WAN_MS = (100.0, 300.0)
DEFAULT_GOVERNOR_MS = (20.0, 60.0)
DEFAULT_EXEC_MS = (5.0, 25.0)

MODE_MARKETPLACE = "momcc"
MODE_WAN_CLOUD = "wan_cloud"


@dataclass(frozen=True)
class LatencyModel:
    """Transport delay ranges (ms, uniform) for the three message classes."""

    wlan_ms: tuple[float, float] = DEFAULT_WLAN_MS
    wan_ms: tuple[float, float] = DEFAULT_WAN_MS
    governor_ms: tuple[float, float] = DEFAULT_GOVERNOR_MS

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
    baseline_mode: str
    latency: LatencyModel
    exec_ms: tuple[float, float]
    services: tuple[ServiceDescription, ...]
    hosts: tuple[PopulationEntry, ...]
    requesters: tuple[PopulationEntry, ...]
    aggregators: tuple[PopulationEntry, ...]
    governor_config: GovernorConfig
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
        governor_config_from(data.get("policies", {}))
    except ValueError as exc:
        diagnostics.append(f"/policies: {exc}")
    return diagnostics


def _range(value, default: tuple[float, float]) -> tuple[float, float]:
    if value is None:
        return default
    return (float(value[0]), float(value[1]))


def governor_config_from(policies: dict) -> GovernorConfig:
    trust_raw = policies.get("trust", {})
    trust = TrustPolicy(
        alpha=trust_raw.get("alpha", TrustPolicy.alpha),
        promote_medium=tuple(trust_raw.get("promote_medium", TrustPolicy.promote_medium)),
        promote_high=tuple(trust_raw.get("promote_high", TrustPolicy.promote_high)),
        hysteresis=trust_raw.get("hysteresis", TrustPolicy.hysteresis),
        rating_weight=trust_raw.get("rating_weight", TrustPolicy.rating_weight),
    )
    profiler_raw = policies.get("profiler", {})
    profiler = ProfilerPolicy(
        failure_threshold=profiler_raw.get("failure_threshold", ProfilerPolicy.failure_threshold),
        window=profiler_raw.get("window", ProfilerPolicy.window),
    )
    registry_raw = policies.get("registry", {})
    config = GovernorConfig(
        footprint_ceiling=(
            ResourceVector(**registry_raw["footprint_ceiling"])
            if "footprint_ceiling" in registry_raw
            else GovernorConfig.footprint_ceiling
        ),
        governor_commission=policies.get("billing", {}).get(
            "governor_commission", GovernorConfig.governor_commission
        ),
        trust_policy=trust,
        profiler_policy=profiler,
        assessment_weights=tuple(
            policies.get("assessment_weights", GovernorConfig.assessment_weights)
        ),
    )
    return config


def scenario_from_dict(data: dict, seed_override: int | None = None) -> Scenario:
    diagnostics = validate_scenario(data)
    if diagnostics:
        raise ScenarioValidationError(diagnostics)

    latency_raw = data.get("latency", {})
    latency = LatencyModel(
        wlan_ms=_range(latency_raw.get("wlan_ms"), DEFAULT_WLAN_MS),
        wan_ms=_range(latency_raw.get("wan_ms"), DEFAULT_WAN_MS),
        governor_ms=_range(latency_raw.get("governor_ms"), DEFAULT_GOVERNOR_MS),
    )
    services = tuple(service_from_dict({**_SERVICE_DEFAULTS, **raw}) for raw in data["services"])

    hosts = tuple(
        PopulationEntry(
            count=raw["count"],
            config=HostAgentConfig(
                capacity=ResourceVector(**raw["capacity"]),
                battery_mwh=raw["battery_mwh"],
                platform_os=raw["platform_os"],
                platform_version=raw["platform_version"],
                greediness=raw.get("greediness", "max_revenue"),
                departure_rate=raw.get("departure_rate", 0.0),
                failure_prob=raw.get("failure_prob", 0.0),
                identity_verified=raw.get("identity_verified", False),
            ),
        )
        for raw in data.get("hosts", [])
    )
    requesters = tuple(
        PopulationEntry(
            count=raw["count"],
            config=RequesterAgentConfig(
                demand_rate=raw["demand_rate"],
                query_pool=tuple(raw["query_pool"]),
                rating_bias=tuple(raw.get("rating_bias", RequesterAgentConfig.rating_bias)),
                rating_prob=raw.get("rating_prob", 1.0),
            ),
        )
        for raw in data.get("requesters", [])
    )
    aggregators = tuple(
        PopulationEntry(
            count=raw["count"],
            config=AggregatorConfig(
                composite_service_id=raw["composite_service_id"],
                capacity=ResourceVector(**raw["capacity"]),
                battery_mwh=raw["battery_mwh"],
                platform_os=raw["platform_os"],
                platform_version=raw["platform_version"],
                failure_prob=raw.get("failure_prob", 0.0),
                identity_verified=raw.get("identity_verified", False),
                parallel_dependencies=raw.get("parallel_dependencies", False),
            ),
        )
        for raw in data.get("aggregators", [])
    )

    return Scenario(
        seed=seed_override if seed_override is not None else data["seed"],
        duration_hours=float(data["duration_hours"]),
        baseline_mode=data.get("baseline_mode", MODE_MARKETPLACE),
        latency=latency,
        exec_ms=_range(data.get("exec_ms"), DEFAULT_EXEC_MS),
        services=services,
        hosts=hosts,
        requesters=requesters,
        aggregators=aggregators,
        governor_config=governor_config_from(data.get("policies", {})),
        sweep_interval_hours=data.get("policies", {}).get("profiler", {}).get(
            "sweep_interval_hours", 1.0
        ),
    )


def load_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ScenarioValidationError([f"/: not valid JSON: {exc}"]) from None
    return scenario_from_dict(data, seed_override=seed_override)
