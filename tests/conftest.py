"""Shared builders for tests, plus a terminal summary that prints one
pass/fail line per acceptance criterion."""
from __future__ import annotations

from dataclasses import replace

import pytest

from momcc.domain import PlatformRequirement, ResourceVector, SecurityLevel, ServiceDescription
from momcc.governor import HostRegistry, ServiceGovernor
from momcc.wire import MessageKind


def make_service(
    service_id: str = "svc-resize",
    developer_id: str = "dev-alpha",
    name: str = "image resize",
    description: str = "scale images on device",
    functionality_tag: str = "image-resize",
    security_level: SecurityLevel = SecurityLevel.LOW,
    os_name: str = "Android",
    min_version: str = "3.2",
    min_resources: ResourceVector = ResourceVector(512, 2, 5, 500),
    price: int = 1000,
    developer_share: float = 0.4,
    dependencies: tuple[str, ...] = (),
) -> ServiceDescription:
    return ServiceDescription(
        service_id=service_id,
        developer_id=developer_id,
        name=name,
        description=description,
        functionality_tag=functionality_tag,
        input_spec="bytes",
        output_spec="bytes",
        binding_method="local-call",
        security_level=security_level,
        platform=PlatformRequirement(os_name, min_version),
        min_resources=min_resources,
        price_per_invocation=price,
        developer_share=developer_share,
        dependencies=dependencies,
    )


def governor_with(services: list[ServiceDescription]) -> ServiceGovernor:
    governor = ServiceGovernor()
    for desc in services:
        if not governor.billing.developer_registered(desc.developer_id):
            governor.billing.negotiate_developer(
                desc.developer_id, desc.price_per_invocation, desc.developer_share
            )
        governor.registry.register_service(desc)
    return governor


def drop_sc_query(monkeypatch) -> None:
    """Inject a handshake fault: every allocation decision the host
    registry records and returns lacks its SC_QUERY step."""
    handshake = HostRegistry.request_hosting

    def faulty(self, *args, **kwargs):
        decision = handshake(self, *args, **kwargs)
        decision = replace(decision, trace=tuple(k for k in decision.trace if k != MessageKind.SC_QUERY))
        self.decisions[-1] = decision
        return decision

    monkeypatch.setattr(HostRegistry, "request_hosting", faulty)


@pytest.fixture
def service() -> ServiceDescription:
    return make_service()


def service_dict(
    service_id: str = "svc-resize",
    developer_id: str = "dev-alpha",
    name: str = "image resize",
    description: str = "scale images on device",
    functionality_tag: str = "image-resize",
    security_level: str = "Low",
    min_resources: dict | None = None,
    price: int = 1000,
    developer_share: float = 0.4,
    dependencies: list | None = None,
    min_version: str = "3.2",
) -> dict:
    return {
        "service_id": service_id,
        "developer_id": developer_id,
        "name": name,
        "description": description,
        "functionality_tag": functionality_tag,
        "security_level": security_level,
        "platform": {"os_name": "Android", "min_version": min_version},
        "min_resources": min_resources or {"cpu": 512, "memory": 2, "storage": 5, "energy": 500},
        "price_per_invocation": price,
        "developer_share": developer_share,
        "dependencies": dependencies or [],
    }


def scenario_dict(
    seed: int = 42,
    duration_hours: float = 1.0,
    mode: str = "momcc",
    services: list | None = None,
    hosts: list | None = None,
    requesters: list | None = None,
    aggregators: list | None = None,
    policies: dict | None = None,
) -> dict:
    data = {
        "format_version": 1,
        "seed": seed,
        "duration_hours": duration_hours,
        "baseline_mode": mode,
        "services": services if services is not None else [service_dict()],
        "hosts": hosts if hosts is not None else [
            {
                "count": 3,
                "capacity": {"cpu": 2048, "memory": 32, "storage": 64, "energy": 1500},
                "battery_mwh": 20000,
                "platform_os": "Android",
                "platform_version": "4.0",
                "greediness": "max_revenue",
                "departure_rate": 0.0,
                "failure_prob": 0.0,
            }
        ],
        "requesters": requesters if requesters is not None else [
            {"count": 2, "demand_rate": 10, "query_pool": ["image"]}
        ],
    }
    if aggregators is not None:
        data["aggregators"] = aggregators
    if policies is not None:
        data["policies"] = policies
    return data


def composite_scenario(seed=11, dep_b_failure=0.0, parallel=False):
    """One aggregator whose composite needs svc-a and svc-b, each on its own host;
    the svc-b host fails with probability `dep_b_failure`."""
    return scenario_dict(
        seed=seed,
        duration_hours=1.0,
        services=[
            service_dict(service_id="svc-a", name="alpha step", functionality_tag="a",
                         price=600, min_resources={"cpu": 200, "memory": 2, "storage": 2, "energy": 200}),
            service_dict(service_id="svc-b", name="beta step", functionality_tag="b",
                         price=700, min_resources={"cpu": 200, "memory": 2, "storage": 2, "energy": 200}),
            service_dict(service_id="svc-combo", name="combo pipeline", functionality_tag="combo",
                         price=2000, dependencies=["svc-a", "svc-b"],
                         min_resources={"cpu": 100, "memory": 1, "storage": 1, "energy": 100}),
        ],
        hosts=[
            {"count": 1, "capacity": {"cpu": 512, "memory": 8, "storage": 8, "energy": 300},
             "battery_mwh": 10**6, "platform_os": "Android", "platform_version": "4.0",
             "greediness": "random", "failure_prob": 0.0,
             "departure_rate": 0.0},
            {"count": 1, "capacity": {"cpu": 512, "memory": 8, "storage": 8, "energy": 300},
             "battery_mwh": 10**6, "platform_os": "Android", "platform_version": "4.0",
             "greediness": "min_energy", "failure_prob": dep_b_failure,
             "departure_rate": 0.0},
        ],
        requesters=[{"count": 1, "demand_rate": 4, "query_pool": ["combo"]}],
        aggregators=[{
            "count": 1, "composite_service_id": "svc-combo",
            "capacity": {"cpu": 512, "memory": 8, "storage": 8, "energy": 300},
            "battery_mwh": 10**6, "platform_os": "Android", "platform_version": "4.0",
            "failure_prob": 0.0, "parallel_dependencies": parallel,
        }],
    )


_CRITERION_PREFIX = "tests/test_acceptance.py::"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    lines = []
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            if "test_acceptance" in nodeid and "::" in nodeid:
                name = nodeid.split("::")[-1]
                verdict = "PASS" if status == "passed" else "FAIL"
                lines.append((name, verdict))
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for name, verdict in sorted(lines):
            terminalreporter.write_line(f"{verdict}  {name}")
