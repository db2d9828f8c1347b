"""Acceptance criteria, one test per criterion at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v`; the terminal summary
prints one PASS/FAIL line per criterion.
"""
import random
import threading
import time
from dataclasses import replace
from pathlib import Path

import pytest

from conftest import governor_with, make_service, metered_ids, scenario_dict, service_dict
from momcc.domain import (
    ExecutionReport,
    Outcome,
    PlatformRequirement,
    ResourceVector,
    SecurityLevel,
    level_admits,
)
from momcc.engine import run_scenario
from momcc.errors import MarketplaceError
from momcc.governor import ServiceGovernor
from momcc.governor.hosts import CONFIRMED_TRACE_PATTERN
from momcc.governor.security import TrustPolicy, update_trust
from momcc.scenario import MODE_WAN_CLOUD, load_scenario, scenario_from_dict
from momcc.wire import (
    HostRequirementsMessage,
    decode_requirements,
    encode_requirements,
    trace_lines,
)

SCENARIOS = Path(__file__).parent.parent / "scenarios"
FIXTURES = Path(__file__).parent / "fixtures"


def test_criterion_01_admission_matrix():
    """Exhaustive 3x3 level check: exactly 6 permitted, 3 denied. Exact."""
    admitted = {
        (host, svc)
        for host in SecurityLevel
        for svc in SecurityLevel
        if level_admits(host, svc)
    }
    assert len(admitted) == 6
    assert 9 - len(admitted) == 3
    # The named case: medium-sensitivity runs on medium or high hosts only.
    assert (SecurityLevel.MEDIUM, SecurityLevel.MEDIUM) in admitted
    assert (SecurityLevel.HIGH, SecurityLevel.MEDIUM) in admitted
    assert (SecurityLevel.LOW, SecurityLevel.MEDIUM) not in admitted


def test_criterion_02_resource_rule():
    """2 MB need on a 1 MB host denied; 10k random pairs match the oracle. Exact."""
    governor = governor_with([make_service()])  # needs 2 MB memory
    governor.hosts.register_host(
        "host-tiny", "Android", "4.0", ResourceVector(2048, 1, 64, 2000), 10_000
    )
    decision = governor.request_hosting("host-tiny", "svc-resize")
    assert not decision.confirmed
    assert decision.reason == "resources"

    rng = random.Random(20_000)
    for _ in range(10_000):
        host_free = ResourceVector(rng.randint(0, 6), rng.randint(0, 6),
                                   rng.randint(0, 6), rng.randint(0, 6))
        need = ResourceVector(rng.randint(0, 6), rng.randint(0, 6),
                              rng.randint(0, 6), rng.randint(0, 6))
        oracle = all(
            getattr(host_free, c) >= getattr(need, c)
            for c in ("cpu", "memory", "storage", "energy")
        )
        assert host_free.covers(need) == oracle


def test_criterion_03_requirements_document_fidelity():
    """Verbatim excerpt decodes to the reference values; encode is golden. Exact."""
    verbatim = (FIXTURES / "requirements_excerpt_verbatim.xml").read_bytes()
    decoded = decode_requirements(verbatim)
    assert decoded == HostRequirementsMessage(
        platform=PlatformRequirement("Android", "3.2"),
        min_resources=ResourceVector(512, 2, 5, 500),
    )
    golden = (FIXTURES / "host_requirements_golden.xml").read_bytes()
    assert encode_requirements(decoded) == golden
    assert decode_requirements(golden) == decoded


def test_criterion_04_allocation_trace_conformance():
    """100 allocations in one run; every confirmed trace matches the grammar."""
    started = time.monotonic()
    services = [
        service_dict(service_id=f"svc-{i}", name=f"tool {i}", functionality_tag=f"t{i}",
                     min_resources={"cpu": 256, "memory": 2, "storage": 4, "energy": 200})
        for i in range(4)
    ]
    data = scenario_dict(
        seed=44,
        duration_hours=1.0,
        services=services,
        hosts=[{
            "count": 25,
            "capacity": {"cpu": 2048, "memory": 16, "storage": 32, "energy": 1000},
            "battery_mwh": 50_000,
            "platform_os": "Android", "platform_version": "4.0",
            "departure_rate": 0.0, "failure_prob": 0.0,
        }],
        requesters=[{"count": 2, "demand_rate": 6, "query_pool": ["tool"]}],
    )
    result = run_scenario(scenario_from_dict(data))
    confirmed = [d for d in result.governor.hosts.decisions if d.confirmed]
    assert len(confirmed) == 100
    for decision in confirmed:
        assert CONFIRMED_TRACE_PATTERN.fullmatch(decision.trace_names()), decision.trace_names()
    assert result.report.trace_violations == 0
    assert time.monotonic() - started < 10.0


def test_criterion_05_trust_model():
    """Fresh certs, EWMA bounds over 10k random streams, monotone response,
    and never a two-level jump. Exact on bounds and level steps."""
    policy = TrustPolicy()
    governor = governor_with([make_service()])
    governor.hosts.register_host("h-plain", "Android", "4.0", ResourceVector(1, 1, 1, 1), 1)
    governor.hosts.register_host("h-verified", "Android", "4.0", ResourceVector(1, 1, 1, 1), 1)
    governor.preprovision_host("h-plain", [], identity_verified=False)
    governor.preprovision_host("h-verified", [], identity_verified=True)
    plain = governor.host_db.get("h-plain").certificate
    verified = governor.host_db.get("h-verified").certificate
    assert (plain.level, plain.trust_score) == (SecurityLevel.LOW, 0.0)
    assert verified.level == SecurityLevel.LOW
    assert verified.trust_score == pytest.approx(0.1)

    def report(ok, rating):
        return ExecutionReport(
            report_id="r", host_id="h", service_id="s", requester_pseudonym="anon-x",
            started_at=0.0, duration_ms=1.0, energy_used_mwh=0,
            outcome=Outcome.success() if ok else Outcome.failure("fault"),
            rating=rating,
        )

    def fresh(score=0.0):
        from momcc.domain import SecurityCertificate
        return SecurityCertificate("h", SecurityLevel.LOW, score, 0, 0.0, False)

    rng = random.Random(55_555)
    for _ in range(10_000):
        cert = fresh(score=round(rng.random(), 3))
        for _ in range(rng.randint(1, 20)):
            before = cert.level
            cert = update_trust(
                cert, report(rng.random() < 0.6, rng.choice([None, 1, 2, 3, 4, 5])), policy
            )
            assert 0.0 <= cert.trust_score <= 1.0
            assert abs(int(cert.level) - int(before)) <= 1

    cert = fresh()
    last = cert.trust_score
    for _ in range(100):
        cert = update_trust(cert, report(True, 5), policy)
        assert cert.trust_score >= last
        last = cert.trust_score
    cert = replace(fresh(), trust_score=1.0)
    last = cert.trust_score
    for _ in range(100):
        cert = update_trust(cert, report(False, 1), policy)
        assert cert.trust_score <= last
        last = cert.trust_score


def test_criterion_06_billing_conservation():
    """Balances equal metered totals to the minor unit; failures unbilled;
    metering idempotent under report re-delivery. Exact."""
    scenario = load_scenario(SCENARIOS / "default.json")
    result = run_scenario(scenario)
    billing = result.governor.billing

    balance_sum = sum(billing.balances().values())
    assert balance_sum == billing.total_metered()

    reports = result.governor.host_db.reports
    assert reports
    assert set(metered_ids(result.governor)) == {r.report_id for r in reports if r.outcome.ok}

    before = billing.balances()
    for report in reports:
        assert result.governor.ingest_report(report) is False  # absorbed
    after = billing.balances()
    assert before == after


def test_criterion_07_latency_claim():
    """Marketplace mean invocation latency beats the WAN baseline on every
    one of 5 seeds of the bundled scenario. Strict inequality."""
    started = time.monotonic()
    base = load_scenario(SCENARIOS / "default.json")
    for offset in range(5):
        seed = base.seed + offset
        momcc_run = run_scenario(replace(base, seed=seed))
        wan_run = run_scenario(replace(base, seed=seed, baseline_mode=MODE_WAN_CLOUD))
        momcc_latency = momcc_run.report.data["latency_ms"]
        wan_latency = wan_run.report.data["latency_ms"]
        assert momcc_latency is not None and wan_latency is not None
        momcc_mean, wan_mean = momcc_latency["mean"], wan_latency["mean"]
        assert momcc_mean < wan_mean, f"seed {seed}: {momcc_mean} !< {wan_mean}"
    assert time.monotonic() - started < 30.0


def availability_scaling_scenario(n_hosts: int, seed: int) -> dict:
    return scenario_dict(
        seed=seed,
        duration_hours=3.0,
        services=[service_dict()],
        hosts=[{
            "count": n_hosts,
            "capacity": {"cpu": 1024, "memory": 8, "storage": 16, "energy": 600},
            "battery_mwh": 4000,
            "platform_os": "Android", "platform_version": "4.0",
            "departure_rate": 0.5, "failure_prob": 0.0,
        }],
        requesters=[{"count": 2, "demand_rate": 8, "query_pool": ["image"]}],
    )


def test_criterion_08_availability_scaling():
    """Mean availability over 5 seeds is nondecreasing in host count
    for n in {1, 2, 4, 8}, within 0.02 sampling tolerance."""
    seeds = [100, 200, 300, 400, 500]
    means = []
    for n in (1, 2, 4, 8):
        values = []
        for seed in seeds:
            report = run_scenario(
                scenario_from_dict(availability_scaling_scenario(n, seed))
            ).report
            assert report.demand_events > 0
            values.append(report.data["availability"])
        means.append(sum(values) / len(values))
    for smaller, larger in zip(means, means[1:]):
        assert larger >= smaller - 0.02, f"availability regressed: {means}"
    # The spread should be real: more hosts visibly help at the extremes.
    assert means[-1] > means[0]


def test_criterion_09_anonymity():
    """No message to a requester ever carries a developer identity, and no
    escalation carries a requester identity. Exact."""
    scenario = load_scenario(SCENARIOS / "default.json")
    result = run_scenario(scenario)
    developer_ids = {d.developer_id for d in scenario.services}
    assert developer_ids

    requester_recipients = set(result.requester_ids)
    deliveries_to_requesters = 0
    for record, line in zip(result.trace, trace_lines(result.trace)):
        if record.recipient in requester_recipients:
            deliveries_to_requesters += 1
            for developer_id in developer_ids:
                assert developer_id not in line, line
    assert deliveries_to_requesters > 0

    escalations = result.governor.profiler.escalations
    requester_markers = {f"req-{i:03d}" for i in range(len(requester_recipients))} | {"anon-"}
    for escalation in escalations:
        for marker in requester_markers:
            assert marker not in escalation.detail
            assert marker not in escalation.escalation_id


def test_criterion_10_determinism():
    """Identical scenario + seed give byte-identical metrics output. Exact."""
    scenario_path = SCENARIOS / "default.json"
    first = run_scenario(load_scenario(scenario_path)).report.to_json_bytes()
    second = run_scenario(load_scenario(scenario_path)).report.to_json_bytes()
    assert first == second


def test_criterion_11_concurrency_stress():
    """8 concurrent clients interleaving register/host/report/meter for 10 s
    leave every cross-module invariant intact. Zero violations."""
    governor = ServiceGovernor()
    deadline = time.monotonic() + 10.0
    unexpected: list[Exception] = []
    capacity = ResourceVector(4096, 64, 64, 4000)

    # One contended host all workers also hammer.
    governor.billing.negotiate_developer("dev-shared", 500, 0.4)
    governor.registry.register_service(make_service(
        service_id="svc-shared", developer_id="dev-shared", name="shared svc",
        min_resources=ResourceVector(64, 1, 1, 50), price=500,
    ))
    governor.hosts.register_host("host-shared", "Android", "4.0", capacity, 10**9)

    def worker(wid: int) -> None:
        rng = random.Random(wid)
        governor.billing.negotiate_developer(f"dev-{wid}", 1000, 0.4)
        governor.hosts.register_host(f"host-{wid}", "Android", "4.0", capacity, 10**9)
        iteration = 0
        while time.monotonic() < deadline:
            iteration += 1
            sid = f"svc-{wid}-{iteration}"
            try:
                governor.registry.register_service(make_service(
                    service_id=sid, developer_id=f"dev-{wid}", name=f"svc {wid} {iteration}",
                    functionality_tag=f"tag-{wid}",
                    min_resources=ResourceVector(32, 1, 1, 25),
                ))
                decision = governor.request_hosting(f"host-{wid}", sid)
                if decision.confirmed:
                    governor.ingest_report(ExecutionReport(
                        report_id=f"r-{wid}-{iteration}",
                        host_id=f"host-{wid}", service_id=sid,
                        requester_pseudonym=f"anon-{wid:04d}",
                        started_at=float(iteration), duration_ms=1.0,
                        energy_used_mwh=1,
                        outcome=Outcome.success() if rng.random() < 0.8 else Outcome.failure("fault"),
                        rating=rng.choice([None, 1, 3, 5]),
                    ))
                shared = governor.request_hosting("host-shared", "svc-shared")
                if shared.confirmed:
                    governor.ingest_report(ExecutionReport(
                        report_id=f"rs-{wid}-{iteration}",
                        host_id="host-shared", service_id="svc-shared",
                        requester_pseudonym=f"anon-{wid:04d}",
                        started_at=float(iteration), duration_ms=1.0,
                        energy_used_mwh=1,
                        outcome=Outcome.success(),
                        rating=None,
                    ))
                    governor.hosts.unhost("host-shared", "svc-shared")
                cert = governor.host_db.get(f"host-{wid}").certificate
                if cert is not None:
                    assert 0.0 <= cert.trust_score <= 1.0
                    assert cert.attempts <= iteration  # one report of this host per iteration
                governor.billing.balances().get(f"dev-{wid}", 0)
                governor.registry.discover("svc", f"anon-{wid:04d}")
                if rng.random() < 0.1:
                    governor.hosts.unhost(f"host-{wid}", sid)
            except MarketplaceError:
                pass  # expected rejections under contention
            except Exception as exc:  # pragma: no cover - diagnostics
                unexpected.append(exc)
                return

    threads = [threading.Thread(target=worker, args=(wid,)) for wid in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert unexpected == []
    assert governor.check_invariants() == []
    assert governor.hosts.count_trace_violations() == 0
    balance_sum = sum(governor.billing.balances().values())
    assert balance_sum == governor.billing.total_metered()
