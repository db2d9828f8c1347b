"""The program names the benchmark reads, used the way it uses them.

`bench/run.py` builds a `Simulation`, runs it, writes its outputs with
`cli._write_outputs` and checks the pass through the report's three
properties, `to_json_bytes()`, the trace records' `recipient` and
`billing.audit()`; `bench/closed_loop.py` reads each discovery result's
`listing.service_id` and `hosts`; the latency probe (`bench/probe.py`, on
the governor `bench/run.py::_probe_governor` builds) reads the hosts'
profiles, discovers, ingests reports and prices them. A rename of any of
them fails here, in the tier-1 tests, and not only in a benchmark run.
The per-layer tracer's hooks that find no target are pinned too, so a
rename that empties one more hook fails here as well.
"""
import sys
from pathlib import Path

from conftest import governor_with, make_service
from momcc.cli import _write_outputs
from momcc.domain import ExecutionReport, Outcome, ResourceVector
from momcc.engine import Simulation
from momcc.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.tracer import Tracer  # noqa: E402

SCENARIOS = ROOT / "scenarios"


def test_a_market_pass_reads_what_the_benchmark_reads(tmp_path):
    result = Simulation(load_scenario(SCENARIOS / "default.json")).run()
    _write_outputs(result, tmp_path)
    report = result.report
    assert report.trace_violations == report.data["trace_violations"] == 0
    assert report.demand_events == report.data["demand_events"] > 0
    assert report.invocations_succeeded == report.data["invocations"]["succeeded"] > 0
    assert (tmp_path / "metrics.json").read_bytes() == report.to_json_bytes()
    with (tmp_path / "trace.log").open("rb") as fh:
        assert sum(1 for _ in fh) == len(result.trace)
    assert any(record.recipient == "governor" for record in result.trace)
    with (tmp_path / "ledger.csv").open("rb") as fh:
        assert sum(1 for _ in fh) == len(result.governor.billing.audit()) + 1


def test_a_discovery_result_carries_the_listing_id_and_hosts():
    governor = governor_with([make_service()])
    governor.hosts.register_host("host-000", "Android", "4.0", ResourceVector(2048, 32, 64, 1000), 9000)
    assert governor.request_hosting("host-000", "svc-resize", identity_verified=True).confirmed
    found = governor.registry.discover("image", "anon-bench-client")
    assert [(r.listing.service_id, r.hosts) for r in found] == [("svc-resize", ["host-000"])]


def test_the_latency_probe_reads_what_the_benchmark_reads():
    """The probe's governor places services with `request_hosting(...,
    identity_verified=)`; the probe picks live, certified hostings from
    `host_db.hosts`, discovers, ingests keyword-built reports, checks
    each one's price was metered and, at the end, the invariants.
    `HostDatabase.ranked_hosts` keeps its name: the per-layer tracer's
    ranking hook is to read it."""
    governor = governor_with([make_service()])
    governor.hosts.register_host("host-000", "Android", "4.0", ResourceVector(2048, 32, 64, 1000), 9000)
    governor.request_hosting("host-000", "svc-resize", identity_verified=True)
    pairs = [
        (host_id, service_id)
        for host_id, profile in sorted(governor.host_db.hosts.items())
        if profile.alive and profile.certificate is not None
        for service_id in sorted(profile.hosted)
    ]
    assert pairs == [("host-000", "svc-resize")]
    metered_before = governor.billing.total_metered()
    found = governor.registry.discover("image", "anon-bench-probe")
    assert [r.hosts for r in found] == [governor.host_db.ranked_hosts("svc-resize")] == [["host-000"]]
    report = ExecutionReport(
        report_id="rpt-bench-probe-0000000-0", host_id="host-000", service_id="svc-resize",
        requester_pseudonym="anon-bench-probe", started_at=0.0, duration_ms=10.0,
        energy_used_mwh=0, outcome=Outcome.success(), rating=5,
    )
    assert governor.ingest_report(report) is True
    price = governor.registry.get("svc-resize").price_per_invocation
    assert governor.billing.total_metered() - metered_before == price > 0
    assert governor.check_invariants() == []


def test_the_tracer_finds_every_hook_but_the_known_absent_ones():
    """The twelve hooks that find no target today, in table order; the
    ROADMAP's per-layer tracing item points them at live code."""
    tracer = Tracer()
    try:
        tracer.install()
        assert tracer.absent == [
            "momcc.engine:Simulation._governor_handle",
            "momcc.engine:Simulation._gov_list_services",
            "momcc.engine:Simulation._gov_hosting",
            "momcc.engine:Simulation._gov_discovery",
            "momcc.engine:Simulation._gov_report",
            "momcc.engine:Simulation._gov_rating",
            "momcc.engine:Simulation._ingest",
            "momcc.engine:service_to_dict",
            "momcc.governor.hosts:HostRegistry.live_hosts_ranked",
            "momcc.governor.security:SecurityGovernor.apply_report",
            "momcc.governor.billing:BillingUnit.meter_invocation",
            "momcc.engine:envelope_dict",
        ]
    finally:
        tracer.uninstall()
