"""The host database's per-host and per-service report indexes against a
full scan of the report history.

Host assessment and the service profiler read report windows from the
indexes, so every write to the history must keep them in step, and a
window handed to a caller must never be an index itself.
"""
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_service
from momcc.domain import ExecutionReport, Outcome, ResourceVector
from momcc.errors import UnknownEntityError
from momcc.governor import ServiceGovernor
from momcc.snapshot import restore_governor, snapshot_governor

SERVICES = [
    make_service(service_id="svc-a", name="alpha"),
    make_service(service_id="svc-b", name="beta"),
    make_service(service_id="svc-c", name="gamma", developer_id="dev-beta"),
]
SERVICE_IDS = [desc.service_id for desc in SERVICES]
UNKNOWN_SERVICE = "svc-unknown"
HOST_IDS = [f"host-{i}" for i in range(4)]
CAPACITY = ResourceVector(8192, 64, 128, 8000)
WINDOWS = (None, 0, 1, 2, 5, 20)


def build_governor() -> ServiceGovernor:
    governor = ServiceGovernor()
    for desc in SERVICES:
        if not governor.billing.developer_registered(desc.developer_id):
            governor.billing.negotiate_developer(
                desc.developer_id, desc.price_per_invocation, desc.developer_share
            )
        governor.registry.register_service(desc)
    for host_id in HOST_IDS:
        governor.hosts.register_host(host_id, "Android", "4.0", CAPACITY, 10**6)
    return governor


def scan_window(reports: list[ExecutionReport], window: int | None) -> list[ExecutionReport]:
    """A window as the full-scan store computed it."""
    if window is None:
        return reports
    if window <= 0:
        return []
    return reports[-window:]


def make_report(seq: int, host_id: str, service_id: str, ok: bool, rating: int | None) -> ExecutionReport:
    return ExecutionReport(
        report_id=f"rpt-{seq:04d}", host_id=host_id, service_id=service_id,
        requester_pseudonym="anon-index", started_at=float(seq), duration_ms=10.0,
        energy_used_mwh=1, outcome=Outcome.success() if ok else Outcome.failure("fault"),
        rating=rating,
    )


hosts = st.sampled_from(HOST_IDS)
services = st.sampled_from(SERVICE_IDS)
ratings = st.one_of(st.none(), st.integers(1, 5))
operations = st.one_of(
    st.tuples(st.just("host"), hosts, services),
    st.tuples(st.just("report"), hosts, services, st.booleans(), ratings),
    st.tuples(st.just("duplicate"), st.integers(0, 60), st.booleans()),
    st.tuples(st.just("unknown_service"), hosts, st.booleans()),
    st.tuples(st.just("no_certificate"), hosts, services),
    st.tuples(st.just("restore")),
)


def apply(governor: ServiceGovernor, op: tuple, seq: int) -> ServiceGovernor:
    kind = op[0]
    db = governor.host_db
    if kind == "host":
        governor.request_hosting(op[1], op[2])
    elif kind == "report":
        _, host_id, service_id, ok, rating = op
        if db.hosts[host_id].certificate is None:
            return governor  # covered by "no_certificate"
        ok = ok and governor.billing.agreement_for(service_id) is not None
        assert governor.ingest_report(make_report(seq, host_id, service_id, ok, rating))
    elif kind == "duplicate":
        if db.reports:
            original = db.reports[op[1] % len(db.reports)]
            # A re-delivery is absorbed whatever it now says.
            resent = replace(original, rating=None) if op[2] else original
            assert not governor.ingest_report(resent)
    elif kind == "unknown_service":
        if db.hosts[op[1]].certificate is None:
            return governor
        with pytest.raises(UnknownEntityError):
            governor.ingest_report(make_report(seq, op[1], UNKNOWN_SERVICE, op[2], None))
    elif kind == "no_certificate":
        if db.hosts[op[1]].certificate is not None:
            return governor
        with pytest.raises(UnknownEntityError):
            governor.ingest_report(make_report(seq, op[1], op[2], False, None))
    else:
        governor = restore_governor(snapshot_governor(governor))
    return governor


def assert_windows_match_scan(governor: ServiceGovernor) -> None:
    db = governor.host_db
    for host_id in HOST_IDS + ["host-unknown"]:
        matching = [r for r in db.reports if r.host_id == host_id]
        for window in WINDOWS:
            assert db.reports_for_host(host_id, window) == scan_window(matching, window)
    for service_id in SERVICE_IDS + [UNKNOWN_SERVICE]:
        matching = [r for r in db.reports if r.service_id == service_id]
        for window in WINDOWS:
            assert db.reports_for_service(service_id, window) == scan_window(matching, window)


class TestReportIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(operations, max_size=40))
    def test_windows_match_full_scan_after_every_step(self, ops):
        governor = build_governor()
        for seq, op in enumerate(ops):
            governor = apply(governor, op, seq)
            assert_windows_match_scan(governor)
            assert governor.check_invariants() == []

    def reported_governor(self) -> ServiceGovernor:
        governor = build_governor()
        governor.request_hosting("host-0", "svc-a")
        for seq in range(3):
            governor.ingest_report(make_report(seq, "host-0", "svc-a", True, 5))
        assert governor.check_invariants() == []
        return governor

    def test_invariant_reports_a_stale_host_index(self):
        governor = self.reported_governor()
        governor.host_db.host_reports["host-0"].pop()
        assert governor.check_invariants() == [
            "hosts: per-host report index differs from the report history"
        ]

    def test_invariant_reports_a_stale_service_index(self):
        governor = self.reported_governor()
        governor.host_db.service_reports["svc-a"].pop(0)
        assert governor.check_invariants() == [
            "hosts: per-service report index differs from the report history"
        ]

    def test_invariant_reports_stale_seen_ids(self):
        governor = self.reported_governor()
        governor.host_db.seen_report_ids.discard("rpt-0001")
        assert governor.check_invariants() == [
            "hosts: seen report ids differ from the report history"
        ]

    @pytest.mark.parametrize("window", WINDOWS)
    def test_mutating_a_returned_window_leaves_the_indexes_alone(self, window):
        governor = self.reported_governor()
        db = governor.host_db
        before = list(db.reports)
        for returned in (db.reports_for_host("host-0", window),
                         db.reports_for_service("svc-a", window)):
            returned.clear()
            returned.append(make_report(99, "host-1", "svc-b", True, None))
        assert db.reports_for_host("host-0") == before
        assert db.reports_for_service("svc-a") == before
        assert governor.check_invariants() == []
