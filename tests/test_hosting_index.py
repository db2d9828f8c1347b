"""The host database's discovery ranking against a full scan.

`HostDatabase.ranked_hosts` returns a service's kept holder list, so
every path that changes a profile's hosted set, liveness or certificate
must keep the lists and the hosts' rank keys in step. A list once
returned is never mutated: earlier discovery replies and their trace
records hold it. The machine's `overtake` step makes reports reorder
rankings it has already handed out.
"""
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import composite_scenario, make_service, may_report
from momcc.domain import ExecutionReport, Outcome, ResourceVector, SecurityLevel
from momcc.engine import run_scenario
from momcc.errors import NotHostedError
from momcc.governor import GovernorConfig, ServiceGovernor, TrustPolicy
from momcc.governor.store import HostDatabase
from momcc.scenario import MODE_MARKETPLACE, MODE_WAN_CLOUD, load_scenario, scenario_from_dict
from momcc.snapshot import restore_governor, snapshot_governor

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

# Levels move within a few reports, so ranking sees promotions and demotions.
CONFIG = GovernorConfig(
    trust_policy=TrustPolicy(alpha=0.5, promote_medium=(0.5, 2), promote_high=(0.8, 4))
)
SERVICES = [
    make_service(service_id="svc-a", name="alpha"),
    make_service(service_id="svc-b", name="beta", security_level=SecurityLevel.MEDIUM),
    make_service(service_id="svc-c", name="gamma", min_resources=ResourceVector(1024, 8, 16, 900)),
    make_service(service_id="svc-d", name="delta", dependencies=("svc-a",)),
]
SERVICE_IDS = [desc.service_id for desc in SERVICES]
HOST_IDS = [f"host-{i}" for i in range(5)]
CAPACITY = ResourceVector(8192, 64, 128, 8000)  # room for every service at once


def build_governor() -> ServiceGovernor:
    governor = ServiceGovernor(CONFIG)
    for desc in SERVICES:
        if not governor.billing.developer_registered(desc.developer_id):
            governor.billing.negotiate_developer(
                desc.developer_id, desc.price_per_invocation, desc.developer_share
            )
        governor.registry.register_service(desc)
    for host_id in HOST_IDS:
        governor.hosts.register_host(host_id, "Android", "4.0", CAPACITY, 10**6)
    return governor


def scan_ranked(governor: ServiceGovernor, service_id: str) -> list[str]:
    """The ranking as a scan over every host computes it."""
    hosting = [
        p for p in governor.host_db.hosts.values()
        if p.alive and service_id in p.hosted and p.certificate is not None
    ]
    hosting.sort(key=lambda p: (-p.certificate.level, -p.certificate.trust_score, p.host_id))
    return [p.host_id for p in hosting]


def scan_keys(governor: ServiceGovernor) -> dict[str, tuple[int, float, str]]:
    """Every live, certified host's rank key as a scan over every host computes it."""
    return {
        p.host_id: (-p.certificate.level, -p.certificate.trust_score, p.host_id)
        for p in governor.host_db.hosts.values()
        if p.alive and p.certificate is not None
    }


hosts = st.sampled_from(HOST_IDS)
services = st.sampled_from(SERVICE_IDS)
operations = st.one_of(
    st.tuples(st.just("host"), hosts, services, st.booleans()),
    st.tuples(st.just("unhost"), hosts, services),
    st.tuples(st.just("depart"), hosts),
    st.tuples(st.just("preprovision"), hosts, st.lists(services, max_size=3, unique=True)),
    st.tuples(st.just("report"), hosts, services, st.booleans(),
              st.one_of(st.none(), st.integers(1, 5))),
    st.tuples(st.just("overtake"), st.lists(hosts, min_size=2, max_size=2, unique=True), services,
              st.integers(3, 6)),
    st.tuples(st.just("restore")),
    st.tuples(st.just("rewind")),
)


def apply(governor: ServiceGovernor, op: tuple, seq: int) -> ServiceGovernor:
    kind = op[0]
    if kind == "host":
        governor.request_hosting(op[1], op[2], identity_verified=op[3])
    elif kind == "unhost":
        try:
            governor.hosts.unhost(op[1], op[2])
        except NotHostedError:
            pass
    elif kind == "depart":
        governor.hosts.mark_departed(op[1])
    elif kind == "preprovision":
        governor.preprovision_host(op[1], op[2])  # held services included: they are skipped
    elif kind == "report":
        _, host_id, service_id, ok, rating = op
        report(governor, f"rpt-{seq:04d}", seq, host_id, service_id, ok, rating)
    elif kind == "overtake":
        # Several reports of one outcome carry the host past its rival in
        # the service's ranking: successes from behind, failures from ahead.
        _, (host_id, rival_id), service_id, count = op
        governor.preprovision_host(host_id, [service_id])
        governor.preprovision_host(rival_id, [service_id])
        holders = governor.host_db.ranked_hosts(service_id)
        ahead = host_id in holders and rival_id in holders and holders.index(host_id) < holders.index(rival_id)
        for i in range(count):
            report(governor, f"rpt-{seq:04d}-{i}", seq, host_id, service_id, not ahead, None)
    elif kind == "restore":
        governor = restore_governor(snapshot_governor(governor))
    else:  # back to the snapshot taken before any placement
        governor = restore_governor(snapshot_governor(build_governor()))
    return governor


def report(governor: ServiceGovernor, report_id: str, seq: int, host_id: str, service_id: str,
           ok: bool, rating: int | None) -> None:
    if governor.host_db.hosts[host_id].certificate is None:
        return  # trust lives on the certificate; the engine never reports here
    may_report(governor, host_id, service_id)
    governor.ingest_report(ExecutionReport(
        report_id=report_id, host_id=host_id, service_id=service_id,
        requester_pseudonym="anon-index", started_at=float(seq), duration_ms=10.0,
        energy_used_mwh=1, outcome=Outcome.success() if ok else Outcome.failure("fault"),
        rating=rating,
    ))


class TestHostingIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(operations, max_size=40))
    def test_ranking_matches_full_scan_after_every_step(self, ops):
        governor = build_governor()
        returned = []  # every list handed out, with its contents at the time
        for seq, op in enumerate(ops):
            governor = apply(governor, op, seq)
            assert all(ranked == contents for ranked, contents in returned)
            assert governor.host_db.keys == scan_keys(governor)
            for service_id in SERVICE_IDS:
                ranked = governor.host_db.ranked_hosts(service_id)
                assert ranked == scan_ranked(governor, service_id)
                assert governor.host_db.ranked_hosts(service_id) is ranked
                returned.append((ranked, list(ranked)))
            assert governor.check_invariants() == []

    def test_a_reordering_report_builds_a_new_list_and_an_in_place_move_keeps_it(self):
        governor = build_governor()
        governor.request_hosting("host-0", "svc-a")
        governor.request_hosting("host-1", "svc-a")
        before = governor.host_db.ranked_hosts("svc-a")
        assert before == ["host-0", "host-1"]  # equal trust: host id order
        apply(governor, ("report", "host-1", "svc-a", True, None), 1)  # host-1 overtakes host-0
        after = governor.host_db.ranked_hosts("svc-a")
        assert after == ["host-1", "host-0"] and before == ["host-0", "host-1"]
        apply(governor, ("report", "host-1", "svc-a", True, None), 2)  # moves within first place
        assert governor.host_db.ranked_hosts("svc-a") is after
        assert governor.check_invariants() == []

    def test_invariant_reports_a_stale_ranking(self):
        governor = build_governor()
        governor.request_hosting("host-0", "svc-a")
        governor.request_hosting("host-1", "svc-a")
        assert governor.check_invariants() == []
        profile = governor.host_db.hosts["host-0"]
        governor.host_db.hosts["host-0"] = replace(profile, alive=False)  # stored without `put`
        assert governor.check_invariants() == ["hosts: ranking differs from a full scan of the profiles"]

    def test_invariant_reports_a_stale_holder_list(self):
        governor = build_governor()
        governor.request_hosting("host-0", "svc-a")
        governor.request_hosting("host-1", "svc-a")
        assert governor.check_invariants() == []
        governor.host_db.ranked_hosts("svc-a").reverse()  # a handed-out list, mutated
        assert governor.check_invariants() == ["hosts: ranking differs from a full scan of the profiles"]


@pytest.fixture
def handed_out(monkeypatch) -> dict[int, tuple[list[str], list[str]]]:
    """Each distinct list `ranked_hosts` returns, with a copy of its
    contents when it was first returned. Holding the list keeps its id."""
    kept: dict[int, tuple[list[str], list[str]]] = {}
    ranked_hosts = HostDatabase.ranked_hosts

    def keeping(self, service_id):
        holders = ranked_hosts(self, service_id)
        kept.setdefault(id(holders), (holders, list(holders)))
        return holders

    monkeypatch.setattr(HostDatabase, "ranked_hosts", keeping)
    return kept


def changed(handed_out) -> list[list[str]]:
    return [holders for holders, contents in handed_out.values() if holders != contents]


class TestWholeRunsMutateNoHandedOutList:
    @pytest.mark.parametrize("mode", [MODE_MARKETPLACE, MODE_WAN_CLOUD])
    @pytest.mark.parametrize("name", ["default.json", "composite.json"])
    def test_a_bundled_run(self, handed_out, name, mode):
        run_scenario(replace(load_scenario(SCENARIOS / name), baseline_mode=mode))
        assert handed_out
        assert changed(handed_out) == []

    def test_a_parallel_composite_run(self, handed_out):
        run_scenario(scenario_from_dict(composite_scenario(parallel=True)))
        assert handed_out
        assert changed(handed_out) == []
