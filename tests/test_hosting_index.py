"""The host database's discovery ranking against a full scan.

`HostDatabase.ranked_hosts` returns the kept host list of the ranking,
so every path that changes a profile's hosted set, liveness or
certificate must keep the ranking and the kept lists in step. A list
once returned is never mutated: earlier discovery replies and their
trace records hold it.
"""
from dataclasses import replace

from hypothesis import given, settings, strategies as st

from conftest import make_service
from momcc.domain import ExecutionReport, Outcome, ResourceVector, SecurityLevel
from momcc.errors import NotHostedError
from momcc.governor import GovernorConfig, ServiceGovernor, TrustPolicy
from momcc.snapshot import restore_governor, snapshot_governor

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


hosts = st.sampled_from(HOST_IDS)
services = st.sampled_from(SERVICE_IDS)
operations = st.one_of(
    st.tuples(st.just("host"), hosts, services, st.booleans()),
    st.tuples(st.just("unhost"), hosts, services),
    st.tuples(st.just("depart"), hosts),
    st.tuples(st.just("preprovision"), hosts, st.lists(services, max_size=3, unique=True)),
    st.tuples(st.just("report"), hosts, services, st.booleans(),
              st.one_of(st.none(), st.integers(1, 5))),
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
        if governor.host_db.hosts[host_id].certificate is None:
            return governor  # trust lives on the certificate; the engine never reports here
        ok = ok and governor.billing.agreement_for(service_id) is not None
        governor.ingest_report(ExecutionReport(
            report_id=f"rpt-{seq:04d}", host_id=host_id, service_id=service_id,
            requester_pseudonym="anon-index", started_at=float(seq), duration_ms=10.0,
            energy_used_mwh=1, outcome=Outcome.success() if ok else Outcome.failure("fault"),
            rating=rating,
        ))
    elif kind == "restore":
        governor = restore_governor(snapshot_governor(governor))
    else:  # back to the snapshot taken before any placement
        governor = restore_governor(snapshot_governor(build_governor()))
    return governor


class TestHostingIndex:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(operations, max_size=40))
    def test_ranking_matches_full_scan_after_every_step(self, ops):
        governor = build_governor()
        returned = []  # every list handed out, with its contents at the time
        for seq, op in enumerate(ops):
            governor = apply(governor, op, seq)
            assert all(ranked == contents for ranked, contents in returned)
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
        stale = governor.host_db.ranked_hosts("svc-a")
        governor.request_hosting("host-1", "svc-a")
        assert governor.check_invariants() == []
        governor.host_db.ranked_ids["svc-a"] = stale  # kept across a change that drops it
        assert governor.check_invariants() == ["hosts: kept holder list differs from the ranking"]
