"""Allocation handshake, resource accounting, report ingestion, assessment."""
import random
from dataclasses import replace

import pytest

from conftest import drop_sc_query, governor_with, make_service
from momcc.domain import ExecutionReport, Outcome, ResourceVector, SecurityLevel
from momcc.errors import (
    DuplicateHostError,
    MissingAgreementError,
    NegotiationRejected,
    NotHostedError,
    UnknownEntityError,
)
from momcc.wire import MessageKind

AMPLE = ResourceVector(2048, 32, 64, 2000)


def make_report(host_id="host-a", service_id="svc-resize", ok=True, rating=None,
                report_id=None, reason="fault", duration=12.0, energy=500, at=0.0):
    outcome = Outcome.success() if ok else Outcome.failure(reason)
    return ExecutionReport(
        report_id=report_id or f"rpt-{random.getrandbits(48):012x}",
        host_id=host_id,
        service_id=service_id,
        requester_pseudonym="anon-abc123",
        started_at=at,
        duration_ms=duration,
        energy_used_mwh=energy if ok or reason == "fault" else 0,
        outcome=outcome,
        rating=rating,
    )


@pytest.fixture
def governor():
    gov = governor_with([
        make_service(),
        make_service(service_id="svc-secure", name="vault", functionality_tag="vault",
                     security_level=SecurityLevel.MEDIUM),
        make_service(service_id="svc-greedy", name="hog",
                     min_resources=ResourceVector(1024, 16, 32, 900)),
    ])
    gov.hosts.register_host("host-a", "Android", "4.0", AMPLE, 20000)
    return gov


class TestRegisterHost:
    def test_new_host_starts_empty(self, governor):
        profile = governor.host_db.get("host-a")
        assert profile.hosted == frozenset()
        assert profile.committed == ResourceVector(0, 0, 0, 0)
        assert profile.certificate is None

    def test_duplicate_registration_errors(self, governor):
        with pytest.raises(DuplicateHostError):
            governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 1)

    def test_registered_host_appears_in_snapshot(self, governor):
        state = governor.hosts.snapshot_state()
        assert "host-a" in state["hosts"]
        assert state["hosts"]["host-a"]["capacity"] == AMPLE.as_dict()


class TestRequestHosting:
    def test_fresh_host_low_service_confirmed_with_trust_establishment(self, governor):
        decision = governor.request_hosting("host-a", "svc-resize")
        assert decision.confirmed
        assert decision.trace == (
            MessageKind.HOSTING_REQUEST,
            MessageKind.SC_QUERY,
            MessageKind.TRUST_ESTABLISH,
            MessageKind.SC_ISSUED,
            MessageKind.ALLOCATION_CONFIRM,
        )
        assert decision.conforms()

    def test_existing_certificate_takes_sc_reply_branch(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        decision = governor.request_hosting("host-a", "svc-greedy")
        assert decision.confirmed
        assert decision.trace == (
            MessageKind.HOSTING_REQUEST,
            MessageKind.SC_QUERY,
            MessageKind.SC_REPLY,
            MessageKind.ALLOCATION_CONFIRM,
        )

    def test_fresh_low_host_denied_medium_service(self, governor):
        decision = governor.request_hosting("host-a", "svc-secure")
        assert not decision.confirmed
        assert decision.reason == "security"
        # Trust establishment still happened: the host now holds a Low SC.
        cert = governor.security.get_certificate("host-a")
        assert cert is not None and cert.level == SecurityLevel.LOW

    def test_small_memory_host_denied_on_resources(self, governor):
        governor.hosts.register_host("host-tiny", "Android", "4.0",
                                     ResourceVector(1024, 1, 64, 1000), 5000)
        decision = governor.request_hosting("host-tiny", "svc-resize")  # needs 2 MB
        assert not decision.confirmed
        assert decision.reason == "resources"

    def test_platform_mismatch_denied_first(self, governor):
        governor.hosts.register_host("host-old", "Android", "3.1",
                                     ResourceVector(1024, 1, 64, 1000), 5000)
        # Both platform and resources fail; check order pins the reason.
        decision = governor.request_hosting("host-old", "svc-resize")
        assert decision.reason == "platform"

    def test_confirmed_allocation_reserves_resources(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        profile = governor.host_db.get("host-a")
        assert profile.committed == ResourceVector(512, 2, 5, 500)
        assert "svc-resize" in profile.hosted

    def test_denied_decision_mutates_nothing(self, governor):
        before = governor.host_db.get("host-a")
        decision = governor.request_hosting("host-a", "svc-secure")
        assert not decision.confirmed
        after = governor.host_db.get("host-a")
        assert after.committed == before.committed
        assert after.hosted == before.hosted

    def test_duplicate_hosting_denied(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        decision = governor.request_hosting("host-a", "svc-resize")
        assert not decision.confirmed
        assert decision.reason == "duplicate"

    def test_unknown_ids_error_distinct_from_denial(self, governor):
        with pytest.raises(UnknownEntityError):
            governor.request_hosting("host-ghost", "svc-resize")
        with pytest.raises(UnknownEntityError):
            governor.request_hosting("host-a", "svc-ghost")

    def test_deprecated_service_denied(self, governor):
        governor.registry.deprecate_service("svc-resize", "quality")
        decision = governor.request_hosting("host-a", "svc-resize")
        assert not decision.confirmed
        assert decision.reason == "deprecated"

    def test_decision_is_pure_function_of_state(self, governor):
        """Replays on identical state produce identical decisions."""
        first = governor.request_hosting("host-a", "svc-secure")
        second = governor.request_hosting("host-a", "svc-secure")
        assert (first.confirmed, first.reason) == (second.confirmed, second.reason)

    def test_confirmed_allocation_establishes_agreement(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        agreement = governor.billing.agreement_for("svc-resize")
        assert agreement is not None
        assert agreement.host_share == pytest.approx(0.4)


class TestUnsettleableAgreement:
    """A service whose developer share plus the commission exceeds 1 (its
    developer negotiated a smaller share) leaves no host share to agree on."""

    @pytest.fixture
    def governor(self):
        gov = governor_with([make_service(service_id="svc-fair")])  # negotiates dev-alpha at 0.4
        gov.registry.register_service(make_service(developer_share=0.9))  # 0.9 + 0.2 > 1
        gov.hosts.register_host("host-a", "Android", "4.0", AMPLE, 20000)
        return gov

    def test_hosting_request_is_rejected_before_the_handshake_writes(self, governor):
        with pytest.raises(NegotiationRejected):
            governor.request_hosting("host-a", "svc-resize")
        profile = governor.host_db.get("host-a")
        assert profile.hosted == frozenset() and profile.certificate is None
        assert governor.hosts.decisions == []
        assert governor.billing.agreement_for("svc-resize") is None
        assert governor.check_invariants() == []

    def test_preprovisioning_places_nothing_without_an_agreement(self, governor):
        with pytest.raises(NegotiationRejected):
            governor.preprovision_host("host-a", ["svc-resize"])
        assert governor.host_db.get("host-a").hosted == frozenset()
        assert governor.check_invariants() == []

    def test_invariant_reports_a_hosted_service_without_an_agreement(self, governor):
        governor.hosts.place("host-a", governor.registry.get("svc-resize"))  # no checks, no agreement
        assert governor.check_invariants() == [
            "host host-a: service svc-resize hosted without an agreement"
        ]


class TestUnhost:
    def test_unhost_restores_committed(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.hosts.unhost("host-a", "svc-resize")
        profile = governor.host_db.get("host-a")
        assert profile.committed == ResourceVector(0, 0, 0, 0)
        assert profile.hosted == frozenset()

    def test_unhost_twice_errors(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.hosts.unhost("host-a", "svc-resize")
        with pytest.raises(NotHostedError):
            governor.hosts.unhost("host-a", "svc-resize")

    def test_preprovisioning_a_held_service_commits_it_once(self, governor):
        governor.preprovision_host("host-a", ["svc-resize"])
        governor.preprovision_host("host-a", ["svc-resize"])
        assert governor.host_db.get("host-a").committed == ResourceVector(512, 2, 5, 500)
        governor.hosts.unhost("host-a", "svc-resize")
        profile = governor.host_db.get("host-a")
        assert (profile.hosted, profile.committed) == (frozenset(), ResourceVector(0, 0, 0, 0))
        assert governor.check_invariants() == []

    def test_invariants_catch_committed_that_differs_from_hosted(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        profile = governor.host_db.get("host-a")
        governor.host_db.hosts["host-a"] = replace(
            profile, committed=profile.committed.plus(ResourceVector(1, 0, 0, 0))
        )
        assert governor.check_invariants() == [
            "host host-a: committed differs from its hosted services"
        ]

    def test_random_host_unhost_sequences_keep_capacity_invariant(self):
        """Stateful property: capacity covers committed at every step."""
        rng = random.Random(404)
        services = [
            make_service(
                service_id=f"svc-{i}", name=f"s {i}",
                min_resources=ResourceVector(
                    rng.randint(1, 700), rng.randint(1, 12),
                    rng.randint(1, 20), rng.randint(1, 600),
                ),
            )
            for i in range(6)
        ]
        governor = governor_with(services)
        governor.hosts.register_host("host-x", "Android", "4.0", AMPLE, 10**6)
        for _ in range(400):
            sid = f"svc-{rng.randrange(6)}"
            if rng.random() < 0.6:
                governor.request_hosting("host-x", sid)
            else:
                try:
                    governor.hosts.unhost("host-x", sid)
                except NotHostedError:
                    pass
            profile = governor.host_db.get("host-x")
            assert profile.capacity.covers(profile.committed)
        assert governor.check_invariants() == []


class TestIngestReport:
    def test_single_success_gives_availability_one(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report())
        assert governor.host_db.get("host-a").availability_ratio == 1.0

    def test_sfss_stream_gives_three_quarters(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        pattern = [True, False, True, True]
        for ok in pattern:
            governor.ingest_report(make_report(ok=ok))
        # Counting oracle.
        assert governor.host_db.get("host-a").availability_ratio == sum(pattern) / len(pattern)
        assert governor.host_db.get("host-a").availability_ratio == 0.75

    def test_first_rated_report_sets_mean_rating(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report(rating=5))
        assert governor.host_db.get("host-a").mean_rating == 5.0

    def test_unknown_host_or_service_errors(self, governor):
        with pytest.raises(UnknownEntityError):
            governor.ingest_report(make_report(host_id="host-ghost"))
        with pytest.raises(UnknownEntityError):
            governor.ingest_report(make_report(service_id="svc-ghost"))

    def test_redelivery_is_absorbed(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        report = make_report(report_id="rpt-fixed")
        assert governor.ingest_report(report) is True
        assert governor.ingest_report(report) is False
        assert governor.host_db.get("host-a").attempts == 1

    def test_battery_view_decreases_with_reported_energy(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report(energy=500))
        assert governor.host_db.get("host-a").battery_mwh == 19500

    def test_report_from_host_without_certificate_changes_nothing(self, governor):
        report = make_report(report_id="rpt-early")
        with pytest.raises(UnknownEntityError):
            governor.ingest_report(report)
        assert governor.host_db.reports == []
        assert governor.host_db.seen_report_ids == set()
        profile = governor.host_db.get("host-a")
        assert (profile.attempts, profile.battery_mwh) == (0, 20000)
        # Once the host holds a certificate, the same report is taken.
        governor.request_hosting("host-a", "svc-resize")
        assert governor.ingest_report(report) is True
        assert governor.host_db.get("host-a").attempts == 1

    def test_report_for_a_service_without_agreement_changes_nothing(self, governor):
        """A success for a service never placed has no agreement to meter:
        it is rejected before any write, and the retry is judged afresh."""
        governor.request_hosting("host-a", "svc-resize")  # certificate; svc-secure stays unplaced
        before = governor.host_db.get("host-a")
        ranked_before = {sid: list(keys) for sid, keys in governor.host_db.ranked.items()}
        report = make_report(service_id="svc-secure", report_id="rpt-unplaced")
        with pytest.raises(MissingAgreementError):
            governor.ingest_report(report)
        assert governor.host_db.reports == []
        assert governor.host_db.seen_report_ids == set()
        assert governor.host_db.get("host-a") == before
        assert governor.host_db.ranked == ranked_before
        assert governor.billing.audit() == []
        # Once the service is placed, its agreement exists and the retry is metered.
        governor.hosts.register_host("host-b", "Android", "4.0", AMPLE, 20000)
        governor.preprovision_host("host-b", ["svc-secure"])
        assert governor.ingest_report(report) is True
        assert governor.billing.already_metered("rpt-unplaced")
        assert governor.host_db.get("host-a").attempts == 1
        assert governor.check_invariants() == []


class TestAssessHosts:
    def test_perfect_history_scores_one(self, governor):
        """Max availability, max ratings, and a maxed trust score hit 1.0."""
        from dataclasses import replace
        from momcc.domain import SecurityCertificate

        governor.request_hosting("host-a", "svc-resize")
        for i in range(5):
            governor.ingest_report(make_report(rating=5, report_id=f"rpt-{i}"))
        db = governor.host_db
        db.hosts["host-a"] = replace(
            db.hosts["host-a"],
            certificate=SecurityCertificate("host-a", SecurityLevel.LOW, 1.0, 5, 5, 0.0, False),
        )
        (assessment,) = governor.hosts.assess_hosts(window=10)
        assert assessment.assessed
        assert assessment.score == pytest.approx(1.0)

    def test_host_without_reports_is_unassessed(self, governor):
        (assessment,) = governor.hosts.assess_hosts(window=10)
        assert not assessment.assessed
        assert assessment.score is None

    def test_three_report_fixture_matches_hand_computed_mean(self, governor):
        """Arithmetic oracle for the weighted mean on [S(5), F(-), S(4)]."""
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report(ok=True, rating=5, report_id="r1"))
        governor.ingest_report(make_report(ok=False, report_id="r2"))
        governor.ingest_report(make_report(ok=True, rating=4, report_id="r3"))
        trust = governor.security.get_certificate("host-a").trust_score
        availability = 2 / 3
        rating_norm = ((5 - 1) / 4 + (4 - 1) / 4) / 2
        expected = 0.5 * availability + 0.3 * rating_norm + 0.2 * trust
        (assessment,) = governor.hosts.assess_hosts(window=10)
        assert assessment.score == pytest.approx(expected)

    def test_window_limits_evidence(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        for i in range(4):
            governor.ingest_report(make_report(ok=False, report_id=f"old-{i}"))
        for i in range(2):
            governor.ingest_report(make_report(ok=True, rating=5, report_id=f"new-{i}"))
        (windowed,) = governor.hosts.assess_hosts(window=2)
        trust = governor.security.get_certificate("host-a").trust_score
        assert windowed.score == pytest.approx(0.5 * 1.0 + 0.3 * 1.0 + 0.2 * trust)

    def test_ordering_assessed_first_then_by_score(self, governor):
        governor.hosts.register_host("host-b", "Android", "4.0", AMPLE, 9000)
        governor.hosts.register_host("host-c", "Android", "4.0", AMPLE, 9000)
        governor.request_hosting("host-b", "svc-resize")
        governor.ingest_report(make_report(host_id="host-b", rating=5))
        order = [a.host_id for a in governor.hosts.assess_hosts(window=5)]
        assert order[0] == "host-b"
        assert set(order[1:]) == {"host-a", "host-c"}

    def test_zero_window_means_no_evidence(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report())
        (assessment,) = governor.hosts.assess_hosts(window=0)
        assert not assessment.assessed


class TestTraceConformance:
    def test_all_confirmed_traces_conform(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.request_hosting("host-a", "svc-greedy")
        assert governor.hosts.count_trace_violations() == 0

    def test_injected_handshake_fault_is_detected(self, governor, monkeypatch):
        drop_sc_query(monkeypatch)
        decision = governor.request_hosting("host-a", "svc-resize")
        assert decision.confirmed
        assert not decision.conforms()
        assert governor.hosts.count_trace_violations() == 1
