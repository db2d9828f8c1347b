"""Allocation handshake, resource accounting, report ingestion, assessment."""
import random
from dataclasses import replace

import pytest

from conftest import deprecate, drop_sc_query, governor_with, make_service
from momcc.domain import ExecutionReport, Outcome, ResourceVector, SecurityLevel
from momcc.errors import (
    DuplicateHostError,
    NotHostedError,
    SnapshotIntegrityError,
    UnknownEntityError,
)
from momcc.governor.registry import ServiceStatus
from momcc.snapshot import _digest, restore_governor, snapshot_governor
from momcc.wire import MessageKind, service_to_dict

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

    def test_a_version_with_a_final_newline_is_refused_and_not_journaled(self, governor):
        journal = list(governor.journal)
        with pytest.raises(ValueError, match="does not match"):
            governor.hosts.register_host("host-b", "Android", "4.0\n", AMPLE, 1)
        assert governor.journal == journal
        assert "host-b" not in governor.host_db.hosts

    def test_registered_host_appears_in_snapshot(self, governor):
        assert governor.journal[-1] == ("hosts.register_host", "host-a", "Android", "4.0", AMPLE, 20000)
        saved = snapshot_governor(governor)["payload"]["journal"][-1]
        assert saved == ["hosts.register_host", "host-a", "Android", "4.0", AMPLE.as_dict(), 20000]


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
        cert = governor.host_db.get("host-a").certificate
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
        assert deprecate(governor, "svc-resize") == ["svc-resize"]
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
    """A service whose developer share plus the commission exceeds 1 leaves
    no host share to agree on. Registration rejects one, so a restore
    replaying its registration refuses it, and `check_invariants()`
    reports one stored by other means, so every stored service can be
    settled when it is placed."""

    def test_a_restore_rejects_it(self):
        gov = governor_with([make_service(service_id="svc-fair")])  # negotiates dev-alpha at 0.4
        snap = snapshot_governor(gov)
        saved = service_to_dict(make_service(developer_share=0.9))  # 0.9 + 0.2 > 1
        snap["payload"]["journal"].append(["registry.register_service", saved, True])
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == (
            "snapshot journal entry 2 does not replay: RegistrationRejected: "
            "service 'svc-resize': developer share 0.9 plus commission 0.2 exceeds 1"
        )

    def test_invariant_reports_a_stored_one(self):
        gov = governor_with([make_service(service_id="svc-fair")])
        gov.registry.db.add(make_service(developer_share=0.9))  # stored without registration's vetting
        gov.registry.db.status["svc-resize"] = ServiceStatus.ACTIVE
        assert gov.check_invariants() == [
            "service 'svc-resize': developer share 0.9 plus commission 0.2 exceeds 1"
        ]

    def test_invariant_reports_a_hosted_service_without_an_agreement(self, governor):
        profile = governor.host_db.get("host-a")
        governor.host_db.put(replace(  # stored directly: `place` would settle the agreement
            profile,
            committed=profile.committed.plus(governor.registry.get("svc-resize").min_resources),
            hosted=profile.hosted | {"svc-resize"},
        ))
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

    @pytest.mark.parametrize("service_ids", [["svc-greedy"], ["svc-resize", "svc-secure"]],
                             ids=["one-need-too-large", "two-needs-too-large-together"])
    def test_preprovisioning_beyond_free_capacity_writes_nothing(self, governor, service_ids):
        """The capacity check runs before the first write: no certificate,
        no agreement, no placed pair and no journal entry are left behind."""
        governor.hosts.register_host("host-small", "Android", "4.0", ResourceVector(1000, 4, 10, 1000), 1)
        journal = list(governor.journal)
        with pytest.raises(ValueError, match="capacity must cover committed resources"):
            governor.preprovision_host("host-small", service_ids)
        profile = governor.host_db.get("host-small")
        assert (profile.certificate, profile.hosted) == (None, frozenset())
        assert profile.committed == ResourceVector(0, 0, 0, 0)
        assert all(governor.billing.agreement_for(sid) is None for sid in service_ids)
        assert governor.hosts._placed == set()
        assert governor.journal == journal
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
        cert = governor.host_db.get("host-a").certificate
        assert cert.successes / cert.attempts == 1.0

    def test_sfss_stream_gives_three_quarters(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        pattern = [True, False, True, True]
        for ok in pattern:
            governor.ingest_report(make_report(ok=ok))
        cert = governor.host_db.get("host-a").certificate
        # Counting oracle.
        assert cert.successes / cert.attempts == sum(pattern) / len(pattern)
        assert cert.successes / cert.attempts == 0.75

    def test_first_rated_report_sets_mean_rating(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report(rating=5))
        ratings = [r.rating for r in governor.host_db.reports_for_host("host-a") if r.rating is not None]
        assert sum(ratings) / len(ratings) == 5.0

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
        assert governor.host_db.get("host-a").certificate.attempts == 1

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
        assert (profile.certificate, profile.battery_mwh) == (None, 20000)
        assert governor.host_db.reports_for_host("host-a") == []
        # Once the host holds a certificate, the same report is taken.
        governor.request_hosting("host-a", "svc-resize")
        assert governor.ingest_report(report) is True
        assert governor.host_db.get("host-a").certificate.attempts == 1

    def test_report_on_a_service_its_host_never_held_changes_nothing(self, governor):
        """A report on a service its host was never placed on is refused
        before any write, even though another host's placement settled the
        service's agreement; the retry is judged afresh."""
        governor.request_hosting("host-a", "svc-resize")  # certificate; host-a never holds svc-secure
        governor.hosts.register_host("host-b", "Android", "4.0", AMPLE, 20000)
        governor.preprovision_host("host-b", ["svc-secure"])  # settles svc-secure's agreement
        before = governor.host_db.get("host-a")
        ranked_before = {sid: list(holders) for sid, holders in governor.host_db.ranked.items()}
        report = make_report(service_id="svc-secure", report_id="rpt-unplaced")
        with pytest.raises(UnknownEntityError):
            governor.ingest_report(report)
        assert governor.host_db.reports == []
        assert governor.host_db.seen_report_ids == set()
        assert governor.host_db.get("host-a") == before
        assert governor.host_db.ranked == ranked_before
        assert governor.billing.audit() == []
        # Once host-a is placed on the service, the retry is metered.
        governor.preprovision_host("host-a", ["svc-secure"])
        assert governor.ingest_report(report) is True
        assert [entry.correlation_id for entry in governor.billing.audit()] == ["rpt-unplaced"]
        assert governor.host_db.get("host-a").certificate.attempts == 1
        assert governor.check_invariants() == []

    def test_a_report_in_flight_after_an_unhost_or_a_departure_still_counts(self, governor):
        governor.request_hosting("host-a", "svc-resize")
        governor.hosts.unhost("host-a", "svc-resize")
        assert governor.ingest_report(make_report(report_id="rpt-after-unhost")) is True
        governor.hosts.mark_departed("host-a")
        assert governor.ingest_report(make_report(report_id="rpt-after-departure")) is True
        assert [entry.correlation_id for entry in governor.billing.audit()] == [
            "rpt-after-unhost", "rpt-after-departure",
        ]
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
        trust = governor.host_db.get("host-a").certificate.trust_score
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
        trust = governor.host_db.get("host-a").certificate.trust_score
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
