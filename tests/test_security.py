"""Certificate issue, trust updates, promotion/demotion, linearizability."""
import random
import threading
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from conftest import governor_with, make_service
from momcc.domain import (
    ExecutionReport,
    Outcome,
    ResourceVector,
    SecurityCertificate,
    SecurityLevel,
)
from momcc.errors import UnknownEntityError
from momcc.governor.security import TrustPolicy, next_level, observation_value, update_trust

POLICY = TrustPolicy()
AMPLE = ResourceVector(2048, 32, 64, 2000)


def report_for(ok=True, rating=None):
    return ExecutionReport(
        report_id=f"rpt-{random.getrandbits(40):010x}",
        host_id="host-a",
        service_id="svc-resize",
        requester_pseudonym="anon-42",
        started_at=0.0,
        duration_ms=10.0,
        energy_used_mwh=100,
        outcome=Outcome.success() if ok else Outcome.failure("fault"),
        rating=rating,
    )


def cert_with(level=SecurityLevel.LOW, score=0.0, attempts=0):
    return SecurityCertificate("host-a", level, score, attempts, 0.0, False)


@pytest.fixture
def governor():
    gov = governor_with([make_service()])
    gov.hosts.register_host("host-a", "Android", "4.0", AMPLE, 9000)
    return gov


def certified(governor, host_id: str, identity_verified: bool = False):
    """The certificate a host is first issued, here by preprovisioning it
    with no services."""
    governor.preprovision_host(host_id, [], identity_verified=identity_verified)
    return governor.host_db.get(host_id).certificate


class TestIssue:
    def test_fresh_unverified_host_gets_lowest_level_zero_score(self, governor):
        cert = certified(governor, "host-a", identity_verified=False)
        assert cert.level == SecurityLevel.LOW
        assert cert.trust_score == 0.0
        assert cert.attempts == 0

    def test_verified_host_gets_score_bonus_not_level(self, governor):
        cert = certified(governor, "host-a", identity_verified=True)
        assert cert.level == SecurityLevel.LOW
        assert cert.trust_score == pytest.approx(0.1)

    def test_the_handshake_issues_the_same_first_certificate(self, governor):
        decision = governor.request_hosting("host-a", "svc-resize", identity_verified=True, at=5.0)
        assert decision.trace_names() == "HostingRequest,ScQuery,TrustEstablish,ScIssued,AllocationConfirm"
        cert = governor.host_db.get("host-a").certificate
        assert (cert.level, cert.trust_score, cert.issued_at) == (SecurityLevel.LOW, pytest.approx(0.1), 5.0)

    def test_a_held_certificate_is_kept(self, governor):
        first = certified(governor, "host-a")
        certified(governor, "host-a", identity_verified=True)
        assert governor.host_db.get("host-a").certificate is first

    def test_issue_for_unknown_host_errors(self, governor):
        with pytest.raises(UnknownEntityError):
            certified(governor, "host-ghost")


class TestGet:
    def test_unknown_host_is_absent(self, governor):
        with pytest.raises(UnknownEntityError):
            governor.host_db.get("host-ghost")

    def test_present_after_issue(self, governor):
        certified(governor, "host-a")
        cert = governor.host_db.get("host-a").certificate
        assert cert is not None and cert.level == SecurityLevel.LOW

    def test_concurrent_issue_and_get_linearize(self):
        """Readers racing the issuer see either nothing or a complete record."""
        governor = governor_with([make_service()])
        for i in range(64):
            governor.hosts.register_host(f"h{i:02d}", "Android", "4.0", AMPLE, 1000)
        observed = []
        errors = []

        def issuer():
            for i in range(64):
                try:
                    certified(governor, f"h{i:02d}", i % 2 == 0)
                except Exception as exc:  # pragma: no cover - failure diagnostics
                    errors.append(exc)

        def reader():
            for _ in range(400):
                for i in (0, 31, 63):
                    cert = governor.host_db.get(f"h{i:02d}").certificate
                    if cert is not None:
                        observed.append(cert)

        threads = [threading.Thread(target=issuer)] + [
            threading.Thread(target=reader) for _ in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for cert in observed:
            assert cert.level == SecurityLevel.LOW
            assert cert.attempts == 0
            assert cert.trust_score in (0.0, 0.1)


class TestUpdateFormula:
    def test_single_success_from_zero(self):
        # (1 - 0.1) * 0 + 0.1 * 1 = 0.1
        cert = update_trust(cert_with(score=0.0), report_for(ok=True), POLICY)
        assert cert.trust_score == pytest.approx(0.1)
        assert cert.attempts == 1

    def test_rating_blends_into_observation(self):
        # o = 0.7 * 1 + 0.3 * ((3-1)/4) = 0.85
        assert observation_value(report_for(ok=True, rating=3), POLICY) == pytest.approx(0.85)
        # Unrated: observation is the bare outcome.
        assert observation_value(report_for(ok=True), POLICY) == 1.0
        assert observation_value(report_for(ok=False), POLICY) == 0.0

    def test_all_success_stream_is_monotone_toward_one(self):
        cert = cert_with()
        previous = cert.trust_score
        for _ in range(200):
            cert = update_trust(cert, report_for(ok=True, rating=5), POLICY)
            assert cert.trust_score >= previous
            previous = cert.trust_score
        assert cert.trust_score > 0.99

    def test_all_failure_stream_is_monotone_toward_zero(self):
        cert = cert_with(score=0.9, level=SecurityLevel.HIGH, attempts=50)
        previous = cert.trust_score
        for _ in range(200):
            cert = update_trust(cert, report_for(ok=False, rating=1), POLICY)
            assert cert.trust_score <= previous
            previous = cert.trust_score
        assert cert.trust_score < 0.01

    @given(st.lists(st.tuples(st.booleans(), st.one_of(st.none(), st.integers(1, 5))),
                    max_size=60))
    def test_score_stays_in_bounds(self, stream):
        cert = cert_with()
        for ok, rating in stream:
            cert = update_trust(cert, report_for(ok=ok, rating=rating), POLICY)
            assert 0.0 <= cert.trust_score <= 1.0


class TestLevelTransitions:
    def test_promotion_needs_score_and_attempts(self):
        assert next_level(SecurityLevel.LOW, 0.6, 9, POLICY) == SecurityLevel.LOW
        assert next_level(SecurityLevel.LOW, 0.49, 50, POLICY) == SecurityLevel.LOW
        assert next_level(SecurityLevel.LOW, 0.5, 10, POLICY) == SecurityLevel.MEDIUM

    def test_no_two_level_jump_even_when_high_thresholds_met(self):
        assert next_level(SecurityLevel.LOW, 0.95, 100, POLICY) == SecurityLevel.MEDIUM

    def test_demotion_uses_hysteresis(self):
        """At Medium (threshold 0.5, hysteresis 0.05): demote only below 0.45."""
        cert = cert_with(level=SecurityLevel.MEDIUM, score=0.52, attempts=20)
        cert = update_trust(cert, report_for(ok=False), POLICY)
        # 0.52 * 0.9 = 0.468, still >= 0.45
        assert cert.trust_score == pytest.approx(0.468)
        assert cert.level == SecurityLevel.MEDIUM
        cert = update_trust(cert, report_for(ok=False), POLICY)
        # 0.468 * 0.9 = 0.4212 < 0.45: demoted one level
        assert cert.trust_score == pytest.approx(0.4212)
        assert cert.level == SecurityLevel.LOW

    def test_high_demotes_to_medium_below_point_75(self):
        assert next_level(SecurityLevel.HIGH, 0.749, 100, POLICY) == SecurityLevel.MEDIUM
        assert next_level(SecurityLevel.HIGH, 0.75, 100, POLICY) == SecurityLevel.HIGH

    def test_random_streams_never_jump_two_levels(self):
        rng = random.Random(8)
        for _ in range(300):
            cert = cert_with()
            for _ in range(rng.randint(1, 60)):
                before = cert.level
                rating = rng.choice([None, 1, 2, 3, 4, 5])
                cert = update_trust(cert, report_for(ok=rng.random() < 0.7, rating=rating), POLICY)
                assert abs(int(cert.level) - int(before)) <= 1

    def test_policy_requires_dominating_high_thresholds(self):
        with pytest.raises(ValueError):
            TrustPolicy(promote_medium=(0.5, 10), promote_high=(0.5, 30))
        with pytest.raises(ValueError):
            TrustPolicy(promote_medium=(0.5, 10), promote_high=(0.8, 10))


class TestCrossModuleAdmission:
    def test_level_gates_exactly_what_admission_allows(self, governor):
        """A certificate admits exactly the services level_admits permits."""
        from momcc.domain import level_admits

        services = {
            SecurityLevel.LOW: make_service(service_id="svc-low", name="low svc"),
            SecurityLevel.MEDIUM: make_service(
                service_id="svc-med", name="med svc",
                functionality_tag="med", security_level=SecurityLevel.MEDIUM,
            ),
            SecurityLevel.HIGH: make_service(
                service_id="svc-high", name="high svc",
                functionality_tag="high", security_level=SecurityLevel.HIGH,
            ),
        }
        for desc in services.values():
            if not governor.registry.is_known(desc.service_id):
                governor.registry.register_service(desc)
        certified(governor, "host-a")
        for cert_level in SecurityLevel:
            db = governor.host_db
            db.hosts["host-a"] = replace(
                db.hosts["host-a"],
                certificate=replace(db.hosts["host-a"].certificate, level=cert_level),
            )
            for svc_level, desc in services.items():
                decision = governor.request_hosting("host-a", desc.service_id)
                assert decision.confirmed == level_admits(cert_level, svc_level)
                if decision.confirmed:
                    governor.hosts.unhost("host-a", desc.service_id)
