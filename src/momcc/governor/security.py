"""Security governor: certificate issue and reputation-trust maintenance.

A nascent host gets the lowest certificate; every execution report moves
its trust score by an exponentially weighted average, and the level is
promoted or demoted one step at a time against configured thresholds
with hysteresis. Certificates live on the host profiles inside the
shared host database.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, replace

from ..domain import ExecutionReport, SecurityCertificate, SecurityLevel
from ..errors import CertificateExistsError, CertificateMismatchError
from .store import HostDatabase


@dataclass(frozen=True)
class TrustPolicy:
    """Knobs for the reputation model.

    alpha            smoothing factor of the score average, in (0, 1)
    promote_medium   (min score, min attempts) to reach MEDIUM
    promote_high     (min score, min attempts) to reach HIGH
    hysteresis       score slack below a level's threshold before demotion
    rating_weight    blend weight of a consumer rating into one observation
    verified_bonus   one-time score credit for identity-verified hosts
    """

    alpha: float = 0.1
    promote_medium: tuple[float, int] = (0.5, 10)
    promote_high: tuple[float, int] = (0.8, 30)
    hysteresis: float = 0.05
    rating_weight: float = 0.3
    verified_bonus: float = 0.1

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if not (self.promote_high[0] > self.promote_medium[0] and self.promote_high[1] > self.promote_medium[1]):
            raise ValueError("promote_high thresholds must strictly dominate promote_medium")
        if self.hysteresis < 0:
            raise ValueError("hysteresis must be >= 0")
        if not 0.0 <= self.rating_weight <= 1.0:
            raise ValueError("rating_weight must be in [0, 1]")


def next_level(current: SecurityLevel, score: float, attempts: int, policy: TrustPolicy) -> SecurityLevel:
    """One promotion/demotion step at most; never a two-level jump."""
    med_score, med_attempts = policy.promote_medium
    high_score, high_attempts = policy.promote_high
    if current == SecurityLevel.LOW:
        if score >= med_score and attempts >= med_attempts:
            return SecurityLevel.MEDIUM
        return current
    if current == SecurityLevel.MEDIUM:
        if score >= high_score and attempts >= high_attempts:
            return SecurityLevel.HIGH
        if score < med_score - policy.hysteresis:
            return SecurityLevel.LOW
        return current
    # HIGH
    if score < high_score - policy.hysteresis:
        return SecurityLevel.MEDIUM
    return current


def observation_value(report: ExecutionReport, policy: TrustPolicy) -> float:
    """Blend outcome and optional rating into one observation in [0, 1]."""
    s = 1.0 if report.outcome.ok else 0.0
    if report.rating is None:
        return s
    r = (report.rating - 1) / 4.0
    w = policy.rating_weight
    return (1.0 - w) * s + w * r


def update_trust(cert: SecurityCertificate, report: ExecutionReport, policy: TrustPolicy) -> SecurityCertificate:
    """Pure trust update: new certificate from one execution report."""
    if report.host_id != cert.host_id:
        raise CertificateMismatchError(
            f"report for {report.host_id!r} applied to certificate of {cert.host_id!r}"
        )
    o = observation_value(report, policy)
    score = (1.0 - policy.alpha) * cert.trust_score + policy.alpha * o
    score = min(1.0, max(0.0, score))
    attempts = cert.attempts + 1
    successes = cert.successes + (1 if report.outcome.ok else 0)
    # The constructor, not `dataclasses.replace`, which costs more on the
    # report path; `__post_init__` still checks the result.
    return SecurityCertificate(
        host_id=cert.host_id,
        level=next_level(cert.level, score, attempts, policy),
        trust_score=score,
        attempts=attempts,
        successes=successes,
        issued_at=cert.issued_at,
        identity_verified=cert.identity_verified,
    )


class SecurityGovernor:
    """Issues certificates on the shared host database and holds the trust
    policy; the host registry applies `update_trust` with it on each report,
    in the same profile write as the report's counters."""

    def __init__(self, host_db: HostDatabase, policy: TrustPolicy, lock: threading.RLock):
        self.host_db = host_db
        self.policy = policy
        self._lock = lock

    def issue_certificate(self, host_id: str, identity_verified: bool, at: float = 0.0) -> SecurityCertificate:
        """Issue the lowest certificate to a registered host without one.

        Identity verification grants a one-time score bonus, never a
        level jump.
        """
        with self._lock:
            profile = self.host_db.get(host_id)
            if profile.certificate is not None:
                raise CertificateExistsError(f"host {host_id!r} already holds a certificate")
            score = min(1.0, self.policy.verified_bonus) if identity_verified else 0.0
            cert = SecurityCertificate(
                host_id=host_id,
                level=SecurityLevel.LOW,
                trust_score=score,
                attempts=0,
                successes=0,
                issued_at=at,
                identity_verified=identity_verified,
            )
            self.host_db.put(replace(profile, certificate=cert))
            return cert

    def get_certificate(self, host_id: str) -> SecurityCertificate | None:
        with self._lock:
            profile = self.host_db.hosts.get(host_id)
            return profile.certificate if profile is not None else None
