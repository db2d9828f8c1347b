"""Security governor: certificate issue and reputation-trust maintenance.

A nascent host gets the lowest certificate, in its first admission
handshake or when the governor preprovisions it; every execution report
moves its trust score by an exponentially weighted average, and the
level is promoted or demoted one step at a time against configured
thresholds with hysteresis. Certificates live on the host profiles
inside the shared host database. The unit has no public write: its
callers issue under the governor's lock, and their calls are the ones
journaled.
"""
from __future__ import annotations

from dataclasses import dataclass

from ..domain import ExecutionReport, SecurityCertificate, SecurityLevel, profile_with
from .store import HostDatabase


@dataclass(frozen=True)
class TrustPolicy:
    """Knobs for the reputation model.

    alpha            smoothing factor of the score average, in (0, 1)
    promote_medium   (min score, min attempts) to reach MEDIUM
    promote_high     (min score, min attempts) to reach HIGH
    hysteresis       score slack below a level's threshold before demotion
    rating_weight    blend weight of a consumer rating into one observation
    """

    alpha: float = 0.1
    promote_medium: tuple[float, int] = (0.5, 10)
    promote_high: tuple[float, int] = (0.8, 30)
    hysteresis: float = 0.05
    rating_weight: float = 0.3

    def __post_init__(self) -> None:
        # A rule between two fields; the `policies` schema holds each field's range.
        if not (self.promote_high[0] > self.promote_medium[0] and self.promote_high[1] > self.promote_medium[1]):
            raise ValueError("promote_high thresholds must strictly dominate promote_medium")


# The one-time score credit of an identity-verified host's certificate.
VERIFIED_BONUS = 0.1

# Levels bound once: on CPython 3.11 each read of `SecurityLevel.X` goes
# through `EnumType.__getattr__`, and every report takes one trust step.
_LOW = SecurityLevel.LOW
_MEDIUM = SecurityLevel.MEDIUM
_HIGH = SecurityLevel.HIGH


def next_level(current: SecurityLevel, score: float, attempts: int, policy: TrustPolicy) -> SecurityLevel:
    """One promotion/demotion step at most; never a two-level jump."""
    med_score, med_attempts = policy.promote_medium
    high_score, high_attempts = policy.promote_high
    if current is _LOW:
        if score >= med_score and attempts >= med_attempts:
            return _MEDIUM
        return current
    if current is _MEDIUM:
        if score >= high_score and attempts >= high_attempts:
            return _HIGH
        if score < med_score - policy.hysteresis:
            return _LOW
        return current
    # HIGH
    if score < high_score - policy.hysteresis:
        return _MEDIUM
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
    """Pure trust update: new certificate from one execution report on
    the certificate's host (`ingest_report`, the one caller, passes the
    reporting host's own)."""
    o = observation_value(report, policy)
    score = (1.0 - policy.alpha) * cert.trust_score + policy.alpha * o
    score = min(1.0, max(0.0, score))
    attempts = cert.attempts + 1
    successes = cert.successes + (1 if report.outcome.ok else 0)
    # The constructor with positional fields in declaration order, not
    # `dataclasses.replace` or keywords, which cost more on the report
    # path. The score is clamped to [0, 1] above and `successes` never
    # passes `attempts`, so the result needs no check.
    return SecurityCertificate(
        cert.host_id,
        next_level(cert.level, score, attempts, policy),
        score,  # trust_score
        attempts,
        successes,
        cert.issued_at,
        cert.identity_verified,
    )


class SecurityGovernor:
    """Issues certificates on the shared host database and holds the trust
    policy; the host registry applies `update_trust` with it on each report,
    in the same profile write as the report's battery drain."""

    def __init__(self, host_db: HostDatabase, policy: TrustPolicy):
        self.host_db = host_db
        self.policy = policy

    def _issue(self, host_id: str, identity_verified: bool, at: float) -> SecurityCertificate:
        """Issue the lowest certificate to a registered host without one.

        Identity verification grants a one-time score bonus, never a
        level jump. Both callers, the admission handshake and
        `preprovision_host`, issue only to a host that holds none, so
        a held certificate is never replaced.
        """
        profile = self.host_db.get(host_id)
        score = VERIFIED_BONUS if identity_verified else 0.0
        # host_id, level, trust_score, attempts, successes, issued_at, identity_verified
        cert = SecurityCertificate(host_id, _LOW, score, 0, 0, at, identity_verified)
        self.host_db.put(profile_with(profile, certificate=cert))
        return cert
