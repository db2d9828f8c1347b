"""Dict conversions for governor state snapshots and execution reports.

The snapshot schema is plain JSON-compatible dicts with stable key
order; see the snapshot module for the file envelope and checksum.
These are the records a generic dataclass codec cannot encode: level
labels, frozensets and the flattened `Outcome`. Plain records are
encoded with `dataclasses.asdict` where they are snapshotted.
"""
from __future__ import annotations

from ..domain import (
    ExecutionReport,
    HostProfile,
    Outcome,
    ResourceVector,
    SecurityCertificate,
    SecurityLevel,
)


def certificate_to_dict(cert: SecurityCertificate) -> dict:
    return {
        "host_id": cert.host_id,
        "level": cert.level.label,
        "trust_score": cert.trust_score,
        "attempts": cert.attempts,
        "successes": cert.successes,
        "issued_at": cert.issued_at,
        "identity_verified": cert.identity_verified,
    }


def certificate_from_dict(raw: dict) -> SecurityCertificate:
    return SecurityCertificate(
        host_id=raw["host_id"],
        level=SecurityLevel.from_name(raw["level"]),
        trust_score=raw["trust_score"],
        attempts=raw["attempts"],
        successes=raw["successes"],
        issued_at=raw["issued_at"],
        identity_verified=raw["identity_verified"],
    )


def host_profile_to_dict(profile: HostProfile) -> dict:
    return {
        "host_id": profile.host_id,
        "os_name": profile.os_name,
        "os_version": profile.os_version,
        "capacity": profile.capacity.as_dict(),
        "committed": profile.committed.as_dict(),
        "battery_mwh": profile.battery_mwh,
        "certificate": certificate_to_dict(profile.certificate) if profile.certificate else None,
        "hosted": sorted(profile.hosted),
        "attempts": profile.attempts,
        "successes": profile.successes,
        "rating_count": profile.rating_count,
        "rating_sum": profile.rating_sum,
        "alive": profile.alive,
    }


def host_profile_from_dict(raw: dict) -> HostProfile:
    return HostProfile(
        host_id=raw["host_id"],
        os_name=raw["os_name"],
        os_version=raw["os_version"],
        capacity=ResourceVector(**raw["capacity"]),
        committed=ResourceVector(**raw["committed"]),
        battery_mwh=raw["battery_mwh"],
        certificate=certificate_from_dict(raw["certificate"]) if raw["certificate"] else None,
        hosted=frozenset(raw["hosted"]),
        attempts=raw["attempts"],
        successes=raw["successes"],
        rating_count=raw["rating_count"],
        rating_sum=raw["rating_sum"],
        alive=raw["alive"],
    )


def report_to_dict(report: ExecutionReport) -> dict:
    return {
        "report_id": report.report_id,
        "host_id": report.host_id,
        "service_id": report.service_id,
        "requester_pseudonym": report.requester_pseudonym,
        "started_at": report.started_at,
        "duration_ms": report.duration_ms,
        "energy_used_mwh": report.energy_used_mwh,
        "ok": report.outcome.ok,
        "failure_reason": report.outcome.reason,
        "rating": report.rating,
    }


def report_from_dict(raw: dict) -> ExecutionReport:
    outcome = Outcome.success() if raw["ok"] else Outcome.failure(raw["failure_reason"])
    return ExecutionReport(
        report_id=raw["report_id"],
        host_id=raw["host_id"],
        service_id=raw["service_id"],
        requester_pseudonym=raw["requester_pseudonym"],
        started_at=raw["started_at"],
        duration_ms=raw["duration_ms"],
        energy_used_mwh=raw["energy_used_mwh"],
        outcome=outcome,
        rating=raw["rating"],
    )
