"""Host registry and host profiler over the shared host database.

The registry validates hosting requests with a fixed check order
(platform, then resources, then security) so denial reasons are
deterministic, and records the message trace of every allocation
decision. The profiler ingests execution reports after each attempt and
periodically scores host efficiency.
"""
from __future__ import annotations

import re
import threading
from dataclasses import dataclass, replace

from ..domain import (
    ExecutionReport,
    HostProfile,
    ResourceVector,
    ServiceDescription,
    ZERO_RESOURCES,
    level_admits,
)
from ..errors import DuplicateHostError, NotHostedError, UnknownEntityError
from ..wire import MessageKind
from .billing import BillingUnit
from .registry import ServiceRegistry, ServiceStatus
from .security import SecurityGovernor, update_trust
from .store import HostDatabase

# Confirmed allocations must follow the collaborative handshake exactly.
CONFIRMED_TRACE_PATTERN = re.compile(
    r"^HostingRequest,ScQuery,(ScReply|TrustEstablish,ScIssued),AllocationConfirm$"
)

DEFAULT_ASSESSMENT_WEIGHTS = (0.5, 0.3, 0.2)  # availability, rating, trust


@dataclass(frozen=True)
class AllocationDecision:
    """Outcome of one hosting request plus the messages exchanged."""

    host_id: str
    service_id: str
    confirmed: bool
    reason: str | None
    trace: tuple[MessageKind, ...]

    def trace_names(self) -> str:
        return ",".join(kind.value for kind in self.trace)

    def conforms(self) -> bool:
        if not self.confirmed:
            return True
        return CONFIRMED_TRACE_PATTERN.fullmatch(self.trace_names()) is not None


@dataclass(frozen=True)
class HostAssessment:
    host_id: str
    score: float | None
    assessed: bool


class HostRegistry:
    """Admission control and execution-history bookkeeping for hosts."""

    def __init__(
        self,
        host_db: HostDatabase,
        registry: ServiceRegistry,
        security: SecurityGovernor,
        billing: BillingUnit,
        assessment_weights: tuple[float, float, float],
        lock: threading.RLock,
    ):
        self.host_db = host_db
        self.registry = registry
        self.security = security
        self.billing = billing
        self.assessment_weights = assessment_weights
        self._lock = lock
        self.decisions: list[AllocationDecision] = []

    # -- host lifecycle -------------------------------------------------

    def register_host(self, host_id: str, os_name: str, os_version: str,
                      capacity: ResourceVector, battery_mwh: int) -> HostProfile:
        """Create a profile with nothing hosted and no certificate yet.

        The certificate is issued lazily during the first allocation
        handshake.
        """
        with self._lock:
            if host_id in self.host_db.hosts:
                raise DuplicateHostError(f"host id {host_id!r} already registered")
            profile = HostProfile(
                host_id=host_id,
                os_name=os_name,
                os_version=os_version,
                capacity=capacity,
                committed=ZERO_RESOURCES,
                battery_mwh=battery_mwh,
            )
            self.host_db.put(profile)
            return profile

    # -- allocation -------------------------------------------------------

    def request_hosting(self, host_id: str, service_id: str,
                        identity_verified: bool = False, at: float = 0.0) -> AllocationDecision:
        """Run the allocation handshake and record its trace.

        Order: platform, resources, then the certificate exchange and the
        security-level check. A denied decision leaves the profile
        untouched.
        """
        with self._lock:
            profile = self.host_db.get(host_id)
            desc = self.registry.get(service_id)
            trace: list[MessageKind] = [MessageKind.HOSTING_REQUEST]

            if not profile.alive:
                return self._deny(profile, desc, trace, "departed")
            if self.registry.status_of(service_id) != ServiceStatus.ACTIVE:
                return self._deny(profile, desc, trace, "deprecated")
            if service_id in profile.hosted:
                return self._deny(profile, desc, trace, "duplicate")
            if not desc.platform.matches(profile.os_name, profile.os_version):
                return self._deny(profile, desc, trace, "platform")
            if not profile.free.covers(desc.min_resources):
                return self._deny(profile, desc, trace, "resources")

            trace.append(MessageKind.SC_QUERY)
            cert = profile.certificate
            if cert is None:
                trace.append(MessageKind.TRUST_ESTABLISH)
                cert = self.security.issue_certificate(host_id, identity_verified, at=at)
                trace.append(MessageKind.SC_ISSUED)
            else:
                trace.append(MessageKind.SC_REPLY)
            if not level_admits(cert.level, desc.security_level):
                return self._deny(profile, desc, trace, "security")

            trace.append(MessageKind.ALLOCATION_CONFIRM)
            self.place(host_id, desc)
            decision = AllocationDecision(
                host_id=host_id,
                service_id=service_id,
                confirmed=True,
                reason=None,
                trace=tuple(trace),
            )
            self.decisions.append(decision)
            return decision

    def _deny(self, profile: HostProfile, desc, trace: list[MessageKind], reason: str) -> AllocationDecision:
        decision = AllocationDecision(
            host_id=profile.host_id,
            service_id=desc.service_id,
            confirmed=False,
            reason=reason,
            trace=(*trace, MessageKind.ALLOCATION_DENIED),
        )
        self.decisions.append(decision)
        return decision

    def place(self, host_id: str, desc: ServiceDescription) -> None:
        """Reserve a service's resources on a host and add it to `hosted`; no checks."""
        with self._lock:
            profile = self.host_db.get(host_id)
            self.host_db.put(replace(
                profile,
                committed=profile.committed.plus(desc.min_resources),
                hosted=profile.hosted | {desc.service_id},
            ))

    def unhost(self, host_id: str, service_id: str) -> None:
        """Release a hosted service and return its reserved resources."""
        with self._lock:
            profile = self.host_db.get(host_id)
            if service_id not in profile.hosted:
                raise NotHostedError(f"host {host_id!r} does not hold service {service_id!r}")
            desc = self.registry.get(service_id)
            self.host_db.put(replace(
                profile,
                committed=profile.committed.minus(desc.min_resources),
                hosted=profile.hosted - {service_id},
            ))

    def mark_departed(self, host_id: str) -> None:
        """Churn exit: the host stops serving and all its services free up."""
        with self._lock:
            profile = self.host_db.get(host_id)
            for service_id in list(profile.hosted):
                self.unhost(host_id, service_id)
            self.host_db.put(replace(self.host_db.hosts[host_id], alive=False))

    # -- execution reports ---------------------------------------------------

    def ingest_report(self, report: ExecutionReport) -> bool:
        """Meter a success with billing, append the report, and update its
        host's counters and trust in one profile write.

        Re-delivery of a report_id is absorbed silently (returns False)
        so retries never double-count anything. Every check runs before
        the first write, so a rejected report leaves no trace and a retry
        is judged afresh: `BillingUnit.meter_report` checks the service's
        agreement before it meters, and nothing after it can fail.
        """
        with self._lock:
            if report.report_id in self.host_db.seen_report_ids:
                return False
            profile = self.host_db.get(report.host_id)
            if not self.registry.is_known(report.service_id):
                raise UnknownEntityError(f"unknown service: {report.service_id!r}")
            if profile.certificate is None:
                raise UnknownEntityError(f"no certificate for host {report.host_id!r}")

            ok = report.outcome.ok
            # The constructor, not `dataclasses.replace`: one report is the
            # hottest profile write, and `__post_init__` still checks it.
            updated = HostProfile(
                host_id=profile.host_id,
                os_name=profile.os_name,
                os_version=profile.os_version,
                capacity=profile.capacity,
                committed=profile.committed,
                battery_mwh=max(0, profile.battery_mwh - report.energy_used_mwh),
                certificate=update_trust(profile.certificate, report, self.security.policy),
                hosted=profile.hosted,
                attempts=profile.attempts + 1,
                successes=profile.successes + (1 if ok else 0),
                rating_count=profile.rating_count + (1 if report.rating is not None else 0),
                rating_sum=profile.rating_sum + (report.rating or 0),
                alive=profile.alive,
            )
            if ok:
                self.billing.meter_report(report)
            self.host_db.add_report(report)
            self.host_db.put(updated)
            return True

    # -- periodic assessment ---------------------------------------------------

    def assess_hosts(self, window: int) -> list[HostAssessment]:
        """Efficiency score per host over its last `window` reports.

        Weighted mean of windowed availability, normalized rating, and
        current trust score. Hosts without reports come back unassessed.
        Assessed hosts first, best score first.
        """
        w_avail, w_rating, w_trust = self.assessment_weights
        with self._lock:
            assessments = []
            for host_id in sorted(self.host_db.hosts):
                profile = self.host_db.hosts[host_id]
                recent = self.host_db.reports_for_host(host_id, window)
                if not recent:
                    assessments.append(HostAssessment(host_id, None, False))
                    continue
                availability = sum(1 for r in recent if r.outcome.ok) / len(recent)
                ratings = [r.rating for r in recent if r.rating is not None]
                if ratings:
                    rating_norm = sum((r - 1) / 4.0 for r in ratings) / len(ratings)
                else:
                    rating_norm = availability
                trust = profile.certificate.trust_score if profile.certificate else 0.0
                score = w_avail * availability + w_rating * rating_norm + w_trust * trust
                assessments.append(HostAssessment(host_id, score, True))
        assessments.sort(key=lambda a: (not a.assessed, -(a.score or 0.0), a.host_id))
        return assessments

    def count_trace_violations(self) -> int:
        with self._lock:
            return sum(1 for d in self.decisions if not d.conforms())

    # -- persistence ---------------------------------------------------

    def snapshot_state(self) -> dict:
        from .serialize import host_profile_to_dict, report_to_dict

        with self._lock:
            return {
                "hosts": {
                    host_id: host_profile_to_dict(profile)
                    for host_id, profile in sorted(self.host_db.hosts.items())
                },
                "reports": [report_to_dict(r) for r in self.host_db.reports],
            }

    def restore_state(self, state: dict) -> None:
        from .serialize import host_profile_from_dict, report_from_dict

        with self._lock:
            self.host_db.hosts.clear()
            self.host_db.reports.clear()
            self.host_db.seen_report_ids.clear()
            self.host_db.host_reports.clear()
            self.host_db.service_reports.clear()
            for host_id, raw in state["hosts"].items():
                self.host_db.hosts[host_id] = host_profile_from_dict(raw)
            for raw in state["reports"]:
                self.host_db.add_report(report_from_dict(raw))
            self.host_db.ranked = self.host_db.scan_ranked()
            self.host_db.ranked_ids.clear()
