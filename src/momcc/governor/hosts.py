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
from dataclasses import dataclass

from ..domain import (
    ExecutionReport,
    HostProfile,
    ResourceVector,
    ServiceDescription,
    ZERO_RESOURCES,
    level_admits,
    profile_with,
)
from ..errors import DuplicateHostError, NotHostedError, UnknownEntityError
from ..wire import MessageKind
from .billing import BillingUnit
from .journal import check_entry
from .registry import ServiceRegistry, ServiceStatus
from .security import SecurityGovernor, update_trust
from .store import HostDatabase

# Confirmed allocations must follow the collaborative handshake exactly.
CONFIRMED_TRACE_PATTERN = re.compile(
    r"^HostingRequest,ScQuery,(ScReply|TrustEstablish,ScIssued),AllocationConfirm$"
)

DEFAULT_ASSESSMENT_WEIGHTS = (0.5, 0.3, 0.2)  # availability, rating, trust

# The handshake reads kinds and the active status bound once here: on
# CPython 3.11 each read of `MessageKind.X` goes through
# `EnumType.__getattr__`.
_HOSTING_REQUEST = MessageKind.HOSTING_REQUEST
_SC_QUERY = MessageKind.SC_QUERY
_SC_REPLY = MessageKind.SC_REPLY
_TRUST_ESTABLISH = MessageKind.TRUST_ESTABLISH
_SC_ISSUED = MessageKind.SC_ISSUED
_ALLOCATION_CONFIRM = MessageKind.ALLOCATION_CONFIRM
_ALLOCATION_DENIED = MessageKind.ALLOCATION_DENIED
_ACTIVE = ServiceStatus.ACTIVE


@dataclass(slots=True)
class AllocationDecision:
    """Outcome of one hosting request plus the messages exchanged.

    Slotted and not frozen: every hosting request builds one. Nothing
    assigns to a decision once it is built, or hashes one.
    """

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


def _denied(host_id: str, service_id: str, trace: list[MessageKind], reason: str) -> AllocationDecision:
    return AllocationDecision(host_id, service_id, False, reason, (*trace, _ALLOCATION_DENIED))


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
        journal: list,
    ):
        self.host_db = host_db
        self.registry = registry
        self.security = security
        self.billing = billing
        self.assessment_weights = assessment_weights
        self._lock = lock
        self._journal = journal
        self.decisions: list[AllocationDecision] = []
        self._placed: set[tuple[str, str]] = set()  # every (host, service) `_place` placed

    # -- host lifecycle -------------------------------------------------

    def register_host(self, host_id: str, os_name: str, os_version: str,
                      capacity: ResourceVector, battery_mwh: int) -> HostProfile:
        """Create a profile with nothing hosted and no certificate yet.

        The certificate is issued lazily during the first allocation
        handshake.
        """
        entry = ("hosts.register_host", host_id, os_name, os_version, capacity, battery_mwh)
        check_entry(entry)
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
            self._journal.append(entry)
            return profile

    # -- allocation -------------------------------------------------------

    def request_hosting(self, host_id: str, service_id: str,
                        identity_verified: bool = False, at: float = 0.0) -> AllocationDecision:
        """Run the allocation handshake and record its trace.

        Order: platform, resources, then the certificate exchange and the
        security-level check. A denied decision leaves the profile
        untouched.

        Like `ingest_report`, the checks read the service database's
        dicts directly: the lock held here is the one the registry's
        getters take. The resource check compares the need with capacity
        minus committed component by component, building no vector.
        """
        entry = ("hosts.request_hosting", host_id, service_id, identity_verified, at)
        check_entry(entry)
        with self._lock:
            decision = self._admit(host_id, service_id, identity_verified, at)
            self.decisions.append(decision)
            self._journal.append(entry)
            return decision

    def _admit(self, host_id: str, service_id: str, identity_verified: bool, at: float) -> AllocationDecision:
        profile = self.host_db.get(host_id)
        desc = self.registry.db.services.get(service_id)
        if desc is None:
            raise UnknownEntityError(f"unknown service: {service_id!r}")
        trace: list[MessageKind] = [_HOSTING_REQUEST]

        if not profile.alive:
            return _denied(host_id, service_id, trace, "departed")
        if self.registry.db.status[service_id] is not _ACTIVE:
            return _denied(host_id, service_id, trace, "deprecated")
        if service_id in profile.hosted:
            return _denied(host_id, service_id, trace, "duplicate")
        if not desc.platform.matches(profile.os_name, profile.os_version):
            return _denied(host_id, service_id, trace, "platform")
        capacity, committed, need = profile.capacity, profile.committed, desc.min_resources
        if not (capacity.cpu - committed.cpu >= need.cpu
                and capacity.memory - committed.memory >= need.memory
                and capacity.storage - committed.storage >= need.storage
                and capacity.energy - committed.energy >= need.energy):
            return _denied(host_id, service_id, trace, "resources")

        trace.append(_SC_QUERY)
        cert = profile.certificate
        if cert is None:
            trace.append(_TRUST_ESTABLISH)
            cert = self.security._issue(host_id, identity_verified, at)
            trace.append(_SC_ISSUED)
        else:
            trace.append(_SC_REPLY)
        if not level_admits(cert.level, desc.security_level):
            return _denied(host_id, service_id, trace, "security")

        trace.append(_ALLOCATION_CONFIRM)
        self._place(host_id, desc)
        return AllocationDecision(host_id, service_id, True, None, tuple(trace))

    def _place(self, host_id: str, desc: ServiceDescription) -> None:
        """Reserve a service's resources on a host and add it to `hosted`;
        no admission checks. The pair stays placed for `ingest_report`
        after an unhost or a departure."""
        self._placed.add((host_id, desc.service_id))
        profile = self.host_db.get(host_id)
        self.host_db.put(profile_with(
            profile,
            committed=profile.committed.plus(desc.min_resources),
            hosted=profile.hosted | {desc.service_id},
        ))

    def unhost(self, host_id: str, service_id: str) -> None:
        """Release a hosted service and return its reserved resources."""
        with self._lock:
            self._unhost(host_id, service_id)
            self._journal.append(("hosts.unhost", host_id, service_id))

    def _unhost(self, host_id: str, service_id: str) -> None:
        profile = self.host_db.get(host_id)
        if service_id not in profile.hosted:
            raise NotHostedError(f"host {host_id!r} does not hold service {service_id!r}")
        desc = self.registry.get(service_id)
        self.host_db.put(profile_with(
            profile,
            committed=profile.committed.minus(desc.min_resources),
            hosted=profile.hosted - {service_id},
        ))

    def mark_departed(self, host_id: str) -> None:
        """Churn exit: the host stops serving and all its services free up."""
        with self._lock:
            profile = self.host_db.get(host_id)
            for service_id in list(profile.hosted):
                self._unhost(host_id, service_id)
            self.host_db.put(profile_with(self.host_db.hosts[host_id], alive=False))
            self._journal.append(("hosts.mark_departed", host_id))

    # -- execution reports ---------------------------------------------------

    def ingest_report(self, report: ExecutionReport) -> bool:
        """Meter a success with billing, append the report, and update its
        host's battery view and certificate (trust, attempts) in one
        profile write.

        Re-delivery of a report_id is absorbed silently (returns False)
        so retries never double-count anything: billing meters each id
        once because it is refused here first. A report on a service its
        host was never placed on is refused. Every check runs before
        the first write, so a rejected report leaves no trace and a retry
        is judged afresh. Nothing after them can fail: metering splits
        the price by the terms of the service description looked up here.

        One report is the hottest profile write, so the checks read the
        host and service dicts directly (the lock held here is the one
        the registry's getters take), and the new profile is built by
        `profile_with`, positionally, not by `dataclasses.replace`. For
        the same reason it checks no entry schema (`journal.check_entry`):
        a report's types are checked where it enters as JSON, at the
        endpoint and at a restore.
        """
        with self._lock:
            host_db = self.host_db
            if report.report_id in host_db.seen_report_ids:
                return False
            profile = host_db.hosts.get(report.host_id)
            if profile is None:
                raise UnknownEntityError(f"unknown host: {report.host_id!r}")
            desc = self.registry.db.services.get(report.service_id)
            if desc is None:
                raise UnknownEntityError(f"unknown service: {report.service_id!r}")
            if profile.certificate is None:
                raise UnknownEntityError(f"no certificate for host {report.host_id!r}")
            if (report.service_id not in profile.hosted
                    and (report.host_id, report.service_id) not in self._placed):
                raise UnknownEntityError(
                    f"host {report.host_id!r} never held service {report.service_id!r}"
                )

            updated = profile_with(
                profile,
                battery_mwh=max(0, profile.battery_mwh - report.energy_used_mwh),
                certificate=update_trust(profile.certificate, report, self.security.policy),
            )
            if report.outcome.ok:
                self.billing._meter_report(report, desc)
            host_db.add_report(report)
            host_db.put(updated)
            self._journal.append(("hosts.ingest_report", report))
            return True

    # -- assessment -------------------------------------------------------

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
