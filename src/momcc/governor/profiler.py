"""Service profiler: per-service quality monitoring and substitution.

Watches recent execution reports per service across all hosts,
deprecates services whose windowed failure rate exceeds the policy
threshold, and points at the healthiest same-functionality replacement.
Malfunctions are escalated to the responsible developer without ever
naming a requester.

A sweep judges only services with a full window of reports, so it
walks the host database's per-service report lists, not the catalog:
it visits the services that have reports and judges, in id order, the
Active ones whose list holds at least `window` of them. Its cost grows
with the services reported on, not with the services registered.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

from ..domain import ExecutionReport
from ..errors import UnknownEntityError
from .registry import ServiceRegistry, ServiceStatus
from .store import HostDatabase

DEFAULT_FAILURE_THRESHOLD = 0.3
DEFAULT_WINDOW = 20
_ACTIVE = ServiceStatus.ACTIVE


@dataclass(frozen=True)
class ProfilerPolicy:
    """Knobs for the substitution sweep.

    failure_threshold  windowed failure rate a service must exceed to be deprecated, in [0, 1]
    window             reports a service needs before it is judged, an int >= 1
    """

    failure_threshold: float = DEFAULT_FAILURE_THRESHOLD
    window: int = DEFAULT_WINDOW

    def __post_init__(self) -> None:
        if not isinstance(self.window, int) or isinstance(self.window, bool) or self.window < 1:
            raise ValueError("window must be an int >= 1")
        if not 0.0 <= self.failure_threshold <= 1.0:
            raise ValueError("failure_threshold must be in [0, 1]")


def failure_rate(recent: list[ExecutionReport]) -> float:
    """The share of a service's recent reports that failed, 0.0 with none:
    the rule the sweep deprecates by, ranks stand-ins by and reports."""
    return sum(1 for r in recent if not r.outcome.ok) / len(recent) if recent else 0.0


@dataclass(frozen=True)
class ServiceStats:
    service_id: str
    report_count: int
    availability: float
    failure_rate: float
    mean_latency_ms: float
    security_failures: int


@dataclass(frozen=True)
class SweepAction:
    deprecated_id: str
    replacement_id: str | None


@dataclass(frozen=True)
class Escalation:
    escalation_id: str
    service_id: str
    developer_id: str
    detail: str
    at: float


class ServiceProfiler:
    def __init__(self, registry: ServiceRegistry, host_db: HostDatabase,
                 policy: ProfilerPolicy, lock: threading.RLock, journal: list):
        self.registry = registry
        self.host_db = host_db
        self.policy = policy
        self._lock = lock
        self._journal = journal
        self.escalations: list[Escalation] = []
        self._escalation_seq = 0

    def service_stats(self, service_id: str, window: int | None = None) -> ServiceStats | None:
        """Windowed quality figures; None means no evidence yet."""
        with self._lock:
            if not self.registry.is_known(service_id):
                raise UnknownEntityError(f"unknown service: {service_id!r}")
            window = window if window is not None else self.policy.window
            recent = self.host_db.reports_for_service(service_id, window)
            if not recent:
                return None
            return ServiceStats(
                service_id=service_id,
                report_count=len(recent),
                availability=sum(1 for r in recent if r.outcome.ok) / len(recent),
                failure_rate=failure_rate(recent),
                mean_latency_ms=sum(r.duration_ms for r in recent) / len(recent),
                security_failures=sum(
                    1 for r in recent if not r.outcome.ok and r.outcome.reason == "security"
                ),
            )

    def substitution_sweep(self) -> list[SweepAction]:
        """Deprecate failing services and name their best stand-ins.

        Only services with a full evidence window are judged; the failure
        threshold is a strict inequality. Running the sweep twice on the
        same state deprecates nothing the second time.
        """
        with self._lock:
            window, threshold = self.policy.window, self.policy.failure_threshold
            status = self.registry.db.status
            judged = sorted(
                service_id for service_id, reports in self.host_db.service_reports.items()
                if len(reports) >= window and status.get(service_id) is _ACTIVE
            )
            actions: list[SweepAction] = []
            for service_id in judged:
                if failure_rate(self.host_db.reports_for_service(service_id, window)) <= threshold:
                    continue
                self.registry._deprecate(service_id)
                desc = self.registry.get(service_id)
                replacement = self._best_replacement(desc.functionality_tag, service_id)
                actions.append(SweepAction(service_id, replacement))
            if actions:
                self._journal.append(("profiler.substitution_sweep",))
            return actions

    def _best_replacement(self, functionality_tag: str, exclude: str) -> str | None:
        candidates = self.registry.substitution_candidates(functionality_tag, exclude=exclude)
        if not candidates:
            return None

        def rank(desc):
            recent = self.host_db.reports_for_service(desc.service_id, self.policy.window)
            return (failure_rate(recent), desc.min_resources.total(), desc.service_id)

        return min(candidates, key=rank).service_id

    def report_malfunction(self, service_id: str, detail: str, at: float = 0.0) -> Escalation:
        """File a failure escalation addressed to the service's developer.

        The detail travels verbatim; callers keep requester identities
        out of it, and the escalation record carries none.
        """
        with self._lock:
            desc = self.registry.get(service_id)
            self._escalation_seq += 1
            escalation = Escalation(
                escalation_id=f"esc-{self._escalation_seq:06d}",
                service_id=service_id,
                developer_id=desc.developer_id,
                detail=detail,
                at=at,
            )
            self.escalations.append(escalation)
            self._journal.append(("profiler.report_malfunction", service_id, detail, at))
            return escalation
