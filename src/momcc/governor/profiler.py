"""Service profiler: per-service quality monitoring and substitution.

Watches recent execution reports per service across all hosts,
deprecates services whose windowed failure rate exceeds the policy
threshold, and points at the healthiest same-functionality replacement.
Malfunctions are escalated to the responsible developer without ever
naming a requester.
"""
from __future__ import annotations

import threading
from dataclasses import asdict, dataclass

from ..errors import UnknownEntityError
from .registry import ServiceRegistry
from .store import HostDatabase

DEFAULT_FAILURE_THRESHOLD = 0.3
DEFAULT_WINDOW = 20


@dataclass(frozen=True)
class ProfilerPolicy:
    failure_threshold: float = DEFAULT_FAILURE_THRESHOLD
    window: int = DEFAULT_WINDOW


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
                 policy: ProfilerPolicy, lock: threading.RLock):
        self.registry = registry
        self.host_db = host_db
        self.policy = policy
        self._lock = lock
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
            failures = sum(1 for r in recent if not r.outcome.ok)
            return ServiceStats(
                service_id=service_id,
                report_count=len(recent),
                availability=(len(recent) - failures) / len(recent),
                failure_rate=failures / len(recent),
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
            actions: list[SweepAction] = []
            for desc in self.registry.active_services():
                recent = self.host_db.reports_for_service(desc.service_id, self.policy.window)
                if len(recent) < self.policy.window:
                    continue
                failures = sum(1 for r in recent if not r.outcome.ok)
                if failures / len(recent) <= self.policy.failure_threshold:
                    continue
                self.registry.deprecate_service(desc.service_id, reason="failure rate above threshold")
                replacement = self._best_replacement(desc.functionality_tag, desc.service_id)
                actions.append(SweepAction(desc.service_id, replacement))
            return actions

    def _best_replacement(self, functionality_tag: str, exclude: str) -> str | None:
        candidates = self.registry.substitution_candidates(functionality_tag, exclude=exclude)
        if not candidates:
            return None

        def rank(desc):
            recent = self.host_db.reports_for_service(desc.service_id, self.policy.window)
            failures = sum(1 for r in recent if not r.outcome.ok)
            rate = failures / len(recent) if recent else 0.0
            return (rate, desc.min_resources.total(), desc.service_id)

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
            return escalation

    # -- persistence ------------------------------------------------------

    def snapshot_state(self) -> dict:
        with self._lock:
            return {"escalations": [asdict(e) for e in self.escalations]}

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self.escalations.clear()
            for raw in state["escalations"]:
                self.escalations.append(Escalation(**raw))
            self._escalation_seq = len(self.escalations)
