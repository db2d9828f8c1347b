"""The service governor: one supervising entity, five cooperating units.

Wires the service registry, host registry/profiler, security governor,
service profiler, and billing unit over shared stores, under a single
re-entrant lock so every public operation is atomic (linearizable) with
respect to governor state.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..domain import ZERO_RESOURCES, ExecutionReport, ResourceVector
from ..errors import MissingAgreementError
from .billing import DEFAULT_COMMISSION, Agreement, BillingUnit
from .hosts import DEFAULT_ASSESSMENT_WEIGHTS, AllocationDecision, HostRegistry
from .profiler import ProfilerPolicy, ServiceProfiler
from .registry import DEFAULT_FOOTPRINT_CEILING, DiscoveryResult, ServiceRegistry
from .security import SecurityGovernor, TrustPolicy
from .store import HostDatabase

__all__ = [
    "Agreement",
    "AllocationDecision",
    "BillingUnit",
    "DiscoveryResult",
    "GovernorConfig",
    "HostRegistry",
    "ProfilerPolicy",
    "SecurityGovernor",
    "ServiceGovernor",
    "ServiceProfiler",
    "ServiceRegistry",
    "TrustPolicy",
]


@dataclass(frozen=True)
class GovernorConfig:
    """Every governor-side default, gathered in one place."""

    footprint_ceiling: ResourceVector = DEFAULT_FOOTPRINT_CEILING
    governor_commission: float = DEFAULT_COMMISSION
    trust_policy: TrustPolicy = field(default_factory=TrustPolicy)
    profiler_policy: ProfilerPolicy = field(default_factory=ProfilerPolicy)
    assessment_weights: tuple[float, float, float] = DEFAULT_ASSESSMENT_WEIGHTS


class ServiceGovernor:
    def __init__(self, config: GovernorConfig | None = None):
        self.config = config or GovernorConfig()
        self.lock = threading.RLock()
        self.host_db = HostDatabase()
        self.billing = BillingUnit(
            governor_commission=self.config.governor_commission, lock=self.lock
        )
        self.registry = ServiceRegistry(
            billing=self.billing,
            footprint_ceiling=self.config.footprint_ceiling,
            host_provider=self._live_hosts_for,
            lock=self.lock,
        )
        self.security = SecurityGovernor(
            host_db=self.host_db, policy=self.config.trust_policy, lock=self.lock
        )
        self.hosts = HostRegistry(
            host_db=self.host_db,
            registry=self.registry,
            security=self.security,
            on_success_report=self._meter_report,
            assessment_weights=self.config.assessment_weights,
            lock=self.lock,
        )
        self.profiler = ServiceProfiler(
            registry=self.registry,
            host_db=self.host_db,
            policy=self.config.profiler_policy,
            lock=self.lock,
        )

    def _live_hosts_for(self, service_id: str) -> list[str]:
        return self.hosts.live_hosts_ranked(service_id)

    # -- cross-unit flows -------------------------------------------------

    def request_hosting(self, host_id: str, service_id: str,
                        identity_verified: bool = False, min_share: float = 0.0,
                        at: float = 0.0) -> AllocationDecision:
        """Full hosting flow: admission handshake plus revenue agreement."""
        with self.lock:
            decision = self.hosts.request_hosting(
                host_id, service_id, identity_verified=identity_verified, at=at
            )
            if decision.confirmed:
                self._settle_agreement(host_id, service_id, min_share)
            return decision

    def _settle_agreement(self, host_id: str, service_id: str, min_share: float = 0.0) -> None:
        """Settle a service's split on its first placement; later hosts take the same one."""
        if self.billing.agreement_for(service_id) is None:
            desc = self.registry.get(service_id)
            self.billing.negotiate_host(
                host_id=host_id,
                service_id=service_id,
                min_share=min_share,
                developer_id=desc.developer_id,
                price=desc.price_per_invocation,
                developer_share=desc.developer_share,
            )

    def ingest_report(self, report: ExecutionReport) -> bool:
        return self.hosts.ingest_report(report)

    def _meter_report(self, report: ExecutionReport) -> None:
        # Invoked by the host registry for successful reports only.
        agreement = self.billing.agreement_for(report.service_id)
        if agreement is None:
            raise MissingAgreementError(
                f"no billing agreement for service {report.service_id!r}"
            )
        if not self.billing.already_metered(report.report_id):
            self.billing.meter_invocation(
                agreement,
                requester_pseudonym=report.requester_pseudonym,
                correlation_id=report.report_id,
                host_id=report.host_id,
                at=report.started_at + report.duration_ms,
            )

    def preprovision_host(self, host_id: str, service_ids: list[str],
                          identity_verified: bool = False, at: float = 0.0) -> None:
        """Administratively place services on a host, skipping admission.

        Exists for the always-on cloud endpoint of the WAN baseline; the
        marketplace path never uses it. Services the host already holds
        are left as they are.
        """
        with self.lock:
            if self.host_db.get(host_id).certificate is None:
                self.security.issue_certificate(host_id, identity_verified, at=at)
            for service_id in service_ids:
                desc = self.registry.get(service_id)
                if service_id in self.host_db.get(host_id).hosted:
                    continue
                self.hosts.place(host_id, desc)
                self._settle_agreement(host_id, service_id)

    # -- invariants (used by tests and the stress harness) -----------------

    def check_invariants(self) -> list[str]:
        """Cross-module consistency: empty list means all good."""
        problems = []
        with self.lock:
            for host_id, profile in self.host_db.hosts.items():
                if not profile.capacity.covers(profile.committed):
                    problems.append(f"host {host_id}: committed exceeds capacity")
                held = ZERO_RESOURCES
                for service_id in profile.hosted:
                    held = held.plus(self.registry.get(service_id).min_resources)
                if profile.committed != held:
                    problems.append(f"host {host_id}: committed differs from its hosted services")
                cert = profile.certificate
                if cert is not None:
                    if not 0.0 <= cert.trust_score <= 1.0:
                        problems.append(f"host {host_id}: trust score out of bounds")
                    if cert.successes > cert.attempts:
                        problems.append(f"host {host_id}: successes exceed attempts")
            if self.host_db.hosting != self.host_db.scan_hosting():
                problems.append("hosts: hosting index differs from the hosted sets")
            if self.host_db.ranked != self.host_db.scan_ranked():
                problems.append("hosts: ranking differs from a full scan of the profiles")
            ranked = self.host_db.ranked
            if any(kept != [host_id for _, _, host_id in ranked.get(service_id, ())]
                   for service_id, kept in self.host_db.ranked_ids.items()):
                problems.append("hosts: kept holder list differs from the ranking")
            catalog = self.registry.db
            if sorted(catalog.by_bit) != catalog.indexed_ids() or catalog.grams != catalog.scan_grams():
                problems.append("registry: search index differs from a full scan of the catalog")
            if catalog.by_revenue != catalog.scan_by_revenue(self.registry.host_revenue):
                problems.append("registry: listing order differs from a full sort of the catalog")
            by_host, by_service = self.host_db.scan_report_indexes()
            if self.host_db.host_reports != by_host:
                problems.append("hosts: per-host report index differs from the report history")
            if self.host_db.service_reports != by_service:
                problems.append("hosts: per-service report index differs from the report history")
            if self.host_db.seen_report_ids != {r.report_id for r in self.host_db.reports}:
                problems.append("hosts: seen report ids differ from the report history")
            if self.billing.total_credited() != self.billing.total_metered():
                problems.append("ledger: credits do not sum to metered totals")
            balance_sum = sum(
                self.billing.account_balance(party) for party in self.billing.parties()
            )
            if balance_sum != self.billing.total_metered():
                problems.append("ledger: party balances do not sum to metered totals")
        return problems
