"""The service governor: one supervising entity, five cooperating units.

Wires the service registry, host registry/profiler, security governor,
service profiler, and billing unit over shared stores, under a single
re-entrant lock so every public operation is atomic (linearizable) with
respect to governor state. Units that need a sibling hold it: discovery
reads the host database's ranking, and the host registry meters each
successful report with billing. `GovernorConfig` is the one home of
every unit's defaults; the units' constructors take no defaults.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..domain import ZERO_RESOURCES, ExecutionReport, ResourceVector
from .billing import DEFAULT_COMMISSION, Agreement, BillingUnit, check_developer_share
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
            host_db=self.host_db,
            footprint_ceiling=self.config.footprint_ceiling,
            lock=self.lock,
        )
        self.security = SecurityGovernor(
            host_db=self.host_db, policy=self.config.trust_policy, lock=self.lock
        )
        self.hosts = HostRegistry(
            host_db=self.host_db,
            registry=self.registry,
            security=self.security,
            billing=self.billing,
            assessment_weights=self.config.assessment_weights,
            lock=self.lock,
        )
        self.profiler = ServiceProfiler(
            registry=self.registry,
            host_db=self.host_db,
            policy=self.config.profiler_policy,
            lock=self.lock,
        )

    # -- cross-unit flows -------------------------------------------------

    def request_hosting(self, host_id: str, service_id: str,
                        identity_verified: bool = False, at: float = 0.0) -> AllocationDecision:
        """Full hosting flow: admission handshake plus revenue agreement.

        A service's first confirmed placement settles its agreement; a
        service whose agreement cannot be settled is rejected
        (`NegotiationRejected`) before the handshake writes anything.
        """
        with self.lock:
            if self.billing.agreement_for(service_id) is None:
                check_developer_share(self.registry.get(service_id).developer_share,
                                      self.billing.governor_commission)
            decision = self.hosts.request_hosting(
                host_id, service_id, identity_verified=identity_verified, at=at
            )
            if decision.confirmed:
                self._settle_agreement(host_id, service_id)
            return decision

    def _settle_agreement(self, host_id: str, service_id: str) -> None:
        """Settle a service's split on its first placement; later hosts take the same one."""
        if self.billing.agreement_for(service_id) is None:
            desc = self.registry.get(service_id)
            self.billing.negotiate_host(
                host_id=host_id,
                service_id=service_id,
                min_share=0.0,
                developer_id=desc.developer_id,
                price=desc.price_per_invocation,
                developer_share=desc.developer_share,
            )

    def ingest_report(self, report: ExecutionReport) -> bool:
        return self.hosts.ingest_report(report)

    def preprovision_host(self, host_id: str, service_ids: list[str],
                          identity_verified: bool = False, at: float = 0.0) -> None:
        """Administratively place services on a host, skipping admission.

        Exists for the always-on cloud endpoint of the WAN baseline; the
        marketplace path never uses it. Services the host already holds
        are left as they are. Each service's agreement is settled before
        it is placed, so a rejection places nothing.
        """
        with self.lock:
            if self.host_db.get(host_id).certificate is None:
                self.security.issue_certificate(host_id, identity_verified, at=at)
            for service_id in service_ids:
                desc = self.registry.get(service_id)
                if service_id in self.host_db.get(host_id).hosted:
                    continue
                self._settle_agreement(host_id, service_id)
                self.hosts.place(host_id, desc)

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
                    if self.billing.agreement_for(service_id) is None:
                        problems.append(f"host {host_id}: service {service_id} hosted without an agreement")
                if profile.committed != held:
                    problems.append(f"host {host_id}: committed differs from its hosted services")
                cert = profile.certificate
                if cert is not None:
                    if not 0.0 <= cert.trust_score <= 1.0:
                        problems.append(f"host {host_id}: trust score out of bounds")
                    if cert.successes > cert.attempts:
                        problems.append(f"host {host_id}: successes exceed attempts")
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
