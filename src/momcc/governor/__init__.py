"""The service governor: one supervising entity, five cooperating units.

Wires the service registry, host registry/profiler, security governor,
service profiler, and billing unit over shared stores, under a single
re-entrant lock so every public operation is atomic (linearizable) with
respect to governor state. Units that need a sibling hold it: discovery
reads the host database's ranking, and the host registry meters each
successful report with billing, by its service's terms. `GovernorConfig`
is the one home of every unit's defaults; the units' constructors take
no defaults.

`journal` lists, in order, every call from outside that changed the
governor's state: a tuple of the call's name (`"unit.method"`, or the
governor's own method) and its arguments as passed, each appended by
the unit's public method once it has returned; before it writes, a
method that takes a value it does not look up checks its entry by the
schema a restore checks it with (`journal`). Each write has one door.
What one unit does for another (issuing a certificate in the handshake
or on preprovisioning, metering an accepted report, unhosting on
departure, deprecating in a sweep) has no public twin: it is a
private body that runs under the lock its caller holds, so the journal
holds each write once, under the call that made it. Replaying the
journal into a governor of the same config through the same methods
rebuilds the same state (`momcc.snapshot`).
"""
from __future__ import annotations

import threading
from dataclasses import dataclass, field

from ..domain import ZERO_RESOURCES, ExecutionReport, ResourceVector
from ..errors import NegotiationRejected
from .billing import DEFAULT_COMMISSION, BillingUnit, check_developer_share
from .hosts import DEFAULT_ASSESSMENT_WEIGHTS, AllocationDecision, HostRegistry
from .journal import check_entry
from .profiler import ProfilerPolicy, ServiceProfiler
from .registry import DEFAULT_FOOTPRINT_CEILING, DiscoveryResult, ServiceRegistry
from .security import SecurityGovernor, TrustPolicy
from .store import HostDatabase

__all__ = [
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
        self.journal: list[tuple] = []
        self.host_db = HostDatabase()
        self.billing = BillingUnit(
            governor_commission=self.config.governor_commission, lock=self.lock, journal=self.journal
        )
        self.registry = ServiceRegistry(
            billing=self.billing,
            host_db=self.host_db,
            footprint_ceiling=self.config.footprint_ceiling,
            lock=self.lock,
            journal=self.journal,
        )
        self.security = SecurityGovernor(host_db=self.host_db, policy=self.config.trust_policy)
        self.hosts = HostRegistry(
            host_db=self.host_db,
            registry=self.registry,
            security=self.security,
            billing=self.billing,
            assessment_weights=self.config.assessment_weights,
            lock=self.lock,
            journal=self.journal,
        )
        self.profiler = ServiceProfiler(
            registry=self.registry,
            host_db=self.host_db,
            policy=self.config.profiler_policy,
            lock=self.lock,
            journal=self.journal,
        )

    # -- cross-unit flows -------------------------------------------------

    def request_hosting(self, host_id: str, service_id: str,
                        identity_verified: bool = False, at: float = 0.0) -> AllocationDecision:
        """Full hosting flow: the admission handshake, then the placement."""
        return self.hosts.request_hosting(
            host_id, service_id, identity_verified=identity_verified, at=at
        )

    def ingest_report(self, report: ExecutionReport) -> bool:
        return self.hosts.ingest_report(report)

    def preprovision_host(self, host_id: str, service_ids: list[str],
                          identity_verified: bool = False, at: float = 0.0) -> None:
        """Administratively place services on a host, skipping admission.

        Exists for the always-on cloud endpoint of the WAN baseline; the
        marketplace path never uses it. Services the host already holds
        are left as they are; the others are placed as admission places
        them. The host's capacity must cover what it holds and the others
        together, or nothing is written.
        """
        entry = ("preprovision_host", host_id, tuple(service_ids), identity_verified, at)
        check_entry(entry)
        with self.lock:
            profile = self.host_db.get(host_id)
            descs = {sid: self.registry.get(sid) for sid in service_ids if sid not in profile.hosted}
            committed = profile.committed
            for desc in descs.values():
                committed = committed.plus(desc.min_resources)
            if not profile.capacity.covers(committed):
                raise ValueError("capacity must cover committed resources")
            if profile.certificate is None:
                self.security._issue(host_id, identity_verified, at)
            for desc in descs.values():
                self.hosts._place(host_id, desc)
            self.journal.append(entry)

    # -- invariants (every rule a state keeps) --------------------------------

    def check_invariants(self) -> list[str]:
        """Cross-module consistency: empty list means all good. A restore
        refuses a replayed state on which this reports anything. The shape rules
        come first and alone: the scans after them read a host share, a
        status and a description for every service they meet."""
        problems = []
        with self.lock:
            hosts, catalog = self.host_db.hosts, self.registry.db
            # Each dependency registered before its dependant: so no cycle.
            earlier: set[str] = set()
            for service_id, desc in catalog.services.items():
                try:
                    check_developer_share(desc.developer_share, self.billing.governor_commission)
                except NegotiationRejected as exc:
                    problems.append(f"service {service_id!r}: {exc}")
                later = [dep for dep in desc.dependencies if dep not in earlier]
                if later:
                    problems.append(f"service {service_id!r}: dependencies {later} not registered before it")
                earlier.add(service_id)
            unmatched = catalog.services.keys() ^ catalog.status.keys()
            if unmatched:
                problems.append(f"status and services name different ids: {sorted(unmatched)}")
            for host_id, profile in hosts.items():
                uncatalogued = sorted(sid for sid in profile.hosted if sid not in catalog.services)
                if uncatalogued:
                    problems.append(f"host {host_id}: hosts uncatalogued services {uncatalogued}")
            if problems:
                return problems
            # One fold over the report history: per host, its attempts;
            # the ids, and those paid.
            attempts: dict[str, int] = {}
            report_ids: set[str] = set()
            paid: set[str] = set()
            repeated: set[str] = set()
            report_problems = []
            for report in self.host_db.reports:
                report_id, host_id = report.report_id, report.host_id
                if report_id in report_ids:
                    repeated.add(report_id)
                report_ids.add(report_id)
                attempts[host_id] = attempts.get(host_id, 0) + 1
                if report.outcome.ok:
                    paid.add(report_id)
                if host_id not in hosts:
                    report_problems.append(f"hosts: report {report_id!r} names unknown host {host_id!r}")
                if report.service_id not in catalog.services:
                    report_problems.append(
                        f"hosts: report {report_id!r} names unknown service {report.service_id!r}"
                    )
            for host_id, profile in hosts.items():
                if profile.host_id != host_id:
                    problems.append(f"host {host_id}: profile names host {profile.host_id}")
                if not profile.capacity.covers(profile.committed):
                    problems.append(f"host {host_id}: committed exceeds capacity")
                held = ZERO_RESOURCES
                for service_id in profile.hosted:
                    held = held.plus(catalog.services[service_id].min_resources)
                if profile.committed != held:
                    problems.append(f"host {host_id}: committed differs from its hosted services")
                cert = profile.certificate
                if cert is None:
                    if host_id in attempts:
                        problems.append(f"host {host_id}: reports in the history but no certificate")
                else:
                    if cert.host_id != host_id:
                        problems.append(f"host {host_id}: certificate names host {cert.host_id}")
                    if not 0.0 <= cert.trust_score <= 1.0:
                        problems.append(f"host {host_id}: trust score out of bounds")
                    if cert.attempts != attempts.get(host_id, 0):
                        problems.append(f"host {host_id}: certificate attempts differ from its reports")
            if (self.host_db.keys, self.host_db.ranked) != self.host_db.scan_ranked():
                problems.append("hosts: ranking differs from a full scan of the profiles")
            if catalog.by_bit != list(catalog.services) or catalog.grams != catalog.scan_grams():
                problems.append("registry: search index differs from a full scan of the catalog")
            if catalog.by_revenue != catalog.scan_by_revenue(self.registry.host_revenue):
                problems.append("registry: listing order differs from a full sort of the catalog")
            if any(entries != catalog.scan_listing(platform) or services != [e[-1] for e in entries]
                   for platform, (entries, services) in catalog.listings.items()):
                problems.append("registry: kept platform listing differs from a filter of the listing order")
            if catalog.largest_need != catalog.scan_largest_need():
                problems.append("registry: largest need differs from the max over the listing order")
            every_id = sorted(catalog.services)
            if any(kept != catalog.matches(needle, every_id) for needle, kept in catalog.answers.items()):
                problems.append("registry: kept search answer differs from a full scan of the catalog")
            by_host, by_service = self.host_db.scan_report_indexes()
            if self.host_db.host_reports != by_host:
                problems.append("hosts: per-host report index differs from the report history")
            if self.host_db.service_reports != by_service:
                problems.append("hosts: per-service report index differs from the report history")
            if self.host_db.seen_report_ids != report_ids:
                problems.append("hosts: seen report ids differ from the report history")
            problems += [f"hosts: report id {report_id!r} is in the history more than once"
                         for report_id in sorted(repeated)]
            problems += report_problems
            if self.billing.total_credited() != self.billing.total_metered():
                problems.append("ledger: credits do not sum to metered totals")
            balance_sum = sum(self.billing.balances().values())
            if balance_sum != self.billing.total_metered():
                problems.append("ledger: party balances do not sum to metered totals")
            problems += self.billing.ledger_problems(paid)
        return problems
