"""Shared host database: the one store the host registry, host profiler,
and security governor all read and write.

Mutation happens only under the owning governor's lock; the values held
are immutable, so readers always see complete records.

`hosting` indexes `profile.hosted` by service, so finding the holders of
one service does not scan every host. Every write that can change a
profile's `hosted` set goes through `put_hosting` (a bulk load rebuilds
the index with `scan_hosting`); writes that leave `hosted` alone
(reports, certificates, departure) store the profile directly.

`reports` is the append-only execution history. `add_report` is its one
write: it also records the report id and appends the report to its host's
and its service's lists, so a window over one host or one service slices
a short list instead of scanning the whole history.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from ..domain import ExecutionReport, HostProfile
from ..errors import UnknownEntityError


@dataclass
class HostDatabase:
    hosts: dict[str, HostProfile] = field(default_factory=dict)
    reports: list[ExecutionReport] = field(default_factory=list)
    seen_report_ids: set[str] = field(default_factory=set)
    hosting: dict[str, set[str]] = field(default_factory=dict)  # service_id -> holder host ids
    host_reports: dict[str, list[ExecutionReport]] = field(default_factory=dict)
    service_reports: dict[str, list[ExecutionReport]] = field(default_factory=dict)

    def get(self, host_id: str) -> HostProfile:
        profile = self.hosts.get(host_id)
        if profile is None:
            raise UnknownEntityError(f"unknown host: {host_id!r}")
        return profile

    def put_hosting(self, profile: HostProfile) -> None:
        """Store a profile whose `hosted` set may differ from the stored one."""
        old = self.hosts.get(profile.host_id)
        before = old.hosted if old is not None else frozenset()
        for service_id in before - profile.hosted:
            holders = self.hosting[service_id]
            holders.discard(profile.host_id)
            if not holders:
                del self.hosting[service_id]
        for service_id in profile.hosted - before:
            self.hosting.setdefault(service_id, set()).add(profile.host_id)
        self.hosts[profile.host_id] = profile

    def scan_hosting(self) -> dict[str, set[str]]:
        """The hosting index as a full scan of the profiles computes it."""
        index: dict[str, set[str]] = {}
        for host_id, profile in self.hosts.items():
            for service_id in profile.hosted:
                index.setdefault(service_id, set()).add(host_id)
        return index

    def add_report(self, report: ExecutionReport) -> None:
        """Append a report to the history, its id set and both indexes."""
        self.seen_report_ids.add(report.report_id)
        self.reports.append(report)
        self.host_reports.setdefault(report.host_id, []).append(report)
        self.service_reports.setdefault(report.service_id, []).append(report)

    def scan_report_indexes(self) -> tuple[dict[str, list[ExecutionReport]],
                                           dict[str, list[ExecutionReport]]]:
        """The per-host and per-service indexes as a full scan of `reports` computes them."""
        by_host: dict[str, list[ExecutionReport]] = {}
        by_service: dict[str, list[ExecutionReport]] = {}
        for report in self.reports:
            by_host.setdefault(report.host_id, []).append(report)
            by_service.setdefault(report.service_id, []).append(report)
        return by_host, by_service

    def reports_for_host(self, host_id: str, window: int | None = None) -> list[ExecutionReport]:
        return _windowed(self.host_reports.get(host_id, []), window)

    def reports_for_service(self, service_id: str, window: int | None = None) -> list[ExecutionReport]:
        return _windowed(self.service_reports.get(service_id, []), window)


def _windowed(reports: list[ExecutionReport], window: int | None) -> list[ExecutionReport]:
    """A copy of the last `window` reports (all of them for None), so callers never hold an index."""
    if window is None:
        return reports[:]
    if window <= 0:  # [-0:] would be the whole list
        return []
    return reports[-window:]
