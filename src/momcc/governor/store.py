"""Shared host database: the one store the host registry, host profiler,
and security governor all read and write.

Mutation happens only under the owning governor's lock; the values held
are never assigned after they are built (a change is a new record stored
whole, which `tests/test_records.py` checks over whole runs), so readers
always see complete records.

`put` is the one profile write, and it keeps the discovery ranking in
step: `keys` maps each live, certified host to its rank key
`(-level, -trust, host_id)`, and `ranked` maps each service to the ids
of its live, certified holders in key order, so discovery reads a kept
ranking instead of sorting every holder on every query. A report
finds its host in each list it is in and writes nothing there while its
neighbours' keys still bracket its new key; a change of order or of
membership stores a new list (copy on write). A list once stored is
never mutated, so `ranked_hosts`, every discovery reply and the trace
record that holds it share the list its ranking produced.

`reports` is the append-only execution history. `add_report` is its one
write: it also records the report id and appends the report to its host's
and its service's lists, so a window over one host or one service slices
a short list instead of scanning the whole history.
"""
from __future__ import annotations

from bisect import insort
from dataclasses import dataclass, field

from ..domain import ExecutionReport, HostProfile
from ..errors import UnknownEntityError


RankKey = tuple[int, float, str]

_NO_HOLDERS: list[str] = []  # every unranked service's kept list; never mutated
_NOTHING: frozenset[str] = frozenset()


def rank_key(profile: HostProfile) -> RankKey | None:
    """A holder's place in discovery order: certificate level desc, trust
    score desc, host_id asc; None for a departed or uncertified host."""
    cert = profile.certificate
    if cert is None or not profile.alive:
        return None
    return (-cert.level, -cert.trust_score, profile.host_id)


@dataclass
class HostDatabase:
    hosts: dict[str, HostProfile] = field(default_factory=dict)
    reports: list[ExecutionReport] = field(default_factory=list)
    seen_report_ids: set[str] = field(default_factory=set)
    keys: dict[str, RankKey] = field(default_factory=dict)  # live, certified host -> its rank key
    ranked: dict[str, list[str]] = field(default_factory=dict)  # service_id -> its holders by key, kept
    host_reports: dict[str, list[ExecutionReport]] = field(default_factory=dict)
    service_reports: dict[str, list[ExecutionReport]] = field(default_factory=dict)

    def get(self, host_id: str) -> HostProfile:
        profile = self.hosts.get(host_id)
        if profile is None:
            raise UnknownEntityError(f"unknown host: {host_id!r}")
        return profile

    def put(self, profile: HostProfile) -> None:
        """Store a profile and move its host in the rankings. A list that
        changes is replaced, never mutated."""
        host_id = profile.host_id
        old = self.hosts.get(host_id)
        self.hosts[host_id] = profile
        keys, ranked = self.keys, self.ranked
        old_key = keys.pop(host_id, None)
        new_key = rank_key(profile)
        if new_key is not None:
            keys[host_id] = new_key
        was = old.hosted if old_key is not None else _NOTHING
        now = profile.hosted if new_key is not None else _NOTHING
        if was is not now:  # a report keeps its host's set: no set arithmetic
            for service_id in was - now:
                holders = ranked[service_id]
                i = holders.index(host_id)
                if len(holders) == 1:
                    del ranked[service_id]
                else:
                    ranked[service_id] = holders[:i] + holders[i + 1:]
            for service_id in now - was:
                holders = ranked.get(service_id, _NO_HOLDERS)[:]
                insort(holders, host_id, key=keys.__getitem__)
                ranked[service_id] = holders
            now = was & now
        if old_key == new_key:
            return
        for service_id in now:
            holders = ranked[service_id]
            i = holders.index(host_id)
            if (i == 0 or keys[holders[i - 1]] < new_key) and (
                    i + 1 == len(holders) or new_key < keys[holders[i + 1]]):
                continue
            holders = holders[:i] + holders[i + 1:]
            insort(holders, host_id, key=keys.__getitem__)
            ranked[service_id] = holders

    def ranked_hosts(self, service_id: str) -> list[str]:
        """A service's live, certified holders, best first, as its kept
        list. Shared: do not mutate."""
        return self.ranked.get(service_id, _NO_HOLDERS)

    def scan_ranked(self) -> tuple[dict[str, RankKey], dict[str, list[str]]]:
        """`keys` and `ranked` as a full scan of the profiles computes them."""
        keys: dict[str, RankKey] = {}
        ranked: dict[str, list[str]] = {}
        for profile in self.hosts.values():
            key = rank_key(profile)
            if key is not None:
                keys[profile.host_id] = key
                for service_id in profile.hosted:
                    ranked.setdefault(service_id, []).append(profile.host_id)
        for holders in ranked.values():
            holders.sort(key=keys.__getitem__)
        return keys, ranked

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
