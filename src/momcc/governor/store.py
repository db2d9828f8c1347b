"""Shared host database: the one store the host registry, host profiler,
and security governor all read and write.

Mutation happens only under the owning governor's lock; the values held
are never assigned after they are built (a change is a new record stored
whole, which `tests/test_records.py` checks over whole runs), so readers
always see complete records.

`put` is the one profile write, and it keeps one index in step:
`ranked` maps each service to a sorted list of `(-level, -trust,
host_id)`, one entry per live, certified holder, so discovery reads a
kept ranking instead of sorting every holder on every query. A report
moves its host's entry in each service it holds.

`ranked_ids` keeps, per service, the host ids of its `ranked` entries as
one list, built by `ranked_hosts` on the first read after the ranking's
order or membership changes. A report that moves its host's entry in
place keeps the list; an insert, a removal or a reinsert drops it. A
kept list is never mutated, so every discovery reply (and the trace
record that holds it) shares the list its ranking produced.

`reports` is the append-only execution history. `add_report` is its one
write: it also records the report id and appends the report to its host's
and its service's lists, so a window over one host or one service slices
a short list instead of scanning the whole history.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field

from ..domain import ExecutionReport, HostProfile
from ..errors import UnknownEntityError


RankKey = tuple[int, float, str]


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
    ranked: dict[str, list[RankKey]] = field(default_factory=dict)  # service_id -> live, certified holders
    ranked_ids: dict[str, list[str]] = field(default_factory=dict)  # service_id -> host ids of `ranked`, kept
    host_reports: dict[str, list[ExecutionReport]] = field(default_factory=dict)
    service_reports: dict[str, list[ExecutionReport]] = field(default_factory=dict)

    def get(self, host_id: str) -> HostProfile:
        profile = self.hosts.get(host_id)
        if profile is None:
            raise UnknownEntityError(f"unknown host: {host_id!r}")
        return profile

    def put(self, profile: HostProfile) -> None:
        """Store a profile and move it in the ranking."""
        old = self.hosts.get(profile.host_id)
        self.hosts[profile.host_id] = profile
        before = old.hosted if old is not None else frozenset()
        after = profile.hosted
        old_key = rank_key(old) if old is not None else None
        new_key = rank_key(profile)
        if before is after:  # a report, a certificate or a departure: no set arithmetic
            kept = after
        else:
            if old_key is not None:
                for service_id in before - after:
                    self._unrank(service_id, old_key)
            if new_key is not None:
                for service_id in after - before:
                    self._rank(service_id, new_key)
            kept = before & after
        if old_key == new_key:
            return
        for service_id in kept:
            if old_key is None:
                self._rank(service_id, new_key)
            elif new_key is None:
                self._unrank(service_id, old_key)
            elif not _move(self.ranked[service_id], old_key, new_key):
                self.ranked_ids.pop(service_id, None)

    def _rank(self, service_id: str, key: RankKey) -> None:
        insort(self.ranked.setdefault(service_id, []), key)
        self.ranked_ids.pop(service_id, None)

    def _unrank(self, service_id: str, key: RankKey) -> None:
        entries = self.ranked[service_id]
        del entries[_index(entries, key)]
        if not entries:
            del self.ranked[service_id]
        self.ranked_ids.pop(service_id, None)

    def ranked_hosts(self, service_id: str) -> list[str]:
        """The host ids of a service's ranking, best first, as one kept
        list. Shared: do not mutate."""
        kept = self.ranked_ids.get(service_id)
        if kept is None:
            kept = [host_id for _, _, host_id in self.ranked.get(service_id, ())]
            self.ranked_ids[service_id] = kept
        return kept

    def scan_ranked(self) -> dict[str, list[RankKey]]:
        """The ranking index as a full scan of the profiles computes it."""
        index: dict[str, list[RankKey]] = {}
        for profile in self.hosts.values():
            key = rank_key(profile)
            if key is not None:
                for service_id in profile.hosted:
                    index.setdefault(service_id, []).append(key)
        for entries in index.values():
            entries.sort()
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


def _index(entries: list[RankKey], key: RankKey) -> int:
    i = bisect_left(entries, key)
    if i == len(entries) or entries[i] != key:
        raise LookupError(f"ranking has no entry {key!r}: a profile was stored without `put`")
    return i


def _move(entries: list[RankKey], old: RankKey, new: RankKey) -> bool:
    """Replace `old` with `new`, in place while the order still holds;
    whether it did (the order of the entries' hosts is then unchanged)."""
    i = _index(entries, old)
    if (i == 0 or entries[i - 1] < new) and (i + 1 == len(entries) or new < entries[i + 1]):
        entries[i] = new
        return True
    del entries[i]
    insort(entries, new)
    return False


def _windowed(reports: list[ExecutionReport], window: int | None) -> list[ExecutionReport]:
    """A copy of the last `window` reports (all of them for None), so callers never hold an index."""
    if window is None:
        return reports[:]
    if window <= 0:  # [-0:] would be the whole list
        return []
    return reports[-window:]
