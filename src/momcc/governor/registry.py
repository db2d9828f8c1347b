"""Service registry: the public service repository and discovery point.

Registration vets each service (developer registered with billing,
malware-scan attestation, footprint ceiling, every dependency already
registered) before it becomes Active. A composite is built from
services that exist, so every dependency edge points to an earlier
registration and the dependency graph never has a cycle. Discovery
answers requesters with developer identity stripped, pairing each match
with the live hosts currently running it; hosts browse the full
descriptions instead, filtered to what they can run.

Descriptions never change after registration, so everything derived
from one (its listing, its two reply encodings, its index entries) is
built once and kept in the service database. The reply encodings are
built on first use and shared by every reply that carries them: readers
must never mutate them.

Discovery reads trigram postings: a posting maps a trigram (a
3-character substring) to the services whose lowercased name and
description hold it. A query tests only the services holding both its
first and its last trigram, a superset of its matches; queries shorter
than 3 characters still scan. A posting is built on the first query
that needs it, with one scan of the catalog texts, and then kept; a
registration sets its service's bit in each kept posting its text
holds. So a registration builds no posting, and the database keeps
only the postings of the first and last trigrams of the queries asked.
Postings cover every registered service whatever its status, which is
checked when a query reads them.

Listings read one list kept in host-revenue order, so no call sorts the
catalog or parses a service's version. Host revenue is the price times
billing's host share, so listings rank by the split billing settles.
That order covers every registered service whatever its status;
registration only queues a service (`pending`), and the next listing
indexes the queue: it enters each queued service into that order, the
largest need and the kept listings.

A listing does no work between changes. The database keeps, per host
platform (OS and parsed version), the Active services that platform can
run, in host-revenue order, built on the platform's first listing, and
the component-wise largest need of every indexed service. A host whose
free resources cover that need gets the kept list itself; any other
host gets it filtered by resources. A registration, once indexed, or
a deprecation copies each kept list it changes once and inserts or
deletes in the copy, so a list already handed out never changes. Kept
lists are shared: readers must never mutate them.

A query's answer is kept until a service that can change it does: the
database maps each lowercased query to its Active matches, and a
registration or a deprecation drops exactly the kept queries that the
service's text contains. A kept answer is shared by every caller that
asks the same query: readers must never mutate it. There is no cap: the
kept queries are the distinct queries asked, and a scenario's
requesters draw theirs from fixed pools. Discovery likewise
keeps one `DiscoveryResult` per service and reuses it while the host
database still returns the same kept ranking list, so between two
changes a repeated query builds nothing.
"""
from __future__ import annotations

import threading
from bisect import bisect, bisect_left
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Callable

from ..domain import (
    ResourceVector,
    SecurityLevel,
    ServiceDescription,
    parse_version,
)
from ..errors import NegotiationRejected, RegistrationRejected, UnknownEntityError
from ..wire import listing_to_dict, service_to_dict
from .billing import BillingUnit, check_developer_share
from .journal import check_entry
from .store import HostDatabase

DEFAULT_FOOTPRINT_CEILING = ResourceVector(cpu=1024, memory=64, storage=64, energy=1000)


class ServiceStatus(Enum):
    ACTIVE = "Active"
    DEPRECATED = "Deprecated"


@dataclass
class ServiceDatabase:
    """Registered services in registration order, per-service caches, and
    the two query indexes. No id list is kept in sorted order: the rare
    reader that needs one (a needle shorter than 3 characters, a
    deprecation's substitution candidates, `check_invariants()`) sorts
    `services`.

    `by_bit` lists the ids in registration order, and `grams` maps each
    trigram a query has needed to the ids whose `search_text` holds it,
    as a bitset: bit i stands for `by_bit[i]`. An int per trigram takes
    about a sixteenth of the memory of a set of ids on a 2000-service
    catalog, and a search intersects two postings in one operation.
    `by_revenue` holds one `RevenueEntry` per service in `(-host revenue,
    service_id)` order, and `largest_need` the component-wise max of
    their needs (cpu, memory, storage, energy); a deprecation leaves
    both, so the max only grows. `listings` keeps, per `Platform`, its
    Active `by_revenue` entries and, as a second list, their
    descriptions: the entries are updated in place, the descriptions are
    handed out and so replaced, never mutated. `pending` lists the ids
    that `add` stored and `index` has not yet entered into `by_revenue`,
    `largest_need` and `listings`. `answers` keeps each searched needle's
    Active matches in id order, and `results` each service's last
    discovery result.
    """

    services: dict[str, ServiceDescription] = field(default_factory=dict)
    status: dict[str, ServiceStatus] = field(default_factory=dict)
    search_text: dict[str, str] = field(default_factory=dict)
    listing_dicts: dict[str, dict] = field(default_factory=dict)
    wire_dicts: dict[str, dict] = field(default_factory=dict)
    grams: dict[str, int] = field(default_factory=dict)
    by_bit: list[str] = field(default_factory=list)
    by_revenue: list[RevenueEntry] = field(default_factory=list)
    largest_need: Need = (0, 0, 0, 0)
    listings: dict[Platform, tuple[list[RevenueEntry], list[ServiceDescription]]] = field(
        default_factory=dict
    )
    pending: list[str] = field(default_factory=list)
    answers: dict[str, list[ServiceDescription]] = field(default_factory=dict)
    results: dict[str, DiscoveryResult] = field(default_factory=dict)

    def add(self, desc: ServiceDescription) -> None:
        """Store a service, set its bit in each kept posting its text holds
        and queue it for the listing order."""
        text = f"{desc.name} {desc.description}".lower()
        self.services[desc.service_id] = desc
        self.search_text[desc.service_id] = text
        bit = 1 << len(self.by_bit)
        self.by_bit.append(desc.service_id)
        grams = self.grams
        for gram in grams:
            if gram in text:
                grams[gram] |= bit
        self.pending.append(desc.service_id)
        self.forget_answers(text)

    def forget_answers(self, text: str) -> None:
        """Drop the kept answers of every needle that `text` contains: the
        only queries a service with that text can enter or leave."""
        answers = self.answers
        for needle in [needle for needle in answers if needle in text]:
            del answers[needle]

    def index(self, host_revenue: Callable[[ServiceDescription], int]) -> None:
        """Enter every pending service into the listing order, the largest
        need and, if Active, the kept listings of the platforms that run it."""
        if not self.pending:
            return
        queued = sorted(revenue_entry(self.services[sid], host_revenue) for sid in self.pending)
        self.pending.clear()
        # One merge pass, each entry inserted after the last: the first
        # listing's queue is the whole catalog, so each insert is an
        # append, and later queues hold a few services. Sorting the
        # merged list instead would compare every entry for each of them.
        by_revenue, at = self.by_revenue, 0
        for entry in queued:
            at = bisect(by_revenue, entry, at)
            by_revenue.insert(at, entry)
            at += 1
        columns = zip(*[entry[4:8] for entry in queued])
        self.largest_need = tuple(map(max, self.largest_need, map(max, columns)))
        status, active = self.status, ServiceStatus.ACTIVE
        entered = [entry for entry in queued if status[entry[1]] is active]
        for platform, (entries, services) in list(self.listings.items()):
            added = [entry for entry in entered if runs_on(entry, platform)]
            if added:
                services = services.copy()
                for entry in added:
                    at = bisect(entries, entry)
                    entries.insert(at, entry)
                    services.insert(at, entry[-1])
                self.listings[platform] = (entries, services)

    def delist(self, entry: RevenueEntry) -> None:
        """Take a service's entry out of every kept listing that holds it."""
        for platform, (entries, services) in list(self.listings.items()):
            at = bisect_left(entries, entry)
            if at < len(entries) and entries[at][1] == entry[1]:
                del entries[at]
                self.listings[platform] = (entries, services[:at] + services[at + 1:])

    def listing(self, platform: Platform) -> tuple[list[RevenueEntry], list[ServiceDescription]]:
        """The kept listing of `platform`, built on its first call. Call
        `index` first: pending services are not in it."""
        kept = self.listings.get(platform)
        if kept is None:
            entries = self.scan_listing(platform)
            kept = self.listings[platform] = (entries, [entry[-1] for entry in entries])
        return kept

    def scan_listing(self, platform: Platform) -> list[RevenueEntry]:
        """The Active `by_revenue` entries that `platform` can run."""
        status, active = self.status, ServiceStatus.ACTIVE
        return [
            entry for entry in self.by_revenue
            if runs_on(entry, platform) and status[entry[1]] is active
        ]

    def scan_largest_need(self) -> Need:
        """`largest_need` recomputed over `by_revenue`."""
        largest = (0, 0, 0, 0)
        for entry in self.by_revenue:
            largest = tuple(map(max, largest, entry[4:8]))
        return largest

    def candidates(self, needle: str) -> list[str]:
        """Ids, in sorted order, whose text holds the first and the last
        trigram of `needle`: a superset of those whose text holds `needle`,
        and every registered id, sorted, when `needle` is shorter than 3
        characters."""
        if len(needle) < 3:
            return sorted(self.services)
        bits = self.posting(needle[:3]) & self.posting(needle[-3:])
        by_bit = self.by_bit
        found = []
        while bits:
            low = bits & -bits
            found.append(by_bit[low.bit_length() - 1])
            bits ^= low
        found.sort()
        return found

    def matches(self, needle: str, ids: list[str]) -> list[ServiceDescription]:
        """The Active services among `ids` whose text holds `needle`, in
        the order of `ids`; every registered id, sorted, makes it a full
        scan."""
        search_text, status, active = self.search_text, self.status, ServiceStatus.ACTIVE
        return [
            self.services[sid] for sid in ids
            if needle in search_text[sid] and status[sid] is active
        ]

    def posting(self, gram: str) -> int:
        """The kept posting of `gram`, built on its first call."""
        bits = self.grams.get(gram)
        if bits is None:
            bits = self.grams[gram] = self.scan_posting(gram)
        return bits

    def scan_posting(self, gram: str) -> int:
        """The posting of `gram`, from one scan of the texts in `by_bit`."""
        search_text, bits = self.search_text, 0
        for position, sid in enumerate(self.by_bit):
            if gram in search_text[sid]:
                bits |= 1 << position
        return bits

    def scan_grams(self) -> dict[str, int]:
        """Every kept posting, rebuilt with `scan_posting`."""
        return {gram: self.scan_posting(gram) for gram in self.grams}

    def indexed_ids(self) -> list[str]:
        """Ids of the services no longer pending, in sorted order."""
        pending = set(self.pending)
        return [sid for sid in sorted(self.services) if sid not in pending]

    def scan_by_revenue(self, host_revenue: Callable[[ServiceDescription], int]) -> list[RevenueEntry]:
        """`by_revenue` rebuilt by sorting every indexed service."""
        return sorted(revenue_entry(self.services[sid], host_revenue) for sid in self.indexed_ids())


# (-host revenue, service_id, platform os, parsed min version, cpu,
# memory, storage, energy, description): what a listing filters on, in
# the order it ranks. Ids are unique, so sorting never compares past them.
RevenueEntry = tuple[int, str, str, tuple[int, int, int], int, int, int, int, ServiceDescription]
# A host platform: its OS and parsed version.
Platform = tuple[str, tuple[int, int, int]]
# Resources as (cpu, memory, storage, energy).
Need = tuple[int, int, int, int]


def runs_on(entry: RevenueEntry, platform: Platform) -> bool:
    """Whether a host of `platform` meets the entry's platform requirement."""
    return entry[2] == platform[0] and entry[3] <= platform[1]


def revenue_entry(desc: ServiceDescription,
                  host_revenue: Callable[[ServiceDescription], int]) -> RevenueEntry:
    need = desc.min_resources
    return (
        -host_revenue(desc), desc.service_id, desc.platform.os_name,
        parse_version(desc.platform.min_version),
        need.cpu, need.memory, need.storage, need.energy, desc,
    )


@dataclass(slots=True)
class ServiceListing:
    """A discovery result record: the description minus the developer identity.

    Slotted and not frozen: each service's first discovery builds one,
    and a frozen `__init__` costs several times a slotted one. Nothing
    assigns to a listing once it is built, or hashes one; equality is
    kept.
    """

    service_id: str
    name: str
    description: str
    functionality_tag: str
    input_spec: str
    output_spec: str
    binding_method: str
    security_level: str
    platform_os: str
    platform_min_version: str
    min_resources: ResourceVector
    price_per_invocation: int
    dependencies: tuple[str, ...]


@dataclass(slots=True)
class DiscoveryResult:
    """A match and its live hosts, best first. `hosts` is the host
    database's kept list for the service. The registry keeps one per
    service and returns it while that list lasts. Shared: do not mutate.

    Slotted and not frozen, like `ServiceListing`: nothing assigns to a
    result once it is built, or hashes one. The endpoint compares a
    query's results with its last ones by equality.
    """

    listing: ServiceListing
    hosts: list[str]


# Each level's label, indexed by the level: `SecurityLevel.label` goes
# through the Enum's `name`, which runs in Python.
_LABELS = tuple(level.label for level in sorted(SecurityLevel))


def _listing_of(desc: ServiceDescription) -> ServiceListing:
    """`desc`'s listing, built positionally, in declaration order."""
    platform = desc.platform
    return ServiceListing(desc.service_id, desc.name, desc.description, desc.functionality_tag,
                          desc.input_spec, desc.output_spec, desc.binding_method,
                          _LABELS[desc.security_level], platform.os_name, platform.min_version,
                          desc.min_resources, desc.price_per_invocation, desc.dependencies)


class ServiceRegistry:
    """Linearizable service store: concurrent reads, serialized writes."""

    def __init__(self, billing: BillingUnit, host_db: HostDatabase,
                 footprint_ceiling: ResourceVector, lock: threading.RLock, journal: list):
        self.db = ServiceDatabase()
        self.footprint_ceiling = footprint_ceiling
        self._billing = billing
        self._host_db = host_db
        self._lock = lock
        self._journal = journal

    # -- registration ---------------------------------------------------

    def register_service(self, desc: ServiceDescription, scan_attestation: bool = True) -> str:
        """Vet and store a service as Active.

        `scan_attestation` is the verdict of the malware scan the code
        went through. A description its saved entry's schema refuses
        raises `ValueError`. Rejection reasons, in check order: developer,
        share (billing could never settle the service's split), duplicate,
        scan, footprint, dependency (one not registered, whatever its
        status).
        """
        check_entry(("registry.register_service", desc, scan_attestation))
        if type(desc.dependencies) is not tuple:  # stored and journaled as a restore builds it
            desc = replace(desc, dependencies=tuple(desc.dependencies))
        entry = ("registry.register_service", desc, scan_attestation)
        with self._lock:
            if not self._billing.developer_registered(desc.developer_id):
                raise RegistrationRejected(
                    "developer", f"developer {desc.developer_id!r} not registered with billing"
                )
            try:
                check_developer_share(desc.developer_share, self._billing.governor_commission)
            except NegotiationRejected as exc:
                raise RegistrationRejected("share", f"service {desc.service_id!r}: {exc}") from None
            if desc.service_id in self.db.services:
                raise RegistrationRejected("duplicate", f"service id {desc.service_id!r} already registered")
            if not scan_attestation:
                raise RegistrationRejected("scan", f"service {desc.service_id!r} failed the code scan")
            if not self.footprint_ceiling.covers(desc.min_resources):
                raise RegistrationRejected(
                    "footprint",
                    f"service {desc.service_id!r} exceeds the footprint ceiling "
                    f"{self.footprint_ceiling.as_dict()}",
                )
            services = self.db.services
            unknown = [dep for dep in desc.dependencies if dep not in services]
            if unknown:
                raise RegistrationRejected("dependency", f"service {desc.service_id!r} "
                                           f"depends on unregistered services {unknown}")
            self.db.add(desc)
            self.db.status[desc.service_id] = ServiceStatus.ACTIVE
            self._journal.append(entry)
            return desc.service_id

    def _deprecate(self, service_id: str) -> None:
        """Mark Deprecated: hidden from discovery and hosting listings.

        The service profiler's sweep is the one caller, under the lock it
        holds. Hosts already running the service keep it until they
        unhost. There is no reinstatement path.
        """
        if service_id not in self.db.services:
            raise UnknownEntityError(f"unknown service: {service_id!r}")
        if self.db.status[service_id] != ServiceStatus.ACTIVE:
            raise UnknownEntityError(f"service {service_id!r} is not Active")
        self.db.status[service_id] = ServiceStatus.DEPRECATED
        self.db.forget_answers(self.db.search_text[service_id])
        self.db.delist(revenue_entry(self.db.services[service_id], self.host_revenue))

    # -- lookup ----------------------------------------------------------

    def get(self, service_id: str) -> ServiceDescription:
        with self._lock:
            desc = self.db.services.get(service_id)
            if desc is None:
                raise UnknownEntityError(f"unknown service: {service_id!r}")
            return desc

    def is_known(self, service_id: str) -> bool:
        with self._lock:
            return service_id in self.db.services

    def active_services(self) -> list[ServiceDescription]:
        with self._lock:
            return [
                self.db.services[sid]
                for sid in sorted(self.db.services)
                if self.db.status[sid] == ServiceStatus.ACTIVE
            ]

    def search_active(self, query: str) -> list[ServiceDescription]:
        """Case-insensitive substring match over name and description, in
        id order. The list is the kept answer: shared, do not mutate."""
        needle = query.lower()
        with self._lock:
            db = self.db
            kept = db.answers.get(needle)
            if kept is not None:
                return kept
            kept = db.answers[needle] = db.matches(needle, db.candidates(needle))
            return kept

    def _indexed(self) -> ServiceDatabase:
        """The database, with every pending service entered into its indexes."""
        if self.db.pending:
            self.db.index(self.host_revenue)
        return self.db

    # -- discovery and listings -------------------------------------------

    def discover(self, query: str, requester_pseudonym: str) -> list[DiscoveryResult]:
        """Requester-facing search; results carry no developer identity.
        Each match's hosts are the host database's kept ranking, and its
        result is the kept one while that ranking's list is unchanged."""
        with self._lock:
            ranked_hosts, kept = self._host_db.ranked_hosts, self.db.results
            found = []
            for desc in self.search_active(query):
                service_id = desc.service_id
                hosts = ranked_hosts(service_id)
                result = kept.get(service_id)
                if result is None or result.hosts is not hosts:
                    listing = _listing_of(desc) if result is None else result.listing
                    result = kept[service_id] = DiscoveryResult(listing, hosts)
                found.append(result)
            return found

    def listing_dict(self, service_id: str) -> dict:
        """A service's listing as a discovery reply carries it. Shared: do not mutate."""
        with self._lock:
            encoded = self.db.listing_dicts.get(service_id)
            if encoded is None:
                encoded = listing_to_dict(self.get(service_id))
                self.db.listing_dicts[service_id] = encoded
            return encoded

    def wire_dict(self, service_id: str) -> dict:
        """`service_to_dict` of a registered service, built once. Shared: do not mutate."""
        with self._lock:
            encoded = self.db.wire_dicts.get(service_id)
            if encoded is None:
                encoded = self.db.wire_dicts[service_id] = service_to_dict(self.get(service_id))
            return encoded

    def list_available_services(
        self, host_free: ResourceVector, host_os: str, host_version: str
    ) -> list[ServiceDescription]:
        """Active services the host could run, best host revenue first.

        A host whose free resources cover every indexed service's need
        gets its platform's kept list: shared, do not mutate. Raises
        `VersionError` if `host_version` does not parse.
        """
        platform = (host_os, parse_version(host_version))
        cpu, memory, storage, energy = host_free.cpu, host_free.memory, host_free.storage, host_free.energy
        with self._lock:
            db = self._indexed()
            entries, services = db.listing(platform)
            need_cpu, need_memory, need_storage, need_energy = db.largest_need
            if cpu >= need_cpu and memory >= need_memory and storage >= need_storage and energy >= need_energy:
                return services
            return [
                desc
                for _, _, _, _, need_cpu, need_memory, need_storage, need_energy, desc in entries
                if need_cpu <= cpu and need_memory <= memory
                and need_storage <= storage and need_energy <= energy
            ]

    def host_revenue(self, desc: ServiceDescription) -> int:
        """Expected per-invocation host earnings: price x host share, rounded
        down. The share is never negative: registration vets it."""
        share = self._billing.host_share(desc.developer_share)
        return share.numerator * desc.price_per_invocation // share.denominator

    def substitution_candidates(self, functionality_tag: str, exclude: str | None = None) -> list[ServiceDescription]:
        with self._lock:
            return [
                desc
                for desc in self.active_services()
                if desc.functionality_tag == functionality_tag and desc.service_id != exclude
            ]
