"""Service registry: the public service repository and discovery point.

Registration vets each service (developer registered with billing,
malware-scan attestation, footprint ceiling, dependency acyclicity)
before it becomes Active. Discovery answers requesters with developer
identity stripped, pairing each match with the live hosts currently
running it; hosts browse the full descriptions instead, filtered to
what they can run.

Descriptions never change after registration, so everything derived
from one (its listing, its two reply encodings, its index entries) is
built once and kept in the service database. The reply encodings are
built on first use and shared by every reply that carries them: readers
must never mutate them.

Discovery looks up the trigram postings of its query (each 3-character
substring of a service's lowercased name and description maps to the
ids containing it) and tests only the services holding all of them;
queries shorter than 3 characters still scan. Listings filter one list
kept in host-revenue order, so no call sorts the catalog or parses a
service's version. Host revenue is the price times billing's host
share, so listings rank by the split billing settles. Both indexes
cover every registered service whatever its status, which is checked
when a query reads them; registration only queues a service, and the
next query indexes the queue.

A query's answer is kept until a service that can change it does: the
database maps each lowercased query to its Active matches, and a
registration or a deprecation drops exactly the kept queries that the
service's text contains (a restore starts a fresh database). A kept
answer is shared by every caller that asks the same query: readers must
never mutate it. There is no cap: the kept queries are the distinct
queries asked, and a scenario's requesters draw theirs from fixed
pools. Discovery likewise
keeps one `DiscoveryResult` per service and reuses it while the host
database still returns the same kept ranking list, so between two
changes a repeated query builds nothing.
"""
from __future__ import annotations

import threading
from bisect import insort
from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import Callable, Iterator

from ..domain import (
    PlatformRequirement,
    ResourceVector,
    SecurityLevel,
    ServiceDescription,
    parse_version,
)
from ..errors import NegotiationRejected, RegistrationRejected, UnknownEntityError
from .billing import BillingUnit, check_developer_share
from .store import HostDatabase

DEFAULT_FOOTPRINT_CEILING = ResourceVector(cpu=1024, memory=64, storage=64, energy=1000)


class ServiceStatus(Enum):
    ACTIVE = "Active"
    DEPRECATED = "Deprecated"


@dataclass
class ServiceDatabase:
    """Registered services, their ids in sorted order, per-service caches,
    and the two query indexes.

    `grams` maps each trigram of a service's `search_text` to the ids
    containing it, as a bitset: bit i stands for `by_bit[i]`, the i-th
    service indexed. On a 2000-service catalog an int per trigram takes
    about a sixteenth of the memory of a set of ids, and a search
    intersects two postings in one operation. `by_revenue` holds one
    `RevenueEntry` per service in `(-host revenue, service_id)` order.
    `pending` lists the ids that `add` stored and `index` has not yet
    entered into either. `answers` keeps each searched needle's Active
    matches in id order, and `results` each service's last discovery
    result. A restore replaces the whole database, which drops the
    caches, the indexes, the kept answers and the queue with it.
    """

    services: dict[str, ServiceDescription] = field(default_factory=dict)
    status: dict[str, ServiceStatus] = field(default_factory=dict)
    search_text: dict[str, str] = field(default_factory=dict)
    sorted_ids: list[str] = field(default_factory=list)
    listing_dicts: dict[str, dict] = field(default_factory=dict)
    wire_dicts: dict[str, dict] = field(default_factory=dict)
    grams: dict[str, int] = field(default_factory=dict)
    by_bit: list[str] = field(default_factory=list)
    by_revenue: list[RevenueEntry] = field(default_factory=list)
    pending: list[str] = field(default_factory=list)
    answers: dict[str, list[ServiceDescription]] = field(default_factory=dict)
    results: dict[str, DiscoveryResult] = field(default_factory=dict)

    def add(self, desc: ServiceDescription) -> None:
        text = f"{desc.name} {desc.description}".lower()
        self.services[desc.service_id] = desc
        self.search_text[desc.service_id] = text
        insort(self.sorted_ids, desc.service_id)
        self.pending.append(desc.service_id)
        self.forget_answers(text)

    def forget_answers(self, text: str) -> None:
        """Drop the kept answers of every needle that `text` contains: the
        only queries a service with that text can enter or leave."""
        answers = self.answers
        for needle in [needle for needle in answers if needle in text]:
            del answers[needle]

    def index(self, host_revenue: Callable[[ServiceDescription], int]) -> None:
        """Enter every pending service into both indexes."""
        grams = self.grams
        for sid in self.pending:
            bit = 1 << len(self.by_bit)
            self.by_bit.append(sid)
            for gram in trigrams(self.search_text[sid]):
                grams[gram] = grams.get(gram, 0) | bit
            insort(self.by_revenue, revenue_entry(self.services[sid], host_revenue))
        self.pending.clear()

    def candidates(self, needle: str) -> list[str]:
        """Indexed ids, in sorted order, whose text holds every trigram of
        `needle`: a superset of those whose text holds `needle`, and all of
        them when `needle` is shorter than 3 characters."""
        grams, by_bit = self.grams, self.by_bit
        bits = (1 << len(by_bit)) - 1
        # Slicing in place costs less than `trigrams` on a query's few characters.
        for i in range(len(needle) - 2):
            bits &= grams.get(needle[i:i + 3], 0)
            if not bits:
                return []
        found = []
        while bits:
            low = bits & -bits
            found.append(by_bit[low.bit_length() - 1])
            bits ^= low
        found.sort()
        return found

    def matches(self, needle: str, ids: list[str]) -> list[ServiceDescription]:
        """The Active services among `ids` whose text holds `needle`, in
        the order of `ids`; `sorted_ids` makes it a full scan."""
        search_text, status, active = self.search_text, self.status, ServiceStatus.ACTIVE
        return [
            self.services[sid] for sid in ids
            if needle in search_text[sid] and status[sid] is active
        ]

    def indexed_ids(self) -> list[str]:
        """Ids of the services no longer pending, in sorted order."""
        pending = set(self.pending)
        return [sid for sid in self.sorted_ids if sid not in pending]

    def scan_grams(self) -> dict[str, int]:
        """`grams` rebuilt from the text of every service in `by_bit`."""
        grams: dict[str, int] = {}
        for position, sid in enumerate(self.by_bit):
            for gram in trigrams(self.search_text[sid]):
                grams[gram] = grams.get(gram, 0) | 1 << position
        return grams

    def scan_by_revenue(self, host_revenue: Callable[[ServiceDescription], int]) -> list[RevenueEntry]:
        """`by_revenue` rebuilt by sorting every indexed service."""
        return sorted(revenue_entry(self.services[sid], host_revenue) for sid in self.indexed_ids())


def trigrams(text: str) -> Iterator[str]:
    """Every 3-character substring of `text`, repeats included."""
    return map("".join, zip(text, text[1:], text[2:]))


# (-host revenue, service_id, platform os, parsed min version, cpu,
# memory, storage, energy, description): what a listing filters on, in
# the order it ranks. Ids are unique, so sorting never compares past them.
RevenueEntry = tuple[int, str, str, tuple[int, int, int], int, int, int, int, ServiceDescription]


def revenue_entry(desc: ServiceDescription,
                  host_revenue: Callable[[ServiceDescription], int]) -> RevenueEntry:
    need = desc.min_resources
    return (
        -host_revenue(desc), desc.service_id, desc.platform.os_name,
        parse_version(desc.platform.min_version),
        need.cpu, need.memory, need.storage, need.energy, desc,
    )


@dataclass(frozen=True)
class ServiceListing:
    """A discovery result record: the description minus the developer identity."""

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


@dataclass(frozen=True)
class DiscoveryResult:
    """A match and its live hosts, best first. `hosts` is the host
    database's kept list for the service. The registry keeps one per
    service and returns it while that list lasts. Shared: do not mutate."""

    listing: ServiceListing
    hosts: list[str]


def _listing_of(desc: ServiceDescription) -> ServiceListing:
    return ServiceListing(
        service_id=desc.service_id,
        name=desc.name,
        description=desc.description,
        functionality_tag=desc.functionality_tag,
        input_spec=desc.input_spec,
        output_spec=desc.output_spec,
        binding_method=desc.binding_method,
        security_level=desc.security_level.label,
        platform_os=desc.platform.os_name,
        platform_min_version=desc.platform.min_version,
        min_resources=desc.min_resources,
        price_per_invocation=desc.price_per_invocation,
        dependencies=desc.dependencies,
    )


def listing_to_dict(listing: ServiceListing) -> dict:
    encoded = asdict(listing)
    encoded["dependencies"] = list(listing.dependencies)
    return encoded


class ServiceRegistry:
    """Linearizable service store: concurrent reads, serialized writes."""

    def __init__(self, billing: BillingUnit, host_db: HostDatabase,
                 footprint_ceiling: ResourceVector, lock: threading.RLock):
        self.db = ServiceDatabase()
        self.footprint_ceiling = footprint_ceiling
        self._billing = billing
        self._host_db = host_db
        self._lock = lock

    # -- registration ---------------------------------------------------

    def register_service(self, desc: ServiceDescription, scan_attestation: bool = True) -> str:
        """Vet and store a service as Active.

        `scan_attestation` is the verdict of the malware scan the code
        went through. Rejection reasons, in check order: developer,
        share (billing could never settle the service's split), duplicate,
        scan, footprint, cycle.
        """
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
            if self._closes_cycle(desc):
                raise RegistrationRejected("cycle", f"service {desc.service_id!r} would close a dependency cycle")
            self.db.add(desc)
            self.db.status[desc.service_id] = ServiceStatus.ACTIVE
            return desc.service_id

    def _closes_cycle(self, desc: ServiceDescription) -> bool:
        """Whether registering `desc` would close a dependency cycle.

        The registered graph is acyclic, so a new cycle must pass through
        the new node: it closes exactly when the new id is reachable from
        one of its own dependencies. Edges to ids not registered yet lead
        nowhere.
        """
        services = self.db.services
        stack = list(desc.dependencies)
        seen: set[str] = set()
        while stack:
            node = stack.pop()
            if node == desc.service_id:
                return True
            if node in seen or node not in services:
                continue
            seen.add(node)
            stack.extend(services[node].dependencies)
        return False

    def deprecate_service(self, service_id: str, reason: str = "") -> None:
        """Mark Deprecated: hidden from discovery and hosting listings.

        Hosts already running the service keep it until they unhost.
        There is no reinstatement path.
        """
        with self._lock:
            if service_id not in self.db.services:
                raise UnknownEntityError(f"unknown service: {service_id!r}")
            if self.db.status[service_id] != ServiceStatus.ACTIVE:
                raise UnknownEntityError(f"service {service_id!r} is not Active")
            self.db.status[service_id] = ServiceStatus.DEPRECATED
            self.db.forget_answers(self.db.search_text[service_id])

    # -- lookup ----------------------------------------------------------

    def get(self, service_id: str) -> ServiceDescription:
        with self._lock:
            desc = self.db.services.get(service_id)
            if desc is None:
                raise UnknownEntityError(f"unknown service: {service_id!r}")
            return desc

    def status_of(self, service_id: str) -> ServiceStatus:
        with self._lock:
            status = self.db.status.get(service_id)
            if status is None:
                raise UnknownEntityError(f"unknown service: {service_id!r}")
            return status

    def is_known(self, service_id: str) -> bool:
        with self._lock:
            return service_id in self.db.services

    def active_services(self) -> list[ServiceDescription]:
        with self._lock:
            return [
                self.db.services[sid]
                for sid in self.db.sorted_ids
                if self.db.status[sid] == ServiceStatus.ACTIVE
            ]

    def search_active(self, query: str) -> list[ServiceDescription]:
        """Case-insensitive substring match over name and description, in
        id order. The list is the kept answer: shared, do not mutate."""
        needle = query.lower()
        with self._lock:
            kept = self.db.answers.get(needle)
            if kept is not None:
                return kept
            db = self._indexed()
            kept = db.answers[needle] = db.matches(
                needle, db.sorted_ids if len(needle) < 3 else db.candidates(needle)
            )
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
                encoded = listing_to_dict(_listing_of(self.get(service_id)))
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

        Raises `VersionError` if `host_version` does not parse.
        """
        version = parse_version(host_version)
        cpu, memory, storage, energy = host_free.cpu, host_free.memory, host_free.storage, host_free.energy
        with self._lock:
            db = self._indexed()
            status, active = db.status, ServiceStatus.ACTIVE
            return [
                desc
                for _, sid, os_name, min_version, need_cpu, need_memory, need_storage, need_energy, desc
                in db.by_revenue
                if os_name == host_os and min_version <= version
                and need_cpu <= cpu and need_memory <= memory
                and need_storage <= storage and need_energy <= energy
                and status[sid] is active
            ]

    def host_revenue(self, desc: ServiceDescription) -> int:
        """Expected per-invocation host earnings: price x host share, rounded down."""
        share = self._billing.host_share(desc.developer_share)
        return share.numerator * desc.price_per_invocation // share.denominator if share > 0 else 0

    def substitution_candidates(self, functionality_tag: str, exclude: str | None = None) -> list[ServiceDescription]:
        with self._lock:
            return [
                desc
                for desc in self.active_services()
                if desc.functionality_tag == functionality_tag and desc.service_id != exclude
            ]

    # -- persistence -------------------------------------------------------

    def snapshot_state(self) -> dict:
        with self._lock:
            return {
                "services": {
                    sid: service_to_dict(desc) for sid, desc in sorted(self.db.services.items())
                },
                "status": {sid: status.value for sid, status in sorted(self.db.status.items())},
            }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self.db = ServiceDatabase()
            for raw in state["services"].values():
                self.db.add(service_from_dict(raw))
            for sid, status in state["status"].items():
                self.db.status[sid] = ServiceStatus(status)


def service_to_dict(desc: ServiceDescription) -> dict:
    return {
        "service_id": desc.service_id,
        "developer_id": desc.developer_id,
        "name": desc.name,
        "description": desc.description,
        "functionality_tag": desc.functionality_tag,
        "input_spec": desc.input_spec,
        "output_spec": desc.output_spec,
        "binding_method": desc.binding_method,
        "security_level": desc.security_level.label,
        "platform": {"os_name": desc.platform.os_name, "min_version": desc.platform.min_version},
        "min_resources": desc.min_resources.as_dict(),
        "price_per_invocation": desc.price_per_invocation,
        "developer_share": desc.developer_share,
        "dependencies": list(desc.dependencies),
    }


def service_from_dict(raw: dict) -> ServiceDescription:
    return ServiceDescription(
        service_id=raw["service_id"],
        developer_id=raw["developer_id"],
        name=raw["name"],
        description=raw["description"],
        functionality_tag=raw["functionality_tag"],
        input_spec=raw["input_spec"],
        output_spec=raw["output_spec"],
        binding_method=raw["binding_method"],
        security_level=SecurityLevel.from_name(raw["security_level"]),
        platform=PlatformRequirement(
            os_name=raw["platform"]["os_name"], min_version=raw["platform"]["min_version"]
        ),
        min_resources=ResourceVector(**raw["min_resources"]),
        price_per_invocation=raw["price_per_invocation"],
        developer_share=raw["developer_share"],
        dependencies=tuple(raw["dependencies"]),
    )
