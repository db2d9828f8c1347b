"""The service database's trigram search index, kept answers and
revenue-ordered listing against a full scan of the catalog.

Discovery reads candidates from the trigram postings, keeps each query's
answer and each service's result, and listings read each platform's kept
list, whole for a host that covers the catalog's largest need and
filtered for any other. So every registration, deprecation, restore,
report and departure must leave both queries answering exactly what a
scan of every service and every host profile would: the same services,
in the same order, with the same hosts. A list already handed out must
not change after it.
"""
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import deprecate, make_service, may_report
from momcc.domain import ExecutionReport, Outcome, ResourceVector, ServiceDescription
from momcc.errors import RegistrationRejected, UnknownEntityError
from momcc.governor import GovernorConfig, ServiceGovernor, TrustPolicy
from momcc.snapshot import restore_governor, snapshot_governor

DEVELOPER = "dev-alpha"
SERVICE_IDS = [f"svc-{i:02d}" for i in range(10)]
QUEUED_IDS = [f"svc-q{i}" for i in range(6)]
# Mixed case, words that share trigrams, and letters whose lower() is
# longer than themselves ("İ" -> "i̇") or differs from casefold ("ß").
WORDS = ["Image", "image", "IMAGER", "resize", "İstanbul", "istanbul", "Straße", "ÉCLAIR",
         "route", "router", "map", "Fast", "swift", "ok"]
ALPHABET = "aeimgrstİißÉé ."
ABSENT = ["zzzq", "qqq", "xyz", "İİİ", "image resize route map"]
OSES = ["Android", "Tizen"]
MIN_VERSIONS = ["1", "3.2", "4", "4.0.1", "10.1"]
HOST_VERSIONS = ["1", "3.2", "4.0", "4.0.1", "9.9", "10.1"]
DEVELOPER_SHARES = [0.0, 0.1, 0.2, 0.4, 0.75, 0.8, 0.9]
# Levels move within a few reports, so reports reorder rankings.
CONFIG = GovernorConfig(
    trust_policy=TrustPolicy(alpha=0.5, promote_medium=(0.5, 2), promote_high=(0.8, 4))
)
HOST_IDS = [f"host-{i}" for i in range(4)]
HOST_CAPACITY = ResourceVector(8192, 128, 128, 8000)  # room for every service at once


def build_governor() -> ServiceGovernor:
    governor = ServiceGovernor(CONFIG)
    governor.billing.negotiate_developer(DEVELOPER, 1000, 0.4)
    for host_id in HOST_IDS:
        governor.hosts.register_host(host_id, "Android", "10.1", HOST_CAPACITY, 10**6)
    return governor


def settleable(desc: ServiceDescription) -> bool:
    """Billing's rule, exactly: developer share plus commission at most 1."""
    return Fraction(str(desc.developer_share)) + Fraction(str(CONFIG.governor_commission)) <= 1


def text_of(desc: ServiceDescription) -> str:
    return f"{desc.name} {desc.description}"


def scan_search(model: dict[str, ServiceDescription], deprecated: set[str], query: str):
    """`search_active` as the full-scan registry computed it."""
    needle = query.lower()
    return [
        model[sid] for sid in sorted(model)
        if needle in text_of(model[sid]).lower() and sid not in deprecated
    ]


def scan_listing(governor: ServiceGovernor, model: dict[str, ServiceDescription],
                 deprecated: set[str], free: ResourceVector, host_os: str, version: str):
    """`list_available_services` as the filter-then-sort registry computed it."""

    def revenue(desc: ServiceDescription) -> int:
        share = governor.billing.host_share(desc.developer_share)
        return int(share * desc.price_per_invocation) if share > 0 else 0

    candidates = [
        model[sid] for sid in sorted(model)
        if sid not in deprecated
        and model[sid].platform.matches(host_os, version) and free.covers(model[sid].min_resources)
    ]
    candidates.sort(key=lambda d: (-revenue(d), d.service_id))
    return candidates


def scan_hosts(governor: ServiceGovernor, service_id: str) -> list[str]:
    """A service's live, certified holders as a scan of every profile ranks them."""
    holding = [
        p for p in governor.host_db.hosts.values()
        if p.alive and service_id in p.hosted and p.certificate is not None
    ]
    holding.sort(key=lambda p: (-p.certificate.level, -p.certificate.trust_score, p.host_id))
    return [p.host_id for p in holding]


words = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(" ".join)
services = st.builds(
    lambda sid, name, description, os_name, min_version, need, price, share: make_service(
        service_id=sid, developer_id=DEVELOPER, name=name, description=description,
        os_name=os_name, min_version=min_version,
        min_resources=ResourceVector(*need), price=price, developer_share=share,
    ),
    st.sampled_from(SERVICE_IDS),
    words,
    words,
    st.sampled_from(OSES),
    st.sampled_from(MIN_VERSIONS),
    st.tuples(st.integers(0, 2).map(lambda k: 256 * k), st.integers(0, 2).map(lambda k: 16 * k),
              st.integers(0, 2).map(lambda k: 16 * k), st.integers(0, 2).map(lambda k: 250 * k)),
    st.sampled_from([0, 1, 99, 500, 1000, 1001]),
    st.sampled_from(DEVELOPER_SHARES),
)
free_resources = st.tuples(
    *(st.integers(0, 3).map(lambda k, step=step: step * k) for step in (256, 16, 16, 250))
).map(lambda parts: ResourceVector(*parts))
needles = st.one_of(
    st.text(ALPHABET, max_size=2),
    st.text(ALPHABET, min_size=3, max_size=8),
    st.sampled_from(ABSENT + WORDS),
    # Short, mixed-case and length-changing ("İ".lower() is 2 characters).
    st.sampled_from(["", "i", "İ", "İst", "iST", "ß", "SS", "Im", "mAG"]),
    # A slice of some service's text, in its own case or another.
    st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(0, 12),
              st.sampled_from([str, str.upper, str.lower, str.swapcase])),
)
operations = st.one_of(
    st.tuples(st.just("register"), services),
    st.tuples(st.just("deprecate"), st.sampled_from(SERVICE_IDS)),
    st.tuples(st.just("restore")),
    st.tuples(st.just("search"), needles),
    st.tuples(st.just("discover"), needles),
    st.tuples(st.just("list"), free_resources, st.sampled_from(OSES), st.sampled_from(HOST_VERSIONS)),
    st.tuples(st.just("host"), st.sampled_from(HOST_IDS), st.sampled_from(SERVICE_IDS)),
    st.tuples(st.just("report"), st.sampled_from(HOST_IDS), st.sampled_from(SERVICE_IDS),
              st.booleans(), st.one_of(st.none(), st.integers(1, 5))),
    st.tuples(st.just("depart"), st.sampled_from(HOST_IDS)),
)
changes = st.one_of(
    st.tuples(st.just("register"), services),
    st.tuples(st.just("deprecate"), st.sampled_from(SERVICE_IDS)),
)


@st.composite
def queued_services(draw):
    """Two to six settleable services with ids no other step uses, to be
    registered back to back so that one listing enters them all. Their
    drawn prices and shares put them in any revenue order, and the ids
    are dealt in shuffled order, so equal revenues are not queued in id
    order either."""
    descs = draw(st.lists(services.filter(settleable), min_size=2, max_size=len(QUEUED_IDS)))
    ids = draw(st.permutations(QUEUED_IDS))
    return [replace(desc, service_id=sid) for desc, sid in zip(descs, ids)]


def needle_of(spec, model: dict[str, ServiceDescription]) -> str:
    if isinstance(spec, str):
        return spec
    pick, start, length, case = spec
    if not model:
        return ""
    text = text_of(model[sorted(model)[pick % len(model)]])
    return case(text[start:start + length])


class Catalog:
    """A governor and the test's own model of its catalog."""

    def __init__(self):
        self.governor = build_governor()
        self.model: dict[str, ServiceDescription] = {}
        self.deprecated: set[str] = set()
        self.queries: set[str] = set()  # every query discovered so far
        self.handed: list[tuple[list, list]] = []  # every listing so far, and a copy of it
        self.reports = 0

    def apply(self, op: tuple) -> None:
        kind = op[0]
        governor = self.governor
        registry = governor.registry
        if kind == "register":
            desc = op[1]
            if not settleable(desc) or desc.service_id in self.model:
                with pytest.raises(RegistrationRejected) as err:
                    registry.register_service(desc)
                assert err.value.reason == ("duplicate" if settleable(desc) else "share")
            else:
                registry.register_service(desc)
                self.model[desc.service_id] = desc
        elif kind == "deprecate":
            sid = op[1]
            if sid in self.model:
                self.deprecated.update(deprecate(governor, sid))
                assert sid in self.deprecated
            else:
                with pytest.raises(UnknownEntityError):
                    deprecate(governor, sid)
        elif kind == "restore":
            self.governor = restore_governor(snapshot_governor(governor))
        elif kind == "search":
            self.check_search(needle_of(op[1], self.model))
        elif kind == "discover":
            query = needle_of(op[1], self.model)
            self.queries.add(query)
            self.check_discover(query)
        elif kind == "list":
            self.check_listing(*op[1:])
        elif kind == "host":
            _, host_id, service_id = op
            if service_id in self.model:
                governor.request_hosting(host_id, service_id)
        elif kind == "report":
            _, host_id, service_id, ok, rating = op
            if service_id not in self.model or governor.host_db.hosts[host_id].certificate is None:
                return  # no such report reaches the governor
            self.reports += 1
            may_report(governor, host_id, service_id)
            governor.ingest_report(ExecutionReport(
                report_id=f"rpt-{self.reports:04d}", host_id=host_id, service_id=service_id,
                requester_pseudonym="anon-catalog", started_at=float(self.reports),
                duration_ms=10.0, energy_used_mwh=1,
                outcome=Outcome.success() if ok else Outcome.failure("fault"), rating=rating,
            ))
        else:
            governor.hosts.mark_departed(op[1])

    def check_search(self, query: str) -> None:
        assert self.governor.registry.search_active(query) == scan_search(
            self.model, self.deprecated, query
        )

    def check_discover(self, query: str) -> None:
        """`discover` against a scan of the catalog and of the host
        profiles; asked again with nothing changed, it returns the same
        result objects."""
        registry = self.governor.registry
        found = registry.discover(query, "anon-catalog")
        assert [(r.listing.service_id, r.listing.name, r.hosts) for r in found] == [
            (desc.service_id, desc.name, scan_hosts(self.governor, desc.service_id))
            for desc in scan_search(self.model, self.deprecated, query)
        ]
        again = registry.discover(query, "anon-catalog")
        assert len(again) == len(found) and all(a is b for a, b in zip(again, found))

    def check_listing(self, free: ResourceVector, host_os: str, version: str) -> None:
        listed = self.governor.registry.list_available_services(free, host_os, version)
        assert listed == scan_listing(self.governor, self.model, self.deprecated, free, host_os, version)
        self.handed.append((listed, list(listed)))

    def check_after_a_step(self) -> None:
        for query in self.queries:
            self.check_discover(query)
        self.check_listings_at_the_largest_need()
        assert self.governor.check_invariants() == []

    def check_listings_at_the_largest_need(self) -> None:
        """Listings for free resources at the largest need, which get the
        kept list, and one unit below it, which get it filtered; then
        every list handed out so far, unchanged."""
        largest = self.governor.registry.db.largest_need
        for free in (ResourceVector(*largest), ResourceVector(*(max(n - 1, 0) for n in largest))):
            for host_os, version in (("Android", "4.0"), ("Tizen", "10.1")):
                self.check_listing(free, host_os, version)
        assert all(listed == copy for listed, copy in self.handed)


class TestCatalogIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(operations, max_size=40), queued_services(), st.lists(changes, max_size=8))
    def test_queries_match_a_full_scan_after_every_step(self, ops, queued, later):
        """Any steps; then a queue of several services that one listing
        enters into the listing order and the kept listings at once; then,
        with a posting kept for every word's first and last trigram,
        registrations and deprecations, each of which must keep every
        posting in step."""
        catalog = Catalog()
        for op in ops:
            catalog.apply(op)
            catalog.check_after_a_step()
        catalog.check_listings_at_the_largest_need()  # so kept listings take the queue
        for desc in queued:
            catalog.apply(("register", desc))
        registry = catalog.governor.registry
        assert len(registry.db.pending) >= len(queued)
        catalog.check_listing(ResourceVector(1024, 64, 64, 1000), "Android", "10.1")
        assert registry.db.pending == []
        assert registry.db.by_revenue == registry.db.scan_by_revenue(registry.host_revenue)
        catalog.check_after_a_step()
        for word in WORDS + ABSENT:
            catalog.check_search(word)
            catalog.check_discover(word)
        assert catalog.governor.registry.db.grams
        catalog.queries.update(WORDS)
        for op in later:
            catalog.apply(op)
            catalog.check_after_a_step()

    def test_short_and_length_changing_needles(self):
        catalog = Catalog()
        for sid, name in zip(SERVICE_IDS, ["İstanbul map", "istanbul route", "Straße", "ok"]):
            catalog.apply(("register", make_service(service_id=sid, developer_id=DEVELOPER, name=name,
                                                    description="x")))
        for query in ["", "i", "İ", "i̇", "İs", "İST", "ss", "straß", "STRASSE", "ok x", "k x", "p r"]:
            catalog.check_search(query)
        assert catalog.governor.registry.search_active("İst") == [
            catalog.model["svc-00"]
        ]
        # Too short to have a trigram: every indexed id is a candidate.
        assert catalog.governor.registry.db.candidates("ok") == sorted(catalog.model)

    def test_registration_waits_for_the_next_query(self):
        """A registration builds no posting and only queues the listing
        order; a query keeps the postings of its first and last trigram,
        and a listing indexes the queue."""
        catalog = Catalog()
        catalog.apply(("register", make_service(developer_id=DEVELOPER)))
        db = catalog.governor.registry.db
        assert db.by_bit == ["svc-resize"] and db.grams == {}
        assert db.pending == ["svc-resize"] and db.by_revenue == []
        assert catalog.governor.check_invariants() == []
        catalog.check_search("resize")
        assert db.grams == {"res": 1, "ize": 1} and db.pending == ["svc-resize"]
        catalog.apply(("register", make_service(service_id="svc-size", name="size", description="x",
                                                developer_id=DEVELOPER)))
        assert db.grams == {"res": 1, "ize": 0b11}  # "size x" holds "ize", not "res"
        assert catalog.governor.check_invariants() == []
        catalog.check_listing(HOST_CAPACITY, "Android", "4.0")
        assert db.pending == [] and len(db.by_revenue) == 2


def indexed_governor() -> ServiceGovernor:
    governor = build_governor()
    for sid, name, share in [("svc-a", "image resize", 0.1), ("svc-b", "image route", 0.4)]:
        governor.registry.register_service(
            make_service(service_id=sid, developer_id=DEVELOPER, name=name, developer_share=share)
        )
    governor.registry.search_active("image")  # keeps the postings of "ima" and "age"
    # What a listing does first, without keeping a listing.
    governor.registry.db.index(governor.registry.host_revenue)
    assert governor.check_invariants() == []
    return governor


class TestIndexInvariants:
    def test_invariant_reports_a_stale_search_index(self):
        governor = indexed_governor()
        db = governor.registry.db
        governor.registry.search_active("route")  # keeps the posting of "rou"
        db.grams["rou"] ^= 1 << db.by_bit.index("svc-b")
        assert governor.check_invariants() == [
            "registry: search index differs from a full scan of the catalog"
        ]

    def test_invariant_reports_a_service_indexed_twice(self):
        governor = indexed_governor()
        governor.registry.db.by_bit.append("svc-a")
        assert governor.check_invariants() == [
            "registry: search index differs from a full scan of the catalog"
        ]

    def test_invariant_reports_a_service_queued_twice(self):
        governor = indexed_governor()
        db = governor.registry.db
        db.pending.append("svc-a")
        db.index(governor.registry.host_revenue)
        assert governor.check_invariants() == [
            "registry: listing order differs from a full sort of the catalog"
        ]

    def test_invariant_reports_a_stale_listing_order(self):
        governor = indexed_governor()
        governor.registry.db.by_revenue.reverse()
        assert governor.check_invariants() == [
            "registry: listing order differs from a full sort of the catalog"
        ]

    def test_invariant_reports_a_listing_missing_a_service(self):
        governor = indexed_governor()
        governor.registry.db.by_revenue.pop()
        assert governor.check_invariants() == [
            "registry: listing order differs from a full sort of the catalog"
        ]

    def test_invariant_reports_a_stale_kept_listing(self):
        governor = indexed_governor()
        db = governor.registry.db
        governor.registry.list_available_services(HOST_CAPACITY, "Android", "4.0")
        [(platform, (entries, services))] = db.listings.items()
        assert [d.service_id for d in services] == ["svc-a", "svc-b"]
        db.listings[platform] = (entries[1:], services[1:])  # kept across a change that adds svc-a
        assert governor.check_invariants() == [
            "registry: kept platform listing differs from a filter of the listing order"
        ]

    def test_invariant_reports_a_stale_largest_need(self):
        governor = indexed_governor()
        db = governor.registry.db
        assert db.largest_need == (512, 2, 5, 500)
        db.largest_need = (512, 2, 5, 499)  # kept across a registration that raises it
        assert governor.check_invariants() == [
            "registry: largest need differs from the max over the listing order"
        ]

    def test_invariant_reports_a_stale_kept_answer(self):
        governor = indexed_governor()
        db = governor.registry.db
        assert [d.service_id for d in db.answers["image"]] == ["svc-a", "svc-b"]
        db.answers["image"] = db.answers["image"][:1]  # kept across a change that drops it
        assert governor.check_invariants() == [
            "registry: kept search answer differs from a full scan of the catalog"
        ]


class TestKeptAnswers:
    def test_a_change_drops_exactly_the_answers_it_can_move(self):
        governor = indexed_governor()
        registry, db = governor.registry, governor.registry.db
        image, route = registry.search_active("IMAGE"), registry.search_active("route")
        assert registry.search_active("image") is image  # the needle is the lowercased query
        registry.register_service(
            make_service(service_id="svc-c", developer_id=DEVELOPER, name="map tiles", description="x")
        )
        assert registry.search_active("image") is image and registry.search_active("route") is route
        registry.register_service(
            make_service(service_id="svc-d", developer_id=DEVELOPER, name="Image tiles", description="x")
        )
        assert set(db.answers) == {"route"}  # only "image" is in "image tiles x"
        assert [d.service_id for d in registry.search_active("image")] == ["svc-a", "svc-b", "svc-d"]
        assert deprecate(governor, "svc-b") == ["svc-b"]  # "image route ...": both needles
        assert db.answers == {}
        assert [d.service_id for d in registry.search_active("image")] == ["svc-a", "svc-d"]
        assert registry.search_active("route") == []
        assert governor.check_invariants() == []

    def test_a_kept_result_lasts_while_its_host_list_does(self):
        governor = indexed_governor()
        for host_id in ("host-0", "host-1"):
            assert governor.request_hosting(host_id, "svc-a").confirmed
        [first] = governor.registry.discover("resize", "anon")
        assert first.hosts == ["host-0", "host-1"]
        assert governor.registry.discover("resize", "anon")[0] is first
        [second] = governor.registry.discover("resize", "anon")
        governor.hosts.mark_departed("host-0")
        [third] = governor.registry.discover("resize", "anon")
        assert second is first and third is not first
        assert third.hosts == ["host-1"] and first.hosts == ["host-0", "host-1"]


class TestKeptListings:
    def test_a_covering_host_gets_the_kept_list_and_others_a_filtered_copy(self):
        governor = indexed_governor()
        registry = governor.registry
        kept = registry.list_available_services(HOST_CAPACITY, "Android", "4.0")
        assert [d.service_id for d in kept] == ["svc-a", "svc-b"]  # host shares 0.7 and 0.4
        assert registry.list_available_services(ResourceVector(512, 2, 5, 500), "Android", "4") is kept
        short = registry.list_available_services(ResourceVector(512, 2, 5, 499), "Android", "4.0")
        assert short == [] and short is not registry.list_available_services(
            ResourceVector(512, 2, 5, 499), "Android", "4.0"
        )
        assert registry.list_available_services(HOST_CAPACITY, "Android", "3.1") == []

    def test_a_change_replaces_the_kept_list_and_leaves_the_handed_one(self):
        governor = indexed_governor()
        registry = governor.registry
        first = registry.list_available_services(HOST_CAPACITY, "Android", "4.0")
        registry.register_service(make_service(service_id="svc-c", developer_id=DEVELOPER, min_version="4.1"))
        assert registry.list_available_services(HOST_CAPACITY, "Android", "4.0") is first
        registry.register_service(make_service(service_id="svc-d", developer_id=DEVELOPER, developer_share=0.2))
        second = registry.list_available_services(HOST_CAPACITY, "Android", "4.0")
        assert [d.service_id for d in second] == ["svc-a", "svc-d", "svc-b"]
        assert deprecate(governor, "svc-a") == ["svc-a"]
        third = registry.list_available_services(HOST_CAPACITY, "Android", "4.0")
        assert [d.service_id for d in third] == ["svc-d", "svc-b"]
        assert [d.service_id for d in first] == ["svc-a", "svc-b"]
        assert [d.service_id for d in second] == ["svc-a", "svc-d", "svc-b"]
        assert governor.check_invariants() == []
