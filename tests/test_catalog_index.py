"""The service database's trigram search index and revenue-ordered listing
against a full scan of the catalog.

Discovery reads candidates from the trigram postings and listings filter
the revenue-ordered list, so every registration, deprecation and restore
must leave both queries answering exactly what a scan of every service
would: the same services, in the same order.
"""
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_service
from momcc.domain import ResourceVector, ServiceDescription
from momcc.errors import RegistrationRejected, UnknownEntityError
from momcc.governor import ServiceGovernor
from momcc.snapshot import restore_governor, snapshot_governor

DEVELOPER = "dev-alpha"
SERVICE_IDS = [f"svc-{i:02d}" for i in range(10)]
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


def build_governor() -> ServiceGovernor:
    governor = ServiceGovernor()
    governor.billing.negotiate_developer(DEVELOPER, 1000, 0.4)
    return governor


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
    # A slice of some service's text, in its own case or another.
    st.tuples(st.integers(0, 9), st.integers(0, 30), st.integers(0, 12),
              st.sampled_from([str, str.upper, str.lower, str.swapcase])),
)
operations = st.one_of(
    st.tuples(st.just("register"), services),
    st.tuples(st.just("deprecate"), st.sampled_from(SERVICE_IDS)),
    st.tuples(st.just("restore")),
    st.tuples(st.just("restore_registry")),
    st.tuples(st.just("search"), needles),
    st.tuples(st.just("list"), free_resources, st.sampled_from(OSES), st.sampled_from(HOST_VERSIONS)),
)


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

    def apply(self, op: tuple) -> None:
        kind = op[0]
        registry = self.governor.registry
        if kind == "register":
            desc = op[1]
            if desc.service_id in self.model:
                with pytest.raises(RegistrationRejected):
                    registry.register_service(desc)
            else:
                registry.register_service(desc)
                self.model[desc.service_id] = desc
        elif kind == "deprecate":
            sid = op[1]
            if sid in self.model and sid not in self.deprecated:
                registry.deprecate_service(sid)
                self.deprecated.add(sid)
            else:
                with pytest.raises(UnknownEntityError):
                    registry.deprecate_service(sid)
        elif kind == "restore":
            self.governor = restore_governor(snapshot_governor(self.governor))
        elif kind == "restore_registry":
            # Into the registry that took the snapshot, with its indexes and
            # queue in whatever state the steps so far left them.
            registry.restore_state(registry.snapshot_state())
        elif kind == "search":
            self.check_search(needle_of(op[1], self.model))
        else:
            self.check_listing(*op[1:])

    def check_search(self, query: str) -> None:
        assert self.governor.registry.search_active(query) == scan_search(
            self.model, self.deprecated, query
        )

    def check_listing(self, free: ResourceVector, host_os: str, version: str) -> None:
        assert self.governor.registry.list_available_services(free, host_os, version) == scan_listing(
            self.governor, self.model, self.deprecated, free, host_os, version
        )


class TestCatalogIndex:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(operations, max_size=40))
    def test_queries_match_a_full_scan_after_every_step(self, ops):
        catalog = Catalog()
        for op in ops:
            catalog.apply(op)
            assert catalog.governor.check_invariants() == []
        catalog.check_listing(ResourceVector(1024, 64, 64, 1000), "Android", "10.1")
        for word in WORDS + ABSENT:
            catalog.check_search(word)

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
        catalog = Catalog()
        catalog.apply(("register", make_service(developer_id=DEVELOPER)))
        db = catalog.governor.registry.db
        assert db.pending == ["svc-resize"] and db.grams == {} and db.by_revenue == []
        assert catalog.governor.check_invariants() == []
        catalog.check_search("resize")
        assert db.pending == [] and db.by_bit == ["svc-resize"] and db.grams["res"] == 1
        assert len(db.by_revenue) == 1


def indexed_governor() -> ServiceGovernor:
    governor = build_governor()
    for sid, name, share in [("svc-a", "image resize", 0.1), ("svc-b", "image route", 0.4)]:
        governor.registry.register_service(
            make_service(service_id=sid, developer_id=DEVELOPER, name=name, developer_share=share)
        )
    governor.registry.search_active("image")
    assert governor.check_invariants() == []
    return governor


class TestIndexInvariants:
    def test_invariant_reports_a_stale_search_index(self):
        governor = indexed_governor()
        db = governor.registry.db
        db.grams["rou"] ^= 1 << db.by_bit.index("svc-b")
        assert governor.check_invariants() == [
            "registry: search index differs from a full scan of the catalog"
        ]

    def test_invariant_reports_a_service_indexed_twice(self):
        governor = indexed_governor()
        db = governor.registry.db
        db.pending.append("svc-a")
        db.index(governor.registry.host_revenue)
        assert governor.check_invariants() == [
            "registry: search index differs from a full scan of the catalog",
            "registry: listing order differs from a full sort of the catalog",
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
