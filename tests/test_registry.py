"""Service registry vetting, discovery, listings, and deprecation."""
import random
import threading
from dataclasses import asdict, replace

import pytest

from conftest import deprecate, governor_with, make_service
from momcc.domain import ResourceVector, SecurityCertificate, SecurityLevel, VersionError
from momcc.errors import RegistrationRejected, UnknownEntityError
from momcc.governor.billing import DEFAULT_COMMISSION, BillingUnit
from momcc.governor.registry import DEFAULT_FOOTPRINT_CEILING, ServiceRegistry, ServiceStatus
from momcc.governor.store import HostDatabase


def bare_registry(footprint_ceiling=DEFAULT_FOOTPRINT_CEILING,
                  developers=("dev-alpha",)) -> ServiceRegistry:
    """A registry alone, over a billing unit that knows `developers`."""
    lock = threading.RLock()
    billing = BillingUnit(DEFAULT_COMMISSION, lock, [])
    for developer_id in developers:
        billing.negotiate_developer(developer_id, 1000, 0.4)
    return ServiceRegistry(billing, HostDatabase(), footprint_ceiling, lock, [])


def kahn_has_cycle(edges: dict) -> bool:
    """Independent oracle: topological sort by repeated source removal."""
    indegree = {node: 0 for node in edges}
    for node, deps in edges.items():
        for dep in deps:
            if dep in indegree:
                indegree[dep] += 1
    queue = [n for n, d in indegree.items() if d == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for dep in edges[node]:
            if dep in indegree:
                indegree[dep] -= 1
                if indegree[dep] == 0:
                    queue.append(dep)
    return seen != len(edges)


class TestRegistration:
    def test_reference_requirements_accepted_under_default_ceiling(self):
        registry = bare_registry(ResourceVector(1024, 64, 64, 1000))
        sid = registry.register_service(make_service())
        assert registry.db.status[sid] is ServiceStatus.ACTIVE

    def test_memory_one_over_ceiling_rejected(self):
        registry = bare_registry(ResourceVector(1024, 64, 64, 1000))
        fat = make_service(service_id="svc-fat", min_resources=ResourceVector(512, 65, 5, 500))
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(fat)
        assert err.value.reason == "footprint"

    def test_duplicate_id_rejected(self):
        registry = bare_registry()
        registry.register_service(make_service())
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(make_service())
        assert err.value.reason == "duplicate"

    def test_failed_scan_attestation_rejected(self):
        registry = bare_registry()
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(make_service(), scan_attestation=False)
        assert err.value.reason == "scan"

    def test_unregistered_developer_rejected(self):
        registry = bare_registry(developers=("dev-known",))
        registry.register_service(make_service(service_id="a", developer_id="dev-known"))
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(make_service(service_id="b", developer_id="dev-ghost"))
        assert err.value.reason == "developer"

    def test_two_service_cycle_rejected(self):
        """A's dependency on B is refused while B is unregistered, so B's
        dependency on A never closes a cycle: it is refused too."""
        registry = bare_registry()
        for node, dep in (("A", "B"), ("B", "A")):
            with pytest.raises(RegistrationRejected) as err:
                registry.register_service(make_service(service_id=node, dependencies=(dep,)))
            assert err.value.reason == "dependency"
            # The rejected service left no trace.
            assert not registry.is_known(node)

    def test_refusals_match_the_accepted_graph_and_it_never_has_a_cycle(self):
        """Each registration in a random sequence is refused exactly when
        one of its dependencies is not yet accepted, and the graph of the
        accepted services never has a cycle (a Kahn topological sort)."""
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 8)
            nodes = [f"s{i}" for i in range(n)]
            registry = bare_registry()
            accepted: dict[str, tuple[str, ...]] = {}
            for node in rng.sample(nodes, n):
                deps = tuple(rng.sample(nodes, rng.randint(0, n - 1)))
                unaccepted = [dep for dep in deps if dep not in accepted]
                try:
                    registry.register_service(make_service(service_id=node, dependencies=deps))
                except RegistrationRejected as err:
                    assert err.reason == "dependency" and unaccepted
                    assert not registry.is_known(node)
                else:
                    assert not unaccepted
                    accepted[node] = deps
                assert not kahn_has_cycle(accepted)

    def test_self_dependency_rejected(self):
        registry = bare_registry()
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(make_service(service_id="loop", dependencies=("loop",)))
        assert err.value.reason == "dependency"

    def test_unknown_dependency_refused_and_nothing_written(self):
        """A composite is built from services that exist: a dependency on an
        unregistered one is refused, and neither the catalog nor the journal
        changes."""
        governor = governor_with([make_service(service_id="leaf")])
        journal, services = list(governor.journal), dict(governor.registry.db.services)
        with pytest.raises(RegistrationRejected) as err:
            governor.registry.register_service(make_service(service_id="top", dependencies=("leaf", "ghost")))
        assert err.value.reason == "dependency"
        assert str(err.value) == "service 'top' depends on unregistered services ['ghost']"
        assert governor.journal == journal and governor.registry.db.services == services
        assert governor.registry.db.pending == ["leaf"] and governor.check_invariants() == []

    def test_a_deprecated_dependency_is_allowed(self):
        governor = governor_with([make_service(service_id="leaf")])
        assert deprecate(governor, "leaf") == ["leaf"]
        governor.registry.register_service(make_service(service_id="top", dependencies=("leaf",)))
        assert governor.registry.db.status["top"] is ServiceStatus.ACTIVE

    @pytest.mark.parametrize("dependencies, line", [
        (("top",), "service 'leaf': dependencies ['top'] not registered before it"),
        (("ghost", "leaf"), "service 'leaf': dependencies ['ghost', 'leaf'] not registered before it"),
    ], ids=["a-cycle", "unknown-and-self"])
    def test_invariants_report_a_dependency_not_registered_before_its_dependant(self, dependencies, line):
        """A stored state edited so that a service depends on a later one
        (here closing a cycle), on one never registered or on itself."""
        governor = governor_with([make_service(service_id="leaf"),
                                  make_service(service_id="top", dependencies=("leaf",))])
        assert governor.check_invariants() == []
        services = governor.registry.db.services
        services["leaf"] = replace(services["leaf"], dependencies=dependencies)
        assert governor.check_invariants() == [line]

    def test_refusal_order_ends_with_the_dependency(self):
        """A service failing the footprint and the dependency rule is
        refused for the footprint: the dependency check comes last."""
        registry = bare_registry(ResourceVector(1, 1, 1, 1))
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(make_service(dependencies=("ghost",)))
        assert err.value.reason == "footprint"

    def test_governor_wires_billing_gate_into_registration(self):
        """Through the governor, registration requires a negotiated developer."""
        from momcc.governor import ServiceGovernor

        governor = ServiceGovernor()
        with pytest.raises(RegistrationRejected) as err:
            governor.registry.register_service(make_service())
        assert err.value.reason == "developer"
        governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
        governor.registry.register_service(make_service())
        assert governor.registry.db.status["svc-resize"] is ServiceStatus.ACTIVE

    def test_share_that_billing_could_never_settle_rejected(self):
        """A developer share plus the commission above 1 leaves no host
        share: such a service must not become Active, or every hosting
        request for it would be refused at negotiation."""
        registry = bare_registry()  # developer negotiated at 0.4, commission 0.2
        greedy = make_service(service_id="svc-greedy", developer_share=0.9)
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(greedy)
        assert err.value.reason == "share"
        assert not registry.is_known("svc-greedy")
        assert registry.search_active("image") == []
        registry.register_service(make_service(service_id="svc-even", developer_share=0.8))
        assert registry.db.status["svc-even"] is ServiceStatus.ACTIVE

    def test_share_is_checked_after_the_developer_and_before_the_rest(self):
        registry = bare_registry(developers=("dev-known",))
        registry.register_service(make_service(service_id="svc-a", developer_id="dev-known"))
        cases = [
            (make_service(service_id="svc-b", developer_id="dev-ghost", developer_share=0.9), "developer"),
            (make_service(service_id="svc-a", developer_id="dev-known", developer_share=0.9), "share"),
            (make_service(service_id="svc-a", developer_id="dev-known"), "duplicate"),
        ]
        for desc, reason in cases:
            with pytest.raises(RegistrationRejected) as err:
                registry.register_service(desc, scan_attestation=False)
            assert err.value.reason == reason


class TestDiscovery:
    def test_no_match_gives_empty_list(self):
        governor = governor_with([make_service()])
        assert governor.registry.discover("astrology", "anon-1") == []

    def test_match_is_case_insensitive_substring(self):
        governor = governor_with([make_service(name="Image Resize", description="Scale IMAGES")])
        assert len(governor.registry.discover("image", "anon-1")) == 1
        assert len(governor.registry.discover("SCALE", "anon-1")) == 1

    def test_results_carry_no_developer_identity(self):
        governor = governor_with([make_service()])
        results = governor.registry.discover("image", "anon-1")
        record = asdict(results[0].listing)
        assert "developer_id" not in record
        assert "dev-alpha" not in str(record)

    def test_host_ranking_prefers_level_over_score(self):
        """High-level host outranks a higher-scored Medium host."""
        governor = governor_with([make_service()])
        governor.hosts.register_host("host-a", "Android", "4.0", ResourceVector(2048, 32, 64, 1000), 9000)
        governor.hosts.register_host("host-b", "Android", "4.0", ResourceVector(2048, 32, 64, 1000), 9000)
        governor.request_hosting("host-a", "svc-resize")
        governor.request_hosting("host-b", "svc-resize")
        db = governor.host_db
        db.put(replace(
            db.hosts["host-a"],
            certificate=SecurityCertificate("host-a", SecurityLevel.HIGH, 0.9, 40, 0.0, False),
        ))
        db.put(replace(
            db.hosts["host-b"],
            certificate=SecurityCertificate("host-b", SecurityLevel.MEDIUM, 0.95, 40, 0.0, False),
        ))
        ranked = governor.host_db.ranked_hosts("svc-resize")
        assert ranked == ["host-a", "host-b"]

    def test_host_ranking_matches_sort_oracle(self):
        rng = random.Random(5)
        governor = governor_with([make_service()])
        expected = []
        for i in range(12):
            host_id = f"host-{i:02d}"
            governor.hosts.register_host(host_id, "Android", "4.0",
                                         ResourceVector(2048, 32, 64, 1000), 9000)
            governor.request_hosting(host_id, "svc-resize")
            level = rng.choice(list(SecurityLevel))
            score = round(rng.random(), 3)
            db = governor.host_db
            db.put(replace(
                db.hosts[host_id],
                certificate=SecurityCertificate(host_id, level, score, 10, 0.0, False),
            ))
            expected.append((host_id, level, score))
        oracle = [h for h, _, _ in sorted(expected, key=lambda t: (-int(t[1]), -t[2], t[0]))]
        assert governor.host_db.ranked_hosts("svc-resize") == oracle

    def test_dead_hosts_not_listed(self):
        governor = governor_with([make_service()])
        governor.hosts.register_host("host-a", "Android", "4.0", ResourceVector(2048, 32, 64, 1000), 9000)
        governor.request_hosting("host-a", "svc-resize")
        assert governor.host_db.ranked_hosts("svc-resize") == ["host-a"]
        governor.hosts.mark_departed("host-a")
        assert governor.host_db.ranked_hosts("svc-resize") == []

    def test_ordering_is_deterministic(self):
        governor = governor_with([
            make_service(service_id="svc-b", name="image b"),
            make_service(service_id="svc-a", name="image a"),
        ])
        first = [r.listing.service_id for r in governor.registry.discover("image", "x")]
        second = [r.listing.service_id for r in governor.registry.discover("image", "x")]
        assert first == second == ["svc-a", "svc-b"]


class TestListAvailable:
    def test_reference_host_sees_reference_service(self):
        governor = governor_with([make_service()])
        listed = governor.registry.list_available_services(
            ResourceVector(512, 2, 5, 500), "Android", "3.2"
        )
        assert [d.service_id for d in listed] == ["svc-resize"]

    def test_zero_free_resources_sees_nothing(self):
        governor = governor_with([make_service()])
        assert governor.registry.list_available_services(
            ResourceVector(0, 0, 0, 0), "Android", "3.2"
        ) == []

    def test_platform_mismatch_excluded(self):
        governor = governor_with([make_service()])
        assert governor.registry.list_available_services(
            ResourceVector(4096, 64, 64, 5000), "Android", "3.1"
        ) == []
        assert governor.registry.list_available_services(
            ResourceVector(4096, 64, 64, 5000), "Tizen", "9.9"
        ) == []

    def test_sorted_by_host_revenue_descending(self):
        # commission 0.2: host share is 1 - dev_share - 0.2
        governor = governor_with([
            make_service(service_id="cheap", name="a", price=1000, developer_share=0.7),  # host 100
            make_service(service_id="rich", name="b", price=1000, developer_share=0.1),   # host 700
            make_service(service_id="mid", name="c", price=1000, developer_share=0.4),    # host 400
        ])
        listed = governor.registry.list_available_services(
            ResourceVector(4096, 64, 64, 5000), "Android", "4.0"
        )
        assert [d.service_id for d in listed] == ["rich", "mid", "cheap"]

    @pytest.mark.parametrize("host_os", ["Android", "Tizen"])
    def test_an_unparsable_host_version_raises(self, host_os):
        # Whether or not an active service names the host's OS.
        governor = governor_with([make_service()])
        with pytest.raises(VersionError):
            governor.registry.list_available_services(
                ResourceVector(4096, 64, 64, 5000), host_os, "4.x"
            )

    def test_matches_brute_force_filter_oracle(self):
        """100 random services x 20 random hosts against a filter loop."""
        rng = random.Random(77)
        services = []
        for i in range(100):
            services.append(make_service(
                service_id=f"svc-{i:03d}",
                name=f"service {i}",
                os_name=rng.choice(["Android", "Tizen"]),
                min_version=f"{rng.randint(1, 5)}.{rng.randint(0, 9)}",
                min_resources=ResourceVector(
                    rng.randint(0, 1024), rng.randint(0, 64),
                    rng.randint(0, 64), rng.randint(0, 1000),
                ),
                price=rng.randint(0, 2000),
                developer_share=rng.choice([0.0, 0.2, 0.4, 0.6]),
            ))
        governor = governor_with(services)
        for _ in range(20):
            free = ResourceVector(rng.randint(0, 2048), rng.randint(0, 128),
                                  rng.randint(0, 128), rng.randint(0, 2000))
            os_name = rng.choice(["Android", "Tizen"])
            version = f"{rng.randint(1, 5)}.{rng.randint(0, 9)}"
            listed = governor.registry.list_available_services(free, os_name, version)
            expected = {
                d.service_id for d in services
                if d.platform.matches(os_name, version) and free.covers(d.min_resources)
            }
            assert {d.service_id for d in listed} == expected


class TestDeprecation:
    def test_deprecated_absent_from_discovery_and_listing(self):
        governor = governor_with([make_service()])
        assert deprecate(governor, "svc-resize") == ["svc-resize"]
        assert governor.registry.discover("image", "anon") == []
        assert governor.registry.list_available_services(
            ResourceVector(4096, 64, 64, 5000), "Android", "4.0"
        ) == []

    def test_deprecate_unknown_id_errors(self):
        governor = governor_with([make_service()])
        with pytest.raises(UnknownEntityError):
            deprecate(governor, "svc-ghost")  # its reports are refused

    def test_substitution_query_finds_same_tag_active_service(self):
        governor = governor_with([
            make_service(service_id="old", functionality_tag="ocr"),
            make_service(service_id="new", name="better ocr", functionality_tag="ocr"),
        ])
        assert deprecate(governor, "old") == ["old"]
        candidates = governor.registry.substitution_candidates("ocr", exclude="old")
        assert [d.service_id for d in candidates] == ["new"]

    def test_existing_hosts_keep_running_deprecated_service(self):
        governor = governor_with([make_service()])
        governor.hosts.register_host("host-a", "Android", "4.0",
                                     ResourceVector(2048, 32, 64, 1000), 9000)
        governor.request_hosting("host-a", "svc-resize")
        assert deprecate(governor, "svc-resize") == ["svc-resize"]
        assert "svc-resize" in governor.host_db.hosts["host-a"].hosted
