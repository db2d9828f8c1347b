"""Service registry vetting, discovery, listings, and deprecation."""
import random
import threading
from dataclasses import asdict, replace

import pytest

from conftest import governor_with, make_service
from momcc.domain import ResourceVector, SecurityCertificate, SecurityLevel, VersionError
from momcc.errors import RegistrationRejected, UnknownEntityError
from momcc.governor.billing import DEFAULT_COMMISSION, BillingUnit
from momcc.governor.registry import DEFAULT_FOOTPRINT_CEILING, ServiceRegistry, ServiceStatus
from momcc.governor.store import HostDatabase


def bare_registry(footprint_ceiling=DEFAULT_FOOTPRINT_CEILING,
                  developers=("dev-alpha",)) -> ServiceRegistry:
    """A registry alone, over a billing unit that knows `developers`."""
    lock = threading.RLock()
    billing = BillingUnit(DEFAULT_COMMISSION, lock)
    for developer_id in developers:
        billing.negotiate_developer(developer_id, 1000, 0.4)
    return ServiceRegistry(billing, HostDatabase(), footprint_ceiling, lock)


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
        assert registry.status_of(sid) is ServiceStatus.ACTIVE

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
        registry = bare_registry()
        registry.register_service(make_service(service_id="A", dependencies=("B",)))
        with pytest.raises(RegistrationRejected) as err:
            registry.register_service(make_service(service_id="B", dependencies=("A",)))
        assert err.value.reason == "cycle"
        # The rejected service left no trace.
        assert not registry.is_known("B")

    def test_cycle_detector_matches_kahn_oracle_on_random_graphs(self):
        """Each registration in a random sequence is rejected as a cycle
        exactly when the graph of the accepted services plus it has one."""
        rng = random.Random(17)
        for _ in range(300):
            n = rng.randint(1, 8)
            nodes = [f"s{i}" for i in range(n)]
            registry = bare_registry()
            accepted: dict[str, tuple[str, ...]] = {}
            for node in rng.sample(nodes, n):
                deps = tuple(rng.sample(nodes, rng.randint(0, n - 1)))
                closes = kahn_has_cycle({**accepted, node: deps})
                try:
                    registry.register_service(make_service(service_id=node, dependencies=deps))
                except RegistrationRejected as err:
                    assert err.reason == "cycle" and closes
                    assert not registry.is_known(node)
                else:
                    assert not closes
                    accepted[node] = deps

    def test_self_dependency_rejected(self):
        registry = bare_registry()
        with pytest.raises(RegistrationRejected):
            registry.register_service(make_service(service_id="loop", dependencies=("loop",)))

    def test_forward_reference_to_unregistered_dependency_allowed(self):
        registry = bare_registry()
        registry.register_service(make_service(service_id="top", dependencies=("leaf",)))
        registry.register_service(make_service(service_id="leaf"))
        assert registry.status_of("top") is ServiceStatus.ACTIVE

    def test_governor_wires_billing_gate_into_registration(self):
        """Through the governor, registration requires a negotiated developer."""
        from momcc.governor import ServiceGovernor

        governor = ServiceGovernor()
        with pytest.raises(RegistrationRejected) as err:
            governor.registry.register_service(make_service())
        assert err.value.reason == "developer"
        governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
        governor.registry.register_service(make_service())
        assert governor.registry.status_of("svc-resize") is ServiceStatus.ACTIVE


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
            certificate=SecurityCertificate("host-a", SecurityLevel.HIGH, 0.9, 40, 38, 0.0, False),
        ))
        db.put(replace(
            db.hosts["host-b"],
            certificate=SecurityCertificate("host-b", SecurityLevel.MEDIUM, 0.95, 40, 39, 0.0, False),
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
                certificate=SecurityCertificate(host_id, level, score, 10, 5, 0.0, False),
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
        governor.registry.deprecate_service("svc-resize", "slow")
        assert governor.registry.discover("image", "anon") == []
        assert governor.registry.list_available_services(
            ResourceVector(4096, 64, 64, 5000), "Android", "4.0"
        ) == []

    def test_deprecate_unknown_id_errors(self):
        registry = bare_registry()
        with pytest.raises(UnknownEntityError):
            registry.deprecate_service("svc-ghost", "x")

    def test_substitution_query_finds_same_tag_active_service(self):
        governor = governor_with([
            make_service(service_id="old", functionality_tag="ocr"),
            make_service(service_id="new", name="better ocr", functionality_tag="ocr"),
        ])
        governor.registry.deprecate_service("old", "quality")
        candidates = governor.registry.substitution_candidates("ocr", exclude="old")
        assert [d.service_id for d in candidates] == ["new"]

    def test_existing_hosts_keep_running_deprecated_service(self):
        governor = governor_with([make_service()])
        governor.hosts.register_host("host-a", "Android", "4.0",
                                     ResourceVector(2048, 32, 64, 1000), 9000)
        governor.request_hosting("host-a", "svc-resize")
        governor.registry.deprecate_service("svc-resize", "quality")
        assert "svc-resize" in governor.host_db.hosts["host-a"].hosted
