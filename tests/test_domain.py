"""Core type behavior: dominance, level ordering, version comparison."""
import random
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from momcc.domain import (
    HostProfile,
    PlatformRequirement,
    ResourceVector,
    SecurityCertificate,
    SecurityLevel,
    VersionError,
    level_admits,
    parse_version,
    profile_with,
    version_at_least,
)


def loop_covers(a: ResourceVector, b: ResourceVector) -> bool:
    """Independent component-wise oracle."""
    for name in ("cpu", "memory", "storage", "energy"):
        if getattr(a, name) < getattr(b, name):
            return False
    return True


def tuple_version_at_least(host: str, minimum: str) -> bool:
    """Independent oracle: pad to three integers and compare tuples."""
    def pad(v):
        parts = [int(p) for p in v.split(".")]
        return tuple(parts + [0] * (3 - len(parts)))
    return pad(host) >= pad(minimum)


vectors = st.builds(
    ResourceVector,
    cpu=st.integers(0, 4096),
    memory=st.integers(0, 256),
    storage=st.integers(0, 512),
    energy=st.integers(0, 5000),
)


class TestCovers:
    def test_reflexive_on_reference_vector(self):
        v = ResourceVector(512, 2, 5, 500)
        assert v.covers(v)

    def test_small_memory_host_cannot_take_larger_need(self):
        # A service needing 2 MB memory cannot go on a 1 MB-free host.
        host_free = ResourceVector(1024, 1, 64, 1000)
        need = ResourceVector(512, 2, 5, 500)
        assert not host_free.covers(need)

    def test_matches_component_loop_oracle_on_10k_random_pairs(self):
        rng = random.Random(1234)
        for _ in range(10_000):
            a = ResourceVector(rng.randint(0, 8), rng.randint(0, 8),
                               rng.randint(0, 8), rng.randint(0, 8))
            b = ResourceVector(rng.randint(0, 8), rng.randint(0, 8),
                               rng.randint(0, 8), rng.randint(0, 8))
            assert a.covers(b) == loop_covers(a, b)

    @given(vectors, vectors, vectors)
    def test_partial_order(self, a, b, c):
        assert a.covers(a)
        if a.covers(b) and b.covers(a):
            assert a == b
        if a.covers(b) and b.covers(c):
            assert a.covers(c)

    @pytest.mark.parametrize("index, name", enumerate(("cpu", "memory", "storage", "energy")))
    @pytest.mark.parametrize("value, message", [
        (-1, "resource {} must be >= 0, got -1"),
        (1.5, "resource {} must be an integer, got 1.5"),
        (True, "resource {} must be an integer, got True"),
        (False, "resource {} must be an integer, got False"),
    ])
    def test_a_refused_component_is_named(self, index, name, value, message):
        fields = [7, 7, 7, 7]
        fields[index] = value
        with pytest.raises(ValueError) as err:
            ResourceVector(*fields)
        assert str(err.value) == message.format(name)

    def test_the_first_refused_component_is_the_one_named(self):
        with pytest.raises(ValueError, match=r"^resource memory must be an integer, got 'x'$"):
            ResourceVector(0, "x", -1, 0.5)

    def test_an_int_subclass_component_is_accepted(self):
        vector = ResourceVector(SecurityLevel.HIGH, 0, 1, SecurityLevel.LOW)
        assert vector.cpu is SecurityLevel.HIGH
        assert vector.covers(ResourceVector(2, 0, 1, 0))
        assert hash(vector) == hash(ResourceVector(2, 0, 1, 0))

    def test_minus_underflow_rejected(self):
        with pytest.raises(ValueError):
            ResourceVector(1, 1, 1, 1).minus(ResourceVector(2, 0, 0, 0))


class TestLevelAdmits:
    def test_medium_service_on_medium_host(self):
        assert level_admits(SecurityLevel.MEDIUM, SecurityLevel.MEDIUM)

    def test_medium_service_on_high_host(self):
        assert level_admits(SecurityLevel.HIGH, SecurityLevel.MEDIUM)

    def test_full_matrix_has_six_admitted_three_denied(self):
        results = [
            level_admits(host, svc)
            for host in SecurityLevel
            for svc in SecurityLevel
        ]
        assert sum(results) == 6
        assert len(results) - sum(results) == 3

    def test_matrix_matches_ordering_oracle(self):
        for host in SecurityLevel:
            for svc in SecurityLevel:
                assert level_admits(host, svc) == (int(host) >= int(svc))

    @given(st.sampled_from(SecurityLevel), st.sampled_from(SecurityLevel),
           st.sampled_from(SecurityLevel))
    def test_downward_closure(self, host, svc, lower):
        # Admitting a level admits every lower one too.
        if level_admits(host, svc) and lower <= svc:
            assert level_admits(host, lower)

    def test_total_order(self):
        assert SecurityLevel.LOW < SecurityLevel.MEDIUM < SecurityLevel.HIGH


class TestVersions:
    def test_equal_versions(self):
        assert version_at_least("3.2", "3.2")

    def test_newer_host_passes_minimum(self):
        assert version_at_least("4.0", "3.2")

    def test_numeric_not_lexicographic(self):
        assert version_at_least("3.10", "3.9")
        assert tuple_version_at_least("3.10", "3.9")

    def test_matches_tuple_oracle_on_random_versions(self):
        rng = random.Random(99)
        for _ in range(2000):
            a = ".".join(str(rng.randint(0, 12)) for _ in range(rng.randint(1, 3)))
            b = ".".join(str(rng.randint(0, 12)) for _ in range(rng.randint(1, 3)))
            assert version_at_least(a, b) == tuple_version_at_least(a, b)

    @pytest.mark.parametrize("bad", ["", "1..2", "a.b", "1.2.3.4", "-1", "1.-2", " 1.2", "²", "3.¹"])
    def test_malformed_versions_rejected(self, bad):
        with pytest.raises(VersionError):
            parse_version(bad)

    def test_missing_components_treated_as_zero(self):
        assert parse_version("3") == (3, 0, 0)
        assert version_at_least("3", "3.0.0")
        assert version_at_least("3.0.0", "3")

    def test_total_order_consistent_with_tuples(self):
        samples = ["1", "1.0", "1.0.1", "2", "0.9", "10.0", "2.11.3"]
        by_impl = sorted(samples, key=parse_version)
        by_oracle = sorted(samples, key=lambda v: tuple([int(p) for p in v.split(".")] + [0] * (3 - v.count(".") - 1)))
        assert by_impl == by_oracle


class TestPlatformRequirement:
    def test_os_name_is_case_sensitive(self):
        req = PlatformRequirement("Android", "3.2")
        assert req.matches("Android", "4.0")
        assert not req.matches("android", "4.0")

    def test_version_gate(self):
        req = PlatformRequirement("Android", "3.2")
        assert not req.matches("Android", "3.1")

    @pytest.mark.parametrize("bad", ["3.x", "²"])  # `str.isdigit` accepts "²", which `int` cannot read
    def test_invalid_min_version_rejected_at_construction(self, bad):
        with pytest.raises(VersionError):
            PlatformRequirement("Android", bad)


class TestProfileWith:
    """`profile_with` builds positionally, so its field order must be
    `HostProfile`'s: every other field keeps its value, as with `replace`."""

    PROFILE = HostProfile(
        "host-a", "Android", "4.2", ResourceVector(4096, 64, 128, 5000),
        ResourceVector(512, 2, 5, 500), 8123,
        SecurityCertificate("host-a", SecurityLevel.MEDIUM, 0.6, 12, 10, 3.5, True),
        frozenset({"svc-a"}), True,
    )
    CHANGES = {
        "committed": ResourceVector(1024, 4, 10, 1000),
        "battery_mwh": 7000,
        "hosted": frozenset({"svc-a", "svc-b"}),
        "certificate": SecurityCertificate("host-a", SecurityLevel.HIGH, 0.9, 40, 39, 3.5, True),
        "alive": False,
    }

    @pytest.mark.parametrize("fields", [(), ("committed",), ("battery_mwh",), ("hosted",),
                                        ("certificate",), ("alive",), ("committed", "hosted"),
                                        ("battery_mwh", "certificate")])
    def test_equals_replace(self, fields):
        changes = {name: self.CHANGES[name] for name in fields}
        assert profile_with(self.PROFILE, **changes) == replace(self.PROFILE, **changes)
