"""Service quality stats, substitution sweeps, malfunction escalation."""
import pytest
from hypothesis import given, settings, strategies as st

from conftest import deprecate, governor_with, make_service, scenario_dict
from momcc.domain import ResourceVector
from momcc.errors import UnknownEntityError
from momcc.governor import GovernorConfig, ServiceGovernor
from momcc.governor.profiler import ProfilerPolicy, SweepAction, failure_rate
from momcc.governor.registry import ServiceStatus
from momcc.scenario import validate_scenario
from momcc.snapshot import restore_governor, snapshot_governor
from test_hosts import make_report

AMPLE = ResourceVector(4096, 64, 64, 4000)


def governor_with_reports(pattern, service_id="svc-resize", extra_services=()):
    """One host, reports per the ok/rating pattern for service_id."""
    governor = governor_with([make_service(), *extra_services])
    governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 10**6)
    governor.request_hosting("host-a", service_id)
    for i, ok in enumerate(pattern):
        governor.ingest_report(
            make_report(service_id=service_id, ok=ok, report_id=f"r-{service_id}-{i}",
                        duration=10.0 + i)
        )
    return governor


class TestServiceStats:
    def test_ssfs_pattern_quarter_failure_rate(self):
        governor = governor_with_reports([True, True, False, True])
        stats = governor.profiler.service_stats("svc-resize", window=10)
        assert stats.failure_rate == 0.25
        assert stats.availability == 0.75

    def test_no_reports_is_unassessed(self):
        governor = governor_with([make_service()])
        assert governor.profiler.service_stats("svc-resize", window=10) is None

    def test_unknown_service_errors(self):
        governor = governor_with([make_service()])
        with pytest.raises(UnknownEntityError):
            governor.profiler.service_stats("svc-ghost", window=10)

    def test_latency_mean_matches_arithmetic_oracle(self):
        governor = governor_with_reports([True, True, True])
        stats = governor.profiler.service_stats("svc-resize", window=10)
        assert stats.mean_latency_ms == pytest.approx((10.0 + 11.0 + 12.0) / 3)

    def test_window_restricts_to_recent_reports(self):
        governor = governor_with_reports([False, False, True, True])
        stats = governor.profiler.service_stats("svc-resize", window=2)
        assert stats.failure_rate == 0.0
        assert stats.report_count == 2

    def test_security_failures_counted(self):
        governor = governor_with([make_service()])
        governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 10**6)
        governor.request_hosting("host-a", "svc-resize")
        governor.ingest_report(make_report(ok=False, reason="security", report_id="r1"))
        governor.ingest_report(make_report(ok=False, reason="fault", report_id="r2"))
        stats = governor.profiler.service_stats("svc-resize", window=10)
        assert stats.security_failures == 1


class TestProfilerPolicy:
    """The policy refuses what the scenario schema refuses, so every sweep
    judges at least one report."""

    @pytest.mark.parametrize("window", [0, -1, 2.0, True, "5", None])
    def test_window_must_be_an_int_of_at_least_one(self, window):
        with pytest.raises(ValueError, match="window"):
            ProfilerPolicy(window=window)

    @pytest.mark.parametrize("threshold", [-0.05, 1.05, float("nan"), float("inf")])
    def test_failure_threshold_must_be_in_the_unit_interval(self, threshold):
        with pytest.raises(ValueError, match="failure_threshold"):
            ProfilerPolicy(failure_threshold=threshold)

    def test_the_schema_reports_a_bad_policy_before_the_constructor_runs(self):
        data = scenario_dict(policies={"profiler": {"failure_threshold": 1.5, "window": 0}})
        assert validate_scenario(data) == [
            "/policies/profiler/failure_threshold: 1.5 is greater than the maximum of 1",
            "/policies/profiler/window: 0 is less than the minimum of 1",
        ]


class TestSubstitutionSweep:
    def two_tag_governor(self, bad_pattern, policy=ProfilerPolicy(failure_threshold=0.3, window=5)):
        alt = make_service(service_id="svc-alt", name="resize two",
                           functionality_tag="image-resize",
                           min_resources=ResourceVector(256, 2, 4, 300))
        governor = governor_with([make_service(), alt])
        governor.profiler.policy = policy
        governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 10**6)
        governor.request_hosting("host-a", "svc-resize")
        for i, ok in enumerate(bad_pattern):
            governor.ingest_report(make_report(ok=ok, report_id=f"r-{i}"))
        return governor

    def test_failing_service_deprecated_with_same_tag_replacement(self):
        governor = self.two_tag_governor([False, False, True, True, True])  # 0.4 > 0.3
        actions = governor.profiler.substitution_sweep()
        assert [(a.deprecated_id, a.replacement_id) for a in actions] == [("svc-resize", "svc-alt")]
        assert governor.registry.db.status["svc-resize"] == ServiceStatus.DEPRECATED
        assert governor.registry.db.status["svc-alt"] is ServiceStatus.ACTIVE

    def test_threshold_is_strict_inequality(self):
        # window 10, exactly 3 failures in 10 = 0.30: not deprecated
        governor = self.two_tag_governor(
            [False, False, False] + [True] * 7,
            policy=ProfilerPolicy(failure_threshold=0.3, window=10),
        )
        assert governor.profiler.substitution_sweep() == []
        assert governor.registry.db.status["svc-resize"] is ServiceStatus.ACTIVE

    def test_no_same_tag_alternative_yields_none(self):
        governor = governor_with([make_service()])
        governor.profiler.policy = ProfilerPolicy(failure_threshold=0.3, window=4)
        governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 10**6)
        governor.request_hosting("host-a", "svc-resize")
        for i in range(4):
            governor.ingest_report(make_report(ok=False, report_id=f"r-{i}"))
        actions = governor.profiler.substitution_sweep()
        assert [(a.deprecated_id, a.replacement_id) for a in actions] == [("svc-resize", None)]

    def test_sweep_is_idempotent(self):
        governor = self.two_tag_governor([False] * 5)
        first = governor.profiler.substitution_sweep()
        assert first
        assert governor.profiler.substitution_sweep() == []

    def test_thin_evidence_never_judged(self):
        # Four failures but the window needs five reports.
        governor = self.two_tag_governor([False] * 4)
        assert governor.profiler.substitution_sweep() == []

    def test_replacement_ranked_by_failure_then_footprint_then_id(self):
        lean = make_service(service_id="svc-lean", name="lean resize",
                            functionality_tag="image-resize",
                            min_resources=ResourceVector(100, 1, 1, 100))
        heavy = make_service(service_id="svc-heavy", name="heavy resize",
                             functionality_tag="image-resize",
                             min_resources=ResourceVector(900, 32, 32, 900))
        governor = governor_with([make_service(), lean, heavy])
        governor.profiler.policy = ProfilerPolicy(failure_threshold=0.3, window=3)
        governor.hosts.register_host("host-a", "Android", "4.0", AMPLE, 10**6)
        governor.request_hosting("host-a", "svc-resize")
        for i in range(3):
            governor.ingest_report(make_report(ok=False, report_id=f"r-{i}"))
        (action,) = governor.profiler.substitution_sweep()
        # No failure evidence on either candidate: footprint total breaks the tie.
        assert action.replacement_id == "svc-lean"


SWEEP_IDS = [f"svc-{i}" for i in range(6)]


def full_catalog_sweep(governor: ServiceGovernor) -> list[SweepAction]:
    """The sweep as it walked every Active service of the catalog: the
    oracle of the sweep that judges only full windows."""
    profiler = governor.profiler
    actions = []
    for desc in governor.registry.active_services():
        recent = governor.host_db.reports_for_service(desc.service_id, profiler.policy.window)
        if len(recent) < profiler.policy.window or failure_rate(recent) <= profiler.policy.failure_threshold:
            continue
        governor.registry._deprecate(desc.service_id)
        replacement = profiler._best_replacement(desc.functionality_tag, desc.service_id)
        actions.append(SweepAction(desc.service_id, replacement))
    return actions


def statuses(governor: ServiceGovernor) -> dict[str, ServiceStatus]:
    return {sid: governor.registry.db.status[sid] for sid in SWEEP_IDS if governor.registry.is_known(sid)}


# A catalog: per service, its tag and cpu need; which of them are
# deprecated before any sweep; and two rounds of reports, each followed by
# a sweep, as (service index, ok).
sweep_catalogs = st.lists(st.tuples(st.sampled_from(["tag-a", "tag-b"]), st.integers(0, 3)),
                          min_size=1, max_size=len(SWEEP_IDS))
report_rounds = st.lists(st.tuples(st.integers(0, len(SWEEP_IDS) - 1), st.booleans()), max_size=30)


def sweep_governor(catalog, deprecated, policy: ProfilerPolicy) -> ServiceGovernor:
    governor = ServiceGovernor(GovernorConfig(profiler_policy=policy))
    governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
    governor.hosts.register_host("host-a", "Android", "10.1", ResourceVector(8192, 64, 64, 8000), 10**9)
    for sid, (tag, cpu) in zip(SWEEP_IDS, catalog):
        governor.registry.register_service(make_service(
            service_id=sid, name=f"{tag} {sid}", functionality_tag=tag,
            min_resources=ResourceVector(128 * cpu, 1, 1, 100),
        ))
        assert governor.request_hosting("host-a", sid).confirmed
    for index in sorted(deprecated):
        if index < len(catalog):
            deprecate(governor, SWEEP_IDS[index])  # a sweep over a threshold of 1 deprecates nothing
    return governor


def ingest_round(governor: ServiceGovernor, reports, catalog, round_no: int) -> None:
    for n, (index, ok) in enumerate(reports):
        governor.ingest_report(make_report(
            service_id=SWEEP_IDS[index % len(catalog)], ok=ok, report_id=f"r-{round_no}-{n}",
        ))


class TestSweepAgainstTheFullCatalogLoop:
    @settings(max_examples=150, deadline=None)
    @given(sweep_catalogs, st.sets(st.integers(0, len(SWEEP_IDS) - 1), max_size=3),
           report_rounds, report_rounds, st.integers(1, 6), st.integers(0, 20).map(lambda k: k / 20),
           st.booleans())
    def test_actions_and_statuses_equal_the_full_catalog_loop(
        self, catalog, deprecated, first, second, window, threshold, restore
    ):
        policy = ProfilerPolicy(failure_threshold=threshold, window=window)
        oracle = sweep_governor(catalog, deprecated, policy)
        governor = sweep_governor(catalog, deprecated, policy)
        for round_no, reports in enumerate((first, second)):
            ingest_round(oracle, reports, catalog, round_no)
            ingest_round(governor, reports, catalog, round_no)
            if restore:
                governor = restore_governor(snapshot_governor(governor))
            expected = full_catalog_sweep(oracle)
            assert governor.profiler.substitution_sweep() == expected
            assert statuses(governor) == statuses(oracle)
            assert governor.profiler.substitution_sweep() == []
            assert governor.check_invariants() == []


class TestMalfunctionEscalation:
    def test_escalation_addressed_to_developer(self):
        governor = governor_with([make_service()])
        escalation = governor.profiler.report_malfunction("svc-resize", "render corrupt")
        assert escalation.developer_id == "dev-alpha"
        assert escalation.service_id == "svc-resize"

    def test_escalation_carries_no_requester_identity(self):
        governor = governor_with([make_service()])
        escalation = governor.profiler.report_malfunction("svc-resize", "timeout after 2s")
        record = escalation.__dict__
        assert "requester" not in str(record)
        assert not any("req-" in str(v) or "anon-" in str(v) for v in record.values())

    def test_unknown_service_errors(self):
        governor = governor_with([make_service()])
        with pytest.raises(UnknownEntityError):
            governor.profiler.report_malfunction("svc-ghost", "x")
