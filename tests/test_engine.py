"""Engine determinism, causality, baseline comparison, trace checking."""
import gc
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields, replace
from pathlib import Path

import pytest

from conftest import composite_scenario, drop_sc_query, scenario_dict, service_dict
from momcc.agents import AggregatorConfig, HostAgentConfig, RequesterAgentConfig
from momcc.cli import _write_outputs
from momcc.engine import CLOUD_HOST_ID, Simulation, percentile, run_scenario
from momcc.governor import GovernorConfig, ProfilerPolicy, TrustPolicy
from momcc.governor.registry import ServiceStatus
from momcc.scenario import (
    MODE_MARKETPLACE,
    MODE_WAN_CLOUD,
    SCENARIO_SCHEMA,
    LatencyModel,
    ScenarioValidationError,
    load_scenario,
    scenario_from_dict,
)
from momcc.wire import MessageKind, decode_envelope


class TestDeterminism:
    def test_same_seed_same_scenario_byte_identical_reports(self):
        a = run_scenario(scenario_from_dict(scenario_dict(seed=9)))
        b = run_scenario(scenario_from_dict(scenario_dict(seed=9)))
        assert a.report.to_json_bytes() == b.report.to_json_bytes()
        assert a.trace_lines() == b.trace_lines()

    def test_different_seeds_diverge(self):
        a = run_scenario(scenario_from_dict(scenario_dict(seed=1)))
        b = run_scenario(scenario_from_dict(scenario_dict(seed=2)))
        assert a.report.to_json_bytes() != b.report.to_json_bytes()


class TestCausality:
    def test_no_message_delivered_before_sent(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=5)))
        assert result.trace
        for record in result.trace:
            assert record.received_at >= record.sent_at

    def test_transport_delay_stays_within_its_class_range(self):
        """Every delivery pays a delay sampled from its link class."""
        scenario = scenario_from_dict(scenario_dict(seed=5))
        result = run_scenario(scenario)
        for record in result.trace:
            delay = record.received_at - record.sent_at
            if "governor" in (record.sender, record.recipient):
                low, high = scenario.latency.governor_ms
            elif CLOUD_HOST_ID in (record.sender, record.recipient):
                low, high = scenario.latency.wan_ms
            else:
                low, high = scenario.latency.wlan_ms
            assert low <= delay <= high, (record.sender, record.recipient, delay)

    def test_wan_class_applies_to_cloud_deliveries(self):
        scenario = scenario_from_dict(scenario_dict(seed=5, mode=MODE_WAN_CLOUD))
        result = run_scenario(scenario)
        cloud_hops = [
            r for r in result.trace
            if CLOUD_HOST_ID in (r.sender, r.recipient) and "governor" not in (r.sender, r.recipient)
        ]
        assert cloud_hops
        for record in cloud_hops:
            delay = record.received_at - record.sent_at
            low, high = scenario.latency.wan_ms
            assert low <= delay <= high

    def test_replies_reuse_request_correlation(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=5)))
        requests = {}
        pairs = [
            (MessageKind.DISCOVERY_QUERY, MessageKind.DISCOVERY_REPLY),
            (MessageKind.LIST_SERVICES_REQUEST, MessageKind.LIST_SERVICES_REPLY),
        ]
        for record in result.trace:
            requests.setdefault(record.message.kind, set()).add(record.message.correlation_id)
        for request_kind, reply_kind in pairs:
            for correlation in requests.get(reply_kind, set()):
                assert correlation in requests.get(request_kind, set())


class TestModes:
    def test_zero_requesters_reports_no_demand(self):
        data = scenario_dict(requesters=[])
        report = run_scenario(scenario_from_dict(data)).report
        assert report.demand_events == 0
        assert report.invocations_total == 0
        assert report.to_json_dict()["availability"] == "no demand"

    def test_marketplace_beats_wan_latency_on_same_seed(self):
        momcc_report = run_scenario(scenario_from_dict(scenario_dict(seed=21))).report
        wan_report = run_scenario(
            scenario_from_dict(scenario_dict(seed=21, mode=MODE_WAN_CLOUD))
        ).report
        assert momcc_report.latency_mean_ms is not None
        assert wan_report.latency_mean_ms is not None
        assert momcc_report.latency_mean_ms < wan_report.latency_mean_ms

    def test_wan_mode_availability_is_always_one(self):
        for seed in (1, 2, 3):
            report = run_scenario(
                scenario_from_dict(scenario_dict(seed=seed, mode=MODE_WAN_CLOUD))
            ).report
            assert report.availability == 1.0

    def test_wan_mode_routes_to_single_cloud_endpoint(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=4, mode=MODE_WAN_CLOUD)))
        invoke_targets = {
            record.recipient
            for record in result.trace
            if record.message.kind == MessageKind.INVOKE
        }
        assert invoke_targets == {CLOUD_HOST_ID}
        assert result.report.allocations_confirmed == 0  # provisioning bypasses admission

    def test_wan_mode_still_meters_and_conserves(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=4, mode=MODE_WAN_CLOUD)))
        assert result.governor.billing.total_metered() > 0
        assert result.governor.check_invariants() == []


class TestTraceConformance:
    def test_run_with_allocations_has_conforming_traces(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=6)))
        decisions = result.governor.hosts.decisions
        assert decisions
        assert all(d.conforms() for d in decisions)
        assert result.report.trace_violations == 0

    def test_empty_run_zero_traces_zero_violations(self):
        data = scenario_dict(hosts=[], requesters=[])
        result = run_scenario(scenario_from_dict(data))
        assert result.governor.hosts.decisions == []
        assert result.report.trace_violations == 0

    def test_injected_fault_is_counted(self, monkeypatch):
        """Negative control: drop the SC step from every recorded decision."""
        drop_sc_query(monkeypatch)
        result = run_scenario(scenario_from_dict(scenario_dict(seed=6)))
        assert result.report.trace_violations > 0

    def test_trace_log_lines_decode_as_envelopes(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=6)))
        lines = result.trace_lines()
        assert lines
        for line in lines[:50]:
            decode_envelope(line)


class TestScenarioValidationSurface:
    def test_negative_duration_is_named(self):
        data = scenario_dict()
        data["duration_hours"] = -1
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("duration_hours" in d for d in err.value.diagnostics)

    def test_all_violations_reported_at_once(self):
        data = scenario_dict()
        data["duration_hours"] = -1
        data["seed"] = -5
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert len(err.value.diagnostics) == 2

    def test_unknown_dependency_rejected(self):
        data = scenario_dict(services=[service_dict(dependencies=["svc-ghost"])])
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("svc-ghost" in d for d in err.value.diagnostics)

    def test_aggregator_must_reference_composite(self):
        data = scenario_dict(
            aggregators=[{
                "count": 1, "composite_service_id": "svc-resize",
                "capacity": {"cpu": 512, "memory": 8, "storage": 8, "energy": 300},
                "battery_mwh": 1000, "platform_os": "Android", "platform_version": "4.0",
            }],
        )
        with pytest.raises(ScenarioValidationError) as err:
            scenario_from_dict(data)
        assert any("composite" in d for d in err.value.diagnostics)


class TestPseudonymity:
    def test_report_pseudonyms_never_equal_requester_identities(self):
        result = run_scenario(scenario_from_dict(scenario_dict(seed=19)))
        identities = set(result.requester_ids)
        reports = result.governor.host_db.reports
        assert reports
        for report in reports:
            assert report.requester_pseudonym not in identities
            assert report.requester_pseudonym.startswith("anon-")

    def test_pseudonyms_injective_within_a_run(self):
        """Each requester keeps one pseudonym; no two share one."""
        result = run_scenario(scenario_from_dict(scenario_dict(seed=19)))
        pseudonym_to_sender: dict[str, set] = {}
        for record in result.trace:
            if record.message.kind == MessageKind.DISCOVERY_QUERY:
                pseudonym = record.message.payload["requester_pseudonym"]
                pseudonym_to_sender.setdefault(pseudonym, set()).add(record.sender)
        assert pseudonym_to_sender
        for senders in pseudonym_to_sender.values():
            assert len(senders) == 1
        senders_seen = [next(iter(s)) for s in pseudonym_to_sender.values()]
        assert len(senders_seen) == len(set(senders_seen))


class TestChurnAndEnergy:
    def test_battery_drain_matches_reported_energy(self):
        data = scenario_dict(seed=13, duration_hours=2.0)
        result = run_scenario(scenario_from_dict(data))
        sim_hosts = result.governor.host_db.hosts
        for host_id, profile in sim_hosts.items():
            used = sum(
                r.energy_used_mwh for r in result.governor.host_db.reports
                if r.host_id == host_id
            )
            assert profile.battery_mwh == max(0, 20000 - used)

    def test_churn_removes_supply(self):
        data = scenario_dict(
            seed=2,
            duration_hours=4.0,
            hosts=[{
                "count": 1,
                "capacity": {"cpu": 2048, "memory": 32, "storage": 64, "energy": 1500},
                "battery_mwh": 20000, "platform_os": "Android", "platform_version": "4.0",
                "departure_rate": 2.0, "failure_prob": 0.0,
            }],
            requesters=[{"count": 1, "demand_rate": 10, "query_pool": ["image"]}],
        )
        report = run_scenario(scenario_from_dict(data)).report
        assert report.unavailable_events > 0
        assert report.availability < 1.0

    def test_exhausted_battery_departs_host(self):
        # 1 host, battery for exactly 3 executions of the 500 mWh service.
        data = scenario_dict(
            seed=8,
            duration_hours=3.0,
            hosts=[{
                "count": 1,
                "capacity": {"cpu": 2048, "memory": 32, "storage": 64, "energy": 1500},
                "battery_mwh": 1500, "platform_os": "Android", "platform_version": "4.0",
                "departure_rate": 0.0, "failure_prob": 0.0,
            }],
            requesters=[{"count": 1, "demand_rate": 20, "query_pool": ["image"]}],
        )
        result = run_scenario(scenario_from_dict(data))
        profile = result.governor.host_db.hosts["host-000"]
        assert not profile.alive
        assert result.report.energy_mwh == 1500
        assert result.report.unavailable_events > 0


class TestSubstitutionInFlight:
    def substitution_scenario(self):
        """One doomed service pinned to a failing host, a healthy same-tag
        alternative on reliable hosts; resource shapes force the split."""
        return scenario_dict(
            seed=77,
            duration_hours=2.0,
            services=[
                service_dict(service_id="svc-aa-doomed", name="flaky reader",
                             description="ocr, first generation",
                             functionality_tag="ocr",
                             min_resources={"cpu": 900, "memory": 2, "storage": 2, "energy": 100},
                             price=500),
                service_dict(service_id="svc-solid", name="solid reader",
                             description="ocr, second generation",
                             functionality_tag="ocr",
                             min_resources={"cpu": 300, "memory": 2, "storage": 2, "energy": 100},
                             price=500),
            ],
            hosts=[
                # Fits only the doomed service, and fails every execution.
                {"count": 1, "capacity": {"cpu": 1000, "memory": 8, "storage": 8, "energy": 500},
                 "battery_mwh": 10**6, "platform_os": "Android", "platform_version": "4.0",
                 "departure_rate": 0.0, "failure_prob": 1.0},
                # Fit only the replacement, and never fail.
                {"count": 2, "capacity": {"cpu": 400, "memory": 8, "storage": 8, "energy": 500},
                 "battery_mwh": 10**6, "platform_os": "Android", "platform_version": "4.0",
                 "departure_rate": 0.0, "failure_prob": 0.0},
            ],
            requesters=[{"count": 1, "demand_rate": 20, "query_pool": ["ocr"]}],
            policies={"profiler": {"failure_threshold": 0.3, "window": 5,
                                   "sweep_interval_hours": 0.5}},
        )

    def test_sweep_reroutes_live_traffic_to_replacement(self):
        result = run_scenario(scenario_from_dict(self.substitution_scenario()))
        report = result.report
        assert report.sweeps, "the failing service was never swept"
        sweep = report.sweeps[0]
        assert sweep["deprecated"] == "svc-aa-doomed"
        assert sweep["replacement"] == "svc-solid"
        # Before the sweep requesters bound to the doomed service; after it
        # only the replacement serves, so successes resume.
        sweep_at = sweep["at_ms"]
        reports = result.governor.host_db.reports
        after = [r for r in reports if r.started_at > sweep_at]
        assert after
        assert all(r.service_id == "svc-solid" for r in after)
        assert all(r.outcome.ok for r in after)
        # The replacement stayed available throughout.
        assert report.availability == 1.0
        assert result.governor.registry.status_of("svc-solid") is ServiceStatus.ACTIVE
        assert result.governor.registry.status_of("svc-aa-doomed") is not ServiceStatus.ACTIVE

    def test_periodic_assessment_rides_the_sweep_cadence(self):
        result = run_scenario(scenario_from_dict(self.substitution_scenario()))
        assert result.host_assessments
        assessed = [a for a in result.host_assessments if a.assessed]
        assert assessed
        for assessment in assessed:
            assert 0.0 <= assessment.score <= 1.0
        # The always-failing host scores strictly below the reliable ones.
        by_host = {a.host_id: a for a in result.host_assessments}
        if by_host["host-000"].assessed and by_host["host-001"].assessed:
            assert by_host["host-000"].score < by_host["host-001"].score


def field_names(cls) -> set[str]:
    return {f.name for f in fields(cls)}


def schema_keys(schema: dict) -> set[str]:
    return set(schema["properties"])


class TestScenarioDefaults:
    def test_schema_sections_name_only_config_fields(self):
        """Sections are built by field name, so every key must be a field."""
        doc = SCENARIO_SCHEMA["properties"]
        assert schema_keys(doc["hosts"]["items"]) - {"count"} == field_names(HostAgentConfig)
        assert schema_keys(doc["requesters"]["items"]) - {"count"} == field_names(RequesterAgentConfig)
        assert schema_keys(doc["aggregators"]["items"]) - {"count"} == field_names(AggregatorConfig)
        assert schema_keys(doc["latency"]) == field_names(LatencyModel)
        policies = doc["policies"]["properties"]
        assert schema_keys(policies["trust"]) <= field_names(TrustPolicy)
        assert schema_keys(policies["profiler"]) - {"sweep_interval_hours"} == field_names(ProfilerPolicy)
        own = schema_keys(policies["registry"]) | schema_keys(policies["billing"]) | {"assessment_weights"}
        assert own <= field_names(GovernorConfig)

    def test_omitted_keys_take_the_dataclass_defaults(self):
        data = scenario_dict(
            hosts=[{"count": 1, "capacity": {"cpu": 2048, "memory": 32, "storage": 64, "energy": 1500},
                    "battery_mwh": 20000, "platform_os": "Android", "platform_version": "4.0"}],
            requesters=[{"count": 1, "demand_rate": 10, "query_pool": ["image"]}],
        )
        del data["baseline_mode"]
        scenario = scenario_from_dict(data)
        assert scenario.baseline_mode == MODE_MARKETPLACE
        assert scenario.latency == LatencyModel()
        assert scenario.exec_ms == (5.0, 25.0)
        assert scenario.sweep_interval_hours == 1.0
        assert scenario.governor_config == GovernorConfig()
        host = scenario.hosts[0].config
        assert (host.greediness, host.departure_rate, host.failure_prob, host.identity_verified) == (
            "max_revenue", 0.0, 0.0, False)
        assert scenario.requesters[0].config == RequesterAgentConfig(10, ("image",))


class TestPolicyPlumbing:
    def test_scenario_policies_reach_the_governor(self):
        data = scenario_dict(
            policies={
                "billing": {"governor_commission": 0.1},
                "trust": {"alpha": 0.2, "promote_medium": [0.4, 5], "promote_high": [0.7, 15]},
                "profiler": {"failure_threshold": 0.5, "window": 7},
                "registry": {"footprint_ceiling": {"cpu": 600, "memory": 8, "storage": 8, "energy": 600}},
                "assessment_weights": [0.6, 0.2, 0.2],
            }
        )
        scenario = scenario_from_dict(data)
        config = scenario.governor_config
        assert config.governor_commission == 0.1
        assert config.trust_policy.alpha == 0.2
        assert config.trust_policy.promote_medium == (0.4, 5)
        assert config.profiler_policy.window == 7
        assert config.footprint_ceiling.cpu == 600
        assert config.assessment_weights == (0.6, 0.2, 0.2)
        # Commission flows into the agreements the run establishes.
        result = run_scenario(scenario)
        agreement = result.governor.billing.agreement_for("svc-resize")
        assert agreement is not None
        assert agreement.governor_commission == 0.1
        assert agreement.host_share == pytest.approx(0.5)

    def test_footprint_ceiling_rejects_oversized_service_at_setup(self):
        data = scenario_dict(
            policies={"registry": {"footprint_ceiling": {"cpu": 100, "memory": 1, "storage": 1, "energy": 100}}}
        )
        from momcc.errors import RegistrationRejected

        with pytest.raises(RegistrationRejected):
            run_scenario(scenario_from_dict(data))


class TestPercentile:
    def test_nearest_rank(self):
        values = [10.0, 20.0, 30.0, 40.0]
        assert percentile(values, 0.50) == 20.0
        assert percentile(values, 0.95) == 40.0
        assert percentile([7.0], 0.95) == 7.0

    def test_matches_sort_index_oracle(self):
        import math
        import random as rnd

        rng = rnd.Random(1)
        for _ in range(100):
            values = [rng.random() for _ in range(rng.randint(1, 50))]
            for q in (0.5, 0.9, 0.95):
                expected = sorted(values)[max(1, math.ceil(q * len(values))) - 1]
                assert percentile(values, q) == expected


SCENARIOS = Path(__file__).parent.parent / "scenarios"


def collector_cases():
    """Both bundled scenarios in both modes, and the six composite variants."""
    cases = {}
    for name in ("default.json", "composite.json"):
        for mode in (MODE_MARKETPLACE, MODE_WAN_CLOUD):
            cases[f"{name}-{mode}"] = lambda name=name, mode=mode: replace(
                load_scenario(SCENARIOS / name), baseline_mode=mode
            )
    for parallel in (False, True):
        for failure in (0.0, 0.5, 1.0):
            cases[f"composite-parallel={parallel}-failure={failure}"] = (
                lambda parallel=parallel, failure=failure: scenario_from_dict(
                    composite_scenario(parallel=parallel, dep_b_failure=failure)
                )
            )
    return cases


COLLECTOR_CASES = collector_cases()


@contextmanager
def collector(enabled: bool):
    """Run the body with the cyclic collector on or off, then restore it."""
    collecting = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if collecting else gc.disable)()


class TestCollectorPause:
    """`Simulation.run` and the output writer pause the cyclic collector; that
    is safe only while they leave no cyclic garbage, and each must hand back
    the caller's setting."""

    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_callers_collector_setting(self, enabled):
        with collector(enabled):
            Simulation(scenario_from_dict(scenario_dict(seed=3))).run()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_raising_handler_still_restores_the_setting(self, enabled):
        def fail(_):
            raise RuntimeError("handler failed")

        simulation = Simulation(scenario_from_dict(scenario_dict(seed=3)))
        simulation._schedule(0.0, fail, None)
        with collector(enabled):
            with pytest.raises(RuntimeError, match="handler failed"):
                simulation.run()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_writing_restores_the_callers_collector_setting(self, enabled, tmp_path):
        result = Simulation(scenario_from_dict(scenario_dict(seed=3))).run()
        with collector(enabled):
            _write_outputs(result, tmp_path)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_a_failing_write_still_restores_the_setting(self, enabled, tmp_path):
        result = Simulation(scenario_from_dict(scenario_dict(seed=3))).run()
        (tmp_path / "trace.log").mkdir()  # the writer cannot remove a directory
        with collector(enabled):
            with pytest.raises(OSError):
                _write_outputs(result, tmp_path)
            assert gc.isenabled() is enabled

    def test_the_collector_is_off_while_the_trace_is_encoded(self, tmp_path):
        """Lines are encoded as the writer takes them, so the collector is
        checked at every line, not only when the writer asks for them."""
        result = Simulation(scenario_from_dict(scenario_dict(seed=3))).run()
        encode = result.iter_trace_lines
        collecting = []

        def iter_trace_lines():
            for line in encode():
                collecting.append(gc.isenabled())
                yield line

        result.iter_trace_lines = iter_trace_lines
        with collector(True):
            _write_outputs(result, tmp_path)
        assert len(collecting) == len(result.trace) > 0
        assert not any(collecting)

    @pytest.mark.parametrize("frozen", [False, True])
    def test_the_callers_freeze_count_is_unchanged(self, frozen, tmp_path):
        if frozen:
            gc.freeze()
        try:
            before = gc.get_freeze_count()
            assert (before > 0) is frozen
            with collector(True):
                result = Simulation(scenario_from_dict(scenario_dict(seed=3))).run()
                assert gc.get_freeze_count() == before
                _write_outputs(result, tmp_path)
            assert gc.get_freeze_count() == before
        finally:
            gc.unfreeze()

    def test_no_collection_fires_from_the_run_through_the_write(self, tmp_path):
        """The pauses hand their survivors to the oldest generation, so the
        first allocations after a pause do not start a young-generation
        pass over everything the run built."""
        started = []

        def count(phase, info):
            if phase == "start":
                started.append(info["generation"])

        simulation = Simulation(scenario_from_dict(scenario_dict(seed=3, duration_hours=6.0)))
        with collector(True):
            gc.collect()
            gc.callbacks.append(count)
            try:
                result = simulation.run()
                _write_outputs(result, tmp_path)
            finally:
                gc.callbacks.remove(count)
        assert len(result.trace) > 700  # more than the youngest generation's threshold
        assert started == []

    @pytest.mark.parametrize("case", sorted(COLLECTOR_CASES))
    def test_a_run_leaves_no_cyclic_garbage(self, case, tmp_path):
        scenario = COLLECTOR_CASES[case]()
        with collector(False):
            gc.collect()
            simulation = Simulation(scenario)
            result = simulation.run()
            assert result.trace
            assert gc.collect() == 0
            _write_outputs(result, tmp_path)
            assert gc.collect() == 0


class TestStreamedTrace:
    """The writer writes each trace line as it is encoded, so what it holds
    does not grow with the trace."""

    def test_the_writer_never_holds_the_whole_trace(self, tmp_path):
        result = Simulation(scenario_from_dict(scenario_dict(
            seed=3, duration_hours=6.0,
            requesters=[{"count": 8, "demand_rate": 60, "query_pool": ["image"]}],
        ))).run()
        tracemalloc.start()
        try:
            _write_outputs(result, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        written = (tmp_path / "trace.log").read_bytes()
        assert peak < len(written) / 4
        assert written == "".join(line + "\n" for line in result.trace_lines()).encode("utf-8")
