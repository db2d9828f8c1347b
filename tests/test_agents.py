"""Agent strategies and protocol behavior, standalone and in small runs."""
import random

from conftest import composite_scenario, make_service, scenario_dict
from momcc.agents import (
    HostAgent,
    HostAgentConfig,
    RequesterAgent,
    RequesterAgentConfig,
    select_services,
)
from momcc.domain import ResourceVector
from momcc.engine import run_scenario
from momcc.governor.registry import service_to_dict
from momcc.scenario import Scenario, scenario_from_dict
from momcc.wire import MessageKind, ProtocolMessage, Role


def ids(prefix="t"):
    counter = iter(range(1, 10_000))
    return lambda p: f"{p}-{next(counter):04d}"


EXEC_MS = Scenario.exec_ms  # the scenario default the engine passes

HOST_CONFIG = HostAgentConfig(
    capacity=ResourceVector(2048, 32, 64, 2000),
    battery_mwh=1000,
    platform_os="Android",
    platform_version="4.0",
    greediness="max_revenue",
    failure_prob=0.0,
)


class TestSelection:
    def test_max_revenue_takes_offer_order(self):
        """The governor sorts by host revenue; 4.00 ranks before 2.00."""
        rich = make_service(service_id="rich", price=1000, developer_share=0.4)   # host 4.00
        poor = make_service(service_id="poor", price=1000, developer_share=0.6)   # host 2.00
        offered = [service_to_dict(rich), service_to_dict(poor)]  # revenue-sorted, as the governor sends it
        free = ResourceVector(512, 2, 5, 500)  # room for exactly one
        chosen = select_services(offered, free, "max_revenue", random.Random(0))
        assert [d["service_id"] for d in chosen] == ["rich"]

    def test_min_energy_sorts_by_energy_need(self):
        thirsty = make_service(service_id="thirsty",
                               min_resources=ResourceVector(100, 1, 1, 900))
        frugal = make_service(service_id="frugal",
                              min_resources=ResourceVector(100, 1, 1, 100))
        chosen = select_services([service_to_dict(thirsty), service_to_dict(frugal)],
                                 ResourceVector(200, 2, 2, 950), "min_energy", random.Random(0))
        assert [d["service_id"] for d in chosen] == ["frugal"]

    def test_greedy_fit_never_overcommits(self):
        rng = random.Random(2)
        for _ in range(200):
            offered = [
                service_to_dict(make_service(
                    service_id=f"s{i}",
                    min_resources=ResourceVector(
                        rng.randint(0, 900), rng.randint(0, 20),
                        rng.randint(0, 30), rng.randint(0, 800),
                    ),
                ))
                for i in range(8)
            ]
            free = ResourceVector(rng.randint(0, 2048), rng.randint(0, 32),
                                  rng.randint(0, 64), rng.randint(0, 1500))
            chosen = select_services(offered, free, rng.choice(["max_revenue", "min_energy", "random"]), rng)
            total = ResourceVector(0, 0, 0, 0)
            for desc in chosen:
                total = total.plus(ResourceVector(**desc["min_resources"]))
            assert free.covers(total)

    def test_composites_skipped_by_plain_hosts(self):
        composite = make_service(service_id="combo", dependencies=("leaf",))
        chosen = select_services([service_to_dict(composite)], ResourceVector(2048, 32, 64, 2000),
                                 "max_revenue", random.Random(0))
        assert chosen == []


def invoke_message(next_id, service_id="svc-resize"):
    return ProtocolMessage(
        kind=MessageKind.INVOKE,
        sender_role=Role.REQUESTER,
        correlation_id=next_id("inv"),
        payload={"service_id": service_id, "requester_pseudonym": "anon-77"},
    )


class TestHostExecution:
    def host_with_service(self, battery=1000):
        config = HostAgentConfig(
            capacity=ResourceVector(2048, 32, 64, 2000),
            battery_mwh=battery,
            platform_os="Android",
            platform_version="4.0",
            failure_prob=0.0,
        )
        agent = HostAgent("host-000", config, random.Random("x"), ids(), EXEC_MS)
        agent.hosted["svc-resize"] = make_service()  # needs 500 mWh
        return agent

    def test_execution_consumes_energy_and_reports(self):
        agent = self.host_with_service(battery=1000)
        out = agent.handle(invoke_message(agent.next_id), "req-000", 5.0)
        kinds = [o.message.kind for o in out]
        assert kinds == [MessageKind.INVOKE_RESULT, MessageKind.EXECUTION_REPORT]
        assert out[0].message.payload["ok"] is True
        assert agent.battery == 500

    def test_battery_below_need_refuses_with_energy_failure_report(self):
        agent = self.host_with_service(battery=499)
        out = agent.handle(invoke_message(agent.next_id), "req-000", 5.0)
        result, report = out[0].message, out[1].message
        assert result.payload == {"service_id": "svc-resize", "ok": False, "reason": "energy"}
        assert report.payload["failure_reason"] == "energy"
        assert report.payload["energy_used_mwh"] == 0
        assert agent.battery == 499  # refusal consumes nothing

    def test_departed_host_emits_nothing_forever(self):
        agent = self.host_with_service()
        agent.depart()
        assert agent.handle(invoke_message(agent.next_id), "req-000", 5.0) == []
        assert agent.join(6.0) == []
        assert agent.handle(invoke_message(agent.next_id), "req-000", 7.0) == []

    def test_depart_releases_everything(self):
        agent = self.host_with_service()
        released = agent.depart()
        assert released == ["svc-resize"]
        assert not agent.alive

    def test_battery_exhaustion_flag(self):
        agent = self.host_with_service(battery=1000)
        assert not agent.battery_exhausted
        agent.handle(invoke_message(agent.next_id), "req-000", 1.0)  # 500 left
        assert not agent.battery_exhausted
        agent.handle(invoke_message(agent.next_id), "req-000", 2.0)  # 0 left
        assert agent.battery_exhausted


class TestRequesterProtocol:
    def requester(self, rating_prob=1.0):
        config = RequesterAgentConfig(
            demand_rate=10, query_pool=("image",), rating_prob=rating_prob
        )
        return RequesterAgent("req-000", config, random.Random("r"), ids(), "anon-77")

    def discovery_reply(self, hosts):
        return ProtocolMessage(
            kind=MessageKind.DISCOVERY_REPLY,
            sender_role=Role.GOVERNOR,
            correlation_id="disc-1",
            payload={"results": [{"service": {"service_id": "svc-resize"}, "hosts": hosts}]},
        )

    def test_nonempty_discovery_yields_exactly_one_invoke(self):
        agent = self.requester()
        out = agent.handle(self.discovery_reply(["host-002", "host-001"]), "governor", 1.0)
        assert [o.message.kind for o in out] == [MessageKind.INVOKE]
        assert out[0].to == "host-002"  # first-ranked host

    def test_empty_discovery_counts_unavailability(self):
        agent = self.requester()
        out = agent.handle(self.discovery_reply([]), "governor", 1.0)
        assert out == []
        assert agent.unavailable_events == 1

    def test_rating_only_follows_success(self):
        agent = self.requester()
        ok = ProtocolMessage(
            kind=MessageKind.INVOKE_RESULT, sender_role=Role.HOST,
            correlation_id="inv-1", payload={"service_id": "svc-resize", "ok": True},
        )
        fail = ProtocolMessage(
            kind=MessageKind.INVOKE_RESULT, sender_role=Role.HOST,
            correlation_id="inv-2", payload={"service_id": "svc-resize", "ok": False, "reason": "fault"},
        )
        assert [o.message.kind for o in agent.handle(ok, "host-001", 2.0)] == [MessageKind.RATE_SERVICE]
        assert agent.handle(fail, "host-001", 2.0) == []

    def test_declined_rating_still_sends_null_vote(self):
        agent = self.requester(rating_prob=0.0)
        ok = ProtocolMessage(
            kind=MessageKind.INVOKE_RESULT, sender_role=Role.HOST,
            correlation_id="inv-1", payload={"service_id": "svc-resize", "ok": True},
        )
        (out,) = agent.handle(ok, "host-001", 2.0)
        assert out.message.kind == MessageKind.RATE_SERVICE
        assert out.message.payload["rating"] is None


class TestAggregation:
    def test_healthy_chain_bills_every_link(self):
        """A 2-dependency composite produces 3 ledger entries per invocation."""
        result = run_scenario(scenario_from_dict(composite_scenario()))
        entries = result.governor.billing.audit()
        by_service = {}
        for report in result.governor.host_db.reports:
            if report.outcome.ok:
                by_service[report.service_id] = by_service.get(report.service_id, 0) + 1
        combos = by_service.get("svc-combo", 0)
        assert combos > 0
        # Each successful composite drove one svc-a and one svc-b execution.
        assert by_service.get("svc-a", 0) >= combos
        assert by_service.get("svc-b", 0) >= combos
        assert len(entries) == sum(by_service.values())
        assert len(entries) % 3 == 0

    def test_failing_dependency_fails_composite_unbilled(self):
        result = run_scenario(scenario_from_dict(composite_scenario(dep_b_failure=1.0)))
        reports = result.governor.host_db.reports
        combo_reports = [r for r in reports if r.service_id == "svc-combo"]
        assert combo_reports
        assert all(not r.outcome.ok for r in combo_reports)
        assert all(r.outcome.reason == "dependency" for r in combo_reports)
        # No composite invocation was ever metered.
        metered_services = {
            r.service_id
            for r in reports
            if result.governor.billing.already_metered(r.report_id)
        }
        assert "svc-combo" not in metered_services

    def test_zero_dependency_composite_is_ordinary_service(self):
        """Leaf services flow through the plain host path untouched."""
        data = scenario_dict(seed=3, duration_hours=0.5)
        result = run_scenario(scenario_from_dict(data))
        assert result.report.invocations_total > 0
        assert result.governor.check_invariants() == []

    def test_parallel_mode_fans_out_dependency_discoveries_together(self):
        """Sequential mode staggers dependency lookups; parallel sends them
        in the same instant."""
        def discovery_send_times(parallel):
            result = run_scenario(
                scenario_from_dict(composite_scenario(parallel=parallel))
            )
            per_burst = {}
            for record in result.trace:
                if (record.message.kind == MessageKind.DISCOVERY_QUERY
                        and record.sender.startswith("agg-")):
                    per_burst.setdefault(round(record.sent_at, 6), 0)
                    per_burst[round(record.sent_at, 6)] += 1
            return per_burst

        parallel_bursts = discovery_send_times(parallel=True)
        assert parallel_bursts
        assert all(count == 2 for count in parallel_bursts.values())
        sequential_bursts = discovery_send_times(parallel=False)
        assert sequential_bursts
        assert all(count == 1 for count in sequential_bursts.values())

    def test_parallel_chain_bills_every_link_and_conserves(self):
        result = run_scenario(scenario_from_dict(composite_scenario(parallel=True)))
        ok_combo = [
            r for r in result.governor.host_db.reports
            if r.service_id == "svc-combo" and r.outcome.ok
        ]
        assert ok_combo
        assert len(result.governor.billing.audit()) % 3 == 0
        assert result.governor.check_invariants() == []

    def test_parallel_failing_dependency_fails_composite_once(self):
        result = run_scenario(
            scenario_from_dict(composite_scenario(dep_b_failure=1.0, parallel=True))
        )
        combo_reports = [
            r for r in result.governor.host_db.reports if r.service_id == "svc-combo"
        ]
        assert combo_reports
        assert all(not r.outcome.ok for r in combo_reports)
        # Each composite invocation produced exactly one (failed) report.
        assert len({r.report_id for r in combo_reports}) == len(combo_reports)
        assert result.governor.check_invariants() == []

    def test_drained_aggregator_retires_like_a_drained_host(self):
        """Two composite steps fit in the battery; then the aggregator
        leaves instead of staying ranked and paying for dependencies
        whose composite can no longer run."""
        data = composite_scenario()
        data["aggregators"][0]["battery_mwh"] = 250  # the composite step needs 100
        data["requesters"][0]["demand_rate"] = 20
        result = run_scenario(scenario_from_dict(data))
        governor = result.governor
        agg_reports = [r for r in governor.host_db.reports if r.host_id == "agg-000"]
        assert [r.outcome.reason for r in agg_reports] == [None, None]
        assert governor.host_db.ranked_hosts("svc-combo") == []
        assert not governor.host_db.hosts["agg-000"].alive
        assert governor.check_invariants() == []
