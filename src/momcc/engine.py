"""Deterministic discrete-event simulation of the marketplace.

One run is a pure function of (scenario, seed). The event queue is
totally ordered by (time, sequence number); every agent draws randomness
from its own stream seeded by (scenario seed, agent id), so adding
agents never perturbs the behavior of existing ones. Latency is sampled
per message from the scenario's class ranges; messages to and from the
governor pay the governor-class delay, so discovery cost is visible.
The engine only schedules and routes: messages to the governor go to its
protocol endpoint (`governor.endpoint`), everything else to an agent.

Each message makes one hop: `_send` draws its delay and pushes one heap
entry holding a slotted `TraceRecord`, and `_on_deliver` finds the
recipient in one dict and calls its `handle`, which finds the handler in
one dict keyed by kind. No step of the hop reads an Enum class attribute
(on CPython 3.11, `EnumType.__getattr__` makes each such read cost about
200 ns): kinds are bound once at module level and compared with `is`,
and members hash by identity (`wire._WireEnum`). The heap functions are
bound at module level, `run()` keeps the queue in a local, and each
simulation binds its delivery handler once, when it is built, so a
class-level wrapper of `_on_deliver` installed before then sees every
delivery.

Two modes:

    momcc       the marketplace: mobile hosts, churn, admission, trust.
    wan_cloud   the baseline: every invocation routes to one always-on
                cloud endpoint over the WAN latency class, bypassing
                host agents entirely.

The recorded per-invocation latency is the sampled network transport
delay of the Invoke hop (the distance-to-service cost the two modes
differ in); execution time is tracked separately in reports.

A run's trace is the list of delivered messages (`wire.TraceRecord`),
in delivery order; `wire.write_trace` writes it as `trace.log`.
`paused_collector()` keeps the cyclic collector off while a run executes
and while its outputs are written.
"""
from __future__ import annotations

import gc
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Iterator

from .agents import (AggregatorAgent, DeviceAgent, HostAgent, HostAgentConfig, RequesterAgent,
                     _invoke_result)
from .domain import Outcome, ResourceVector
from .errors import NegotiationRejected, RegistrationRejected
from .governor import ServiceGovernor
from .governor.endpoint import GovernorEndpoint
from .scenario import MODE_WAN_CLOUD, Scenario, ScenarioValidationError
from .wire import MessageKind, Outbound, TraceRecord, compact_json

CLOUD_HOST_ID = "cloud-host"
GOVERNOR_ID = "governor"

# The WAN baseline's one always-on host: placed on every service
# administratively, so it never joins or browses.
_CLOUD_CONFIG = HostAgentConfig(
    capacity=ResourceVector(10**9, 10**9, 10**9, 10**9),
    battery_mwh=10**15,
    platform_os="cloud",
    platform_version="1",
)

_INVOKE = MessageKind.INVOKE
_INVOKE_RESULT = MessageKind.INVOKE_RESULT


@dataclass
class MetricsReport:
    """Everything one run measured. `data` is metrics.json's object: one
    nested dict, built once by `Simulation._build_report`, which writes
    each key once. metrics.json is `data` with sorted keys, indented;
    metrics.csv holds its flattened keys (`invocations.total`), one row
    each, in sorted order."""

    data: dict

    # `bench/run.py` checks every market pass with these three.
    @property
    def trace_violations(self) -> int:
        return self.data["trace_violations"]

    @property
    def demand_events(self) -> int:
        return self.data["demand_events"]

    @property
    def invocations_succeeded(self) -> int:
        return self.data["invocations"]["succeeded"]

    def to_json_bytes(self) -> bytes:
        return (_indented(self.data) + "\n").encode("utf-8")

    def to_csv_rows(self) -> list[list[str]]:
        return [["key", "value"]] + [[key, str(value)] for key, value in sorted(_flatten(self.data).items())]


def _flatten(obj, prefix: str = "") -> dict[str, object]:
    out: dict[str, object] = {}
    if isinstance(obj, dict):
        for key, value in obj.items():
            out.update(_flatten(value, f"{prefix}{key}."))
    elif isinstance(obj, list):
        out[prefix.rstrip(".")] = json.dumps(obj, sort_keys=True)
    else:
        out[prefix.rstrip(".")] = obj
    return out


def _indented(obj, depth: int = 0) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2)` for str-keyed objects.

    With an indent, json uses its pure-Python encoder, whose closures form
    reference cycles that only the cyclic collector frees; this builds the
    same text from the compact encoder, so writing the outputs leaves no
    cyclic garbage (see `paused_collector`).
    """
    if not obj or not isinstance(obj, (dict, list, tuple)):
        return compact_json(obj)
    inner = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{compact_json(key)}: {_indented(value, depth + 1)}" for key, value in sorted(obj.items())]
        opening, closing = "{", "}"
    else:
        items = [_indented(value, depth + 1) for value in obj]
        opening, closing = "[", "]"
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


def percentile(ordered: list[float], q: float) -> float:
    """Nearest-rank percentile over a non-empty sorted list."""
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


@contextmanager
def paused_collector():
    """Pause the cyclic collector for the block, then restore the caller's
    setting.

    A run keeps almost everything it allocates (reports, profiles, trace
    records), so each pass of the collector rescans a heap that grows
    with the run, and the first passes after the run walk all of it while
    the outputs are written. The event loop and the output writer leave
    no cyclic garbage, since reference counting frees everything they
    drop (tests/test_engine.py checks this), so those passes would find
    nothing.

    The block's survivors are then moved to the oldest generation without
    a scan (a freeze and unfreeze), so the next allocation does not start
    a young-generation pass over all of them. A caller that froze objects
    of its own is left as it is, since unfreezing would release them too.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        if collecting:
            gc.enable()


@dataclass
class SimulationResult:
    report: MetricsReport
    governor: ServiceGovernor
    trace: list[TraceRecord]
    requester_ids: tuple[str, ...]


class Simulation:
    """One seeded run; construct, call run(), read the result."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._deliver = self._on_deliver  # bound once: every send pushes it
        self._id_seq = 0
        self.latency_rng = random.Random(f"{scenario.seed}/latency")
        # latency class -> (low, high) ms, built once: read on every send.
        # In wan_cloud mode every wlan hop has the cloud host at one end,
        # and in momcc mode none does, so a wlan hop in wan_cloud mode
        # travels the WAN.
        self._ranges = {cls: scenario.latency.range_for(cls) for cls in ("wlan", "wan", "governor")}
        if scenario.baseline_mode == MODE_WAN_CLOUD:
            self._ranges["wlan"] = self._ranges["wan"]
        self.master_rng = random.Random(f"{scenario.seed}/master")
        self.governor = set_up_governor(scenario)
        self.endpoint = GovernorEndpoint(self.governor)
        self.trace: list[TraceRecord] = []
        self.latencies: list[float] = []
        self.invocations_succeeded = 0
        self.invocations_failed = 0
        self.sweep_actions: list[dict] = []
        self.devices: dict[str, DeviceAgent] = {}  # hosts, aggregators, the cloud host
        self.requesters: dict[str, RequesterAgent] = {}
        # Every recipient by id: the governor's endpoint, the devices, the requesters.
        self.agents: dict[str, GovernorEndpoint | DeviceAgent | RequesterAgent] = {
            GOVERNOR_ID: self.endpoint,
        }
        self._setup()

    # -- identifiers ------------------------------------------------------

    def next_id(self, prefix: str) -> str:
        self._id_seq += 1
        return f"{prefix}-{self._id_seq:06d}"

    def _pseudonym(self, taken: set[str]) -> str:
        while True:
            candidate = "anon-" + "".join(
                self.master_rng.choice("0123456789abcdef") for _ in range(12)
            )
            if candidate not in taken:
                taken.add(candidate)
                return candidate

    # -- setup ------------------------------------------------------------

    def _setup(self) -> None:
        """The agents, which `set_up_governor` registered, and their first events."""
        sc = self.scenario
        wan_mode = sc.baseline_mode == MODE_WAN_CLOUD
        taken_pseudonyms: set[str] = set()

        if wan_mode:
            agent = HostAgent(CLOUD_HOST_ID, _CLOUD_CONFIG, random.Random(f"{sc.seed}/cloud"),
                              self.next_id, sc.exec_ms)
            self._add_device(agent, joins=False)
            for desc in sc.services:
                agent.host_service(desc.service_id, desc.min_resources)
        else:
            for agent_id, config, rng in self._population("host", sc.hosts):
                agent = HostAgent(agent_id, config, rng, self.next_id, sc.exec_ms)
                self._add_device(agent)
                delay = agent.next_departure_delay_ms()
                if delay is not None:
                    self._schedule(delay, self._on_depart, agent_id)

            services = {d.service_id: d for d in sc.services}
            for agent_id, config, rng in self._population("agg", sc.aggregators):
                composite = services[config.composite_service_id]
                self._add_device(AggregatorAgent(
                    agent_id, config, rng, self.next_id, sc.exec_ms, composite,
                    pseudonym=self._pseudonym(taken_pseudonyms),
                    dependency_names={dep: services[dep].name for dep in composite.dependencies},
                ))

        for agent_id, config, rng in self._population("req", sc.requesters):
            agent = RequesterAgent(agent_id, config, rng, self.next_id,
                                   pseudonym=self._pseudonym(taken_pseudonyms))
            self.requesters[agent_id] = self.agents[agent_id] = agent
            delay = agent.next_demand_delay_ms()
            if delay is not None:
                self._schedule(delay, self._on_demand, agent_id)

        sweep_ms = sc.sweep_interval_hours * 3_600_000.0
        if not wan_mode:
            self._schedule(sweep_ms, self._on_sweep, sweep_ms)

    def _population(self, prefix: str, entries) -> Iterator[tuple[str, Any, random.Random]]:
        """(agent id, config, random stream) of each member of a population."""
        for agent_id, config in _members(prefix, entries):
            yield agent_id, config, random.Random(f"{self.scenario.seed}/{prefix}/{agent_id}")

    def _add_device(self, agent: DeviceAgent, joins: bool = True) -> None:
        """Add a device, and schedule its join."""
        self.devices[agent.agent_id] = self.agents[agent.agent_id] = agent
        if joins:
            self._schedule(0.0, self._on_join, agent.agent_id)

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, at: float, handler: Callable[[Any], None], arg: Any) -> None:
        """Call handler(arg) at simulated time `at`; ties fire in scheduling order."""
        self._seq += 1
        heappush(self._queue, (at, self._seq, handler, arg))

    def _send(self, sender: str, outbound: Outbound) -> None:
        """Schedule one message's delivery after its sampled transport delay
        (`_ranges`: a wlan hop to or from the cloud host travels the WAN)."""
        low, high = self._ranges[outbound.latency_class]
        # `Random.uniform(low, high)`'s own arithmetic, so the stream is
        # unchanged (a test compares the two, draw for draw).
        transport = low + (high - low) * self.latency_rng.random()
        sent_at = self.now + outbound.delay_ms
        received_at = sent_at + transport
        message = outbound.message
        if message.kind is _INVOKE:
            self.latencies.append(transport)
        self._seq += 1
        heappush(self._queue, (received_at, self._seq, self._deliver,
                               TraceRecord(sent_at, received_at, sender, outbound.to, message)))

    # -- the event loop -------------------------------------------------------

    def run(self) -> SimulationResult:
        with paused_collector():
            deadline = self.scenario.duration_ms
            queue = self._queue
            while queue:
                at, _, handler, arg = heappop(queue)
                if at > deadline:
                    continue  # drains the queue; nothing fires past the horizon
                self.now = at
                handler(arg)
            self.endpoint.flush()  # ratings still in flight at the horizon never arrive
        return SimulationResult(
            report=self._build_report(),
            governor=self.governor,
            trace=self.trace,
            requester_ids=tuple(sorted(self.requesters)),
        )

    def _on_join(self, agent_id: str) -> None:
        agent = self.devices[agent_id]
        if not agent.alive:
            return
        for outbound in agent.join(self.now):
            self._send(agent_id, outbound)

    def _on_demand(self, agent_id: str) -> None:
        agent = self.requesters[agent_id]
        for outbound in agent.on_demand(self.now):
            self._send(agent_id, outbound)
        delay = agent.next_demand_delay_ms()
        if delay is not None:
            self._schedule(self.now + delay, self._on_demand, agent_id)

    def _on_depart(self, agent_id: str) -> None:
        agent = self.devices[agent_id]
        if not agent.alive:
            return
        agent.depart()
        self.governor.hosts.mark_departed(agent_id)

    def _on_sweep(self, interval_ms: float) -> None:
        """The profiler's substitution sweep, every `interval_ms`; each
        deprecation is one entry of metrics.json's `sweeps`."""
        for action in self.governor.profiler.substitution_sweep():
            self.sweep_actions.append({
                "at_ms": round(self.now, 3),
                "deprecated": action.deprecated_id,
                "replacement": action.replacement_id,
            })
        self._schedule(self.now + interval_ms, self._on_sweep, interval_ms)

    def _on_deliver(self, record: TraceRecord) -> None:
        self.trace.append(record)
        recipient = record.recipient
        msg = record.message

        if msg.kind is _INVOKE_RESULT:
            if msg.payload.get("ok"):
                self.invocations_succeeded += 1
            else:
                self.invocations_failed += 1

        agent = self.agents.get(recipient)
        if agent is None:
            return
        device = recipient in self.devices
        if device and not agent.alive:
            if msg.kind is _INVOKE:
                self._bounce_invoke(record)
            return
        for outbound in agent.handle(msg, record.sender, self.now):
            self._send(recipient, outbound)
        if device and agent.alive and agent.battery_exhausted:
            self._on_depart(recipient)

    def _bounce_invoke(self, record: TraceRecord) -> None:
        # Transport-level failure reply for a departed endpoint.
        message = record.message
        reply = _invoke_result(message.correlation_id, message.payload["service_id"],
                               Outcome.failure("host_unreachable"))
        self._send(record.recipient, Outbound(record.sender, "wlan", reply))

    # -- reporting ---------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        governor = self.governor
        demand = sum(r.demand_events for r in self.requesters.values())
        unavailable = sum(r.unavailable_events for r in self.requesters.values())

        trust_levels = {"none": 0, "Low": 0, "Medium": 0, "High": 0}
        for profile in governor.host_db.hosts.values():
            certificate = profile.certificate
            trust_levels["none" if certificate is None else certificate.level.label] += 1

        confirmed = sum(1 for d in governor.hosts.decisions if d.confirmed)
        latencies = self.latencies
        # Sorted once for both percentiles; the mean sums in send order,
        # as float addition's rounding depends on the order.
        ordered = sorted(latencies)

        return MetricsReport({
            "format_version": 1,
            "mode": self.scenario.baseline_mode,
            "seed": self.scenario.seed,
            "duration_hours": self.scenario.duration_hours,
            "demand_events": demand,
            "unavailable_events": unavailable,
            "availability": "no demand" if demand == 0 else round((demand - unavailable) / demand, 6),
            "invocations": {
                "total": len(latencies),
                "succeeded": self.invocations_succeeded,
                "failed": self.invocations_failed,
            },
            "latency_ms": {
                "mean": round(sum(latencies) / len(latencies), 3),
                "p50": round(percentile(ordered, 0.50), 3),
                "p95": round(percentile(ordered, 0.95), 3),
            } if latencies else None,
            "energy_mwh": sum(r.energy_used_mwh for r in governor.host_db.reports),
            "revenue": governor.billing.class_revenue(),
            "trust_levels": trust_levels,
            "allocations": {
                "confirmed": confirmed,
                "denied": len(governor.hosts.decisions) - confirmed,
            },
            "trace_violations": governor.hosts.count_trace_violations(),
            "sweeps": self.sweep_actions,
            "escalations": len(governor.profiler.escalations),
        })


def _members(prefix: str, entries) -> list[tuple[str, Any]]:
    """(agent id, config) of each member of a population, numbered from 0
    across its entries."""
    configs = [entry.config for entry in entries for _ in range(entry.count)]
    return [(f"{prefix}-{index:03d}", config) for index, config in enumerate(configs)]


# The field of a scenario's service that each registration refusal the
# set-up can meet is about: negotiation refuses a share first.
_REFUSED_FIELD = {"duplicate": "service_id", "footprint": "min_resources", "dependency": "dependencies"}


def set_up_governor(scenario: Scenario) -> ServiceGovernor:
    """The governor a run of `scenario` starts from, where a scenario
    meets the governor's rules: each service's developer negotiated and
    the service registered, in file order, then the hosts and the
    aggregators, or in wan_cloud mode the cloud host, preprovisioned with
    every service. A refusal is a diagnostic worded as the refusal, and
    the set-up goes on; `ScenarioValidationError` carries them all."""
    governor = ServiceGovernor(scenario.governor_config)
    diagnostics: list[str] = []
    registered: list[str] = []
    for i, desc in enumerate(scenario.services):
        try:
            governor.billing.negotiate_developer(desc.developer_id, desc.price_per_invocation,
                                                 desc.developer_share)
            registered.append(governor.registry.register_service(desc))
        except NegotiationRejected as exc:
            diagnostics.append(f"/services/{i}/developer_share: {exc}")
        except RegistrationRejected as exc:
            diagnostics.append(f"/services/{i}/{_REFUSED_FIELD[exc.reason]}: {exc}")
    wan_mode = scenario.baseline_mode == MODE_WAN_CLOUD
    if wan_mode:
        devices = [(CLOUD_HOST_ID, _CLOUD_CONFIG)]
    else:
        devices = _members("host", scenario.hosts) + _members("agg", scenario.aggregators)
    for host_id, config in devices:
        governor.hosts.register_host(host_id, config.platform_os, config.platform_version,
                                     config.capacity, config.battery_mwh)
    if wan_mode:
        try:
            governor.preprovision_host(CLOUD_HOST_ID, registered, identity_verified=True)
        except ValueError as exc:
            diagnostics.append(f"/services: the wan_cloud host {CLOUD_HOST_ID!r} "
                               f"of capacity {_CLOUD_CONFIG.capacity.as_dict()}: {exc}")
    if diagnostics:
        raise ScenarioValidationError(diagnostics)
    return governor


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Build and run one simulation."""
    return Simulation(scenario).run()
