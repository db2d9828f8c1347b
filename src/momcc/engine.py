"""Deterministic discrete-event simulation of the marketplace.

One run is a pure function of (scenario, seed). The event queue is
totally ordered by (time, sequence number); every agent draws randomness
from its own stream seeded by (scenario seed, agent id), so adding
agents never perturbs the behavior of existing ones. Latency is sampled
per message from the scenario's class ranges; messages to and from the
governor pay the governor-class delay, so discovery cost is visible.
The engine only schedules and routes: messages to the governor go to its
protocol endpoint (`governor.endpoint`), everything else to an agent.

Two modes:

    momcc       the marketplace: mobile hosts, churn, admission, trust.
    wan_cloud   the baseline: every invocation routes to one always-on
                cloud endpoint over the WAN latency class, bypassing
                host agents entirely.

The recorded per-invocation latency is the sampled network transport
delay of the Invoke hop (the distance-to-service cost the two modes
differ in); execution time is tracked separately in reports.

A run's trace is written one JSON line per delivered message
(`TraceRecord.to_line`). Lines are built directly in sorted key order.
The shared per-service dicts that discovery and listing replies carry,
the shared host lists of discovery replies, and the one payload that
repeated discovery answers share are encoded once per
`iter_trace_lines()` pass and spliced into every line that names them.
The pass yields one line at a time, so a writer holds one line of the
trace, never all of it; the trace records themselves stay in memory.
`paused_collector()` keeps the cyclic collector off while a run
executes and while its outputs are written.
"""
from __future__ import annotations

import gc
import heapq
import json
import math
import random
from contextlib import contextmanager
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Any, Callable, Iterator

from .agents import AggregatorAgent, DeviceAgent, HostAgent, HostAgentConfig, RequesterAgent
from .domain import ResourceVector
from .governor import ServiceGovernor
from .governor.endpoint import GovernorEndpoint
from .scenario import MODE_WAN_CLOUD, Scenario
from .wire import MessageKind, Outbound, ProtocolMessage, Role

CLOUD_HOST_ID = "cloud-host"
GOVERNOR_ID = "governor"

_CLOUD_CAPACITY = ResourceVector(10**9, 10**9, 10**9, 10**9)
_CLOUD_BATTERY = 10**15

# json.dumps(..., sort_keys=True, separators=(",", ":")) builds a new
# encoder on every call; this one is built once.
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


@dataclass
class MetricsReport:
    """Everything one run measured, serializable byte-identically."""

    format_version: int
    mode: str
    seed: int
    duration_hours: float
    demand_events: int
    unavailable_events: int
    availability: float | None
    invocations_total: int
    invocations_succeeded: int
    invocations_failed: int
    latency_mean_ms: float | None
    latency_p50_ms: float | None
    latency_p95_ms: float | None
    energy_mwh: int
    revenue: dict[str, int]
    trust_levels: dict[str, int]
    allocations_confirmed: int
    allocations_denied: int
    trace_violations: int
    sweeps: list[dict]
    escalations: int

    def to_json_dict(self) -> dict:
        availability: float | str | None = self.availability
        if self.demand_events == 0:
            availability = "no demand"
        return {
            "format_version": self.format_version,
            "mode": self.mode,
            "seed": self.seed,
            "duration_hours": self.duration_hours,
            "demand_events": self.demand_events,
            "unavailable_events": self.unavailable_events,
            "availability": availability,
            "invocations": {
                "total": self.invocations_total,
                "succeeded": self.invocations_succeeded,
                "failed": self.invocations_failed,
            },
            "latency_ms": (
                None
                if self.latency_mean_ms is None
                else {
                    "mean": self.latency_mean_ms,
                    "p50": self.latency_p50_ms,
                    "p95": self.latency_p95_ms,
                }
            ),
            "energy_mwh": self.energy_mwh,
            "revenue": self.revenue,
            "trust_levels": self.trust_levels,
            "allocations": {
                "confirmed": self.allocations_confirmed,
                "denied": self.allocations_denied,
            },
            "trace_violations": self.trace_violations,
            "sweeps": self.sweeps,
            "escalations": self.escalations,
        }

    def to_json_bytes(self) -> bytes:
        return (_indented(self.to_json_dict()) + "\n").encode("utf-8")

    def to_csv_rows(self) -> list[list[str]]:
        flat = _flatten(self.to_json_dict())
        rows = [["key", "value"]]
        for key in sorted(flat):
            rows.append([key, str(flat[key])])
        return rows


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
        return _COMPACT(obj)
    inner = "\n" + "  " * (depth + 1)
    if isinstance(obj, dict):
        items = [f"{_COMPACT(key)}: {_indented(value, depth + 1)}" for key, value in sorted(obj.items())]
        opening, closing = "{", "}"
    else:
        items = [_indented(value, depth + 1) for value in obj]
        opening, closing = "[", "]"
    return opening + inner + ("," + inner).join(items) + "\n" + "  " * depth + closing


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile over a non-empty list."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


@dataclass
class TraceRecord:
    sent_at: float
    received_at: float
    sender: str
    recipient: str
    message: ProtocolMessage

    def to_line(self, memo: dict[int, tuple[Any, str]] | None = None) -> str:
        """The message's envelope plus routing keys (`from`, `to`) and
        send/receive times (`ts`, `tr`, in ms to 3 places), as one JSON
        object with sorted keys and no spaces.

        The line is built directly in sorted key order. The shared
        per-service dicts of discovery and listing replies are encoded
        once per `memo` (see `_payload_json`).
        """
        msg = self.message
        return (
            f'{{"correlation_id":{encode_basestring_ascii(msg.correlation_id)}'
            f',"from":{encode_basestring_ascii(self.sender)}'
            f',"kind":{encode_basestring_ascii(msg.kind.value)}'
            f',"payload":{_payload_json(msg, {} if memo is None else memo)}'
            f',"sender_role":{encode_basestring_ascii(msg.sender_role.value)}'
            f',"to":{encode_basestring_ascii(self.recipient)}'
            f',"tr":{round(self.received_at, 3)!r}'
            f',"ts":{round(self.sent_at, 3)!r}}}'
        )


_RESULT_KEYS = {"hosts", "service"}


def _sole_list(payload: dict, key: str) -> bool:
    """Whether `key`, holding a list, is the payload's only key."""
    return len(payload) == 1 and type(payload.get(key)) in (list, tuple)


def _payload_json(msg: ProtocolMessage, memo: dict[int, tuple[Any, str]]) -> str:
    """A payload's compact JSON. Discovery and listing replies carry the
    registry's shared per-service dicts (`ServiceRegistry.listing_dict`,
    `wire_dict`) and discovery replies the host database's kept holder
    lists (`HostDatabase.ranked_hosts`); a repeated discovery answer is
    one shared payload (`GovernorEndpoint`). Each is encoded once per
    memo: the memo keys by `id()` and holds the object itself, so no id
    is reused while it lives."""
    payload = msg.payload
    kind = msg.kind
    if kind == MessageKind.DISCOVERY_REPLY:
        return _shared_json(payload, memo, _discovery_json)
    if kind == MessageKind.LIST_SERVICES_REPLY and _sole_list(payload, "services"):
        services = ",".join(_shared_json(raw, memo) for raw in payload["services"])
        return f'{{"services":[{services}]}}'
    return _COMPACT(payload)


def _discovery_json(payload: dict, memo: dict[int, tuple[Any, str]]) -> str:
    if not _sole_list(payload, "results"):
        return _COMPACT(payload)
    entries = ",".join(
        f'{{"hosts":{_shared_json(entry["hosts"], memo)},"service":{_shared_json(entry["service"], memo)}}}'
        if type(entry) is dict and entry.keys() == _RESULT_KEYS else _COMPACT(entry)
        for entry in payload["results"]
    )
    return f'{{"results":[{entries}]}}'


def _shared_json(obj: Any, memo: dict[int, tuple[Any, str]],
                 encode: Callable[[Any, dict], str] | None = None) -> str:
    """`obj`'s compact JSON, or `encode(obj, memo)`, kept in `memo` for `obj`."""
    hit = memo.get(id(obj))
    if hit is not None and hit[0] is obj:
        return hit[1]
    text = _COMPACT(obj) if encode is None else encode(obj, memo)
    memo[id(obj)] = (obj, text)
    return text


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
    host_assessments: list

    def iter_trace_lines(self) -> Iterator[str]:
        """The trace's lines in order, each encoded as it is taken, with
        one memo for the whole pass."""
        memo: dict[int, tuple[Any, str]] = {}
        for record in self.trace:
            yield record.to_line(memo)

    def trace_lines(self) -> list[str]:
        return list(self.iter_trace_lines())


class Simulation:
    """One seeded run; construct, call run(), read the result."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._seq = 0
        self._id_seq = 0
        self.latency_rng = random.Random(f"{scenario.seed}/latency")
        self.master_rng = random.Random(f"{scenario.seed}/master")
        self.governor = ServiceGovernor(scenario.governor_config)
        self.endpoint = GovernorEndpoint(self.governor)
        self.trace: list[TraceRecord] = []
        self.latencies: list[float] = []
        self.invocations_total = 0
        self.invocations_succeeded = 0
        self.invocations_failed = 0
        self.sweep_actions: list[dict] = []
        self.host_assessments: list = []  # latest periodic efficiency scores
        self.devices: dict[str, DeviceAgent] = {}  # hosts, aggregators, the cloud host
        self.requesters: dict[str, RequesterAgent] = {}
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
        sc = self.scenario
        wan_mode = sc.baseline_mode == MODE_WAN_CLOUD

        for desc in sc.services:
            self.governor.billing.negotiate_developer(
                desc.developer_id, desc.price_per_invocation, desc.developer_share
            )
            self.governor.registry.register_service(desc)

        taken_pseudonyms: set[str] = set()

        if wan_mode:
            self._setup_cloud()
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
            self.requesters[agent_id] = agent
            delay = agent.next_demand_delay_ms()
            if delay is not None:
                self._schedule(delay, self._on_demand, agent_id)

        sweep_ms = sc.sweep_interval_hours * 3_600_000.0
        if not wan_mode:
            self._schedule(sweep_ms, self._on_sweep, sweep_ms)

    def _population(self, prefix: str, entries) -> Iterator[tuple[str, Any, random.Random]]:
        """(agent id, config, random stream) of each member of a population,
        numbered from 0 across its entries."""
        configs = [entry.config for entry in entries for _ in range(entry.count)]
        for index, config in enumerate(configs):
            agent_id = f"{prefix}-{index:03d}"
            yield agent_id, config, random.Random(f"{self.scenario.seed}/{prefix}/{agent_id}")

    def _add_device(self, agent: DeviceAgent, joins: bool = True) -> None:
        """Register a device with the governor and schedule its join."""
        config = agent.config
        self.devices[agent.agent_id] = agent
        self.governor.hosts.register_host(
            agent.agent_id, config.platform_os, config.platform_version,
            config.capacity, config.battery_mwh,
        )
        if joins:
            self._schedule(0.0, self._on_join, agent.agent_id)

    def _setup_cloud(self) -> None:
        """The WAN baseline's one always-on host: placed on every service
        administratively, so it never joins or browses."""
        sc = self.scenario
        config = HostAgentConfig(
            capacity=_CLOUD_CAPACITY,
            battery_mwh=_CLOUD_BATTERY,
            platform_os="cloud",
            platform_version="1",
        )
        agent = HostAgent(CLOUD_HOST_ID, config, random.Random(f"{sc.seed}/cloud"),
                          self.next_id, sc.exec_ms)
        self._add_device(agent, joins=False)
        service_ids = [d.service_id for d in sc.services]
        self.governor.preprovision_host(CLOUD_HOST_ID, service_ids, identity_verified=True)
        for desc in sc.services:
            agent.hosted[desc.service_id] = desc

    # -- scheduling ---------------------------------------------------------

    def _schedule(self, at: float, handler: Callable[[Any], None], arg: Any) -> None:
        """Call handler(arg) at simulated time `at`; ties fire in scheduling order."""
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, handler, arg))

    def _latency_class(self, sender: str, recipient: str, requested: str) -> str:
        if requested == "wlan" and CLOUD_HOST_ID in (sender, recipient):
            return "wan"
        return requested

    def _send(self, sender: str, outbound: Outbound) -> None:
        cls = self._latency_class(sender, outbound.to, outbound.latency_class)
        low, high = self.scenario.latency.range_for(cls)
        transport = self.latency_rng.uniform(low, high)
        sent_at = self.now + outbound.delay_ms
        received_at = sent_at + transport
        if outbound.message.kind == MessageKind.INVOKE:
            self.invocations_total += 1
            self.latencies.append(transport)
        self._schedule(
            received_at,
            self._on_deliver,
            TraceRecord(sent_at, received_at, sender, outbound.to, outbound.message),
        )

    # -- the event loop -------------------------------------------------------

    def run(self) -> SimulationResult:
        with paused_collector():
            deadline = self.scenario.duration_ms
            while self._queue:
                at, _, handler, arg = heapq.heappop(self._queue)
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
            host_assessments=self.host_assessments,
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
        for action in self.governor.profiler.substitution_sweep():
            self.sweep_actions.append({
                "at_ms": round(self.now, 3),
                "deprecated": action.deprecated_id,
                "replacement": action.replacement_id,
            })
        # The periodic efficiency assessment rides the same cadence.
        self.host_assessments = self.governor.hosts.assess_hosts(
            self.scenario.governor_config.profiler_policy.window
        )
        self._schedule(self.now + interval_ms, self._on_sweep, interval_ms)

    def _on_deliver(self, record: TraceRecord) -> None:
        self.trace.append(record)
        recipient = record.recipient
        msg = record.message

        if msg.kind == MessageKind.INVOKE_RESULT:
            if msg.payload.get("ok"):
                self.invocations_succeeded += 1
            else:
                self.invocations_failed += 1

        if recipient == GOVERNOR_ID:
            for outbound in self.endpoint.handle(msg, record.sender, self.now):
                self._send(GOVERNOR_ID, outbound)
            return

        agent = self.devices.get(recipient) or self.requesters.get(recipient)
        if agent is None:
            return
        device = isinstance(agent, DeviceAgent)
        if device and not agent.alive:
            if msg.kind == MessageKind.INVOKE:
                self._bounce_invoke(record)
            return
        for outbound in agent.handle(msg, record.sender, self.now):
            self._send(recipient, outbound)
        if device and agent.alive and agent.battery_exhausted:
            self._on_depart(recipient)

    def _bounce_invoke(self, record: TraceRecord) -> None:
        # Transport-level failure reply for a departed endpoint.
        reply = ProtocolMessage(
            kind=MessageKind.INVOKE_RESULT,
            sender_role=Role.HOST,
            correlation_id=record.message.correlation_id,
            payload={
                "service_id": record.message.payload["service_id"],
                "ok": False,
                "reason": "host_unreachable",
            },
        )
        self._send(record.recipient, Outbound(to=record.sender, latency_class="wlan", message=reply))

    # -- reporting ---------------------------------------------------------

    def _build_report(self) -> MetricsReport:
        demand = sum(r.demand_events for r in self.requesters.values())
        unavailable = sum(r.unavailable_events for r in self.requesters.values())
        availability = None if demand == 0 else (demand - unavailable) / demand

        trust_levels = {"none": 0, "Low": 0, "Medium": 0, "High": 0}
        for profile in self.governor.host_db.hosts.values():
            if profile.certificate is None:
                trust_levels["none"] += 1
            else:
                trust_levels[profile.certificate.level.label] += 1

        confirmed = sum(1 for d in self.governor.hosts.decisions if d.confirmed)
        denied = len(self.governor.hosts.decisions) - confirmed

        return MetricsReport(
            format_version=1,
            mode=self.scenario.baseline_mode,
            seed=self.scenario.seed,
            duration_hours=self.scenario.duration_hours,
            demand_events=demand,
            unavailable_events=unavailable,
            availability=None if availability is None else round(availability, 6),
            invocations_total=self.invocations_total,
            invocations_succeeded=self.invocations_succeeded,
            invocations_failed=self.invocations_failed,
            latency_mean_ms=(
                round(sum(self.latencies) / len(self.latencies), 3) if self.latencies else None
            ),
            latency_p50_ms=round(percentile(self.latencies, 0.50), 3) if self.latencies else None,
            latency_p95_ms=round(percentile(self.latencies, 0.95), 3) if self.latencies else None,
            energy_mwh=sum(r.energy_used_mwh for r in self.governor.host_db.reports),
            revenue=self.governor.billing.class_revenue(),
            trust_levels=trust_levels,
            allocations_confirmed=confirmed,
            allocations_denied=denied,
            trace_violations=self.governor.hosts.count_trace_violations(),
            sweeps=self.sweep_actions,
            escalations=len(self.governor.profiler.escalations),
        )


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Build and run one simulation; the only public entry point."""
    return Simulation(scenario).run()
