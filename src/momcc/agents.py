"""Simulated marketplace actors: hosts, requesters, and aggregators.

Agents are single-threaded state machines driven by the engine. They
communicate only through protocol messages; an agent never touches
governor state directly. Every random draw an agent makes comes from its
own seeded stream, so one agent's behavior does not depend on how many
others are in the scenario.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .domain import Outcome, ResourceVector, ServiceDescription
from .wire import MessageKind, Outbound, ProtocolMessage, Role

GREEDINESS_STRATEGIES = ("max_revenue", "min_energy", "random")


@dataclass(frozen=True)
class HostAgentConfig:
    """One host population's settings; ranges are checked by `validate_scenario`."""

    capacity: ResourceVector
    battery_mwh: int
    platform_os: str
    platform_version: str
    greediness: str = "max_revenue"
    departure_rate: float = 0.0  # churn events per hour
    failure_prob: float = 0.0
    identity_verified: bool = False


@dataclass(frozen=True)
class RequesterAgentConfig:
    """One requester population's settings; ranges are checked by `validate_scenario`."""

    demand_rate: float  # invocations per hour
    query_pool: tuple[str, ...]
    rating_bias: tuple[float, float, float, float, float] = (0.05, 0.05, 0.1, 0.3, 0.5)
    rating_prob: float = 1.0


@dataclass(frozen=True)
class AggregatorConfig:
    """An aggregator hosts one composite service and consumes its parts.

    Dependencies run sequentially by default; `parallel_dependencies`
    fans out every dependency at once instead.
    """

    composite_service_id: str
    capacity: ResourceVector
    battery_mwh: int
    platform_os: str
    platform_version: str
    failure_prob: float = 0.0
    identity_verified: bool = False
    parallel_dependencies: bool = False


def select_services(offered: list[ServiceDescription], free: ResourceVector,
                    strategy: str, rng: random.Random) -> list[ServiceDescription]:
    """Greedy-fit selection over an offer list, per greediness strategy.

    Composites are skipped (plain hosts cannot drive dependency chains),
    and a service is taken only while the remaining free resources cover
    it, mirroring the governor's own admission check.
    """
    candidates = [d for d in offered if not d.is_composite]
    if strategy == "min_energy":
        candidates.sort(key=lambda d: (d.min_resources.energy, d.service_id))
    elif strategy == "random":
        rng.shuffle(candidates)
    # max_revenue keeps the governor's revenue-sorted order.
    chosen = []
    remaining = free
    for desc in candidates:
        if remaining.covers(desc.min_resources):
            chosen.append(desc)
            remaining = remaining.minus(desc.min_resources)
    return chosen


class HostAgent:
    """A mobile device leasing its resources: browse, host, execute, churn."""

    def __init__(self, agent_id: str, config: HostAgentConfig, rng: random.Random,
                 next_id, exec_ms: tuple[float, float] = (5.0, 25.0)):
        self.agent_id = agent_id
        self.config = config
        self.rng = rng
        self.next_id = next_id
        self.exec_ms = exec_ms
        self.alive = True
        self.battery = config.battery_mwh
        self.hosted: dict[str, ServiceDescription] = {}
        self.free = config.capacity
        self._pending: dict[str, ServiceDescription] = {}

    # -- lifecycle ------------------------------------------------------

    def join(self, now: float) -> list[Outbound]:
        """Browse the catalog once on arrival."""
        if not self.alive:
            return []
        msg = ProtocolMessage(
            kind=MessageKind.LIST_SERVICES_REQUEST,
            sender_role=Role.HOST,
            correlation_id=self.next_id("list"),
            payload={
                "host_id": self.agent_id,
                "free": self.free.as_dict(),
                "platform_os": self.config.platform_os,
                "platform_version": self.config.platform_version,
            },
        )
        return [Outbound(to="governor", latency_class="governor", message=msg)]

    def next_departure_delay_ms(self) -> float | None:
        """Sample the churn clock; None when the host never departs."""
        if self.config.departure_rate <= 0:
            return None
        per_ms = self.config.departure_rate / 3_600_000.0
        return self.rng.expovariate(per_ms)

    def depart(self) -> list[str]:
        """Leave the pool; returns the service ids that must be unhosted."""
        self.alive = False
        released = sorted(self.hosted)
        self.hosted.clear()
        self.free = self.config.capacity
        return released

    @property
    def battery_exhausted(self) -> bool:
        """No hosted service can run on the remaining charge."""
        if not self.hosted:
            return False
        return self.battery < min(d.min_resources.energy for d in self.hosted.values())

    # -- message handling -------------------------------------------------

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        if not self.alive:
            return []
        if msg.kind == MessageKind.LIST_SERVICES_REPLY:
            return self._on_listing(msg)
        if msg.kind == MessageKind.ALLOCATION_CONFIRM:
            return self._on_confirm(msg)
        if msg.kind == MessageKind.ALLOCATION_DENIED:
            return []
        if msg.kind == MessageKind.INVOKE:
            return self._on_invoke(msg, sender, now)
        return []

    def _on_listing(self, msg: ProtocolMessage) -> list[Outbound]:
        from .governor.registry import service_from_dict

        offered = [service_from_dict(raw) for raw in msg.payload.get("services", [])]
        chosen = select_services(offered, self.free, self.config.greediness, self.rng)
        out = []
        for desc in chosen:
            out.append(Outbound(
                to="governor",
                latency_class="governor",
                message=ProtocolMessage(
                    kind=MessageKind.HOSTING_REQUEST,
                    sender_role=Role.HOST,
                    correlation_id=self.next_id("alloc"),
                    payload={
                        "host_id": self.agent_id,
                        "service_id": desc.service_id,
                        "identity_verified": self.config.identity_verified,
                    },
                ),
            ))
            self._pending[desc.service_id] = desc
        return out

    def _on_confirm(self, msg: ProtocolMessage) -> list[Outbound]:
        service_id = msg.payload["service_id"]
        desc = self._pending.pop(service_id, None)
        if desc is not None:
            self.hosted[service_id] = desc
            self.free = self.free.minus(desc.min_resources)
        return []

    def _on_invoke(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        service_id = msg.payload["service_id"]
        desc = self.hosted.get(service_id)
        if desc is None:
            result = Outcome.failure("not_hosted")
            return self._finish_invoke(msg, sender, result, duration_ms=0.0, energy=0, now=now)
        if self.battery < desc.min_resources.energy:
            result = Outcome.failure("energy")
            return self._finish_invoke(msg, sender, result, duration_ms=0.0, energy=0, now=now)
        energy = desc.min_resources.energy
        self.battery -= energy
        duration = self.rng.uniform(*self.exec_ms)
        if self.rng.random() < self.config.failure_prob:
            result = Outcome.failure("fault")
        else:
            result = Outcome.success()
        return self._finish_invoke(msg, sender, result, duration_ms=duration, energy=energy, now=now)

    def _finish_invoke(self, msg: ProtocolMessage, sender: str, outcome: Outcome,
                       duration_ms: float, energy: int, now: float) -> list[Outbound]:
        correlation = msg.correlation_id
        reply = ProtocolMessage(
            kind=MessageKind.INVOKE_RESULT,
            sender_role=Role.HOST,
            correlation_id=correlation,
            payload={
                "service_id": msg.payload["service_id"],
                "ok": outcome.ok,
                "reason": outcome.reason,
            },
        )
        report = ProtocolMessage(
            kind=MessageKind.EXECUTION_REPORT,
            sender_role=Role.HOST,
            correlation_id=correlation,
            payload={
                "report_id": f"rpt-{correlation}",
                "host_id": self.agent_id,
                "service_id": msg.payload["service_id"],
                "requester_pseudonym": msg.payload["requester_pseudonym"],
                "started_at": now,
                "duration_ms": duration_ms,
                "energy_used_mwh": energy,
                "ok": outcome.ok,
                "failure_reason": outcome.reason,
            },
        )
        return [
            Outbound(to=sender, latency_class="wlan", message=reply, delay_ms=duration_ms),
            Outbound(to="governor", latency_class="governor", message=report, delay_ms=duration_ms),
        ]


class RequesterAgent:
    """A consumer: discover, bind to the best host, invoke, rate."""

    def __init__(self, agent_id: str, config: RequesterAgentConfig, rng: random.Random,
                 next_id, pseudonym: str):
        self.agent_id = agent_id
        self.config = config
        self.rng = rng
        self.next_id = next_id
        self.pseudonym = pseudonym
        self.demand_events = 0
        self.unavailable_events = 0
        self._query_index = 0

    def next_demand_delay_ms(self) -> float | None:
        if self.config.demand_rate <= 0:
            return None
        per_ms = self.config.demand_rate / 3_600_000.0
        return self.rng.expovariate(per_ms)

    def on_demand(self, now: float) -> list[Outbound]:
        self.demand_events += 1
        query = self.config.query_pool[self._query_index % len(self.config.query_pool)]
        self._query_index += 1
        msg = ProtocolMessage(
            kind=MessageKind.DISCOVERY_QUERY,
            sender_role=Role.REQUESTER,
            correlation_id=self.next_id("disc"),
            payload={"query": query, "requester_pseudonym": self.pseudonym},
        )
        return [Outbound(to="governor", latency_class="governor", message=msg)]

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        if msg.kind == MessageKind.DISCOVERY_REPLY:
            return self._on_discovery(msg)
        if msg.kind == MessageKind.INVOKE_RESULT:
            return self._on_result(msg)
        return []

    def _on_discovery(self, msg: ProtocolMessage) -> list[Outbound]:
        options = [
            entry for entry in msg.payload.get("results", []) if entry.get("hosts")
        ]
        if not options:
            self.unavailable_events += 1
            return []
        entry = options[0]
        host_id = entry["hosts"][0]
        invoke = ProtocolMessage(
            kind=MessageKind.INVOKE,
            sender_role=Role.REQUESTER,
            correlation_id=self.next_id("inv"),
            payload={
                "service_id": entry["service"]["service_id"],
                "requester_pseudonym": self.pseudonym,
            },
        )
        return [Outbound(to=host_id, latency_class="wlan", message=invoke)]

    def _on_result(self, msg: ProtocolMessage) -> list[Outbound]:
        if not msg.payload.get("ok"):
            return []
        rating: int | None = None
        if self.rng.random() < self.config.rating_prob:
            rating = self.rng.choices((1, 2, 3, 4, 5), weights=self.config.rating_bias)[0]
        rate = ProtocolMessage(
            kind=MessageKind.RATE_SERVICE,
            sender_role=Role.REQUESTER,
            correlation_id=msg.correlation_id,
            payload={
                "service_id": msg.payload["service_id"],
                "rating": rating,
                "requester_pseudonym": self.pseudonym,
            },
        )
        return [Outbound(to="governor", latency_class="governor", message=rate)]


@dataclass
class _CompositeCall:
    upstream_correlation: str
    upstream_sender: str
    upstream_pseudonym: str
    composite: ServiceDescription
    remaining: list[str]          # sequential queue
    started: float
    pending: set[str] = field(default_factory=set)  # parallel in-flight deps
    done: bool = False


class AggregatorAgent:
    """A requester that hosts a composite service.

    When its composite is invoked it discovers and invokes each
    dependency (sequentially, or all at once with the parallel flag);
    the composite succeeds only if every dependency does, and only then
    runs its own (simulated) aggregation step. Dependency invocations
    are billed to the aggregator's own pseudonym, one ledger entry per
    link in the chain.
    """

    def __init__(self, agent_id: str, config: AggregatorConfig, rng: random.Random,
                 next_id, pseudonym: str, dependency_names: dict[str, str],
                 exec_ms: tuple[float, float] = (5.0, 25.0)):
        self.agent_id = agent_id
        self.config = config
        self.rng = rng
        self.next_id = next_id
        self.pseudonym = pseudonym
        self.dependency_names = dependency_names
        self.exec_ms = exec_ms
        self.alive = True
        self.battery = config.battery_mwh
        self.composite: ServiceDescription | None = None
        # In-flight correlation -> (call, dependency id it concerns).
        self._calls: dict[str, tuple[_CompositeCall, str]] = {}

    def join(self, now: float) -> list[Outbound]:
        msg = ProtocolMessage(
            kind=MessageKind.HOSTING_REQUEST,
            sender_role=Role.HOST,
            correlation_id=self.next_id("alloc"),
            payload={
                "host_id": self.agent_id,
                "service_id": self.config.composite_service_id,
                "identity_verified": self.config.identity_verified,
            },
        )
        return [Outbound(to="governor", latency_class="governor", message=msg)]

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        if not self.alive:
            return []
        if msg.kind == MessageKind.ALLOCATION_CONFIRM:
            return []
        if msg.kind == MessageKind.INVOKE:
            return self._on_composite_invoke(msg, sender, now)
        if msg.kind == MessageKind.DISCOVERY_REPLY:
            return self._on_discovery(msg, now)
        if msg.kind == MessageKind.INVOKE_RESULT:
            return self._on_dep_result(msg, now)
        return []

    def attach_composite(self, desc: ServiceDescription) -> None:
        self.composite = desc

    def _on_composite_invoke(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        if self.composite is None or msg.payload["service_id"] != self.composite.service_id:
            reply = ProtocolMessage(
                kind=MessageKind.INVOKE_RESULT,
                sender_role=Role.HOST,
                correlation_id=msg.correlation_id,
                payload={"service_id": msg.payload["service_id"], "ok": False, "reason": "not_hosted"},
            )
            return [Outbound(to=sender, latency_class="wlan", message=reply)]
        call = _CompositeCall(
            upstream_correlation=msg.correlation_id,
            upstream_sender=sender,
            upstream_pseudonym=msg.payload["requester_pseudonym"],
            composite=self.composite,
            remaining=list(self.composite.dependencies),
            started=now,
        )
        if self.config.parallel_dependencies:
            call.pending = set(call.remaining)
            call.remaining = []
            if not call.pending:
                return self._complete(call, now)
            out: list[Outbound] = []
            for dep_id in sorted(call.pending):
                out.extend(self._discover_dependency(call, dep_id))
            return out
        return self._advance(call, now)

    def _discover_dependency(self, call: _CompositeCall, dep_id: str) -> list[Outbound]:
        correlation = self.next_id("adisc")
        self._calls[correlation] = (call, dep_id)
        query = self.dependency_names.get(dep_id, dep_id)
        msg = ProtocolMessage(
            kind=MessageKind.DISCOVERY_QUERY,
            sender_role=Role.REQUESTER,
            correlation_id=correlation,
            payload={"query": query, "requester_pseudonym": self.pseudonym},
        )
        return [Outbound(to="governor", latency_class="governor", message=msg)]

    def _advance(self, call: _CompositeCall, now: float) -> list[Outbound]:
        if not call.remaining:
            return self._complete(call, now)
        return self._discover_dependency(call, call.remaining[0])

    def _on_discovery(self, msg: ProtocolMessage, now: float) -> list[Outbound]:
        entry = self._calls.pop(msg.correlation_id, None)
        if entry is None:
            return []
        call, dep_id = entry
        if call.done:
            return []
        host_id = None
        for result in msg.payload.get("results", []):
            if result["service"]["service_id"] == dep_id and result.get("hosts"):
                host_id = result["hosts"][0]
                break
        if host_id is None:
            return self._fail(call, now, reason="dependency")
        correlation = self.next_id("ainv")
        self._calls[correlation] = (call, dep_id)
        invoke = ProtocolMessage(
            kind=MessageKind.INVOKE,
            sender_role=Role.REQUESTER,
            correlation_id=correlation,
            payload={"service_id": dep_id, "requester_pseudonym": self.pseudonym},
        )
        return [Outbound(to=host_id, latency_class="wlan", message=invoke)]

    def _on_dep_result(self, msg: ProtocolMessage, now: float) -> list[Outbound]:
        entry = self._calls.pop(msg.correlation_id, None)
        if entry is None:
            return []
        call, dep_id = entry
        ok = bool(msg.payload.get("ok"))
        out: list[Outbound] = []
        if ok:
            # Dependency invocations are acknowledged like any consumer's:
            # a rating message (unrated) closes the loop with the governor.
            # Sent even for already-failed calls, since the dependency did run.
            out.append(Outbound(
                to="governor",
                latency_class="governor",
                message=ProtocolMessage(
                    kind=MessageKind.RATE_SERVICE,
                    sender_role=Role.REQUESTER,
                    correlation_id=msg.correlation_id,
                    payload={
                        "service_id": msg.payload["service_id"],
                        "rating": None,
                        "requester_pseudonym": self.pseudonym,
                    },
                ),
            ))
        if call.done:
            return out
        if not ok:
            return out + self._fail(call, now, reason="dependency")
        if self.config.parallel_dependencies:
            call.pending.discard(dep_id)
            if call.pending:
                return out
            return out + self._complete(call, now)
        call.remaining.pop(0)
        return out + self._advance(call, now)

    def _complete(self, call: _CompositeCall, now: float) -> list[Outbound]:
        desc = call.composite
        if self.battery < desc.min_resources.energy:
            return self._fail(call, now, reason="energy")
        energy = desc.min_resources.energy
        self.battery -= energy
        duration = self.rng.uniform(*self.exec_ms)
        if self.rng.random() < self.config.failure_prob:
            return self._fail(call, now, reason="fault", energy=energy, duration=duration)
        call.done = True
        return self._reply(call, Outcome.success(), now, energy=energy, duration=duration)

    def _fail(self, call: _CompositeCall, now: float, reason: str,
              energy: int = 0, duration: float = 0.0) -> list[Outbound]:
        call.done = True
        return self._reply(call, Outcome.failure(reason), now, energy=energy, duration=duration)

    def _reply(self, call: _CompositeCall, outcome: Outcome, now: float,
               energy: int, duration: float) -> list[Outbound]:
        correlation = call.upstream_correlation
        result = ProtocolMessage(
            kind=MessageKind.INVOKE_RESULT,
            sender_role=Role.HOST,
            correlation_id=correlation,
            payload={
                "service_id": call.composite.service_id,
                "ok": outcome.ok,
                "reason": outcome.reason,
            },
        )
        report = ProtocolMessage(
            kind=MessageKind.EXECUTION_REPORT,
            sender_role=Role.HOST,
            correlation_id=correlation,
            payload={
                "report_id": f"rpt-{correlation}",
                "host_id": self.agent_id,
                "service_id": call.composite.service_id,
                "requester_pseudonym": call.upstream_pseudonym,
                "started_at": call.started,
                "duration_ms": (now - call.started) + duration,
                "energy_used_mwh": energy,
                "ok": outcome.ok,
                "failure_reason": outcome.reason,
            },
        )
        return [
            Outbound(to=call.upstream_sender, latency_class="wlan", message=result, delay_ms=duration),
            Outbound(to="governor", latency_class="governor", message=report, delay_ms=duration),
        ]
