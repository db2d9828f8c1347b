"""Simulated marketplace actors: hosts, requesters, and aggregators.

Agents are single-threaded state machines driven by the engine. They
communicate only through protocol messages; an agent never touches
governor state directly. Every random draw an agent makes comes from its
own seeded stream, so one agent's behavior does not depend on how many
others are in the scenario.

Hosts and aggregators are both Service hosts: devices that run a Service
for pay. They share one device model (`DeviceAgent`): one battery, the
services it hosts, one execution step that draws energy, duration and
faults, one builder for the invoke result and the execution report the
governor meters, and one way to leave (churn, or a battery that no
hosted service can run on). An aggregator is a device whose one Service
is a composite: it consumes the dependencies like a requester before
running its own step.

Each agent's `handle` finds a message's handler in one dict keyed by
kind, built with its class, and the message builders read kinds and
roles bound once here: on CPython 3.11 each read of `MessageKind.X` or
`Role.X` goes through `EnumType.__getattr__`. The builders construct
`ProtocolMessage` and `Outbound` positionally.
"""
from __future__ import annotations

import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate

from .domain import Outcome, ResourceVector, ServiceDescription
from .wire import MessageKind, Outbound, ProtocolMessage, Role, report_dict

GREEDINESS_STRATEGIES = ("max_revenue", "min_energy", "random")
_RATINGS = (1, 2, 3, 4, 5)

_LIST_SERVICES_REQUEST = MessageKind.LIST_SERVICES_REQUEST
_HOSTING_REQUEST = MessageKind.HOSTING_REQUEST
_DISCOVERY_QUERY = MessageKind.DISCOVERY_QUERY
_INVOKE = MessageKind.INVOKE
_INVOKE_RESULT = MessageKind.INVOKE_RESULT
_EXECUTION_REPORT = MessageKind.EXECUTION_REPORT
_RATE_SERVICE = MessageKind.RATE_SERVICE
_HOST = Role.HOST
_REQUESTER = Role.REQUESTER


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

    Dependencies run one at a time, in the composite's order, by default;
    `parallel_dependencies` starts all of them at once, in sorted order.
    """

    composite_service_id: str
    capacity: ResourceVector
    battery_mwh: int
    platform_os: str
    platform_version: str
    failure_prob: float = 0.0
    identity_verified: bool = False
    parallel_dependencies: bool = False


def select_services(offered: list[dict], free: ResourceVector,
                    strategy: str, rng: random.Random) -> list[dict]:
    """Greedy-fit selection over a listing's service dicts, per greediness
    strategy; returns the chosen dicts.

    Composites are skipped (plain hosts cannot drive dependency chains),
    and a service is taken only while the remaining free resources cover
    its `min_resources`, mirroring the governor's own admission check.
    No service is decoded: a host keeps only each chosen one's id and need.
    """
    candidates = [raw for raw in offered if not raw["dependencies"]]
    if strategy == "min_energy":
        candidates.sort(key=lambda raw: (raw["min_resources"]["energy"], raw["service_id"]))
    elif strategy == "random":
        rng.shuffle(candidates)
    # max_revenue keeps the governor's revenue-sorted order.
    chosen = []
    cpu, memory, storage, energy = free.cpu, free.memory, free.storage, free.energy
    for raw in candidates:
        need = raw["min_resources"]
        if (cpu >= need["cpu"] and memory >= need["memory"]
                and storage >= need["storage"] and energy >= need["energy"]):
            chosen.append(raw)
            cpu -= need["cpu"]
            memory -= need["memory"]
            storage -= need["storage"]
            energy -= need["energy"]
    return chosen


def _to_governor(kind: MessageKind, role: Role, correlation: str, payload: dict,
                 delay_ms: float = 0.0) -> Outbound:
    return Outbound("governor", "governor", ProtocolMessage(kind, role, correlation, payload), delay_ms)


def _invoke_result(correlation: str, service_id: str, outcome: Outcome) -> ProtocolMessage:
    return ProtocolMessage(_INVOKE_RESULT, _HOST, correlation,
                           {"service_id": service_id, "ok": outcome.ok, "reason": outcome.reason})


def _discovery_query(correlation: str, query: str, pseudonym: str) -> Outbound:
    return _to_governor(_DISCOVERY_QUERY, _REQUESTER, correlation,
                        {"query": query, "requester_pseudonym": pseudonym})


def _invoke(host_id: str, correlation: str, service_id: str, pseudonym: str) -> Outbound:
    return Outbound(host_id, "wlan", ProtocolMessage(
        _INVOKE, _REQUESTER, correlation, {"service_id": service_id, "requester_pseudonym": pseudonym}))


def _rating(correlation: str, service_id: str, rating: int | None, pseudonym: str) -> Outbound:
    return _to_governor(_RATE_SERVICE, _REQUESTER, correlation, {
        "service_id": service_id, "rating": rating, "requester_pseudonym": pseudonym,
    })


def _first_live_host(reply: ProtocolMessage, service_id: str | None = None) -> tuple[str, str] | None:
    """(service id, best host) of the first discovery result with a live
    host, among results for `service_id` when one is given."""
    for entry in reply.payload.get("results", []):
        if entry.get("hosts"):
            found = entry["service"]["service_id"]
            if service_id is None or found == service_id:
                return found, entry["hosts"][0]
    return None


class DeviceAgent:
    """A mobile device that runs Services for pay: the Service host role."""

    def __init__(self, agent_id: str, config: HostAgentConfig | AggregatorConfig,
                 rng: random.Random, next_id, exec_ms: tuple[float, float]):
        self.agent_id = agent_id
        self.config = config
        self.rng = rng
        self.next_id = next_id
        self.exec_ms = exec_ms
        self.alive = True
        self.battery = config.battery_mwh
        # Each hosted service's need, by service id: all a device reads of
        # a service. `host_service` and `depart` are the only writes to
        # `hosted`, and keep `least_need` the smallest energy need in it
        # (None when empty), so the check after every message reads one number.
        self.hosted: dict[str, ResourceVector] = {}
        self.least_need: int | None = None

    def host_service(self, service_id: str, need: ResourceVector) -> None:
        """Start hosting `service_id`, which needs `need`. A device adds a
        few services in its life and handles many messages, so the
        minimum is taken here."""
        self.hosted[service_id] = need
        self.least_need = min(n.energy for n in self.hosted.values())

    def depart(self) -> list[str]:
        """Leave the pool; returns the service ids that must be unhosted."""
        self.alive = False
        released = sorted(self.hosted)
        self.hosted.clear()
        self.least_need = None
        return released

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        """The replies to one message, from the subclass's handler for its
        kind; a departed device answers nothing."""
        if not self.alive:
            return []
        handler = self._HANDLERS.get(msg.kind)
        return [] if handler is None else handler(self, msg, sender, now)

    @property
    def battery_exhausted(self) -> bool:
        """No hosted service can run on the remaining charge."""
        least = self.least_need
        return least is not None and self.battery < least

    def _execute(self, need: ResourceVector) -> tuple[Outcome, int, float]:
        """Run one invocation of a service that needs `need`: (outcome,
        energy used, duration ms).

        Refused without a draw when the battery cannot cover it; otherwise
        the energy is spent, then the duration and the fault are drawn.
        """
        energy = need.energy
        if self.battery < energy:
            return Outcome.failure("energy"), 0, 0.0
        self.battery -= energy
        duration = self.rng.uniform(*self.exec_ms)
        if self.rng.random() < self.config.failure_prob:
            return Outcome.failure("fault"), energy, duration
        return Outcome.success(), energy, duration

    def _result_and_report(self, correlation: str, to: str, service_id: str, pseudonym: str,
                           started: float, now: float, outcome: Outcome,
                           energy: int = 0, duration: float = 0.0) -> list[Outbound]:
        """The invoke result for `to` and the execution report for the
        governor, both leaving when the execution step ends. The report
        spans the whole call from `started`: for a composite, its
        dependencies as well as its own step."""
        report = report_dict(f"rpt-{correlation}", self.agent_id, service_id, pseudonym, started,
                             (now - started) + duration, energy, outcome.ok, outcome.reason)
        return [
            Outbound(to, "wlan", _invoke_result(correlation, service_id, outcome), duration),
            _to_governor(_EXECUTION_REPORT, _HOST, correlation, report, duration),
        ]

    def _hosting_request(self, service_id: str) -> Outbound:
        return _to_governor(_HOSTING_REQUEST, _HOST, self.next_id("alloc"), {
            "host_id": self.agent_id,
            "service_id": service_id,
            "identity_verified": self.config.identity_verified,
        })


class HostAgent(DeviceAgent):
    """A mobile device leasing its resources: browse, host, execute, churn."""

    def __init__(self, agent_id: str, config: HostAgentConfig, rng: random.Random,
                 next_id, exec_ms: tuple[float, float]):
        super().__init__(agent_id, config, rng, next_id, exec_ms)
        self.free = config.capacity
        self._pending: dict[str, ResourceVector] = {}  # requested, not yet confirmed

    # -- lifecycle ------------------------------------------------------

    def join(self, now: float) -> list[Outbound]:
        """Browse the catalog once on arrival."""
        if not self.alive:
            return []
        return [_to_governor(_LIST_SERVICES_REQUEST, _HOST, self.next_id("list"), {
            "host_id": self.agent_id,
            "free": self.free.as_dict(),
            "platform_os": self.config.platform_os,
            "platform_version": self.config.platform_version,
        })]

    def next_departure_delay_ms(self) -> float | None:
        """Sample the churn clock; None when the host never departs."""
        if self.config.departure_rate <= 0:
            return None
        per_ms = self.config.departure_rate / 3_600_000.0
        return self.rng.expovariate(per_ms)

    # -- message handling -------------------------------------------------

    def _on_listing(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        offered = msg.payload.get("services", [])
        out = []
        for raw in select_services(offered, self.free, self.config.greediness, self.rng):
            service_id = raw["service_id"]
            need = raw["min_resources"]
            out.append(self._hosting_request(service_id))
            self._pending[service_id] = ResourceVector(need["cpu"], need["memory"],
                                                       need["storage"], need["energy"])
        return out

    def _on_confirm(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        service_id = msg.payload["service_id"]
        need = self._pending.pop(service_id, None)
        if need is not None:
            self.host_service(service_id, need)
            self.free = self.free.minus(need)
        return []

    def _on_invoke(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        service_id = msg.payload["service_id"]
        need = self.hosted.get(service_id)
        outcome, energy, duration = (
            (Outcome.failure("not_hosted"), 0, 0.0) if need is None else self._execute(need)
        )
        return self._result_and_report(msg.correlation_id, sender, service_id,
                                       msg.payload["requester_pseudonym"], now, now,
                                       outcome, energy, duration)

    # Each handler takes (message, sender, receive time) and returns the replies.
    _HANDLERS = {
        MessageKind.LIST_SERVICES_REPLY: _on_listing,
        MessageKind.ALLOCATION_CONFIRM: _on_confirm,
        MessageKind.INVOKE: _on_invoke,
    }


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
        # `choices(weights=...)` would accumulate the weights on every draw;
        # these are the same sums, and the total is the float `choices`
        # divides by. `validate_scenario` refuses a zero total.
        self._rating_cum_weights = tuple(accumulate(config.rating_bias))
        self._rating_total = self._rating_cum_weights[-1] + 0.0

    def next_demand_delay_ms(self) -> float | None:
        if self.config.demand_rate <= 0:
            return None
        per_ms = self.config.demand_rate / 3_600_000.0
        return self.rng.expovariate(per_ms)

    def on_demand(self, now: float) -> list[Outbound]:
        self.demand_events += 1
        query = self.config.query_pool[self._query_index % len(self.config.query_pool)]
        self._query_index += 1
        return [_discovery_query(self.next_id("disc"), query, self.pseudonym)]

    def handle(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        handler = self._HANDLERS.get(msg.kind)
        return [] if handler is None else handler(self, msg, sender, now)

    def _on_discovery(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        found = _first_live_host(msg)
        if found is None:
            self.unavailable_events += 1
            return []
        service_id, host_id = found
        return [_invoke(host_id, self.next_id("inv"), service_id, self.pseudonym)]

    def _on_result(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        if not msg.payload.get("ok"):
            return []
        rating: int | None = None
        if self.rng.random() < self.config.rating_prob:
            # `rng.choices(_RATINGS, cum_weights=...)[0]`'s own arithmetic,
            # so the stream is unchanged (a test compares the two, draw for draw).
            rating = _RATINGS[bisect(self._rating_cum_weights, self.rng.random() * self._rating_total, 0, 4)]
        return [_rating(msg.correlation_id, msg.payload["service_id"], rating, self.pseudonym)]

    _HANDLERS = {
        MessageKind.DISCOVERY_REPLY: _on_discovery,
        MessageKind.INVOKE_RESULT: _on_result,
    }


@dataclass
class _CompositeCall:
    correlation: str   # of the upstream invoke
    sender: str
    pseudonym: str
    started: float
    waiting: list[str]  # dependencies not yet started, in start order
    at_once: int        # how many dependencies may be in flight together
    in_flight: set[str] = field(default_factory=set)
    done: bool = False


class AggregatorAgent(DeviceAgent):
    """A device that hosts a composite service and consumes its parts.

    When its composite is invoked it discovers and invokes each
    dependency (one at a time, or all at once with the parallel flag);
    the composite succeeds only if every dependency does, and only then
    runs its own (simulated) aggregation step. Dependency invocations
    are billed to the aggregator's own pseudonym, one ledger entry per
    link in the chain.
    """

    def __init__(self, agent_id: str, config: AggregatorConfig, rng: random.Random,
                 next_id, exec_ms: tuple[float, float], composite: ServiceDescription,
                 pseudonym: str, dependency_names: dict[str, str]):
        super().__init__(agent_id, config, rng, next_id, exec_ms)
        self.dependencies = composite.dependencies
        self.host_service(composite.service_id, composite.min_resources)
        self.pseudonym = pseudonym
        self.dependency_names = dependency_names
        # In-flight correlation -> (call, dependency id it concerns).
        self._calls: dict[str, tuple[_CompositeCall, str]] = {}

    def join(self, now: float) -> list[Outbound]:
        return [self._hosting_request(self.config.composite_service_id)]

    def _on_composite_invoke(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        service_id = msg.payload["service_id"]
        if service_id != self.config.composite_service_id:
            reply = _invoke_result(msg.correlation_id, service_id, Outcome.failure("not_hosted"))
            return [Outbound(sender, "wlan", reply)]
        deps = self.dependencies
        if self.config.parallel_dependencies:
            waiting, at_once = sorted(set(deps)), len(deps)
        else:
            waiting, at_once = list(deps), 1
        call = _CompositeCall(msg.correlation_id, sender, msg.payload["requester_pseudonym"],
                              now, waiting, at_once)
        return self._advance(call, now)

    def _advance(self, call: _CompositeCall, now: float) -> list[Outbound]:
        """Start what the call may start now; run the composite's own
        step once no dependency is waiting or in flight."""
        if not call.waiting and not call.in_flight:
            outcome, energy, duration = self._execute(self.hosted[self.config.composite_service_id])
            return self._finish(call, now, outcome, energy, duration)
        out = []
        while call.waiting and len(call.in_flight) < call.at_once:
            dep_id = call.waiting.pop(0)
            call.in_flight.add(dep_id)
            correlation = self.next_id("adisc")
            self._calls[correlation] = (call, dep_id)
            out.append(_discovery_query(correlation, self.dependency_names.get(dep_id, dep_id),
                                        self.pseudonym))
        return out

    def _on_discovery(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
        entry = self._calls.pop(msg.correlation_id, None)
        if entry is None or entry[0].done:
            return []
        call, dep_id = entry
        found = _first_live_host(msg, dep_id)
        if found is None:
            return self._finish(call, now, Outcome.failure("dependency"))
        correlation = self.next_id("ainv")
        self._calls[correlation] = (call, dep_id)
        return [_invoke(found[1], correlation, dep_id, self.pseudonym)]

    def _on_dep_result(self, msg: ProtocolMessage, sender: str, now: float) -> list[Outbound]:
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
            out.append(_rating(msg.correlation_id, msg.payload["service_id"], None, self.pseudonym))
        if call.done:
            return out
        if not ok:
            return out + self._finish(call, now, Outcome.failure("dependency"))
        call.in_flight.discard(dep_id)
        return out + self._advance(call, now)

    def _finish(self, call: _CompositeCall, now: float, outcome: Outcome,
                energy: int = 0, duration: float = 0.0) -> list[Outbound]:
        call.done = True
        return self._result_and_report(call.correlation, call.sender, self.config.composite_service_id,
                                       call.pseudonym, call.started, now, outcome, energy, duration)

    _HANDLERS = {
        MessageKind.INVOKE: _on_composite_invoke,
        MessageKind.DISCOVERY_REPLY: _on_discovery,
        MessageKind.INVOKE_RESULT: _on_dep_result,
    }
