"""`governor_mixed`: one client driving the governor directly, no engine.

The client sends its next operation only after the previous one
returns (a closed loop with zero think time). Each round builds a fresh
governor from the generated scenario (the set-up), then runs a fixed,
seeded sequence of operations against it, so every round of one seed
computes the same results and the same digest. Only the governor calls
are timed; choosing arguments and keeping the client's own model of the
catalog happen outside the timed regions.

The client's model is the reference for the correctness check at the end
of each round: discovery must return exactly the active services whose
text contains the query, each with exactly the hosts holding it, and the
ledger must total the prices of the successful reports ingested.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter_ns

from momcc.domain import (
    ExecutionReport,
    Outcome,
    PlatformRequirement,
    ResourceVector,
    SecurityLevel,
    ServiceDescription,
)
from momcc.governor import ServiceGovernor

from .workloads import ADJECTIVES, NOUNS

SWEEP_EVERY = 500  # operations between sweep-plus-assessment passes
POPULAR_SERVICES = 100
FLAKY_EVERY = 11  # every 11th catalog service fails half of its executions

# Adjective-noun queries for the latency probe (bench/probe.py): 10
# distinct queries, each matching a handful of services in any seed's
# catalog.
PROBE_QUERIES = tuple(
    f"{ADJECTIVES[k % len(ADJECTIVES)]} {NOUNS[k % len(NOUNS)]}" for k in range(10)
)

# Operations per round by kind, run in a seeded order; a sweep comes on
# top of every SWEEP_EVERY operations. Fixed counts keep the work of a
# round the same size whatever the seed. The shares are those of the
# governor calls in a traced `market_wide` run (seed 11, see
# baseline.json): 6322 discover, 400 list, 100 register, 2382 hosting,
# 128 depart and 6322 report calls, scaled to 2000 operations. A
# market departure ends hostings; here `unhost` ends one.
MIX = {"discover": 808, "list": 51, "register": 13, "hosting": 304, "unhost": 16, "ingest": 808}


@dataclass
class RoundResult:
    op_ns: int = 0
    ops: int = 0
    unexpected: list[str] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    checks: int = 0
    digest: str = ""
    governor: ServiceGovernor | None = None


def build_governor(scenario) -> ServiceGovernor:
    """Catalog and host registrations, the way the engine's set-up does them."""
    governor = ServiceGovernor(scenario.governor_config)
    for desc in scenario.services:
        governor.billing.negotiate_developer(
            desc.developer_id, desc.price_per_invocation, desc.developer_share
        )
        governor.registry.register_service(desc)
    index = 0
    for entry in scenario.hosts:
        for _ in range(entry.count):
            config = entry.config
            governor.hosts.register_host(
                f"host-{index:03d}", config.platform_os, config.platform_version,
                config.capacity, config.battery_mwh,
            )
            index += 1
    return governor


class _Client:
    """The closed-loop client: its own model of the catalog and hostings."""

    def __init__(self, governor: ServiceGovernor, scenario, seed: int, clock):
        self.gov = governor
        self.clock = clock
        self.rng = random.Random(f"governor_mixed/ops/{seed}")
        self.services: dict[str, ServiceDescription] = {d.service_id: d for d in scenario.services}
        self.service_ids = sorted(self.services)
        self.popular = self.rng.sample(self.service_ids, POPULAR_SERVICES)
        self.flaky = set(self.service_ids[::FLAKY_EVERY])
        self.deprecated: set[str] = set()
        self.host_ids = sorted(governor.host_db.hosts)
        self.pairs: list[tuple[str, str]] = []
        self.pair_index: dict[tuple[str, str], int] = {}
        self.queries = [f"{a} {n}" for a in ADJECTIVES for n in NOUNS]
        self.metered_total = 0
        self.report_seq = 0
        self.new_services = 0
        self.hash = hashlib.sha256()
        self.kinds = [kind for kind, count in MIX.items() for _ in range(count)]
        self.rng.shuffle(self.kinds)

    # -- the client's model of hostings -----------------------------------

    def _add_pair(self, pair: tuple[str, str]) -> None:
        self.pair_index[pair] = len(self.pairs)
        self.pairs.append(pair)

    def _remove_pair(self, pair: tuple[str, str]) -> None:
        index = self.pair_index.pop(pair)
        last = self.pairs.pop()
        if last != pair:
            self.pairs[index] = last
            self.pair_index[last] = index

    # -- one operation -----------------------------------------------------

    def step(self, kind: str, result: RoundResult) -> None:
        if kind in ("unhost", "ingest") and not self.pairs:
            kind = "hosting"
        getattr(self, "_" + kind)(result)
        result.ops += 1

    def _discover(self, result: RoundResult) -> None:
        query = self.queries[self.rng.randrange(len(self.queries))]
        t0 = self.clock()
        found = self.gov.registry.discover(query, "anon-bench-client")
        result.op_ns += self.clock() - t0
        self.hash.update(repr([(r.listing.service_id, len(r.hosts)) for r in found]).encode())

    def _list(self, result: RoundResult) -> None:
        host_id = self.host_ids[self.rng.randrange(len(self.host_ids))]
        profile = self.gov.host_db.hosts[host_id]
        t0 = self.clock()
        offered = self.gov.registry.list_available_services(
            profile.free, profile.os_name, profile.os_version
        )
        result.op_ns += self.clock() - t0
        self.hash.update(repr([d.service_id for d in offered[:5]] + [len(offered)]).encode())

    def _register(self, result: RoundResult) -> None:
        self.new_services += 1
        noun = NOUNS[self.rng.randrange(len(NOUNS))]
        adjective = ADJECTIVES[self.rng.randrange(len(ADJECTIVES))]
        base = self.services[self.service_ids[self.rng.randrange(len(self.service_ids))]]
        service_id = f"svc-n{self.new_services:04d}"
        desc = ServiceDescription(
            service_id=service_id,
            developer_id=base.developer_id,
            name=f"{adjective} {noun} new {self.new_services:04d}",
            description=f"convert {noun} data on nearby devices",
            functionality_tag=noun,
            input_spec=f"{noun} bytes",
            output_spec=f"{noun} result",
            binding_method="local-call",
            security_level=SecurityLevel.LOW,
            platform=PlatformRequirement("Android", "4.0"),
            min_resources=ResourceVector(
                self.rng.randint(64, 512), self.rng.randint(1, 8),
                self.rng.randint(1, 16), self.rng.randint(100, 400),
            ),
            price_per_invocation=base.price_per_invocation,
            developer_share=base.developer_share,
            dependencies=(base.service_id,) if self.rng.random() < 0.3 else (),
        )
        t0 = self.clock()
        self.gov.registry.register_service(desc)
        result.op_ns += self.clock() - t0
        self.services[service_id] = desc
        self.service_ids.append(service_id)

    def _hosting(self, result: RoundResult) -> None:
        host_id = self.host_ids[self.rng.randrange(len(self.host_ids))]
        if self.rng.random() < 0.7:
            service_id = self.popular[self.rng.randrange(len(self.popular))]
        else:
            service_id = self.service_ids[self.rng.randrange(len(self.service_ids))]
        verified = self.gov.host_db.hosts[host_id].os_version == "4.4"
        t0 = self.clock()
        decision = self.gov.request_hosting(host_id, service_id, identity_verified=verified)
        result.op_ns += self.clock() - t0
        if decision.confirmed:
            self._add_pair((host_id, service_id))
        self.hash.update(f"{decision.confirmed}{decision.reason}".encode())

    def _unhost(self, result: RoundResult) -> None:
        pair = self.pairs[self.rng.randrange(len(self.pairs))]
        t0 = self.clock()
        self.gov.hosts.unhost(*pair)
        result.op_ns += self.clock() - t0
        self._remove_pair(pair)

    def _ingest(self, result: RoundResult) -> None:
        host_id, service_id = self.pairs[self.rng.randrange(len(self.pairs))]
        fail_prob = 0.5 if service_id in self.flaky else 0.03
        ok = self.rng.random() >= fail_prob
        rating = None if self.rng.random() < 0.3 else self.rng.randint(1, 5)
        self.report_seq += 1
        report = ExecutionReport(
            report_id=f"rpt-bench-{self.report_seq:07d}",
            host_id=host_id,
            service_id=service_id,
            requester_pseudonym="anon-bench-client",
            started_at=float(self.report_seq),
            duration_ms=self.rng.uniform(5.0, 25.0),
            energy_used_mwh=self.services[service_id].min_resources.energy,
            outcome=Outcome.success() if ok else Outcome.failure("fault"),
            rating=rating,
        )
        t0 = self.clock()
        accepted = self.gov.ingest_report(report)
        elapsed = self.clock() - t0
        if not ok:  # the engine files an escalation for every failed report
            t0 = self.clock()
            self.gov.profiler.report_malfunction(service_id, detail="invocation failed: fault")
            elapsed += self.clock() - t0
        result.op_ns += elapsed
        if accepted and ok:
            self.metered_total += self.services[service_id].price_per_invocation
        self.hash.update(f"{accepted}".encode())

    def sweep(self, result: RoundResult) -> None:
        window = self.gov.profiler.policy.window
        t0 = self.clock()
        actions = self.gov.profiler.substitution_sweep()
        assessments = self.gov.hosts.assess_hosts(window)
        result.op_ns += self.clock() - t0
        result.ops += 1
        for action in actions:
            self.deprecated.add(action.deprecated_id)
        self.hash.update(repr([(a.deprecated_id, a.replacement_id) for a in actions]).encode())
        self.hash.update(repr([a.host_id for a in assessments[:10]]).encode())

    # -- the reference check -------------------------------------------------

    def check(self, result: RoundResult) -> None:
        holders: dict[str, set[str]] = {}
        for host_id, service_id in self.pairs:
            holders.setdefault(service_id, set()).add(host_id)
        for query in self.queries:
            expected = sorted(
                sid for sid, desc in self.services.items()
                if sid not in self.deprecated
                and query in f"{desc.name} {desc.description}".lower()
            )
            found = self.gov.registry.discover(query, "anon-bench-client")
            result.checks += 1
            if [r.listing.service_id for r in found] != expected:
                result.problems.append(f"discover {query!r}: wrong services")
                continue
            for r in found:
                if set(r.hosts) != holders.get(r.listing.service_id, set()):
                    result.problems.append(f"discover {query!r}: wrong hosts for {r.listing.service_id}")
                    break
        result.checks += 2
        result.problems.extend(self.gov.check_invariants())
        if self.gov.billing.total_metered() != self.metered_total:
            result.problems.append("ledger total differs from the prices of successful reports")


def run_round(scenario, governor: ServiceGovernor, seed: int, clock=perf_counter_ns) -> RoundResult:
    """Drive a governor fresh from `build_governor` through one seeded round."""
    result = RoundResult()
    client = _Client(governor, scenario, seed, clock)
    for index, kind in enumerate(client.kinds, start=1):
        try:
            client.step(kind, result)
            if index % SWEEP_EVERY == 0:
                client.sweep(result)
        except Exception as exc:  # every operation here is expected to succeed
            result.unexpected.append(f"{type(exc).__name__}: {exc}")
            result.ops += 1
    client.check(result)
    result.digest = client.hash.hexdigest()
    result.governor = governor
    return result
