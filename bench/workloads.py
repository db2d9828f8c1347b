"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of (workload name, seed): the same
seed gives byte-identical scenario JSON. Each market scenario is checked
with `validate_scenario` before the program sees it, and the program
receives only the generated document, never the generator's own state.
`governor_mixed` also starts from a scenario document (its catalog and
host pool), so it can be dumped and replayed with `momcc run` like the
market workloads; its operation mix is drawn from the same seed by
`bench.closed_loop`.
"""
from __future__ import annotations

import json
import random

NOUNS = (
    "image", "text", "route", "speech", "barcode", "weather", "translate",
    "face", "music", "video", "sensor", "map", "receipt", "document",
    "calendar", "news", "stock", "fitness", "photo", "voice",
)
ADJECTIVES = (
    "fast", "compact", "accurate", "offline", "secure", "lite", "smart",
    "batch", "live", "tiny", "precise", "robust",
)
VERBS = ("scale", "extract", "plan", "detect", "convert", "index", "filter", "summarize")


def _service(rng: random.Random, index: int, developers: int, medium_share: float,
             nouns: tuple[str, ...] = NOUNS) -> dict:
    # Names cycle through nouns, then adjectives, so every query matches the
    # same number of services whatever the seed.
    noun = nouns[index % len(nouns)]
    adjective = ADJECTIVES[(index // len(nouns)) % len(ADJECTIVES)]
    verb = VERBS[rng.randrange(len(VERBS))]
    return {
        "service_id": f"svc-{index:05d}",
        "developer_id": f"dev-{index % developers:03d}",
        "name": f"{adjective} {noun} {index:05d}",
        "description": f"{verb} {noun} data on nearby devices",
        "functionality_tag": noun,
        "input_spec": f"{noun} bytes",
        "output_spec": f"{noun} result",
        "binding_method": "local-call",
        "security_level": "Medium" if rng.random() < medium_share else "Low",
        "platform": {"os_name": "Android", "min_version": rng.choice(("3.2", "4.0", "4.1"))},
        "min_resources": {
            "cpu": rng.randint(64, 512),
            "memory": rng.randint(1, 8),
            "storage": rng.randint(1, 16),
            "energy": rng.randint(100, 400),
        },
        "price_per_invocation": rng.randint(200, 3000),
        "developer_share": rng.choice((0.3, 0.4, 0.5)),
        "dependencies": [],
    }


def _host_entry(count: int, *, greediness: str, version: str, battery: int,
                departure_rate: float, failure_prob: float, verified: bool) -> dict:
    return {
        "count": count,
        "capacity": {"cpu": 2048, "memory": 32, "storage": 64, "energy": 1500},
        "battery_mwh": battery,
        "platform_os": "Android",
        "platform_version": version,
        "greediness": greediness,
        "departure_rate": departure_rate,
        "failure_prob": failure_prob,
        "identity_verified": verified,
    }


def _requester_entries(rng: random.Random, total: int, groups: int, demand_rate: float,
                       nouns: tuple[str, ...] = NOUNS,
                       extra_queries: tuple[str, ...] = ()) -> list[dict]:
    # Every group asks for every noun of the catalog, in its own seeded
    # order, so demand spreads evenly over it whatever the seed.
    entries = []
    for group in range(groups):
        count = total // groups + (1 if group < total % groups else 0)
        pool = rng.sample(nouns, len(nouns)) + list(extra_queries)
        entries.append({
            "count": count,
            "demand_rate": demand_rate,
            "query_pool": pool,
            "rating_bias": [0.05, 0.05, 0.1, 0.3, 0.5],
            "rating_prob": 0.8,
        })
    return entries


def market_wide(seed: int) -> dict:
    """400 hosts, 400 requesters, 100 services over 2 simulated hours.

    Many live hosts per service and 400 catalog joins: discovery, host
    ranking, catalog listing and reply building dominate. Churn, faults
    and a low-battery host group keep departures on the path.
    """
    rng = random.Random(f"market_wide/{seed}")
    services = [_service(rng, i, developers=17, medium_share=0.1) for i in range(100)]
    hosts = [
        _host_entry(160, greediness="random", version="4.1", battery=60_000,
                    departure_rate=0.2, failure_prob=0.05, verified=False),
        _host_entry(120, greediness="max_revenue", version="4.4", battery=60_000,
                    departure_rate=0.1, failure_prob=0.02, verified=True),
        _host_entry(80, greediness="min_energy", version="4.0", battery=60_000,
                    departure_rate=0.3, failure_prob=0.1, verified=False),
        _host_entry(40, greediness="random", version="4.1", battery=4_000,
                    departure_rate=0.0, failure_prob=0.05, verified=False),
    ]
    return {
        "format_version": 1,
        "seed": seed,
        "duration_hours": 2.0,
        "baseline_mode": "momcc",
        "services": services,
        "hosts": hosts,
        "requesters": _requester_entries(rng, 400, groups=8, demand_rate=8.0),
        "policies": {"profiler": {"window": 20, "sweep_interval_hours": 1.0}},
    }


LONG_NOUNS = NOUNS[:15]  # two leaf services per noun


def market_long(seed: int) -> dict:
    """100 hosts, 100 requesters, 31 services over 16 simulated hours.

    A sweep every half hour over a report history that keeps growing, so
    the costs that scale with history show. Three aggregators host a
    composite that fans out to two dependencies in parallel.
    """
    rng = random.Random(f"market_long/{seed}")
    services = [
        _service(rng, i, developers=7, medium_share=0.0, nouns=LONG_NOUNS) for i in range(30)
    ]
    composite = _service(rng, 30, developers=7, medium_share=0.0, nouns=LONG_NOUNS)
    composite.update({
        "name": "document reader pipeline",
        "description": "photograph a page and read it aloud",
        "functionality_tag": "doc-reader",
        "platform": {"os_name": "Android", "min_version": "4.0"},
        "min_resources": {"cpu": 128, "memory": 2, "storage": 2, "energy": 150},
        "dependencies": [services[13]["service_id"], services[6]["service_id"]],
    })
    services.append(composite)
    hosts = [
        _host_entry(50, greediness="random", version="4.1", battery=400_000,
                    departure_rate=0.01, failure_prob=0.03, verified=False),
        _host_entry(30, greediness="max_revenue", version="4.4", battery=400_000,
                    departure_rate=0.0, failure_prob=0.02, verified=True),
        _host_entry(20, greediness="min_energy", version="4.0", battery=400_000,
                    departure_rate=0.02, failure_prob=0.4, verified=False),
    ]
    aggregators = [{
        "count": 3,
        "composite_service_id": composite["service_id"],
        "capacity": {"cpu": 1024, "memory": 16, "storage": 32, "energy": 800},
        "battery_mwh": 400_000,
        "platform_os": "Android",
        "platform_version": "4.1",
        "failure_prob": 0.02,
        "identity_verified": True,
        "parallel_dependencies": True,
    }]
    return {
        "format_version": 1,
        "seed": seed,
        "duration_hours": 16.0,
        "baseline_mode": "momcc",
        "services": services,
        "hosts": hosts,
        "aggregators": aggregators,
        "requesters": _requester_entries(
            rng, 100, groups=4, demand_rate=5.5, nouns=LONG_NOUNS,
            extra_queries=("document reader",),
        ),
        "policies": {"profiler": {"window": 20, "sweep_interval_hours": 0.5}},
    }


# governor_mixed sizes: a catalog far beyond what the market runs reach.
MIXED_SERVICES = 2000
MIXED_HOSTS = 300


def governor_mixed(seed: int) -> dict:
    """The catalog and host pool of the governor-only closed loop.

    Written as a scenario so it is validated like the others and can be
    replayed with `momcc run`; the loop itself registers these services
    and hosts directly and then drives the governor with a seeded mix.
    """
    rng = random.Random(f"governor_mixed/{seed}")
    services = [
        _service(rng, i, developers=97, medium_share=0.05) for i in range(MIXED_SERVICES)
    ]
    # Chains of dependencies make the acyclicity check do real work.
    for i in range(len(NOUNS), MIXED_SERVICES, 7):
        services[i]["dependencies"] = [services[i - len(NOUNS)]["service_id"]]
    hosts = [
        _host_entry(MIXED_HOSTS // 2, greediness="random", version="4.1", battery=10**9,
                    departure_rate=0.0, failure_prob=0.0, verified=False),
        _host_entry(MIXED_HOSTS - MIXED_HOSTS // 2, greediness="random", version="4.4",
                    battery=10**9, departure_rate=0.0, failure_prob=0.0, verified=True),
    ]
    return {
        "format_version": 1,
        "seed": seed,
        "duration_hours": 0.25,
        "baseline_mode": "momcc",
        "services": services,
        "hosts": hosts,
        "requesters": _requester_entries(rng, 20, groups=4, demand_rate=4.0),
    }


GENERATORS = {
    "market_wide": market_wide,
    "market_long": market_long,
    "governor_mixed": governor_mixed,
}


def scenario_json(workload: str, seed: int) -> str:
    """The generated scenario as canonical JSON text, validated."""
    from momcc.scenario import validate_scenario

    document = GENERATORS[workload](seed)
    diagnostics = validate_scenario(document)
    if diagnostics:
        raise ValueError(f"generated {workload} scenario is invalid: {diagnostics}")
    return json.dumps(document, sort_keys=True, indent=1) + "\n"
