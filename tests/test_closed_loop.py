"""One round of the benchmark's closed-loop client as a tier-1 check.

The `governor_mixed` round interleaves discovery with registrations,
hostings, unhosts, reports and sweep deprecations, and checks every
query's answer against the client's own model of the catalog and of the
hostings. Run here, a kept discovery answer that outlives a change fails
the test suite, not only the benchmark. The round's own check never
lists, so after it every host's listing is compared here with a full
scan of the catalog. The benchmark's modules are imported as they are.
Seed 11's sweeps deprecate nothing; seed 13's deprecate one service that
a kept query matches, and that kept listings must drop. Seed 11's round
digest is pinned in `tests/fixtures/governor_mixed_seed11.sha256`, the
`metrics_sha256=` line the benchmark prints for it.
"""
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.closed_loop import MIX, build_governor, run_round  # noqa: E402
from bench.workloads import ADJECTIVES, NOUNS, scenario_json  # noqa: E402
from momcc.governor.registry import ServiceStatus  # noqa: E402
from momcc.scenario import scenario_from_dict  # noqa: E402


def scan_listings(governor) -> dict[str, list[str]]:
    """Each host's listing as a full scan of the catalog computes it:
    Active services its platform runs and its free resources cover, best
    host revenue first."""
    registry = governor.registry
    by_revenue = sorted(
        (desc for sid, desc in registry.db.services.items()
         if registry.db.status[sid] is ServiceStatus.ACTIVE),
        key=lambda desc: (-registry.host_revenue(desc), desc.service_id),
    )
    runnable: dict[tuple[str, str], list] = {}  # (os, version) -> what it runs
    scanned: dict[tuple, list[str]] = {}  # (os, version, free) -> listing
    listings = {}
    for host_id, profile in governor.host_db.hosts.items():
        platform = (profile.os_name, profile.os_version)
        if platform not in runnable:
            runnable[platform] = [desc for desc in by_revenue if desc.platform.matches(*platform)]
        key = (*platform, profile.free)
        if key not in scanned:
            scanned[key] = [
                desc.service_id for desc in runnable[platform] if key[2].covers(desc.min_resources)
            ]
        listings[host_id] = scanned[key]
    return listings


@pytest.mark.parametrize("seed", [11, 13])
def test_a_governor_mixed_round_answers_every_query_as_the_client_models_it(seed):
    scenario = scenario_from_dict(json.loads(scenario_json("governor_mixed", seed)))
    result = run_round(scenario, build_governor(scenario), seed)
    assert result.unexpected == []
    assert result.problems == []
    assert result.ops >= sum(MIX.values())
    assert result.checks == len(ADJECTIVES) * len(NOUNS) + 2  # every query, then invariants and ledger
    registry = result.governor.registry
    listings = {
        host_id: [desc.service_id for desc in registry.list_available_services(
            profile.free, profile.os_name, profile.os_version
        )]
        for host_id, profile in result.governor.host_db.hosts.items()
    }
    assert listings == scan_listings(result.governor)


def test_the_seed_11_round_digest_is_the_pinned_one():
    """The benchmark's closed-loop digest covers the round's discovery
    answers, listings, hosting decisions, accepted reports, sweeps and
    assessments; a benchmark change to bench/closed_loop.py or
    bench/workloads.py re-pins it."""
    pinned = (ROOT / "tests" / "fixtures" / "governor_mixed_seed11.sha256").read_text().strip()
    scenario = scenario_from_dict(json.loads(scenario_json("governor_mixed", 11)))
    result = run_round(scenario, build_governor(scenario), 11)
    assert f"metrics_sha256={result.digest}" == pinned
