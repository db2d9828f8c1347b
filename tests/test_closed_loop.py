"""One round of the benchmark's closed-loop client as a tier-1 check.

The `governor_mixed` round interleaves discovery with registrations,
hostings, unhosts, reports and sweep deprecations, and checks every
query's answer against the client's own model of the catalog and of the
hostings. Run here, a kept discovery answer that outlives a change fails
the test suite, not only the benchmark. The benchmark's modules are
imported as they are. Seed 11's sweeps deprecate nothing; seed 13's
deprecate one service that a kept query matches.
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
from momcc.scenario import scenario_from_dict  # noqa: E402


@pytest.mark.parametrize("seed", [11, 13])
def test_a_governor_mixed_round_answers_every_query_as_the_client_models_it(seed):
    scenario = scenario_from_dict(json.loads(scenario_json("governor_mixed", seed)))
    result = run_round(scenario, build_governor(scenario), seed)
    assert result.unexpected == []
    assert result.problems == []
    assert result.ops >= sum(MIX.values())
    assert result.checks == len(ADJECTIVES) * len(NOUNS) + 2  # every query, then invariants and ledger
