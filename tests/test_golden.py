"""Output bytes pinned across code changes, and the shared reply dicts.

The digests are those of the bundled scenarios' outputs before the
registry cached its reply encodings; a change that moves any of them
changes what a run computes or writes.
"""
import hashlib
from dataclasses import asdict
from pathlib import Path

import pytest

from momcc.cli import EXIT_OK, main
from momcc.engine import run_scenario
from momcc.governor.registry import service_to_dict
from momcc.scenario import load_scenario

SCENARIOS = Path(__file__).parent.parent / "scenarios"

GOLDEN = {
    "default.json": {
        "metrics.json": "1f4dc7f9f4d1095b00cdd5a564f1031666cefe70d83e5fff898fc852e2a2733a",
        "trace.log": "3fa344bdb41dfceba4997d4a2ab7986c02a6f7790d11fcbc07dc69a18b8bc6b9",
    },
    "composite.json": {
        "metrics.json": "c0d3ac1c3f11af055714eac2d564957a73255e2b070dcda07467645c4bb24e04",
        "trace.log": "9db176be49f5e42689ad3aa176b9eb416bcea70149d518928a0ee649eb1c895f",
    },
}


def asdict_wire(desc) -> dict:
    """The wire encoding as it was built before caching, via asdict."""
    raw = asdict(desc)
    raw["security_level"] = desc.security_level.label
    raw["platform"] = {"os_name": desc.platform.os_name, "min_version": desc.platform.min_version}
    raw["min_resources"] = desc.min_resources.as_dict()
    raw["dependencies"] = list(desc.dependencies)
    return raw


def asdict_listing(desc) -> dict:
    """The discovery encoding as it was built before caching."""
    wire = asdict_wire(desc)
    platform = wire.pop("platform")
    del wire["developer_id"], wire["developer_share"]
    wire["platform_os"] = platform["os_name"]
    wire["platform_min_version"] = platform["min_version"]
    return wire


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_outputs_match_pinned_digests(name, tmp_path, capsys):
    assert main(["run", str(SCENARIOS / name), "--out", str(tmp_path)]) == EXIT_OK
    for filename, digest in GOLDEN[name].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_shared_reply_dicts_are_unchanged_after_a_run(name):
    """Every cached dict went into replies and the trace; none was mutated."""
    registry = run_scenario(load_scenario(SCENARIOS / name)).governor.registry
    db = registry.db
    assert db.wire_dicts and db.listing_dicts
    for service_id, encoded in db.wire_dicts.items():
        assert encoded == asdict_wire(db.services[service_id]) == service_to_dict(db.services[service_id])
    for service_id, encoded in db.listing_dicts.items():
        assert encoded == asdict_listing(db.services[service_id])
