"""Output bytes pinned across code changes, and the shared reply dicts.

The digests are those of the bundled scenarios' outputs (`momcc run`
files and the `momcc snapshot` state file) in both modes, and of one
parallel composite run, at earlier commits; a change that moves any of them
changes what a run computes or writes. The state files are those of
format 2 (the governor's config and journal).
"""
import hashlib
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from conftest import composite_scenario
from momcc.cli import EXIT_OK, _write_outputs, main
from momcc.engine import run_scenario
from momcc.scenario import MODE_WAN_CLOUD, load_scenario, scenario_from_dict
from momcc.snapshot import load_governor, write_snapshot
from momcc.wire import service_to_dict

SCENARIOS = Path(__file__).parent.parent / "scenarios"

GOLDEN = {
    "default.json": {
        "metrics.json": "1f4dc7f9f4d1095b00cdd5a564f1031666cefe70d83e5fff898fc852e2a2733a",
        "trace.log": "3fa344bdb41dfceba4997d4a2ab7986c02a6f7790d11fcbc07dc69a18b8bc6b9",
        "metrics.csv": "f5a4823e339d451314f28e26f7724a15803a564468da7abb4d2deb6bbe52c4fd",
        "ledger.csv": "75a3fb7032a49bbc9f046737edc8394122c0f802e2145855b046b4efc4f681ca",
        "state.json": "8181fe057f2212bac1421898c2442935a64a5100a9ec871e5fefbd36daa67beb",
    },
    "composite.json": {
        "metrics.json": "c0d3ac1c3f11af055714eac2d564957a73255e2b070dcda07467645c4bb24e04",
        "trace.log": "9db176be49f5e42689ad3aa176b9eb416bcea70149d518928a0ee649eb1c895f",
        "metrics.csv": "cfed24fd6464b17e3de96451f6c62f2b770016aceebad477933fafb9ca37f117",
        "ledger.csv": "263d10d365ad62e878bcfaf711936281816eaff06596581cb228fc7ff5330ef1",
        "state.json": "8317c5c943d1d739107920e022ce32706c85aa04290273cd48eb93e2243f93f3",
    },
}

# The bundled composite runs its dependencies one at a time; this run
# fans them out, and its svc-b host fails half of its invocations.
PARALLEL_COMPOSITE = {
    "metrics.json": "e358868c6d998bc98b3f27ebc1a6433464c06319cf08a41a830526b8b49a067d",
    "trace.log": "1f3443e9e527cb11b0f85b0ba47a3626140c1a78a2cf7aeab1064525651d997b",
}

# The bundled scenarios in the WAN baseline: one always-on cloud host,
# placed on every service by `preprovision_host` instead of admission.
WAN_CLOUD = {
    "default.json": {
        "metrics.json": "1f54937fc45018f528b6480349f52486d1148be6e7e5392e8ea319bd1a3786c0",
        "trace.log": "9f4c62988a5162a053124f4d78ac4d123ab3cbc9624e4a7eb176be4ab183dec6",
        "ledger.csv": "2d19e3dc935007b1329cb4803f8191b6799a583198ccfcad473db1380c1433c9",
        "state.json": "f31e672a843a77df74acb1f120e3533c0be700093e660d5f492a972738265ac6",
    },
    "composite.json": {
        "metrics.json": "54ef533c86fe8bd644d97922b2995e766855b03db592945ec2499b7021d73713",
        "trace.log": "43bd00c3e86785ba4aa9fedfd19f8305b45f136922e0bb13b82525e9f067f6ed",
        "ledger.csv": "12375f566004995e3225fe7e4cdd54b51a09a78d73093471e191a3fe18f21701",
        "state.json": "cb3294d21c0819491393740200fdeec2da9d54a03100d27d9def02fb7c8dfbc2",
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


def assert_restores_unchanged(state: Path) -> None:
    """A pinned state file passes every restore check and writes back as it was read."""
    restored = state.with_name("restored.json")
    write_snapshot(restored, load_governor(state))
    assert restored.read_bytes() == state.read_bytes()


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_outputs_match_pinned_digests(name, tmp_path, capsys):
    assert main(["run", str(SCENARIOS / name), "--out", str(tmp_path)]) == EXIT_OK
    state = str(tmp_path / "state.json")
    assert main(["snapshot", str(SCENARIOS / name), "--out", state]) == EXIT_OK
    for filename, digest in GOLDEN[name].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename
    assert_restores_unchanged(tmp_path / "state.json")


def test_parallel_composite_outputs_match_pinned_digests(tmp_path):
    scenario = scenario_from_dict(composite_scenario(parallel=True, dep_b_failure=0.5))
    _write_outputs(run_scenario(scenario), tmp_path)
    for filename, digest in PARALLEL_COMPOSITE.items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename


@pytest.mark.parametrize("name", sorted(WAN_CLOUD))
def test_wan_cloud_outputs_match_pinned_digests(name, tmp_path):
    scenario = replace(load_scenario(SCENARIOS / name), baseline_mode=MODE_WAN_CLOUD)
    result = run_scenario(scenario)
    _write_outputs(result, tmp_path)
    write_snapshot(tmp_path / "state.json", result.governor)
    for filename, digest in WAN_CLOUD[name].items():
        assert hashlib.sha256((tmp_path / filename).read_bytes()).hexdigest() == digest, filename
    assert_restores_unchanged(tmp_path / "state.json")


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
