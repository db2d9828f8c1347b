"""No governor or wire record is assigned after it is built.

`SecurityCertificate`, `ExecutionReport`, `HostProfile` and
`AllocationDecision` are slotted and not frozen, because every report
or hosting request builds them and a frozen `__init__` costs several
times a slotted one; so are `ServiceListing` and `DiscoveryResult`,
which discovery builds per service, and the message records
`ProtocolMessage`, `Outbound` and `TraceRecord`, which every hop builds.
The code relies on each one staying as it was built: a profile is
replaced whole through `HostDatabase.put`, which moves its ranking
entries, reports and decisions are shared by the history, its indexes
and the state file, the registry hands its kept discovery results to
every caller, and a trace record holds the very message its recipient
handled, so the trace shows what was delivered. Here a guard stands in
for `frozen=True`: it lets `__init__` set each field once and raises
`FrozenInstanceError` on any later assignment, while whole runs, a
snapshot round trip and a benchmark round execute under it.
"""
import json
import sys
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.closed_loop import build_governor, run_round  # noqa: E402
from bench.workloads import scenario_json  # noqa: E402
from momcc.cli import _write_outputs  # noqa: E402
from momcc.domain import ExecutionReport, HostProfile, ResourceVector, SecurityCertificate  # noqa: E402
from momcc.engine import run_scenario  # noqa: E402
from momcc.governor import AllocationDecision, DiscoveryResult, ServiceGovernor  # noqa: E402
from momcc.governor.registry import ServiceListing  # noqa: E402
from momcc.scenario import MODE_MARKETPLACE, MODE_WAN_CLOUD, load_scenario, scenario_from_dict  # noqa: E402
from momcc.snapshot import load_governor, snapshot_governor, write_snapshot  # noqa: E402
from momcc.wire import MessageKind, Outbound, ProtocolMessage, Role, TraceRecord  # noqa: E402

SCENARIOS = ROOT / "scenarios"
RECORDS = (SecurityCertificate, ExecutionReport, HostProfile, AllocationDecision,
           ServiceListing, DiscoveryResult, ProtocolMessage, Outbound, TraceRecord)


def _set_once(self, name, value):
    try:
        getattr(self, name)
    except AttributeError:  # an empty slot: `__init__` is setting it
        object.__setattr__(self, name, value)
        return
    raise FrozenInstanceError(f"cannot assign to field {name!r} of a built {type(self).__name__}")


@pytest.fixture
def set_once(monkeypatch):
    """Each record may set a field once, as its `__init__` does."""
    for cls in RECORDS:
        monkeypatch.setattr(cls, "__setattr__", _set_once)


def test_the_guard_refuses_an_assignment_after_init(set_once):
    profile = HostProfile("host-a", "Android", "4.0", ResourceVector(1, 1, 1, 1))
    with pytest.raises(FrozenInstanceError):
        profile.alive = False
    assert profile.alive is True
    assert replace(profile, alive=False).alive is False


def test_the_guard_covers_the_message_records(set_once):
    message = ProtocolMessage(MessageKind.INVOKE, Role.REQUESTER, "inv-1", {})
    outbound = Outbound("host-a", "wlan", message)
    record = TraceRecord(0.0, 1.0, "req-000", "host-a", message)
    for built, name in ((message, "payload"), (outbound, "delay_ms"), (record, "received_at")):
        with pytest.raises(FrozenInstanceError):
            setattr(built, name, None)


@pytest.mark.parametrize("mode", [MODE_MARKETPLACE, MODE_WAN_CLOUD])
@pytest.mark.parametrize("name", ["default.json", "composite.json"])
def test_a_bundled_run_and_its_outputs_assign_no_record(set_once, name, mode, tmp_path):
    scenario = replace(load_scenario(SCENARIOS / name), baseline_mode=mode)
    result = run_scenario(scenario)
    _write_outputs(result, tmp_path)
    assert result.governor.check_invariants() == []
    assert result.governor.host_db.reports


def test_a_snapshot_round_trip_assigns_no_record(set_once, tmp_path):
    governor = run_scenario(load_scenario(SCENARIOS / "default.json")).governor
    state = tmp_path / "state.json"
    write_snapshot(state, governor)
    restored = load_governor(state)
    assert snapshot_governor(restored) == snapshot_governor(governor)


def test_a_governor_mixed_round_assigns_no_record(set_once):
    scenario = scenario_from_dict(json.loads(scenario_json("governor_mixed", 11)))
    result = run_round(scenario, build_governor(scenario), 11)
    assert result.unexpected == []
    assert result.problems == []


def test_a_departure_assigns_no_record(set_once, service):
    governor = ServiceGovernor()
    governor.billing.negotiate_developer(
        service.developer_id, service.price_per_invocation, service.developer_share
    )
    governor.registry.register_service(service)
    governor.hosts.register_host("host-a", "Android", "4.0", ResourceVector(4096, 64, 128, 5000), 9000)
    assert governor.request_hosting("host-a", service.service_id).confirmed
    governor.hosts.mark_departed("host-a")
    profile = governor.host_db.hosts["host-a"]
    assert (profile.alive, profile.hosted) == (False, frozenset())
    assert governor.check_invariants() == []
