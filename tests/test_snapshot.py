"""Snapshot/restore round trips, replay of the journal, and integrity checking."""
import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import governor_with, make_service, scenario_dict
from momcc.domain import Outcome, ResourceVector
from momcc.engine import run_scenario
from momcc.errors import SnapshotIntegrityError, UnknownEntityError
from momcc.governor import BillingUnit, GovernorConfig, ProfilerPolicy, ServiceGovernor, TrustPolicy
from momcc.governor.journal import REPLAYED
from momcc.governor.registry import ServiceStatus
from momcc.scenario import (
    MODE_MARKETPLACE,
    MODE_WAN_CLOUD,
    POLICIES_SCHEMA,
    governor_config_from,
    load_scenario,
    policies_of,
    scenario_from_dict,
    validate_scenario,
)
from momcc.schema import compile_schema
from momcc.snapshot import (
    _digest,
    load_governor,
    read_snapshot,
    restore_governor,
    snapshot_governor,
    write_snapshot,
)

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from bench.closed_loop import MIX, SWEEP_EVERY, RoundResult, _Client, build_governor, run_round  # noqa: E402
from bench.workloads import scenario_json  # noqa: E402

SCENARIOS = ROOT / "scenarios"

# A config other than the defaults in every unit that reads one.
OTHER_CONFIG = GovernorConfig(
    governor_commission=0.1,
    trust_policy=TrustPolicy(alpha=0.5),
    profiler_policy=ProfilerPolicy(window=5),
)


@pytest.fixture
def governor_after_run():
    return run_scenario(scenario_from_dict(scenario_dict(seed=3, duration_hours=1.0))).governor


def resealed(snap: dict) -> dict:
    """`snap` with its checksum recomputed after an edit."""
    snap["sha256"] = _digest(snap["payload"])
    return snap


def refusal(snap: dict) -> str:
    with pytest.raises(SnapshotIntegrityError) as err:
        restore_governor(resealed(snap))
    return str(err.value)


def _optional(**sections) -> st.SearchStrategy[dict]:
    """Dicts holding any subset of `sections`, each drawn from its strategy."""
    return st.fixed_dictionaries({}, optional=sections)


_UNIT = st.floats(0, 1) | st.integers(0, 1)
_NONNEGATIVE = st.floats(0, 1e6) | st.integers(0, 10**6)
_COUNT = st.integers(0, 10**4)

# `policies` sections the scenario schema admits; some break a rule the
# policies' own checks hold (promote_high must dominate promote_medium).
POLICIES = _optional(
    trust=_optional(
        alpha=st.floats(0, 1, exclude_min=True, exclude_max=True),
        promote_medium=st.tuples(_UNIT, _COUNT).map(list),
        promote_high=st.tuples(_UNIT, _COUNT).map(list),
        hysteresis=_NONNEGATIVE,
        rating_weight=_UNIT,
    ),
    billing=_optional(governor_commission=_UNIT),
    profiler=_optional(failure_threshold=_UNIT, window=st.integers(1, 10**4),
                       sweep_interval_hours=st.floats(0, 100, exclude_min=True)),
    registry=_optional(footprint_ceiling=st.fixed_dictionaries(
        {name: _COUNT for name in ("cpu", "memory", "storage", "energy")})),
    assessment_weights=st.lists(_NONNEGATIVE, min_size=3, max_size=3),
)

_policies_diagnostics = compile_schema(POLICIES_SCHEMA)


@settings(max_examples=200, deadline=None)
@given(POLICIES)
def test_policies_of_is_the_inverse_of_governor_config_from(policies):
    """A state file saves a config as `policies_of` writes it and a restore
    builds it back with `governor_config_from`: the config comes back equal,
    and its section passes the scenario's own `policies` rules."""
    assert _policies_diagnostics(policies) == []
    try:
        config = governor_config_from(policies)
    except ValueError:
        assume(False)
    saved = policies_of(config)
    assert _policies_diagnostics(saved) == []
    assert governor_config_from(saved) == config


class TestRoundTrip:
    def test_restore_of_snapshot_reproduces_state(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        restored = restore_governor(snap)
        assert snapshot_governor(restored) == snap
        assert restored.journal == governor_after_run.journal

    def test_a_service_registered_with_list_dependencies_restores_to_itself(self):
        governor = governor_with([make_service(service_id="svc-a"),
                                  make_service(service_id="svc-b", dependencies=["svc-a"])])
        restored = restore_governor(snapshot_governor(governor))
        assert governor.registry.get("svc-b").dependencies == ("svc-a",)
        assert restored.registry.get("svc-b") == governor.registry.get("svc-b")
        assert restored.journal == governor.journal

    def test_round_trip_preserves_behavioral_state(self, governor_after_run):
        restored = restore_governor(snapshot_governor(governor_after_run))
        original = governor_after_run
        assert restored.config == original.config
        assert restored.registry.db.services == original.registry.db.services
        assert restored.registry.db.status == original.registry.db.status
        assert restored.host_db.hosts == original.host_db.hosts
        assert restored.host_db.reports == original.host_db.reports
        assert restored.hosts.decisions == original.hosts.decisions
        assert restored.billing.audit() == original.billing.audit()
        assert restored.billing.total_metered() == original.billing.total_metered()
        assert restored.profiler.escalations == original.profiler.escalations
        assert restored.check_invariants() == []

    def test_restored_ledger_still_rejects_replay(self, governor_after_run):
        restored = restore_governor(snapshot_governor(governor_after_run))
        entries = restored.billing.audit()
        journal = list(restored.journal)
        assert entries
        for report in restored.host_db.reports:
            assert restored.ingest_report(report) is False  # each one already ingested and metered
        assert restored.billing.audit() == entries
        assert restored.journal == journal  # a call that changes nothing is not recorded

    def test_a_restore_keeps_the_config_and_the_hosting_decisions(self):
        """A restored governor runs by the saved config and holds every
        hosting decision, not only the state they left behind."""
        scenario = replace(load_scenario(SCENARIOS / "default.json"), governor_config=OTHER_CONFIG)
        original = run_scenario(scenario).governor
        assert len(original.hosts.decisions) == 16
        restored = restore_governor(snapshot_governor(original))
        assert restored.config == original.config
        assert restored.hosts.decisions == original.hosts.decisions
        assert restored.hosts.count_trace_violations() == original.hosts.count_trace_violations()

    def test_file_round_trip_is_byte_stable(self, governor_after_run, tmp_path):
        first = tmp_path / "state.json"
        second = tmp_path / "state2.json"
        write_snapshot(first, governor_after_run)
        write_snapshot(second, load_governor(first))
        assert first.read_bytes() == second.read_bytes()

    def test_restored_governor_lists_by_the_restored_commission(self):
        """The registry ranks listings by the host share billing settles,
        so both read the commission the snapshot carries."""
        governor = ServiceGovernor(GovernorConfig(governor_commission=0.1))
        for desc in (
            make_service(service_id="a", developer_id="dev-a", price=1000, developer_share=0.85),
            make_service(service_id="b", developer_id="dev-b", price=10, developer_share=0.0),
        ):
            governor.billing.negotiate_developer(
                desc.developer_id, desc.price_per_invocation, desc.developer_share
            )
            governor.registry.register_service(desc)

        def listed(gov):
            offered = gov.registry.list_available_services(
                ResourceVector(2048, 32, 64, 2000), "Android", "4.0"
            )
            return [desc.service_id for desc in offered]

        assert listed(governor) == ["a", "b"]  # host earns 50 on a, 9 on b
        assert listed(restore_governor(snapshot_governor(governor))) == ["a", "b"]


class TestJournal:
    def test_the_replayed_calls_are_the_calls_a_run_makes(self):
        """Every public write is one a run or the closed-loop benchmark
        makes, so no write has a second, test-only door: the journal
        names of both bundled scenarios in both modes and of one
        `governor_mixed` round are exactly `REPLAYED`."""
        names = set()
        for name in ("default.json", "composite.json"):
            scenario = load_scenario(SCENARIOS / name)
            for mode in (MODE_MARKETPLACE, MODE_WAN_CLOUD):
                governor = run_scenario(replace(scenario, baseline_mode=mode)).governor
                names |= {entry[0] for entry in governor.journal}
        scenario = scenario_from_dict(json.loads(scenario_json("governor_mixed", 13)))
        result = run_round(scenario, build_governor(scenario), 13)
        assert result.unexpected == []
        names |= {entry[0] for entry in result.governor.journal}
        assert names == REPLAYED.keys()

    def test_a_run_records_its_calls_from_outside_once_each(self, governor_after_run):
        journal = governor_after_run.journal
        assert {entry[0] for entry in journal} <= REPLAYED.keys()
        assert sum(name == "hosts.ingest_report" for name, *_ in journal) == len(governor_after_run.host_db.reports)
        assert sum(name == "hosts.request_hosting" for name, *_ in journal) == len(governor_after_run.hosts.decisions)

    def test_calls_that_raise_or_change_nothing_are_not_recorded(self, governor_after_run):
        governor = governor_after_run
        journal = list(governor.journal)
        assert governor.ingest_report(governor.host_db.reports[0]) is False  # a re-delivery
        with pytest.raises(UnknownEntityError):
            governor.request_hosting("host-000", "svc-ghost")
        with pytest.raises(UnknownEntityError):
            governor.hosts.unhost("host-ghost", "svc-resize")
        assert governor.profiler.substitution_sweep() == []
        assert governor.journal == journal

    def test_the_wan_baseline_replays_its_preprovisioned_host(self):
        scenario = replace(scenario_from_dict(scenario_dict(seed=3, duration_hours=0.5)), baseline_mode="wan_cloud")
        governor = run_scenario(scenario).governor
        assert [entry[0] for entry in governor.journal].count("preprovision_host") == 1
        restored = restore_governor(snapshot_governor(governor))
        assert restored.host_db.hosts == governor.host_db.hosts
        assert restored.journal == governor.journal


def _drive(scenario, seed: int, split: int | None = None):
    """One closed-loop round on a fresh governor; after step `split`, the
    client goes on with a governor restored from a snapshot."""
    client = _Client(build_governor(scenario), scenario, seed, clock=lambda: 0)
    result = RoundResult()
    for index, kind in enumerate(client.kinds, start=1):
        client.step(kind, result)
        if index % SWEEP_EVERY == 0:
            client.sweep(result)
        if index == split:
            client.gov = restore_governor(snapshot_governor(client.gov))
    client.check(result)
    return client.hash.hexdigest(), result, snapshot_governor(client.gov)


class TestContinuation:
    """A governor restored at any point answers the rest of a sequence as
    the uninterrupted governor does, under a config other than the defaults."""

    def test_a_restore_anywhere_continues_as_the_uninterrupted_run(self):
        scenario = scenario_from_dict(json.loads(scenario_json("governor_mixed", 13)))
        scenario = replace(scenario, governor_config=OTHER_CONFIG)
        digest, result, final = _drive(scenario, 13)
        assert result.unexpected == [] and result.problems == []
        steps = sum(MIX.values())
        for split in (1, steps // 2 + 7, steps):
            assert _drive(scenario, 13, split) == (digest, result, final), split


class TestIntegrity:
    def test_truncated_file_fails(self, governor_after_run, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, governor_after_run)
        data = path.read_bytes()
        path.write_bytes(data[: len(data) // 2])
        with pytest.raises(SnapshotIntegrityError):
            load_governor(path)

    def test_edited_payload_fails_checksum(self, governor_after_run, tmp_path):
        path = tmp_path / "state.json"
        write_snapshot(path, governor_after_run)
        snap = json.loads(path.read_text())
        snap["payload"]["config"]["billing"]["governor_commission"] = 0.1
        path.write_text(json.dumps(snap))
        with pytest.raises(SnapshotIntegrityError) as err:
            load_governor(path)
        assert "checksum" in str(err.value)

    def test_wrong_kind_rejected(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        snap["kind"] = "other-thing"
        with pytest.raises(SnapshotIntegrityError):
            restore_governor(snap)

    def test_a_version_1_file_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        snap["format_version"] = 1
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value).startswith("unsupported snapshot version 1: ")

    def test_missing_field_rejected(self):
        with pytest.raises(SnapshotIntegrityError):
            restore_governor({"format_version": 2, "kind": "governor-state"})

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all{{{")
        with pytest.raises(SnapshotIntegrityError):
            read_snapshot(path)

    def test_a_payload_of_other_parts_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        snap["payload"]["hosts"] = {}
        assert refusal(snap) == (
            "snapshot payload breaks a rule: /: Additional properties are not allowed ('hosts' was unexpected)"
        )

    def test_a_journal_that_is_no_array_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        snap["payload"]["journal"] = {}
        assert refusal(snap) == "snapshot payload breaks a rule: /journal: {} is not of type 'array'"

    def test_a_file_that_is_no_object_is_refused(self, tmp_path):
        path = tmp_path / "state.json"
        path.write_text("[]")
        with pytest.raises(SnapshotIntegrityError) as err:
            load_governor(path)
        assert str(err.value) == "snapshot envelope breaks a rule: /: [] is not of type 'object'"

    def test_an_envelope_without_a_checksum_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        del snap["sha256"]
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == "snapshot envelope breaks a rule: /: 'sha256' is a required property"

    @pytest.mark.parametrize("edit, message", [
        (lambda config: config["billing"].update(governor_commission=1.5),
         "/billing/governor_commission: 1.5 is greater than the maximum of 1"),
        (lambda config: config["trust"].update(verified_bonus=0.2),
         "/trust: Additional properties are not allowed ('verified_bonus' was unexpected)"),
        (lambda config: config["profiler"].update(window=0), "/profiler/window: 0 is less than the minimum of 1"),
        (lambda config: config["trust"].update(promote_high=[0.4, 30]),
         "promote_high thresholds must strictly dominate promote_medium"),
    ], ids=["commission", "unknown field", "window", "thresholds"])
    def test_a_config_a_scenario_would_refuse_is_refused(self, governor_after_run, edit, message):
        snap = snapshot_governor(governor_after_run)
        edit(snap["payload"]["config"])
        assert refusal(snap) == f"snapshot config breaks a rule: {message}"


def _entry(snap: dict, name: str) -> tuple[int, list]:
    """The index and the entry of the first call named `name`."""
    journal = snap["payload"]["journal"]
    index = next(i for i, entry in enumerate(journal) if entry[0] == name)
    return index, journal[index]


class TestEditedJournal:
    """A saved call that does not decode, or that raises on replay, means
    the file was edited: the restore names the entry."""

    @pytest.mark.parametrize("name", ["hosts._place", "registry.restore_state", "__class__", "journal.clear"])
    def test_a_call_outside_the_replayed_set_is_refused(self, governor_after_run, name):
        snap = snapshot_governor(governor_after_run)
        snap["payload"]["journal"].insert(2, [name, "host-000"])
        assert refusal(snap) == (
            f"snapshot journal entry 2 does not replay: /0: {name!r} is not one of {list(REPLAYED)!r}"
        )

    def test_a_report_for_an_unknown_host_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "hosts.ingest_report")
        entry[1]["host_id"] = "host-ghost"
        assert refusal(snap) == (
            f"snapshot journal entry {index} does not replay: UnknownEntityError: unknown host: 'host-ghost'"
        )

    def test_a_service_that_leaves_no_room_for_the_commission_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "registry.register_service")
        entry[1]["developer_share"] = 0.9
        assert refusal(snap) == (
            f"snapshot journal entry {index} does not replay: RegistrationRejected: "
            "service 'svc-resize': developer share 0.9 plus commission 0.2 exceeds 1"
        )

    def test_a_forward_dependency_is_refused(self, governor_after_run):
        """A service registered before one of its dependencies: a state the
        registry no longer accepts."""
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "registry.register_service")
        entry[1]["dependencies"] = ["svc-route"]
        assert refusal(snap) == (
            f"snapshot journal entry {index} does not replay: RegistrationRejected: "
            "service 'svc-resize' depends on unregistered services ['svc-route']"
        )

    def test_a_hosting_request_for_an_uncatalogued_service_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "hosts.request_hosting")
        entry[2] = "svc-nope"
        assert refusal(snap) == (
            f"snapshot journal entry {index} does not replay: UnknownEntityError: unknown service: 'svc-nope'"
        )

    @pytest.mark.parametrize("edit, message", [
        (lambda entry: entry.__setitem__(4, [2048, 32, 64, 1500]),
         "/4: [2048, 32, 64, 1500] is not of type 'object'"),
        (lambda entry: entry[4].pop("energy"), "/4: 'energy' is a required property"),
        (lambda entry: entry.__setitem__(5, 20000.0), "/5: 20000.0 is not of type 'integer'"),
        (lambda entry: entry.__setitem__(1, True), "/1: True is not of type 'string'"),
        (lambda entry: entry.pop(),
         "/: ['hosts.register_host', 'host-000', 'Android', '4.0', "
         "{'cpu': 2048, 'memory': 32, 'storage': 64, 'energy': 1500}] is too short"),
        (lambda entry: entry.__setitem__(2, ""), "/2: '' should be non-empty"),
        (lambda entry: entry.__setitem__(3, "4.x"), r"/3: '4.x' does not match '^\\d+(\\.\\d+){0,2}\\Z'"),
    ], ids=["capacity as a list", "capacity missing energy", "float battery", "bool id", "too few",
            "empty OS", "letter in version"])
    def test_an_argument_of_the_wrong_shape_is_refused(self, governor_after_run, edit, message):
        """Each argument meets the rule a scenario's host meets; an empty
        OS used to pass, and the next entry failed as `no certificate`."""
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "hosts.register_host")
        edit(entry)
        assert refusal(snap) == f"snapshot journal entry {index} does not replay: {message}"

    @pytest.mark.parametrize("edit, message", [
        (lambda need: need.update(gpu=1),
         "/1/min_resources: Additional properties are not allowed ('gpu' was unexpected)"),
        (lambda need: need.pop("energy"), "/1/min_resources: 'energy' is a required property"),
        (lambda need: need.update(gpu=need.pop("energy")),
         "/1/min_resources: 'energy' is a required property; "
         "/1/min_resources: Additional properties are not allowed ('gpu' was unexpected)"),
    ], ids=["extra", "missing", "renamed"])
    def test_a_service_need_of_other_resources_is_refused(self, governor_after_run, edit, message):
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "registry.register_service")
        edit(entry[1]["min_resources"])
        assert refusal(snap) == f"snapshot journal entry {index} does not replay: {message}"

    @pytest.mark.parametrize("call, edit, message", [
        ("registry.register_service", lambda saved: saved.update(name=5), "/1/name: 5 is not of type 'string'"),
        ("registry.register_service", lambda saved: saved.update(security_level="low"),
         "/1/security_level: 'low' is not one of ['Low', 'Medium', 'High']"),
        ("registry.register_service", lambda saved: saved.update(description=None),
         "/1/description: None is not of type 'string'"),
        ("registry.register_service", lambda saved: saved.update(price_per_invocation=1.5),
         "/1/price_per_invocation: 1.5 is not of type 'integer'"),
        ("registry.register_service", lambda saved: saved.update(price_per_invocation=True),
         "/1/price_per_invocation: True is not of type 'integer'"),
        ("registry.register_service", lambda saved: saved.update(owner="dev-alpha"),
         "/1: Additional properties are not allowed ('owner' was unexpected)"),
        ("registry.register_service", lambda saved: saved.update(dependencies=""),
         "/1/dependencies: '' is not of type 'array'"),
        ("hosts.ingest_report", lambda saved: saved.update(requester_pseudonym=5),
         "/1/requester_pseudonym: 5 is not of type 'string'"),
        ("hosts.ingest_report", lambda saved: saved.update(energy_used_mwh=1.5),
         "/1/energy_used_mwh: 1.5 is not of type 'integer'"),
        ("hosts.ingest_report", lambda saved: saved.update(ok="yes"), "/1/ok: 'yes' is not of type 'boolean'"),
        ("hosts.ingest_report", lambda saved: saved.update(rating=4.5),
         "/1/rating: 4.5 is not of type 'integer', 'null'"),
        ("hosts.ingest_report", lambda saved: saved.update(rating=True),
         "/1/rating: True is not of type 'integer', 'null'"),
        ("hosts.ingest_report", lambda saved: saved.pop("rating"), "/1: 'rating' is a required property"),
        ("hosts.ingest_report", lambda saved: saved.update(attempt=2),
         "/1: Additional properties are not allowed ('attempt' was unexpected)"),
    ], ids=["numeric name", "lower-case level", "null description", "fractional price", "bool price",
            "extra key", "dependencies as text", "numeric pseudonym", "fractional energy", "ok as text",
            "fractional rating", "bool rating", "no rating", "extra report key"])
    def test_a_saved_record_a_scenario_would_refuse_is_refused_at_its_entry(self, governor_after_run, call,
                                                                          edit, message):
        """Each of these once restored without complaint (the last four
        kinds to a governor whose own state file differs from the one it
        read); now the record's schema refuses it at its own entry."""
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, call)
        edit(entry[1])
        assert refusal(snap) == f"snapshot journal entry {index} does not replay: {message}"

    def test_a_minimum_version_no_listing_could_compare_is_refused(self, governor_after_run):
        """The schemas' pattern refuses a trailing newline, as it does
        in a scenario."""
        snap = snapshot_governor(governor_after_run)
        index, entry = _entry(snap, "registry.register_service")
        entry[1]["platform"]["min_version"] = "3.2\n"
        assert refusal(snap) == (
            f"snapshot journal entry {index} does not replay: "
            r"/1/platform/min_version: '3.2\n' does not match '^\\d+(\\.\\d+){0,2}\\Z'"
        )

    def test_an_entry_that_is_no_array_is_refused(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        snap["payload"]["journal"][0] = {"call": "billing.negotiate_developer"}
        assert refusal(snap) == (
            "snapshot journal entry 0 does not replay: /: {'call': 'billing.negotiate_developer'} "
            "is not of type 'array'"
        )

    def test_calls_that_replay_into_a_broken_state_are_refused_by_the_rules(self, governor_after_run,
                                                                               monkeypatch):
        """Each saved call checks before it writes, so a replay breaks a
        rule only when a unit writes wrongly: here billing meters nothing,
        so no successful report is on the ledger. That is a
        `check_invariants()` line, so the restore refuses it after the
        replay."""
        snap = snapshot_governor(governor_after_run)
        monkeypatch.setattr(BillingUnit, "_meter_report", lambda self, report, desc: False)
        assert refusal(snap) == (
            "snapshot breaks a rule: ledger: correlation ids differ from the successful report ids"
        )


# -- each rule a constructor once checked, held at both JSON doors ------------

def _put(document, path: tuple, value) -> None:
    """Set the place at `path` in `document` to `value`, making any section on the way."""
    *parents, last = path
    for key in parents:
        document = document.setdefault(key, {}) if isinstance(document, dict) else document[key]
    document[last] = value


# A scenario place, the saved place that carries the same field (a call's
# first entry and the place in it, or the config when the call is None),
# a value that breaks the field's rule, and the rule's words. Each rule
# was checked again by a constructor or by `negotiate_developer` before
# the schemas held it at both doors.
DOOR_RULES = [
    (("services", 0, "price_per_invocation"), "billing.negotiate_developer", (2,), -1,
     "-1 is less than the minimum of 0"),
    (("services", 0, "price_per_invocation"), "registry.register_service", (1, "price_per_invocation"), -1,
     "-1 is less than the minimum of 0"),
    (("services", 0, "developer_share"), "billing.negotiate_developer", (3,), 1.5,
     "1.5 is greater than the maximum of 1"),
    (("services", 0, "developer_share"), "registry.register_service", (1, "developer_share"), -0.5,
     "-0.5 is less than the minimum of 0"),
    (("services", 0, "developer_id"), "billing.negotiate_developer", (1,), "", "'' should be non-empty"),
    (("services", 0, "service_id"), "registry.register_service", (1, "service_id"), "", "'' should be non-empty"),
    (("services", 0, "security_level"), "registry.register_service", (1, "security_level"), "LOW",
     "'LOW' is not one of ['Low', 'Medium', 'High']"),
    (("services", 0, "platform", "os_name"), "registry.register_service", (1, "platform", "os_name"), "",
     "'' should be non-empty"),
    (("services", 0, "platform", "min_version"), "registry.register_service", (1, "platform", "min_version"),
     "3.x", r"'3.x' does not match '^\\d+(\\.\\d+){0,2}\\Z'"),
    (("services", 0, "min_resources", "gpu"), "registry.register_service", (1, "min_resources", "gpu"), 1,
     "Additional properties are not allowed ('gpu' was unexpected)"),
    (("policies", "trust", "alpha"), None, ("trust", "alpha"), 1,
     "1 is greater than or equal to the maximum of 1"),
    (("policies", "trust", "hysteresis"), None, ("trust", "hysteresis"), -0.1, "-0.1 is less than the minimum of 0"),
    (("policies", "trust", "rating_weight"), None, ("trust", "rating_weight"), 1.5,
     "1.5 is greater than the maximum of 1"),
    (("policies", "billing", "governor_commission"), None, ("billing", "governor_commission"), -0.1,
     "-0.1 is less than the minimum of 0"),
    (("policies", "profiler", "window"), None, ("profiler", "window"), 0, "0 is less than the minimum of 1"),
    (("policies", "profiler", "failure_threshold"), None, ("profiler", "failure_threshold"), 1.05,
     "1.05 is greater than the maximum of 1"),
]


@pytest.mark.parametrize("scenario_place, call, saved_place, value, message", DOOR_RULES,
                         ids=["/".join(map(str, rule[0])) + ("" if rule[1] is None else f" in {rule[1]}")
                              for rule in DOOR_RULES])
def test_each_rule_a_record_no_longer_checks_is_held_at_both_doors(governor_after_run, scenario_place, call,
                                                                   saved_place, value, message):
    document = scenario_dict()
    _put(document, scenario_place, value)
    lines = validate_scenario(document)
    snap = snapshot_governor(governor_after_run)
    if call is None:
        _put(snap["payload"]["config"], saved_place, value)
        refused = "snapshot config breaks a rule: /"
    else:
        index, entry = _entry(snap, call)
        _put(entry, saved_place, value)
        refused = f"snapshot journal entry {index} does not replay: /"
    try:
        restore_governor(resealed(snap))
        text = "restored"
    except SnapshotIntegrityError as exc:
        text = str(exc)
    # Both doors are judged on every run, so a rule lost at one names that door.
    at_validate = [line.split(": ", 1)[1] for line in lines] == [message]
    at_restore = text.startswith(refused) and text.endswith(f": {message}")
    assert (at_validate, at_restore) == (True, True), (lines, text)


# -- every rule `check_invariants()` keeps, broken in a live governor ----------

def _stored(governor, host_id, profile):
    """Store a profile under `host_id` bypassing `put`, and rebuild the ranking."""
    governor.host_db.hosts[host_id] = profile
    governor.host_db.keys, governor.host_db.ranked = governor.host_db.scan_ranked()


def _unsettleable_share(governor):
    db = governor.registry.db
    db.services["svc-resize"] = replace(db.services["svc-resize"], developer_share=0.9)
    return ["service 'svc-resize': developer share 0.9 plus commission 0.2 exceeds 1"]


def _status_dropped(governor):
    del governor.registry.db.status["svc-resize"]
    return ["status and services name different ids: ['svc-resize']"]


def _status_added(governor):
    governor.registry.db.status["svc-ghost"] = ServiceStatus.ACTIVE
    return ["status and services name different ids: ['svc-ghost']"]


def _correlation_billed_twice(governor):
    billing = governor.billing
    first = billing._rows[0]
    billing._entry_seq += 1
    billing._rows.append((billing._entry_seq, *first[1:]))
    return [f"ledger: correlation id {first[1]!r} is on more than one row"]


def _entry_seq_below_saved(governor):
    governor.billing._entry_seq = 1
    return [f"ledger: entry number {len(governor.billing._rows)} is above entry_seq 1"]


def _uncatalogued_hosted(governor):
    profile = governor.host_db.hosts["host-000"]
    _stored(governor, "host-000", replace(profile, hosted=profile.hosted | {"svc-nope"}))
    return ["host host-000: hosts uncatalogued services ['svc-nope']"]


def _profile_of_another_host(governor):
    _stored(governor, "host-001", replace(governor.host_db.hosts["host-001"], host_id="host-009"))
    return ["host host-001: profile names host host-009"]


def _certificate_of_another_host(governor):
    profile = governor.host_db.hosts["host-001"]
    _stored(governor, "host-001", replace(profile, certificate=replace(profile.certificate, host_id="host-000")))
    return ["host host-001: certificate names host host-000"]


def _report_repeated(governor):
    first = governor.host_db.reports[0]
    governor.host_db.add_report(first)
    return [
        f"host {first.host_id}: certificate attempts differ from its reports",
        f"hosts: report id {first.report_id!r} is in the history more than once",
    ]


def _report_of_unknown_host(governor):
    governor.host_db.add_report(replace(
        governor.host_db.reports[0], report_id="rpt-ghost", host_id="host-ghost",
        outcome=Outcome.failure("crash"), rating=None,
    ))
    return ["hosts: report 'rpt-ghost' names unknown host 'host-ghost'"]


def _report_of_unknown_service(governor):
    host_db = governor.host_db
    first = host_db.reports[0] = replace(host_db.reports[0], service_id="svc-ghost")
    host_db.host_reports, host_db.service_reports = host_db.scan_report_indexes()
    return [f"hosts: report {first.report_id!r} names unknown service 'svc-ghost'"]


def _reported_host_without_certificate(governor):
    host_id = governor.host_db.reports[0].host_id
    _stored(governor, host_id, replace(governor.host_db.hosts[host_id], certificate=None))
    return [f"host {host_id}: reports in the history but no certificate"]


def _certificate_counters_off(governor):
    profile = governor.host_db.hosts["host-001"]
    _stored(governor, "host-001", replace(profile, certificate=replace(profile.certificate, attempts=1)))
    return ["host host-001: certificate attempts differ from its reports"]


def _metered_id_of_no_report(governor):
    billing = governor.billing
    first = billing._rows[0]
    billing._rows[0] = (first[0], "rpt-ghost", *first[2:])
    return ["ledger: correlation ids differ from the successful report ids"]


def _credits_off(governor):
    billing = governor.billing
    first = billing._rows[0]
    billing._rows[0] = (*first[:6], first[6] + 1, *first[7:])  # one more developer credit
    return ["ledger: credits do not sum to metered totals",
            "ledger: party balances do not sum to metered totals"]


def _committed_beyond_capacity(governor):
    profile = governor.host_db.hosts["host-001"]
    _stored(governor, "host-001", replace(profile, committed=profile.capacity.plus(ResourceVector(1, 0, 0, 0))))
    return ["host host-001: committed exceeds capacity",
            "host host-001: committed differs from its hosted services"]


def _trust_out_of_bounds(governor):
    profile = governor.host_db.hosts["host-001"]
    _stored(governor, "host-001", replace(profile, certificate=replace(profile.certificate, trust_score=1.5)))
    return ["host host-001: trust score out of bounds"]


BROKEN_STATES = [
    _unsettleable_share,
    _status_dropped,
    _status_added,
    _correlation_billed_twice,
    _entry_seq_below_saved,
    _uncatalogued_hosted,
    _profile_of_another_host,
    _certificate_of_another_host,
    _report_repeated,
    _report_of_unknown_host,
    _report_of_unknown_service,
    _reported_host_without_certificate,
    _certificate_counters_off,
    _metered_id_of_no_report,
    _credits_off,
    _committed_beyond_capacity,
    _trust_out_of_bounds,
]


class TestStateRules:
    """`check_invariants()` is the one list of the rules a state keeps, and
    a restore refuses a replayed state on which it reports anything."""

    @pytest.mark.parametrize("edit", BROKEN_STATES, ids=lambda edit: edit.__name__.strip("_"))
    def test_check_invariants_reports_exactly_each_broken_rule(self, governor_after_run, edit):
        assert governor_after_run.check_invariants() == []
        lines = edit(governor_after_run)
        assert governor_after_run.check_invariants() == lines
