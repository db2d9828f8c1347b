"""Snapshot/restore round trips and integrity checking."""
import copy
import itertools
import json

import pytest

from conftest import make_service, scenario_dict
from momcc.domain import ResourceVector
from momcc.engine import run_scenario
from momcc.errors import SnapshotIntegrityError
from momcc.governor import GovernorConfig, ServiceGovernor
from momcc.scenario import scenario_from_dict
from momcc.snapshot import (
    _digest,
    load_governor,
    read_snapshot,
    restore_governor,
    snapshot_governor,
    write_snapshot,
)


@pytest.fixture
def governor_after_run():
    return run_scenario(scenario_from_dict(scenario_dict(seed=3, duration_hours=1.0))).governor


class TestRoundTrip:
    def test_restore_of_snapshot_reproduces_state(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        restored = restore_governor(snap)
        assert snapshot_governor(restored) == snap

    def test_round_trip_preserves_behavioral_state(self, governor_after_run):
        restored = restore_governor(snapshot_governor(governor_after_run))
        original = governor_after_run
        assert restored.registry.db.services == original.registry.db.services
        assert restored.registry.db.status == original.registry.db.status
        assert restored.host_db.hosts == original.host_db.hosts
        assert restored.host_db.reports == original.host_db.reports
        assert restored.billing.audit() == original.billing.audit()
        assert restored.billing.total_metered() == original.billing.total_metered()
        assert restored.profiler.escalations == original.profiler.escalations
        assert restored.check_invariants() == []

    def test_restored_ledger_still_rejects_replay(self, governor_after_run):
        restored = restore_governor(snapshot_governor(governor_after_run))
        entries = restored.billing.audit()
        assert entries
        for report in restored.host_db.reports:
            if report.outcome.ok:
                restored.billing.meter_report(report)  # each one already metered
        assert restored.billing.audit() == entries

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

    def test_a_state_holding_developer_terms_restores(self, governor_after_run):
        """State files once kept each developer's price and share beside the
        id; a restore takes the ids from that form too."""
        snap = snapshot_governor(governor_after_run)
        payload = snap["payload"]
        payload["billing"]["developers"] = {
            raw["developer_id"]: {
                "developer_id": raw["developer_id"],
                "price_per_invocation": raw["price_per_invocation"],
                "developer_share": raw["developer_share"],
            }
            for raw in payload["registry"]["services"].values()
        }
        snap["sha256"] = _digest(payload)
        restored = restore_governor(snap)
        assert all(restored.billing.developer_registered(developer) for developer in payload["billing"]["developers"])
        assert snapshot_governor(restored) == snapshot_governor(governor_after_run)
        assert restored.check_invariants() == []


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
        snap["payload"]["billing"]["entry_seq"] += 1
        path.write_text(json.dumps(snap))
        with pytest.raises(SnapshotIntegrityError) as err:
            load_governor(path)
        assert "checksum" in str(err.value)

    def test_wrong_kind_rejected(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        snap["kind"] = "other-thing"
        with pytest.raises(SnapshotIntegrityError):
            restore_governor(snap)

    def test_a_service_billing_could_never_settle_is_rejected(self):
        """A restore vets each service's share against the snapshot's own
        commission, as registration does: 0.9 plus 0.2 leaves no host share."""
        governor = ServiceGovernor()
        governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
        governor.registry.register_service(make_service())
        snap = snapshot_governor(governor)
        assert snap["payload"]["billing"]["governor_commission"] == 0.2
        snap["payload"]["registry"]["services"]["svc-resize"]["developer_share"] = 0.9
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == (
            "snapshot breaks a rule: service 'svc-resize': "
            "developer share 0.9 plus commission 0.2 exceeds 1"
        )

    @pytest.mark.parametrize("edit", ["drop", "extra"])
    def test_a_status_that_names_other_ids_than_the_services_is_rejected(
        self, governor_after_run, edit
    ):
        """Discovery reads a status for every catalogued service; a state
        whose two maps disagree is refused, not restored to fail later."""
        snap = snapshot_governor(governor_after_run)
        status = snap["payload"]["registry"]["status"]
        if edit == "drop":
            del status["svc-resize"]
        else:
            status["svc-ghost"] = "Active"
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        named = "svc-resize" if edit == "drop" else "svc-ghost"
        assert str(err.value) == (
            f"snapshot breaks a rule: status and services name different ids: ['{named}']"
        )

    def test_an_agreement_other_than_its_service_would_settle_is_rejected(
        self, governor_after_run
    ):
        """The agreement must split by the description's terms, or metering
        and the listings would read two different prices."""
        snap = snapshot_governor(governor_after_run)
        agreement = snap["payload"]["billing"]["agreements"]["svc-resize"]
        agreement.update(price_per_invocation=5, developer_share=0.7, host_share=0.1)
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == (
            "snapshot breaks a rule: agreement for 'svc-resize' is not what its service's terms settle"
        )

    def test_an_agreement_for_no_catalogued_service_is_rejected(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        agreements = snap["payload"]["billing"]["agreements"]
        agreements["svc-ghost"] = {**agreements["svc-resize"], "service_id": "svc-ghost"}
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == (
            "snapshot breaks a rule: agreement for 'svc-ghost' names no catalogued service"
        )

    @staticmethod
    def _restore_with_first_entry_edited(governor, edit):
        snap = snapshot_governor(governor)
        edit(snap["payload"]["billing"]["entries"][0])
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        return str(err.value)

    @pytest.mark.parametrize("entry_id", ["led-1", "led-0000001", "entry-000001"])
    def test_a_ledger_entry_id_that_is_no_sequence_number_is_rejected(self, governor_after_run, entry_id):
        """The ledger keeps a sequence number and writes the id from it, so
        an id it would write differently is refused, not rewritten."""
        message = self._restore_with_first_entry_edited(
            governor_after_run, lambda entry: entry.update(entry_id=entry_id)
        )
        assert message == f"snapshot breaks a rule: ledger entry id {entry_id!r} is not 'led-' and a sequence number"

    @pytest.mark.parametrize("edit", [
        lambda entry: entry.update(total=float(entry["total"])),
        lambda entry: entry["class_totals"].update(governor=float(entry["class_totals"]["governor"])),
        lambda entry: entry["class_totals"].update(broker=0),
    ], ids=["float total", "float class total", "extra class"])
    def test_ledger_money_other_than_minor_units_of_the_three_classes_is_rejected(
        self, governor_after_run, edit
    ):
        message = self._restore_with_first_entry_edited(governor_after_run, edit)
        assert message == (
            "snapshot breaks a rule: ledger entry 'led-000001': total and class totals are not "
            "integer minor units of the developer, host and governor classes"
        )

    @pytest.mark.parametrize("edit", [
        lambda entry: entry["credits"].update({"host-ghost": 0}),
        lambda entry: entry["credits"].update({"dev-alpha": entry["credits"].pop("governor") + 400}),
        lambda entry: entry["credits"].update({"dev-alpha": 400.0}),
    ], ids=["extra party", "no governor", "float credit"])
    def test_ledger_credits_other_than_the_class_totals_are_rejected(self, governor_after_run, edit):
        """Each credit must be a class total paid to the developer, the host
        or the governor; the row keeps those three and rebuilds the credits."""
        message = self._restore_with_first_entry_edited(governor_after_run, edit)
        assert message == (
            "snapshot breaks a rule: ledger entry 'led-000001': credits are not its class totals "
            "paid to a developer, a host and the governor"
        )

    def test_two_entries_billing_one_correlation_id_are_rejected(self, governor_after_run):
        """A copy of an entry under a new id would bill one report twice."""
        snap = snapshot_governor(governor_after_run)
        billing = snap["payload"]["billing"]
        first = billing["entries"][0]
        assert first["entry_id"] == "led-000001"
        billing["entry_seq"] += 1
        billing["entries"].append({**first, "entry_id": f"led-{billing['entry_seq']:06d}"})
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == (
            f"snapshot breaks a rule: ledger: correlation id {first['correlation_id']!r} is on more than one row"
        )

    def test_an_entry_seq_below_the_highest_saved_entry_is_rejected(self, governor_after_run):
        """The next metering would reuse a saved entry's id."""
        snap = snapshot_governor(governor_after_run)
        billing = snap["payload"]["billing"]
        highest = len(billing["entries"])
        assert highest > 1 and billing["entry_seq"] == highest
        billing["entry_seq"] = 1
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == (
            f"snapshot breaks a rule: ledger: entry number {highest} is above entry_seq 1"
        )

    @pytest.mark.parametrize("key, value, message", [
        ("governor_commission", -0.1, "governor_commission must be in [0, 1]"),
        ("governor_commission", 1.5, "governor_commission must be in [0, 1]"),
        ("entry_seq", -1, "entry_seq must be a non-negative integer, got -1"),
        ("entry_seq", 26.0, "entry_seq must be a non-negative integer, got 26.0"),
    ])
    def test_a_commission_or_entry_seq_out_of_range_does_not_decode(
        self, governor_after_run, key, value, message
    ):
        """`check_invariants()` compares entry numbers with `entry_seq` and
        settles agreements under the commission, so neither may reach it
        out of range."""
        snap = snapshot_governor(governor_after_run)
        snap["payload"]["billing"][key] = value
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == f"snapshot payload does not decode: ValueError: {message}"

    def test_a_payload_that_does_not_decode_keeps_its_message(self, governor_after_run):
        snap = snapshot_governor(governor_after_run)
        del snap["payload"]["registry"]["services"]["svc-resize"]["developer_id"]
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == "snapshot payload does not decode: KeyError: 'developer_id'"

    @pytest.mark.parametrize("edit, message", [
        (lambda need: need.update(gpu=1), "ValueError: min_resources must hold cpu, memory, storage "
                                          "and energy, got ['cpu', 'energy', 'gpu', 'memory', 'storage']"),
        (lambda need: need.pop("energy"), "ValueError: min_resources must hold cpu, memory, storage "
                                          "and energy, got ['cpu', 'memory', 'storage']"),
        (lambda need: need.update(gpu=need.pop("energy")), "KeyError: 'energy'"),
    ], ids=["extra", "missing", "renamed"])
    def test_a_service_need_of_other_resources_does_not_decode(self, governor_after_run, edit, message):
        snap = snapshot_governor(governor_after_run)
        edit(snap["payload"]["registry"]["services"]["svc-resize"]["min_resources"])
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == f"snapshot payload does not decode: {message}"

    def test_missing_field_rejected(self):
        with pytest.raises(SnapshotIntegrityError):
            restore_governor({"format_version": 1, "kind": "governor-state"})

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all{{{")
        with pytest.raises(SnapshotIntegrityError):
            read_snapshot(path)


def decoded(payload: dict, units=("registry", "hosts", "billing", "profiler")) -> ServiceGovernor:
    """A governor whose units are restored from `payload` in the order
    given, with no rule checked."""
    governor = ServiceGovernor()
    for unit in units:
        getattr(governor, unit).restore_state(payload[unit])
    return governor


def _unsettleable_share(payload):
    payload["registry"]["services"]["svc-resize"]["developer_share"] = 0.9
    return ["service 'svc-resize': developer share 0.9 plus commission 0.2 exceeds 1"]


def _status_dropped(payload):
    del payload["registry"]["status"]["svc-resize"]
    return ["status and services name different ids: ['svc-resize']"]


def _status_added(payload):
    payload["registry"]["status"]["svc-ghost"] = "Active"
    return ["status and services name different ids: ['svc-ghost']"]


def _agreement_on_other_terms(payload):
    payload["billing"]["agreements"]["svc-resize"].update(
        price_per_invocation=5, developer_share=0.7, host_share=0.1
    )
    return ["agreement for 'svc-resize' is not what its service's terms settle"]


def _agreement_for_no_service(payload):
    agreements = payload["billing"]["agreements"]
    agreements["svc-ghost"] = {**agreements["svc-resize"], "service_id": "svc-ghost"}
    return ["agreement for 'svc-ghost' names no catalogued service"]


def _correlation_billed_twice(payload):
    billing = payload["billing"]
    first = billing["entries"][0]
    billing["entry_seq"] += 1
    billing["entries"].append({**first, "entry_id": f"led-{billing['entry_seq']:06d}"})
    return [f"ledger: correlation id {first['correlation_id']!r} is on more than one row"]


def _entry_seq_below_saved(payload):
    billing = payload["billing"]
    billing["entry_seq"] = 1
    return [f"ledger: entry number {len(billing['entries'])} is above entry_seq 1"]


def _uncatalogued_hosted(payload):
    payload["hosts"]["hosts"]["host-000"]["hosted"].append("svc-nope")
    return ["host host-000: hosts uncatalogued services ['svc-nope']"]


def _profile_of_another_host(payload):
    payload["hosts"]["hosts"]["host-001"]["host_id"] = "host-009"
    return ["host host-001: profile names host host-009"]


def _certificate_of_another_host(payload):
    payload["hosts"]["hosts"]["host-001"]["certificate"]["host_id"] = "host-000"
    return ["host host-001: certificate names host host-000"]


def _report_repeated(payload):
    reports = payload["hosts"]["reports"]
    reports.append(reports[0])
    return [
        "host host-000: attempts, successes and ratings differ from its reports",
        "host host-000: certificate attempts and successes differ from its reports",
        f"hosts: report id {reports[0]['report_id']!r} is in the history more than once",
    ]


def _report_of_unknown_host(payload):
    reports = payload["hosts"]["reports"]
    reports.append({**reports[0], "report_id": "rpt-ghost", "host_id": "host-ghost",
                    "ok": False, "failure_reason": "crash", "rating": None})
    return ["hosts: report 'rpt-ghost' names unknown host 'host-ghost'"]


def _report_of_unknown_service(payload):
    first = payload["hosts"]["reports"][0]
    first["service_id"] = "svc-ghost"
    return [f"hosts: report {first['report_id']!r} names unknown service 'svc-ghost'"]


def _profile_counters_off(payload):
    payload["hosts"]["hosts"]["host-000"]["rating_sum"] += 1
    return ["host host-000: attempts, successes and ratings differ from its reports"]


def _certificate_counters_off(payload):
    payload["hosts"]["hosts"]["host-001"]["certificate"]["attempts"] = 1
    return ["host host-001: certificate attempts and successes differ from its reports"]


def _metered_id_of_no_report(payload):
    payload["billing"]["entries"][0]["correlation_id"] = "rpt-ghost"
    return ["ledger: correlation ids differ from the successful report ids"]


BROKEN_STATES = [
    _unsettleable_share,
    _status_dropped,
    _status_added,
    _agreement_on_other_terms,
    _agreement_for_no_service,
    _correlation_billed_twice,
    _entry_seq_below_saved,
    _uncatalogued_hosted,
    _profile_of_another_host,
    _certificate_of_another_host,
    _report_repeated,
    _report_of_unknown_host,
    _report_of_unknown_service,
    _profile_counters_off,
    _certificate_counters_off,
    _metered_id_of_no_report,
]


class TestStateRules:
    """`check_invariants()` is the one list of the rules a state keeps: a
    restore decodes the four units, then refuses a state on which it
    reports anything, with exactly its lines."""

    @pytest.mark.parametrize("edit", BROKEN_STATES, ids=lambda edit: edit.__name__.strip("_"))
    def test_a_restore_refuses_exactly_what_check_invariants_reports(self, governor_after_run, edit):
        snap = snapshot_governor(governor_after_run)
        lines = edit(snap["payload"])
        snap["sha256"] = _digest(snap["payload"])
        with pytest.raises(SnapshotIntegrityError) as err:
            restore_governor(snap)
        assert str(err.value) == "snapshot breaks a rule: " + "; ".join(lines)
        assert decoded(snap["payload"]).check_invariants() == lines

    def test_the_units_restore_in_any_order(self, governor_after_run):
        payload = snapshot_governor(governor_after_run)["payload"]
        broken = copy.deepcopy(payload)
        lines = _unsettleable_share(broken)
        for units in itertools.permutations(("registry", "hosts", "billing", "profiler")):
            assert snapshot_governor(decoded(payload, units))["payload"] == payload
            assert decoded(broken, units).check_invariants() == lines
