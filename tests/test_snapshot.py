"""Snapshot/restore round trips and integrity checking."""
import json

import pytest

from conftest import make_service, scenario_dict
from momcc.domain import ResourceVector
from momcc.engine import run_scenario
from momcc.errors import SnapshotIntegrityError
from momcc.governor import GovernorConfig, ServiceGovernor
from momcc.scenario import scenario_from_dict
from momcc.snapshot import (
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
        if entries:
            assert restored.billing.already_metered(entries[0].correlation_id)

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

    def test_missing_field_rejected(self):
        with pytest.raises(SnapshotIntegrityError):
            restore_governor({"format_version": 1, "kind": "governor-state"})

    def test_non_json_file_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all{{{")
        with pytest.raises(SnapshotIntegrityError):
            read_snapshot(path)
