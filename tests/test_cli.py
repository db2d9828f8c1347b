"""CLI exit codes, output files, and diffable determinism."""
import hashlib
import json
from pathlib import Path

import pytest

from conftest import drop_sc_query, scenario_dict
from momcc.cli import EXIT_INVALID, EXIT_INVARIANTS, EXIT_OK, EXIT_TRACE_VIOLATIONS, main
from momcc.governor import ServiceGovernor

SCENARIOS = Path(__file__).parent.parent / "scenarios"


def write_scenario(tmp_path: Path, data: dict, name: str = "scenario.json") -> Path:
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return path


@pytest.mark.parametrize("command", ["run", "compare", "snapshot"])
class TestScenarioLoading:
    """Every command that runs a scenario reports a bad one the same way."""

    def test_missing_file_is_named_and_exits_one(self, command, tmp_path, capsys):
        absent = tmp_path / "absent.json"
        assert main(["--no-banner", command, str(absent)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: scenario file not found: {absent}\n"

    def test_each_diagnostic_is_printed_and_exits_one(self, command, tmp_path, capsys):
        data = scenario_dict()
        data["duration_hours"] = -2
        data["seed"] = -1
        path = write_scenario(tmp_path, data)
        assert main(["--no-banner", command, str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2 and all(line.startswith("error: /") for line in err)


class TestRun:
    def test_bundled_scenario_smoke(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--no-banner", "run", str(SCENARIOS / "default.json"), "--out", str(out)])
        assert code == EXIT_OK
        for name in ("metrics.json", "metrics.csv", "trace.log", "ledger.csv"):
            assert (out / name).exists(), name
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["format_version"] == 1
        assert metrics["trace_violations"] == 0

    def test_negative_duration_names_field_and_exits_one(self, tmp_path, capsys):
        data = scenario_dict()
        data["duration_hours"] = -2
        path = write_scenario(tmp_path, data)
        code = main(["--no-banner", "run", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_INVALID
        assert "duration_hours" in capsys.readouterr().err

    def test_missing_file_exits_one(self, tmp_path):
        code = main(["--no-banner", "run", str(tmp_path / "absent.json")])
        assert code == EXIT_INVALID

    def test_seed_flag_overrides_and_repeats_byte_identical(self, tmp_path):
        path = write_scenario(tmp_path, scenario_dict(seed=1))
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["--no-banner", "run", str(path), "--seed", "7", "--out", str(out1)]) == EXIT_OK
        assert main(["--no-banner", "run", str(path), "--seed", "7", "--out", str(out2)]) == EXIT_OK
        assert (out1 / "metrics.json").read_bytes() == (out2 / "metrics.json").read_bytes()
        assert json.loads((out1 / "metrics.json").read_text())["seed"] == 7

    def test_rerun_replaces_each_output_instead_of_writing_through_it(self, tmp_path):
        path = write_scenario(tmp_path, scenario_dict(seed=1))
        out = tmp_path / "out"
        assert main(["--no-banner", "run", str(path), "--out", str(out)]) == EXIT_OK
        first = {name: (out / name).read_bytes()
                 for name in ("metrics.json", "metrics.csv", "trace.log", "ledger.csv")}
        elsewhere = tmp_path / "elsewhere.log"
        elsewhere.write_text("kept\n", encoding="utf-8")
        (out / "trace.log").unlink()
        (out / "trace.log").symlink_to(elsewhere)
        assert main(["--no-banner", "run", str(path), "--out", str(out)]) == EXIT_OK
        assert not (out / "trace.log").is_symlink()
        assert elsewhere.read_text(encoding="utf-8") == "kept\n"
        assert {name: (out / name).read_bytes() for name in first} == first

    def test_stdout_is_deterministic_without_banner(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict(seed=1))
        out = tmp_path / "a"
        main(["--no-banner", "run", str(path), "--out", str(out)])
        first = capsys.readouterr().out
        main(["--no-banner", "run", str(path), "--out", str(out)])
        second = capsys.readouterr().out
        assert first == second

    def test_trace_violations_exit_two(self, tmp_path, monkeypatch):
        """A run whose traces break the handshake grammar exits 2."""
        drop_sc_query(monkeypatch)
        path = write_scenario(tmp_path, scenario_dict(seed=1))
        code = main(["--no-banner", "run", str(path), "--out", str(tmp_path / "out")])
        assert code == EXIT_TRACE_VIOLATIONS

    @pytest.mark.parametrize("name", ["default.json", "composite.json"])
    def test_bundled_scenarios_leave_a_consistent_governor(self, name, tmp_path, capsys):
        code = main(["--no-banner", "run", str(SCENARIOS / name), "--out", str(tmp_path / "out")])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("violations", [False, True])
    def test_an_inconsistent_governor_exits_three(self, violations, tmp_path, monkeypatch, capsys):
        """Invariant problems go to stderr and win over trace violations."""
        if violations:
            drop_sc_query(monkeypatch)
        monkeypatch.setattr(ServiceGovernor, "check_invariants",
                            lambda self: ["hosts: planted one", "ledger: planted two"])
        path = write_scenario(tmp_path, scenario_dict(seed=1))
        out = tmp_path / "out"
        assert main(["--no-banner", "run", str(path), "--out", str(out)]) == EXIT_INVARIANTS
        assert capsys.readouterr().err == (
            "error: invariant: hosts: planted one\nerror: invariant: ledger: planted two\n"
        )
        assert (out / "metrics.json").exists()  # the outputs are written first


class TestCompare:
    def test_zero_seeds_is_usage_error(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict())
        code = main(["--no-banner", "compare", str(path), "--seeds", "0"])
        assert code == EXIT_INVALID
        assert "--seeds" in capsys.readouterr().err

    def test_table_shows_both_modes_per_seed(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict(seed=30, duration_hours=0.5))
        code = main(["--no-banner", "compare", str(path), "--seeds", "2"])
        assert code == EXIT_OK
        output = capsys.readouterr().out
        assert "wan_cloud" in output
        assert "30" in output and "31" in output

    def test_marketplace_beats_wan_in_every_row(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict(seed=30, duration_hours=0.5))
        main(["--no-banner", "compare", str(path), "--seeds", "3"])
        rows = {}
        for line in capsys.readouterr().out.splitlines():
            parts = line.split()
            if len(parts) == 5 and parts[1] in ("momcc", "wan_cloud"):
                seed, mode, mean_ms, availability = parts[0], parts[1], parts[2], parts[3]
                rows.setdefault(seed, {})[mode] = (float(mean_ms), availability)
        assert len(rows) == 3
        for seed, modes in rows.items():
            assert modes["momcc"][0] < modes["wan_cloud"][0], seed
            assert modes["wan_cloud"][1] == "1.0000"  # the cloud never churns


class TestValidate:
    @pytest.mark.parametrize("name", ["default.json", "composite.json"])
    def test_bundled_scenarios_have_zero_diagnostics(self, name, capsys):
        code = main(["--no-banner", "validate", str(SCENARIOS / name)])
        assert code == EXIT_OK

    def test_all_violations_reported_together(self, tmp_path, capsys):
        data = scenario_dict()
        data["duration_hours"] = 0
        data["seed"] = -1
        path = write_scenario(tmp_path, data)
        code = main(["--no-banner", "validate", str(path)])
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "duration_hours" in err and "seed" in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_trust_thresholds_out_of_order_are_a_policies_diagnostic(
        self, command, tmp_path, capsys
    ):
        """validate and run apply the same rule: HIGH must need more than MEDIUM."""
        data = scenario_dict()
        data["policies"] = {"trust": {"promote_medium": [0.6, 10], "promote_high": [0.5, 30]}}
        path = write_scenario(tmp_path, data)
        args = ["--no-banner", command, str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        code = main(args)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "error: /policies: promote_high thresholds must strictly dominate promote_medium" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_developer_share_beyond_the_commission_is_a_service_diagnostic(
        self, command, tmp_path, capsys
    ):
        """validate and run apply billing's rule: share + commission <= 1."""
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        data["services"][0]["developer_share"] = 0.9  # the commission is 0.2
        path = write_scenario(tmp_path, data)
        args = ["--no-banner", command, str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        code = main(args)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: /services/0/developer_share: developer share 0.9 plus commission 0.2 exceeds 1\n"

    def test_developer_share_is_judged_against_the_scenario_commission(self, tmp_path, capsys):
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        data["services"][0]["developer_share"] = 0.9
        data["policies"]["billing"]["governor_commission"] = 0.1  # 0.9 + 0.1 = 1 exactly
        assert main(["--no-banner", "validate", str(write_scenario(tmp_path, data))]) == EXIT_OK

    @pytest.mark.parametrize("edit, line", [
        (lambda d: d["hosts"][0]["capacity"].update(cpu=512.0),
         "/hosts/0/capacity/cpu: 512.0 is not of type 'integer'"),
        (lambda d: d["hosts"][0].update(count=2.0), "/hosts/0/count: 2.0 is not of type 'integer'"),
        (lambda d: d.update(duration_hours=float("nan")), "/duration_hours: nan is not of type 'number'"),
        (lambda d: d.update(duration_hours=float("inf")), "/duration_hours: inf is not of type 'number'"),
    ], ids=["fractional-cpu", "fractional-count", "nan-duration", "infinite-duration"])
    def test_what_run_could_not_use_is_a_diagnostic(self, edit, line, tmp_path, capsys):
        """An integer field takes no fraction and a number is finite: `run`
        would raise on the first two and never end on the last two, so
        only `validate` is run here."""
        data = scenario_dict()
        edit(data)
        path = write_scenario(tmp_path, data)
        assert main(["--no-banner", "validate", str(path)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {line}\n"

    def test_diagnostics_use_pointer_paths(self, tmp_path, capsys):
        data = scenario_dict()
        data["hosts"][0]["count"] = -1
        path = write_scenario(tmp_path, data)
        main(["--no-banner", "validate", str(path)])
        assert "/hosts/0/count" in capsys.readouterr().err


class TestSnapshotRestore:
    def test_snapshot_then_restore_round_trips(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scenario_dict(seed=2, duration_hours=0.5))
        state = tmp_path / "state.json"
        assert main(["--no-banner", "snapshot", str(scenario), "--out", str(state)]) == EXIT_OK
        assert main(["--no-banner", "restore", str(state)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "state is consistent" in out

    def test_truncated_snapshot_is_integrity_error(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, scenario_dict(seed=2, duration_hours=0.5))
        state = tmp_path / "state.json"
        main(["--no-banner", "snapshot", str(scenario), "--out", str(state)])
        state.write_bytes(state.read_bytes()[:100])
        assert main(["--no-banner", "restore", str(state)]) == EXIT_INVALID

    def test_payload_that_does_not_decode_is_integrity_error(self, tmp_path, capsys):
        """A checksum-valid payload with a missing key is reported, not raised."""
        scenario = write_scenario(tmp_path, scenario_dict(seed=2, duration_hours=0.5))
        state = tmp_path / "state.json"
        main(["--no-banner", "snapshot", str(scenario), "--out", str(state)])
        snapshot = json.loads(state.read_text(encoding="utf-8"))
        payload = snapshot["payload"]
        capacity = next(entry for entry in payload["journal"] if entry[0] == "hosts.register_host")[4]
        del capacity["energy"]
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        snapshot["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        state.write_text(json.dumps(snapshot), encoding="utf-8")
        assert main(["--no-banner", "restore", str(state)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: snapshot journal entry ") and "energy" in err

    def test_a_host_asking_for_an_uncatalogued_service_is_refused_without_a_traceback(
        self, tmp_path, capsys
    ):
        state = tmp_path / "state.json"
        main(["--no-banner", "snapshot", str(SCENARIOS / "default.json"), "--out", str(state)])
        snapshot = json.loads(state.read_text(encoding="utf-8"))
        payload = snapshot["payload"]
        index = next(i for i, entry in enumerate(payload["journal"]) if entry[0] == "hosts.request_hosting")
        payload["journal"][index][2] = "svc-nope"
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        snapshot["sha256"] = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        state.write_text(json.dumps(snapshot), encoding="utf-8")
        capsys.readouterr()
        assert main(["--no-banner", "restore", str(state)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == (
            f"error: snapshot journal entry {index} does not replay: "
            "UnknownEntityError: unknown service: 'svc-nope'\n"
        )
        assert "Traceback" not in err

    def test_restore_missing_file_exits_one(self, tmp_path):
        assert main(["--no-banner", "restore", str(tmp_path / "nope.json")]) == EXIT_INVALID


class TestBanner:
    def test_banner_suppressed_with_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict())
        main(["--no-banner", "validate", str(path)])
        assert "momcc 0" not in capsys.readouterr().out

    def test_banner_printed_by_default(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict())
        main(["validate", str(path)])
        assert "momcc 0" in capsys.readouterr().out
