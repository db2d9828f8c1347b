"""CLI exit codes, output files, and diffable determinism."""
import csv
import hashlib
import json
from decimal import Decimal
from pathlib import Path

import pytest

from conftest import drop_sc_query, scenario_dict
from momcc.cli import EXIT_INVALID, EXIT_INVARIANTS, EXIT_OK, EXIT_TRACE_VIOLATIONS, main
from momcc.engine import Simulation
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


def unreadable_file(path: Path, kind: str) -> str:
    """Make `path` a directory or a file that is not UTF-8 text; returns
    the decode error's text for the second."""
    if kind == "directory":
        path.mkdir()
        return ""
    path.write_bytes(b'{"seed": "\xff"}')
    return "'utf-8' codec can't decode byte 0xff in position 10: invalid start byte"


@pytest.mark.parametrize("command", ["validate", "run", "compare", "snapshot"])
@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_an_unreadable_scenario_file_is_one_line_and_exits_one(command, kind, tmp_path, capsys):
    path = tmp_path / "scenario.json"
    decode_error = unreadable_file(path, kind)
    assert main(["--no-banner", command, str(path)]) == EXIT_INVALID
    err = capsys.readouterr().err
    assert "Traceback" not in err
    if kind == "directory":
        assert err == f"error: cannot read scenario file {path}: Is a directory\n"
    else:
        assert err == f"error: /: not UTF-8 text: {decode_error}\n"


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

    @pytest.mark.parametrize("command", ["run", "snapshot"])
    @pytest.mark.parametrize("seed", ["-1", "-7"])
    def test_a_seed_flag_meets_the_file_seed_rule(self, command, seed, tmp_path, capsys):
        """The override replaces the document's seed before it is checked,
        so a seed the file may not hold is refused on the command line too."""
        path = write_scenario(tmp_path, scenario_dict(seed=1))
        out = tmp_path / ("out" if command == "run" else "state.json")
        assert main(["--no-banner", command, str(path), "--seed", seed, "--out", str(out)]) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: /seed: {seed} is less than the minimum of 0\n"
        assert not out.exists()

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


# The zero-requester run's outputs: availability reads "no demand" and
# the latency object is null.
ZERO_DEMAND_METRICS_JSON = """{
  "allocations": {
    "confirmed": 3,
    "denied": 0
  },
  "availability": "no demand",
  "demand_events": 0,
  "duration_hours": 1.0,
  "energy_mwh": 0,
  "escalations": 0,
  "format_version": 1,
  "invocations": {
    "failed": 0,
    "succeeded": 0,
    "total": 0
  },
  "latency_ms": null,
  "mode": "momcc",
  "revenue": {
    "developer": 0,
    "governor": 0,
    "host": 0
  },
  "seed": 42,
  "sweeps": [],
  "trace_violations": 0,
  "trust_levels": {
    "High": 0,
    "Low": 3,
    "Medium": 0,
    "none": 0
  },
  "unavailable_events": 0
}
"""

ZERO_DEMAND_METRICS_CSV = (
    "key,value\r\n"
    "allocations.confirmed,3\r\n"
    "allocations.denied,0\r\n"
    "availability,no demand\r\n"
    "demand_events,0\r\n"
    "duration_hours,1.0\r\n"
    "energy_mwh,0\r\n"
    "escalations,0\r\n"
    "format_version,1\r\n"
    "invocations.failed,0\r\n"
    "invocations.succeeded,0\r\n"
    "invocations.total,0\r\n"
    "latency_ms,None\r\n"
    "mode,momcc\r\n"
    "revenue.developer,0\r\n"
    "revenue.governor,0\r\n"
    "revenue.host,0\r\n"
    "seed,42\r\n"
    "sweeps,[]\r\n"
    "trace_violations,0\r\n"
    "trust_levels.High,0\r\n"
    "trust_levels.Low,3\r\n"
    "trust_levels.Medium,0\r\n"
    "trust_levels.none,0\r\n"
    "unavailable_events,0\r\n"
)


class TestPinnedOutput:
    """What `run` and `compare` print, and the metrics files of a run
    without demand, pinned exactly."""

    @pytest.mark.parametrize("name, lines", [
        ("default.json", ["mode=momcc seed=42", "demand=31 availability=1.0000",
                          "invocations=31 mean_latency_ms=16.578", "trace_violations=0"]),
        ("composite.json", ["mode=momcc seed=11", "demand=9 availability=1.0000",
                            "invocations=27 mean_latency_ms=16.626", "trace_violations=0"]),
    ])
    def test_run_stdout_on_the_bundled_scenarios(self, name, lines, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--no-banner", "run", str(SCENARIOS / name), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == "\n".join(
            lines + [f"outputs: {out}/metrics.json metrics.csv trace.log ledger.csv", ""])

    def test_run_without_demand_prints_and_writes_no_demand(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict(requesters=[]))
        out = tmp_path / "out"
        assert main(["--no-banner", "run", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == (
            "mode=momcc seed=42\n"
            "demand=0 availability=no demand\n"
            "invocations=0 mean_latency_ms=n/a\n"
            "trace_violations=0\n"
            f"outputs: {out}/metrics.json metrics.csv trace.log ledger.csv\n"
        )
        assert (out / "metrics.json").read_bytes() == ZERO_DEMAND_METRICS_JSON.encode()
        assert (out / "metrics.csv").read_bytes() == ZERO_DEMAND_METRICS_CSV.encode()

    def test_compare_stdout_on_the_default_scenario(self, capsys):
        assert main(["--no-banner", "compare", str(SCENARIOS / "default.json"), "--seeds", "2"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "  seed       mode   mean_ms  availability  energy_mwh\n"
            "-----------------------------------------------------\n"
            "    42      momcc    16.578        1.0000       10200\n"
            "    42  wan_cloud   187.648        1.0000        9600\n"
            "    43      momcc    17.125        1.0000       14500\n"
            "    43  wan_cloud   197.938        1.0000       12600\n"
            "momcc: mean latency min=16.578 max=17.125 over 2 seeds\n"
            "wan_cloud: mean latency min=187.648 max=197.938 over 2 seeds\n"
        )

    def test_compare_stdout_without_demand(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict(requesters=[]))
        assert main(["--no-banner", "compare", str(path), "--seeds", "1"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "  seed       mode   mean_ms  availability  energy_mwh\n"
            "-----------------------------------------------------\n"
            "    42      momcc       n/a     no demand           0\n"
            "    42  wan_cloud       n/a     no demand           0\n"
        )


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

    def test_a_share_whose_host_share_has_no_short_decimal_runs(self, tmp_path, capsys):
        """A share `validate` accepts is one `run` can settle and pay: the
        float host share 1 - 0.20405522059153736 - 0.2 is not that
        difference to the last digit, and each row still pays its price."""
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        for service in data["services"]:
            service["developer_share"] = 0.20405522059153736
        path = write_scenario(tmp_path, data)
        assert main(["--no-banner", "validate", str(path)]) == EXIT_OK
        out = tmp_path / "out"
        assert main(["--no-banner", "run", str(path), "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        with (out / "ledger.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        credited = sum(Decimal(row[party]) for row in rows for party in ("developer", "host", "governor"))
        assert credited == sum(Decimal(row["total"]) for row in rows)

    @pytest.mark.parametrize("command", ["validate", "run"])
    @pytest.mark.parametrize("edit, lines", [
        (lambda d: d["services"][0].update(dependencies=["svc-resize"]),
         ["/services/0/dependencies: service 'svc-resize' depends on unregistered services ['svc-resize']"]),
        (lambda d: (d["services"][0].update(dependencies=["svc-ocr"]),
                    d["services"][1].update(dependencies=["svc-resize"])),
         ["/services/0/dependencies: service 'svc-resize' depends on unregistered services ['svc-ocr']",
          "/services/1/dependencies: service 'svc-ocr' depends on unregistered services ['svc-resize']"]),
        (lambda d: d["services"][0]["min_resources"].update(cpu=5000),
         ["/services/0/min_resources: service 'svc-resize' exceeds the footprint ceiling "
          "{'cpu': 1024, 'memory': 64, 'storage': 64, 'energy': 1000}"]),
        (lambda d: d["services"][1].update(service_id="svc-resize"),
         ["/services/1/service_id: service id 'svc-resize' already registered"]),
    ], ids=["self-dependency", "two-service-cycle", "beyond-the-footprint-ceiling", "duplicate-id"])
    def test_a_service_the_registry_refuses_is_a_service_diagnostic(
        self, command, edit, lines, tmp_path, capsys
    ):
        """validate and run apply the registry's rules as the services
        register, in file order: each dependency already registered (so
        no cycle), no need beyond the footprint ceiling, no id twice."""
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        edit(data)
        path = write_scenario(tmp_path, data)
        args = ["--no-banner", command, str(path)]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr().err == "".join(f"error: {line}\n" for line in lines)

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_minimum_version_that_does_not_parse_is_a_service_diagnostic(self, command, tmp_path, capsys):
        """The schema's pattern refuses a final newline, which
        `parse_version` would refuse as the service's platform is built."""
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        data["services"][1]["platform"]["min_version"] = "4.0\n"
        args = ["--no-banner", command, str(write_scenario(tmp_path, data))]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr().err == \
            r"error: /services/1/platform/min_version: '4.0\n' does not match '^\\d+(\\.\\d+){0,2}\\Z'" + "\n"

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_host_version_with_a_final_newline_is_a_host_diagnostic(self, command, tmp_path, capsys):
        """The version pattern ends at the end of the text, not before a
        final newline, so `run` cannot die on a version `validate` passed."""
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        data["hosts"][0]["platform_version"] = "4.1\n"
        args = ["--no-banner", command, str(write_scenario(tmp_path, data))]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == EXIT_INVALID
        assert capsys.readouterr().err == \
            r"error: /hosts/0/platform_version: '4.1\n' does not match '^\\d+(\\.\\d+){0,2}\\Z'" + "\n"

    @staticmethod
    def beyond_the_cloud_host(mode: str) -> dict:
        """The default scenario with one service whose need no cloud host
        (10^9 of each resource) can hold, under a ceiling that admits it."""
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        data["baseline_mode"] = mode
        data["services"][0]["min_resources"]["cpu"] = 2 * 10**9
        data["policies"]["registry"] = {"footprint_ceiling": {"cpu": 4 * 10**9, "memory": 64, "storage": 64,
                                                              "energy": 1000}}
        return data

    CLOUD_LINE = ("error: /services: the wan_cloud host 'cloud-host' of capacity {'cpu': 1000000000, "
                  "'memory': 1000000000, 'storage': 1000000000, 'energy': 1000000000}: "
                  "capacity must cover committed resources\n")

    @pytest.mark.parametrize("command", ["validate", "run", "snapshot", "compare"])
    def test_needs_beyond_the_cloud_host_are_a_diagnostic(self, command, tmp_path, capsys):
        """The cloud host's capacity is the governor's rule too: each
        command refuses the scenario at set-up, before any output."""
        path = write_scenario(tmp_path, self.beyond_the_cloud_host("wan_cloud"))
        args = ["--no-banner", command, str(path)]
        if command in ("run", "snapshot"):
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == self.CLOUD_LINE
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    def test_compare_refuses_a_marketplace_scenario_whose_cloud_set_up_fails(
        self, tmp_path, capsys, monkeypatch
    ):
        """The marketplace runs, and the same scenario in wan_cloud mode,
        which compare also runs, cannot set up; compare refuses it before
        running any pass."""
        path = write_scenario(tmp_path, self.beyond_the_cloud_host("momcc"))
        assert main(["--no-banner", "validate", str(path)]) == EXIT_OK
        capsys.readouterr()
        runs = []
        real_run = Simulation.run
        monkeypatch.setattr(Simulation, "run", lambda sim: runs.append(sim) or real_run(sim))
        assert main(["--no-banner", "compare", str(path), "--seeds", "1"]) == EXIT_INVALID
        captured = capsys.readouterr()
        assert captured.err == self.CLOUD_LINE
        assert captured.out == ""
        assert runs == []

    @pytest.mark.parametrize("command", ["validate", "run"])
    def test_a_need_is_judged_against_the_scenario_footprint_ceiling(self, command, tmp_path, capsys):
        data = json.loads((SCENARIOS / "default.json").read_text(encoding="utf-8"))
        data["services"][0]["min_resources"]["cpu"] = 5000
        data["policies"]["registry"] = {"footprint_ceiling": {"cpu": 8192, "memory": 64, "storage": 64,
                                                              "energy": 1000}}
        args = ["--no-banner", command, str(write_scenario(tmp_path, data))]
        if command == "run":
            args += ["--out", str(tmp_path / "out")]
        assert main(args) == EXIT_OK
        assert capsys.readouterr().err == ""

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

    @pytest.mark.parametrize("kind", ["directory", "not_utf8"])
    def test_restore_unreadable_file_is_one_line_and_exits_one(self, kind, tmp_path, capsys):
        path = tmp_path / "state.json"
        decode_error = unreadable_file(path, kind)
        assert main(["--no-banner", "restore", str(path)]) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if kind == "directory":
            assert err == f"error: cannot read snapshot file {path}: Is a directory\n"
        else:
            assert err == f"error: snapshot is not UTF-8 text: {decode_error}\n"


class TestBanner:
    def test_banner_suppressed_with_flag(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict())
        main(["--no-banner", "validate", str(path)])
        assert "momcc 0" not in capsys.readouterr().out

    def test_banner_printed_by_default(self, tmp_path, capsys):
        path = write_scenario(tmp_path, scenario_dict())
        main(["validate", str(path)])
        assert "momcc 0" in capsys.readouterr().out
