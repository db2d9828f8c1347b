"""Command-line entry point.

Subcommands:
    run        execute one scenario, write metrics/trace/ledger outputs
    compare    marketplace vs WAN-cloud baseline over several seeds
    validate   report every scenario schema violation at once
    snapshot   run a scenario and persist the governor end state
    restore    verify and summarize a persisted governor state

Exit codes: 0 success, 1 invalid input (bad scenario, bad flags,
corrupt snapshot), 2 protocol trace violations in a run, 3 a run that
leaves the governor's state inconsistent (`check_invariants`); 3 wins
over 2, since an inconsistent state makes the violation count
untrustworthy.

Everything printed is deterministic except the banner, which carries a
wall-clock timestamp; pass --no-banner for diffable output.
"""
from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .engine import SimulationResult, paused_collector, run_scenario
from .errors import SnapshotIntegrityError
from .governor.billing import format_money
from .scenario import (
    MODE_MARKETPLACE,
    MODE_WAN_CLOUD,
    Scenario,
    ScenarioValidationError,
    load_scenario,
)
from .snapshot import load_governor, write_snapshot
from .wire import write_trace

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_TRACE_VIOLATIONS = 2
EXIT_INVARIANTS = 3


def _banner(enabled: bool) -> None:
    if enabled:
        stamp = time.strftime("%Y-%m-%d %H:%M:%S")
        print(f"momcc {__version__} ({stamp})")


def _write_outputs(result: SimulationResult, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with paused_collector():
        _fresh(out_dir / "metrics.json").write_bytes(result.report.to_json_bytes())
        with _fresh(out_dir / "metrics.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(result.report.to_csv_rows())
        with _fresh(out_dir / "trace.log").open("wb") as fh:
            write_trace(fh, result.trace)
        with _fresh(out_dir / "ledger.csv").open("w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(result.governor.billing.ledger_csv_rows())


def _fresh(path: Path) -> Path:
    """`path` with any file there removed, so writing creates a new file.

    Truncating the last run's large file and writing it again can wait on
    the filesystem flushing the old blocks (ext4 does this for a file
    replaced by truncation); a new file does not. A symlink at `path` is
    replaced, not written through.
    """
    path.unlink(missing_ok=True)
    return path


def _load(path: str, seed: int | None = None) -> Scenario | None:
    """The scenario at `path`, or None after printing why it cannot be run."""
    try:
        return load_scenario(path, seed_override=seed)
    except FileNotFoundError:
        print(f"error: scenario file not found: {path}", file=sys.stderr)
    except ScenarioValidationError as exc:
        for diagnostic in exc.diagnostics:
            print(f"error: {diagnostic}", file=sys.stderr)
    return None


def cmd_run(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario, args.seed)
    if scenario is None:
        return EXIT_INVALID
    result = run_scenario(scenario)
    out_dir = Path(args.out)
    _write_outputs(result, out_dir)
    data = result.report.data
    availability, mean = _printed(data)
    print(f"mode={data['mode']} seed={data['seed']}")
    print(f"demand={data['demand_events']} availability={availability}")
    print(f"invocations={data['invocations']['total']} mean_latency_ms={mean}")
    print(f"trace_violations={data['trace_violations']}")
    print(f"outputs: {out_dir}/metrics.json metrics.csv trace.log ledger.csv")
    problems = result.governor.check_invariants()
    for problem in problems:
        print(f"error: invariant: {problem}", file=sys.stderr)
    if problems:
        return EXIT_INVARIANTS
    if data["trace_violations"] > 0:
        return EXIT_TRACE_VIOLATIONS
    return EXIT_OK


def cmd_compare(args: argparse.Namespace) -> int:
    if args.seeds < 1:
        print("error: --seeds must be >= 1", file=sys.stderr)
        return EXIT_INVALID
    base = _load(args.scenario)
    if base is None:
        return EXIT_INVALID

    rows = []
    for offset in range(args.seeds):
        seed = base.seed + offset
        for mode in (MODE_MARKETPLACE, MODE_WAN_CLOUD):
            scenario = replace(base, seed=seed, baseline_mode=mode)
            rows.append((seed, mode, run_scenario(scenario).report.data))

    header = f"{'seed':>6} {'mode':>10} {'mean_ms':>9} {'availability':>13} {'energy_mwh':>11}"
    print(header)
    print("-" * len(header))
    means: dict[str, list[float]] = {MODE_MARKETPLACE: [], MODE_WAN_CLOUD: []}
    for seed, mode, data in rows:
        availability, mean = _printed(data)
        if data["latency_ms"] is not None:
            means[mode].append(data["latency_ms"]["mean"])
        print(f"{seed:>6} {mode:>10} {mean:>9} {availability:>13} {data['energy_mwh']:>11}")
    for mode, values in means.items():
        if values:
            print(
                f"{mode}: mean latency min={min(values):.3f} "
                f"max={max(values):.3f} over {len(values)} seeds"
            )
    return EXIT_OK


def _printed(data: dict) -> tuple[str, str]:
    """A report's availability and mean latency as `run` and `compare`
    print them: a run without demand holds its availability as text, and
    one without invocations no latency."""
    availability, latency = data["availability"], data["latency_ms"]
    return (availability if isinstance(availability, str) else f"{availability:.4f}",
            "n/a" if latency is None else f"{latency['mean']:.3f}")


def cmd_validate(args: argparse.Namespace) -> int:
    if _load(args.scenario) is None:
        return EXIT_INVALID
    print("scenario is valid")
    return EXIT_OK


def cmd_snapshot(args: argparse.Namespace) -> int:
    scenario = _load(args.scenario, args.seed)
    if scenario is None:
        return EXIT_INVALID
    result = run_scenario(scenario)
    write_snapshot(args.out, result.governor)
    print(f"snapshot written: {args.out}")
    return EXIT_OK


def cmd_restore(args: argparse.Namespace) -> int:
    try:
        governor = load_governor(args.state)
    except FileNotFoundError:
        print(f"error: snapshot file not found: {args.state}", file=sys.stderr)
        return EXIT_INVALID
    except SnapshotIntegrityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    services = len(governor.registry.db.services)
    hosts = len(governor.host_db.hosts)
    reports = len(governor.host_db.reports)
    entries = governor.billing.entry_count()
    metered = governor.billing.total_metered()
    print(f"services={services} hosts={hosts} reports={reports}")
    print(f"ledger_entries={entries} metered_total={format_money(metered)}")
    print("state is consistent")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momcc",
        description="Market-oriented mobile cloud marketplace simulator.",
    )
    parser.add_argument("--no-banner", action="store_true", help="suppress the version banner")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario and write outputs")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    p_run.add_argument("--out", default="out", help="output directory (default: out)")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="marketplace vs wan_cloud over several seeds")
    p_cmp.add_argument("scenario")
    p_cmp.add_argument("--seeds", type=int, default=5, help="number of seeds (default: 5)")
    p_cmp.set_defaults(func=cmd_compare)

    p_val = sub.add_parser("validate", help="check a scenario file")
    p_val.add_argument("scenario")
    p_val.set_defaults(func=cmd_validate)

    p_snap = sub.add_parser("snapshot", help="run a scenario and persist governor state")
    p_snap.add_argument("scenario")
    p_snap.add_argument("--seed", type=int, default=None)
    p_snap.add_argument("--out", default="state.json", help="state file (default: state.json)")
    p_snap.set_defaults(func=cmd_snapshot)

    p_rest = sub.add_parser("restore", help="verify and summarize a persisted state")
    p_rest.add_argument("state")
    p_rest.set_defaults(func=cmd_restore)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _banner(not args.no_banner)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
