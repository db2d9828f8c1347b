#!/usr/bin/env python3
"""momcc benchmark: one seeded workload per invocation.

    python3 bench/run.py --workload market_wide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
`src/` of that checkout. With `--trace 0` the run installs no hooks and
reports the end-to-end metrics. Their host times are scaled by a
reference loop timed at the same moments, which takes out most of the
drift in speed of a shared machine, and the discover and ingest
latencies come from calls that a timer makes on a kept governor all
through the run (both in bench/probe.py). With `--trace 1` it
alternates untraced and traced passes and reports the per-layer metrics
(see bench/tracer.py); those times are not scaled.
Every pass checks the program's outputs. The last line of standard
output is one JSON object: correct, attempted, failed, metrics.

`--dump-scenario FILE` writes the generated scenario and exits, so a run
can be replayed with `momcc run FILE --out DIR`; for the market workloads
that run's metrics.json has the sha256 this benchmark prints.

Host time is the only noisy quantity: the simulator is deterministic, so
every simulated statistic repeats exactly and is checked, not reported.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"

WORKLOADS = ("market_wide", "market_long", "governor_mixed")
MIN_PASSES = 3
SETUP_REPS = 4  # set-up-only passes after each market pass, so setup_s is a median of many


def _import_program() -> None:
    """Import momcc from this checkout's src/, or exit 2 if it is not there."""
    package = SRC / "momcc"
    if not (package / "__init__.py").is_file():
        print(f"error: no program sources at {package}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(SRC), str(ROOT)]
    import momcc

    if Path(momcc.__file__).resolve().parent != package.resolve():
        print(f"error: momcc imported from {momcc.__file__}, not {package}", file=sys.stderr)
        sys.exit(2)


class Checks:
    """Correctness checks and operations: attempted, failed, first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def expect(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(message)


class Passes:
    """What the untraced passes of one run measured.

    Times are scaled by the reference loop (bench/probe.py); the
    unscaled figures are kept for the run's log.
    """

    def __init__(self):
        self.setup: list[float] = []
        self.raw_setup: list[float] = []
        self.msgs_rates: list[float] = []
        self.raw_msgs_rates: list[float] = []
        self.ops_rates: list[float] = []
        self.digests: set[str] = set()
        self.peak_rss_mb = 0.0

    def add_setup(self, times: tuple[float, float]) -> None:
        self.raw_setup.append(times[0])
        self.setup.append(times[1])

    def add_rates(self, msgs: int, ops: int, times: tuple[float, float]) -> None:
        raw_s, scaled_s = times
        self.raw_msgs_rates.append(msgs / raw_s)
        self.msgs_rates.append(msgs / scaled_s)
        self.ops_rates.append(ops / scaled_s)
        if len(self.msgs_rates) == 1:
            self.peak_rss_mb = _peak_rss_mb()

    def metrics(self, prober) -> dict[str, tuple[float, str]]:
        return {
            "msgs_per_s": (statistics.median(self.msgs_rates), "1/s"),
            "ops_per_s": (statistics.median(self.ops_rates), "1/s"),
            "setup_s": (statistics.median(self.setup), "s"),
            "peak_rss_mb": (self.peak_rss_mb, "MB"),
            "discover_p50_us": (prober.p50_us("discover"), "us"),
            "ingest_p50_us": (prober.p50_us("ingest"), "us"),
        }


def timed_plain(fn):
    """(fn(), seconds, seconds): `Prober.timed` without the scaling, for traced runs."""
    t0 = perf_counter_ns()
    value = fn()
    seconds = (perf_counter_ns() - t0) / 1e9
    return value, seconds, seconds


def _peak_rss_mb() -> float:
    """Peak RSS so far; read at the end of the first pass (or round)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- market workloads ---------------------------------------------------------

def _setup_market(scenario_path: Path, timed=timed_plain):
    """The Simulation, and its set-up time unscaled and scaled."""
    from momcc import engine, scenario

    sim, raw_s, scaled_s = timed(lambda: engine.Simulation(scenario.load_scenario(scenario_path)))
    return sim, (raw_s, scaled_s)


def _market_pass(scenario_path: Path, out_dir: Path, checks: Checks, timed=timed_plain):
    """Set up, run and write one market simulation; check what it produced.

    Returns (result, metrics digest, set-up times, run-and-write times);
    each pair of times is (unscaled, scaled) seconds.
    """
    from momcc import cli

    sim, setup_times = _setup_market(scenario_path, timed)

    def run_and_write():
        result = sim.run()
        cli._write_outputs(result, out_dir)
        return result

    result, *run_times = timed(run_and_write)

    report = result.report
    metrics_bytes = (out_dir / "metrics.json").read_bytes()
    problems = result.governor.check_invariants()
    checks.expect(not problems, f"invariants: {problems[:3]}")
    checks.expect(report.trace_violations == 0, f"trace_violations={report.trace_violations}")
    checks.expect(metrics_bytes == report.to_json_bytes(), "metrics.json differs from the report")
    with (out_dir / "trace.log").open("rb") as fh:
        trace_lines = sum(1 for _ in fh)
    checks.expect(trace_lines == len(result.trace), "trace.log line count differs from the trace")
    with (out_dir / "ledger.csv").open("rb") as fh:
        ledger_rows = sum(1 for _ in fh)
    checks.expect(ledger_rows == len(result.governor.billing.audit()) + 1,
                  "ledger.csv row count differs from the ledger")
    checks.expect(report.demand_events > 0 and report.invocations_succeeded > 0,
                  "the market saw no successful demand")
    return result, hashlib.sha256(metrics_bytes).hexdigest(), setup_times, tuple(run_times)


PLACEMENTS = 3  # services each host of the probe governor asks to host


def _probe_governor(scenario_path: Path):
    """The market's catalog and hosts, each host asking for PLACEMENTS
    services in a fixed rotation through the catalog.

    Discover and ingest costs depend on how many hosts hold each service.
    At the end of a market run that depends on the seed's churn: on
    market_long the median fastest discover call over a run's queries
    ranged from 31 to 58 us over ten seeds. This layout depends on the
    catalog's size and the host pool alone.
    """
    from momcc import scenario

    from bench.closed_loop import build_governor

    loaded = scenario.load_scenario(scenario_path)
    governor = build_governor(loaded)
    service_ids = [desc.service_id for desc in loaded.services]
    verified = [entry.config.identity_verified for entry in loaded.hosts for _ in range(entry.count)]
    for index, host_id in enumerate(sorted(governor.host_db.hosts)):
        for k in range(PLACEMENTS):
            service_id = service_ids[(index * PLACEMENTS + k) % len(service_ids)]
            governor.request_hosting(host_id, service_id, identity_verified=verified[index])
    return governor


def _record_market_pass(scenario_path: Path, out_dir: Path, passes: Passes,
                        checks: Checks, prober) -> None:
    result, digest, setup_times, run_times = _market_pass(scenario_path, out_dir, checks,
                                                          prober.timed)
    passes.add_setup(setup_times)
    passes.digests.add(digest)
    to_governor = sum(1 for record in result.trace if record.recipient == "governor")
    passes.add_rates(len(result.trace), to_governor, run_times)
    del result
    gc.collect()
    for _ in range(SETUP_REPS):
        passes.add_setup(_setup_market(scenario_path, prober.timed)[1])


# -- governor_mixed -------------------------------------------------------------

def _mixed_pass(scenario_path: Path, seed: int, checks: Checks, prober=None):
    """Set up a fresh governor and run one round on it.

    Returns (round result, set-up times, the prober's mark at the start
    of the operations).
    """
    from momcc import scenario

    from bench.closed_loop import build_governor, run_round

    def setup():
        loaded = scenario.load_scenario(scenario_path)
        return loaded, build_governor(loaded)

    timed, clock = (prober.timed, prober.clock) if prober else (timed_plain, perf_counter_ns)
    (loaded, governor), *setup_times = timed(setup)
    mark = prober.mark() if prober else 0
    result = run_round(loaded, governor, seed, clock)
    checks.attempted += result.ops + result.checks
    checks.failed += len(result.unexpected) + min(len(result.problems), result.checks)
    checks.messages.extend((result.unexpected + result.problems)[:5])
    return result, tuple(setup_times), mark


def _record_mixed_pass(scenario_path: Path, seed: int, passes: Passes, checks: Checks,
                       prober) -> None:
    from bench.closed_loop import PROBE_QUERIES

    result, setup_times, mark = _mixed_pass(scenario_path, seed, checks, prober)
    passes.add_setup(setup_times)
    # Each operation is the governor's handling of one request message.
    # The operations are scaled by the firings that fell among them.
    op_s = result.op_ns / 1e9
    passes.add_rates(result.ops, result.ops, (op_s, op_s * prober.scale(mark)))
    passes.digests.add(result.digest)
    if len(passes.msgs_rates) == 1:
        prober.target(result.governor, PROBE_QUERIES, float(result.ops))
    del result
    gc.collect()  # the governor holds reference cycles; free it before the next round


def run_untraced(workload: str, scenario_path: Path, out_dir: Path, seed: int,
                 seconds: float, checks: Checks):
    from bench.probe import Prober

    passes = Passes()
    prober = Prober(checks)
    if workload != "governor_mixed":
        scenario_doc = json.loads(scenario_path.read_text(encoding="utf-8"))
        queries = sorted({q for entry in scenario_doc["requesters"] for q in entry["query_pool"]})
        prober.target(_probe_governor(scenario_path), queries, scenario_doc["duration_hours"] * 3.6e6)
    prober.start()
    try:
        deadline = perf_counter() + seconds
        while len(passes.msgs_rates) < MIN_PASSES or perf_counter() < deadline:
            if workload == "governor_mixed":
                _record_mixed_pass(scenario_path, seed, passes, checks, prober)
            else:
                _record_market_pass(scenario_path, out_dir, passes, checks, prober)
    finally:
        prober.stop()
    checks.expect(len(passes.digests) == 1, f"outputs differ between passes: {sorted(passes.digests)}")
    print("pass msgs_per_s: " + " ".join(f"{r:.1f}" for r in passes.msgs_rates))
    print("pass msgs_per_s unscaled: " + " ".join(f"{r:.1f}" for r in passes.raw_msgs_rates))
    print(f"unscaled medians: msgs_per_s {statistics.median(passes.raw_msgs_rates):.6g}, "
          f"setup_s {statistics.median(passes.raw_setup):.6g}")
    print(f"reference loop: {len(prober.reference_ns)} timings in firings, mean "
          f"{statistics.fmean(prober.reference_ns) / 1000:.1f} us, run-wide scale {prober.scale():.4f}")
    print(f"probe firings: {prober.firings}, {prober.stolen_ns / 1e9:.2f} s left out of the timings")
    return passes.metrics(prober), sorted(passes.digests)[0], len(passes.msgs_rates)


# -- traced runs ------------------------------------------------------------------

def run_traced(workload: str, scenario_path: Path, out_dir: Path, seed: int,
               seconds: float, checks: Checks):
    """Alternate untraced and traced passes until `seconds` have passed.

    Counts must repeat exactly between traced passes; times are medians.
    """
    from bench.tracer import Tracer, layer_metrics

    def one_pass():
        t0 = perf_counter()
        if workload == "governor_mixed":
            digest = _mixed_pass(scenario_path, seed, checks)[0].digest
        else:
            digest = _market_pass(scenario_path, out_dir, checks)[1]
        elapsed = perf_counter() - t0
        gc.collect()
        return elapsed, digest

    passes, digests = [], set()
    deadline = perf_counter() + seconds
    while not passes or perf_counter() < deadline:
        untraced_s, digest = one_pass()
        digests.add(digest)
        with Tracer() as tracer:
            traced_s, digest = one_pass()
        digests.add(digest)
        passes.append(layer_metrics(tracer, traced_s / untraced_s))
    checks.expect(len(digests) == 1, "tracing changed the outputs")
    metrics = {}
    for name, (value, unit) in passes[0].items():
        values = [p[name][0] for p in passes]
        if unit == "count":
            checks.expect(len(set(values)) == 1, f"{name} differs between traced passes: {values}")
            metrics[name] = (value, unit)
        else:
            metrics[name] = (statistics.median(values), unit)
    print(f"absent hooks: {', '.join(tracer.absent) if tracer.absent else 'none'}")
    return metrics, sorted(digests)[0], len(passes)


# -- entry point -------------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--dump-scenario", metavar="FILE",
                        help="write the generated scenario JSON to FILE and exit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    _import_program()
    from bench.workloads import scenario_json

    text = scenario_json(args.workload, args.seed)
    if args.dump_scenario:
        Path(args.dump_scenario).write_text(text, encoding="utf-8")
        return 0

    work_dir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    work_dir.mkdir(parents=True)
    try:
        scenario_path = work_dir / "scenario.json"
        scenario_path.write_text(text, encoding="utf-8")
        runner = run_traced if args.trace else run_untraced
        checks = Checks()
        metrics, digest, passes = runner(
            args.workload, scenario_path, work_dir / "out", args.seed, args.seconds, checks
        )
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it

    print(f"workload={args.workload} seed={args.seed} passes={passes} trace={args.trace}")
    print(f"metrics_sha256={digest}")
    print(f"error_rate={checks.failed / max(checks.attempted, 1):.6g} "
          f"({checks.failed} of {checks.attempted} checks and operations failed)")
    for message in checks.messages:
        print(f"FAILED: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": max(checks.attempted, 1),
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
