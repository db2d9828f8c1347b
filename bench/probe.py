"""Host time scaled by a reference loop, and latency probes spread over a run.

The machine this benchmark runs on is shared. Other tenants slow it by
up to half for stretches of a fraction of a second to many seconds, so
raw host times of the same code spread by a quarter or more from one
run to the next. Each run therefore also times a fixed piece of
interpreter work, `reference_loop`, which uses none of the program, at
the same moments as the program, and reports every host time scaled to
a machine on which that loop takes `REFERENCE_NS`:

    scaled time = raw time x REFERENCE_NS / mean reference timing

The mean is over the reference timings taken during the timed region
and, for regions too short to hold many, in bursts just before and just
after it. The other tenants slow the loop and the program alike, so the
scaled time moves with the program's own cost, not with theirs; a
change to the program changes the raw time and leaves the loop alone.

An interval timer (SIGALRM) fires every `INTERVAL_S` of wall time. Each
firing times the reference loop once (after one untimed call, which
warms the caches the interrupted work took), then makes a few calls on
a governor that the run keeps for the purpose: the next query is
discovered `REPEATS` times, then as many reports on the next live
hosting are ingested. The firings land between bytecodes of whatever
the run is doing, so reference timings and probe calls are spread
evenly over the whole run. A probe call's latency in one firing is its
fastest repetition there, scaled by that firing's reference timing; a
call's figure is the median over the run's firings.

The time spent in firings is counted, and `Prober.clock()` subtracts it:
every timed region of the run uses that clock, so the firings cost the
other metrics nothing but a little cache.
"""
from __future__ import annotations

import gc
import signal
import statistics
from time import perf_counter_ns

INTERVAL_S = 0.05
REPEATS = 4  # calls per firing of the same query, or on the same hosting
# Distinct queries, and distinct (host, service) pairs, that the probe
# calls. Fewer keys give each one more of the run's firings.
KEYS = 10
PSEUDONYM = "anon-bench-probe"
REFERENCE_NS = 200_000  # the reference loop's time on the machine the scaled times assume
BURST = 8  # reference timings just before, and just after, a region timed by `Prober.timed`


def reference_loop() -> int:
    """A fixed piece of interpreter work that uses none of the program."""
    counts: dict[str, int] = {}
    pairs = []
    for i in range(300):
        key = f"k{i % 97}"
        counts[key] = counts.get(key, 0) + i
        pairs.append((key, i))
    pairs.sort()
    return len(counts)


def _reference_ns() -> int:
    reference_loop()  # warms the caches that the work before it took
    t0 = perf_counter_ns()
    reference_loop()
    return perf_counter_ns() - t0


class Prober:
    def __init__(self, checks):
        self.checks = checks
        self.ratios: dict[tuple, list[float]] = {}  # probe call -> call time / reference time, per firing
        self.reference_ns: list[int] = []  # one reference timing per firing
        self.stolen_ns = 0  # wall time spent inside firings
        self.firings = 0
        self._firing = False
        self._governor = None
        self._queries: tuple[str, ...] = ()
        self._pairs: list[tuple[str, str]] = []
        self._at = 0.0
        self._next = 0
        self._expected_metered = 0
        self._metered_before = 0

    # -- the clock and the scale ---------------------------------------------------

    def clock(self) -> int:
        """perf_counter_ns() less the time spent in firings so far."""
        while True:
            stolen = self.stolen_ns
            now = perf_counter_ns()
            if self.stolen_ns == stolen:  # no firing came in between
                return now - stolen

    def mark(self) -> int:
        """A mark for `scale`: the number of firings' reference timings so far."""
        return len(self.reference_ns)

    def scale(self, since: int = 0, extra: list[int] | None = None) -> float:
        """REFERENCE_NS over the mean reference timing since a mark.

        A host time measured since the mark, times this factor, is that
        time on a machine where the reference loop takes REFERENCE_NS.
        """
        samples = self.reference_ns[since:] + (extra or [])
        return REFERENCE_NS / statistics.fmean(samples or self.reference_ns)

    def timed(self, fn):
        """(fn(), seconds on `clock`, those seconds scaled).

        The scale comes from the firings inside the region and from a
        burst of reference timings on either side of it, so that regions
        of a few milliseconds are scaled by the moment they ran in.
        """
        bursts = [_reference_ns() for _ in range(BURST)]
        mark = self.mark()
        t0 = self.clock()
        value = fn()
        seconds = (self.clock() - t0) / 1e9
        bursts += [_reference_ns() for _ in range(BURST)]
        return value, seconds, seconds * self.scale(mark, bursts)

    # -- the target ---------------------------------------------------------------

    def target(self, governor, queries, at: float) -> None:
        """Probe this governor from now on; `at` dates the reports."""
        pairs = [
            (host_id, service_id)
            for host_id, profile in sorted(governor.host_db.hosts.items())
            if profile.alive and profile.certificate is not None
            for service_id in sorted(profile.hosted)
        ][:KEYS]
        self.checks.expect(len(pairs) == KEYS, f"only {len(pairs)} live hostings to probe")
        self._queries = tuple(queries)[:KEYS]
        self._pairs = pairs
        self._at = at
        self._metered_before = governor.billing.total_metered()
        self._governor = governor

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._fire)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        """Stop the timer and check what the probe calls did to their governor."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        governor, self._governor = self._governor, None
        if governor is None:
            return
        metered = governor.billing.total_metered() - self._metered_before
        self.checks.expect(metered == self._expected_metered,
                           "probe reports were not metered at their prices")
        problems = governor.check_invariants()
        self.checks.expect(not problems, f"invariants after probes: {problems[:3]}")

    # -- one firing ---------------------------------------------------------------

    def _fire(self, signum, frame) -> None:
        # A firing that outlasts the interval is interrupted by the next
        # one. That one must not call in: the governor's locks are
        # re-entrant, so it would change state under the call it interrupted.
        if self._firing:
            return
        self._firing = True
        # Collections that the probe's allocations would trigger wait
        # until the interrupted work resumes, so that work is charged for
        # collecting its own garbage, as it would be without the probes.
        collecting = gc.isenabled()
        gc.disable()
        start = perf_counter_ns()
        reference = _reference_ns()
        self.reference_ns.append(reference)
        governor = self._governor
        if governor is not None and self._pairs:
            try:
                self._calls(governor, reference)
            except Exception as exc:  # never raise into the code the timer interrupted
                self._governor = None
                self.checks.expect(False, f"probe call raised {type(exc).__name__}: {exc}")
        self.firings += 1
        self.stolen_ns += perf_counter_ns() - start
        if collecting:
            gc.enable()
        self._firing = False

    def _calls(self, governor, reference: int) -> None:
        from momcc.domain import ExecutionReport, Outcome

        n = self._next
        self._next += 1
        query = self._queries[n % len(self._queries)]
        fastest = None
        for _ in range(REPEATS):
            t0 = perf_counter_ns()
            governor.registry.discover(query, PSEUDONYM)
            elapsed = perf_counter_ns() - t0
            fastest = elapsed if fastest is None else min(fastest, elapsed)
        self.ratios.setdefault(("discover", query), []).append(fastest / reference)

        host_id, service_id = self._pairs[n % len(self._pairs)]
        fastest = None
        for repeat in range(REPEATS):
            report = ExecutionReport(
                report_id=f"rpt-bench-probe-{n:07d}-{repeat}", host_id=host_id,
                service_id=service_id, requester_pseudonym=PSEUDONYM, started_at=self._at,
                duration_ms=10.0, energy_used_mwh=0, outcome=Outcome.success(), rating=5,
            )
            t0 = perf_counter_ns()
            accepted = governor.ingest_report(report)
            elapsed = perf_counter_ns() - t0
            fastest = elapsed if fastest is None else min(fastest, elapsed)
            self.checks.expect(accepted, f"probe report {report.report_id} was not accepted")
            self._expected_metered += governor.registry.get(service_id).price_per_invocation
        self.ratios.setdefault(("ingest", host_id, service_id), []).append(fastest / reference)

    def p50_us(self, kind: str) -> float:
        """Median over the distinct calls of one kind of each call's
        median scaled latency over the firings."""
        values = [statistics.median(v) for k, v in self.ratios.items() if k[0] == kind]
        self.checks.expect(bool(values), f"no {kind} probe call was made")
        return statistics.median(values) * REFERENCE_NS / 1000.0 if values else 0.0
