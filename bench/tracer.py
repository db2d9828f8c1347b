"""Opt-in per-layer tracing, installed from the benchmark's own files.

One hook table, keyed by layer (named after the program's modules),
says which public functions to wrap. Methods are wrapped on their class
and functions on their module; names that `momcc.engine` imports
directly are wrapped on `momcc.engine`, where its code looks them up.
Each call records a span (name, start, end, parent) in memory; a span's
self time is its duration minus the durations of its child spans.

A hook whose target no longer exists is reported as absent rather than
raised, so the table outlives refactors that move code between modules.
The untraced run installs nothing.
"""
from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from pathlib import Path
from time import perf_counter_ns


# -- observers: extra counts taken at the same boundaries as the spans ----

def _discover_hit(counts, args, result, before):
    if any(r.hosts for r in result):
        counts["registry.discover_hits"] += 1


def _ranked_entries(counts, args, result, before):
    counts["hosts.ranked_entries"] += len(result)


def _hosting_confirmed(counts, args, result, before):
    if result.confirmed:
        counts["hosts.confirmed"] += 1


def _ingest_outcome(counts, args, result, before):
    if not result:
        counts["hosts.duplicate_reports"] += 1
    elif args[1].outcome.ok:
        counts["hosts.successful_reports"] += 1


def _level_before(args):
    profile = args[0].host_db.hosts.get(args[1].host_id)
    return None if profile is None or profile.certificate is None else profile.certificate.level


def _level_changed(counts, args, result, before):
    if result.level != before:
        counts["security.level_changes"] += 1


def _deprecations(counts, args, result, before):
    counts["profiler.deprecations"] += len(result)


def _history_rows(args):
    return len(args[0].reports)


def _rows_scanned(counts, args, result, before):
    counts["store.rows_scanned"] += before


def _output_bytes(counts, args, result, before):
    counts["output.bytes"] += sum(p.stat().st_size for p in Path(args[1]).iterdir() if p.is_file())


# layer -> [(module, attribute path, span name, before, after)]
HOOKS = {
    "engine": [
        ("momcc.engine", "Simulation.run", "engine.run", None, None),
        ("momcc.engine", "Simulation._on_deliver", "engine.deliver", None, None),
        ("momcc.engine", "Simulation._on_join", "engine.join", None, None),
        ("momcc.engine", "Simulation._on_demand", "engine.demand", None, None),
        ("momcc.engine", "Simulation._on_depart", "engine.depart", None, None),
        ("momcc.engine", "Simulation._on_sweep", "engine.sweep", None, None),
    ],
    "engine.gov_reply": [
        ("momcc.engine", "Simulation._governor_handle", "engine.governor_handle", None, None),
        ("momcc.engine", "Simulation._gov_list_services", "engine.gov_list_services", None, None),
        ("momcc.engine", "Simulation._gov_hosting", "engine.gov_hosting", None, None),
        ("momcc.engine", "Simulation._gov_discovery", "engine.gov_discovery", None, None),
        ("momcc.engine", "Simulation._gov_report", "engine.gov_report", None, None),
        ("momcc.engine", "Simulation._gov_rating", "engine.gov_rating", None, None),
        ("momcc.engine", "Simulation._ingest", "engine.ingest", None, None),
        ("momcc.engine", "service_to_dict", "engine.service_to_dict", None, None),
    ],
    "agents": [
        ("momcc.agents", "HostAgent.handle", "agents.handle", None, None),
        ("momcc.agents", "RequesterAgent.handle", "agents.handle", None, None),
        ("momcc.agents", "AggregatorAgent.handle", "agents.handle", None, None),
    ],
    "governor.registry": [
        ("momcc.governor.registry", "ServiceRegistry.discover", "registry.discover", None, _discover_hit),
        ("momcc.governor.registry", "ServiceRegistry.search_active", "registry.search", None, None),
        ("momcc.governor.registry", "ServiceRegistry.list_available_services", "registry.list", None, None),
        ("momcc.governor.registry", "ServiceRegistry.register_service", "registry.register", None, None),
    ],
    "governor.hosts": [
        ("momcc.governor.hosts", "HostRegistry.live_hosts_ranked", "hosts.rank", None, _ranked_entries),
        ("momcc.governor.hosts", "HostRegistry.request_hosting", "hosts.hosting", None, _hosting_confirmed),
        ("momcc.governor.hosts", "HostRegistry.ingest_report", "hosts.ingest", None, _ingest_outcome),
        ("momcc.governor.hosts", "HostRegistry.assess_hosts", "hosts.assess", None, None),
        ("momcc.governor.hosts", "HostRegistry.mark_departed", "hosts.depart", None, None),
    ],
    "governor.security": [
        ("momcc.governor.security", "SecurityGovernor.apply_report", "security.apply",
         _level_before, _level_changed),
    ],
    "governor.billing": [
        ("momcc.governor.billing", "BillingUnit.meter_invocation", "billing.meter", None, None),
    ],
    "governor.profiler": [
        ("momcc.governor.profiler", "ServiceProfiler.substitution_sweep", "profiler.sweep",
         None, _deprecations),
        ("momcc.governor.profiler", "ServiceProfiler.report_malfunction", "profiler.malfunction",
         None, None),
    ],
    "governor.store": [
        ("momcc.governor.store", "HostDatabase.reports_for_host", "store.scan",
         _history_rows, _rows_scanned),
        ("momcc.governor.store", "HostDatabase.reports_for_service", "store.scan",
         _history_rows, _rows_scanned),
    ],
    "scenario": [
        ("momcc.scenario", "load_scenario", "scenario.load", None, None),
    ],
    "output": [
        ("momcc.cli", "_write_outputs", "output.write", None, _output_bytes),
    ],
    "wire": [
        ("momcc.engine", "envelope_dict", "wire.envelope", None, None),
    ],
}


class Tracer:
    """Span recorder plus the hooks that feed it."""

    def __init__(self):
        self.spans: list[tuple[str, int, int, int] | None] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, before, after):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            context = before(args) if before is not None else None
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(counts, args, result, context)
            return result

        return wrapper

    def install(self) -> None:
        for entries in HOOKS.values():
            for module_name, path, name, before, after in entries:
                try:
                    owner = importlib.import_module(module_name)
                    *owners, attr = path.split(".")
                    for part in owners:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    self.absent.append(f"{module_name}:{path}")
                    continue
                self._installed.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, before, after))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def per_span(self) -> dict[str, dict[str, float]]:
        """calls, total seconds and self seconds for every span name."""
        spans = [s for s in self.spans if s is not None]
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, span in enumerate(self.spans):
            if span is None:
                continue
            name, start, end, _ = span
            stats = out[name]
            stats["calls"] += 1
            stats["total_s"] += (end - start) / 1e9
            stats["self_s"] += (end - start - child_ns[index]) / 1e9
        return out


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as (value, unit); layers never entered read 0."""
    spans = tracer.per_span()
    counts = tracer.counts
    layer_of = {entry[2]: layer for layer, entries in HOOKS.items() for entry in entries}

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def total(name):
        return spans[name]["total_s"] if name in spans else 0.0

    def self_s(name):
        return spans[name]["self_s"] if name in spans else 0.0

    def layer_self(layer):
        return sum(s["self_s"] for n, s in spans.items() if layer_of.get(n) == layer)

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    engine_events = ("engine.deliver", "engine.join", "engine.demand", "engine.depart", "engine.sweep")
    return {
        "engine.events": (sum(calls(n) for n in engine_events), "count"),
        "engine.delivered": (calls("engine.deliver"), "count"),
        "engine.self_s": (layer_self("engine"), "s"),
        "engine.gov_reply_self_s": (layer_self("engine.gov_reply"), "s"),
        "agents.handle_calls": (calls("agents.handle"), "count"),
        "agents.handle_self_s": (self_s("agents.handle"), "s"),
        "registry.discover_calls": (calls("registry.discover"), "count"),
        "registry.discover_self_s": (self_s("registry.discover"), "s"),
        "registry.discover_hit_ratio": (
            ratio(counts["registry.discover_hits"], calls("registry.discover")), "ratio"),
        "registry.search_s": (total("registry.search"), "s"),
        "registry.list_calls": (calls("registry.list"), "count"),
        "registry.list_self_s": (self_s("registry.list"), "s"),
        "registry.register_calls": (calls("registry.register"), "count"),
        "registry.register_s": (total("registry.register"), "s"),
        "hosts.rank_calls": (calls("hosts.rank"), "count"),
        "hosts.rank_s": (total("hosts.rank"), "s"),
        "hosts.ranked_entries": (counts["hosts.ranked_entries"], "count"),
        "hosts.hosting_calls": (calls("hosts.hosting"), "count"),
        "hosts.hosting_self_s": (self_s("hosts.hosting"), "s"),
        "hosts.confirm_ratio": (ratio(counts["hosts.confirmed"], calls("hosts.hosting")), "ratio"),
        "hosts.ingest_calls": (calls("hosts.ingest"), "count"),
        "hosts.ingest_self_s": (self_s("hosts.ingest"), "s"),
        "hosts.duplicate_reports": (counts["hosts.duplicate_reports"], "count"),
        "hosts.assess_calls": (calls("hosts.assess"), "count"),
        "hosts.assess_self_s": (self_s("hosts.assess"), "s"),
        "hosts.depart_calls": (calls("hosts.depart"), "count"),
        "security.apply_calls": (calls("security.apply"), "count"),
        "security.apply_s": (total("security.apply"), "s"),
        "security.level_changes": (counts["security.level_changes"], "count"),
        "billing.meter_calls": (calls("billing.meter"), "count"),
        "billing.meter_s": (total("billing.meter"), "s"),
        "billing.metered_ratio": (
            ratio(calls("billing.meter"), counts["hosts.successful_reports"]), "ratio"),
        "profiler.sweep_calls": (calls("profiler.sweep"), "count"),
        "profiler.sweep_self_s": (self_s("profiler.sweep"), "s"),
        "profiler.deprecations": (counts["profiler.deprecations"], "count"),
        "profiler.malfunction_calls": (calls("profiler.malfunction"), "count"),
        "store.scan_calls": (calls("store.scan"), "count"),
        "store.scan_s": (total("store.scan"), "s"),
        "store.rows_scanned": (counts["store.rows_scanned"], "count"),
        "scenario.load_s": (total("scenario.load"), "s"),
        "output.write_s": (total("output.write"), "s"),
        "output.bytes": (counts["output.bytes"], "B"),
        "wire.envelope_calls": (calls("wire.envelope"), "count"),
        "trace.spans": (sum(1 for s in tracer.spans if s is not None), "count"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }
