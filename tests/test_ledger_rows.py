"""The ledger kept as flat rows, against a reference that keeps one row
and one credit per party per metered invocation, each split computed
afresh from its service's terms. Rows are metered as a run meters them:
by ingesting successful reports."""
import csv
import json
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_service, paid_report, placed
from momcc.domain import ExecutionReport, Outcome, ResourceVector
from momcc.governor import ServiceGovernor
from momcc.cli import _write_outputs
from momcc.engine import run_scenario
from momcc.governor.billing import GOVERNOR_PARTY, format_money
from momcc.scenario import MODE_MARKETPLACE, MODE_WAN_CLOUD, load_scenario
from momcc.snapshot import restore_governor, snapshot_governor

SCENARIOS = Path(__file__).parent.parent / "scenarios"

COMMISSION = 0.15
# (developer id, price, developer share): prices 0 and 1, awkward shares, and
# developers who are also a host or the governor, so party credits merge.
TERMS = [
    ("dev-x", 0, 0.33),
    ("dev-x", 1, 0.29),
    ("host-a", 997, 0.07),
    ("governor", 29, 0.85),
    ("dev-y", 10**6, 0.0),
]
HOSTS = ["host-a", "host-b", "dev-x", "governor"]


class ReferenceLedger:
    """One row and one credit per party per metered invocation, each split
    computed afresh from the service's terms."""

    def __init__(self, seq: int):
        self.rows: list[tuple] = []
        self.credits: list[dict[str, int]] = []
        self.metered: set[str] = set()
        self.seq = seq

    def meter(self, desc, payer, correlation_id, host_id, at):
        if correlation_id in self.metered:
            return
        price = desc.price_per_invocation
        dev = int(Fraction(str(desc.developer_share)) * price)
        host_share = float(1 - Fraction(str(desc.developer_share)) - Fraction(str(COMMISSION)))
        host = int(Fraction(str(host_share)) * price)
        gov = price - dev - host
        credits: dict[str, int] = {}
        for party, amount in ((desc.developer_id, dev), (host_id, host), (GOVERNOR_PARTY, gov)):
            credits[party] = credits.get(party, 0) + amount
        self.seq += 1
        self.rows.append((self.seq, correlation_id, payer, price, desc.developer_id, host_id, dev, host, gov, at))
        self.credits.append(credits)
        self.metered.add(correlation_id)

    def audit(self):
        return sorted(self.rows, key=lambda row: (row[-1], f"led-{row[0]:06d}"))

    def balance(self, party):
        return sum(credits.get(party, 0) for credits in self.credits)

    def parties(self):
        return {party for credits in self.credits for party in credits}

    def class_revenue(self):
        classes = ("developer", "host", "governor")
        return {cls: sum(row[6 + k] for row in self.rows) for k, cls in enumerate(classes)}

    def csv_rows(self):
        return [["entry_id", "correlation_id", "payer", "total",
                 "developer", "host", "governor", "format_version"]] + [
            [f"led-{row[0]:06d}", row[1], row[2], format_money(row[3]),
             *(format_money(amount) for amount in row[6:9]), "1"]
            for row in self.audit()
        ]


def governor_with_terms(seq: int, prices: list[int] | None = None) -> ServiceGovernor:
    """A governor with a placed service per term, at the terms' prices or
    `prices`, whose every host in `HOSTS` may report; its ledger numbers
    rows from `seq` on."""
    governor = placed([
        make_service(service_id=f"svc-{i}", developer_id=developer,
                     price=price if prices is None else prices[i], developer_share=share)
        for i, (developer, price, share) in enumerate(TERMS)
    ], COMMISSION, tuple(HOSTS))
    governor.billing._entry_seq = seq
    return governor


# Few ids and few timestamps, so duplicates and tied timestamps are common.
operations = st.lists(st.tuples(
    st.integers(0, len(TERMS) - 1),
    st.sampled_from(HOSTS),
    st.integers(0, 24),  # correlation id
    st.sampled_from(["anon-1", "anon-2"]),
    st.sampled_from([0.0, 1.5, 2.0, 1e9]),
), max_size=60)
# A price per term: the terms' own, others near a whole unit, or any. Equal
# prices on two terms repeat amounts across services.
prices = st.lists(
    st.one_of(st.sampled_from([price for _, price, _ in TERMS] + [99, 100, 101]), st.integers(0, 10**9)),
    min_size=len(TERMS), max_size=len(TERMS),
)
# Metered after the drawn steps, so every export holds zero (the 0.0
# share's developer credit), an amount on two rows (the same service
# twice) and amounts on one row (another service).
FIXED = [(4, "host-a", "fixed-1"), (4, "host-b", "fixed-2"), (2, "host-b", "fixed-3")]


class TestRowLedgerMatchesTheEntryLedger:
    @settings(max_examples=200, deadline=None)
    @given(operations, st.sampled_from([0, 999_990]), prices)
    def test_every_reader_and_the_state_match(self, ops, seq, term_prices):
        """Starting at 999,990 crosses into seven-digit entry ids, which
        order as text in `audit()`: led-1000000 before led-999999. The
        export formats each distinct amount once, so its rows must equal
        the reference's, which formats every amount afresh."""
        governor = governor_with_terms(seq, term_prices)
        billing = governor.billing
        reference = ReferenceLedger(seq)
        steps = [(service, host, f"rpt-{cid}", payer, at) for service, host, cid, payer, at in ops]
        for service, host, correlation_id, payer, at in steps + [(*fixed, "anon-1", 3.0) for fixed in FIXED]:
            desc = governor.registry.get(f"svc-{service}")
            governor.ingest_report(paid_report(correlation_id, desc.service_id, host, payer, at))
            reference.meter(desc, payer, correlation_id, host, at)

        assert billing.audit() == reference.audit()
        assert billing.entry_count() == len(reference.rows)
        assert billing.balances() == {p: reference.balance(p) for p in reference.parties()}
        assert billing.class_revenue() == reference.class_revenue()
        total = sum(row[3] for row in reference.rows)
        assert billing.total_metered() == billing.total_credited() == total
        assert list(billing.ledger_csv_rows()) == reference.csv_rows()

        assert governor.check_invariants() == []

        # The journal, saved and replayed, meters the same rows again,
        # numbered from 1 on.
        restored = restore_governor(snapshot_governor(governor)).billing
        assert [row[1:] for row in restored._rows] == [row[1:] for row in billing._rows]


class TestLedgerExport:
    def test_two_exports_from_one_unit_give_equal_rows(self):
        """Each export keeps its own money texts: two exports taken in
        turn, row by row, and a third after them are the same rows."""
        governor = governor_with_terms(0)
        for n in range(40):
            service, host = n % len(TERMS), HOSTS[n % len(HOSTS)]
            governor.ingest_report(paid_report(f"inv-{n}", f"svc-{service}", host, "anon-1", float(n % 3)))
        billing = governor.billing
        first, second = billing.ledger_csv_rows(), billing.ledger_csv_rows()
        pairs = list(zip(first, second, strict=True))
        assert len(pairs) == 41
        assert all(a == b for a, b in pairs)
        assert list(billing.ledger_csv_rows()) == [a for a, _ in pairs]
        assert {row[3] for _, row in pairs[1:]} == {format_money(price) for _, price, _ in TERMS}


class TestAuditReturnsTheRows:
    def test_a_few_hundred_reports_are_audited_as_their_own_rows(self):
        """Metering only appends a row, and `audit()` hands back the
        stored rows themselves, in audit order: no view is built."""
        governor = ServiceGovernor()
        governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
        governor.registry.register_service(make_service())
        governor.hosts.register_host("host-a", "Android", "4.0", ResourceVector(2048, 32, 64, 2000), 20000)
        assert governor.request_hosting("host-a", "svc-resize").confirmed
        for i in range(300):
            assert governor.ingest_report(ExecutionReport(
                report_id=f"rpt-{i}", host_id="host-a", service_id="svc-resize",
                requester_pseudonym="anon-1", started_at=float(300 - i), duration_ms=5.0,
                energy_used_mwh=1, outcome=Outcome.success(), rating=4,
            ))
        assert governor.billing.entry_count() == 300
        assert governor.check_invariants() == []
        audited = governor.billing.audit()
        assert len(audited) == 300
        assert all(row is stored for row, stored in zip(audited, reversed(governor.billing._rows), strict=True))


def cents(text: str) -> int:
    """A ledger.csv amount back in minor units: "12.34" -> 1234."""
    whole, _, part = text.lstrip("-").partition(".")
    value = int(whole) * 100 + int(part)
    return -value if text.startswith("-") else value


class TestRunLedgerAuditsAgainstItsMetrics:
    @pytest.mark.parametrize("mode", [MODE_MARKETPLACE, MODE_WAN_CLOUD])
    @pytest.mark.parametrize("name", ["default.json", "composite.json"])
    def test_ledger_columns_sum_to_revenue_and_each_row_to_its_total(self, tmp_path, name, mode):
        """A run's written ledger against its written metrics: the
        developer, host and governor columns sum to `revenue`, each row's
        credits sum to its total, and no correlation id repeats."""
        result = run_scenario(replace(load_scenario(SCENARIOS / name), baseline_mode=mode))
        _write_outputs(result, tmp_path)
        revenue = json.loads((tmp_path / "metrics.json").read_text(encoding="utf-8"))["revenue"]
        with (tmp_path / "ledger.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        parties = ("developer", "host", "governor")
        assert {party: sum(cents(row[party]) for row in rows) for party in parties} == revenue
        for row in rows:
            assert sum(cents(row[party]) for party in parties) == cents(row["total"])
        assert len({row["correlation_id"] for row in rows}) == len(rows)
