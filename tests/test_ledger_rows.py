"""The ledger kept as flat rows, against a reference that builds one
`LedgerEntry` per metered invocation, as the ledger once stored them.
Rows are metered as a run meters them: by ingesting successful reports."""
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from conftest import make_service, paid_report, placed
import momcc.governor.billing as billing_module
from momcc.domain import ExecutionReport, Outcome, ResourceVector
from momcc.governor import ServiceGovernor
from momcc.governor.billing import GOVERNOR_PARTY, LedgerEntry, format_money
from momcc.snapshot import restore_governor, snapshot_governor

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
    """One `LedgerEntry` per metered invocation, each split computed afresh."""

    def __init__(self, seq: int):
        self.entries: list[LedgerEntry] = []
        self.metered: set[str] = set()
        self.seq = seq

    def meter(self, agreement, payer, correlation_id, host_id, at):
        if correlation_id in self.metered:
            return
        price = agreement.price_per_invocation
        dev = int(Fraction(str(agreement.developer_share)) * price)
        host = int(Fraction(str(agreement.host_share)) * price)
        gov = price - dev - host
        credits: dict[str, int] = {}
        for party, amount in ((agreement.developer_id, dev), (host_id, host), (GOVERNOR_PARTY, gov)):
            credits[party] = credits.get(party, 0) + amount
        self.seq += 1
        self.entries.append(LedgerEntry(
            entry_id=f"led-{self.seq:06d}", correlation_id=correlation_id, payer=payer,
            total=price, credits=credits,
            class_totals={"developer": dev, "host": host, "governor": gov}, timestamp=at,
        ))
        self.metered.add(correlation_id)

    def audit(self, start=None, end=None):
        entries = [e for e in self.entries
                   if (start is None or e.timestamp >= start) and (end is None or e.timestamp <= end)]
        return sorted(entries, key=lambda e: (e.timestamp, e.entry_id))

    def balance(self, party):
        return sum(e.credits.get(party, 0) for e in self.entries)

    def parties(self):
        return {party for e in self.entries for party in e.credits}

    def class_revenue(self):
        totals = {"developer": 0, "host": 0, "governor": 0}
        for e in self.entries:
            for cls, amount in e.class_totals.items():
                totals[cls] += amount
        return totals

    def csv_rows(self):
        return [["entry_id", "correlation_id", "payer", "total",
                 "developer", "host", "governor", "format_version"]] + [
            [e.entry_id, e.correlation_id, e.payer, format_money(e.total),
             *(format_money(e.class_totals[c]) for c in ("developer", "host", "governor")), "1"]
            for e in self.audit()
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
bounds = st.one_of(st.none(), st.sampled_from([0.0, 1.0, 1.5, 2.0, 5.0]))
# A price per term: the terms' own, others near a whole unit, or any. Equal
# prices on two terms repeat amounts across agreements.
prices = st.lists(
    st.one_of(st.sampled_from([price for _, price, _ in TERMS] + [99, 100, 101]), st.integers(0, 10**9)),
    min_size=len(TERMS), max_size=len(TERMS),
)
# Metered after the drawn steps, so every export holds zero (the 0.0
# share's developer credit), an amount on two rows (the same agreement
# twice) and amounts on one row (another agreement).
FIXED = [(4, "host-a", "fixed-1"), (4, "host-b", "fixed-2"), (2, "host-b", "fixed-3")]


class TestRowLedgerMatchesTheEntryLedger:
    @settings(max_examples=200, deadline=None)
    @given(operations, st.sampled_from([0, 999_990]), bounds, bounds, prices)
    def test_every_reader_and_the_state_match(self, ops, seq, start, end, term_prices):
        """Starting at 999,990 crosses into seven-digit entry ids, which
        order as text in `audit()`: led-1000000 before led-999999. The
        export formats each distinct amount once, so its rows must equal
        the reference's, which formats every amount afresh."""
        governor = governor_with_terms(seq, term_prices)
        billing = governor.billing
        reference = ReferenceLedger(seq)
        steps = [(service, host, f"rpt-{cid}", payer, at) for service, host, cid, payer, at in ops]
        for service, host, correlation_id, payer, at in steps + [(*fixed, "anon-1", 3.0) for fixed in FIXED]:
            agreement = billing.agreement_for(f"svc-{service}")
            governor.ingest_report(paid_report(correlation_id, agreement.service_id, host, payer, at))
            reference.meter(agreement, payer, correlation_id, host, at)

        assert billing.audit() == reference.audit()
        assert billing.audit(start, end) == reference.audit(start, end)
        assert billing.entry_count() == len(reference.entries)
        assert billing.parties() == reference.parties()
        for party in reference.parties() | {"nobody"}:
            assert billing.account_balance(party) == reference.balance(party)
        assert billing.balances() == {p: reference.balance(p) for p in reference.parties()}
        assert billing.class_revenue() == reference.class_revenue()
        total = sum(e.total for e in reference.entries)
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


class TestReportPathBuildsNoEntries:
    def test_a_few_hundred_reports_construct_no_ledger_entry(self, monkeypatch):
        built = []

        def counting(**entry):
            built.append(entry["entry_id"])
            return LedgerEntry(**entry)

        # Billing is the one module that builds a `LedgerEntry`.
        monkeypatch.setattr(billing_module, "LedgerEntry", counting)
        governor = ServiceGovernor()
        governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
        governor.registry.register_service(make_service())
        governor.hosts.register_host("host-a", "Android", "4.0", ResourceVector(2048, 32, 64, 2000), 20000)
        assert governor.request_hosting("host-a", "svc-resize").confirmed
        for i in range(300):
            assert governor.ingest_report(ExecutionReport(
                report_id=f"rpt-{i}", host_id="host-a", service_id="svc-resize",
                requester_pseudonym="anon-1", started_at=float(i), duration_ms=5.0,
                energy_used_mwh=1, outcome=Outcome.success(), rating=4,
            ))
        assert built == []
        assert governor.billing.entry_count() == 300
        assert governor.check_invariants() == []
        assert built == []
        assert len(governor.billing.audit()) == 300
        assert len(built) == 300  # the counter sees what `audit()` builds
