"""Negotiation feasibility, metering arithmetic, ledger conservation.

Agreements are settled by placing a service and rows are metered by
ingesting a successful report, as a run does.
"""
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import make_service, paid_report, placed
from momcc.domain import ExecutionReport, Outcome, ResourceVector
from momcc.errors import NegotiationRejected
from momcc.governor import ServiceGovernor
from momcc.governor.billing import (
    Agreement,
    BillingUnit,
    GOVERNOR_PARTY,
    _frac,
    format_money,
    share_of,
    split_price,
)
from momcc.snapshot import restore_governor, snapshot_governor


def unit(commission=0.2) -> BillingUnit:
    return BillingUnit(governor_commission=commission, lock=threading.RLock(), journal=[])


def metered(governor: ServiceGovernor, correlation_id: str, service_id: str = "svc-resize"):
    """Meter one invocation through its report and read its entry back
    through `audit()`."""
    assert governor.ingest_report(paid_report(correlation_id, service_id))
    return next(entry for entry in governor.billing.audit() if entry.correlation_id == correlation_id)


class TestNegotiateDeveloper:
    def test_feasible_terms_accepted(self):
        billing = unit()
        billing.negotiate_developer("dev-alpha", 1000, 0.4)
        assert billing.developer_registered("dev-alpha")

    def test_share_plus_commission_over_one_rejected(self):
        billing = unit()
        with pytest.raises(NegotiationRejected):
            billing.negotiate_developer("dev-alpha", 1000, 0.9)  # 0.9 + 0.2 = 1.1
        assert not billing.developer_registered("dev-alpha")

    def test_boundary_share_accepted_exactly(self):
        unit().negotiate_developer("dev-alpha", 1000, 0.8)  # 0.8 + 0.2 = 1

    @pytest.mark.parametrize("developer_id, price, share, line", [
        ("dev-alpha", -1, 0.1, "/2: -1 is less than the minimum of 0"),
        ("dev-alpha", 10.5, 0.1, "/2: 10.5 is not of type 'integer'"),
        ("dev-alpha", 1000, 1.5, "/3: 1.5 is greater than the maximum of 1"),
        ("", 1000, 0.1, "/1: '' should be non-empty"),
    ])
    def test_terms_a_restore_would_refuse_are_refused(self, developer_id, price, share, line):
        """Refused by the service schema's fields, as a scenario and a
        saved entry are, and nothing is written."""
        billing = unit()
        with pytest.raises(ValueError) as err:
            billing.negotiate_developer(developer_id, price, share)
        assert str(err.value) == f"billing.negotiate_developer refused: {line}"
        assert billing._journal == [] and not billing.developer_registered(developer_id)

    def test_free_service_zero_share_accepted(self):
        billing = unit()
        billing.negotiate_developer("dev-alpha", 0, 0.0)
        assert billing.developer_registered("dev-alpha")


class TestNegotiateHost:
    def test_the_first_placement_settles_the_remainder_for_every_later_host(self):
        governor = placed([make_service(price=1000, developer_share=0.4)])
        result = governor.billing.agreement_for("svc-resize")
        assert (result.service_id, result.developer_id, result.price_per_invocation) == \
            ("svc-resize", "dev-alpha", 1000)
        assert (result.developer_share, result.host_share, result.governor_commission) == \
            (0.4, 0.4, 0.2)
        governor.hosts.register_host("host-b", "Android", "4.0", ResourceVector(2048, 32, 64, 2000), 9000)
        assert governor.request_hosting("host-b", "svc-resize").confirmed
        assert governor.billing.agreement_for("svc-resize") is result

    def test_zero_developer_share_leaves_full_remainder(self):
        governor = placed([make_service(service_id="svc-free", developer_share=0.0)])
        assert governor.billing.agreement_for("svc-free").host_share == 0.8

    def test_shares_always_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(200):
            commission = rng.choice([0.0, 0.1, 0.2, 0.25])
            dev = round(rng.uniform(0, 1 - commission), 2)
            governor = placed(
                [make_service(service_id="s", developer_id="d", price=100, developer_share=dev)], commission
            )
            agreement = governor.billing.agreement_for("s")
            shares = (agreement.developer_share, agreement.host_share, agreement.governor_commission)
            assert sum(Fraction(str(share)) for share in shares) == 1


class TestMetering:
    def test_even_split_on_round_price(self):
        entry = metered(placed([make_service(price=1000)]), "inv-1")
        assert entry.class_totals == {"developer": 400, "host": 400, "governor": 200}
        assert entry.total == 1000
        assert sum(entry.credits.values()) == 1000

    def test_zero_price_gives_all_zero_entry(self):
        entry = metered(placed([make_service(price=0)]), "inv-1")
        assert entry.total == 0
        assert all(v == 0 for v in entry.credits.values())

    def test_one_cent_rounding_remainder_goes_to_governor(self):
        entry = metered(placed([make_service(price=1)]), "inv-1")
        assert entry.class_totals == {"developer": 0, "host": 0, "governor": 1}
        assert sum(entry.credits.values()) == 1

    def test_a_report_id_is_metered_once(self):
        governor = placed([make_service()], hosts=("host-a", "host-b"))
        metered(governor, "inv-1")
        again = paid_report("inv-1", host_id="host-b")
        assert governor.ingest_report(again) is False
        assert governor.billing.total_metered() == 1000
        assert governor.billing.entry_count() == 1

    def test_rounding_conserves_on_awkward_shares(self):
        rng = random.Random(12)
        services = []
        for i in range(500):
            dev = round(rng.uniform(0, 0.85), 2)
            services.append(make_service(
                service_id=f"s{i}", developer_id="d", price=rng.randint(0, 999), developer_share=dev,
            ))
        governor = placed(services, 0.15)
        for i, desc in enumerate(services):
            assert governor.ingest_report(paid_report(f"inv-{i}", desc.service_id))
        prices = [desc.price_per_invocation for desc in services]
        billing = governor.billing
        entries = billing.audit()
        assert [entry.total for entry in entries] == prices
        for entry in entries:
            assert sum(entry.credits.values()) == entry.total
        total = sum(prices)
        assert billing.total_metered() == total
        assert billing.total_credited() == total


class TestAccounts:
    def test_empty_ledger_has_no_balance(self):
        assert unit().balances() == {}

    def test_two_invocations_at_ten_units(self):
        governor = placed([make_service(price=1000)])
        governor.ingest_report(paid_report("inv-1", payer="anon-1"))
        governor.ingest_report(paid_report("inv-2", payer="anon-2"))
        billing = governor.billing
        assert billing.balances() == {"dev-alpha": 800, "host-a": 800, GOVERNOR_PARTY: 400}

    def test_audit_orders_by_timestamp(self):
        governor = placed([make_service(price=100)])
        rng = random.Random(6)
        stamps = [rng.uniform(0, 1000) for _ in range(50)]
        for i, at in enumerate(stamps):
            governor.ingest_report(paid_report(f"inv-{i}", payer="anon", at=at))
        audited = governor.billing.audit()
        assert [e.timestamp for e in audited] == sorted(stamps)

    def test_conservation_over_random_activity(self):
        rng = random.Random(10)
        services = [
            make_service(
                service_id=f"s{i % 11}-{i}", developer_id=f"d{i % 3}",
                price=rng.randint(0, 5000), developer_share=round(rng.uniform(0, 0.8), 2),
            )
            for i in range(300)
        ]
        governor = placed(services, hosts=tuple(f"h{k}" for k in range(7)))
        for i, desc in enumerate(services):
            governor.ingest_report(paid_report(f"inv-{i}", desc.service_id, host_id=f"h{i % 7}", payer="anon"))
        billing = governor.billing
        balance_sum = sum(billing.balances().values())
        assert balance_sum == billing.total_metered()


class TestHelpers:
    def test_share_of_is_exact_floor(self):
        assert share_of(1000, 0.4) == 400
        assert share_of(1, 0.4) == 0
        assert share_of(29, 0.29) == 8  # floor(8.41)
        assert share_of(100, 0.29) == 29  # no float fuzz off-by-one

    def test_format_money(self):
        assert format_money(0) == "0.00"
        assert format_money(1) == "0.01"
        assert format_money(1234) == "12.34"
        assert format_money(-250) == "-2.50"

    def test_ledger_csv_header_has_party_class_columns(self):
        governor = placed([make_service()])
        governor.ingest_report(paid_report("inv-1"))
        rows = list(governor.billing.ledger_csv_rows())
        assert rows[0] == ["entry_id", "correlation_id", "payer", "total",
                           "developer", "host", "governor", "format_version"]
        assert rows[1][2] == "anon-1"
        assert rows[1][3] == "10.00"
        assert rows[1][-1] == "1"


def exact_split(price: int, agreement: Agreement) -> dict[str, int]:
    """Each share of the price rounded down, computed afresh; the rest to the governor."""
    developer = int(Fraction(str(agreement.developer_share)) * price)
    host = int(Fraction(str(agreement.host_share)) * price)
    return {"developer": developer, "host": host, "governor": price - developer - host}


prices = st.integers(0, 10**6)
decimal_shares = st.integers(0, 100).map(lambda k: k / 100)
# (developer share, commission a, commission b) in hundredths: two
# distinct commissions, then a developer share both leave room for. Drawn
# in range rather than filtered, so the filter health check never trips.
settleable_shares = st.lists(st.integers(0, 100), min_size=2, max_size=2, unique=True).flatmap(
    lambda ks: st.tuples(st.integers(0, 100 - max(ks)), st.just(ks[0]), st.just(ks[1]))
).map(lambda hundredths: tuple(k / 100 for k in hundredths))


class TestCachedSplit:
    """Metering reads each agreement's split from a cache; it must be the
    exact per-invocation formula for every agreement and every unit."""

    @settings(max_examples=300, deadline=None)
    @given(prices, settleable_shares)
    def test_split_matches_the_exact_formula_in_two_units(self, price, shares):
        dev, commission_a, commission_b = shares
        for n, commission in enumerate((commission_a, commission_b)):
            governor = placed([make_service(price=price, developer_share=dev)], commission)
            agmt = governor.billing.agreement_for("svc-resize")
            expected = exact_split(price, agmt)
            assert split_price(price, agmt.developer_share, agmt.host_share) == (
                share_of(price, agmt.developer_share),
                share_of(price, agmt.host_share),
                expected["governor"],
            )
            entry = metered(governor, f"inv-{n}")
            assert entry.class_totals == expected
            assert sum(entry.credits.values()) == entry.total == price

    def test_a_restored_governor_meters_by_the_restored_agreement(self):
        original = placed([make_service(price=997, developer_share=0.33)], 0.15)
        agmt = original.billing.agreement_for("svc-resize")
        metered(original, "inv-1")
        # Metering something else first warms the cache with other shares.
        other = placed([make_service(service_id="svc-other", developer_id="dev-beta", price=997,
                                     developer_share=0.33)], 0.3)
        metered(other, "inv-0", "svc-other")
        restored = restore_governor(snapshot_governor(original))
        entry = metered(restored, "inv-2")
        assert restored.billing.agreement_for("svc-resize") == agmt
        assert entry.class_totals == exact_split(997, agmt)
        assert entry.class_totals == metered(original, "inv-2").class_totals
        assert restored.billing.total_credited() == restored.billing.total_metered() == 2 * 997


cacheable_shares = st.one_of(decimal_shares, st.sampled_from([0, 1, 1.0, 0.0]))


class TestCachedHostShare:
    """`BillingUnit.host_share` reads a cache keyed on (developer share,
    commission); units with different commissions share it in one process."""

    @settings(max_examples=300, deadline=None)
    @given(decimal_shares, decimal_shares, decimal_shares)
    def test_host_share_matches_a_fresh_fraction_in_two_units(self, dev, commission_a, commission_b):
        assume(commission_a != commission_b)
        units = ((unit(commission_a), commission_a), (unit(commission_b), commission_b))
        for _ in range(2):  # the second round reads the cache
            for billing, commission in units:
                expected = 1 - Fraction(str(dev)) - Fraction(str(commission))
                assert billing.host_share(dev) == expected


class TestCachedShareParsing:
    """`_frac` is cached; a cached share must be the exact fraction it
    parsed to before, and the splits built from it must not move."""

    @settings(max_examples=300, deadline=None)
    @given(prices, cacheable_shares, cacheable_shares, decimal_shares)
    def test_cached_fractions_match_a_fresh_parse(self, price, dev, host, commission):
        for share in (dev, host, commission):
            assert _frac(share) == Fraction(str(share))
            assert _frac(share) == Fraction(str(share))  # a cache hit
        assume(Fraction(str(dev)) + Fraction(str(host)) <= 1)
        developer = int(Fraction(str(dev)) * price)
        host_credit = int(Fraction(str(host)) * price)
        assert split_price(price, dev, host) == (developer, host_credit, price - developer - host_credit)
        assert unit(commission).host_share(dev) == 1 - Fraction(str(dev)) - Fraction(str(commission))

    def test_ints_and_floats_are_cached_apart(self):
        assert _frac(1) == _frac(1.0) == 1
        assert _frac(0) == _frac(0.0) == 0
        with pytest.raises(ValueError):
            _frac(True)  # "True" is no decimal, even after 1 is cached


class TestLedgerInvariants:
    """`check_invariants()` reports a ledger that breaks the id rules that
    metering keeps: one row per correlation id, one row per entry number,
    and no number above `entry_seq`. The rule that the rows' correlation
    ids equal the successful report ids is tested in `test_snapshot.py`."""

    @pytest.fixture
    def governor(self):
        governor = ServiceGovernor()
        governor.billing.negotiate_developer("dev-alpha", 1000, 0.4)
        governor.registry.register_service(make_service())
        governor.hosts.register_host("host-a", "Android", "4.0", ResourceVector(2048, 32, 64, 2000), 20000)
        assert governor.request_hosting("host-a", "svc-resize").confirmed
        for i in (1, 2):
            assert governor.ingest_report(ExecutionReport(
                report_id=f"rpt-{i}", host_id="host-a", service_id="svc-resize",
                requester_pseudonym="anon-1", started_at=float(i), duration_ms=5.0,
                energy_used_mwh=1, outcome=Outcome.success(), rating=4,
            ))
        assert governor.billing.entry_count() == 2
        assert governor.check_invariants() == []
        return governor

    @staticmethod
    def ledger_lines(governor) -> list[str]:
        return [line for line in governor.check_invariants() if line.startswith("ledger:")]

    def test_a_copied_row_is_reported_twice(self, governor):
        billing = governor.billing
        billing._rows.append(billing._rows[0])
        assert self.ledger_lines(governor) == [
            "ledger: correlation id 'rpt-1' is on more than one row",
            "ledger: entry number 1 is on more than one row",
        ]

    def test_a_second_row_for_one_correlation_id_is_reported(self, governor):
        billing = governor.billing
        billing._entry_seq += 1
        billing._rows.append((billing._entry_seq, *billing._rows[0][1:]))
        assert self.ledger_lines(governor) == [
            "ledger: correlation id 'rpt-1' is on more than one row",
        ]

    def test_a_row_number_above_entry_seq_is_reported(self, governor):
        governor.billing._entry_seq = 1
        assert self.ledger_lines(governor) == [
            "ledger: entry number 2 is above entry_seq 1",
        ]
