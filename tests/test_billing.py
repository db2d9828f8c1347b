"""Negotiation feasibility, metering arithmetic, ledger conservation."""
import random
import threading
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from momcc.errors import (
    DuplicateCorrelationError,
    NegotiationRejected,
)
from momcc.governor.billing import (
    Agreement,
    BillingUnit,
    GOVERNOR_PARTY,
    _frac,
    format_money,
    share_of,
    split_price,
)


def unit(commission=0.2) -> BillingUnit:
    return BillingUnit(governor_commission=commission, lock=threading.RLock())


def agreement(price=1000, dev=0.4, host=0.4, commission=0.2) -> Agreement:
    return Agreement(
        service_id="svc-resize",
        developer_id="dev-alpha",
        price_per_invocation=price,
        developer_share=dev,
        host_share=host,
        governor_commission=commission,
    )


class TestNegotiateDeveloper:
    def test_feasible_terms_accepted(self):
        terms = unit().negotiate_developer("dev-alpha", 1000, 0.4)
        assert terms.developer_share == 0.4

    def test_share_plus_commission_over_one_rejected(self):
        with pytest.raises(NegotiationRejected):
            unit().negotiate_developer("dev-alpha", 1000, 0.9)  # 0.9 + 0.2 = 1.1

    def test_boundary_share_accepted_exactly(self):
        unit().negotiate_developer("dev-alpha", 1000, 0.8)  # 0.8 + 0.2 = 1

    def test_free_service_zero_share_accepted(self):
        terms = unit().negotiate_developer("dev-alpha", 0, 0.0)
        assert terms.developer_share == 0.0

    def test_negative_price_rejected(self):
        with pytest.raises(NegotiationRejected):
            unit().negotiate_developer("dev-alpha", -1, 0.1)


class TestNegotiateHost:
    def test_remainder_meets_min_share(self):
        billing = unit()
        result = billing.negotiate_host("host-a", "svc-resize", min_share=0.3,
                                        developer_id="dev-alpha", price=1000,
                                        developer_share=0.4)
        assert (result.developer_share, result.host_share, result.governor_commission) == \
            (0.4, 0.4, 0.2)

    def test_min_share_above_remainder_rejected(self):
        with pytest.raises(NegotiationRejected):
            unit().negotiate_host("host-a", "svc-resize", min_share=0.5,
                                  developer_id="dev-alpha", price=1000,
                                  developer_share=0.4)

    def test_zero_developer_share_leaves_full_remainder(self):
        result = unit().negotiate_host("host-a", "svc-free", min_share=0.8,
                                       developer_id="dev-alpha", price=1000,
                                       developer_share=0.0)
        assert result.host_share == 0.8

    def test_shares_always_sum_to_one(self):
        rng = random.Random(3)
        for _ in range(200):
            commission = rng.choice([0.0, 0.1, 0.2, 0.25])
            dev = round(rng.uniform(0, 1 - commission), 2)
            billing = unit(commission)
            result = billing.negotiate_host("h", "s", 0.0, "d", 100, dev)
            # Agreement construction enforces the exact-sum invariant.
            assert isinstance(result, Agreement)


class TestMeterInvocation:
    def test_even_split_on_round_price(self):
        billing = unit()
        entry = billing.meter_invocation(agreement(price=1000), "anon-1", "inv-1", "host-a")
        assert entry.class_totals == {"developer": 400, "host": 400, "governor": 200}
        assert entry.total == 1000
        assert sum(entry.credits.values()) == 1000

    def test_zero_price_gives_all_zero_entry(self):
        billing = unit()
        entry = billing.meter_invocation(agreement(price=0), "anon-1", "inv-1", "host-a")
        assert entry.total == 0
        assert all(v == 0 for v in entry.credits.values())

    def test_one_cent_rounding_remainder_goes_to_governor(self):
        billing = unit()
        entry = billing.meter_invocation(agreement(price=1), "anon-1", "inv-1", "host-a")
        assert entry.class_totals == {"developer": 0, "host": 0, "governor": 1}
        assert sum(entry.credits.values()) == 1

    def test_duplicate_correlation_errors(self):
        billing = unit()
        billing.meter_invocation(agreement(), "anon-1", "inv-1", "host-a")
        with pytest.raises(DuplicateCorrelationError):
            billing.meter_invocation(agreement(), "anon-1", "inv-1", "host-b")
        assert billing.total_metered() == 1000

    def test_rounding_conserves_on_awkward_shares(self):
        rng = random.Random(12)
        billing = unit(0.15)
        total = 0
        for i in range(500):
            dev = round(rng.uniform(0, 0.85), 2)
            agmt = billing.negotiate_host("h", f"s{i}", 0.0, "d", rng.randint(0, 999), dev)
            entry = billing.meter_invocation(agmt, "anon", f"inv-{i}", "host-a")
            assert sum(entry.credits.values()) == entry.total
            total += entry.total
        assert billing.total_metered() == total
        assert billing.total_credited() == total


class TestAccounts:
    def test_empty_ledger_zero_balance(self):
        assert unit().account_balance("dev-alpha") == 0

    def test_two_invocations_at_ten_units(self):
        billing = unit()
        billing.meter_invocation(agreement(price=1000), "anon-1", "inv-1", "host-a")
        billing.meter_invocation(agreement(price=1000), "anon-2", "inv-2", "host-a")
        assert billing.account_balance("dev-alpha") == 800
        assert billing.account_balance("host-a") == 800
        assert billing.account_balance(GOVERNOR_PARTY) == 400

    def test_audit_orders_by_timestamp(self):
        billing = unit()
        rng = random.Random(6)
        stamps = [rng.uniform(0, 1000) for _ in range(50)]
        for i, at in enumerate(stamps):
            billing.meter_invocation(agreement(price=100), "anon", f"inv-{i}", "h", at=at)
        audited = billing.audit()
        assert [e.timestamp for e in audited] == sorted(stamps)

    def test_audit_range_filter(self):
        billing = unit()
        for i in range(10):
            billing.meter_invocation(agreement(price=100), "anon", f"inv-{i}", "h", at=float(i))
        window = billing.audit(start=3.0, end=6.0)
        assert [e.timestamp for e in window] == [3.0, 4.0, 5.0, 6.0]

    def test_conservation_over_random_activity(self):
        billing = unit()
        rng = random.Random(10)
        for i in range(300):
            agmt = billing.negotiate_host(
                f"h{i % 7}", f"s{i % 11}-{i}", 0.0, f"d{i % 3}",
                rng.randint(0, 5000), round(rng.uniform(0, 0.8), 2),
            )
            billing.meter_invocation(agmt, "anon", f"inv-{i}", f"h{i % 7}")
        balance_sum = sum(billing.account_balance(p) for p in billing.parties())
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

    def test_agreement_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            Agreement("s", "d", 100, 0.5, 0.5, 0.2)

    def test_ledger_csv_header_has_party_class_columns(self):
        billing = unit()
        billing.meter_invocation(agreement(), "anon-1", "inv-1", "host-a")
        rows = list(billing.ledger_csv_rows())
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


class TestCachedSplit:
    """Metering reads each agreement's split from a cache; it must be the
    exact per-invocation formula for every agreement and every unit."""

    @settings(max_examples=300, deadline=None)
    @given(prices, decimal_shares, decimal_shares, decimal_shares)
    def test_split_matches_the_exact_formula_in_two_units(self, price, dev, commission_a, commission_b):
        assume(commission_a != commission_b)
        assume(Fraction(str(dev)) + Fraction(str(max(commission_a, commission_b))) <= 1)
        for n, commission in enumerate((commission_a, commission_b)):
            billing = unit(commission)
            agmt = billing.negotiate_host("host-a", "svc-resize", 0.0, "dev-alpha", price, dev)
            expected = exact_split(price, agmt)
            assert split_price(price, agmt.developer_share, agmt.host_share) == (
                share_of(price, agmt.developer_share),
                share_of(price, agmt.host_share),
                expected["governor"],
            )
            entry = billing.meter_invocation(agmt, "anon-1", f"inv-{n}", "host-a")
            assert entry.class_totals == expected
            assert sum(entry.credits.values()) == entry.total == price

    def test_restored_unit_meters_the_restored_agreement(self):
        original = unit(0.15)
        agmt = original.negotiate_host("host-a", "svc-resize", 0.0, "dev-alpha", 997, 0.33)
        original.meter_invocation(agmt, "anon-1", "inv-1", "host-a")
        restored = unit(0.3)  # metering something else first warms the cache with other shares
        restored.meter_invocation(
            restored.negotiate_host("host-b", "svc-other", 0.0, "dev-beta", 997, 0.33),
            "anon-2", "inv-0", "host-b",
        )
        restored.restore_state(original.snapshot_state())
        entry = restored.meter_invocation(
            restored.agreement_for("svc-resize"), "anon-1", "inv-2", "host-a"
        )
        assert restored.agreement_for("svc-resize") == agmt
        assert entry.class_totals == exact_split(997, agmt)
        assert entry.class_totals == original.meter_invocation(
            agmt, "anon-1", "inv-2", "host-a"
        ).class_totals
        assert restored.total_credited() == restored.total_metered() == 2 * 997


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
