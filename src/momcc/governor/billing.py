"""Billing and access control: negotiation, metering, and the ledger.

Money is integer minor units throughout, so conservation is exact: each
metered invocation splits its price by the agreed shares, rounds each
credit down, and hands the remainder to the governor. Failed executions
are never billed, and a correlation_id can be metered at most once.

Negotiation is two-stage and always with the governor: a developer
registers terms for their services, and a host later accepts whatever
share remains after the developer share and the governor commission.
Hosts never negotiate with developers or requesters directly.
"""
from __future__ import annotations

import threading
from dataclasses import asdict, dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator

from ..domain import ExecutionReport
from ..errors import DuplicateCorrelationError, MissingAgreementError, NegotiationRejected

GOVERNOR_PARTY = "governor"

DEFAULT_COMMISSION = 0.2


@lru_cache(maxsize=4096, typed=True)
def _frac(x: float) -> Fraction:
    """Exact fraction of a decimal-looking float ("0.4" -> 2/5).

    A run converts the same few shares over and over (two per registered
    service), so each distinct one is built once.
    """
    return Fraction(str(x))


def share_of(amount: int, share: float) -> int:
    """Floor of amount x share, computed exactly."""
    return int(_frac(share) * amount)


@lru_cache(maxsize=4096)
def split_price(price: int, developer_share: float, host_share: float) -> tuple[int, int, int]:
    """(developer, host, governor) credits of one invocation: each share
    rounded down, the remainder to the governor.

    An agreement's split depends only on these three terms, so each
    distinct agreement builds its `Fraction`s once, not once per metered
    invocation.
    """
    developer = share_of(price, developer_share)
    host = share_of(price, host_share)
    return developer, host, price - developer - host


@lru_cache(maxsize=4096, typed=True)
def _host_share(developer_share: float, commission: float) -> Fraction:
    """Exact 1 - developer_share - commission, built once per distinct pair:
    the listing index asks for it once per registered service."""
    return 1 - _frac(developer_share) - _frac(commission)


def check_developer_share(developer_share: float, commission: float) -> None:
    """Billing's feasibility rule: a developer share plus the governor's
    commission may not exceed 1, or no host share is left to agree on."""
    if _host_share(developer_share, commission) < 0:
        raise NegotiationRejected(
            f"developer share {developer_share} plus commission {commission} exceeds 1"
        )


@dataclass(frozen=True)
class DeveloperTerms:
    developer_id: str
    price_per_invocation: int
    developer_share: float


@dataclass(frozen=True)
class Agreement:
    """The settled split for one service; shares sum to exactly 1."""

    service_id: str
    developer_id: str
    price_per_invocation: int
    developer_share: float
    host_share: float
    governor_commission: float

    def __post_init__(self) -> None:
        total = _frac(self.developer_share) + _frac(self.host_share) + _frac(self.governor_commission)
        if total != 1:
            raise ValueError(f"shares must sum to 1, got {float(total)}")
        for name in ("developer_share", "host_share", "governor_commission"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class LedgerEntry:
    """One metered invocation's money flow; sum(credits) == total."""

    entry_id: str
    correlation_id: str
    payer: str
    total: int
    credits: dict[str, int]
    class_totals: dict[str, int]
    timestamp: float

    def __post_init__(self) -> None:
        if sum(self.credits.values()) != self.total:
            raise ValueError("credits must sum to total")


class BillingUnit:
    def __init__(self, governor_commission: float, lock: threading.RLock):
        if not 0.0 <= governor_commission <= 1.0:
            raise ValueError("governor_commission must be in [0, 1]")
        self.governor_commission = governor_commission
        self._lock = lock
        self._developers: dict[str, DeveloperTerms] = {}
        self._agreements: dict[str, Agreement] = {}
        self._entries: list[LedgerEntry] = []
        self._metered_correlations: set[str] = set()
        self._entry_seq = 0

    # -- negotiation --------------------------------------------------

    def negotiate_developer(self, developer_id: str, price: int, requested_share: float) -> DeveloperTerms:
        """Register a developer's terms; feasible iff share + commission <= 1."""
        if price < 0:
            raise NegotiationRejected("price must be >= 0")
        if not 0.0 <= requested_share <= 1.0:
            raise NegotiationRejected("requested share must be in [0, 1]")
        check_developer_share(requested_share, self.governor_commission)
        terms = DeveloperTerms(developer_id, price, requested_share)
        with self._lock:
            self._developers[developer_id] = terms
        return terms

    def developer_registered(self, developer_id: str) -> bool:
        with self._lock:
            return developer_id in self._developers

    def host_share(self, developer_share: float) -> Fraction:
        """Exact 1 - developer_share - commission; negative when those exceed 1."""
        return _host_share(developer_share, self.governor_commission)

    def negotiate_host(self, host_id: str, service_id: str, min_share: float,
                       developer_id: str, price: int, developer_share: float) -> Agreement:
        """Offer a host the remainder share for a service; the host takes
        it or leaves it (rejection if below its min_share)."""
        check_developer_share(developer_share, self.governor_commission)
        remainder = self.host_share(developer_share)
        if remainder < _frac(min_share):
            raise NegotiationRejected(
                f"host share {float(remainder)} below requested minimum {min_share}"
            )
        agreement = Agreement(
            service_id=service_id,
            developer_id=developer_id,
            price_per_invocation=price,
            developer_share=developer_share,
            host_share=float(remainder),
            governor_commission=self.governor_commission,
        )
        with self._lock:
            self._agreements[service_id] = agreement
        return agreement

    def agreement_for(self, service_id: str) -> Agreement | None:
        with self._lock:
            return self._agreements.get(service_id)

    # -- metering -----------------------------------------------------

    def meter_invocation(self, agreement: Agreement, requester_pseudonym: str,
                         correlation_id: str, host_id: str, at: float = 0.0) -> LedgerEntry:
        """Record one successful paid invocation.

        Each share is rounded down to minor units and the remainder goes
        to the governor, so credits always sum to the price exactly.
        """
        with self._lock:
            if correlation_id in self._metered_correlations:
                raise DuplicateCorrelationError(
                    f"correlation {correlation_id!r} already metered"
                )
            price = agreement.price_per_invocation
            dev_credit, host_credit, governor_credit = split_price(
                price, agreement.developer_share, agreement.host_share
            )
            credits: dict[str, int] = {}
            for party, amount in (
                (agreement.developer_id, dev_credit),
                (host_id, host_credit),
                (GOVERNOR_PARTY, governor_credit),
            ):
                credits[party] = credits.get(party, 0) + amount
            self._entry_seq += 1
            entry = LedgerEntry(
                entry_id=f"led-{self._entry_seq:06d}",
                correlation_id=correlation_id,
                payer=requester_pseudonym,
                total=price,
                credits=credits,
                class_totals={
                    "developer": dev_credit,
                    "host": host_credit,
                    "governor": governor_credit,
                },
                timestamp=at,
            )
            self._metered_correlations.add(correlation_id)
            self._entries.append(entry)
            return entry

    def meter_report(self, report: ExecutionReport) -> None:
        """Meter a successful execution report under its service's
        agreement, once: a report id already metered is skipped."""
        with self._lock:
            agreement = self._agreements.get(report.service_id)
            if agreement is None:
                raise MissingAgreementError(
                    f"no billing agreement for service {report.service_id!r}"
                )
            if report.report_id not in self._metered_correlations:
                self.meter_invocation(
                    agreement,
                    requester_pseudonym=report.requester_pseudonym,
                    correlation_id=report.report_id,
                    host_id=report.host_id,
                    at=report.started_at + report.duration_ms,
                )

    def already_metered(self, correlation_id: str) -> bool:
        with self._lock:
            return correlation_id in self._metered_correlations

    # -- accounts and audit -------------------------------------------

    def account_balance(self, party_id: str) -> int:
        """Credits minus withdrawals; withdrawals are out of scope (always 0)."""
        with self._lock:
            return sum(entry.credits.get(party_id, 0) for entry in self._entries)

    def audit(self, start: float | None = None, end: float | None = None) -> list[LedgerEntry]:
        """Entries in timestamp order, optionally restricted to [start, end]."""
        with self._lock:
            entries = list(self._entries)
        if start is not None:
            entries = [e for e in entries if e.timestamp >= start]
        if end is not None:
            entries = [e for e in entries if e.timestamp <= end]
        return sorted(entries, key=lambda e: (e.timestamp, e.entry_id))

    def total_metered(self) -> int:
        with self._lock:
            return sum(entry.total for entry in self._entries)

    def total_credited(self) -> int:
        with self._lock:
            return sum(sum(entry.credits.values()) for entry in self._entries)

    def class_revenue(self) -> dict[str, int]:
        with self._lock:
            totals = {"developer": 0, "host": 0, "governor": 0}
            for entry in self._entries:
                for cls, amount in entry.class_totals.items():
                    totals[cls] += amount
            return totals

    def parties(self) -> set[str]:
        with self._lock:
            seen: set[str] = set()
            for entry in self._entries:
                seen.update(entry.credits)
            return seen

    LEDGER_CSV_VERSION = 1

    def ledger_csv_rows(self) -> Iterator[list[str]]:
        """Rows for the ledger export, one column per party class, each
        built as it is taken."""
        yield ["entry_id", "correlation_id", "payer", "total",
               "developer", "host", "governor", "format_version"]
        for entry in self.audit():
            yield [
                entry.entry_id,
                entry.correlation_id,
                entry.payer,
                format_money(entry.total),
                format_money(entry.class_totals["developer"]),
                format_money(entry.class_totals["host"]),
                format_money(entry.class_totals["governor"]),
                str(self.LEDGER_CSV_VERSION),
            ]

    # -- persistence ------------------------------------------------------

    def snapshot_state(self) -> dict:
        # The state file is written with sorted keys, so asdict's field order is free.
        with self._lock:
            return {
                "governor_commission": self.governor_commission,
                "developers": {
                    dev_id: asdict(terms) for dev_id, terms in sorted(self._developers.items())
                },
                "agreements": {sid: asdict(a) for sid, a in sorted(self._agreements.items())},
                "entries": [asdict(e) for e in self._entries],
                "entry_seq": self._entry_seq,
            }

    def restore_state(self, state: dict) -> None:
        with self._lock:
            self.governor_commission = state["governor_commission"]
            self._developers.clear()
            self._agreements.clear()
            self._entries.clear()
            self._metered_correlations.clear()
            for raw in state["developers"].values():
                self._developers[raw["developer_id"]] = DeveloperTerms(**raw)
            for sid, raw in state["agreements"].items():
                self._agreements[sid] = Agreement(**raw)
            for raw in state["entries"]:
                entry = LedgerEntry(**raw)
                self._entries.append(entry)
                self._metered_correlations.add(entry.correlation_id)
            self._entry_seq = state["entry_seq"]


def format_money(cents: int) -> str:
    """Minor units to a decimal string: 1234 -> "12.34"."""
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"
