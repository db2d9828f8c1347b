"""Billing and access control: negotiation, metering, and the ledger.

Money is integer minor units throughout, so conservation is exact: each
metered invocation splits its price by the agreed shares, rounds each
credit down, and hands the remainder to the governor. Failed executions
are never billed, and a report is metered at most once, its report id
the row's correlation id.

Negotiation is two-stage and always with the governor: a developer
registers with billing, and a service's first placement settles its
agreement, in which the host takes whatever share remains after the
developer share and the governor commission. A service's price and
share live only on its description. Hosts never negotiate with
developers or requesters directly.

Only the developer's registration is a public write. The host registry
settles an agreement when it places a service (`_negotiate_host`) and
meters a successful report when it accepts one (`_meter_report`), under
the lock it holds; so every ledger row is paid for by a report in the
host database's history.

Billing's rules are checked at their doors, a share at registration and
a placement before its reports are metered, and by `check_invariants()`;
its records check nothing. A host share is the float nearest the exact
remainder, so the three shares need not sum to 1 as floats: the
governor takes what the rounded-down credits leave, so each row's
credits still sum to its price.

The ledger keeps one flat row per metered invocation (`Row`): its
sequence number, correlation id, payer, price, developer and host ids,
the three class credits and its timestamp. Metering, the hottest
billing write, only appends a row. A `LedgerEntry` is a view of a row,
built by `audit()` when asked; balances, totals and the CSV export read
the rows directly.
"""
from __future__ import annotations

import threading
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping

from ..domain import ExecutionReport, ServiceDescription
from ..errors import NegotiationRejected
from .journal import check_entry

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
class Agreement:
    """The settled split for one service: the host takes the remainder
    share, as a float."""

    service_id: str
    developer_id: str
    price_per_invocation: int
    developer_share: float
    host_share: float
    governor_commission: float


@dataclass(frozen=True, slots=True)
class LedgerEntry:
    """One metered invocation's money flow; its credits sum to its total.

    A view of one ledger row, built by `audit()`. Slotted, so a full audit
    holds less at once.
    """

    entry_id: str
    correlation_id: str
    payer: str
    total: int
    credits: dict[str, int]
    class_totals: dict[str, int]
    timestamp: float


# One metered invocation: (sequence number, correlation id, payer, price,
# developer id, host id, developer credit, host credit, governor credit,
# timestamp).
Row = tuple[int, str, str, int, str, str, int, int, int, float]


def _entry_id(seq: int) -> str:
    return f"led-{seq:06d}"


def _credits(row: Row) -> dict[str, int]:
    """A row's credit per party. A developer or host that is also the
    governor, or each other, gets one summed credit."""
    _, _, _, _, developer, host, dev_credit, host_credit, governor_credit, _ = row
    credits = {developer: dev_credit}
    credits[host] = credits.get(host, 0) + host_credit
    credits[GOVERNOR_PARTY] = credits.get(GOVERNOR_PARTY, 0) + governor_credit
    return credits


def _entry_fields(row: Row) -> dict:
    """A row as its `LedgerEntry`'s fields."""
    seq, correlation_id, payer, price, _, _, dev_credit, host_credit, governor_credit, at = row
    return {
        "entry_id": _entry_id(seq),
        "correlation_id": correlation_id,
        "payer": payer,
        "total": price,
        "credits": _credits(row),
        "class_totals": {"developer": dev_credit, "host": host_credit, "governor": governor_credit},
        "timestamp": at,
    }


def _in_audit_order(rows: list[Row]) -> list[Row]:
    """Rows by timestamp, then entry id (as text: led-1000000 comes
    before led-999999).

    While every sequence number is below 1,000,000 each id has six
    digits, so the ids' text order is their numbers' order and the key
    takes the number without formatting an id."""
    if max((row[0] for row in rows), default=0) < 1_000_000:
        return sorted(rows, key=lambda row: (row[-1], row[0]))
    return sorted(rows, key=lambda row: (row[-1], _entry_id(row[0])))


class BillingUnit:
    def __init__(self, governor_commission: float, lock: threading.RLock, journal: list):
        self.governor_commission = governor_commission
        self._lock = lock
        self._journal = journal
        self._developers: set[str] = set()
        self._agreements: dict[str, Agreement] = {}
        self._rows: list[Row] = []
        self._entry_seq = 0

    # -- negotiation --------------------------------------------------

    def negotiate_developer(self, developer_id: str, price: int, requested_share: float) -> None:
        """Register a developer whose terms are feasible (share + commission
        <= 1). Only the id is kept: each service carries its own terms."""
        entry = ("billing.negotiate_developer", developer_id, price, requested_share)
        check_entry(entry)
        check_developer_share(requested_share, self.governor_commission)
        with self._lock:
            self._developers.add(developer_id)
            self._journal.append(entry)

    def developer_registered(self, developer_id: str) -> bool:
        with self._lock:
            return developer_id in self._developers

    def host_share(self, developer_share: float) -> Fraction:
        """Exact 1 - developer_share - commission; negative when those exceed 1."""
        return _host_share(developer_share, self.governor_commission)

    def _settle(self, desc: ServiceDescription) -> Agreement:
        """The agreement the service's terms settle: its host takes the
        remainder share.

        Every stored service passed `check_developer_share` on its way in,
        so the remainder is never negative.
        """
        return Agreement(
            service_id=desc.service_id,
            developer_id=desc.developer_id,
            price_per_invocation=desc.price_per_invocation,
            developer_share=desc.developer_share,
            host_share=float(self.host_share(desc.developer_share)),
            governor_commission=self.governor_commission,
        )

    def _negotiate_host(self, desc: ServiceDescription) -> Agreement:
        """The service's agreement, settled on its first placement. Later
        hosts take the same agreement."""
        agreement = self._agreements.get(desc.service_id)
        if agreement is None:
            agreement = self._agreements[desc.service_id] = self._settle(desc)
        return agreement

    def agreement_for(self, service_id: str) -> Agreement | None:
        with self._lock:
            return self._agreements.get(service_id)

    # -- metering -----------------------------------------------------

    def _meter_report(self, report: ExecutionReport) -> None:
        """Meter a successful execution report under its service's
        agreement as one ledger row. The host registry calls it once per
        report id: it refuses a seen id under the same lock first.

        Each share is rounded down to minor units and the remainder goes
        to the governor, so credits always sum to the price exactly.
        """
        agreement = self._agreements[report.service_id]
        price = agreement.price_per_invocation
        dev_credit, host_credit, governor_credit = split_price(
            price, agreement.developer_share, agreement.host_share
        )
        self._entry_seq += 1
        self._rows.append((
            self._entry_seq, report.report_id, report.requester_pseudonym, price, agreement.developer_id,
            report.host_id, dev_credit, host_credit, governor_credit, report.started_at + report.duration_ms,
        ))

    # -- accounts and audit -------------------------------------------

    def balances(self) -> dict[str, int]:
        """Every credited party's balance, in one pass over the ledger."""
        with self._lock:
            totals: dict[str, int] = {}
            for _, _, _, _, developer, host, dev_credit, host_credit, governor_credit, _ in self._rows:
                totals[developer] = totals.get(developer, 0) + dev_credit
                totals[host] = totals.get(host, 0) + host_credit
                totals[GOVERNOR_PARTY] = totals.get(GOVERNOR_PARTY, 0) + governor_credit
            return totals

    def entry_count(self) -> int:
        with self._lock:
            return len(self._rows)

    def audit(self) -> list[LedgerEntry]:
        """Every entry in timestamp order, each built from its row."""
        with self._lock:
            rows = _in_audit_order(self._rows)
        return [LedgerEntry(**_entry_fields(row)) for row in rows]

    def total_metered(self) -> int:
        with self._lock:
            return sum(row[3] for row in self._rows)

    def total_credited(self) -> int:
        with self._lock:
            return sum(row[6] + row[7] + row[8] for row in self._rows)

    def class_revenue(self) -> dict[str, int]:
        with self._lock:
            developer = host = governor = 0
            for row in self._rows:
                developer += row[6]
                host += row[7]
                governor += row[8]
            return {"developer": developer, "host": host, "governor": governor}

    def agreement_problems(self, services: Mapping[str, ServiceDescription]) -> list[str]:
        """`check_invariants` lines for each agreement that is not the one
        its catalogued service in `services` settles: it must not bill by
        other terms than the description lists. Vet each share first."""
        with self._lock:
            problems = []
            for sid, agreement in self._agreements.items():
                desc = services.get(sid)
                if desc is None:
                    problems.append(f"agreement for {sid!r} names no catalogued service")
                elif agreement != self._settle(desc):
                    problems.append(f"agreement for {sid!r} is not what its service's terms settle")
            return problems

    def ledger_problems(self, paid: set[str]) -> list[str]:
        """The ledger's id rules, as `check_invariants` lines: each
        correlation id and each entry number on one row, no number above
        `entry_seq`, and the rows' correlation ids equal to `paid`, the ids
        of the successful reports."""
        with self._lock:
            correlations = [row[1] for row in self._rows]
            numbers = [row[0] for row in self._rows]
            problems = [
                f"ledger: correlation id {cid!r} is on more than one row" for cid in _repeated(correlations)
            ]
            problems += [f"ledger: entry number {n} is on more than one row" for n in _repeated(numbers)]
            highest = max(numbers, default=0)
            if highest > self._entry_seq:
                problems.append(f"ledger: entry number {highest} is above entry_seq {self._entry_seq}")
            if set(correlations) != paid:
                problems.append("ledger: correlation ids differ from the successful report ids")
            return problems

    LEDGER_CSV_VERSION = 1

    def ledger_csv_rows(self) -> Iterator[list[str]]:
        """Rows for the ledger export, one column per party class, each
        built as it is taken. A run's rows repeat a small set of amounts
        (a price and its split per agreement), so each distinct amount's
        text is formatted once per export (`_MoneyTexts`) and dropped
        with it."""
        yield ["entry_id", "correlation_id", "payer", "total",
               "developer", "host", "governor", "format_version"]
        version = str(self.LEDGER_CSV_VERSION)
        with self._lock:
            rows = _in_audit_order(self._rows)
        money = _MoneyTexts()
        for seq, correlation_id, payer, price, _, _, dev_credit, host_credit, governor_credit, _ in rows:
            yield [
                _entry_id(seq),
                correlation_id,
                payer,
                money[price],
                money[dev_credit],
                money[host_credit],
                money[governor_credit],
                version,
            ]


def _repeated(values: list) -> list:
    """The values that occur more than once, each once, in sorted order."""
    return sorted(value for value, count in Counter(values).items() if count > 1)


class _MoneyTexts(dict):
    """Minor units -> `format_money` text, each formatted on first lookup."""

    __slots__ = ()

    def __missing__(self, cents: int) -> str:
        text = self[cents] = format_money(cents)
        return text


def format_money(cents: int) -> str:
    """Minor units to a decimal string: 1234 -> "12.34"."""
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"
