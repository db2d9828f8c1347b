"""Core value types for the mobile service marketplace.

Security levels, resource vectors, platform requirements, and the record
types shared by the governor, the simulated agents, and the engine.

Two kinds of record live here:

- Frozen: `ResourceVector`, `PlatformRequirement`, `ServiceDescription`
  and `Outcome`. `ResourceVector` is a dataclass default
  (`ZERO_RESOURCES`), which must hash, so it stays frozen even though a
  run builds about ten thousand; its `__post_init__` instead tests all
  four fields in one `type(x) is int and x >= 0` expression and walks
  the fields one by one only when that fails, to word the error (an
  `int` subclass such as an `IntEnum` member passes there; `bool` never
  does). The others are built at set-up, not per report, and
  `Outcome.success()` is one shared instance.
- Slotted and not frozen: `SecurityCertificate`, `ExecutionReport` and
  `HostProfile`, which every execution report builds. A frozen
  `__init__` sets each field through `object.__setattr__`, which costs
  several times a slotted one. Nothing assigns to one of these after it
  is built, or hashes one: a change is a new record, stored whole.
  `tests/test_records.py` checks this over whole runs. A profile's
  placement, battery view, certificate or liveness changes through
  `profile_with`, the one positional build of a profile. A profile
  keeps no report counters: the certificate's `attempts` and
  `successes` and the governor's report history hold them.

Each rule is checked once, at the door a value enters by. A service's
fields are checked by the schemas (`wire.SERVICE_SCHEMA`) at each JSON
door and by the governor's own writes (`governor.journal`), so a
`ServiceDescription` checks nothing. `PlatformRequirement` parses its
minimum version: the schemas' version pattern admits only what
`parse_version` parses, and the requirements decoder, whose XML no
schema checks, builds one too. `ExecutionReport`
keeps its ranges (its types are checked where a report enters as
JSON: `ingest_report`, the hottest write, checks no schema),
`ResourceVector` its own check (it guards the endpoint's `free` and
`minus` on a host's `free`) and `Outcome` its rule between two fields.
`SecurityCertificate` and `HostProfile` are built only by the governor
from checked state: their rules are checked at admission or
preprovisioning, and by `check_invariants()`.

Units, fixed in one place:
    CPU      MHz
    Memory   MB
    Storage  MB
    Energy   mWh per invocation
    Money    integer minor currency units (cents)
    Time     simulation milliseconds
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from functools import lru_cache


class SecurityLevel(IntEnum):
    """Ordered sensitivity scale: LOW < MEDIUM < HIGH."""

    LOW = 0
    MEDIUM = 1
    HIGH = 2

    @property
    def label(self) -> str:
        return self.name.capitalize()


def level_admits(host_level: SecurityLevel, service_level: SecurityLevel) -> bool:
    """A host may run a service iff its clearance is at least the service's.

    Equal-or-higher is acceptable: a medium-sensitivity service may run on
    a medium or high host, never on a low one.
    """
    return host_level >= service_level


@dataclass(frozen=True)
class ResourceVector:
    """Non-negative resource amounts; compared component-wise."""

    cpu: int
    memory: int
    storage: int
    energy: int

    def __post_init__(self) -> None:
        cpu, memory, storage, energy = self.cpu, self.memory, self.storage, self.energy
        if (type(cpu) is int and cpu >= 0 and type(memory) is int and memory >= 0
                and type(storage) is int and storage >= 0 and type(energy) is int and energy >= 0):
            return
        # Only a refused vector, or one holding an `int` subclass, gets here.
        for name in ("cpu", "memory", "storage", "energy"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"resource {name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"resource {name} must be >= 0, got {value}")

    def covers(self, other: "ResourceVector") -> bool:
        """Dominance: every component of self >= the matching component of other."""
        return (
            self.cpu >= other.cpu
            and self.memory >= other.memory
            and self.storage >= other.storage
            and self.energy >= other.energy
        )

    def plus(self, other: "ResourceVector") -> "ResourceVector":
        return ResourceVector(
            self.cpu + other.cpu,
            self.memory + other.memory,
            self.storage + other.storage,
            self.energy + other.energy,
        )

    def minus(self, other: "ResourceVector") -> "ResourceVector":
        """Component-wise difference; raises if any component would go negative."""
        return ResourceVector(
            self.cpu - other.cpu,
            self.memory - other.memory,
            self.storage - other.storage,
            self.energy - other.energy,
        )

    def total(self) -> int:
        return self.cpu + self.memory + self.storage + self.energy

    def as_dict(self) -> dict[str, int]:
        return {
            "cpu": self.cpu,
            "memory": self.memory,
            "storage": self.storage,
            "energy": self.energy,
        }


ZERO_RESOURCES = ResourceVector(0, 0, 0, 0)


class VersionError(ValueError):
    """A dotted version string did not parse."""


def parse_version(text: str) -> tuple[int, int, int]:
    """Parse 1-3 dot-separated non-negative integers, padding with zeros.

    "3.2" -> (3, 2, 0). Anything else (empty parts, signs, letters, more
    than three parts) raises VersionError.
    """
    if not isinstance(text, str):
        raise VersionError(f"version must be a string, got {text!r}")
    return _parse_dotted(text)


@lru_cache(maxsize=256)
def _parse_dotted(text: str) -> tuple[int, int, int]:
    # A run compares the same few version strings on every listing, so
    # each is parsed once. Failures are not cached and raise every time.
    parts = text.split(".")
    if not 1 <= len(parts) <= 3:
        raise VersionError(f"version must have 1-3 components: {text!r}")
    numbers = []
    for part in parts:
        if not part.isdecimal():  # exactly the digits `int` reads; `isdigit` takes "²" too
            raise VersionError(f"invalid version component {part!r} in {text!r}")
        numbers.append(int(part))
    while len(numbers) < 3:
        numbers.append(0)
    return tuple(numbers)  # type: ignore[return-value]


def version_at_least(host_version: str, min_version: str) -> bool:
    """Numeric lexicographic comparison of dotted versions ("3.10" >= "3.9")."""
    return parse_version(host_version) >= parse_version(min_version)


@dataclass(frozen=True)
class PlatformRequirement:
    """Operating system token (case-sensitive) plus a minimum dotted version."""

    os_name: str
    min_version: str

    def __post_init__(self) -> None:
        parse_version(self.min_version)

    def matches(self, host_os: str, host_version: str) -> bool:
        return host_os == self.os_name and version_at_least(host_version, self.min_version)


@dataclass(frozen=True)
class ServiceDescription:
    """A publishable service: what it does, what it needs, what it costs.

    `functionality_tag` is the substitution-equivalence key: two services
    with the same tag are interchangeable from a consumer's point of view.
    `dependencies` lists the service_ids a composite invokes; empty for
    leaf services.
    """

    service_id: str
    developer_id: str
    name: str
    description: str
    functionality_tag: str
    input_spec: str
    output_spec: str
    binding_method: str
    security_level: SecurityLevel
    platform: PlatformRequirement
    min_resources: ResourceVector
    price_per_invocation: int
    developer_share: float
    dependencies: tuple[str, ...] = ()


@dataclass(slots=True)
class SecurityCertificate:
    """Per-host trust artifact: ordered level plus a continuous score.

    The level is maintained by the security governor's promotion/demotion
    rule; the score is an exponentially weighted average of execution
    observations in [0, 1].

    Slotted and not frozen: every report builds one. Nothing assigns to
    a certificate once it is built, or hashes one. Only the security
    governor builds one, so it checks nothing itself.
    """

    host_id: str
    level: SecurityLevel
    trust_score: float
    attempts: int
    successes: int
    issued_at: float
    identity_verified: bool


@dataclass(frozen=True)
class Outcome:
    """Result of one service execution: success, or failure with a reason."""

    ok: bool
    reason: str | None = None

    @classmethod
    def success(cls) -> "Outcome":
        """The one shared successful outcome."""
        return _SUCCESS

    @classmethod
    def failure(cls, reason: str) -> "Outcome":
        return cls(False, reason)

    def __post_init__(self) -> None:
        if self.ok and self.reason is not None:
            raise ValueError("a successful outcome carries no failure reason")
        if not self.ok and not self.reason:
            raise ValueError("a failed outcome needs a reason")


_SUCCESS = Outcome(True, None)


@dataclass(slots=True)
class ExecutionReport:
    """One invocation outcome, as reported to the governor by the host.

    `requester_pseudonym` is an opaque session token; it never equals a
    registered requester identity, so downstream consumers of the report
    cannot link executions back to consumers.

    Slotted and not frozen: every report builds one. Nothing assigns to
    a report once it is built, or hashes one.
    """

    report_id: str
    host_id: str
    service_id: str
    requester_pseudonym: str
    started_at: float
    duration_ms: float
    energy_used_mwh: int
    outcome: Outcome
    rating: int | None = None

    def __post_init__(self) -> None:
        if self.rating is not None and not 1 <= self.rating <= 5:
            raise ValueError(f"rating must be in 1..5, got {self.rating}")
        if self.energy_used_mwh < 0:
            raise ValueError("energy_used_mwh must be >= 0")
        if self.duration_ms < 0:
            raise ValueError("duration_ms must be >= 0")


@dataclass(slots=True)
class HostProfile:
    """A mobile host as the governor sees it.

    `committed` is the sum of min_resources of currently hosted services;
    `capacity.covers(committed)` holds at all times: admission and
    `preprovision_host` check it before they place. `battery_mwh` is the
    governor's running view, decremented by reported energy use. The
    host's execution counts are its certificate's `attempts` and
    `successes`, and its ratings are in the report history.

    Slotted and not frozen: every report builds one. Nothing assigns to
    a profile once it is built, or hashes one; a change is a new profile
    stored with `HostDatabase.put`.
    """

    host_id: str
    os_name: str
    os_version: str
    capacity: ResourceVector
    committed: ResourceVector = ZERO_RESOURCES
    battery_mwh: int = 0
    certificate: SecurityCertificate | None = None
    hosted: frozenset[str] = field(default_factory=frozenset)
    alive: bool = True

    @property
    def free(self) -> ResourceVector:
        return self.capacity.minus(self.committed)


def profile_with(profile: HostProfile, *, committed: ResourceVector | None = None,
                 battery_mwh: int | None = None,
                 certificate: SecurityCertificate | None = None,
                 hosted: frozenset[str] | None = None,
                 alive: bool | None = None) -> HostProfile:
    """`profile` with its placement (`committed`, `hosted`), its battery
    view, its certificate or its liveness replaced; a field passed as
    None keeps its value (no write takes a certificate away).

    Every profile write after registration goes through here: placement,
    unhosting, departure, certificate issue and each execution report.
    It owns the field order: the new profile is built positionally, in
    declaration order, at a fraction of the cost of `dataclasses.replace`,
    and not checked: its callers pass values that keep the profile's rules.
    """
    return HostProfile(
        profile.host_id,
        profile.os_name,
        profile.os_version,
        profile.capacity,
        profile.committed if committed is None else committed,
        profile.battery_mwh if battery_mwh is None else battery_mwh,
        profile.certificate if certificate is None else certificate,
        profile.hosted if hosted is None else hosted,
        profile.alive if alive is None else alive,
    )
