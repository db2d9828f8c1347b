"""Core value types for the mobile service marketplace.

Security levels, resource vectors, platform requirements, and the record
types shared by the governor, the simulated agents, and the engine. All
types here are immutable values: they can be handed across threads and
compared structurally without surprises.

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

    @classmethod
    def from_name(cls, name: str) -> "SecurityLevel":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown security level: {name!r}") from None

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


def covers(a: ResourceVector, b: ResourceVector) -> bool:
    """Module-level alias for ResourceVector.covers."""
    return a.covers(b)


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
        if not part.isdigit():
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
        if not self.os_name:
            raise ValueError("os_name must be non-empty")
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

    def __post_init__(self) -> None:
        if not self.service_id:
            raise ValueError("service_id must be non-empty")
        if not self.developer_id:
            raise ValueError("developer_id must be non-empty")
        if not isinstance(self.security_level, SecurityLevel):
            raise ValueError("security_level must be a SecurityLevel")
        if not isinstance(self.platform, PlatformRequirement):
            raise ValueError("platform must be a PlatformRequirement")
        if not isinstance(self.min_resources, ResourceVector):
            raise ValueError("min_resources must be a ResourceVector")
        if self.price_per_invocation < 0:
            raise ValueError("price_per_invocation must be >= 0")
        if not 0.0 <= self.developer_share <= 1.0:
            raise ValueError("developer_share must be in [0, 1]")
        if not isinstance(self.dependencies, tuple):
            object.__setattr__(self, "dependencies", tuple(self.dependencies))

    @property
    def is_composite(self) -> bool:
        return bool(self.dependencies)


@dataclass(frozen=True)
class SecurityCertificate:
    """Per-host trust artifact: ordered level plus a continuous score.

    The level is maintained by the security governor's promotion/demotion
    rule; the score is an exponentially weighted average of execution
    observations in [0, 1].
    """

    host_id: str
    level: SecurityLevel
    trust_score: float
    attempts: int
    successes: int
    issued_at: float
    identity_verified: bool

    def __post_init__(self) -> None:
        if not 0.0 <= self.trust_score <= 1.0:
            raise ValueError(f"trust_score must be in [0, 1], got {self.trust_score}")
        if self.successes > self.attempts:
            raise ValueError("successes cannot exceed attempts")
        if self.attempts < 0:
            raise ValueError("attempts must be >= 0")


@dataclass(frozen=True)
class Outcome:
    """Result of one service execution: success, or failure with a reason."""

    ok: bool
    reason: str | None = None

    @classmethod
    def success(cls) -> "Outcome":
        return cls(True, None)

    @classmethod
    def failure(cls, reason: str) -> "Outcome":
        return cls(False, reason)

    def __post_init__(self) -> None:
        if self.ok and self.reason is not None:
            raise ValueError("a successful outcome carries no failure reason")
        if not self.ok and not self.reason:
            raise ValueError("a failed outcome needs a reason")


@dataclass(frozen=True)
class ExecutionReport:
    """One invocation outcome, as reported to the governor by the host.

    `requester_pseudonym` is an opaque session token; it never equals a
    registered requester identity, so downstream consumers of the report
    cannot link executions back to consumers.
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


@dataclass(frozen=True)
class HostProfile:
    """A mobile host as the governor sees it.

    `committed` is the sum of min_resources of currently hosted services;
    `capacity.covers(committed)` holds at all times. `battery_mwh` is the
    governor's running view, decremented by reported energy use.
    """

    host_id: str
    os_name: str
    os_version: str
    capacity: ResourceVector
    committed: ResourceVector = ZERO_RESOURCES
    battery_mwh: int = 0
    certificate: SecurityCertificate | None = None
    hosted: frozenset[str] = field(default_factory=frozenset)
    attempts: int = 0
    successes: int = 0
    rating_count: int = 0
    rating_sum: int = 0
    alive: bool = True

    def __post_init__(self) -> None:
        if not self.capacity.covers(self.committed):
            raise ValueError("capacity must cover committed resources")
        if self.successes > self.attempts:
            raise ValueError("successes cannot exceed attempts")

    @property
    def free(self) -> ResourceVector:
        return self.capacity.minus(self.committed)

    @property
    def availability_ratio(self) -> float | None:
        """Fraction of reported executions that succeeded; None before any report."""
        if self.attempts == 0:
            return None
        return self.successes / self.attempts

    @property
    def mean_rating(self) -> float | None:
        if self.rating_count == 0:
            return None
        return self.rating_sum / self.rating_count
