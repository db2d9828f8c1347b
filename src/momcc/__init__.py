"""Market-oriented mobile cloud: a service marketplace governor plus a
deterministic simulation of the mobile hosts, developers, requesters,
and aggregators that trade on it."""

__version__ = "0.1.0"

from .domain import (
    ExecutionReport,
    HostProfile,
    Outcome,
    PlatformRequirement,
    ResourceVector,
    SecurityCertificate,
    SecurityLevel,
    ServiceDescription,
    level_admits,
    version_at_least,
)
from .governor import GovernorConfig, ServiceGovernor

__all__ = [
    "ExecutionReport",
    "GovernorConfig",
    "HostProfile",
    "Outcome",
    "PlatformRequirement",
    "ResourceVector",
    "SecurityCertificate",
    "SecurityLevel",
    "ServiceDescription",
    "ServiceGovernor",
    "level_admits",
    "version_at_least",
    "__version__",
]
