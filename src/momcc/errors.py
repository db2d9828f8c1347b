"""Exception types shared across the governor modules."""
from __future__ import annotations


class MarketplaceError(Exception):
    """Base class for all governor-side errors."""


class UnknownEntityError(MarketplaceError):
    """An operation referenced a host, service, or party that is not registered.

    Distinct from an allocation denial: a denial answers a well-formed
    request, this rejects a malformed one.
    """


class RegistrationRejected(MarketplaceError):
    """Service registration failed vetting.

    `reason` is one of: developer, share, duplicate, scan, footprint,
    dependency.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DuplicateHostError(MarketplaceError):
    """A host_id was registered twice."""


class NotHostedError(MarketplaceError):
    """unhost() was called for a service the host does not hold."""


class NegotiationRejected(MarketplaceError):
    """Billing negotiation failed: the requested share split is infeasible."""


class SnapshotIntegrityError(MarketplaceError):
    """A state snapshot failed its checksum or structural checks."""

