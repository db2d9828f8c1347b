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

    `reason` is one of: developer, share, duplicate, scan, footprint, cycle.
    """

    def __init__(self, reason: str, message: str):
        super().__init__(message)
        self.reason = reason


class DuplicateHostError(MarketplaceError):
    """A host_id was registered twice."""


class NotHostedError(MarketplaceError):
    """unhost() was called for a service the host does not hold."""


class CertificateExistsError(MarketplaceError):
    """A certificate was to be issued to a host that already has one."""


class CertificateMismatchError(MarketplaceError):
    """A trust update was applied against the wrong host's certificate."""


class NegotiationRejected(MarketplaceError):
    """Billing negotiation failed: the requested share split is infeasible."""


class MissingAgreementError(MarketplaceError):
    """A successful execution arrived for a service with no billing agreement."""


class SnapshotIntegrityError(MarketplaceError):
    """A state snapshot failed its checksum or structural checks."""

