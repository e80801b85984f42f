"""Exception and warning types shared across the package.

Every failure mode of the library maps to one of these classes so callers
(and the CLI exit-code logic) can tell configuration mistakes apart from
verification failures.
"""


class CachenetError(Exception):
    """Base class for all errors raised by this package."""


# ---------------------------------------------------------------------------
# configuration / construction errors
# ---------------------------------------------------------------------------

class InvalidConnectivity(CachenetError):
    """Receiver connectivity out of range (needs 1 <= r < h) or network too large."""


class OutOfRange(CachenetError):
    """A node or file index lies outside its valid 1-based range."""


class FieldOverflow(CachenetError):
    """More coded chunks requested than the 8-bit symbol field supports."""


class LengthError(CachenetError):
    """A byte string has a length incompatible with the requested split."""


class NonIntegralCacheParameter(CachenetError):
    """The normalized cache parameter is not an integer; use memory sharing."""


class IndivisibleFileSize(CachenetError):
    """The file size does not divide evenly into the required pieces."""


class DemandLengthMismatch(CachenetError):
    """The demand vector length differs from the number of receivers."""


class UnsupportedRegime(CachenetError):
    """The requested parameters fall outside a scheme's constructive regime."""


class RegionViolation(CachenetError):
    """Cache capacities outside the region a scheme is defined on."""


class NonCanonicalInterference(CachenetError):
    """Messages or interference matrices differ from their geometry's complete, canonical ones."""


# ---------------------------------------------------------------------------
# decoding / verification errors
# ---------------------------------------------------------------------------

class SingularSystem(CachenetError):
    """A linear system that must be invertible turned out singular."""


class DuplicateChunk(CachenetError):
    """Two coded chunks with the same chunk id were offered to the decoder."""


class PeelFailure(CachenetError):
    """A multicast member needed for cancellation is missing from the cache."""


class ReconstructionMismatch(CachenetError):
    """A reconstructed file differs from the library copy."""


class EmptyNullSpace(CachenetError):
    """No null-space direction exists for the requested zero-forcing set."""


class DegenerateChannel(CachenetError):
    """A channel draw left an intended receiver with a near-zero coefficient."""


class InterferenceLeak(CachenetError):
    """A receiver observed a non-negligible coefficient on an unwanted stream."""


class AlignmentBreakdown(InterferenceLeak):
    """The greedy alignment sweep could not complete a transmit-direction row."""


# ---------------------------------------------------------------------------
# warnings
# ---------------------------------------------------------------------------

class NonDistinctDemand(UserWarning):
    """Demand entries repeat: delivery still runs, but the worst-case
    delivery-time guarantee only covers all-distinct demands."""
