"""Exception types raised by the series engine and the verification layers."""


class OverrankError(Exception):
    """Base class for all errors raised by this package."""


class ZeroLeadingTerm(OverrankError, ZeroDivisionError):
    """Attempt to invert the zero series (or a series with no leading term)."""


class NegativeExponent(OverrankError, ValueError):
    """A power-series-only operation was applied to a series with negative exponents."""


class BeyondTruncation(OverrankError, IndexError):
    """A coefficient at or beyond the truncation order was requested."""


class PoleHit(ZeroLeadingTerm):
    """A denominator vanishes identically: a term of a bilateral sum, or a
    product factor (1; q^k)_inf."""


class CapExceeded(OverrankError, ValueError):
    """Enumeration was requested above the configured cap."""


class BadArgument(OverrankError, ValueError):
    """An argument is outside the range the operation accepts (order < 1, modulus < 1, ...)."""


class UnknownIdentity(OverrankError, LookupError):
    """The identity registry has no entry with the requested id."""
