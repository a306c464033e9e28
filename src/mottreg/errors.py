"""Exception hierarchy shared by all modules.

The CLI maps these onto distinct exit codes (config = 2, physics domain = 3,
numerics = 4), so raise the most specific class that applies.
"""


class ProtocolError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(ProtocolError):
    """Bad configuration: unknown key, unparsable file, invalid value."""


class PhysicsDomainError(ProtocolError, ValueError):
    """Input outside the physical domain of an operation (resonance hit,
    impossible geometry, infeasible target, ambiguous site pattern, ...)."""


class NumericsError(ProtocolError, RuntimeError):
    """A numerical kernel failed to converge or would exceed its size bound
    (pi-pulse grid, moving-time integral, lost bracket)."""
