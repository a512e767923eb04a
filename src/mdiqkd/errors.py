"""Exception types shared across the package.

Three failure families matter to callers: bad configuration input, bad
physical-domain input, and photon-number truncations beyond what the
yield tables support.  The CLI maps ConfigError to
exit code 2 and the other two to exit code 3.
"""


class ConfigError(ValueError):
    """A scenario file or CLI option could not be parsed or validated."""


class DomainError(ValueError):
    """Physically invalid input (negative intensity, mu1 <= mu2, ...)."""


class CutoffError(ValueError):
    """Photon-number truncation inconsistent with the precision budget."""
