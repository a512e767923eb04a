"""Exception types and the record base shared across the package.

Three failure families matter to callers: bad configuration input, bad
physical-domain input, and photon-number truncations beyond what the
yield tables support.  The CLI maps ConfigError to
exit code 2 and the other two to exit code 3.

Computed values are records (``record``): named tuples, so they compare
and hash by value and print as ``Name(field=value, ...)``.  A record
that checks its fields does so in ``__new__``, and no way of building
one skips it: ``_make``, and so ``_replace``, call the constructor, and
``copy`` and ``pickle`` rebuild through ``__new__``.  Records need no
per-class code generation; the configuration types stay dataclasses.
"""

from collections import namedtuple


class ConfigError(ValueError):
    """A scenario file or CLI option could not be parsed or validated."""


class DomainError(ValueError):
    """Physically invalid input (negative intensity, mu1 <= mu2, ...)."""


class CutoffError(ValueError):
    """Photon-number truncation inconsistent with the precision budget."""


def record(typename: str, field_names: str) -> type:
    """A named-tuple base class for a record of ``field_names``."""
    base = namedtuple(typename, field_names)
    base._make = classmethod(lambda cls, iterable: cls(*iterable))
    return base
