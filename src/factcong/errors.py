"""Exception and warning taxonomy shared across the package.

The CLI maps the errors onto process exit codes: parameter and format
problems exit 2, a GuardExceededError (the one class for every size or
work guard) exits 3, and a dual-engine disagreement exits 4.  A
FactcongWarning reports a problem that was worked around; the CLI copies
each one into the report envelope's warnings.
"""

__all__ = [
    "FactcongError",
    "ParameterError",
    "CompositeModulusError",
    "WindowRangeError",
    "HypothesisError",
    "CacheFormatError",
    "GuardExceededError",
    "EngineMismatchError",
    "FactcongWarning",
]


class FactcongError(Exception):
    """Base class for every error raised deliberately by this package."""


class ParameterError(FactcongError, ValueError):
    """A request carried values that fail validation before any work starts."""


class CompositeModulusError(ParameterError):
    """The modulus supplied for a prime field turned out not to be prime."""


class WindowRangeError(ParameterError):
    """A factorial window does not fit inside the open range (0, p)."""


class HypothesisError(ParameterError):
    """Bound parameters fall outside the regime where the bound is stated."""


class CacheFormatError(ParameterError):
    """A binary cache file failed its header, size, or sample verification."""


class GuardExceededError(FactcongError):
    """A request would pass a size or work guard: the work of an exhaustive
    engine, the memory of a power or discrete-log table, or a bound's side
    past the float range.  A sweep skips the cell and goes on."""


class EngineMismatchError(FactcongError):
    """Two independent engines produced different answers for one query."""


class FactcongWarning(UserWarning):
    """A note from a run that still succeeded, such as a cache file that
    could not be read or written and was recomputed instead."""
