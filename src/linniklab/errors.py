"""Error taxonomy shared across the package.

Domain errors are bad inputs (wrong range, non-coprime residues, composite
where a prime is required).  Resource errors mean the request is well posed
but exceeds the configured work or memory budget.  Precision errors come from
certified-interval arithmetic running out of certainty, numeric errors from a
self-check that fails (an exact identity violated, a report value that is not
finite).
"""


class DomainError(ValueError):
    """Input outside the documented domain of an operation."""


class ResourceError(RuntimeError):
    """Work or memory budget exceeded; retry with a larger budget or smaller task."""


class PrecisionError(ValueError):
    """Certified interval too wide to determine the requested output."""


class NumericError(RuntimeError):
    """A numeric routine could not meet its accuracy target."""
