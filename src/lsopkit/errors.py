"""Exception hierarchy shared by all lsopkit modules."""


class LsopkitError(Exception):
    """Base class for every error raised by lsopkit."""


class DimensionError(LsopkitError):
    """Array or index-list size is structurally wrong (e.g. odd-sized skew
    table), or an index lies outside a table."""


class ExpansionLimitError(LsopkitError):
    """Recursive Pfaffian expansion refused: input exceeds the configured size cap."""


class DegeneracyError(LsopkitError):
    """A leading Pfaffian minor, Hankel block, or pairing vanished; the family does not exist."""


class AdmissibilityError(LsopkitError):
    """Input violates a positivity or nonzero precondition (tau ratios, beta, gauge r, a_i*a_{i+1})."""


class StructureError(LsopkitError):
    """A polynomial or family does not satisfy the structural property the operation requires."""


class RepresentationError(LsopkitError):
    """An operator could not be represented in the requested basis within tolerance."""


class ConvergenceError(LsopkitError):
    """An iterative eigenvalue solver failed to converge within its iteration cap."""


class GenerationError(LsopkitError):
    """The random measure generator exhausted its retry budget."""
