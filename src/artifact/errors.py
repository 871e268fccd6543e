"""Shared exception types.

Every error deliberately raised by this package derives from ArtifactError,
so callers (and the CLI) can distinguish our diagnostics from genuine bugs.
"""


class ArtifactError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(ArtifactError):
    """Matrix, complex, or module dimensions are incompatible."""


class CompositionNonzero(ArtifactError):
    """A pair of consecutive boundary maps fails d.d = 0."""


class DegreeOutOfRange(ArtifactError):
    """Requested degree lies outside the range supported by the object."""


class NotInGroup(ArtifactError):
    """A matrix is not an element of the group where one is required."""


class NotInLattice(ArtifactError):
    """Vectors that must lie in a given integer lattice do not."""


class EliminationError(ArtifactError):
    """Exact elimination reached a state that its own invariants rule out."""


class NotMonic(ArtifactError):
    """A polynomial that must be monic is empty or has leading coefficient != 1."""


class WrongDegree(ArtifactError):
    """A chain was tagged with a degree other than the one expected."""


class MissingHomotopy(ArtifactError):
    """A contracting homotopy was requested from a resolution built without one."""


class NotAdmissible(ArtifactError):
    """A discrete vector field contains a directed cycle."""


class MalformedArrow(ArtifactError):
    """An arrow of a discrete vector field violates the incidence conditions."""


class InfiniteIndex(ArtifactError):
    """A coset enumeration exceeded its bound without closing."""


class MixedField(ArtifactError):
    """Operands belong to quadratic rings with different discriminants."""


class ZeroIdeal(ArtifactError):
    """The zero ideal was supplied where a nonzero one is required."""


class ActionMismatch(ArtifactError):
    """A module and a complex were built over different groups."""


class FormatError(ArtifactError):
    """A file or string does not parse as the expected serialization format."""


class ConfigError(ArtifactError):
    """Command-line options are missing, malformed, or mutually inconsistent."""
