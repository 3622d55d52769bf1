"""Exception taxonomy.

Degeneracy errors signal that an input violates a general-position
precondition; they are recoverable by resampling or perturbing the input.
InternalParityFailure is different in kind: it means a parity identity that
is mathematically forced did not hold, i.e. the library itself is wrong.
"""

from __future__ import annotations


class IntrinsicLinksError(Exception):
    """Base class for every error raised by this package."""


class GeneralPositionViolation(IntrinsicLinksError):
    """A point set required to be in general position is not."""


class ApexNotExtremal(IntrinsicLinksError):
    """A central-projection apex is not strictly extremal for the functional."""


class PolylinesNotDisjoint(IntrinsicLinksError):
    """Two polylines that must be disjoint share a point."""


class CyclesNotDisjoint(IntrinsicLinksError):
    """Two cycles handed to a linking computation share a vertex."""


class _Violations(IntrinsicLinksError):
    def __init__(self, message: str, violations: tuple = ()):
        super().__init__(message)
        self.violations = tuple(violations)


class EmbeddingInvalid(_Violations):
    """A spatial embedding failed validation.  Carries the violation list."""


class DrawingNotGeneral(_Violations):
    """A planar drawing failed general-position validation.  Carries the violation list."""


class ProjectionNotGeneral(IntrinsicLinksError):
    """A projection direction or apex produces a degenerate drawing."""


class DrawingsNotComparable(IntrinsicLinksError):
    """Two drawings do not differ on exactly one vertex star."""


class SearchExhausted(IntrinsicLinksError):
    """A bounded search ran out of attempts or would exceed its budget."""


class InternalParityFailure(IntrinsicLinksError):
    """A parity identity that must hold by theorem failed.  This is a bug
    signal, never a data condition."""


class ParseError(IntrinsicLinksError):
    """An instance file is malformed."""


class ValidationError(IntrinsicLinksError):
    """An instance file parses but does not describe a usable object."""
