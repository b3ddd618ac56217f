"""Typed error taxonomy shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; anything else is a plain ValueError raised at validation time.
"""


class TopologyError(Exception):
    """Base class for the domain errors raised by this package."""


class GaplessPoint(TopologyError):
    """The two bands touch at the requested k-point, so the velocity is undefined."""


class GaplessModel(TopologyError):
    """The band gap closes somewhere in the zone; global invariants are undefined."""


class DegenerateField(TopologyError):
    """The velocity field vanishes along whole curves instead of isolated points."""


class DegenerateZero(TopologyError):
    """The velocity Jacobian determinant at a zero is below the degeneracy threshold."""


class NonIsolatedZero(TopologyError):
    """Two zeros crowd each other, or c is so close to a bifurcation that they would."""


class ZeroOnLoop(TopologyError):
    """The sampled field vanishes at a point of the integration loop."""


class InsufficientSampling(TopologyError):
    """A sampled quantity is too coarse to trust: loop angle increments or a quadrature sum."""


class DegenerateTriangle(TopologyError):
    """A unit-vector triple is too spread out or antipodal to orient its solid angle."""
