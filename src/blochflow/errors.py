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
    """c is the pitchfork c_p or the fold c_f exactly, or a zero's float Jacobian does not show its exact kind."""


class NonIsolatedZero(TopologyError):
    """c lies between c_p and c_f, but the float cubic misses a root pair, so zeros cannot be placed apart."""


class ZeroOnLoop(TopologyError):
    """The sampled field vanishes at a point of the integration loop."""


class InsufficientSampling(TopologyError):
    """A sampled quantity is too coarse to trust: loop angle increments or a quadrature sum."""


class DegenerateTriangle(TopologyError):
    """A unit-vector triple is too spread out or antipodal to orient its solid angle."""


class SpoolError(OSError):
    """The field dump's temporary file in TMPDIR failed: not the output's fault, and not a domain error."""
