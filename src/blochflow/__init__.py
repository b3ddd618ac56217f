"""Topological invariants of two-band Bloch Hamiltonians from velocity-field zeros.

The package studies the band velocity field of a two-band quantum torus
model: its zeros, their Poincare indexes and the Euler characteristic
they sum to, the Chern number of the unit Bloch vector, and generalized
winding numbers along loops.  A CLI (``blochflow``) exposes everything.
"""

__version__ = "0.1.0"

from .errors import (
    DegenerateField,
    DegenerateTriangle,
    DegenerateZero,
    GaplessModel,
    GaplessPoint,
    InsufficientSampling,
    NonIsolatedZero,
    TopologyError,
    ZeroOnLoop,
)
from .model import KPoint, ModelParams, gapless_boundary
from .zeromode import euler_characteristic
from .chern import chern_plaquette
from .winding import LoopSpec, winding_hermitian
from .sweep import SweepAxis, sweep_chern

# The names that the README's library sketch imports, and the typed errors;
# everything else is imported from its module.
__all__ = [
    "DegenerateField",
    "DegenerateTriangle",
    "DegenerateZero",
    "GaplessModel",
    "GaplessPoint",
    "InsufficientSampling",
    "KPoint",
    "LoopSpec",
    "ModelParams",
    "NonIsolatedZero",
    "SweepAxis",
    "TopologyError",
    "ZeroOnLoop",
    "chern_plaquette",
    "euler_characteristic",
    "gapless_boundary",
    "sweep_chern",
    "winding_hermitian",
]
