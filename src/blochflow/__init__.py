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
from .zeromode import (
    EulerResult,
    ZeroKind,
    ZeroMode,
    euler_characteristic,
)
from .chern import ChernResult, chern_direct, chern_plaquette, gap_min
from .winding import LoopSpec, WindingResult, winding_hermitian
from .sweep import PhaseDiagramGrid, SweepAxis, sweep_chern, sweep_euler

__all__ = [
    "ChernResult",
    "DegenerateField",
    "DegenerateTriangle",
    "DegenerateZero",
    "EulerResult",
    "GaplessModel",
    "GaplessPoint",
    "InsufficientSampling",
    "KPoint",
    "LoopSpec",
    "ModelParams",
    "NonIsolatedZero",
    "PhaseDiagramGrid",
    "SweepAxis",
    "TopologyError",
    "WindingResult",
    "ZeroKind",
    "ZeroMode",
    "ZeroOnLoop",
    "chern_direct",
    "chern_plaquette",
    "euler_characteristic",
    "gap_min",
    "gapless_boundary",
    "sweep_chern",
    "sweep_euler",
    "winding_hermitian",
]
