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
    NonIntegralSum,
    NonIsolatedZero,
    TopologyError,
    ZeroOnLoop,
)
from .model import (
    Band,
    Frame,
    HVector,
    KPoint,
    ModelParams,
    axis_distance,
    band_energy,
    bloch_vector,
    frame_regularity,
    reduce_angle,
    tangent_frame,
    write_surface_csv,
)
from .field import (
    Jacobian2,
    Velocity,
    velocity_band,
    velocity_closed,
    velocity_jacobian,
)
from .zeromode import (
    EulerResult,
    WeightMode,
    ZeroKind,
    ZeroMode,
    classify,
    euler_characteristic,
    find_zero_modes,
    index_of,
    weighted_index_sum,
    zero_modes_json,
)
from .chern import (
    ChernMethod,
    ChernResult,
    chern_direct,
    chern_plaquette,
    gap_min,
    gapless_boundary,
)
from .winding import (
    LoopSpec,
    WindingResult,
    winding_hermitian,
    winding_nonhermitian,
    winding_planar,
)
from .sweep import (
    PhaseDiagramGrid,
    SweepAxis,
    SweepCell,
    read_grid,
    sweep_chern,
    sweep_euler,
    write_grid,
)

__all__ = [
    "Band",
    "ChernMethod",
    "ChernResult",
    "DegenerateField",
    "DegenerateTriangle",
    "DegenerateZero",
    "EulerResult",
    "Frame",
    "GaplessModel",
    "GaplessPoint",
    "HVector",
    "InsufficientSampling",
    "Jacobian2",
    "KPoint",
    "LoopSpec",
    "ModelParams",
    "NonIntegralSum",
    "NonIsolatedZero",
    "PhaseDiagramGrid",
    "SweepAxis",
    "SweepCell",
    "TopologyError",
    "Velocity",
    "WeightMode",
    "WindingResult",
    "ZeroKind",
    "ZeroMode",
    "ZeroOnLoop",
    "axis_distance",
    "band_energy",
    "bloch_vector",
    "chern_direct",
    "chern_plaquette",
    "classify",
    "euler_characteristic",
    "find_zero_modes",
    "frame_regularity",
    "gap_min",
    "gapless_boundary",
    "index_of",
    "read_grid",
    "reduce_angle",
    "sweep_chern",
    "sweep_euler",
    "tangent_frame",
    "velocity_band",
    "velocity_closed",
    "velocity_jacobian",
    "weighted_index_sum",
    "winding_hermitian",
    "winding_nonhermitian",
    "winding_planar",
    "write_grid",
    "write_surface_csv",
    "zero_modes_json",
]
