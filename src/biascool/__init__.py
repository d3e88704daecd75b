"""Bias-voltage cooling ramps for charged mechanical resonators.

Design occupation-preserving frequency ramps driven by gate voltages,
propagate the resonator's Gaussian state exactly through them, and
quantify how hard the cooling claim fails under drive errors.
"""

__version__ = "0.1.0"

from .config import RunConfig, load_config, parse_config
from .design import ControlTrajectory, TrajectorySpec, make_spec, make_trajectory
from .dynamics import GaussianState, TransferMatrix, propagate_transfer, thermal_state
from .physical import PhysicalParams, compute_eta
from .robustness import SweepOptions, SweepResult
from .thermometry import effective_temperature, thermal_occupation

__all__ = [
    "__version__",
    "ControlTrajectory",
    "GaussianState",
    "PhysicalParams",
    "RunConfig",
    "SweepOptions",
    "SweepResult",
    "TrajectorySpec",
    "TransferMatrix",
    "compute_eta",
    "effective_temperature",
    "load_config",
    "make_spec",
    "make_trajectory",
    "parse_config",
    "propagate_transfer",
    "thermal_occupation",
    "thermal_state",
]
