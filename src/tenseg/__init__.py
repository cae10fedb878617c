"""Analysis toolkit for stacked planar tensegrity mechanisms.

Kinematics (:mod:`tenseg.geometry`), singular angles from one certified
quartic kernel with a sign-based fallback for multiple roots
(:mod:`tenseg.singularity`), spring-energy stability (:mod:`tenseg.energy`), a
design grid search (:mod:`tenseg.optimizer`) and a CLI (:mod:`tenseg.cli`).
"""

from .energy import (EnergyProfile, InvalidFraction, NoSingularity,
                     SpringParams, Stability, StabilityClass,
                     classify_home_stability, energy, energy_profile,
                     rest_length, total_energy)
from .geometry import (Frame2D, InvalidGeometry, InvalidRatio, SegmentGeometry,
                       SegmentPose, SegmentState, StackConfig, cable_lengths,
                       normalize_angle, segment_points, singularity_condition,
                       stack_forward, tapered_stack, validate_geometry)
from .optimizer import (DesignBounds, DesignRecord, OptimizationReport,
                        optimize)
from .singularity import DegenerateInput, SingularitySet, singular_angles

__version__ = "0.1.0"

__all__ = [
    "EnergyProfile", "InvalidFraction", "NoSingularity", "SpringParams",
    "Stability", "StabilityClass", "classify_home_stability", "energy",
    "energy_profile", "rest_length", "total_energy",
    "Frame2D", "InvalidGeometry", "InvalidRatio", "SegmentGeometry",
    "SegmentPose", "SegmentState", "StackConfig", "cable_lengths",
    "normalize_angle", "segment_points", "singularity_condition",
    "stack_forward", "tapered_stack", "validate_geometry",
    "DesignBounds", "DesignRecord", "OptimizationReport", "optimize",
    "DegenerateInput", "SingularitySet", "singular_angles",
    "__version__",
]
