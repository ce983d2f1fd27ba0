"""Modular chiplet architecture: yield, overhead, boundaries, applications."""

from .application import (
    ResourceEstimate,
    ShorWorkload,
    application_fidelity,
    estimate_defect_intolerant_resources,
    estimate_no_defect_resources,
    estimate_super_stabilizer_resources,
    topological_error_rate,
)
from .architecture import Chiplet, ChipletDevice, swap_data_syndrome_roles
from .boundary import (
    STANDARD_1,
    STANDARD_2,
    STANDARD_3,
    STANDARD_4,
    BoundaryStandard,
    edge_deformation_width,
    edge_is_deformation_free,
    merged_seam_distance,
)
from .overhead import (
    OverheadPoint,
    OverheadStudy,
    average_cost_per_logical_qubit,
    defect_intolerant_overhead,
    optimal_chiplet_size,
    overhead_factor,
    qubits_per_chiplet,
)
from .yield_model import YieldResult, defect_intolerant_yield

__all__ = [
    "ResourceEstimate",
    "ShorWorkload",
    "application_fidelity",
    "estimate_defect_intolerant_resources",
    "estimate_no_defect_resources",
    "estimate_super_stabilizer_resources",
    "topological_error_rate",
    "Chiplet",
    "ChipletDevice",
    "swap_data_syndrome_roles",
    "STANDARD_1",
    "STANDARD_2",
    "STANDARD_3",
    "STANDARD_4",
    "BoundaryStandard",
    "edge_deformation_width",
    "edge_is_deformation_free",
    "merged_seam_distance",
    "OverheadPoint",
    "OverheadStudy",
    "average_cost_per_logical_qubit",
    "defect_intolerant_overhead",
    "optimal_chiplet_size",
    "overhead_factor",
    "qubits_per_chiplet",
    "YieldResult",
    "defect_intolerant_yield",
]
