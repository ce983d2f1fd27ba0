"""Core contribution: defect adaptation, figures of merit, post-selection, codesign."""

from .adaptation import adapt_patch, cluster_diameter, defect_clusters
from .metrics import (
    ChainGraph,
    PatchMetrics,
    build_chain_graph,
    code_distance,
    evaluate_patch,
    num_shortest_logicals,
)
from .patch import AdaptedPatch, GaugeOperator, SuperStabilizer
from .postselection import (
    DefectFreeCriterion,
    DistanceCriterion,
    PostSelectionCriterion,
    rank_by_chosen_indicators,
    rank_by_faulty_count,
    reference_metrics,
    select_fraction,
)

__all__ = [
    "DefectFreeCriterion",
    "DistanceCriterion",
    "PostSelectionCriterion",
    "rank_by_chosen_indicators",
    "rank_by_faulty_count",
    "reference_metrics",
    "select_fraction",
    "adapt_patch",
    "cluster_diameter",
    "defect_clusters",
    "ChainGraph",
    "PatchMetrics",
    "build_chain_graph",
    "code_distance",
    "evaluate_patch",
    "num_shortest_logicals",
    "AdaptedPatch",
    "GaugeOperator",
    "SuperStabilizer",
]
