"""Multi-drone trajectory planning over polytope free-space covers.

Pipeline: cover free space with convex polytopes (geom), search a guiding
path and corridor (pathfind), parameterize a smooth trajectory by waypoints
and durations (minco), penalize corridor, reciprocal-safety, and dynamic
limits (penalty, dynamics), minimize with a quasi-Newton solver over
unconstrained charts (optimize, solver), and coordinate whole fleets with
audited commits and robustness trials (fleet).
"""

from .config import RunConfig, load_config
from .dynamics import Limits, VehicleModel, flat_batch
from .errors import (AuditFailure, BlockedEndpoint, CoverageGap,
                     EmptyInterior, EmptyIntersection, NoFreeSpace, NoPath,
                     NotInPolytope, PlanningError, PostCheckFailure,
                     ScheduleTimeout, SingularAttitude, SingularSystem,
                     Unbounded)
from .fleet import (DisturbanceSpec, FleetDb, Mission, min_pairwise_distance,
                    robustness_experiment)
from .geom import (Aabb, HalfspacePolytope, ObstacleMap, PolyMap,
                   chebyshev_like_center, generate_polytope, polyhedronize,
                   segment_inside, stab_all, vertex_enumeration)
from .minco import BoundaryState, GradientBundle, MincoTrajectory, construct
from .optimize import (CoordinateChart, SolveOptions, SolveReport,
                       StampedProfile, chart_build, chart_invert,
                       chart_objective, plan_mission, post_check, solve,
                       temporal_schedule)
from .pathfind import (Corridor, Path, corridor_from_path, corridor_search,
                       shortest_path_refine, trapezoidal_allocation)
from .penalty import (PenaltyConfig, SafetyMargins,
                      check_equivalent_criterion, composite, phi)

__version__ = "0.1.0"

__all__ = [
    "Aabb", "AuditFailure", "BlockedEndpoint", "BoundaryState",
    "CoordinateChart", "Corridor", "CoverageGap", "DisturbanceSpec",
    "EmptyInterior", "EmptyIntersection", "FleetDb", "GradientBundle",
    "HalfspacePolytope", "Limits", "MincoTrajectory", "Mission",
    "NoFreeSpace", "NoPath", "NotInPolytope", "ObstacleMap", "Path",
    "PenaltyConfig", "PlanningError", "PolyMap", "PostCheckFailure",
    "RunConfig", "SafetyMargins", "ScheduleTimeout", "SingularAttitude",
    "SingularSystem", "SolveOptions", "SolveReport", "StampedProfile",
    "Unbounded", "VehicleModel", "chart_build", "chart_invert",
    "chart_objective", "check_equivalent_criterion",
    "chebyshev_like_center", "composite", "construct",
    "corridor_from_path", "corridor_search", "flat_batch",
    "generate_polytope", "load_config", "min_pairwise_distance",
    "plan_mission", "phi", "polyhedronize", "post_check",
    "robustness_experiment", "segment_inside", "shortest_path_refine",
    "solve", "stab_all", "temporal_schedule",
    "trapezoidal_allocation", "vertex_enumeration",
]
