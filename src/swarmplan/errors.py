"""Exception types raised across the toolkit."""


class PlanningError(Exception):
    """Base class for recoverable planning failures."""

    # optimize.plan_mission's attempt records, when its retry loop raised.
    attempts = ()


class SeedOccupied(PlanningError):
    """Polytope seed collides with the obstacle set."""


class NoFreeSpace(PlanningError):
    """No free sample found inside the scene bounds within the attempt budget."""


class CoverageGap(PlanningError):
    """Guiding path leaves the polytope union."""


class NoPath(PlanningError):
    """Start or goal lies outside the cover, or no chain of overlapping
    polytopes joins them."""


class EmptyIntersection(PlanningError):
    """Consecutive corridor polytopes do not overlap."""


class EmptyInterior(PlanningError):
    """Halfspace system has no strictly feasible point."""


class Unbounded(PlanningError):
    """Halfspace system does not bound a finite region."""


class NotInPolytope(PlanningError):
    """Point lies outside the region it should be expressed in."""


class SingularAttitude(PlanningError):
    """Flatness map hit a thrust or attitude singularity."""


class SingularSystem(PlanningError):
    """Spline coefficient system is numerically singular."""


class ScheduleTimeout(PlanningError):
    """No conflict-free passage schedule along the fixed curve: the
    scheduler's reachable set emptied or stopped changing."""

    def __init__(self, message, counts=None):
        super().__init__(message)
        self.counts = dict(counts or {})  # the search's counters


class BlockedEndpoint(PlanningError):
    """A committed neighbor is parked too close to the mission's endpoint."""


class AuditFailure(PlanningError):
    """Reciprocal safety audit rejected a trajectory at commit time."""

    def __init__(self, message, pair=None, margin=None):
        super().__init__(message)
        self.pair = pair
        self.margin = margin


class PostCheckFailure(PlanningError):
    """Final dense-grid feasibility check rejected a planned trajectory."""

    def __init__(self, message, margins=None, problems=()):
        super().__init__(message)
        self.margins = dict(margins or {})
        self.problems = tuple(problems)
