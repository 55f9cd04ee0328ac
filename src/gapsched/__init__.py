"""Exact solvers for gap-aware scheduling of unit jobs.

Deadline problems (minimum/maximum gap counts, gap sizes, throughput
under gap budgets), together with their continuous interval-hitting
analogues in exact rational arithmetic, plus exhaustive reference
solvers for verification.  The release-only flow/gap tradeoffs are
covered by the exhaustive oracle only; their polynomial solvers are
deferred.
"""

from .core import (
    Constraints,
    FeasibilityResult,
    GapStats,
    Instance,
    Job,
    NormalizeResult,
    Schedule,
    certify,
    check_feasible,
    gap_stats,
    normalize_distinct,
    validate,
)
from .errors import GapSchedError, InfeasibleError, OracleCapError

__all__ = [
    "Constraints",
    "FeasibilityResult",
    "GapStats",
    "Instance",
    "Job",
    "NormalizeResult",
    "Schedule",
    "certify",
    "check_feasible",
    "gap_stats",
    "normalize_distinct",
    "validate",
    "GapSchedError",
    "InfeasibleError",
    "OracleCapError",
]
