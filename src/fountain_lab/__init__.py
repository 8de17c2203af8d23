"""Intermediate-performance toolkit for rateless (fountain) codes."""

__version__ = "0.1.0"

# format of every float in the CSV outputs; nine significant digits round-trip
CSV_FLOAT = "%.9g"

from .degree_dist import (
    DegreeDistribution,
    TruncatedSolitonDesign,
    UnknownRegionError,
    ideal_soliton,
    limiting_soliton,
    max_useful_degree,
    optimal_distribution,
    perturb,
    pgf_derivative,
    pgf_eval,
    raptor_omega,
    read_distribution,
    robust_soliton,
    truncated_soliton,
    write_distribution,
)
from .asymptotics import (
    check_margin_condition,
    peeling_margin,
    r_of_z,
    s_of_r,
)
from .lp_bounds import (
    BoundCurve,
    BoundRow,
    dual_outer_bound,
    dual_outer_bound_details,
    outer_bound_curve,
    primal_min_r,
)
from .lt_codec import (
    CodedSymbol,
    decode,
    encode,
)
from .sim_harness import (
    SimulationConfig,
    SimulationResult,
    SweepRow,
    run_trial,
    sweep,
    trial_seed,
    write_result_csv,
)

__all__ = [
    "__version__",
    "DegreeDistribution",
    "TruncatedSolitonDesign",
    "UnknownRegionError",
    "ideal_soliton",
    "limiting_soliton",
    "max_useful_degree",
    "optimal_distribution",
    "perturb",
    "pgf_derivative",
    "pgf_eval",
    "raptor_omega",
    "read_distribution",
    "robust_soliton",
    "truncated_soliton",
    "write_distribution",
    "check_margin_condition",
    "peeling_margin",
    "r_of_z",
    "s_of_r",
    "BoundCurve",
    "BoundRow",
    "dual_outer_bound",
    "dual_outer_bound_details",
    "outer_bound_curve",
    "primal_min_r",
    "CodedSymbol",
    "decode",
    "encode",
    "SimulationConfig",
    "SimulationResult",
    "SweepRow",
    "run_trial",
    "sweep",
    "trial_seed",
    "write_result_csv",
]
