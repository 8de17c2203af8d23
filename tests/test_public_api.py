import fountain_lab

PUBLIC_NAMES = {
    "__version__",
    # degree distributions
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
    # asymptotics
    "check_margin_condition",
    "peeling_margin",
    "r_of_z",
    "s_of_r",
    # LP bounds
    "BoundCurve",
    "BoundRow",
    "dual_outer_bound",
    "dual_outer_bound_details",
    "outer_bound_curve",
    "primal_min_r",
    # codec
    "CodedSymbol",
    "decode",
    "encode",
    # simulation
    "SimulationConfig",
    "SimulationResult",
    "SweepRow",
    "run_trial",
    "sweep",
    "trial_seed",
    "write_result_csv",
}


def test_public_surface_is_pinned():
    # a new public name is a deliberate change: add it here as well
    assert len(PUBLIC_NAMES) == 36
    assert len(fountain_lab.__all__) == len(set(fountain_lab.__all__))
    assert set(fountain_lab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert getattr(fountain_lab, name) is not None, name


def test_lp_internals_stay_in_their_module():
    for name in ("LpSolution", "simplex_solve"):
        assert not hasattr(fountain_lab, name), name
        assert hasattr(fountain_lab.lp_bounds, name), name
