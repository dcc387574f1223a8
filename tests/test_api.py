import uniformity_lab

# The package's public names.  Adding or removing one is a deliberate API
# change: edit this list with it.
PUBLIC_NAMES = [
    "BudgetExceededError", "Check", "ExperimentReport", "GroupDomain",
    "GroupFunction", "INFINITE", "IndicatorSet", "LinearFormSystem",
    "NormalFormWitness", "QuadraticFactor", "QuadraticForm",
    "QuadraticMap", "Subspace", "TripartiteFunction",
    "atom_distribution", "average_product_direct",
    "average_product_dual", "balanced", "builtin_system",
    "check_budget", "conjectured_true_complexity", "convolve",
    "count_solutions", "cs_complexity", "domain", "factor_rank",
    "fourier", "gauss_sum", "gauss_sum_report", "inverse_fourier",
    "is_s_complex_at", "l2_norm", "lift", "load_function",
    "load_system", "maximal_square_independent_subsystem",
    "normal_form_check", "octahedral_norm", "power_independence",
    "quadratic_zero_set", "rank", "relation_space", "resolve_budget",
    "save_function", "save_system", "solve_affine", "span_dimension",
    "support", "u2_norm_fast", "uk_norm", "uk_norm_fast",
    "uk_power_exact", "verify_badex", "verify_bound1",
    "verify_completefactor", "verify_gvn", "verify_projection_lemmas",
    "verify_pythagoras", "verify_quadfactor",
    "vertex_uniformity_counterexample",
]


def test_public_api_is_pinned():
    assert sorted(uniformity_lab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(uniformity_lab, name), name
