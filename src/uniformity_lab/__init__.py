"""Exact computation toolkit for uniformity norms, linear-system complexity
invariants, and configuration counts over F_p^n."""

__version__ = "0.1.0"

from importlib import import_module as _import_module

# name -> the submodule that defines it.  A name loads its module on first
# access (`__getattr__`), so importing the package loads no submodule, and a
# command loads only the modules it runs.  Each submodule maps to itself and
# stays reachable as `uniformity_lab.<module>`; it is not exported.
_HOMES = {
    **{name: "algebra" for name in (
        "QuadraticForm", "Subspace", "rank", "solve_affine")},
    **{name: "budget" for name in (
        "BudgetExceededError", "check_budget", "resolve_budget")},
    **{name: "counting" for name in (
        "average_product_direct", "average_product_dual", "count_solutions")},
    **{name: "domains" for name in ("GroupDomain", "domain")},
    **{name: "functions" for name in (
        "GroupFunction", "IndicatorSet", "balanced", "fourier",
        "inverse_fourier", "l2_norm", "load_function", "save_function",
        "u2_norm_fast", "uk_norm", "uk_norm_fast", "uk_power_exact")},
    **{name: "hypergraphs" for name in (
        "TripartiteFunction", "lift", "octahedral_norm",
        "vertex_uniformity_counterexample")},
    **{name: "reports" for name in ("Check", "ExperimentReport")},
    **{name: "systems" for name in (
        "INFINITE", "LinearFormSystem", "NormalFormWitness", "builtin_system",
        "conjectured_true_complexity", "cs_complexity", "load_system",
        "maximal_square_independent_subsystem", "normal_form_check",
        "power_independence", "relation_space", "save_system", "support")},
    **{name: "verification" for name in (
        "QuadraticFactor", "QuadraticMap", "atom_distribution", "factor_rank",
        "gauss_sum", "gauss_sum_report", "quadratic_zero_set", "verify_badex",
        "verify_bound1", "verify_completefactor", "verify_gvn",
        "verify_projection_lemmas", "verify_pythagoras", "verify_quadfactor")},
    **{module: module for module in (
        "algebra", "budget", "cli", "counting", "domains", "functions",
        "hypergraphs", "reports", "systems", "verification")},
}

__all__ = sorted(name for name, home in _HOMES.items() if name != home)


def __getattr__(name):
    """The public name or submodule `name`, loaded on first access and kept
    in the package namespace."""
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{home}", __name__)
    value = globals()[name] = module if name == home else getattr(module, name)
    return value


def __dir__():
    return sorted(globals().keys() | _HOMES.keys())
