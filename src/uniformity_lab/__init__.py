"""Exact computation toolkit for uniformity norms, linear-system complexity
invariants, and configuration counts over F_p^n."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .algebra import QuadraticForm, Subspace, rank, solve_affine
from .budget import BudgetExceededError, check_budget, resolve_budget
from .counting import (average_product_direct, average_product_dual,
                       count_solutions)
from .domains import GroupDomain, domain
from .functions import (GroupFunction, IndicatorSet, balanced, fourier,
                        inverse_fourier, l2_norm, load_function,
                        save_function, u2_norm_fast, uk_norm, uk_norm_fast,
                        uk_power_exact)
from .hypergraphs import (TripartiteFunction, lift, octahedral_norm,
                          vertex_uniformity_counterexample)
from .reports import Check, ExperimentReport
from .systems import (INFINITE, LinearFormSystem, NormalFormWitness,
                      builtin_system, conjectured_true_complexity,
                      cs_complexity, load_system,
                      maximal_square_independent_subsystem,
                      normal_form_check, power_independence, relation_space,
                      save_system, support)
from .verification import (QuadraticFactor, QuadraticMap, atom_distribution,
                           factor_rank, gauss_sum, gauss_sum_report,
                           quadratic_zero_set,
                           verify_badex, verify_bound1, verify_completefactor,
                           verify_gvn, verify_projection_lemmas,
                           verify_pythagoras, verify_quadfactor)

# the imported names; the submodules, bound as attributes by the imports
# above, stay reachable as `uniformity_lab.<module>` but are not exported
__all__ = [name for name, value in sorted(globals().items())
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
