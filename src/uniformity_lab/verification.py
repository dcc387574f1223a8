"""Numerical verification of the package's quantitative statements, and
`drive`, which runs every priced job.

Each experiment checks one inequality or identity: Gauss sum moduli, the
quadratic zero-set dichotomy for square-(in)dependent systems (badex), the
generalized von Neumann inequality, equidistribution of quadratic-factor
atoms and of factors along a system, the projection lemmas for linear
factors, the structured-part product bound, and the U^3 Pythagorean
identity.  Results come back as ExperimentReports whose pass/fail verdicts
are recomputed from the stored numbers, never cached.  Where the observed
deviation is an exact rational, a bound p^(e - r/2) is compared exactly by
squaring both sides (`_exact_power_bound`); the atom histogram and the
quadfactor and completefactor checks share one such verdict,
`_add_deviation_check`.

badex, quadfactor and completefactor are one count, `_factor_matches`: the
assignments whose form images all land in given atoms of a quadratic
factor, badex being the factor x -> x.x (`dot_factor`) with zero targets.
With one homogeneous form and zero targets it is taken in closed form
(`counting.quadratic_zero_count`) where `_use_gauss` finds that cheaper
than the direct side's elimination plan, or the enumeration refused, and
otherwise on that plan; both give the same integer.  `verify_bound1` makes
the same decision for its average.  The atom histogram is exact in closed
form at any n (`algebra._atom_counts`), or visits the p^n points where that
takes fewer operations (`_price_atoms`).

Every priced job is one `Entry` of `ENTRIES`: each verify experiment, and
the `norm`, `count` and `octahedron --check lift` commands.  Its `price`
refuses the job or returns its plan, the path choices (closed form or
elimination plan, direct or dual side, closed-form or visited atoms)
together with what the run reads of the options; `build` draws or builds
its inputs; `run` returns the report and never prices again.  `drive` is
the only caller of the three: it prices every entry of a job before it
builds the first, so each refusal comes before any allocation, then builds
and runs the entries in order, drawing from one generator.  The public
`verify_*` functions are the same price and run on inputs a caller gives.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import chain
from typing import Optional, Sequence

import numpy as np

from .algebra import (ATOM_BLOCK, QuadraticForm, _atom_counts, _line_classes,
                      as_fp_matrix, atom_count_cost, check_modulus, nullspace,
                      rank)
from .budget import check_budget, resolve_budget
from .counting import (_check_average_budget, _check_gauss_budget,
                       _check_inputs, _run_passes, average_product_direct,
                       average_product_dual, count_solutions, direct_op_count,
                       dual_op_count, plan_cost, quadratic_average,
                       quadratic_zero_count, quadratic_zero_op_count,
                       reduce_form_images)
from .domains import MAX_DOMAIN_SIZE, GroupDomain, domain
from .functions import (GroupFunction, IndicatorSet, _check_direct_budget,
                        _check_fast_budget, _check_k, balanced, l2_norm,
                        load_function, omega_power, random_bounded_function,
                        u2_norm_fast, uk_norm, uk_norm_fast,
                        uk_norm_fast_op_count)
from .hypergraphs import _check_octahedral_budget, lift, octahedral_norm
from .reports import FLOAT_SLACK, Check, ExperimentReport  # Check: re-exported
from .systems import (INFINITE, LinearFormSystem, cs_complexity,
                      maximal_square_independent_subsystem, power_independence,
                      resolve_system)


class SquareDependenceError(ValueError):
    """The operation requires a square-independent system."""


class ComplexityPreconditionError(ValueError):
    """The system's partition complexity exceeds the allowed degree."""


def _exact_power_bound(dev: Fraction, p: int, two_exponent: int) -> bool:
    """dev <= p^(two_exponent / 2), compared exactly via dev^2 <= p^two_exponent."""
    if two_exponent >= 0:
        bound_sq = Fraction(p**two_exponent)
    else:
        bound_sq = Fraction(1, p**(-two_exponent))
    return dev * dev <= bound_sq


# the (exact, bounded) check names of a factor probability's verdict
_PROBABILITY_CHECKS = ("probability_exact_reference", "deviation_le_bound")


def _add_deviation_check(rep: ExperimentReport, dev: Fraction, p: int,
                         two_exponent: int, r: int | None,
                         names: tuple[str, str]) -> None:
    """The verdict of a quadratic-factor count, under the check names
    (exact, bounded): with no quadratic part (r is None) the deviation is
    exactly 0; with factor rank r it is at most p^((two_exponent - r) / 2),
    compared exactly.  Records the bound (0 for no quadratic part) as
    observed."""
    exact, bounded = names
    if r is None:
        rep.observed["bound"] = 0.0
        rep.add_check(exact, float(dev), 0.0, "==", exact_verdict=(dev == 0))
    else:
        bound = rep.observed["bound"] = p ** ((two_exponent - r) / 2)
        rep.add_check(bounded, float(dev), bound, "<=",
                      exact_verdict=_exact_power_bound(dev, p, two_exponent - r))


def _encode(tables, base: int, size: int) -> np.ndarray:
    """(size,) codes reading the entries of `tables`, each in [0, base), as
    the digits of one base-`base` number, the first table most significant."""
    code = np.zeros(size, dtype=np.int64)
    for t in tables:
        code *= base
        code += t
    return code


def _form_values(q: QuadraticForm, dom: GroupDomain) -> np.ndarray:
    """(size,) table of q(x) = sum_k x_k (l_k(x) + b_k), with l_k(x) the
    k-th entry of M x, built from linear tables in O(size) memory.  The sum
    stays below 2 n p^2 <= 2^53 (as p^n <= 2^26), so one final reduction
    mod p is exact."""
    vals = np.zeros(dom.size, dtype=np.int64)
    for k, e in enumerate(np.eye(q.n, dtype=np.int64)):
        term = dom.linear_values(q.M[k])
        term += q.b[k]
        term *= dom.linear_values(e)
        vals += term
    vals %= q.p
    return vals


# ---------------------------------------------------------------------------
# Gauss sums and the quadratic zero set.

def gauss_sum(q: QuadraticForm) -> complex:
    """E_x omega^(q(x)) over F_p^n by direct enumeration."""
    return complex(omega_power(q.p, _form_values(q, domain(q.p, q.n))).mean())


def _price_points(p: int, n: int, budget: int | None, what: str) -> tuple:
    """Refuse a table over the p^n points of F_p^n over budget; nothing to
    choose."""
    check_budget(domain(p, n).size, budget, what=f"{what} over {p}^{n} points")
    return ()


def gauss_sum_report(q: QuadraticForm, budget: int | None = None) -> ExperimentReport:
    """Modulus of the Gauss sum against p^(-rank/2), equality when b = 0."""
    _price_points(q.p, q.n, budget, "Gauss sum")
    return _gauss_report(q)


def _gauss_report(q: QuadraticForm) -> ExperimentReport:
    r = q.rank
    value = gauss_sum(q)
    modulus = abs(value)
    bound = q.p ** (-r / 2)
    rep = ExperimentReport(
        name="gauss",
        parameters={"p": q.p, "n": q.n, "rank": r,
                    "homogeneous": not bool(q.b.any())},
        observed={"value_re": value.real, "value_im": value.imag,
                  "modulus": modulus, "bound": bound})
    rep.add_check("modulus_le_bound", modulus, bound, "<=", 1e-10)
    if not q.b.any():
        rep.add_check("equality_when_homogeneous", modulus, bound, "==", 1e-10)
    return rep


def quadratic_zero_set(p: int, n: int) -> IndicatorSet:
    """The set {x in F_p^n : x.x = 0}; density is within p^(-n/2) of 1/p.

    x.x is the per-coordinate outer sum of the squares k^2 mod p, at most
    n (p - 1), reduced mod p once."""
    dom = domain(p, n)
    squares = np.arange(p, dtype=np.int64) ** 2 % p
    values = dom.coordinate_sum(squares)
    values %= p
    return IndicatorSet(domain=dom, members=values == 0)


def quadratic_zero_set_report(p: int, n: int) -> ExperimentReport:
    """The density of the zero set against 1/p; the set is built here, so
    its p^n points are priced by the caller (the `quadzero` entry)."""
    A = quadratic_zero_set(p, n)
    alpha = A.density
    dev = abs(alpha - Fraction(1, p))
    rep = ExperimentReport(
        name="quadzero",
        parameters={"p": p, "n": n},
        observed={"count": A.count, "density": float(alpha),
                  "density_exact": str(alpha)})
    rep.add_check("density_near_1_over_p", float(dev), p ** (-n / 2), "<=",
                  exact_verdict=_exact_power_bound(dev, p, -n))
    return rep


# ---------------------------------------------------------------------------
# The zero-set dichotomy experiment.

def verify_badex(sys: LinearFormSystem, n: int,
                 budget: int | None = None) -> ExperimentReport:
    """Solution probability of the quadratic zero set under the system.

    Square-independent systems must land within p^(-n/2) of p^(-m); a
    square-dependent system with maximal independent subsystem of size l < m
    must overshoot: P >= p^(-l) - p^(-n/2), an excess over density^m.

    The count is `_factor_matches` of the factor x -> x.x with zero targets
    (priced by `_price_matches`); the density is the closed-form count of
    one form in one variable over p^n, so the zero set is never built.
    """
    gauss = _price_matches(sys, n, n, True, budget)
    return _badex(dot_factor(sys.p, n), sys, gauss, budget)


def _badex(factor: QuadraticFactor, sys: LinearFormSystem, gauss: bool,
           budget: int | None) -> ExperimentReport:
    p, n = factor.p, factor.n
    count = _factor_matches(sys, factor, np.zeros((sys.m, 0), dtype=np.int64),
                            np.zeros((sys.m, 1), dtype=np.int64), None, budget, gauss)
    alpha = _zero_density(factor.gamma2.forms[0].M, p, budget)
    P = Fraction(count, p ** (n * sys.d))
    l = len(maximal_square_independent_subsystem(sys))
    independent = l == sys.m
    rep = ExperimentReport(
        name="badex",
        parameters={"p": p, "n": n, "m": sys.m, "d": sys.d,
                    "system": sys.name or "custom",
                    "square_independent": independent},
        observed={"probability": float(P), "probability_exact": str(P),
                  "density": float(alpha),
                  "expected_random": float(alpha**sys.m)})
    if independent:
        dev = abs(P - Fraction(1, p**sys.m))
        rep.observed["deviation_from_p^-m"] = float(dev)
        rep.add_check("probability_near_p^-m", float(dev), p ** (-n / 2), "<=",
                      exact_verdict=_exact_power_bound(dev, p, -n))
    else:
        excess = P - alpha**sys.m
        rep.parameters["independent_subsystem_size"] = l
        rep.observed["excess_over_alpha^m"] = float(excess)
        rep.observed["ratio_to_alpha^m"] = float(P / alpha**sys.m) if P else 0.0
        shortfall = Fraction(1, p**l) - P
        verdict = shortfall <= 0 or _exact_power_bound(shortfall, p, -n)
        rep.add_check("probability_ge_p^-l_overshoot",
                      float(Fraction(1, p**l)) - float(P), p ** (-n / 2), "<=",
                      exact_verdict=verdict)
    return rep


# ---------------------------------------------------------------------------
# Generalized von Neumann inequality.

def _price_gvn(sys: LinearFormSystem, dom: GroupDomain, k: int | None,
               budget: int | None) -> tuple[int, float, bool]:
    """(k, complexity, dual) of `verify_gvn` on dom, or its refusal before any
    allocation: k >= 1, the precondition, the average's price, the norms'
    price.  k = None takes max(complexity, 1): U^2 also bounds an average of
    complexity 0, a product of means."""
    if k is not None and k < 1:
        raise ValueError(f"gvn's U^(k+1) norms need k >= 1, got {k}")
    actual = cs_complexity(sys)
    if k is None and actual == INFINITE:
        raise ComplexityPreconditionError(
            "system has infinite partition complexity (two parallel "
            "forms): no U^k norm controls its average")
    k = max(int(actual), 1) if k is None else k
    if not actual <= k:
        raise ComplexityPreconditionError(
            f"system has partition complexity {actual}, need <= {k}")
    dual = dual_op_count(sys, dom) < direct_op_count(sys, dom)
    _check_average_budget(sys, dom, dual, budget)
    _check_fast_budget(dom, k + 1, budget)
    return k, actual, dual


def verify_gvn(sys: LinearFormSystem, fs: Sequence[GroupFunction],
               k: int | None = None, budget: int | None = None) -> ExperimentReport:
    """|E prod_i f_i(L_i(x))| <= min_i U^(k+1)(f_i) for bounded f_i, provided
    the system's partition complexity is at most k; k = None takes that
    complexity itself (1 at complexity 0), and refuses an infinite one (two
    parallel forms).

    The norms are the fast U^(k+1) norms (`uk_norm_fast`; the direct `uk_norm`
    is the suite's cross-check).  The average sums over the dual's frequency
    tuples (`average_product_dual`) when that counts fewer operations than
    the direct sum over assignments, ties going direct (one kernel runs
    both, so the counts compare alike).  Both are priced first by
    `_price_gvn`.  The U^2 norms and a dual average read the kept transforms."""
    return _gvn(fs, sys, *_price_gvn(sys, _check_inputs(sys, fs), k, budget), budget)


def _gvn(fs: Sequence[GroupFunction], sys: LinearFormSystem, k: int,
         actual: float, dual: bool, budget: int | None) -> ExperimentReport:
    for i, f in enumerate(fs):
        if f.linf() > 1 + 1e-12:
            raise ValueError(f"function {i} exceeds the unit sup-norm bound")
    norms = [uk_norm_fast(f, k + 1, budget=budget) for f in fs]
    average = average_product_dual if dual else average_product_direct
    lhs = abs(average(sys, fs, budget=budget))
    rhs = min(norms)
    rep = ExperimentReport(
        name="gvn",
        parameters={"p": sys.p, "n": fs[0].domain.n, "k": k, "m": sys.m,
                    "system": sys.name or "custom", "complexity": float(actual)},
        observed={"average_modulus": lhs, "min_norm": rhs,
                  "norms": [float(v) for v in norms]})
    rep.add_check("average_le_min_uniformity_norm", lhs, rhs, "<=", FLOAT_SLACK)
    return rep


# ---------------------------------------------------------------------------
# Quadratic factors.

@dataclass(frozen=True)
class QuadraticMap:
    """x -> (q_1(x), ..., q_{d2}(x)) for quadratic forms on a common F_p^n."""

    forms: tuple[QuadraticForm, ...]

    def __post_init__(self):
        object.__setattr__(self, "forms", tuple(self.forms))
        if self.forms:
            p, n = self.forms[0].p, self.forms[0].n
            for q in self.forms:
                if q.p != p or q.n != n:
                    raise ValueError("all quadratic forms must share p and n")

    @property
    def d2(self) -> int:
        return len(self.forms)

    def value_codes(self, dom: GroupDomain) -> np.ndarray:
        """Integer encoding of the value tuple at every point, base-p."""
        return _encode((_form_values(q, dom) for q in self.forms), dom.p, dom.size)


@dataclass(frozen=True)
class QuadraticFactor:
    """A partition of F_p^n into atoms cut out by a surjective linear map
    gamma1 and a quadratic map gamma2."""

    p: int
    n: int
    gamma1: np.ndarray  # (d1, n)
    gamma2: QuadraticMap

    def __post_init__(self):
        G1 = as_fp_matrix(np.asarray(self.gamma1, dtype=np.int64).reshape(-1, self.n),
                          self.p)
        if G1.shape[0] and rank(G1, self.p) != G1.shape[0]:
            raise ValueError("gamma1 must have full row rank (surjective)")
        for q in self.gamma2.forms:
            if q.p != self.p or q.n != self.n:
                raise ValueError("gamma2 does not match the factor's p, n")
        object.__setattr__(self, "gamma1", G1)

    @property
    def d1(self) -> int:
        return self.gamma1.shape[0]

    @property
    def d2(self) -> int:
        return self.gamma2.d2

    def linear_codes(self, dom: GroupDomain) -> np.ndarray:
        """Integer encoding of gamma1(x) at every point, base-p."""
        return _encode((dom.linear_values(g) for g in self.gamma1), self.p, dom.size)

    def atom_codes(self, dom: GroupDomain) -> np.ndarray:
        return self.linear_codes(dom) * self.p**self.d2 + self.gamma2.value_codes(dom)


def _check_d1(d1: int, n: int) -> None:
    """Refuse a linear part of more than n forms on F_p^n (exit 2)."""
    if d1 > n:
        raise ValueError("d1 cannot exceed n")


def dot_factor(p: int, n: int, d1: int = 0) -> QuadraticFactor:
    """The factor of F_p^n cut out by the first d1 coordinates and x -> x.x."""
    _check_d1(d1, n)
    eye = np.eye(n, dtype=np.int64)
    q = QuadraticForm(p=p, M=eye, b=np.zeros(n, dtype=np.int64))
    return QuadraticFactor(p=p, n=n, gamma1=eye[:d1], gamma2=QuadraticMap(forms=(q,)))


def factor_rank(gamma2: QuadraticMap, p: int | None = None) -> int:
    """Minimum rank of a nonzero F_p-combination of the associated symmetric
    bilinear forms, the matrices M of the forms.  A combination and its
    nonzero multiples share a rank, so one combination on each line of F_p^d2
    is eliminated, (p^d2 - 1)/(p - 1) of them, in stacks of at most
    ATOM_BLOCK entries (`algebra._line_classes`); requires at least one
    quadratic form."""
    if gamma2.d2 == 0:
        raise ValueError("factor rank needs d2 >= 1")
    p = gamma2.forms[0].p if p is None else p
    mats = np.stack([q.M for q in gamma2.forms])
    return min(int(ranks.min()) for _, ranks, _ in _line_classes(mats, p, ATOM_BLOCK))


def _price_atoms(p: int, n: int, d1: int, d2: int, budget: int | None) -> bool:
    """Price `atom_distribution` of a factor of F_p^n with d1 linear and d2
    quadratic parts before anything is built, and say how it counts: True
    for the closed form (`algebra._atom_counts`), False for visiting the p^n
    points, whichever takes fewer operations (the visit only where d2 is
    large against n - d1).  A visit takes n (d1 + d2 (n + 1)) operations a
    point and one a cell, and needs p^n points and p^(d1 + d2) cells within
    MAX_DOMAIN_SIZE; the closed form's operations and int64 words a cell
    are `algebra.atom_count_cost`'s, and it refuses a histogram of more
    than MAX_DOMAIN_SIZE words.  The cheaper count is refused over budget."""
    _check_d1(d1, n)
    cells = p ** (d1 + d2)
    words, ops = atom_count_cost(p, n, d1, d2)
    if max(points := p**n, cells) <= MAX_DOMAIN_SIZE:
        if (visit := points * n * (d1 + d2 * (n + 1)) + cells) < ops:
            check_budget(visit, budget, what=f"atom histogram over {p}^{n} points")
            return False
    if cells * words > MAX_DOMAIN_SIZE:
        raise ValueError(f"the atom histogram has {p}^{d1 + d2} = {cells} cells "
                         f"({cells * words} int64 words), more than the "
                         f"supported maximum of {MAX_DOMAIN_SIZE}")
    check_budget(ops, budget, what=f"atom histogram of {p}^{d1 + d2} cells")
    return True


def atom_distribution(factor: QuadraticFactor,
                      budget: int | None = None) -> ExperimentReport:
    """Exact histogram of the atoms, in closed form (`algebra._atom_counts`)
    or over the p^n points, as `_price_atoms` decides; every cell
    probability must be within p^(-r/2) of p^(-d1-d2), r the factor rank."""
    return _atoms(factor, _price_atoms(factor.p, factor.n, factor.d1, factor.d2,
                                       budget))


def _atoms(factor: QuadraticFactor, closed: bool) -> ExperimentReport:
    p, n = factor.p, factor.n
    cells, size = p ** (factor.d1 + factor.d2), p**n
    if closed:
        counts = _atom_counts(factor.gamma1, factor.gamma2.forms, p)
    else:
        counts = np.bincount(factor.atom_codes(domain(p, n)), minlength=cells)
    low, high = int(counts.min()), int(counts.max())
    r = factor_rank(factor.gamma2, p) if factor.d2 else None
    ref = Fraction(1, cells)
    # |c / N - 1 / cells| = |c cells - N| / (N cells), largest at an extreme c
    worst = Fraction(max(high * cells - size, size - low * cells), size * cells)
    rep = ExperimentReport(
        name="atoms",
        parameters={"p": p, "n": n, "d1": factor.d1, "d2": factor.d2, "rank": r},
        observed={"cells": cells, "count_min": low, "count_max": high,
                  "worst_deviation": float(worst), "reference": float(ref)})
    _add_deviation_check(rep, worst, p, 0, r,
                         ("atoms_exactly_uniform", "atom_deviation_le_bound"))
    return rep


# ---------------------------------------------------------------------------
# Factor equidistribution along a system of forms.

def _require_square_independent(sys: LinearFormSystem) -> None:
    if not power_independence(sys, 1):
        raise SquareDependenceError(
            "operation requires a square-independent system")


def _use_gauss(homogeneous: bool, closed_ops: int, sys: LinearFormSystem,
               n: int, budget: int | None) -> bool:
    """Whether a count or average of the system's forms over F_p^n takes its
    closed form, of operation estimate `closed_ops` (priced on the rank C
    pivot columns it runs on), rather than the direct side's elimination
    plan.  Only homogeneous inputs have one, and it is never taken at or
    above m N^d, the enumeration's budget price (`direct_op_count`).  Below
    that it is taken where it costs at most N, below any plan (one pass over
    G), without building the plan; where the enumeration cannot run, its
    domain above `MAX_DOMAIN_SIZE` or its price over budget; and otherwise
    where it is below `plan_cost` of the system's cached `direct_plan`,
    which the enumeration, where it wins, then runs.  So it refuses exactly
    the jobs, with the same message, that taking the closed form wherever
    it is below m N^d would refuse."""
    if not homogeneous:
        return False
    N = sys.p**n
    enumeration = sys.m * N**sys.d
    if closed_ops >= enumeration:
        return False
    if closed_ops <= N or N > MAX_DOMAIN_SIZE or enumeration > resolve_budget(budget):
        return True
    return closed_ops < plan_cost(sys.direct_plan, domain(sys.p, n))


def _price_matches(sys: LinearFormSystem, n: int, width: int, homogeneous: bool,
                   budget: int | None, weighted: bool = False) -> bool:
    """Whether a count (`_factor_matches`), or with `weighted` an average
    (`verify_bound1`), of the system's forms over F_p^n takes its closed form
    on a width x width form (`_use_gauss`), refused over budget on the path
    it takes, the closed form's or the direct side's, before anything is
    built."""
    m, d, p = sys.m, len(sys.pivots), sys.p
    if _use_gauss(homogeneous, quadratic_zero_op_count(m, d, width, p, weighted),
                  sys, n, budget):
        _check_gauss_budget(m, d, width, p, budget, weighted)
        return True
    _check_average_budget(sys, domain(p, n), False, budget)
    return False


def _homogeneous(factor: QuadraticFactor, *targets: np.ndarray) -> bool:
    """Whether a factor count is of one form q(x) = x^T M x with every
    target and side map in `targets` zero, the case with a closed form."""
    return (factor.d2 == 1 and not factor.gamma2.forms[0].b.any()
            and not any(t.any() for t in targets))


def _gauss_count(sys: LinearFormSystem, form: np.ndarray, n: int,
                 budget: int | None) -> int:
    """Number of x in (F_p^n)^d with z^T form z = 0 at z = L_i(x) for every
    form of the system, in closed form (`quadratic_zero_count`).  The forms
    see x only through C' = `sys.cut`, the rank C pivot columns, which are
    independent; the other d - rank C variables are free and give
    p^(n(d - rank C))."""
    p = sys.p
    return p ** (n * (sys.d - len(sys.pivots))) * quadratic_zero_count(
        sys.cut, form, p, budget)


def _zero_density(form: np.ndarray, p: int, budget: int | None) -> Fraction:
    """The share of the y in F_p^w with y^T form y = 0, w the width of the
    form, in closed form: the count of one form in one variable."""
    return Fraction(quadratic_zero_count(np.ones((1, 1), dtype=np.int64), form,
                                         p, budget), p ** len(form))


def _factor_matches(sys: LinearFormSystem, factor: QuadraticFactor,
                    A_t: np.ndarray, B_t: np.ndarray,
                    phi_mats: Optional[Sequence[np.ndarray]],
                    budget: int | None, gauss: bool = False) -> int:
    """Number of assignments x with gamma1(L_i(x)) = a_i and gamma2(L_i(x)) =
    phi_i(x) + b_i for every i: the rows of A_t (m, d1) and B_t (m, d2) are
    the targets, phi_mats the (d2, n*d) side maps (None when all are zero).
    The count is priced by `_price_matches`, whose choice `gauss` is.

    With one form q(x) = x^T M x, zero targets and no side maps, the count
    is in closed form when `_use_gauss` says so, on the pivot columns
    C' = `sys.cut` (`_gauss_count`).  With C' of full column rank,
    gamma1(L_i(x)) = 0 for all i forces gamma1(x_u) = 0 for every
    variable, so x_u = K^T z_u for the basis K of ker gamma1
    (`nullspace`, the identity when d1 = 0), and q(L_i(x)) is the form
    K M K^T at L'_i(z): `quadratic_zero_count` of C' with that form.

    Otherwise, with no side maps, the count is sum_x prod_i h_i(L_i(x)) for
    the 0/1 tables h_i = [atom code = a_i p^d2 + b_i] on G, the product sum
    that `count_solutions` runs: p^(n(d - rank C)) times the sum of the
    system's `direct_plan` over G^(rank C).  With side maps the condition
    reads the assignment itself, so every assignment is enumerated, with the
    unit rows e_u appended to C so that the kernel's images m + u are the
    point indices of the variables x_u, and the atom code of each image
    compared with a_i p^d2 + phi_i(x) + b_i.
    """
    p, n = factor.p, factor.n
    m, d = sys.m, sys.d
    d2 = factor.d2
    if gauss:
        K = nullspace(factor.gamma1, p)
        return _gauss_count(sys, K @ factor.gamma2.forms[0].M @ K.T, n, budget)

    dom = domain(p, n)
    codes = factor.atom_codes(dom)
    targets = _encode(np.concatenate([A_t, B_t], axis=1).T, p, m).tolist()
    # Where phi_i is nonzero, phi_i(x) + b_i is b_i plus one value table per
    # variable with a nonzero block of phi_i, all written in base B, so that
    # their sum never carries and one gather through `decode` (B^d2 entries,
    # built only then) reduces it mod p.
    B = (d + 1) * (p - 1) + 1
    phi_codes = [[(u, _encode((dom.linear_values(row) for row in block), B, dom.size))
                  for u, block in enumerate(np.split(ph, d, axis=1)) if block.any()]
                 for ph in phi_mats] if phi_mats is not None else [[]] * m
    # a form without a side map has a fixed target: gather its hits
    hits = {t: codes == t for t, ph in zip(targets, phi_codes) if not ph}
    if not any(phi_codes):
        return p ** (n * (d - len(sys.pivots))) * _run_passes(
            sys.direct_plan, dom, [hits[t] for t in targets])
    a_codes = _encode(A_t.T, p, m) * p**d2
    b_codes = _encode(B_t.T, B, m)
    cells = np.arange(B**d2, dtype=np.int64)
    decode = _encode((cells // B**j % B % p for j in range(d2 - 1, -1, -1)),
                     p, B**d2)

    def tile_matches(images: np.ndarray) -> int:
        ok = np.ones(images.shape[1:], dtype=bool)
        for i in range(m):
            if phi_codes[i]:
                code = b_codes[i]
                for u, table in phi_codes[i]:
                    code = code + table[images[m + u]]
                ok &= codes[images[i]] == a_codes[i] + decode[code]
            else:
                ok &= hits[targets[i]][images[i]]
        return int(ok.sum())

    with_units = np.concatenate([sys.coeffs, np.eye(d, dtype=np.int64)])
    return sum(reduce_form_images(with_units, dom, tile_matches))


def verify_quadfactor(sys: LinearFormSystem, gamma2: QuadraticMap,
                      phis: Sequence[Optional[np.ndarray]] | None = None,
                      bs: Sequence[Sequence[int]] | None = None,
                      n: int | None = None,
                      budget: int | None = None) -> ExperimentReport:
    """Probability that gamma2(L_i(x)) = phi_i(x) + b_i for all i, against
    p^(-m*d2) with allowance p^(-r/2).

    phi_i are linear maps from the d-variable assignment space to F_p^{d2},
    given as (d2, n*d) matrices (None means the zero map); b_i are targets.
    The count is `_factor_matches` of the factor with no linear part.
    """
    _require_square_independent(sys)
    p = sys.p
    if gamma2.d2 and n is None:
        n = gamma2.forms[0].n
    if n is None:
        raise ValueError("dimension n required when gamma2 is empty")
    if gamma2.d2 and n != gamma2.forms[0].n:
        raise ValueError(f"n = {n} does not match the forms' dimension {gamma2.forms[0].n}")
    d2 = gamma2.d2
    m, d = sys.m, sys.d
    if phis is None:
        phis = [None] * m
    if bs is None:
        bs = [[0] * d2 for _ in range(m)]
    phi_mats = []
    for ph in phis:
        if ph is None:
            phi_mats.append(np.zeros((d2, n * d), dtype=np.int64))
        else:
            ph = np.asarray(ph, dtype=np.int64) % p
            if ph.shape != (d2, n * d):
                raise ValueError(f"phi must have shape ({d2}, {n * d})")
            phi_mats.append(ph)
    b_arr = np.asarray(bs, dtype=np.int64).reshape(m, d2) % p if d2 else \
        np.zeros((m, 0), dtype=np.int64)
    factor = QuadraticFactor(p=p, n=n, gamma1=np.zeros((0, n), dtype=np.int64),
                             gamma2=gamma2)
    gauss = _price_matches(sys, n, n, _homogeneous(factor, b_arr, *phi_mats), budget)
    return _quadfactor(factor, b_arr, phi_mats, sys, gauss, budget)


def _quadfactor(factor: QuadraticFactor, B_t: np.ndarray,
                phi_mats: Optional[Sequence[np.ndarray]], sys: LinearFormSystem,
                gauss: bool, budget: int | None) -> ExperimentReport:
    p, n, d2 = factor.p, factor.n, factor.d2
    m, d = sys.m, sys.d
    matches = _factor_matches(sys, factor, np.zeros((m, 0), dtype=np.int64),
                              B_t, phi_mats, budget, gauss)
    P = Fraction(matches, p ** (n * d))
    r = factor_rank(factor.gamma2, p) if d2 else None
    ref = Fraction(1, p ** (m * d2))
    dev = abs(P - ref)
    rep = ExperimentReport(
        name="quadfactor",
        parameters={"p": p, "n": n, "m": m, "d": d, "d2": d2,
                    "system": sys.name or "custom", "rank": r},
        observed={"probability": float(P), "probability_exact": str(P),
                  "reference": float(ref), "deviation": float(dev)})
    _add_deviation_check(rep, dev, p, 0, r, _PROBABILITY_CHECKS)
    return rep


def verify_completefactor(sys: LinearFormSystem, factor: QuadraticFactor,
                          a_targets: Sequence[Sequence[int]],
                          b_targets: Sequence[Sequence[int]],
                          budget: int | None = None) -> ExperimentReport:
    """Joint linear+quadratic factor equidistribution along the system.

    The linear targets (a_1, ..., a_m) are first classified against the
    subspace Z of sequences compatible with the linear relations among the
    forms: outside Z the probability is exactly zero; inside Z it must be
    within p^(d1 - d'*d1 - r/2) of p^(-d1*d' - d2*m).  The count is
    `_factor_matches`.
    """
    _require_square_independent(sys)
    p, m = factor.p, sys.m
    d1, d2 = factor.d1, factor.d2
    A_t = np.asarray(a_targets, dtype=np.int64).reshape(m, d1) % p if d1 else \
        np.zeros((m, 0), dtype=np.int64)
    B_t = np.asarray(b_targets, dtype=np.int64).reshape(m, d2) % p if d2 else \
        np.zeros((m, 0), dtype=np.int64)
    gauss = _price_matches(sys, factor.n, factor.n - d1,
                           _homogeneous(factor, A_t, B_t), budget)
    return _completefactor(factor, A_t, B_t, sys, gauss, budget)


def _completefactor(factor: QuadraticFactor, A_t: np.ndarray, B_t: np.ndarray,
                    sys: LinearFormSystem, gauss: bool,
                    budget: int | None) -> ExperimentReport:
    p, n = factor.p, factor.n
    m, d = sys.m, sys.d
    d1, d2 = factor.d1, factor.d2
    in_Z = not ((sys.relations.basis @ A_t) % p).any() if d1 else True
    matches = _factor_matches(sys, factor, A_t, B_t, None, budget, gauss)
    P = Fraction(matches, p ** (n * d))
    d_prime = len(sys.pivots)
    r = factor_rank(factor.gamma2, p) if d2 else None
    rep = ExperimentReport(
        name="completefactor",
        parameters={"p": p, "n": n, "m": m, "d": d, "d1": d1, "d2": d2,
                    "d_prime": d_prime, "system": sys.name or "custom",
                    "rank": r, "targets_in_Z": in_Z},
        observed={"probability": float(P), "probability_exact": str(P)})
    if not in_Z:
        rep.add_check("probability_zero_outside_Z", float(P), 0.0, "==",
                      exact_verdict=(P == 0))
        return rep
    ref = Fraction(1, p ** (d1 * d_prime + d2 * m))
    dev = abs(P - ref)
    rep.observed.update({"reference": float(ref), "deviation": float(dev)})
    _add_deviation_check(rep, dev, p, 2 * (d1 - d_prime * d1), r, _PROBABILITY_CHECKS)
    return rep


# ---------------------------------------------------------------------------
# Projections onto factors.

def project_linear(f: GroupFunction, factor: QuadraticFactor) -> GroupFunction:
    """Average f over the fibers of gamma1 (conditional expectation)."""
    dom = f.domain
    codes = factor.linear_codes(dom)
    cells = factor.p**factor.d1
    sums = np.bincount(codes, weights=f.values.real, minlength=cells) + \
        1j * np.bincount(codes, weights=f.values.imag, minlength=cells)
    means = sums * (cells / dom.size)
    return GroupFunction(domain=dom, values=means[codes])


def _atom_means(f: GroupFunction,
                factor: QuadraticFactor) -> tuple[np.ndarray, np.ndarray]:
    """(atom code of every point, mean of f on every atom), the mean of an
    empty atom being 0."""
    codes = factor.atom_codes(f.domain)
    cells = factor.p ** (factor.d1 + factor.d2)
    counts = np.bincount(codes, minlength=cells)
    sums = np.bincount(codes, weights=f.values.real, minlength=cells) + \
        1j * np.bincount(codes, weights=f.values.imag, minlength=cells)
    return codes, sums / np.maximum(counts, 1)


def project_atoms(f: GroupFunction, factor: QuadraticFactor) -> GroupFunction:
    """Average f over the atoms of the full factor; empty atoms never occur
    in the output because values are read back through the atom codes."""
    codes, means = _atom_means(f, factor)
    return GroupFunction(domain=f.domain, values=means[codes])


def _price_projections(dom: GroupDomain, budget: int | None, d1: int = 0) -> tuple:
    """Refuse `verify_projection_lemmas` on dom over budget (three fast U^2
    norms), then a factor of d1 > n linear parts; nothing to choose."""
    check_budget(3 * uk_norm_fast_op_count(dom, 2), budget,
                 what=f"projection lemmas on size {dom.size}")
    _check_d1(d1, dom.n)
    return ()


def verify_projection_lemmas(f: GroupFunction, factor: QuadraticFactor,
                             budget: int | None = None) -> ExperimentReport:
    """Checks for g = E(f|linear factor) and f1 = E(f|atoms):

    - exact Pythagoras: U2(f)^4 = U2(g)^4 + U2(f-g)^4,
    - projection shrinks U2: U2(g) <= U2(f),
    - fiber-constant L2 bound: L2(g)^4 <= p^d1 * U2(g)^4,
    - mean preservation: E f1 = E f.

    The budget, three fast U^2 norms, is checked before any table is built.
    """
    _price_projections(f.domain, budget)
    return _projections(f, factor)


def _projections(f: GroupFunction, factor: QuadraticFactor) -> ExperimentReport:
    dom = f.domain
    g = project_linear(f, factor)
    f1 = project_atoms(f, factor)
    diff = GroupFunction(domain=dom, values=f.values - g.values)
    u2_f = u2_norm_fast(f)
    u2_g = u2_norm_fast(g)
    u2_diff = u2_norm_fast(diff)
    l2_g = l2_norm(g)
    rep = ExperimentReport(
        name="projections",
        parameters={"p": factor.p, "n": factor.n, "d1": factor.d1,
                    "d2": factor.d2},
        observed={"u2_f": u2_f, "u2_projection": u2_g, "u2_remainder": u2_diff,
                  "l2_projection": l2_g,
                  "mean_f": f.mean().real, "mean_atoms": f1.mean().real})
    rep.add_check("u2_pythagoras", u2_f**4, u2_g**4 + u2_diff**4, "==", FLOAT_SLACK)
    rep.add_check("projection_shrinks_u2", u2_g, u2_f, "<=", FLOAT_SLACK)
    rep.add_check("l2_le_scaled_u2", l2_g**4, factor.p**factor.d1 * u2_g**4,
                  "<=", FLOAT_SLACK)
    rep.add_check("atom_projection_preserves_mean",
                  abs(f1.mean() - f.mean()), 0.0, "==", 1e-12)
    return rep


# ---------------------------------------------------------------------------
# Structured-part product bound and the U^3 Pythagorean identity.

def verify_bound1(f: GroupFunction, factor: QuadraticFactor,
                  sys: LinearFormSystem, budget: int | None = None) -> ExperimentReport:
    """E prod_i f1(L_i(x)) for the atom projection f1 of a bounded f, against
    4^m * c * p^(d1/4) + 2^(m+1) * p^(m(d1+d2) - r/2) with c = U2(f).

    When the factor is one homogeneous form q(x) = x^T M x (b = 0, d1 = 0),
    f1 = g o q with g the per-atom mean, and the average is taken in closed
    form when `_use_gauss` says so: `counting.quadratic_average` of the
    system's pivot cut (the other variables drop out of an average) with
    g for every form.  Otherwise the average runs on the system's direct
    plan (`average_product_direct`).  `_price_bound1` makes that choice and
    prices it, after the precondition and the U^2 norm's price.
    """
    homogeneous = factor.d1 == 0 and _homogeneous(factor)
    return _bound1(f, factor, sys, _price_bound1(sys, factor.n, homogeneous, budget),
                   budget)


def _price_bound1(sys: LinearFormSystem, n: int, homogeneous: bool,
                  budget: int | None) -> bool:
    """The precondition of `verify_bound1` on F_p^n, the price of its fast
    U^2 norm and whether its average takes the closed form, priced on the
    path it takes, before the set or the atoms are built."""
    _require_square_independent(sys)
    _check_fast_budget(domain(sys.p, n), 2, budget)
    return _price_matches(sys, n, n, homogeneous, budget, weighted=True)


def _bound1(f: GroupFunction, factor: QuadraticFactor, sys: LinearFormSystem,
            gauss: bool, budget: int | None) -> ExperimentReport:
    if f.linf() > 1 + 1e-12:
        raise ValueError("function exceeds the unit sup-norm bound")
    p, m = factor.p, sys.m
    c = uk_norm_fast(f, 2, budget=budget)
    codes, means = _atom_means(f, factor)
    if gauss:
        average = quadratic_average(sys.cut, factor.gamma2.forms[0].M, p,
                                    np.tile(means, (m, 1)), budget)
    else:
        f1 = GroupFunction(domain=f.domain, values=means[codes])
        average = average_product_direct(sys, [f1] * m, budget=budget)
    observed = average.real
    r = factor_rank(factor.gamma2, p) if factor.d2 else None
    tail = 0.0 if r is None else 2 ** (m + 1) * p ** (m * (factor.d1 + factor.d2) - r / 2)
    bound = 4**m * c * p ** (factor.d1 / 4) + tail
    rep = ExperimentReport(
        name="bound1",
        parameters={"p": p, "n": factor.n, "m": m, "d1": factor.d1,
                    "d2": factor.d2, "system": sys.name or "custom", "rank": r},
        observed={"average": observed, "u2_norm": c, "bound": bound})
    rep.add_check("structured_average_le_bound", observed, bound, "<=", FLOAT_SLACK)
    return rep


def random_factor(p: int, n: int, d1: int, d2: int,
                  rng: np.random.Generator) -> QuadraticFactor:
    """Random factor: full-rank linear part, random symmetric quadratic part."""
    _check_d1(d1, n)
    while True:
        G1 = rng.integers(0, p, size=(d1, n))
        if d1 == 0 or rank(G1, p) == d1:
            break
    forms = []
    for _ in range(d2):
        M = rng.integers(0, p, size=(n, n))
        M = (M + M.T) % p
        b = rng.integers(0, p, size=n)
        forms.append(QuadraticForm(p=p, M=M, b=b))
    return QuadraticFactor(p=p, n=n, gamma1=G1, gamma2=QuadraticMap(forms=tuple(forms)))


def verify_pythagoras(f: GroupFunction, a: float,
                      budget: int | None = None) -> ExperimentReport:
    """Gap in U3(a+f)^8 = a^8 + U3(f)^8 for mean-zero f with a+f bounded.

    The allowance 24*c (c the measured U2 norm of f) is a derived tolerance
    from counting the cross terms of the 2^8-fold expansion, each an average
    over a square-independent configuration controlled by the U2 norm; it is
    flagged as derived in the report.
    """
    if abs(f.mean()) > 1e-9:
        raise ValueError("f must have mean zero")
    g = f.shifted(a)
    if g.linf() > 1 + 1e-12:
        raise ValueError("a + f must stay within the unit sup-norm bound")
    lhs = uk_norm_fast(g, 3, budget=budget) ** 8
    rhs = a**8 + uk_norm_fast(f, 3, budget=budget) ** 8
    gap = abs(lhs - rhs)
    c = u2_norm_fast(f)
    rep = ExperimentReport(
        name="pythagoras",
        parameters={"p": f.domain.p, "n": f.domain.n, "a": a},
        observed={"lhs_power": lhs, "rhs_power": rhs, "gap": gap, "u2_norm": c})
    rep.add_check("gap_le_24_u2", gap, 24 * c, "<=", FLOAT_SLACK,
                  derived_tolerance=True)
    return rep




# ---------------------------------------------------------------------------
# Configuration counts: the records of the `count` command.

COUNT_METHODS = {"direct": ("direct",), "dual": ("dual",),
                 "both": ("direct", "dual"), "gauss": ("gauss",),
                 "all": ("direct", "dual", "gauss")}

_DEGENERATE = ("--degenerate needs the direct count of an indicator set "
               "(--method direct, both or all)")


def _cx(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _probability(name, count, total, alpha, m, method, op_count,
                 degenerate=None) -> dict:
    """The record of P = count / total against alpha^m; `degenerate`, the
    solutions with two coinciding form images, adds their fraction of the
    count."""
    observed = Fraction(count, total)
    reference = alpha**m
    record = {"name": name, "observed": _cx(float(observed)),
              "reference": _cx(float(reference)),
              "deviation": abs(float(observed) - float(reference)),
              "bound": None, "method": method, "op_count": op_count,
              "observed_exact": str(observed), "reference_exact": str(reference),
              "passed": None}
    if degenerate is not None:
        record["degenerate_fraction"] = \
            float(Fraction(degenerate, count)) if count else 0.0
    return record


def _price_count(c) -> tuple:
    """(system, methods, config) of `count`, or its refusal: a bad option,
    then each method on the quadzero set over budget, before the set is
    built.  A file's domain comes with it, so the kernels price its counts."""
    sys = resolve_system(c.system, c.p)
    methods = COUNT_METHODS[c.method]
    if "gauss" in methods and c.set_name != "quadzero":
        raise ValueError("--method gauss and all count --set quadzero only")
    if not c.set_name:
        raise ValueError("provide --set quadzero or a function/indicator file")
    if c.degenerate and "direct" not in methods:
        raise ValueError(_DEGENERATE)
    if c.set_name == "quadzero":
        if "gauss" in methods:
            _check_gauss_budget(sys.m, len(sys.pivots), c.n, c.p, c.budget)
        for method in ("direct", "dual"):
            if method in methods:
                _check_average_budget(sys, domain(c.p, c.n), method == "dual",
                                      c.budget)
    return sys, methods, c


def _build_count(c, rng, plan) -> tuple:
    """The counted function or set: a file's, else the quadzero set, which
    the closed form alone does not build."""
    if c.set_name != "quadzero":
        obj = load_function(c.set_name)
    else:
        obj = quadratic_zero_set(c.p, c.n) if plan[1] != ("gauss",) else None
    if c.degenerate and not isinstance(obj, IndicatorSet):
        raise ValueError(_DEGENERATE)
    return (obj,)


def _run_count(obj, sys: LinearFormSystem, methods: tuple, c) -> list[dict]:
    """The records of each method, of the direct-vs-dual gap and of the
    gauss-vs-direct match."""
    results = []
    indicator = isinstance(obj, IndicatorSet)
    fs = [obj.to_function() if indicator else obj] * sys.m
    if "direct" in methods:
        if indicator:
            dom = obj.domain
            count, degenerate = count_solutions(sys, obj, budget=c.budget,
                                                with_degenerate=c.degenerate)
            results.append(_probability(
                "solution_probability", count, dom.size**sys.d, obj.density,
                sys.m, "direct", direct_op_count(sys, dom), degenerate))
            # 0/1 products sum exactly: the average is count / N^d
            direct = complex(results[-1]["observed"]["re"])
        else:
            direct = average_product_direct(sys, fs, budget=c.budget)
        results.append({"name": "average_direct", "value": _cx(direct),
                        "passed": None})
    if "dual" in methods:
        dual = average_product_dual(sys, fs, budget=c.budget)
        results.append({"name": "average_dual", "value": _cx(dual), "passed": None})
        if "direct" in methods:
            gap = abs(direct - dual)
            results.append({"name": "direct_vs_dual", "gap": gap,
                            "tolerance": c.tolerance,
                            "passed": bool(gap <= c.tolerance)})
    if "gauss" in methods:
        # the count and alpha (the m = d = 1 count over p^n) by the closed
        # form: no domain is built and n may be any size
        p, n, dot = sys.p, c.n, np.eye(c.n, dtype=np.int64)
        count = _gauss_count(sys, dot, n, c.budget)
        results.append(_probability(
            "solution_probability_gauss", count, p ** (n * sys.d),
            _zero_density(dot, p, c.budget), sys.m, "gauss",
            quadratic_zero_op_count(sys.m, len(sys.pivots), n, p)))
        if "direct" in methods:
            same = results[-1]["observed_exact"] == results[0]["observed_exact"]
            results.append({"name": "gauss_vs_direct", "exact_match": same,
                            "passed": same})
    return results


# ---------------------------------------------------------------------------
# Priced jobs: price, build, run.

# One priced job: `price(config)` refuses it or returns its plan, a tuple of
# the path choices and what the run reads of the config; `build(config, rng,
# plan)` draws (from the generator `rng()`) or builds its inputs, a tuple;
# `run(*inputs, *plan)` returns its report without pricing again.
Entry = namedtuple("Entry", "price build run")


class DefaultSystemError(ValueError):
    """An experiment's default system is invalid at the job's modulus."""


def drive(names: Sequence[str], config, skip: bool = False) -> list:
    """The reports of the entries `names` on `config`, the parsed options.
    Every entry is priced, in order, before the first is built, so that any
    refusal comes before an allocation; then each is built and run in
    order, drawing from one generator seeded with `config.seed`, made on the
    first draw (most jobs draw nothing).  With `skip`, an entry whose default
    system is invalid at p gives that DefaultSystemError in place of its
    report; otherwise the error is raised."""
    plans = []
    for name in names:
        try:
            plans.append((ENTRIES[name], ENTRIES[name].price(config)))
        except DefaultSystemError as exc:
            if not skip:
                raise
            plans.append((None, exc))
    rng = cache(lambda: np.random.default_rng(config.seed))
    return [plan if entry is None else entry.run(*entry.build(config, rng, plan), *plan)
            for entry, plan in plans]


def _system(c, default: str) -> LinearFormSystem:
    """The --system system, else the experiment's default one."""
    p = check_modulus(c.p)
    if c.system:
        return resolve_system(c.system, p)
    try:
        return resolve_system(default, p)
    except ValueError as exc:
        raise DefaultSystemError(f"default system {default} is invalid at p = {p} "
                                 f"({exc}); choose another with --system") from exc


def _price_factor(c, default: str, d1: int = 0, independent: bool = True) -> tuple:
    """(system, closed form or not, budget) of a dot-factor count (`_price_matches`)."""
    sys = _system(c, default)
    _check_d1(d1, c.n)
    if independent:
        _require_square_independent(sys)
    return sys, _price_matches(sys, c.n, c.n - d1, True, c.budget), c.budget


def _price_pythagoras(c) -> tuple:
    _check_fast_budget(domain(check_modulus(c.p), c.n), 3, c.budget)
    return (c.budget,)


def _price_norm(c) -> tuple:
    """(k, fast, budget) of `norm`, or its refusal: a missing input, k < 2,
    then the quadzero set's norm over budget, before the set is built.  A
    file's domain comes with it, so the kernel prices its norm."""
    if not c.function and c.set_name != "quadzero":
        raise ValueError("provide --function FILE or --set quadzero")
    _check_k(c.k)
    fast = c.method == "fast"
    if not c.function:
        check = _check_fast_budget if fast else _check_direct_budget
        check(domain(c.p, c.n), c.k, c.budget)
    return c.k, fast, c.budget


def _build_norm(c, rng, plan) -> tuple:
    obj = load_function(c.function) if c.function else quadratic_zero_set(c.p, c.n)
    if isinstance(obj, IndicatorSet):
        obj = balanced(obj) if c.balanced else obj.to_function()
    elif c.balanced:
        obj = obj.shifted(-obj.mean())
    return (obj,)


def _run_norm(f: GroupFunction, k: int, fast: bool, budget: int | None) -> dict:
    value = (uk_norm_fast if fast else uk_norm)(f, k, budget=budget)
    return {"name": f"U{k}_norm", "norm": f"U{k}", "value": value,
            "method": "fourier" if fast else "direct",
            "domain": {"p": f.domain.p, "n": f.domain.n}, "passed": None}


def _price_lift(c) -> tuple:
    _check_octahedral_budget((domain(c.p, c.n).size,) * 3, c.budget)
    return (c.budget,)


def _run_lift(g: GroupFunction, F, budget: int | None) -> dict:
    octahedral = octahedral_norm(F, budget=budget)
    direct = uk_norm(g, 3, budget=budget)
    gap = abs(octahedral - direct)
    return {"name": "lift_identity", "octahedral": octahedral, "u3": direct,
            "gap": gap, "passed": bool(gap <= 1e-9)}


def _draw(c, rng) -> GroupFunction:
    return random_bounded_function(domain(c.p, c.n), rng())


# name -> Entry: the verify experiments' entries, in the order `verify all`
# runs them, then `norm`, `count` and `octahedron --check lift`
ENTRIES = {
    "gauss": Entry(
        lambda c: _price_points(check_modulus(c.p), c.n, c.budget, "Gauss sum"),
        lambda c, rng, plan: (dot_factor(c.p, c.n).gamma2.forms[0],),
        _gauss_report),
    "quadzero": Entry(
        lambda c: _price_points(check_modulus(c.p), c.n, c.budget,
                                "quadratic zero set"),
        lambda c, rng, plan: (c.p, c.n),
        quadratic_zero_set_report),
    "badex": Entry(
        lambda c: _price_factor(c, "gw6a", independent=False),
        lambda c, rng, plan: (dot_factor(c.p, c.n),),
        _badex),
    "gvn": Entry(
        lambda c: (sys := _system(c, "ap3"),
                   *_price_gvn(sys, domain(c.p, c.n), c.k, c.budget), c.budget),
        lambda c, rng, plan: ([_draw(c, rng) for _ in range(plan[0].m)],),
        _gvn),
    "atoms": Entry(
        lambda c: (_price_atoms(check_modulus(c.p), c.n, c.d1, c.d2, c.budget),),
        lambda c, rng, plan: (random_factor(c.p, c.n, c.d1, c.d2, rng()),),
        _atoms),
    "quadfactor": Entry(
        lambda c: _price_factor(c, "gw6b"),
        lambda c, rng, plan: (dot_factor(c.p, c.n),
                              np.zeros((plan[0].m, 1), dtype=np.int64), None),
        _quadfactor),
    "completefactor": Entry(
        lambda c: _price_factor(c, "gw6b", c.d1),
        lambda c, rng, plan: (dot_factor(c.p, c.n, c.d1),
                              np.zeros((plan[0].m, c.d1), dtype=np.int64),
                              np.zeros((plan[0].m, 1), dtype=np.int64)),
        _completefactor),
    "projections": Entry(
        lambda c: _price_projections(domain(check_modulus(c.p), c.n), c.budget, c.d1),
        lambda c, rng, plan: (_draw(c, rng),
                              random_factor(c.p, c.n, c.d1, c.d2, rng())),
        _projections),
    "bound1": Entry(
        lambda c: (sys := _system(c, "gw6b"),
                   _price_bound1(sys, c.n, True, c.budget), c.budget),
        lambda c, rng, plan: (balanced(quadratic_zero_set(c.p, c.n)),
                              dot_factor(c.p, c.n)),
        _bound1),
    "pythagoras": Entry(
        _price_pythagoras,
        lambda c, rng, plan: (balanced(quadratic_zero_set(c.p, c.n)).scaled(0.5), 0.5),
        # the run is the public function, looked up at call time, so that
        # perfbench's span tracer, which wraps module attributes, sees it
        lambda f, a, budget: verify_pythagoras(f, a, budget)),
    "norm": Entry(_price_norm, _build_norm, _run_norm),
    "count": Entry(_price_count, _build_count, _run_count),
    "lift": Entry(_price_lift, lambda c, rng, plan: (g := _draw(c, rng), lift(g)),
                  _run_lift),
}

# the entries each `verify` experiment runs; `all` runs every one
EXPERIMENTS = {"gauss": ("gauss", "quadzero"),
               **{name: (name,) for name in ("badex", "gvn", "atoms", "quadfactor",
                                             "completefactor", "projections",
                                             "bound1", "pythagoras")}}
EXPERIMENTS["all"] = tuple(chain.from_iterable(EXPERIMENTS.values()))
