"""Numerical verification of the package's quantitative statements.

Each operation here checks one inequality or identity: Gauss sum moduli,
the quadratic zero-set dichotomy for square-(in)dependent systems, the
generalized von Neumann inequality, equidistribution of quadratic-factor
atoms, the projection lemmas for linear factors, the structured-part product
bound, and the U^3 Pythagorean identity.  Results come back as
ExperimentReports whose pass/fail verdicts are recomputed from the stored
numbers, never cached.

Bounds of the form p^(-r/2) are irrational; whenever the observed deviation
is an exact rational, the comparison deviation <= p^(e - r/2) is performed
exactly by squaring both sides (deviation^2 <= p^(2e - r)), alongside the
floating-point record.  The atom histogram and the quadfactor and
completefactor checks share one such verdict, `_add_deviation_check`: a
factor with no quadratic part must deviate by exactly 0, one of factor rank
r by at most p^(e - r/2).

The zero-set dichotomy (badex) and the quadfactor and completefactor checks
are one count, `_factor_matches`: the assignments whose form images all land
in given atoms of a quadratic factor, badex being the factor x -> x.x
(`dot_factor`) with zero targets.  It makes the one path decision,
`_use_gauss`: with one homogeneous form and zero targets it counts in closed
form (`counting.quadratic_zero_count`) when that is estimated cheaper than
enumerating the p^(nd) assignments, and otherwise, with no side maps, on the
direct side's elimination plan (`counting._run_passes`); both paths give the
same integer and so byte-identical reports.  `verify_bound1` makes the same decision for its
average of the atom projection along the system when the factor is one
homogeneous form with no linear part (`counting.quadratic_average`); that
path is a float sum, so its average agrees with enumeration to rounding.

`verify_gvn` and `verify_pythagoras` take their U^k norms through the
transform (`functions.uk_norm_fast`), and `verify_gvn` its average on the
direct or the dual side, whichever enumerates fewer tuples.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (QuadraticForm, as_fp_matrix, batched_rank_class,
                      nullspace, rank)
from .budget import check_budget
from .counting import (_check_average_budget, _check_inputs, _class_forms,
                       _run_passes, average_product_direct,
                       average_product_dual, direct_op_count, dual_op_count,
                       quadratic_average, quadratic_zero_count,
                       quadratic_zero_op_count, reduce_form_images)
from .domains import GroupDomain, domain
from .functions import (GroupFunction, IndicatorSet, l2_norm, omega_power,
                        u2_norm_fast, uk_norm_fast, uk_norm_fast_op_count)
from .systems import (INFINITE, LinearFormSystem, cs_complexity,
                      maximal_square_independent_subsystem, power_independence)

FLOAT_SLACK = 1e-9


class SquareDependenceError(ValueError):
    """The operation requires a square-independent system."""


class ComplexityPreconditionError(ValueError):
    """The system's partition complexity exceeds the allowed degree."""


@dataclass(frozen=True)
class Check:
    """One comparison; `passed` is derived from the stored numbers."""

    name: str
    lhs: float
    rhs: float
    relation: str = "<="  # "<=" or "=="
    tolerance: float = FLOAT_SLACK
    derived_tolerance: bool = False
    exact_verdict: Optional[bool] = None  # from an exact rational comparison

    @property
    def passed(self) -> bool:
        if self.exact_verdict is not None:
            return self.exact_verdict
        if self.relation == "<=":
            return self.lhs <= self.rhs + self.tolerance
        if self.relation == "==":
            return abs(self.lhs - self.rhs) <= self.tolerance
        raise ValueError(f"unknown relation {self.relation!r}")

    def to_dict(self) -> dict:
        out = {"name": self.name, "lhs": float(self.lhs), "rhs": float(self.rhs),
               "relation": self.relation, "tolerance": float(self.tolerance),
               "passed": bool(self.passed)}
        if self.derived_tolerance:
            out["derived_tolerance"] = True
        if self.exact_verdict is not None:
            out["exact_verdict"] = bool(self.exact_verdict)
        return out


@dataclass
class ExperimentReport:
    name: str
    parameters: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_check(self, *args, **kwargs) -> Check:
        c = Check(*args, **kwargs)
        self.checks.append(c)
        return c

    def to_dict(self) -> dict:
        return {"name": self.name,
                "parameters": self.parameters,
                "observed": self.observed,
                "checks": [c.to_dict() for c in self.checks],
                "passed": self.passed}


def _exact_power_bound(dev: Fraction, p: int, two_exponent: int) -> bool:
    """dev <= p^(two_exponent / 2), compared exactly via dev^2 <= p^two_exponent."""
    if two_exponent >= 0:
        bound_sq = Fraction(p**two_exponent)
    else:
        bound_sq = Fraction(1, p**(-two_exponent))
    return dev * dev <= bound_sq


def _add_deviation_check(rep: ExperimentReport, dev: Fraction, p: int,
                         two_exponent: int, r: int | None) -> None:
    """The verdict of a quadratic-factor count: with no quadratic part (r is
    None) the deviation is exactly 0; with factor rank r it is at most
    p^((two_exponent - r) / 2), compared exactly.  Records the bound (0 for
    no quadratic part) as observed."""
    exact, bounded = (("atoms_exactly_uniform", "atom_deviation_le_bound")
                      if rep.name == "atoms" else
                      ("probability_exact_reference", "deviation_le_bound"))
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


def gauss_sum_report(q: QuadraticForm, budget: int | None = None) -> ExperimentReport:
    """Modulus of the Gauss sum against p^(-rank/2), equality when b = 0."""
    check_budget(domain(q.p, q.n).size, budget,
                 what=f"Gauss sum over {q.p}^{q.n} points")
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


def quadratic_zero_set_report(p: int, n: int,
                              budget: int | None = None) -> ExperimentReport:
    check_budget(domain(p, n).size, budget,
                 what=f"quadratic zero set over {p}^{n} points")
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

def verify_badex(sys: LinearFormSystem, n: int, budget: int | None = None,
                 threads: int = 1) -> ExperimentReport:
    """Solution probability of the quadratic zero set under the system.

    Square-independent systems must land within p^(-n/2) of p^(-m); a
    square-dependent system with maximal independent subsystem of size l < m
    must overshoot: P >= p^(-l) - p^(-n/2), an excess over density^m.

    The count is `_factor_matches` of the factor x -> x.x with zero targets;
    the density is the closed-form count of one form in one variable over
    p^n, so the zero set is never built.
    """
    p = sys.p
    factor = dot_factor(p, n)
    count = _factor_matches(sys, factor, np.zeros((sys.m, 0), dtype=np.int64),
                            np.zeros((sys.m, 1), dtype=np.int64), None, budget,
                            threads)
    alpha = Fraction(quadratic_zero_count(np.ones((1, 1), dtype=np.int64),
                                          factor.gamma2.forms[0].M, p, budget), p**n)
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

def verify_gvn(sys: LinearFormSystem, fs: Sequence[GroupFunction],
               k: int | None = None, budget: int | None = None,
               threads: int = 1) -> ExperimentReport:
    """|E prod_i f_i(L_i(x))| <= min_i U^(k+1)(f_i) for bounded f_i, provided
    the system's partition complexity is at most k; k = None takes that
    complexity itself, and refuses an infinite one (two parallel forms).

    The norms are the fast U^(k+1) norms (`uk_norm_fast`); the direct cube
    sum `uk_norm` stays the suite's cross-check.  The average sums over the
    dual's frequency tuples (`average_product_dual`) when its operation count
    is below that of the direct sum over assignments, and over the
    assignments otherwise, ties included.  Both run on the same kernel, so
    the two counts compare alike.  The average is priced on the path that
    runs and taken after the norms, so every refusal comes before it.  The U^2
    norms and a dual average read the transform each function keeps."""
    actual = cs_complexity(sys)
    if k is None:
        if actual == INFINITE:
            raise ComplexityPreconditionError(
                "system has infinite partition complexity (two parallel "
                "forms): no U^k norm controls its average")
        k = int(actual)
    if not actual <= k:
        raise ComplexityPreconditionError(
            f"system has partition complexity {actual}, need <= {k}")
    for i, f in enumerate(fs):
        if f.linf() > 1 + 1e-12:
            raise ValueError(f"function {i} exceeds the unit sup-norm bound")
    dom = _check_inputs(sys, fs)
    dual = dual_op_count(sys, dom) < direct_op_count(sys, dom)
    _check_average_budget(sys, dom, dual, budget)
    norms = [uk_norm_fast(f, k + 1, budget=budget) for f in fs]
    average = average_product_dual if dual else average_product_direct
    lhs = abs(average(sys, fs, budget=budget, threads=threads))
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


def dot_factor(p: int, n: int, d1: int = 0) -> QuadraticFactor:
    """The factor of F_p^n cut out by the first d1 coordinates and x -> x.x."""
    if d1 > n:
        raise ValueError("d1 cannot exceed n")
    eye = np.eye(n, dtype=np.int64)
    q = QuadraticForm(p=p, M=eye, b=np.zeros(n, dtype=np.int64))
    return QuadraticFactor(p=p, n=n, gamma1=eye[:d1], gamma2=QuadraticMap(forms=(q,)))


def factor_rank(gamma2: QuadraticMap, p: int | None = None) -> int:
    """Minimum rank of a nonzero F_p-combination of the associated symmetric
    bilinear forms, the matrices M of the forms.  A combination and its
    nonzero multiples share a rank, so one combination on each line of F_p^d2
    is eliminated, (p^d2 - 1)/(p - 1) of them (`counting._class_forms`), in
    batches, by the symmetric stack elimination (the ranks of
    `algebra.batched_rank_class`); requires at least one quadratic form."""
    if gamma2.d2 == 0:
        raise ValueError("factor rank needs d2 >= 1")
    p = gamma2.forms[0].p if p is None else p
    mats = np.stack([q.M for q in gamma2.forms])
    return min(int(batched_rank_class(forms, p)[0].min())
               for _, forms in _class_forms(mats, p))


def atom_distribution(factor: QuadraticFactor,
                      budget: int | None = None) -> ExperimentReport:
    """Exact histogram of the atoms; every cell probability must be within
    p^(-r/2) of p^(-d1-d2), r the factor rank."""
    p, n = factor.p, factor.n
    dom = domain(p, n)
    check_budget(dom.size, budget, what=f"atom histogram over {p}^{n} points")
    cells = p ** (factor.d1 + factor.d2)
    counts = np.bincount(factor.atom_codes(dom), minlength=cells)
    r = factor_rank(factor.gamma2, p) if factor.d2 else None
    ref = Fraction(1, cells)
    # |c / N - 1 / cells| = |c cells - N| / (N cells), one Fraction for all
    worst = Fraction(int(np.abs(counts * cells - dom.size).max()), dom.size * cells)
    rep = ExperimentReport(
        name="atoms",
        parameters={"p": p, "n": n, "d1": factor.d1, "d2": factor.d2, "rank": r},
        observed={"cells": cells, "count_min": int(counts.min()),
                  "count_max": int(counts.max()),
                  "worst_deviation": float(worst), "reference": float(ref)})
    _add_deviation_check(rep, worst, p, 0, r)
    return rep


# ---------------------------------------------------------------------------
# Factor equidistribution along a system of forms.

def _require_square_independent(sys: LinearFormSystem) -> None:
    if not power_independence(sys, 1):
        raise SquareDependenceError(
            "operation requires a square-independent system")


def _use_gauss(homogeneous: bool, closed_ops: int, m: int, d: int, p: int,
               n: int) -> bool:
    """Whether a count or average of m forms in d variables over F_p^n takes
    its closed form: only for homogeneous inputs, and only when the closed
    form's operation estimate `closed_ops` (priced on the rank C pivot
    columns it runs on) is below that of enumerating the p^(nd) assignments,
    m p^(nd)."""
    return homogeneous and closed_ops < m * p ** (n * d)


def _factor_matches(sys: LinearFormSystem, factor: QuadraticFactor,
                    A_t: np.ndarray, B_t: np.ndarray,
                    phi_mats: Optional[Sequence[np.ndarray]],
                    budget: int | None, threads: int = 1) -> int:
    """Number of assignments x with gamma1(L_i(x)) = a_i and gamma2(L_i(x)) =
    phi_i(x) + b_i for every i: the rows of A_t (m, d1) and B_t (m, d2) are
    the targets, phi_mats the (d2, n*d) side maps (None when all are zero).

    With one form q(x) = x^T M x, zero targets and no side maps, the count
    is in closed form when `_use_gauss` says so.  The forms see x only
    through C' = `sys.cut`, the pivot columns, which are independent;
    the other d - rank C variables are free and give p^(n(d - rank C)).  With
    C' of full column rank, gamma1(L_i(x)) = 0 for all i forces gamma1(x_u) =
    0 for every variable, so x_u = K^T z_u for the basis K of ker gamma1
    (`nullspace`, the identity when d1 = 0), and q(L_i(x)) is the form
    K M K^T at L'_i(z): `quadratic_zero_count` of C' with that form.

    Otherwise the budget is checked before any table is built.  With no
    side maps the count is sum_x prod_i h_i(L_i(x)) for the 0/1 tables
    h_i = [atom code = a_i p^d2 + b_i] on G, the product sum that
    `count_solutions` runs: p^(n(d - rank C)) times the sum of
    the system's `direct_plan` over G^(rank C).  With side maps the condition
    reads the assignment itself, so every assignment is enumerated, with the
    unit rows e_u appended to C so that the kernel's images m + u are the
    point indices of the variables x_u, and the atom code of each image
    compared with a_i p^d2 + phi_i(x) + b_i.
    """
    p, n = factor.p, factor.n
    m, d = sys.m, sys.d
    d2 = factor.d2
    homogeneous = (d2 == 1 and not factor.gamma2.forms[0].b.any()
                   and not A_t.any() and not B_t.any()
                   and not any(ph.any() for ph in phi_mats or ()))
    closed_ops = quadratic_zero_op_count(m, len(sys.pivots), n - factor.d1, p)
    if _use_gauss(homogeneous, closed_ops, m, d, p, n):
        K = nullspace(factor.gamma1, p)
        form = K @ factor.gamma2.forms[0].M @ K.T
        return p ** (n * (d - len(sys.pivots))) * quadratic_zero_count(
            sys.cut, form, p, budget)

    dom = domain(p, n)
    check_budget(direct_op_count(sys, dom), budget,
                 what=f"factor count over {dom.size}^{d} assignments")
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
            sys.direct_plan, dom, [hits[t] for t in targets], threads)
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
    return sum(reduce_form_images(with_units, dom, tile_matches, threads=threads))


def verify_quadfactor(sys: LinearFormSystem, gamma2: QuadraticMap,
                      phis: Sequence[Optional[np.ndarray]] | None = None,
                      bs: Sequence[Sequence[int]] | None = None,
                      n: int | None = None,
                      budget: int | None = None,
                      threads: int = 1) -> ExperimentReport:
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
    matches = _factor_matches(sys, factor, np.zeros((m, 0), dtype=np.int64),
                              b_arr, phi_mats, budget, threads)
    P = Fraction(matches, p ** (n * d))
    r = factor_rank(gamma2, p) if d2 else None
    ref = Fraction(1, p ** (m * d2))
    dev = abs(P - ref)
    rep = ExperimentReport(
        name="quadfactor",
        parameters={"p": p, "n": n, "m": m, "d": d, "d2": d2,
                    "system": sys.name or "custom", "rank": r},
        observed={"probability": float(P), "probability_exact": str(P),
                  "reference": float(ref), "deviation": float(dev)})
    _add_deviation_check(rep, dev, p, 0, r)
    return rep


def verify_completefactor(sys: LinearFormSystem, factor: QuadraticFactor,
                          a_targets: Sequence[Sequence[int]],
                          b_targets: Sequence[Sequence[int]],
                          budget: int | None = None,
                          threads: int = 1) -> ExperimentReport:
    """Joint linear+quadratic factor equidistribution along the system.

    The linear targets (a_1, ..., a_m) are first classified against the
    subspace Z of sequences compatible with the linear relations among the
    forms: outside Z the probability is exactly zero; inside Z it must be
    within p^(d1 - d'*d1 - r/2) of p^(-d1*d' - d2*m).  The count is
    `_factor_matches`.
    """
    _require_square_independent(sys)
    p, n = factor.p, factor.n
    m, d = sys.m, sys.d
    d1, d2 = factor.d1, factor.d2
    A_t = np.asarray(a_targets, dtype=np.int64).reshape(m, d1) % p if d1 else \
        np.zeros((m, 0), dtype=np.int64)
    B_t = np.asarray(b_targets, dtype=np.int64).reshape(m, d2) % p if d2 else \
        np.zeros((m, 0), dtype=np.int64)
    in_Z = not ((sys.relations.basis @ A_t) % p).any() if d1 else True

    matches = _factor_matches(sys, factor, A_t, B_t, None, budget, threads)
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
    _add_deviation_check(rep, dev, p, 2 * (d1 - d_prime * d1), r)
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


def verify_projection_lemmas(f: GroupFunction, factor: QuadraticFactor,
                             budget: int | None = None) -> ExperimentReport:
    """Checks for g = E(f|linear factor) and f1 = E(f|atoms):

    - exact Pythagoras: U2(f)^4 = U2(g)^4 + U2(f-g)^4,
    - projection shrinks U2: U2(g) <= U2(f),
    - fiber-constant L2 bound: L2(g)^4 <= p^d1 * U2(g)^4,
    - mean preservation: E f1 = E f.

    The budget, three fast U^2 norms, is checked before any table is built.
    """
    dom = f.domain
    check_budget(3 * uk_norm_fast_op_count(dom, 2), budget,
                 what=f"projection lemmas on size {dom.size}")
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
                  sys: LinearFormSystem, budget: int | None = None,
                  threads: int = 1) -> ExperimentReport:
    """E prod_i f1(L_i(x)) for the atom projection f1 of a bounded f, against
    4^m * c * p^(d1/4) + 2^(m+1) * p^(m(d1+d2) - r/2) with c = U2(f).

    When the factor is one homogeneous form q(x) = x^T M x (b = 0, d1 = 0),
    f1 = g o q with g the per-atom mean, and the average is taken in closed
    form when `_use_gauss` says so: `counting.quadratic_average` of the
    system's pivot cut (the other variables drop out of an average) with
    g for every form.  Otherwise every assignment is enumerated
    (`average_product_direct`).
    """
    _require_square_independent(sys)
    if f.linf() > 1 + 1e-12:
        raise ValueError("function exceeds the unit sup-norm bound")
    p, n = factor.p, factor.n
    m, d = sys.m, sys.d
    c = u2_norm_fast(f)
    codes, means = _atom_means(f, factor)
    homogeneous = (factor.d1 == 0 and factor.d2 == 1
                   and not factor.gamma2.forms[0].b.any())
    closed_ops = quadratic_zero_op_count(m, len(sys.pivots), n, p, weighted=True)
    if _use_gauss(homogeneous, closed_ops, m, d, p, n):
        average = quadratic_average(sys.cut, factor.gamma2.forms[0].M, p,
                                    np.tile(means, (m, 1)), budget)
    else:
        f1 = GroupFunction(domain=f.domain, values=means[codes])
        average = average_product_direct(sys, [f1] * m, budget=budget,
                                         threads=threads)
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
    if d1 > n:
        raise ValueError("d1 cannot exceed n")
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
