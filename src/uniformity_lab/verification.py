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
floating-point record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .algebra import (QuadraticForm, as_fp_matrix, bilinear_of, rank)
from .budget import check_budget
from .counting import (average_product_direct, count_solutions,
                       direct_op_count, reduce_form_images)
from .domains import GroupDomain, domain
from .functions import (GroupFunction, IndicatorSet, omega_power,
                        l2_norm, u2_norm_fast, uk_norm)
from .systems import (LinearFormSystem, cs_complexity,
                      maximal_square_independent_subsystem,
                      power_independence, relation_space, span_dimension)

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
    """The set {x in F_p^n : x.x = 0}; density is within p^(-n/2) of 1/p."""
    dom = domain(p, n)
    dot = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64), b=np.zeros(n, dtype=np.int64))
    return IndicatorSet(domain=dom, members=_form_values(dot, dom) == 0)


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
    """
    p = sys.p
    A = quadratic_zero_set(p, n)
    alpha = A.density
    count, _ = count_solutions(sys, A, budget=budget, threads=threads)
    P = Fraction(count, A.domain.size**sys.d)
    independent = power_independence(sys, 1)
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
        l = len(maximal_square_independent_subsystem(sys))
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

def verify_gvn(sys: LinearFormSystem, fs: Sequence[GroupFunction], k: int,
               budget: int | None = None) -> ExperimentReport:
    """|E prod_i f_i(L_i(x))| <= min_i U^(k+1)(f_i) for bounded f_i, provided
    the system's partition complexity is at most k."""
    actual = cs_complexity(sys)
    if not actual <= k:
        raise ComplexityPreconditionError(
            f"system has partition complexity {actual}, need <= {k}")
    for i, f in enumerate(fs):
        if f.linf() > 1 + 1e-12:
            raise ValueError(f"function {i} exceeds the unit sup-norm bound")
    lhs = abs(average_product_direct(sys, fs, budget=budget))
    norms = [uk_norm(f, k + 1, budget=budget) for f in fs]
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


def factor_rank(gamma2: QuadraticMap, p: int | None = None) -> int:
    """Minimum rank of a nonzero F_p-combination of the associated symmetric
    bilinear forms; requires at least one quadratic form."""
    if gamma2.d2 == 0:
        raise ValueError("factor rank needs d2 >= 1")
    p = gamma2.forms[0].p if p is None else p
    mats = [bilinear_of(q).B for q in gamma2.forms]
    d2 = gamma2.d2
    best = mats[0].shape[0] + 1
    for code in range(1, p**d2):
        lam = [(code // p**j) % p for j in range(d2 - 1, -1, -1)]
        combo = sum(l * M for l, M in zip(lam, mats)) % p
        best = min(best, rank(combo, p))
        if best == 0:
            break
    return best


def factor_rank_or_inf(gamma2: QuadraticMap, p: int) -> float:
    return math.inf if gamma2.d2 == 0 else factor_rank(gamma2, p)


def atom_distribution(factor: QuadraticFactor,
                      budget: int | None = None) -> ExperimentReport:
    """Exact histogram of the atoms; every cell probability must be within
    p^(-r/2) of p^(-d1-d2), r the factor rank."""
    p, n = factor.p, factor.n
    dom = domain(p, n)
    check_budget(dom.size, budget, what=f"atom histogram over {p}^{n} points")
    cells = p ** (factor.d1 + factor.d2)
    counts = np.bincount(factor.atom_codes(dom), minlength=cells)
    r = factor_rank_or_inf(factor.gamma2, p)
    ref = Fraction(1, cells)
    worst = max(abs(Fraction(int(c), dom.size) - ref) for c in counts)
    bound = 0.0 if math.isinf(r) else p ** (-r / 2)
    rep = ExperimentReport(
        name="atoms",
        parameters={"p": p, "n": n, "d1": factor.d1, "d2": factor.d2,
                    "rank": None if math.isinf(r) else int(r)},
        observed={"cells": cells, "count_min": int(counts.min()),
                  "count_max": int(counts.max()),
                  "worst_deviation": float(worst),
                  "reference": float(ref), "bound": bound})
    if math.isinf(r):
        rep.add_check("atoms_exactly_uniform", float(worst), 0.0, "==",
                      exact_verdict=(worst == 0))
    else:
        rep.add_check("atom_deviation_le_bound", float(worst), bound, "<=",
                      exact_verdict=_exact_power_bound(worst, p, -int(r)))
    return rep


# ---------------------------------------------------------------------------
# Factor equidistribution along a system of forms.

def _require_square_independent(sys: LinearFormSystem) -> None:
    if not power_independence(sys, 1):
        raise SquareDependenceError(
            "operation requires a square-independent system")


def verify_quadfactor(sys: LinearFormSystem, gamma2: QuadraticMap,
                      phis: Sequence[Optional[np.ndarray]] | None = None,
                      bs: Sequence[Sequence[int]] | None = None,
                      n: int | None = None,
                      budget: int | None = None) -> ExperimentReport:
    """Probability that gamma2(L_i(x)) = phi_i(x) + b_i for all i, against
    p^(-m*d2) with allowance p^(-r/2).

    phi_i are linear maps from the d-variable assignment space to F_p^{d2},
    given as (d2, n*d) matrices (None means the zero map); b_i are targets.
    """
    _require_square_independent(sys)
    p = sys.p
    if gamma2.d2 and n is None:
        n = gamma2.forms[0].n
    if n is None:
        raise ValueError("dimension n required when gamma2 is empty")
    dom = domain(p, n)
    d2 = gamma2.d2
    m, d = sys.m, sys.d
    check_budget(direct_op_count(sys, dom), budget,
                 what=f"factor equidistribution over {dom.size}^{d} assignments")
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
    targets = _encode(b_arr.T, p, m)
    # Where phi_i is nonzero, phi_i(x) + b_i is b_i plus one value table per
    # variable with a nonzero block of phi_i, all written in base B, so that
    # their sum never carries and one gather through `decode` (B^d2 entries,
    # built only then) reduces it mod p.
    B = (d + 1) * (p - 1) + 1
    phi_codes = [[(u, _encode((dom.linear_values(row) for row in block), B, dom.size))
                  for u, block in enumerate(np.split(ph, d, axis=1)) if block.any()]
                 for ph in phi_mats]
    if any(phi_codes):
        b_codes = _encode(b_arr.T, B, m)
        cells = np.arange(B**d2, dtype=np.int64)
        decode = _encode((cells // B**j % B % p for j in range(d2 - 1, -1, -1)),
                         p, B**d2)

    quad_codes = gamma2.value_codes(dom)

    def chunk_matches(images: np.ndarray, xs: np.ndarray) -> int:
        ok = np.ones(images.shape[1], dtype=bool)
        for i in range(m):
            lhs = quad_codes[images[i]]
            if phi_codes[i]:
                code = b_codes[i]
                for u, table in phi_codes[i]:
                    code = code + table[xs[u]]
                ok &= lhs == decode[code]
            else:
                ok &= lhs == targets[i]
        return int(ok.sum())

    matches = sum(reduce_form_images(sys.coeffs, dom, chunk_matches))
    P = Fraction(matches, dom.size**d)
    r = factor_rank_or_inf(gamma2, p)
    ref = Fraction(1, p ** (m * d2))
    dev = abs(P - ref)
    bound = 0.0 if math.isinf(r) else p ** (-r / 2)
    rep = ExperimentReport(
        name="quadfactor",
        parameters={"p": p, "n": n, "m": m, "d": d, "d2": d2,
                    "system": sys.name or "custom",
                    "rank": None if math.isinf(r) else int(r)},
        observed={"probability": float(P), "probability_exact": str(P),
                  "reference": float(ref), "deviation": float(dev),
                  "bound": bound})
    if math.isinf(r):
        rep.add_check("probability_exact_reference", float(dev), 0.0, "==",
                      exact_verdict=(dev == 0))
    else:
        rep.add_check("deviation_le_bound", float(dev), bound, "<=",
                      exact_verdict=_exact_power_bound(dev, p, -int(r)))
    return rep


def verify_completefactor(sys: LinearFormSystem, factor: QuadraticFactor,
                          a_targets: Sequence[Sequence[int]],
                          b_targets: Sequence[Sequence[int]],
                          budget: int | None = None) -> ExperimentReport:
    """Joint linear+quadratic factor equidistribution along the system.

    The linear targets (a_1, ..., a_m) are first classified against the
    subspace Z of sequences compatible with the linear relations among the
    forms: outside Z the probability is exactly zero; inside Z it must be
    within p^(d1 - d'*d1 - r/2) of p^(-d1*d' - d2*m).
    """
    _require_square_independent(sys)
    p, n = factor.p, factor.n
    dom = domain(p, n)
    m, d = sys.m, sys.d
    d1, d2 = factor.d1, factor.d2
    check_budget(direct_op_count(sys, dom), budget,
                 what=f"complete factor check over {dom.size}^{d} assignments")
    A_t = np.asarray(a_targets, dtype=np.int64).reshape(m, d1) % p if d1 else \
        np.zeros((m, 0), dtype=np.int64)
    B_t = np.asarray(b_targets, dtype=np.int64).reshape(m, d2) % p if d2 else \
        np.zeros((m, 0), dtype=np.int64)
    W = relation_space(sys)
    in_Z = not ((W.basis @ A_t) % p).any() if d1 else True

    a_codes = _encode(A_t.T, p, m)
    b_codes = _encode(B_t.T, p, m)
    lin_codes = factor.linear_codes(dom)
    quad_codes = factor.gamma2.value_codes(dom)

    def chunk_matches(images: np.ndarray, xs: np.ndarray) -> int:
        ok = np.ones(images.shape[1], dtype=bool)
        for i in range(m):
            ok &= lin_codes[images[i]] == a_codes[i]
            if d2:
                ok &= quad_codes[images[i]] == b_codes[i]
        return int(ok.sum())

    matches = sum(reduce_form_images(sys.coeffs, dom, chunk_matches))
    P = Fraction(matches, dom.size**d)
    d_prime = span_dimension(sys)
    r = factor_rank_or_inf(factor.gamma2, p)
    rep = ExperimentReport(
        name="completefactor",
        parameters={"p": p, "n": n, "m": m, "d": d, "d1": d1, "d2": d2,
                    "d_prime": d_prime, "system": sys.name or "custom",
                    "rank": None if math.isinf(r) else int(r),
                    "targets_in_Z": in_Z},
        observed={"probability": float(P), "probability_exact": str(P)})
    if not in_Z:
        rep.add_check("probability_zero_outside_Z", float(P), 0.0, "==",
                      exact_verdict=(P == 0))
        return rep
    ref = Fraction(1, p ** (d1 * d_prime + d2 * m))
    dev = abs(P - ref)
    exponent = d1 - d_prime * d1  # plus -r/2 handled by the squared compare
    bound = 0.0 if math.isinf(r) else p ** (exponent - r / 2)
    rep.observed.update({"reference": float(ref), "deviation": float(dev),
                         "bound": bound})
    if math.isinf(r):
        rep.add_check("probability_exact_reference", float(dev), 0.0, "==",
                      exact_verdict=(dev == 0))
    else:
        rep.add_check("deviation_le_bound", float(dev), bound, "<=",
                      exact_verdict=_exact_power_bound(dev, p, 2 * exponent - int(r)))
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


def project_atoms(f: GroupFunction, factor: QuadraticFactor) -> GroupFunction:
    """Average f over the atoms of the full factor; empty atoms never occur
    in the output because values are read back through the atom codes."""
    dom = f.domain
    codes = factor.atom_codes(dom)
    cells = factor.p ** (factor.d1 + factor.d2)
    counts = np.bincount(codes, minlength=cells)
    sums = np.bincount(codes, weights=f.values.real, minlength=cells) + \
        1j * np.bincount(codes, weights=f.values.imag, minlength=cells)
    means = sums / np.maximum(counts, 1)
    return GroupFunction(domain=dom, values=means[codes])


def verify_projection_lemmas(f: GroupFunction, factor: QuadraticFactor,
                             budget: int | None = None) -> ExperimentReport:
    """Checks for g = E(f|linear factor) and f1 = E(f|atoms):

    - exact Pythagoras: U2(f)^4 = U2(g)^4 + U2(f-g)^4,
    - projection shrinks U2: U2(g) <= U2(f),
    - fiber-constant L2 bound: L2(g)^4 <= p^d1 * U2(g)^4,
    - mean preservation: E f1 = E f.
    """
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
                  sys: LinearFormSystem, budget: int | None = None,
                  threads: int = 1) -> ExperimentReport:
    """E prod_i f1(L_i(x)) for the atom projection f1 of a bounded f, against
    4^m * c * p^(d1/4) + 2^(m+1) * p^(m(d1+d2) - r/2) with c = U2(f)."""
    _require_square_independent(sys)
    if f.linf() > 1 + 1e-12:
        raise ValueError("function exceeds the unit sup-norm bound")
    p = factor.p
    m = sys.m
    c = u2_norm_fast(f)
    f1 = project_atoms(f, factor)
    observed = average_product_direct(sys, [f1] * m, budget=budget,
                                      threads=threads).real
    r = factor_rank_or_inf(factor.gamma2, p)
    tail = 0.0 if math.isinf(r) else 2 ** (m + 1) * p ** (m * (factor.d1 + factor.d2) - r / 2)
    bound = 4**m * c * p ** (factor.d1 / 4) + tail
    rep = ExperimentReport(
        name="bound1",
        parameters={"p": p, "n": factor.n, "m": m, "d1": factor.d1,
                    "d2": factor.d2, "system": sys.name or "custom",
                    "rank": None if math.isinf(r) else int(r)},
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
    lhs = uk_norm(g, 3, budget=budget) ** 8
    rhs = a**8 + uk_norm(f, 3, budget=budget) ** 8
    gap = abs(lhs - rhs)
    c = u2_norm_fast(f)
    rep = ExperimentReport(
        name="pythagoras",
        parameters={"p": f.domain.p, "n": f.domain.n, "a": a},
        observed={"lhs_power": lhs, "rhs_power": rhs, "gap": gap, "u2_norm": c})
    rep.add_check("gap_le_24_u2", gap, 24 * c, "<=", FLOAT_SLACK,
                  derived_tolerance=True)
    return rep
