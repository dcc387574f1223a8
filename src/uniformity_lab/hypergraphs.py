"""Tripartite function norms and the vertex-uniformity counterexample.

The octahedral norm is the eighth root of the expectation of the 8-fold
product of a function F on X x Y x Z over pairs (x0,x1), (y0,y1), (z0,z1).
For complex-valued F the factors carry a conjugation on odd coordinate
parity, the same pattern as the U^3 cube product, so that the expectation is
real and nonnegative; real F reduces to the plain product.  Lifting a group
function g to F(x,y,z) = g(x+y+z) turns this norm into the U^3 norm of g.

The counterexample: H(x,y,z) = (3 + u(x,y) + u(y,z) + u(x,z))/6 for a random
symmetric sign function u is vertex uniform with density about 1/2, yet the
double-edge average E H(x,y,z)H(x,y,w) concentrates near 5/18 rather than
the (1/2)^2 = 1/4 a quasirandom hypergraph would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .budget import check_budget
from .functions import GroupFunction
from .verification import ExperimentReport


@dataclass(frozen=True)
class TripartiteFunction:
    """Dense table over X x Y x Z; complex in float mode, Fractions in exact
    mode (exact mode is the oracle for the norm-of-zero property)."""

    values: np.ndarray
    exact: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise ValueError("expected a 3-d value table")
        object.__setattr__(self, "values", v.astype(np.complex128))
        if self.exact is not None:
            e = np.asarray(self.exact, dtype=object)
            if e.shape != v.shape:
                raise ValueError("exact table shape mismatch")
            object.__setattr__(self, "exact", e)

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]


def octahedral_op_count(F: TripartiteFunction) -> int:
    nx, ny, nz = F.sizes
    return (nx * ny * nz) ** 2


def octahedral_power(F: TripartiteFunction, budget: int | None = None) -> float:
    """The 8-fold product expectation (the eighth power of the norm)."""
    check_budget(octahedral_op_count(F), budget, what="octahedral norm")
    vals = F.values
    nx, ny, nz = F.sizes
    total = 0.0
    # E_{x0,x1,y0,y1} |E_z F(x0,y0,z) conj(F(x1,y0,z)) conj(F(x0,y1,z)) F(x1,y1,z)|^2,
    # accumulated one x0-slice at a time to bound memory.
    for a in range(nx):
        A = vals[a][None, :, :] * np.conj(vals)  # (x1, y, z)
        S = np.einsum("bmz,bnz->bmn", A, np.conj(A))
        total += float((S.real**2 + S.imag**2).sum())
    return total / (nx * nx * ny * ny * nz * nz)


def octahedral_norm(F: TripartiteFunction, budget: int | None = None) -> float:
    return max(octahedral_power(F, budget), 0.0) ** 0.125


def octahedral_power_exact(F: TripartiteFunction) -> Fraction:
    """Exact rational eighth power for real rational tables; small sizes only."""
    if F.exact is None:
        raise ValueError("function carries no exact rational table")
    nx, ny, nz = F.sizes
    vals = F.exact
    total = Fraction(0)
    for x0 in range(nx):
        for x1 in range(nx):
            for y0 in range(ny):
                for y1 in range(ny):
                    s = Fraction(0)
                    for z in range(nz):
                        s += vals[x0, y0, z] * vals[x1, y0, z] * \
                            vals[x0, y1, z] * vals[x1, y1, z]
                    total += s * s
    return total / ((nx * ny) ** 2 * nz**2)


def lift(g: GroupFunction) -> TripartiteFunction:
    """F(x, y, z) = g(x + y + z) on X = Y = Z = the domain of g."""
    P, enc = g.domain.sum_grid
    # index of x + y + z as two gathers: first x + y, then (x + y) + z
    xy = P[enc[:, None] + enc[None, :]]
    idx3 = P[enc[xy][:, :, None] + enc]
    exact = g.exact[idx3] if g.exact is not None else None
    return TripartiteFunction(values=g.values[idx3], exact=exact)


def symmetric_sign_function(n_x: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric +-1 table on X^2 (diagonal included)."""
    upper = rng.choice([-1, 1], size=(n_x, n_x))
    return np.triu(upper) + np.triu(upper, 1).T


def vertex_uniformity_counterexample(seed: int, n_x: int = 64) -> ExperimentReport:
    """Exact double-edge average of H against 5/18, for the drawn u.

    The slack 0.16/sqrt(n_x) covers the sign-sum concentration plus the
    O(1/n_x) degenerate-tuple bias; at n_x = 64 it equals 0.02.  The density
    check uses 1/sqrt(n_x).
    """
    rng = np.random.default_rng(seed)
    u = symmetric_sign_function(n_x, rng)
    # E_z H(x,y,z) has integer numerator n_x*(3 + u(x,y)) + rowsum(x) + rowsum(y)
    # over denominator 6*n_x; everything downstream stays exact.
    rowsum = u.sum(axis=1)
    numer = n_x * (3 + u) + rowsum[:, None] + rowsum[None, :]
    value = Fraction(int((numer.astype(object) ** 2).sum()),
                     36 * n_x**4)
    # each of the three u-terms contributes n_x * sum(u) to the total of 6*H
    density = Fraction(3 * n_x**3 + 3 * n_x * int(u.sum()), 6 * n_x**3)
    slack = 0.16 / n_x**0.5
    rep = ExperimentReport(
        name="counterexample",
        parameters={"n_x": n_x, "seed": seed,
                    "slack_formula": "0.16/sqrt(n_x)"},
        observed={"double_edge_average": float(value),
                  "double_edge_exact": str(value),
                  "reference": float(Fraction(5, 18)),
                  "naive_reference": 0.25,
                  "density": float(density)})
    rep.add_check("average_near_5_18", abs(float(value) - 5 / 18), slack, "<=",
                  derived_tolerance=True)
    # 5/18-concentration forces separation from 1/4 by |5/18 - 1/4| - slack
    rep.add_check("average_far_from_1_4", 1 / 36 - slack,
                  abs(float(value) - 0.25), "<=", derived_tolerance=True)
    rep.add_check("density_near_half", abs(float(density) - 0.5),
                  1.0 / n_x**0.5, "<=", derived_tolerance=True)
    return rep


def counterexample_table(u: np.ndarray) -> TripartiteFunction:
    """The full H table for a given symmetric sign function (small n_x)."""
    n = u.shape[0]
    H = (3.0 + u[:, :, None] + u[None, :, :] + u[:, None, :]) / 6.0
    return TripartiteFunction(values=H)


def vertex_correlation(F: TripartiteFunction, a: np.ndarray, b: np.ndarray,
                       c: np.ndarray) -> complex:
    """E F(x,y,z) a(x) b(y) c(z), the correlation vertex uniformity bounds."""
    return complex(np.einsum("xyz,x,y,z->", F.values, a, b, c) /
                   (len(a) * len(b) * len(c)))


def roots_of_unity_demo(seed: int, n_x: int = 12, m: int = 2) -> ExperimentReport:
    """Demonstration generator for the pair-multiplicity obstruction.

    Builds f(x,y,z) as a sum of u(x,y)v(y,z)w(x,z) products of random k-th
    root functions (2 <= k <= m) and reports the double-edge average, whose
    failure to cancel is the reason vertex uniformity alone cannot control
    configurations repeating a pair.  Reported, not asserted: the
    construction is probabilistic.
    """
    if m < 2 or m > 3:
        raise ValueError("demo supports pair multiplicities m in {2, 3}")
    rng = np.random.default_rng(seed)
    factors = {}
    for k in range(2, m + 1):
        phases = rng.integers(0, k, size=(n_x, n_x))
        factors[k] = np.exp(2j * np.pi * phases / k)
    f = np.zeros((n_x, n_x, n_x), dtype=np.complex128)
    ks = list(factors)
    for ku in ks:
        for kv in ks:
            for kw in ks:
                f += factors[ku][:, :, None] * factors[kv][None, :, :] * \
                    factors[kw][:, None, :]
    # configuration with the pair (x, y) in both edges
    avg = np.einsum("xyz,xyw->", f, f) / n_x**4
    rep = ExperimentReport(
        name="roots_demo",
        parameters={"n_x": n_x, "seed": seed, "max_multiplicity": m},
        observed={"double_edge_average_re": float(avg.real),
                  "double_edge_average_im": float(avg.imag),
                  "modulus": float(abs(avg))})
    return rep
