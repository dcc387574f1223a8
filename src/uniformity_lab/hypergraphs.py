"""Tripartite function norms and the vertex-uniformity counterexample.

The octahedral norm is the eighth root of the expectation of the 8-fold
product of a function F on X x Y x Z over pairs (x0,x1), (y0,y1), (z0,z1).
For complex-valued F the factors carry a conjugation on odd coordinate
parity, the same pattern as the U^3 cube product, so that the expectation is
real and nonnegative; real F reduces to the plain product.  A
`TripartiteFunction` whose imaginary parts are all exactly zero keeps a
float64 table, and its norm is computed in real arithmetic with no
conjugates; any other keeps complex128.  Lifting a group function g to
F(x,y,z) = g(x+y+z) turns this norm into the U^3 norm of g, and the lift of
a real g is real.

The counterexample: H(x,y,z) = (3 + u(x,y) + u(y,z) + u(x,z))/6 for a random
symmetric sign function u is vertex uniform with density about 1/2, yet the
double-edge average E H(x,y,z)H(x,y,w) concentrates near 5/18 rather than
the (1/2)^2 = 1/4 a quasirandom hypergraph would give.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .budget import check_budget
from .functions import GroupFunction, _narrowed
from .reports import ExperimentReport


@dataclass(frozen=True)
class TripartiteFunction:
    """Dense table over X x Y x Z: float64 when every imaginary part is
    exactly zero, complex128 otherwise."""

    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 3:
            raise ValueError("expected a 3-d value table")
        object.__setattr__(self, "values", _narrowed(v))

    @property
    def sizes(self) -> tuple[int, int, int]:
        return self.values.shape  # type: ignore[return-value]


def octahedral_op_count(sizes: tuple[int, int, int]) -> int:
    nx, ny, nz = sizes
    return (nx * ny * nz) ** 2


def _check_octahedral_budget(sizes: tuple[int, int, int], budget: int | None) -> None:
    """Refuse the octahedral norm of a table of shape `sizes` over budget."""
    check_budget(octahedral_op_count(sizes), budget, what="octahedral norm")


def octahedral_power(F: TripartiteFunction, budget: int | None = None) -> float:
    """The 8-fold product expectation (the eighth power of the norm)."""
    _check_octahedral_budget(F.sizes, budget)
    vals = F.values
    nx, ny, nz = F.sizes
    total = 0.0
    # E_{x0,x1,y0,y1} |E_z F(x0,y0,z) conj(F(x1,y0,z)) conj(F(x0,y1,z)) F(x1,y1,z)|^2,
    # accumulated one x0-slice at a time to bound memory.  Swapping x0 and x1
    # conjugates the inner sum, so x1 runs over x1 >= x0: the diagonal at
    # weight 1, the rest at weight 2.
    if np.iscomplexobj(vals):
        conj, square = np.conj, lambda S: S.real**2 + S.imag**2
    else:  # a real table needs no conjugates, and S is squared directly
        conj, square = (lambda t: t), np.square
    for a in range(nx):
        A = vals[a] * conj(vals[a:])  # (x1, y, z)
        S = A @ conj(A).transpose(0, 2, 1)  # (x1, y0, y1)
        mags = square(S)
        total += float(mags[0].sum()) + 2 * float(mags[1:].sum())
    return total / (nx * nx * ny * ny * nz * nz)


def octahedral_norm(F: TripartiteFunction, budget: int | None = None) -> float:
    return max(octahedral_power(F, budget), 0.0) ** 0.125


def lift(g: GroupFunction) -> TripartiteFunction:
    """F(x, y, z) = g(x + y + z) on X = Y = Z = the domain of g, a float64
    table when g is real."""
    P, enc = g.domain.sum_grid
    # index of x + y + z as two gathers: first x + y, then (x + y) + z
    xy = P[enc[:, None] + enc[None, :]]
    idx3 = P[enc[xy][:, :, None] + enc]
    return TripartiteFunction(values=g.values[idx3])


def symmetric_sign_function(n_x: int, rng: np.random.Generator) -> np.ndarray:
    """Random symmetric +-1 table on X^2 (diagonal included)."""
    upper = rng.choice([-1, 1], size=(n_x, n_x))
    return np.triu(upper) + np.triu(upper, 1).T


def vertex_uniformity_counterexample(seed: int, n_x: int = 64,
                                     budget: int | None = None) -> ExperimentReport:
    """Exact double-edge average of H against 5/18, for the drawn u.

    The slack 0.16/sqrt(n_x) covers the sign-sum concentration plus the
    O(1/n_x) degenerate-tuple bias; at n_x = 64 it equals 0.02.  The density
    check uses 1/sqrt(n_x).  The n_x^2 signs are priced before they are
    drawn, and an n_x with 36 n_x^3 >= 2^63 raises ValueError (see below).
    """
    check_budget(n_x * n_x, budget, what=f"counterexample on {n_x} vertices")
    if 36 * n_x**3 >= 2**63:
        raise ValueError(f"{n_x} vertices: a row sum of squared numerators "
                         "could overflow int64")
    rng = np.random.default_rng(seed)
    u = symmetric_sign_function(n_x, rng)
    # E_z H(x,y,z) has integer numerator n_x*(3 + u(x,y)) + rowsum(x) + rowsum(y)
    # in [0, 6 n_x] over 6*n_x; its squares sum exactly, by int64 rows, then ints
    rowsum = u.sum(axis=1)
    numer = n_x * (3 + u) + rowsum[:, None] + rowsum[None, :]
    value = Fraction(sum((numer * numer).sum(axis=1).tolist()), 36 * n_x**4)
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

