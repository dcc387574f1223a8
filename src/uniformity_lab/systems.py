"""Linear form systems over F_p and their complexity invariants.

A system is an ordered list of m distinct nonzero linear forms in d variables.
The invariants computed here: the minimum-partition (Cauchy-Schwarz style)
complexity, normal-form witnesses, independence of the (k+1)-st powers of the
forms, and the relation space of linear dependencies among the forms.

A system's coefficients C are read-only, so the pivot columns of rref(C)
(`pivots`) and the pivot cut C[:, pivots] (`cut`), the relation space
(`relations`, basis the nullspace of C^T), the ranks of all subsets of the
forms (`subset_ranks`) and the elimination plans of the direct and dual sums
(`direct_plan`, `dual_plan`) are computed once, on first use, and cached.

Partition complexity is computed by exact branch-and-bound search over class
assignments, with classes as bitmasks over the forms.  Every span test is one
lookup in a table of the ranks of all 2^m subsets of the forms, built once per
system by one incremental echelon pass mod p that adds a form at a time to
every subset's basis.  Both the table and the search are exponential in m, so
systems are capped at m <= 12 forms: the table then has 4096 entries (a
32 KiB list), and the bases it keeps are 2^(m-1) r x r int64 arrays, r <= m
the rank of the system, so at most 2048 x 12 x 12 entries (2.25 MiB).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .algebra import check_modulus, nullspace, rank, rref, Subspace
from .budget import check_budget

MAX_FORMS = 12

INFINITE = math.inf


@dataclass(frozen=True)
class LinearFormSystem:
    """System of m distinct nonzero linear forms in d variables over F_p.

    Coefficient rows are given as plain integers and must be smaller than p
    in magnitude: reducing e.g. a coefficient 3 mod 3 would silently change
    the configuration, so too-small moduli are rejected at construction.
    """

    p: int
    d: int
    coeffs: np.ndarray  # (m, d) reduced mod p
    name: str = ""

    def __post_init__(self):
        check_modulus(self.p)
        raw = np.asarray(self.coeffs, dtype=np.int64)
        if raw.ndim != 2 or raw.shape[1] != self.d:
            raise ValueError("coefficient array must be (m, d)")
        if raw.shape[0] < 1:
            raise ValueError("a system needs at least one form")
        if raw.shape[0] > MAX_FORMS:
            raise ValueError(f"at most {MAX_FORMS} forms supported")
        if np.abs(raw).max(initial=0) >= self.p:
            raise ValueError(
                f"modulus {self.p} too small for coefficient magnitude "
                f"{np.abs(raw).max()}; pick a larger prime")
        C = raw % self.p
        if not C.any(axis=1).all():
            raise ValueError("forms must not be identically zero")
        seen = set()
        for row in C:
            key = tuple(int(x) for x in row)
            if key in seen:
                raise ValueError("forms must be pairwise distinct")
            seen.add(key)
        # read-only, so that the cached invariants below never go stale
        C.flags.writeable = False
        object.__setattr__(self, "coeffs", C)

    @cached_property
    def pivots(self) -> tuple[int, ...]:
        """Pivot columns of rref(C); their number is the rank of C."""
        return tuple(rref(self.coeffs, self.p)[1])

    @cached_property
    def cut(self) -> np.ndarray:
        """The pivot cut C[:, pivots], read-only, C itself at full rank d: the
        other columns are fixed combinations of these in every row."""
        cut = self.coeffs if len(self.pivots) == self.d else self.coeffs[:, list(self.pivots)]
        cut.flags.writeable = False
        return cut

    @cached_property
    def relations(self) -> Subspace:
        """Subspace of coefficient vectors mu with sum_i mu_i L_i = 0, the
        nullspace of C^T; its basis is read-only like C."""
        W = Subspace(p=self.p, ambient=self.m, basis=nullspace(self.coeffs.T, self.p))
        W.basis.flags.writeable = False
        return W

    @cached_property
    def subset_ranks(self) -> list[int]:
        """rank[S] of every subset S of the forms, S a bitmask over form
        indices: the rank table (`_rank_table`) of `cut`."""
        return _rank_table(self.cut, self.p)

    @cached_property
    def direct_plan(self) -> tuple:
        """The elimination plan (`counting._plan`) of the direct sum over
        G^(rank C): of `cut`, from `subset_ranks`.  Its arrays are read-only
        like C."""
        from .counting import _plan  # counting imports this module
        return _plan(self.cut, self.p, self.subset_ranks)

    @cached_property
    def dual_plan(self) -> tuple:
        """The elimination plan of the dual sum over the annihilator: of the
        relation forms, the rows of the relation basis transposed, from
        their rank table by duality (`counting._relation_ranks`).  Its
        arrays are read-only like C."""
        from .counting import _plan, _relation_ranks
        return _plan(self.relations.basis.T, self.p, _relation_ranks(self))

    @property
    def m(self) -> int:
        return self.coeffs.shape[0]

    def form(self, i: int) -> np.ndarray:
        return self.coeffs[i]

    def to_dict(self) -> dict:
        return {"p": self.p, "d": self.d,
                "forms": [[int(c) for c in row] for row in self.coeffs],
                "name": self.name}


def support(form: Sequence[int] | np.ndarray) -> frozenset[int]:
    """Indices (0-based) of the variables the form actually uses."""
    row = np.asarray(form)
    return frozenset(int(u) for u in np.nonzero(row)[0])


def _rank_table(C: np.ndarray, p: int) -> list[int]:
    """rank[S] of every subset S of the rows of the (m, r) matrix C mod p, S a
    bitmask over row indices.

    The table grows one row at a time, by
    rank[S | 1 << j] = rank[S] + [row j not in span S], reducing row j
    against the echelon bases of all the subsets S of the rows before it at
    once.  E[S] is that basis as an (r, r) array whose row c, when nonzero, is
    the basis vector with leading column c.  For each c in turn the residual
    v becomes a v - b E[S][c] (a = E[S][c, c], b = v[c]; a = 1 where row c is
    zero), which clears v[c] without inverting anything and scales the whole
    of v by a nonzero a.  Entries stay below p, so the products stay exact in
    int64 as in `algebra._eliminate`.  Row j lies outside span S exactly when
    its residual is nonzero, and E[S | 1 << j] is E[S] with that residual put
    in the row of its leading column.  Only the bases of subsets of the first
    m - 1 rows are ever read, so E is one (2^(m-1), r, r) array, and each
    (S, j) costs O(r^2).
    """
    m, r = C.shape
    ranks = np.zeros(1 << m, dtype=np.int64)
    E = np.zeros((1 << (m - 1), r, r), dtype=np.int64)
    for j in range(m):
        size = 1 << j
        basis = E[:size]
        v = np.repeat(C[j][None, :], size, axis=0)
        # a row c of zeros (no basis vector leads there) leaves v as it is
        lead = np.diagonal(basis, axis1=1, axis2=2)
        scale = np.where(lead != 0, lead, 1)
        for c in range(r):
            v = (scale[:, c, None] * v - v[:, c, None] * basis[:, c]) % p
        new = v.any(axis=1)
        ranks[size:2 * size] = ranks[:size] + new
        if j < m - 1:
            grown = E[size:2 * size]
            grown[...] = basis
            rows = np.flatnonzero(new)
            grown[rows, (v[rows] != 0).argmax(axis=1)] = v[rows]
    return ranks.tolist()


def _min_partition_classes(ranks: list[int], m: int, i: int) -> float:
    """Minimum number of classes partitioning the forms other than form i so
    that no class's span contains form i; INFINITE if impossible (a parallel
    form).  Classes are bitmasks, and form i lies in span(S) exactly when
    ranks[S | 1 << i] == ranks[S]."""
    target = 1 << i
    others = [1 << j for j in range(m) if j != i]
    if not others:
        return 0
    if any(ranks[f | target] == ranks[f] for f in others):
        return INFINITE

    best = len(others) + 1

    def extend(t: int, classes: list[int]) -> None:
        nonlocal best
        if len(classes) >= best:
            return
        if t == len(others):
            best = len(classes)
            return
        f = others[t]
        for k, cls in enumerate(classes):
            grown = cls | f
            if ranks[grown | target] != ranks[grown]:
                classes[k] = grown
                extend(t + 1, classes)
                classes[k] = cls
        classes.append(f)
        extend(t + 1, classes)
        classes.pop()

    extend(0, [])
    return best


def cs_complexity(sys: LinearFormSystem) -> float:
    """Least s making the system s-complex at every index; INFINITE when two
    forms are scalar multiples of each other (no partition ever avoids both)."""
    ranks = sys.subset_ranks
    worst = 0
    for i in range(sys.m):
        k = _min_partition_classes(ranks, sys.m, i)
        if k == INFINITE:
            return INFINITE
        worst = max(worst, int(k) - 1)
    return max(worst, 0)


@dataclass(frozen=True)
class NormalFormWitness:
    """Per-form fingerprint sets tau_i certifying the normal form."""

    tau: tuple[frozenset[int], ...]


def normal_form_check(sys: LinearFormSystem, s: int) -> Optional[NormalFormWitness]:
    """Witness that each support carries a set of <= s+1 variables contained
    in no other form's support, or None when some form has no such set."""
    if s < 0:
        raise ValueError("s must be >= 0")
    supports = [support(sys.coeffs[i]) for i in range(sys.m)]
    taus: list[frozenset[int]] = []
    for i in range(sys.m):
        sigma = sorted(supports[i])
        found = None
        for size in range(min(s + 1, len(sigma)), 0, -1):
            for cand in combinations(sigma, size):
                tau = frozenset(cand)
                if all(j == i or not tau <= supports[j] for j in range(sys.m)):
                    found = tau
                    break
            if found is not None:
                break
        if found is None:
            return None
        taus.append(found)
    return NormalFormWitness(tau=tuple(taus))


def _power_matrix(sys: LinearFormSystem, k: int) -> np.ndarray:
    """(m, M) matrix whose row i is the (k+1)-st power of form i, one column
    per degree-(k+1) monomial x_u1 ... x_u(k+1) (u1 <= ... <= u(k+1)), of
    which there are M = C(d + k, k + 1): the column is the product of the
    coefficient columns C[:, u1] ... C[:, u(k+1)], reduced mod p after each
    factor.

    The multinomial factor of each monomial is left out.  It divides (k+1)!,
    a unit mod p when p > k + 1, so leaving it out scales columns by units,
    which keeps the rank and, on the transpose, the pivot columns.  The
    matrix costs about m M (k + 1) products to build and m M m to eliminate,
    and is refused over budget before it is allocated."""
    m, d, p = sys.m, sys.d, sys.p
    size = math.comb(d + k, k + 1)
    check_budget(m * size * (k + 1 + m),
                 what=f"order-{k + 1} power matrix of {m} x {size}")
    monomials = np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(d), k + 1)),
        dtype=np.intp, count=size * (k + 1)).reshape(size, k + 1)
    P = sys.coeffs[:, monomials[:, 0]]
    for u in monomials[:, 1:].T:
        P = P * sys.coeffs[:, u] % p
    return P


def power_independence(sys: LinearFormSystem, k: int) -> bool:
    """Are the (k+1)-st powers of the forms linearly independent over F_p?

    k = 1 is square independence.  Requires p > k+1, so that the power
    matrix's dropped multinomial factors are units mod p.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if sys.p <= k + 1:
        raise ValueError(f"p={sys.p} too small for power k+1={k + 1}")
    return rank(_power_matrix(sys, k), sys.p) == sys.m


def conjectured_true_complexity(sys: LinearFormSystem) -> Optional[int]:
    """Smallest k >= 1 with independent (k+1)-st powers, or None when the
    powers are dependent at every testable order k <= m with p > k + 1.

    This is the conjectured value of the uniformity degree governing the
    system; callers should label it as conjectured in any report.
    """
    for k in range(1, min(sys.m, sys.p - 2) + 1):
        if power_independence(sys, k):
            return k
    return None


def maximal_square_independent_subsystem(sys: LinearFormSystem) -> list[int]:
    """Greedy lowest-index-first maximal subset with independent squares: the
    pivot columns of the squares stacked as columns, since square i is a
    pivot exactly when it lies outside the span of the squares before it."""
    return rref(_power_matrix(sys, 1).T, sys.p)[1]


def relation_space(sys: LinearFormSystem) -> Subspace:
    """The system's cached `relations`.  Kept public, although the package
    reads `sys.relations` directly, because the benchmark's checks
    (`perfbench/checks.py`) import it."""
    return sys.relations


# ---------------------------------------------------------------------------
# Built-in example systems and the system file format.

def _ap_rows(k: int) -> list[list[int]]:
    return [[1, i] for i in range(k)]


_BUILTIN_ROWS: dict[str, tuple[int, list[list[int]]]] = {
    "ap3": (2, _ap_rows(3)),
    "ap4": (2, _ap_rows(4)),
    "ap5": (2, _ap_rows(5)),
    "diff3": (3, [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]]),
    "gw6a": (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1],
                 [1, 1, 1], [1, 2, -1], [1, -1, 2]]),
    "gw6b": (3, [[1, 0, 0], [1, 1, 0], [1, 0, 1],
                 [1, 1, 1], [1, 1, -1], [1, -1, 1]]),
    "cube7": (4, [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1],
                  [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]]),
    "nf4": (4, [[-3, -2, -1, 0], [-2, -1, 0, 1], [-1, 0, 1, 2], [0, 1, 2, 3]]),
}

BUILTIN_SYSTEM_NAMES = tuple(_BUILTIN_ROWS)


def builtin_system(name: str, p: int) -> LinearFormSystem:
    if name not in _BUILTIN_ROWS:
        raise KeyError(f"unknown system {name!r}; known: {', '.join(_BUILTIN_ROWS)}")
    d, rows = _BUILTIN_ROWS[name]
    return LinearFormSystem(p=p, d=d, coeffs=np.array(rows), name=name)


def load_system(path: str, p: int | None = None) -> LinearFormSystem:
    """Load a system from a JSON document {p, d, forms, name?}."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        return LinearFormSystem(
            p=int(p if p is not None else doc["p"]),
            d=int(doc["d"]),
            coeffs=np.array(doc["forms"], dtype=np.int64),
            name=str(doc.get("name", "")))
    except KeyError as exc:
        raise ValueError(f"system file {path} missing field {exc}") from exc
    except TypeError as exc:  # not an object, or a null field
        raise ValueError(f"system file {path} is malformed: {exc}") from exc


def save_system(sys: LinearFormSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sys.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def resolve_system(ref: str, p: int) -> LinearFormSystem:
    """Accept a built-in name or a path to a system file."""
    if ref in _BUILTIN_ROWS:
        return builtin_system(ref, p)
    return load_system(ref, p=p)

