"""Linear form systems over F_p and their complexity invariants.

A system is an ordered list of m distinct nonzero linear forms in d variables.
The invariants computed here: the minimum-partition (Cauchy-Schwarz style)
complexity, normal-form witnesses, independence of the (k+1)-st powers of the
forms, and the relation space of linear dependencies among the forms.

A system's coefficients C are read-only, so the pivot columns of rref(C)
(`pivots`) and the pivot cut C[:, pivots] (`cut`), the relation space
(`relations`, basis the nullspace of C^T), the ranks of all subsets of the
forms (`subset_ranks`), the elimination plans of the direct and dual sums
(`direct_plan`, `dual_plan`) and the pivot columns of each order's power
matrix (`power_independence`; at order 1 the maximal square-independent
subsystem) are computed once, on first use, and kept.
The rank table is read off C itself where d <= m, with no elimination of C
first: a set of forms has the same rank in C as in the cut.  So there the
complexity search and the dual plan never reduce C; the consumers that work
in the r = rank C variables of the cut (the direct plan, the closed forms,
the power matrices) do, once.

Partition complexity is computed exactly by feasibility tests over class
assignments, with classes as bitmasks over the forms: can the forms other
than form i be split into at most cap classes, none of whose spans contains
form i?  Each form's tests run from a floor, cap = floor, floor + 1, ..., and
the complexity passes the running maximum plus one as the floor, so once the
worst form is found every later form needs only the first partition its
search meets.  Every span test is one lookup in a table of the ranks of all
2^m subsets of the forms, built once per system by a recurrence over
residuals mod p: adding a form t to every subset T of the forms before it
reduces the residuals of the later forms modulo span T by one elimination
step each, fewer than 2^m steps of O(w) in all, w <= m the number of columns
the table is read off (d, or r where d > m).  Both the table and the search
are exponential in m, so systems are capped at m <= 12 forms: the table then
has 4096 entries (a 32 KiB list), and its largest residual array is
(2^(m-1), 1, w) int64, at most 2048 x 12 entries (192 KiB).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, combinations, combinations_with_replacement
from typing import Optional, Sequence

import numpy as np

from .algebra import (as_int, as_int_array, check_modulus, nullspace, rref,
                      Subspace)
from .budget import check_budget

MAX_FORMS = 12

INFINITE = math.inf


@dataclass(frozen=True)
class LinearFormSystem:
    """System of m distinct nonzero linear forms in d variables over F_p.

    Coefficient rows are given as plain integers and must be smaller than p
    in magnitude: reducing e.g. a coefficient 3 mod 3 would silently change
    the configuration, so too-small moduli are rejected at construction.
    The rows as given are kept, read-only, as `rows`: `to_dict` writes them,
    so a saved system reloads at another modulus as the same integer forms.
    """

    p: int
    d: int
    coeffs: np.ndarray  # (m, d) reduced mod p
    name: str = ""
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    # pivot columns of rref(P^T), P the (k+1)-st power matrix, per order k eliminated
    _power_pivots: dict = field(init=False, repr=False, compare=False,
                                default_factory=dict)

    def __post_init__(self):
        check_modulus(self.p)
        raw = np.array(self.coeffs, dtype=np.int64)  # a copy, kept as `rows`
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
        raw.flags.writeable = False
        object.__setattr__(self, "rows", raw)
        C = raw % self.p
        if not C.any(axis=1).all():
            raise ValueError("forms must not be identically zero")
        if len(set(map(tuple, C.tolist()))) < len(C):
            raise ValueError("forms must be pairwise distinct")
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
        other columns are fixed combinations of these in every row.  Read
        where the work runs in the r = rank C variables of the cut: the
        direct plan, the fibre N^(d - r) of the direct counts, the Gauss-sum
        closed forms and the power matrices (`_power_matrix`)."""
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
        indices: the rank table (`_rank_table`) of C itself, so that the
        complexity search needs no `pivots`.  It is the table of `cut` too:
        C = cut T with T of full row rank r, so x^T C_S = 0 exactly when
        x^T cut_S = 0, and every set of rows has one rank in both.  With more
        variables than forms the table is read off the cut instead, whose
        r <= m columns keep its residuals as narrow as at d <= m."""
        return _rank_table(self.coeffs if self.d <= self.m else self.cut, self.p)

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
        """The system file document: the integer rows, marked as such, so
        that `load_system` reloads them at any modulus."""
        return {"p": self.p, "d": self.d,
                "forms": self.rows.tolist(), "rows": "integer",
                "name": self.name}


def support(form: Sequence[int] | np.ndarray) -> frozenset[int]:
    """Indices (0-based) of the variables the form actually uses."""
    row = np.asarray(form)
    return frozenset(int(u) for u in np.nonzero(row)[0])


def _rank_table(C: np.ndarray, p: int) -> list[int]:
    """rank[S] of every subset S of the rows of the (m, r) matrix C mod p, S a
    bitmask over row indices.

    The table grows one row at a time, by
    rank[T | 1 << t] = rank[T] + [row t not in span T].  Before step t, R
    holds, for every subset T of the rows before t in bitmask order, the
    residuals of rows t, ..., m - 1 modulo span T: each is a nonzero
    multiple of its row plus a combination of T's rows, and zero on the
    columns T's rows were reduced on.  R starts as C itself.  Row t lies
    outside span T exactly when its residual w is nonzero.  Adding row t to
    T turns every later residual v into a v - v[c] w (c the leading column
    of w, a = w[c] != 0): that is zero on c and on T's columns, and equals
    a L modulo span(T | 1 << t) for its row L, so it is zero exactly when L
    lies in that span.  Where w = 0, v passes through (a = 1).  Entries stay
    below p, so the products stay exact in int64 as in
    `algebra._eliminate`.  Each step is one pass over all 2^t subsets at
    once, the later residuals growing to (those without row t, those with
    it), so each (T, later row) costs O(r); there are fewer than 2^m such
    pairs, and the largest R is (2^(m-1), 1, r).
    """
    m, r = C.shape
    if r == 0:
        return [0] * (1 << m)
    ranks = np.zeros(1, dtype=np.int64)
    R = np.asarray(C, dtype=np.int64)[None]
    for t in range(m):
        w, later = R[:, 0], R[:, 1:]
        new = w.any(axis=1)
        ranks = np.concatenate((ranks, ranks + new))
        if t == m - 1:
            break
        lead = (w != 0).argmax(axis=1)
        rows = np.arange(len(w))
        a = np.where(new, w[rows, lead], 1)
        b = later[rows, :, lead]
        reduced = (a[:, None, None] * later - b[:, :, None] * w[:, None, :]) % p
        R = np.concatenate((later, reduced))
    return ranks.tolist()


def _min_partition_classes(ranks: list[int], m: int, i: int,
                           floor: int = 0) -> float:
    """max(floor, the minimum number of classes partitioning the forms other
    than form i so that no class's span contains form i); INFINITE if no such
    partition exists (a parallel form), at every floor.  Classes are
    bitmasks, and form i lies in span(S) exactly when
    ranks[S | 1 << i] == ranks[S].

    The minimum is found by feasibility tests: can the other forms be split
    into at most cap classes, for cap = floor, floor + 1, ... in turn?  Each
    test is a depth-first search that puts the forms in order into an open
    class whose span stays clear of form i, or opens a new one while fewer
    than cap are open, and stops at the first partition it completes.  Every
    test below the minimum is exhaustive; at the minimum, or at a floor
    above it, only the first partition met is searched for.  The singletons
    always fit, so no test runs past cap = max(floor, m - 1)."""
    target = 1 << i
    others = [1 << j for j in range(m) if j != i]
    if any(ranks[f | target] == ranks[f] for f in others):
        return INFINITE

    def fits(t: int, classes: list[int], cap: int) -> bool:
        if t == len(others):
            return True
        f = others[t]
        for k, cls in enumerate(classes):
            grown = cls | f
            if ranks[grown | target] != ranks[grown]:
                classes[k] = grown
                if fits(t + 1, classes, cap):
                    return True
                classes[k] = cls
        if len(classes) < cap:
            classes.append(f)
            if fits(t + 1, classes, cap):
                return True
            classes.pop()
        return False

    cap = floor
    while not fits(0, [], cap):
        cap += 1
    return cap


def cs_complexity(sys: LinearFormSystem) -> float:
    """Least s making the system s-complex at every index; INFINITE when two
    forms are scalar multiples of each other (no partition ever avoids both).

    s is the largest minimum class count over the forms, less one (and at
    least 0).  Each form is tested from floor worst + 1, worst the running
    maximum of s: a form whose minimum is at most that cannot raise the
    maximum, so it needs only the first partition into worst + 1 classes
    that the search meets."""
    ranks = sys.subset_ranks
    worst = 0
    for i in range(sys.m):
        k = _min_partition_classes(ranks, sys.m, i, worst + 1)
        if k == INFINITE:
            return INFINITE
        worst = int(k) - 1
    return worst


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
    """(m, M) matrix whose row i is the (k+1)-st power of form i in the
    r = rank C variables of the pivot cut (C = cut T, T onto, so the powers
    keep their relations), one column per monomial y_u1 ... y_u(k+1)
    (u1 <= ... <= u(k+1)), M = C(r + k, k + 1): the cut's columns multiplied,
    mod p after each.  The multinomial factors divide (k+1)!, units mod p
    when p > k + 1, so leaving them out keeps the rank and, on the
    transpose, the pivot columns.  Building and eliminating cost about
    m M (k + 1 + m), refused over budget before allocation."""
    cut, m, p, r = sys.cut, sys.m, sys.p, len(sys.pivots)
    size = math.comb(r + k, k + 1)
    check_budget(m * size * (k + 1 + m),
                 what=f"order-{k + 1} power matrix of {m} x {size}")
    monomials = np.fromiter(
        chain.from_iterable(combinations_with_replacement(range(r), k + 1)),
        dtype=np.intp, count=size * (k + 1)).reshape(size, k + 1)
    P = cut[:, monomials[:, 0]]
    for u in monomials[:, 1:].T:
        P = P * cut[:, u] % p
    return P


def power_independence(sys: LinearFormSystem, k: int) -> bool:
    """Are the (k+1)-st powers of the forms linearly independent over F_p?

    k = 1 is square independence.  Requires p > k+1, so that the power
    matrix's dropped multinomial factors are units mod p.  This is the one
    reader of `_power_matrix`: each order's matrix P is built and eliminated
    once, as rref(P^T), and the pivot columns are kept on the system, the
    forms whose powers lie outside the span of the powers before them; the
    powers are independent when every form is a pivot.  Above an independent
    order the answer is True (independence is monotone in k), with no
    elimination.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if sys.p <= k + 1:
        raise ValueError(f"p={sys.p} too small for power k+1={k + 1}")
    known = sys._power_pivots
    if k not in known and not any(j < k and len(v) == sys.m for j, v in known.items()):
        known[k] = rref(_power_matrix(sys, k).T, sys.p)[1]
    return k not in known or len(known[k]) == sys.m  # absent: independent below k


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
    order-1 pivots `power_independence` keeps, since square i is a pivot
    exactly when it lies outside the span of the squares before it."""
    power_independence(sys, 1)
    return list(sys._power_pivots[1])


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
    """Load a system from a JSON document {p, d, forms, name?, rows?}, at
    modulus p (default the file's own).

    A file marked "rows": "integer", as `save_system` writes, holds the
    integer rows of the forms, which load as the same forms at every
    modulus.  A file without the mark may hold residues mod its own p, as
    files saved without it did, and those are other forms at another
    modulus: such a file loads at its own p only, and another p is refused.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    unmarked = isinstance(doc, dict) and "p" in doc and doc.get("rows") != "integer"
    try:
        own = as_int(doc["p"], f"system file {path}, field 'p',") \
            if p is None or unmarked else int(p)
        d = as_int(doc["d"], f"system file {path}, field 'd',")
        forms = as_int_array(doc["forms"], f"system file {path}, field 'forms',")
        name = str(doc.get("name", ""))
    except KeyError as exc:
        raise ValueError(f"system file {path} missing field {exc}") from exc
    except TypeError as exc:  # not an object, or a null field
        raise ValueError(f"system file {path} is malformed: {exc}") from exc
    if p is not None and p != own:
        raise ValueError(
            f'system file {path} has p = {own} and no "rows": "integer" mark, '
            f"so its forms may be residues mod {own}; it loads at p = {own} "
            f"only, not at p = {p}")
    system = LinearFormSystem(p=own, d=d, coeffs=forms, name=name)
    # true/false among integers pass the dtype test; at most MAX_FORMS rows
    if any(isinstance(c, bool) for row in doc["forms"] for c in row):
        raise ValueError(f"system file {path}, field 'forms', must hold integers "
                         "only, not true/false")
    return system


def save_system(sys: LinearFormSystem, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(sys.to_dict(), fh, indent=1, sort_keys=True)
        fh.write("\n")


def resolve_system(ref: str, p: int) -> LinearFormSystem:
    """Accept a built-in name or a path to a system file."""
    if ref in _BUILTIN_ROWS:
        return builtin_system(ref, p)
    return load_system(ref, p=p)

