"""Exact linear algebra over the prime field F_p (p an odd prime).

Scalars are Python ints in [0, p), vectors and matrices are numpy int64
arrays reduced mod p.  Everything here is exact integer arithmetic; no
floating point.  There is one elimination per shape:

- one matrix goes through `rref`, with whole-row array operations and the
  first nonzero pivot, so all reduced forms are deterministic; `rank`
  eliminates whichever of M and M^T has fewer columns, and `nullspace` and
  `solve_affine` read their answers off the reduced form;
- a (B, d, d) stack of symmetric matrices goes through `_eliminate`, one
  symmetric congruence vectorized over the stack, which gives each matrix's
  rank and discriminant class (`batched_rank_class`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


# Elimination multiplies two residues below p in int64, which is exact only
# while (p - 1)^2 < 2^63.
_MAX_RESIDUE = math.isqrt(2**63 - 1)


def check_modulus(p: int) -> int:
    """Validate that p is an odd prime with (p - 1)^2 < 2^63; returns p."""
    if p - 1 > _MAX_RESIDUE:
        raise ValueError(f"modulus {p} is too large: int64 elimination needs "
                         f"p - 1 <= isqrt(2^63 - 1) = {_MAX_RESIDUE}")
    if not is_odd_prime(p):
        raise ValueError(f"modulus must be an odd prime, got {p}")
    return p


def inv_mod(a: int, p: int) -> int:
    p = int(p)
    a = int(a) % p
    if a == 0:
        raise ZeroDivisionError("no inverse of 0")
    return pow(a, p - 2, p)


def as_fp_matrix(M, p: int) -> np.ndarray:
    A = np.asarray(M, dtype=np.int64) % p
    if A.ndim != 2:
        raise ValueError("expected a 2-d matrix")
    return A


def as_fp_vector(v, p: int) -> np.ndarray:
    a = np.asarray(v, dtype=np.int64) % p
    if a.ndim != 1:
        raise ValueError("expected a 1-d vector")
    return a


def rref(M, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form and pivot columns, first-nonzero pivoting.

    Per column, one array operation finds the pivot row and one outer product
    of whole rows clears the column (the pivot row is then restored); entries
    stay below p, so each product is below (p - 1)^2 < 2^63 (`check_modulus`)
    and exact in int64."""
    A = as_fp_matrix(M, p)
    rows, cols = A.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = np.flatnonzero(A[r:, c])
        if not below.size:
            continue
        i = r + below[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
        row = A[r] * inv_mod(int(A[r, c]), p) % p
        A -= np.outer(A[:, c], row)
        A %= p
        A[r] = row
        pivots.append(c)
    return A, pivots


def rank(M, p: int) -> int:
    """Rank of M, eliminating whichever of M and M^T has fewer columns."""
    A = np.asarray(M)
    if A.size == 0:
        return 0
    if A.ndim == 2 and A.shape[1] > A.shape[0]:
        A = A.T
    return len(rref(A, p)[1])


def _diagonal_pivot(A: np.ndarray, c: int, p: int) -> None:
    """Where A[c, c] = 0 but column c has a nonzero entry b = A[i, c] below
    the diagonal (first such i), add t times row and column i to row and
    column c, with t = +-1 chosen so that the new A[c, c] = A[i, i] + 2tb is
    nonzero (both signs give 0 only if 4b = 0).  A congruence by a
    determinant-1 matrix: rank and discriminant class are unchanged."""
    below = A[:, c + 1:, c]
    k = np.nonzero((A[:, c, c] == 0) & below.any(axis=1))[0]
    if not k.size:
        return
    i = c + 1 + below[k].argmax(axis=1)
    t = np.where((A[k, i, i] + 2 * A[k, i, c]) % p == 0, p - 1, 1)[:, None]
    A[k, c, :] = (A[k, c, :] + t * A[k, i, :]) % p
    A[k, :, c] = (A[k, :, c] + t * A[k, :, i]) % p


def _eliminate(A: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, pivot product mod p) of a (B, d, d) int64 stack of symmetric
    matrices reduced mod p, which it overwrites.

    One symmetric Gaussian elimination vectorized over the stack, run as a
    congruence A -> E A E^T.  Per column c, `_diagonal_pivot` first puts a
    nonzero entry on the diagonal, so the pivot is a = A[c, c] whenever
    column c is nonzero: the rows above c are finished, and in the congruence
    they are zero in column c (the loop never reads them again).  Each later
    row r becomes a^2 r - ab row_c (b the entry of r in column c): the row
    operation a*r - b*row_c, then the column operation, which meets zeros in
    the pivot column and scales by a once more.  Nothing is inverted, and
    entries stay below p, so the products stay exact in int64 as in `rref`.
    The rows and columns still to be eliminated always hold a congruent image
    of the remaining form, and the pivots are the diagonal of a
    diagonalization: their product is the discriminant of the nondegenerate
    part up to squares.
    """
    B, d, _ = A.shape
    ranks = np.zeros(B, dtype=np.int64)
    product = np.ones(B, dtype=np.int64)
    for c in range(d):
        _diagonal_pivot(A, c, p)
        found = A[:, c, c] != 0
        ranks += found
        scale = np.where(found, A[:, c, c], 1)
        product = product * scale % p
        factor = A[:, c + 1:, c] * scale[:, None] % p
        rest = A[:, c + 1:, c + 1:]
        rest *= (scale * scale % p)[:, None, None]
        rest -= factor[:, :, None] * A[:, c, None, c + 1:]
        rest %= p
    return ranks, product


def _legendre(a, p: int) -> np.ndarray:
    """chi(a) = a^((p-1)/2) mod p as -1, 0 or 1, elementwise by repeated
    squaring in int64 (exact while (p - 1)^2 < 2^63)."""
    base = np.asarray(a, dtype=np.int64) % p
    out = np.ones_like(base)
    e = (p - 1) // 2
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return np.where(out == p - 1, -1, out)


def batched_rank_class(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, classes) of a (B, d, d) stack of symmetric matrices mod p.

    The class is eps = chi(disc) in {1, -1}: the quadratic character of the
    product of the nonzero diagonal entries of any diagonalization by
    congruence (1 for the zero matrix).  Together with the rank it fixes the
    Gauss sum sum_{y in F_p^d} omega^(y^T M y) = p^(d - r) eps g^r, with g the
    quadratic Gauss sum of F_p.  Exact integer elimination (`_eliminate`).
    """
    A = np.asarray(stack, dtype=np.int64) % p
    if A.ndim != 3 or not np.array_equal(A, A.transpose(0, 2, 1)):
        raise ValueError("expected a (B, d, d) stack of symmetric matrices")
    ranks, product = _eliminate(A, p)
    return ranks, _legendre(product, p)


def nullspace(M, p: int) -> np.ndarray:
    """Basis (rows) of {x : Mx = 0}; shape (dim, cols).  Free column f of R
    = rref(M) gives e_f minus column f of R, spread over the pivot columns."""
    R, pivots = rref(M, p)
    free = np.delete(np.arange(R.shape[1]), pivots)
    basis = np.zeros((free.size, R.shape[1]), dtype=np.int64)
    basis[np.arange(free.size), free] = 1
    basis[:, pivots] = -R[:len(pivots), free].T % p
    return basis


@dataclass(frozen=True)
class Subspace:
    """Linear or affine subspace of F_p^n, given by an independent basis.

    `offset` is None for a linear subspace; otherwise the set is
    offset + span(basis).
    """

    p: int
    ambient: int
    basis: np.ndarray  # (dim, ambient)
    offset: Optional[np.ndarray] = None

    def __post_init__(self):
        check_modulus(self.p)
        b = as_fp_matrix(
            self.basis if np.asarray(self.basis).size else
            np.zeros((0, self.ambient), dtype=np.int64), self.p)
        if b.shape[1] != self.ambient:
            raise ValueError("basis vectors do not match ambient dimension")
        if rank(b, self.p) != b.shape[0]:
            raise ValueError("basis vectors are dependent")
        object.__setattr__(self, "basis", b)
        if self.offset is not None:
            object.__setattr__(self, "offset", as_fp_vector(self.offset, self.p))

    @property
    def dim(self) -> int:
        return self.basis.shape[0]


def solve_affine(M, rhs, p: int) -> Optional[Subspace]:
    """Solution set of Mx = rhs as an affine Subspace, or None if inconsistent."""
    A = as_fp_matrix(M, p)
    b = as_fp_vector(rhs, p)
    rows, cols = A.shape
    if b.shape[0] != rows:
        raise ValueError("dimension mismatch")
    aug = np.concatenate([A, b[:, None]], axis=1)
    R, pivots = rref(aug, p)
    if cols in pivots:
        return None
    x0 = np.zeros(cols, dtype=np.int64)
    x0[pivots] = R[:len(pivots), cols]
    return Subspace(p=p, ambient=cols, basis=nullspace(A, p), offset=x0)


@dataclass(frozen=True)
class QuadraticForm:
    """q(x) = x^T M x + b^T x with M symmetric over F_p.

    Its polarization (q(x + y) - q(x) - q(y)) / 2 is x^T M y (p odd), so M
    is also its associated symmetric bilinear form."""

    p: int
    M: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        check_modulus(self.p)
        M = as_fp_matrix(self.M, self.p)
        if M.shape[0] != M.shape[1]:
            raise ValueError("quadratic form matrix must be square")
        if not np.array_equal(M, M.T):
            raise ValueError("quadratic form matrix must be symmetric")
        b = as_fp_vector(self.b, self.p)
        if b.shape[0] != M.shape[0]:
            raise ValueError("offset length must match matrix size")
        object.__setattr__(self, "M", M)
        object.__setattr__(self, "b", b)

    @property
    def n(self) -> int:
        return self.M.shape[0]

    def __call__(self, x) -> int:
        x = as_fp_vector(x, self.p)
        return int((x @ self.M @ x + self.b @ x) % self.p)

    @property
    def rank(self) -> int:
        return rank(self.M, self.p)
