"""Exact linear algebra over the prime field F_p (p an odd prime).

Scalars are Python ints in [0, p), vectors and matrices are numpy int64
arrays reduced mod p.  Everything here is exact integer arithmetic; no
floating point.  Gaussian elimination uses the first nonzero pivot, so all
reduced forms are deterministic.
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
    """Reduced row echelon form and pivot columns, first-nonzero pivoting."""
    A = as_fp_matrix(M, p).copy()
    rows, cols = A.shape
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        pivot = -1
        for i in range(r, rows):
            if A[i, c] != 0:
                pivot = i
                break
        if pivot == -1:
            continue
        if pivot != r:
            A[[r, pivot]] = A[[pivot, r]]
        A[r] = (A[r] * inv_mod(int(A[r, c]), p)) % p
        for i in range(rows):
            if i != r and A[i, c] != 0:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A, pivots


def rank(M, p: int) -> int:
    if np.asarray(M).size == 0:
        return 0
    return len(rref(M, p)[1])


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


def _eliminate(A: np.ndarray, p: int, symmetric: bool) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, pivot product mod p) of a (B, rows, cols) int64 stack reduced
    mod p, which it overwrites.

    One Gaussian elimination vectorized over the stack: per column, the first
    unused row with a nonzero entry becomes the pivot, and each other unused
    row r is replaced by a*r - b*pivot_row (a the pivot entry, b the entry of
    r), which clears the column without inverting anything and scales r by a
    nonzero a.  Entries stay below p, so the products stay exact in int64 as
    in `rref`.

    With `symmetric`, the stack is square and symmetric and the elimination
    is a congruence A -> E A E^T: `_diagonal_pivot` first puts a nonzero
    entry on the diagonal, so the pivot of column c is row c, and the column
    operations, which meet zeros in the pivot column, scale the rest by a
    once more (so r becomes a^2 r - ab pivot_row).  The rows and columns still
    to be eliminated then always hold a congruent image of the remaining form,
    and the pivots are the diagonal of a diagonalization: their product is the
    discriminant of the nondegenerate part up to squares.
    """
    B, rows, cols = A.shape
    ranks = np.zeros(B, dtype=np.int64)
    product = np.ones(B, dtype=np.int64)
    unused = np.ones((B, rows), dtype=bool)
    batch = np.arange(B)
    for c in range(cols):
        if symmetric:
            _diagonal_pivot(A, c, p)
        candidates = unused & (A[:, :, c] != 0)
        found = candidates.any(axis=1)
        pivot = candidates.argmax(axis=1)
        unused[batch, pivot] &= ~found
        ranks += found
        # in symmetric mode the pivot is row c (copied into `row` below), and
        # it and the rows above it are finished: nothing reads them again
        top = c + 1 if symmetric else 0
        rest = A[:, top:, c + 1:]
        row = A[batch, pivot, c + 1:]
        scale = np.where(found, A[batch, pivot, c], 1)
        factor = A[:, top:, c] * unused[:, top:]
        if symmetric:
            factor = factor * scale[:, None] % p
            product *= scale
            product %= p
            scale = scale * scale % p
        rest *= scale[:, None, None]
        rest -= factor[:, :, None] * row[:, None, :]
        rest %= p
    return ranks, product


def batched_rank(stack, p: int) -> np.ndarray:
    """Ranks of a (B, rows, cols) stack of matrices, shape (B,), by one
    elimination vectorized over the stack (`_eliminate`).  Worth it for many
    small matrices; `rank` stays the path for a single one."""
    A = np.asarray(stack, dtype=np.int64) % p
    if A.ndim != 3:
        raise ValueError("expected a (B, rows, cols) stack")
    return _eliminate(A, p, symmetric=False)[0]


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
    ranks, product = _eliminate(A, p, symmetric=True)
    return ranks, _legendre(product, p)


def nullspace(M, p: int) -> np.ndarray:
    """Basis (rows) of {x : Mx = 0}; shape (dim, cols)."""
    A = as_fp_matrix(M, p)
    rows, cols = A.shape
    if rows == 0:
        return np.eye(cols, dtype=np.int64)
    R, pivots = rref(A, p)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for r, c in enumerate(pivots):
            basis[k, c] = (-R[r, fc]) % p
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
    for r, c in enumerate(pivots):
        x0[c] = R[r, cols]
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
