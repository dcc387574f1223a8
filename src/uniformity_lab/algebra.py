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

_SMALL_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


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


def batched_rank(stack, p: int) -> np.ndarray:
    """Ranks of a (B, rows, cols) stack of matrices, shape (B,).

    One Gaussian elimination vectorized over the stack: per column, the first
    unused row with a nonzero entry becomes the pivot, and each other unused
    row r is replaced by a*r - b*pivot_row (a the pivot entry, b the entry of
    r), which clears the column without inverting anything and scales r by a
    nonzero a.  Entries stay below p, so the products stay exact in int64 as
    in `rref`.  Worth it for many small matrices; `rank` stays the path for a
    single one.
    """
    A = np.asarray(stack, dtype=np.int64) % p
    if A.ndim != 3:
        raise ValueError("expected a (B, rows, cols) stack")
    B, rows, cols = A.shape
    ranks = np.zeros(B, dtype=np.int64)
    unused = np.ones((B, rows), dtype=bool)
    batch = np.arange(B)
    for c in range(cols):
        candidates = unused & (A[:, :, c] != 0)
        found = candidates.any(axis=1)
        pivot = candidates.argmax(axis=1)
        unused[batch, pivot] &= ~found
        ranks += found
        rest = A[:, :, c + 1:]
        row = rest[batch, pivot]
        scale = np.where(found, A[batch, pivot, c], 1)
        factor = A[:, :, c] * unused
        rest *= scale[:, None, None]
        rest -= factor[:, :, None] * row[:, None, :]
        rest %= p
    return ranks


def in_span(v, vectors, p: int) -> bool:
    """True iff v lies in the F_p-span of the given vectors."""
    v = as_fp_vector(v, p)
    if len(vectors) == 0:
        return not v.any()
    S = as_fp_matrix(np.vstack([as_fp_vector(w, p) for w in vectors]), p)
    if S.shape[1] != v.shape[0]:
        raise ValueError("dimension mismatch")
    R, pivots = rref(S, p)
    # reduce v against the echelon rows
    res = v.copy()
    for r, c in enumerate(pivots):
        if res[c] != 0:
            res = (res - res[c] * R[r]) % p
    return not res.any()


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

    @property
    def is_affine(self) -> bool:
        return self.offset is not None and bool(self.offset.any())

    def contains(self, v) -> bool:
        v = as_fp_vector(v, self.p)
        if self.offset is not None:
            v = (v - self.offset) % self.p
        return in_span(v, list(self.basis), self.p)

    def points(self) -> np.ndarray:
        """All points, enumerated over basis coefficients; small dims only."""
        k = self.dim
        count = self.p**k
        coeffs = (np.arange(count)[:, None] //
                  self.p ** np.arange(k - 1, -1, -1)[None, :]) % self.p
        pts = coeffs @ self.basis % self.p if k else np.zeros((1, self.ambient), dtype=np.int64)
        if self.offset is not None:
            pts = (pts + self.offset) % self.p
        return pts % self.p


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
    """q(x) = x^T M x + b^T x with M symmetric over F_p."""

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


@dataclass(frozen=True)
class SymmetricBilinearForm:
    """beta(x, y) = x^T B y with B symmetric over F_p."""

    p: int
    B: np.ndarray

    def __post_init__(self):
        check_modulus(self.p)
        B = as_fp_matrix(self.B, self.p)
        if B.shape[0] != B.shape[1] or not np.array_equal(B, B.T):
            raise ValueError("bilinear form matrix must be square symmetric")
        object.__setattr__(self, "B", B)

    @property
    def n(self) -> int:
        return self.B.shape[0]

    def __call__(self, x, y) -> int:
        x = as_fp_vector(x, self.p)
        y = as_fp_vector(y, self.p)
        return int((x @ self.B @ y) % self.p)

    @property
    def rank(self) -> int:
        return rank(self.B, self.p)


def bilinear_of(q: QuadraticForm) -> SymmetricBilinearForm:
    """Polarization (q(x+y) - q(x) - q(y)) / 2; the linear part drops out.

    For q(x) = x^T M x + b^T x with M symmetric this is exactly x^T M y,
    so the associated form is M itself.  Defined only for odd p.
    """
    return SymmetricBilinearForm(p=q.p, B=q.M)


def restrict(form: SymmetricBilinearForm, W: Subspace) -> SymmetricBilinearForm:
    """Restriction of the form to a linear subspace, in its basis coordinates."""
    if W.is_affine:
        raise ValueError("cannot restrict a bilinear form to an affine subspace")
    if W.ambient != form.n or W.p != form.p:
        raise ValueError("subspace does not match form")
    B = W.basis @ form.B @ W.basis.T % form.p
    # force exact symmetry after the mod reduction (it already is, by construction)
    return SymmetricBilinearForm(p=form.p, B=B)
