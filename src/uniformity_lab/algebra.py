"""Exact linear algebra over the prime field F_p (p an odd prime).

Scalars are Python ints in [0, p), vectors and matrices are numpy int64
arrays reduced mod p.  Everything here is exact integer arithmetic; no
floating point.  There is one elimination per shape:

- one matrix goes through `rref`, with the first nonzero pivot, so all
  reduced forms are deterministic, and one broadcast product of whole rows
  per pivot: on the small matrices of the complexity invariants its cost is
  the few numpy calls per column, not the arithmetic; `rank` eliminates
  whichever of M and M^T has fewer columns, and `nullspace` and
  `solve_affine` read their answers off the reduced form;
- a (B, d, d) stack of symmetric matrices goes through `_eliminate`, one
  symmetric congruence vectorized over the stack, which gives each matrix's
  rank and discriminant class (`batched_rank_class`), and, with its pivots
  kept to the leading d - 1 rows and columns, those of the quadratic part of
  an affine form with its consistency and constant after completing the
  square (`batched_affine_class`).

`_class_forms` lists one combination of a stack of forms per line of F_p^m,
`_batches` joins its blocks into stacks, and `_line_classes` gives their ranks
and pivot products, the walk other modules read; `_atom_counts` counts the
atoms of a linear map and quadratic forms from the first two in closed form,
summing the terms of the lines of lambda for every cell by the transform
`_radon`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Optional

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

# Classes of lambda per block of `_class_forms`: keeps a (count, d, d) stack
# and its temporaries to a few MB for small d.
CLASS_BLOCK = 1 << 15

# int64 entries one block of lines, or of cosets, of `_atom_counts` holds
ATOM_BLOCK = 1 << 20


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


def as_int(value, what: str) -> int:
    """`value`, as read from JSON, if it is an integer: not a float, a string
    or true/false, which are refused (ValueError naming `what`)."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def as_int_array(value, what: str) -> np.ndarray:
    """`value`, nested lists of integers as read from JSON (or an integer
    array), as an int64 array.  Floats, strings, integers beyond int64 and true/false alone are
    refused (ValueError naming `what`) by the dtype of the array numpy
    builds, so no Python loop visits the entries; numpy reads true/false
    among integers as 1/0.  An empty list gives an empty array."""
    A = np.array(value)
    if A.dtype.kind != "i" and A.size:
        raise ValueError(f"{what} must hold integers only, not {A.dtype} values")
    return A.astype(np.int64)


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

    Per column, one array operation finds the pivot row and one broadcast
    product of whole rows, the column times the scaled pivot row, clears the
    column (the pivot row is then restored); entries stay below p, so each
    product is below (p - 1)^2 < 2^63 (`check_modulus`) and exact in int64."""
    A = as_fp_matrix(M, p)
    rows, cols = A.shape
    pivots: list[int] = []
    for c in range(cols):
        r = len(pivots)
        if r == rows:
            break
        below = A[r:, c].nonzero()[0]
        if not below.size:
            continue
        i = r + below[0]
        if i != r:
            A[[r, i]] = A[[i, r]]
        row = A[r] * inv_mod(A[r, c], p) % p
        A -= A[:, c, None] * row
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


def _diagonal_pivot(A: np.ndarray, c: int, p: int,
                    lead: int | None = None) -> None:
    """Where A[c, c] = 0 but column c has a nonzero entry b = A[i, c] below
    the diagonal (first such i < lead), add t times row and column i to row
    and column c, with t = +-1 chosen so that the new A[c, c] = A[i, i] + 2tb
    is nonzero (both signs give 0 only if 4b = 0).  A congruence by a
    determinant-1 matrix: rank and discriminant class are unchanged."""
    below = A[:, c + 1:lead, c]
    k = np.nonzero((A[:, c, c] == 0) & below.any(axis=1))[0]
    if not k.size:
        return
    i = c + 1 + (below[k] != 0).argmax(axis=1)
    t = np.where((A[k, i, i] + 2 * A[k, i, c]) % p == 0, p - 1, 1)[:, None]
    A[k, c, :] = (A[k, c, :] + t * A[k, i, :]) % p
    A[k, :, c] = (A[k, :, c] + t * A[k, :, i]) % p


def _eliminate(A: np.ndarray, p: int,
               lead: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, pivot product mod p) of a (B, d, d) int64 stack of symmetric
    matrices reduced mod p, which it overwrites; with `lead`, of their
    leading lead x lead blocks, whose pivots alone are taken.

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
    part up to squares.  The trailing rows and columns past `lead` are carried
    through the same row operations, so they end as the Schur complement of
    the pivoted block times the square of the pivot product.
    """
    B, d, _ = A.shape
    lead = d if lead is None else lead
    ranks = np.zeros(B, dtype=np.int64)
    product = np.ones(B, dtype=np.int64)
    for c in range(lead):
        _diagonal_pivot(A, c, p, lead)
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


def _power_mod(a, e: int, p: int) -> np.ndarray:
    """a^e mod p elementwise by repeated squaring in int64 (exact while
    (p - 1)^2 < 2^63)."""
    base = np.asarray(a, dtype=np.int64) % p
    out = np.ones_like(base)
    while e:
        if e & 1:
            out = out * base % p
        base = base * base % p
        e >>= 1
    return out


def _legendre(a, p: int) -> np.ndarray:
    """chi(a) = a^((p-1)/2) mod p as -1, 0 or 1, elementwise."""
    out = _power_mod(a, (p - 1) // 2, p)
    return np.where(out == p - 1, -1, out)


def _matmul_mod(X: np.ndarray, Y: np.ndarray, p: int) -> np.ndarray:
    """X @ Y mod p for int64 arrays of residues (matmul broadcasting), the
    inner sum taken in runs short enough that a partial sum of products, each
    below (p - 1)^2, stays below 2^63, and reduced after each run."""
    run = max(1, (2**63 - p) // (p - 1) ** 2)
    out = X[..., :run] @ Y[..., :run, :] % p
    for lo in range(run, X.shape[-1], run):
        out += X[..., lo:lo + run] @ Y[..., lo:lo + run, :]
        out %= p
    return out


def _symmetric_stack(stack, p: int) -> np.ndarray:
    A = np.asarray(stack, dtype=np.int64) % p
    if A.ndim != 3 or not np.array_equal(A, A.transpose(0, 2, 1)):
        raise ValueError("expected a (B, d, d) stack of symmetric matrices")
    return A


def batched_rank_class(stack, p: int) -> tuple[np.ndarray, np.ndarray]:
    """(ranks, classes) of a (B, d, d) stack of symmetric matrices mod p.

    The class is eps = chi(disc) in {1, -1}: the quadratic character of the
    product of the nonzero diagonal entries of any diagonalization by
    congruence (1 for the zero matrix).  Together with the rank it fixes the
    Gauss sum sum_{y in F_p^d} omega^(y^T M y) = p^(d - r) eps g^r, with g the
    quadratic Gauss sum of F_p.  Exact integer elimination (`_eliminate`).
    """
    ranks, product = _eliminate(_symmetric_stack(stack, p), p)
    return ranks, _legendre(product, p)


def batched_affine_class(stack, p: int):
    """(ranks, classes, consistent, s) of a (B, k+1, k+1) stack of augmented
    forms [[A, beta/2], [beta/2^T, gamma]] mod p, each the matrix of the
    affine form z -> z^T A z + beta^T z + gamma on F_p^k (the entries beta/2
    are residues: 2 is invertible for odd p).

    ranks and classes are those of A (`batched_rank_class`).  consistent
    says whether beta lies in the column space of A; then beta = 2 A y for
    some y, the form is (z + y)^T A (z + y) + s with s = gamma - y^T A y
    (the same for every such y), and its Gauss sum is omega^s p^(k - r) eps
    g^r; otherwise that sum is 0 and s is meaningless.  One `_eliminate`
    with its pivots kept to the leading k rows and columns: a column of A
    left without a pivot meets zeros in A, so beta is consistent exactly when
    every such column is zero in the last row too, and the last diagonal
    entry is s times the square of the pivot product, which one batched
    power (`_power_mod`) divides out.
    """
    A = _symmetric_stack(stack, p)
    k = A.shape[1] - 1
    if k < 0:
        raise ValueError("expected augmented (k+1) x (k+1) matrices")
    ranks, product = _eliminate(A, p, k)
    unpivoted = np.diagonal(A, axis1=1, axis2=2)[:, :k] == 0
    consistent = ~(unpivoted & (A[:, k, :k] != 0)).any(axis=1)
    s = A[:, k, k] * _power_mod(product, p - 3, p) % p
    return ranks, _legendre(product, p), consistent, s


def _class_forms(mats: np.ndarray, p: int,
                 block: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(lambdas, forms) with forms[j] = sum_i lambdas[j, i] mats[i] mod p for
    an (m, d, d) stack `mats`, one lambda on each line of F_p^m, in blocks of
    at most max(block, 1) classes: the lambdas whose first nonzero
    coordinate is 1, in lexicographic order.  Those with leading coordinate
    `lead` range over a product of copies of F_p; a block fixes the first few
    of those coordinates and is the outer sum, over the rest, of the tables
    a -> a mats[k], built one coordinate at a time.  Every entry is a sum of
    at most m residues, reduced mod p once."""
    m, d, _ = mats.shape
    flat = mats.reshape(m, d * d) % p
    multiples = np.arange(p, dtype=np.int64)[:, None, None] * flat % p
    for lead in range(m):
        fixed = lead + 1
        while fixed < m and p ** (m - fixed) > block:
            fixed += 1
        rest = np.indices((p,) * (m - fixed)).reshape(m - fixed, p ** (m - fixed)).T
        for prefix in product(range(p), repeat=fixed - lead - 1):
            acc = flat[lead].copy()
            for k, a in enumerate(prefix, start=lead + 1):
                acc += multiples[a, k]
            acc = acc[None]
            for k in range(fixed, m):
                acc = (acc[:, None] + multiples[:, k]).reshape(-1, d * d)
            acc %= p
            head = np.broadcast_to((0,) * lead + (1,) + prefix, (len(rest), fixed))
            yield np.concatenate([head, rest], axis=1), acc.reshape(-1, d, d)


def _batches(items, limit: int):
    """(tags, stack) for (tag, array) items taken in order: the arrays of
    consecutive items joined into stacks of at most `limit` entries (or one
    item's array where that alone is larger), with those items' tags."""
    tags, held, size = [], [], 0
    for tag, a in items:
        if held and size + a.size > limit:
            yield tags, np.concatenate(held)
            tags, held, size = [], [], 0
        tags.append(tag)
        held.append(a)
        size += a.size
    if held:
        yield tags, np.concatenate(held)


def _line_classes(mats: np.ndarray, p: int, limit: int):
    """(lambdas, ranks, products) of M_lambda = sum_i lambda_i mats[i], for an
    (m, d, d) symmetric stack, per `_class_forms` block of max(1, limit // d^2)
    lines, eliminated in stacks of at most `limit` entries (`_batches`) but
    handed on block by block, so that a float sum over them does not depend
    on the joining.  products are the pivot products mod p of `_eliminate`,
    whose `_legendre` is the class (`batched_rank_class`); a caller that
    reads the ranks alone takes no character."""
    blocks = _class_forms(mats, p, max(1, limit // mats.shape[1] ** 2))
    for lam_blocks, forms in _batches(blocks, limit):
        ranks, product = _eliminate(forms, p)
        cuts = np.cumsum([len(lams) for lams in lam_blocks])[:-1]
        yield from zip(lam_blocks, np.split(ranks, cuts), np.split(product, cuts))


def _radon(g: np.ndarray, p: int) -> np.ndarray:
    """H[b, t, c] = sum over mu in F_p^m of g[b, mu, (t + mu.c) mod p] for a
    (B, p^m, p) array g, mu and c indexed by their digits in base p, as a
    (B, p, p^m) array.  With mu = (mu_1, mu') and c = (c_1, c'), H(t, c) is
    the sum over mu_1 of H_mu_1(t + mu_1 c_1, c'), H_mu_1 the transform of
    g[:, mu_1] in m - 1 coordinates: m p additions per entry of H, where
    summing each entry directly takes p^m."""
    B, lines, _ = g.shape
    if lines == 1:
        return g.reshape(B, p, 1)
    rest = lines // p
    sub = _radon(g.reshape(B * p, rest, p), p).reshape(B, p, p, rest)
    t, c1 = np.arange(p)[:, None], np.arange(p)[None, :]
    out = np.zeros_like(sub)
    for mu1 in range(p):
        out += sub[:, mu1, (t + mu1 * c1 % p) % p]
    return out.reshape(B, p, lines)


def _line_block(d: int) -> int:
    """Lines of lambda per `_class_forms` block whose d x d forms hold at
    most ATOM_BLOCK int64 entries."""
    return max(1, ATOM_BLOCK // d**2)


def atom_count_cost(p: int, n: int, d1: int, d2: int) -> tuple[int, int]:
    """(words, operations) of `_atom_counts` for d1 linear and d2 quadratic
    forms on F_p^n.  words is the int64 words a cell of its histogram takes:
    one while p^(n - d1 + d2), which bounds every partial sum, fits in int64,
    otherwise a pointer and a Python int of that size (24 bytes and 4 per 30
    bits).  operations counts the (lines + 1) p^d1 eliminations of
    (n - d1 + 1)^3, lines = (p^d2 - 1)/(p - 1), and the transform's
    d2 (p + 1) additions per cell and word, plus one per cell for each
    `_class_forms` block beyond one per leading coordinate."""
    k, cells = n - d1, p ** (d1 + d2)
    top = k + d2
    if top < 64 and p**top < 2**63:
        words = 1
    else:
        words = 1 + (24 + 4 * -(-top * p.bit_length() // 30) + 7) // 8
    lines = (p**d2 - 1) // (p - 1)
    blocks = p * lines // _line_block(n + 1)
    return words, ((lines + 1) * p**d1 * (k + 1) ** 3
                   + cells * (words * d2 * (p + 1) + blocks))


def _atom_counts(gamma1: np.ndarray, forms, p: int) -> np.ndarray:
    """Exact counts #{x in F_p^n : gamma1(x) = a, q(x) = c} for a (d1, n)
    matrix gamma1 of full row rank and d2 QuadraticForms q on F_p^n, a
    (p^(d1 + d2),) array indexed by the digits of a, then c, read in base p
    (the atom codes of a quadratic factor), in closed form: no point of F_p^n
    is visited.  The array is int64 where every partial sum fits it, and
    holds Python ints otherwise (`atom_count_cost`), so it is exact at any n.

    In the basis T = [K^T | R] (K the rows of `nullspace(gamma1)`, gamma1 R =
    I) a point is x = K^T z + R a, and the coset gamma1(x) = a is a -> z in
    F_p^k, k = n - d1.  By orthogonality over lambda in F_p^d2, count(a, c)
    p^d2 = p^k + sum over lambda != 0 of the sum over z of omega^(Q(z) -
    lambda.c), with Q = sum_i lambda_i q_i on the coset: the affine form whose
    augmented matrix `batched_affine_class` reads as (r, eps, consistent, s).
    The p - 1 multiples t lambda of one lambda scale Q and lambda.c by t and
    eps by chi(t)^r, so, with e = s - lambda.c, their terms add up to
    g(lambda.c), g(t) = [consistent] eps chi(-1)^ceil(r/2) p^(k - floor(r/2))
    u(s - t), where u(e) = p[e = 0] - 1 for even r and chi(e) for odd r.  One
    lambda on each line comes from `_class_forms`; a block of them is (lead =
    1, mid, mu) with mu over F_p^m, and its sum of g(lambda.c) over the block
    is H(c_lead + mid.c_mid, c_mu), H the transform `_radon` of the block's
    g: (d2 (p + 1)) additions per cell rather than one per cell and line.
    """
    (d1, n), d2 = np.shape(gamma1), len(forms)
    k = n - d1
    cosets, values = p**d1, p**d2
    words = atom_count_cost(p, n, d1, d2)[0]
    exact = np.int64 if words == 1 else object
    counts = np.zeros((cosets, values), dtype=exact)
    if d2:
        top, pivots = rref(np.concatenate([gamma1, np.eye(d1, dtype=np.int64)],
                                          axis=1), p)
        R = np.zeros((n, d1), dtype=np.int64)
        R[pivots] = top[:, n:]
        T = np.concatenate([nullspace(gamma1, p).T, R], axis=1)
        # each form as the augmented (n+1) x (n+1) matrix of (z, a, 1)
        aug_forms = np.zeros((d2, n + 1, n + 1), dtype=np.int64)
        Ms = np.stack([q.M for q in forms])
        aug_forms[:, :n, :n] = _matmul_mod(_matmul_mod(T.T, Ms, p), T, p)
        half_b = np.stack([q.b for q in forms]) * ((p + 1) // 2) % p
        aug_forms[:, :n, n] = aug_forms[:, n, :n] = _matmul_mod(half_b, T, p)
        # v = (a, 1) for every coset a, in the order of the codes
        v = np.ones((cosets, d1 + 1), dtype=np.int64)
        v[:, :d1] = np.indices((p,) * d1).reshape(d1, cosets).T
        chi = _legendre(np.arange(p), p)
        chi_minus_one = 1 if p % 4 == 1 else -1
        scales = np.array([p ** (k - h) for h in range(k // 2 + 1)], dtype=exact)
        per_pair = (k + 1) ** 2 + n + 1 + 4 * p * words

        def coset_forms():
            # ((t, lead, lo, hi, L), stack): a block of lines and of cosets,
            # and the augmented form of every (coset, line) pair in it
            for lams, mats in _class_forms(aug_forms, p, _line_block(n + 1)):
                lead, L = int(np.flatnonzero(lams[0])[0]), len(lams)
                m = 0
                while p**m < L:
                    m += 1
                mid = lams[0, lead + 1:d2 - m]
                c_mid = np.indices((p,) * len(mid)).reshape(len(mid), p ** len(mid)).T
                # t[c_lead, c_mid] = c_lead + mid.c_mid, in the order of the codes
                t = (np.arange(p)[:, None]
                     + _matmul_mod(c_mid, mid[:, None], p)[:, 0]) % p
                step = max(1, ATOM_BLOCK // (L * per_pair + values * words))
                for lo in range(0, cosets, step):
                    va = v[lo:lo + step]
                    mixed = _matmul_mod(mats[:, :, k:], va.T, p)  # (L, n+1, cosets)
                    # Q on coset a is [[A, N_za v], [., v^T N_aa v]]
                    aug = np.empty((len(va), L, k + 1, k + 1), dtype=np.int64)
                    aug[:, :, :k, :k] = mats[:, :k, :k]
                    half_beta = mixed[:, :k].transpose(2, 0, 1)
                    aug[:, :, :k, k] = aug[:, :, k, :k] = half_beta
                    aug[:, :, k, k] = (mixed[:, k:] * va.T % p).sum(axis=1).T % p
                    yield (t, lead, lo, lo + len(va), L), aug.reshape(-1, k + 1, k + 1)

        limit = ATOM_BLOCK * (k + 1) ** 2 // per_pair
        for targets, stack in _batches(coset_forms(), limit):
            r, eps, consistent, s = batched_affine_class(stack, p)
            e = (s[:, None] - np.arange(p)) % p
            u = np.where((r % 2 == 1)[:, None], chi[e], p * (e == 0) - 1)
            weight = consistent * eps * chi_minus_one ** ((r + 1) // 2)
            g = (weight * scales[r // 2])[:, None] * u
            for t, lead, lo, hi, L in targets:
                H = _radon(g[:(hi - lo) * L].reshape(hi - lo, L, p), p)
                cells = counts.reshape(cosets, p**lead, -1)[lo:hi]
                cells += H[:, t].reshape(hi - lo, 1, -1)
                g = g[(hi - lo) * L:]
    counts += p**k
    if (counts % p**d2).any():
        raise ArithmeticError("atom counts are not integers")
    counts //= p**d2
    return counts.ravel()


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
