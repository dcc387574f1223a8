import numpy as np
import pytest

from uniformity_lab.algebra import (QuadraticForm, Subspace,
                                    batched_rank_class, check_modulus,
                                    nullspace, rank, rref, solve_affine)

import oracles


def test_modulus_validation():
    for p in (3, 5, 7, 11):
        assert check_modulus(p) == p
    for bad in (1, 2, 4, 9, 15):
        with pytest.raises(ValueError):
            check_modulus(bad)
    assert check_modulus(2147483647) == 2147483647
    # a prime above 2^32: (p - 1)^2 overflows int64, so elimination is inexact
    with pytest.raises(ValueError, match="3037000499"):
        check_modulus(4294967311)


def test_rank_examples():
    assert rank(np.eye(3, dtype=int), 5) == 3
    assert rank(np.zeros((3, 3), dtype=int), 5) == 0
    assert rank([[1, 2], [2, 4]], 5) == 1


def test_rank_matches_span_enumeration():
    rng = np.random.default_rng(10)
    for _ in range(30):
        p = rng.choice([3, 5])
        rows, cols = rng.integers(1, 4, size=2)
        M = rng.integers(0, p, size=(rows, cols))
        assert rank(M, p) == oracles.span_rank([tuple(r) for r in M], p)


def test_rank_transpose_randomized():
    rng = np.random.default_rng(11)
    for _ in range(100):
        p = int(rng.choice([3, 5, 7]))
        rows, cols = rng.integers(1, 6, size=2)
        M = rng.integers(0, p, size=(rows, cols))
        assert rank(M, p) == rank(M.T, p)


def assert_rref(R, pivots, M, p):
    """R is reduced row echelon with these pivots and spans the rows of M."""
    r = len(pivots)
    assert R.shape == np.shape(M) and not R[r:].any()
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert not R[i, :c].any()
        assert R[:, c].tolist() == [int(j == i) for j in range(R.shape[0])]
    assert oracles.naive_rank(np.concatenate([R[:r], M]), p) == r


def test_rank_and_rref_match_naive_rank():
    """Wide, tall, square and all-zero matrices, rank deficient by repeated
    and combined rows, with entries -1 that must reduce to p - 1, up to
    p = 2^31 - 1, where a product of two residues is close to 2^62."""
    rng = np.random.default_rng(12)
    shapes = [(3, 3), (5, 2), (2, 5), (1, 9), (9, 1), (4, 12), (12, 4), (6, 6)]
    for p in (3, 5, 7, 11, 1000003, 2147483647):
        for rows, cols in shapes:
            for _ in range(4):
                M = rng.integers(0, p, size=(rows, cols))
                M[rng.random(rows) < 0.3] = 0
                M[rng.random((rows, cols)) < 0.1] = -1
                if rows >= 3:
                    M[-1] = (M[0] * (p - 2) + M[1] * 3) % p
                expected = oracles.naive_rank(M.tolist(), p)
                assert rank(M, p) == rank(M.T, p) == expected, (M, p)
                R, pivots = rref(M, p)
                assert len(pivots) == expected
                assert_rref(R, pivots, M % p, p)
            zero = np.zeros((rows, cols), dtype=np.int64)
            assert rank(zero, p) == 0
            R, pivots = rref(zero, p)
            assert pivots == [] and not R.any()
    assert rank(np.zeros((0, 4), dtype=int), 5) == 0
    with pytest.raises(ValueError):
        rank([1, 2, 3], 5)


def symmetric_stack(p, d, count, rng):
    """Random symmetric d x d matrices mod p, led by the zero matrix, a rank-1
    matrix, a zero-diagonal matrix and (for p = 3, where it is one) a matrix
    whose first two diagonal entries cancel the off-diagonal twice over."""
    S = rng.integers(0, p, size=(count, d, d))
    S = (S + S.transpose(0, 2, 1)) % p
    S[0] = 0
    v = rng.integers(1, p, size=d)
    S[1] = np.outer(v, v) % p
    if d >= 2:
        S[2] = 0
        S[2, 0, 1] = S[2, 1, 0] = 1
        S[3, 0, 0] = 0
        S[3, 1, 1] = (-2 * S[3, 0, 1]) % p
        S[4, :, -1] = S[4, -1, :] = 0  # rank deficient
    return S


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_batched_rank_class_gives_gauss_sums(p):
    """G(M) = p^(d - r) eps g^r against a naive enumeration of F_p^d."""
    rng = np.random.default_rng(500 + p)
    g = oracles.naive_gauss_sum([[1]], p)
    for d in (1, 2, 3, 4):
        count = 12 if p**d <= 2401 else 5
        S = symmetric_stack(p, d, count, rng)
        ranks, eps = batched_rank_class(S, p)
        assert ranks.tolist() == [oracles.span_rank(list(M), p) for M in S]
        for M, r, e in zip(S, ranks.tolist(), eps.tolist()):
            assert e in (1, -1)
            expected = p ** (d - r) * e * g**r
            assert abs(oracles.naive_gauss_sum(M, p) - expected) < 1e-6 * p**d, (M, r, e)
    assert [v.tolist() for v in batched_rank_class(np.zeros((2, 0, 0), dtype=int), p)] \
        == [[0, 0], [1, 1]]
    with pytest.raises(ValueError):
        batched_rank_class(np.array([[[0, 1], [0, 0]]]), p)


def test_batched_rank_class_at_large_primes():
    """Symmetric M = X D X^T with X invertible mod p is congruent to D, so its
    rank is the number of nonzero entries of D and its class is chi of their
    product; D's zeros force rank deficiency.  A third of the stack puts a
    hyperbolic plane [[0, 1], [1, 0]] (discriminant -1) at the top of D and
    e_0 as the first row of X, so M[0, 0] = 0 and the diagonal pivot has to
    move.  Entries near 2^31 put each product close to the int64 limit, and
    `rank` (rref through inverses) decides the ranks."""
    rng = np.random.default_rng(13)
    d = 5
    for p in (1000003, 2147483647):
        stack, ranks, classes = [], [], []
        for b in range(30):
            while True:
                X = rng.integers(0, p, size=(d, d))
                if b % 3 == 0:
                    X[0] = np.eye(d, dtype=np.int64)[0]
                if rank(X, p) == d:
                    break
            diag = rng.integers(1, p, size=d) * (rng.random(d) < 0.7)
            D = np.diag(diag)
            # the nonzero diagonal of a diagonalization of D; the plane is
            # congruent to diag(1, -1)
            pivots = [int(x) for x in diag if x]
            if b % 3 == 0:
                D[:2, :2] = [[0, 1], [1, 0]]
                pivots = [1, p - 1] + [int(x) for x in diag[2:] if x]
            M = X.astype(object) @ D.astype(object) @ X.T.astype(object) % p
            stack.append(M.astype(np.int64))
            ranks.append(len(pivots))
            disc = int(np.prod(pivots, dtype=object)) % p
            classes.append(1 if pow(disc, (p - 1) // 2, p) == 1 else -1)
        S = np.array(stack)
        assert (S[::3, 0, 0] == 0).all() and S[::3, 0].any(axis=1).all()
        got_ranks, got_classes = batched_rank_class(S, p)
        assert got_ranks.tolist() == [rank(M, p) for M in S] == ranks
        assert got_classes.tolist() == classes
        assert min(ranks) < d


def test_rref_is_deterministic_and_reduced():
    M = [[0, 2, 1], [3, 1, 4], [3, 3, 0]]
    R1, piv1 = rref(M, 5)
    R2, piv2 = rref(M, 5)
    assert np.array_equal(R1, R2) and piv1 == piv2
    for r, c in enumerate(piv1):
        col = R1[:, c]
        assert col[r] == 1 and (col.sum() == 1)


def test_even_modulus_rejected():
    with pytest.raises(ValueError):
        QuadraticForm(p=2, M=[[1]], b=[0])


def test_polarization_matches_quadratic_exhaustively():
    # the associated bilinear form of q is q.M itself: q(x) = x^T M x for
    # homogeneous q, every point, small domains
    rng = np.random.default_rng(12)
    for p, n in [(3, 4), (5, 2)]:
        M = rng.integers(0, p, size=(n, n))
        M = (M + M.T) % p
        q = QuadraticForm(p=p, M=M, b=np.zeros(n, dtype=int))
        for x in np.ndindex(*(p,) * n):
            xv = np.array(x)
            assert q(xv) == xv @ q.M @ xv % p

    # the defining difference identity with an offset present: the linear
    # part drops out of (q(x + y) - q(x) - q(y)) / 2 = x^T M y
    q = QuadraticForm(p=5, M=[[1, 2], [2, 0]], b=[3, 1])
    inv2 = pow(2, 5 - 2, 5)
    for x in np.ndindex(5, 5):
        for y in np.ndindex(5, 5):
            xv, yv = np.array(x), np.array(y)
            polar = (q((xv + yv) % 5) - q(xv) - q(yv)) * inv2 % 5
            assert polar == xv @ q.M @ yv % 5


def polar_matrix(q):
    """Gram matrix of (q(x + y) - q(x) - q(y)) / 2 on the standard basis."""
    n, p = q.n, q.p
    inv2 = pow(2, p - 2, p)
    e = np.eye(n, dtype=int)
    return np.array([[(q((e[i] + e[j]) % p) - q(e[i]) - q(e[j])) * inv2 % p
                      for j in range(n)] for i in range(n)])


def test_bilinear_of_examples():
    # the associated bilinear form, read off q by polarization, is q.M
    q = QuadraticForm(p=5, M=np.eye(2, dtype=int), b=[0, 0])
    assert np.array_equal(polar_matrix(q), np.eye(2, dtype=int))
    assert np.array_equal(q.M, polar_matrix(q))
    q = QuadraticForm(p=5, M=np.zeros((2, 2), dtype=int), b=[1, 2])
    assert not polar_matrix(q).any() and not q.M.any()
    q = QuadraticForm(p=5, M=[[0, 1], [1, 0]], b=[0, 0])  # q(x) = 2 x1 x2
    assert all(q(np.array(x)) == 2 * x[0] * x[1] % 5 for x in np.ndindex(5, 5))
    assert np.array_equal(polar_matrix(q), [[0, 1], [1, 0]])
    assert np.array_equal(q.M, polar_matrix(q))


def random_basis(rng, p, k, n):
    """k independent random vectors of F_p^n, as rows."""
    while True:
        cand = rng.integers(0, p, size=(k, n))
        if rank(cand, p) == k:
            return cand


def test_restrict_examples():
    # the restriction of x^T M y to W = span(rows of W) is W M W^T in W's
    # basis; its rank is the span rank of those rows
    M = np.eye(4, dtype=int)
    W = np.eye(4, dtype=int)[:2]
    R = W @ M @ W.T % 5
    assert np.array_equal(R, np.eye(2, dtype=int))
    assert oracles.span_rank(list(R), 5) == 2

    full = np.array([[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 2], [0, 0, 0, 1]])
    assert oracles.span_rank(list(full @ M @ full.T % 5), 5) == 4
    # the drop of 2 codim W is reached: x1^2 + x2^2 at p = 5 vanishes on the
    # line spanned by (2, 1), as 4 + 1 = 0, so rank 2 falls to 0 there
    line = np.array([[2, 1]])
    assert rank(line @ np.eye(2, dtype=int) @ line.T % 5, 5) == 0


def test_rank_drop_under_restriction_randomized():
    # restriction to codimension c loses at most 2c of the rank:
    # rank(W M W^T) >= rank M - 2 codim W
    rng = np.random.default_rng(13)
    p = 5
    for _ in range(100):
        n = int(rng.integers(2, 9))
        M = rng.integers(0, p, size=(n, n))
        M = (M + M.T) % p
        k = int(rng.integers(1, n + 1))
        W = random_basis(rng, p, k, n)
        assert rank(W @ M @ W.T % p, p) >= rank(M, p) - 2 * (n - k)


def test_identity_codim1_restriction_keeps_rank_at_least_4():
    rng = np.random.default_rng(14)
    M = np.eye(6, dtype=int)
    for _ in range(20):
        W = random_basis(rng, 5, 5, 6)
        assert rank(W @ M @ W.T % 5, 5) >= 4


def test_solve_affine_examples():
    sol = solve_affine(np.eye(3, dtype=int), [1, 2, 3], 5)
    assert sol.dim == 0 and np.array_equal(sol.offset, [1, 2, 3])

    assert solve_affine(np.zeros((2, 2), dtype=int), [1, 0], 5) is None

    sol = solve_affine([[1, 2], [2, 4]], [1, 2], 5)
    assert sol is not None and sol.dim == 1
    for pt in oracles.subspace_points(sol):
        assert (np.array([[1, 2], [2, 4]]) @ pt % 5 == [1, 2]).all()


def test_solve_affine_full_solution_set():
    rng = np.random.default_rng(15)
    for _ in range(20):
        p = int(rng.choice([3, 5]))
        rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
        M = rng.integers(0, p, size=(rows, cols))
        rhs = rng.integers(0, p, size=rows)
        sol = solve_affine(M, rhs, p)
        brute = {tuple(x) for x in np.ndindex(*(p,) * cols)
                 if ((M @ np.array(x)) % p == rhs % p).all()}
        if sol is None:
            assert not brute
        else:
            assert set(oracles.subspace_points(sol)) == brute


def test_nullspace_vectors_annihilate():
    rng = np.random.default_rng(16)
    for _ in range(20):
        p = int(rng.choice([3, 5, 7]))
        M = rng.integers(0, p, size=(3, 4))
        basis = nullspace(M, p)
        assert basis.shape[0] == 4 - rank(M, p)
        for v in basis:
            assert not ((M @ v) % p).any()


def test_subspace_rejects_dependent_basis():
    with pytest.raises(ValueError):
        Subspace(p=5, ambient=2, basis=[[1, 2], [2, 4]])
