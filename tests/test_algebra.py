import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniformity_lab.algebra import (QuadraticForm, Subspace,
                                    SymmetricBilinearForm, batched_rank,
                                    bilinear_of, check_modulus, in_span,
                                    nullspace, rank, restrict, rref,
                                    solve_affine)

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


def test_batched_rank_matches_span_enumeration():
    rng = np.random.default_rng(12)
    # (B, rows, cols): square, rows > cols, cols > rows, a stack of one
    shapes = [(40, 3, 3), (30, 5, 2), (30, 2, 5), (1, 4, 4), (1, 1, 3), (25, 6, 3)]
    for p in (3, 5, 7, 11):
        for B, rows, cols in shapes:
            stack = rng.integers(0, p, size=(B, rows, cols))
            # zero rows, and entries equal to -1, which must reduce to p - 1
            stack[rng.random((B, rows)) < 0.3] = 0
            stack[rng.random((B, rows, cols)) < 0.1] = -1
            ranks = batched_rank(stack, p)
            assert ranks.shape == (B,)
            assert ranks.tolist() == [oracles.span_rank(list(M), p) for M in stack]
    assert batched_rank(np.zeros((3, 4, 2), dtype=int), 5).tolist() == [0, 0, 0]
    with pytest.raises(ValueError):
        batched_rank(np.eye(3, dtype=int), 5)


def test_batched_rank_at_large_primes():
    # entries up to p - 1 near 2^31, where a*r - b*pivot_row is close to the
    # int64 limit; a third of the rows are combinations of the others, so the
    # ranks fall short of full, and `rank` (rref through inverses) decides
    rng = np.random.default_rng(13)
    for p in (1000003, 2147483647):
        stack = rng.integers(0, p, size=(30, 6, 5))
        stack[:, 4] = (stack[:, 0] * 7 + stack[:, 1] * (p - 3)) % p
        stack[:, 5] = (stack[:, 2] * (p - 1) + stack[:, 4] * 11) % p
        stack[:10, :, 0] = 0
        stack[10:20, 3] = stack[10:20, 2]
        ranks = batched_rank(stack, p).tolist()
        assert ranks == [rank(M, p) for M in stack]
        assert set(ranks) == {3, 4}


def test_in_span_examples():
    assert in_span([1, 1], [[1, 0], [0, 1]], 5)
    assert not in_span([1, 0], [], 5)
    assert in_span([2, 4], [[1, 2]], 5)
    with pytest.raises(ValueError):
        in_span([1, 0, 0], [[1, 2]], 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 3 ** 6 - 1), st.lists(st.integers(0, 3 ** 3 - 1),
                                            max_size=3))
def test_in_span_iff_rank_unchanged(vcode, scodes):
    p, dim = 3, 3
    v = [(vcode // p**j) % p for j in range(dim)]
    S = [[(c // p**j) % p for j in range(dim)] for c in scodes]
    expected = (rank(S + [v], p) == rank(S, p)) if S else not any(v)
    assert in_span(v, S, p) == expected
    assert in_span(v, S, p) == oracles.naive_in_span(v, S, p)


def test_rref_is_deterministic_and_reduced():
    M = [[0, 2, 1], [3, 1, 4], [3, 3, 0]]
    R1, piv1 = rref(M, 5)
    R2, piv2 = rref(M, 5)
    assert np.array_equal(R1, R2) and piv1 == piv2
    for r, c in enumerate(piv1):
        col = R1[:, c]
        assert col[r] == 1 and (col.sum() == 1)


def test_bilinear_of_examples():
    q = QuadraticForm(p=5, M=np.eye(2, dtype=int), b=[0, 0])
    assert np.array_equal(bilinear_of(q).B, np.eye(2, dtype=int))
    q = QuadraticForm(p=5, M=np.zeros((2, 2), dtype=int), b=[1, 2])
    assert not bilinear_of(q).B.any()
    q = QuadraticForm(p=5, M=[[0, 1], [1, 0]], b=[0, 0])  # q(x) = 2 x1 x2
    assert np.array_equal(bilinear_of(q).B, [[0, 1], [1, 0]])


def test_even_modulus_rejected():
    with pytest.raises(ValueError):
        QuadraticForm(p=2, M=[[1]], b=[0])


def test_polarization_matches_quadratic_exhaustively():
    # q(x) = beta(x, x) for homogeneous q; every point, small domains
    rng = np.random.default_rng(12)
    for p, n in [(3, 4), (5, 2)]:
        M = rng.integers(0, p, size=(n, n))
        M = (M + M.T) % p
        q = QuadraticForm(p=p, M=M, b=np.zeros(n, dtype=int))
        beta = bilinear_of(q)
        for x in np.ndindex(*(p,) * n):
            xv = np.array(x)
            assert q(xv) == beta(xv, xv)

    # and the defining difference identity with an offset present
    q = QuadraticForm(p=5, M=[[1, 2], [2, 0]], b=[3, 1])
    beta = bilinear_of(q)
    inv2 = pow(2, 5 - 2, 5)
    for x in np.ndindex(5, 5):
        for y in np.ndindex(5, 5):
            xv, yv = np.array(x), np.array(y)
            polar = (q((xv + yv) % 5) - q(xv) - q(yv)) * inv2 % 5
            assert polar == beta(xv, yv)


def test_restrict_examples():
    B = SymmetricBilinearForm(p=5, B=np.eye(4, dtype=int))
    W = Subspace(p=5, ambient=4, basis=np.eye(4, dtype=int)[:2])
    R = restrict(B, W)
    assert np.array_equal(R.B, np.eye(2, dtype=int)) and R.rank == 2

    full = Subspace(p=5, ambient=4, basis=[[1, 1, 0, 0], [0, 1, 0, 0],
                                           [0, 0, 1, 2], [0, 0, 0, 1]])
    assert restrict(B, full).rank == 4


def test_restrict_rejects_affine():
    B = SymmetricBilinearForm(p=5, B=np.eye(2, dtype=int))
    W = Subspace(p=5, ambient=2, basis=[[1, 0]], offset=[0, 1])
    with pytest.raises(ValueError):
        restrict(B, W)


def test_rank_drop_under_restriction_randomized():
    # restriction to codimension d1 loses at most 2*d1 of the rank
    rng = np.random.default_rng(13)
    p = 5
    for _ in range(100):
        n = int(rng.integers(2, 9))
        M = rng.integers(0, p, size=(n, n))
        B = SymmetricBilinearForm(p=p, B=(M + M.T) % p)
        k = int(rng.integers(1, n + 1))
        basis = None
        while basis is None:
            cand = rng.integers(0, p, size=(k, n))
            if rank(cand, p) == k:
                basis = cand
        W = Subspace(p=p, ambient=n, basis=basis)
        d1 = n - k
        assert restrict(B, W).rank >= B.rank - 2 * d1


def test_identity_codim1_restriction_keeps_rank_at_least_4():
    rng = np.random.default_rng(14)
    B = SymmetricBilinearForm(p=5, B=np.eye(6, dtype=int))
    for _ in range(20):
        basis = None
        while basis is None:
            cand = rng.integers(0, 5, size=(5, 6))
            if rank(cand, 5) == 5:
                basis = cand
        assert restrict(B, Subspace(p=5, ambient=6, basis=basis)).rank >= 4


def test_solve_affine_examples():
    sol = solve_affine(np.eye(3, dtype=int), [1, 2, 3], 5)
    assert sol.dim == 0 and np.array_equal(sol.offset, [1, 2, 3])

    assert solve_affine(np.zeros((2, 2), dtype=int), [1, 0], 5) is None

    sol = solve_affine([[1, 2], [2, 4]], [1, 2], 5)
    assert sol is not None and sol.dim == 1
    for pt in sol.points():
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
            assert {tuple(pt) for pt in sol.points()} == brute


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
