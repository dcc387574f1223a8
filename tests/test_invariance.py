"""Metamorphic checks: an invertible change of variables x = T y, T in
GL_d(F_p), replaces the coefficient matrix C by C T and describes the same
configurations, so every count and every invariant of the system stays put.
Reordering the forms leaves the partition complexity put as well."""

import numpy as np

from uniformity_lab.counting import average_product_direct, count_solutions
from uniformity_lab.domains import domain
from uniformity_lab.functions import GroupFunction, IndicatorSet
from uniformity_lab.systems import (INFINITE, LinearFormSystem,
                                    cs_complexity, power_independence,
                                    relation_space)

import oracles


def random_rows(rng, p, m, d):
    """m distinct nonzero forms in d variables over F_p."""
    while True:
        C = rng.integers(0, p, size=(m, d))
        if C.any(axis=1).all() and len({tuple(r) for r in C}) == m:
            return C


def random_invertible(rng, p, d):
    while True:
        T = rng.integers(0, p, size=(d, d))
        if oracles.span_rank([tuple(r) for r in T], p) == d:
            return T


def test_change_of_variables_leaves_counts_and_invariants_unchanged():
    rng = np.random.default_rng(48)
    # (p, n, d, m): at most 15,625 assignments per count
    shapes = [(3, 2, 2, 3), (3, 1, 3, 5), (5, 1, 2, 4), (5, 2, 2, 4),
              (5, 1, 3, 6), (5, 2, 3, 5), (7, 1, 2, 5), (7, 1, 3, 4),
              (3, 2, 3, 6), (7, 2, 2, 3)]
    changed = 0
    for p, n, d, m in shapes:
        C = random_rows(rng, p, m, d)
        T = random_invertible(rng, p, d)
        sys_ = LinearFormSystem(p=p, d=d, coeffs=C)
        moved = LinearFormSystem(p=p, d=d, coeffs=C @ T % p)
        changed += not np.array_equal(sys_.coeffs, moved.coeffs)
        dom = domain(p, n)
        A = IndicatorSet(domain=dom, members=rng.random(dom.size) < 0.7)
        fs = [GroupFunction(domain=dom, values=rng.uniform(-1, 1, dom.size) +
                            1j * rng.uniform(-1, 1, dom.size))
              for _ in range(m)]
        assert count_solutions(moved, A, with_degenerate=True) == \
            count_solutions(sys_, A, with_degenerate=True)
        assert abs(average_product_direct(moved, fs) -
                   average_product_direct(sys_, fs)) < 1e-12
        assert cs_complexity(moved) == cs_complexity(sys_)
        assert power_independence(moved, 1) == power_independence(sys_, 1)
        assert relation_space(moved).dim == relation_space(sys_).dim
    assert changed == len(shapes)


def test_complexity_at_catalog_size_is_invariant():
    """m = 12 forms in d = 5 variables at p = 7, the largest shape the
    catalog searches: neither a change of variables nor a permutation of the
    forms may move the partition complexity."""
    rng = np.random.default_rng(49)
    p, m, d = 7, 12, 5
    C = random_rows(rng, p, m, d)
    cs = cs_complexity(LinearFormSystem(p=p, d=d, coeffs=C))
    assert cs not in (0, INFINITE)
    for _ in range(2):
        T = random_invertible(rng, p, d)
        assert cs_complexity(LinearFormSystem(p=p, d=d, coeffs=C @ T % p)) == cs
        perm = rng.permutation(m)
        assert not np.array_equal(perm, np.arange(m))
        assert cs_complexity(LinearFormSystem(p=p, d=d, coeffs=C[perm])) == cs
