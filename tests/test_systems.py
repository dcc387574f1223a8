import json
import math
from itertools import product

import numpy as np
import pytest

from uniformity_lab.algebra import nullspace, rank, rref
from uniformity_lab.systems import (BUILTIN_SYSTEM_NAMES, INFINITE,
                                    LinearFormSystem, builtin_system,
                                    conjectured_true_complexity,
                                    cs_complexity,
                                    load_system, maximal_square_independent_subsystem,
                                    normal_form_check, power_independence,
                                    relation_space, save_system, support,
                                    _BUILTIN_ROWS, _min_partition_classes,
                                    _power_matrix, _rank_table)

import oracles
from ledger import kept_tests, make, random_system, system_with_relations


def is_s_complex_at(sys_, i, s):
    """Can the forms other than form i be split into <= s + 1 classes, none
    of whose spans contains form i?"""
    return _min_partition_classes(sys_.subset_ranks, sys_.m, i) <= s + 1


# ---------------------------------------------------------------- construction

def test_construction_validation():
    with pytest.raises(ValueError):
        make(5, [[1, 0], [1, 0]])          # duplicate forms
    with pytest.raises(ValueError):
        make(5, [[0, 0], [1, 0]])          # zero form
    with pytest.raises(ValueError):
        make(3, [[1, 3]])                  # coefficient magnitude >= p
    with pytest.raises(ValueError):
        make(3, [[1, -3]])
    with pytest.raises(ValueError):
        builtin_system("ap4", 3)           # 4-AP needs p > 3
    with pytest.raises(ValueError):
        LinearFormSystem(p=5, d=1, coeffs=np.array([[i + 1] for i in range(13)]))


def test_support_examples():
    assert support([1, 2, 0]) == {0, 1}
    assert support([1, 2, 3]) == {0, 1, 2}
    nf4 = builtin_system("nf4", 7)
    assert support(nf4.form(0)) == {0, 1, 2}
    assert [support(nf4.form(i)) for i in range(4)] == \
        [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}]


# ---------------------------------------------------------------- complexity

def test_s_complex_examples():
    ap4 = builtin_system("ap4", 5)
    assert is_s_complex_at(ap4, 0, 2)
    assert not is_s_complex_at(ap4, 0, 1)
    diff3 = builtin_system("diff3", 5)
    for i in range(3):
        assert is_s_complex_at(diff3, i, 1)
        assert not is_s_complex_at(diff3, i, 0)


def test_cs_complexity_library_values():
    assert cs_complexity(builtin_system("ap4", 7)) == 2
    assert cs_complexity(builtin_system("gw6a", 5)) == 2
    assert cs_complexity(builtin_system("diff3", 5)) == 1
    assert cs_complexity(builtin_system("nf4", 7)) == 2


def test_ap_systems_have_complexity_k_minus_2():
    for k, p in [(3, 5), (4, 7), (5, 7)]:
        sys_ = builtin_system(f"ap{k}", p)
        assert cs_complexity(sys_) == k - 2


# Two-class splits of the forms other than form i, one per index i, neither
# of whose spans contains form i: each system is 1-complex at every index.
ONE_COMPLEX_WITNESSES = {
    # x, x+y, x+z, x+y+z, x+y-z, x-y+z
    "gw6b": [({1, 3, 4}, {2, 5}), ({0, 4, 5}, {2, 3}), ({0, 4, 5}, {1, 3}),
             ({0, 4, 5}, {1, 2}), ({0, 1}, {2, 3, 5}), ({0, 2}, {1, 3, 4})],
    # x, x+a, x+b, x+c, x+a+b, x+a+c, x+b+c
    "cube7": [({1, 2, 3}, {4, 5, 6}), ({0, 2, 3, 6}, {4, 5}),
              ({0, 1, 3, 5}, {4, 6}), ({0, 1, 2, 4}, {5, 6}),
              ({0, 1, 3, 5}, {2, 6}), ({0, 1, 2, 4}, {3, 6}),
              ({0, 1, 2, 4}, {3, 5})],
}
# Lower bound: target = form 1 + form 2 - form 0, so the single class holding
# every other form spans the target and neither system is 0-complex there.
NOT_ZERO_COMPLEX_RELATIONS = {"gw6b": (3, {1: 1, 2: 1, 0: -1}),
                              "cube7": (4, {1: 1, 2: 1, 0: -1})}


def test_translation_invariant_sixes_are_actually_1_complex():
    for name, splits in ONE_COMPLEX_WITNESSES.items():
        for p in (5, 7):
            sys_ = builtin_system(name, p)
            rows = [list(map(int, r)) for r in sys_.coeffs]
            assert len(splits) == len(rows)
            for i, classes in enumerate(splits):
                assert set().union(*classes) == set(range(len(rows))) - {i}
                assert not set.intersection(*classes)
                for cl in classes:
                    assert not oracles.naive_in_span(
                        rows[i], [rows[j] for j in cl], p)
            target, combo = NOT_ZERO_COMPLEX_RELATIONS[name]
            assert [sum(c * rows[j][u] for j, c in combo.items()) % p
                    for u in range(len(rows[0]))] == \
                [v % p for v in rows[target]]
            assert cs_complexity(sys_) == 1


def test_rank_table_of_no_columns_and_of_one_row():
    for m in range(1, 6):
        assert _rank_table(np.zeros((m, 0), dtype=np.int64), 7) == [0] * 2**m
    assert _rank_table(np.array([[0, 0, 0]]), 7) == [0, 0]
    assert _rank_table(np.array([[0, 3, 1]]), 7) == [0, 1]
    assert _rank_table(np.array([[5]]), 2147483647) == [0, 1]


def random_invertible(rng, p, r):
    while True:
        T = rng.integers(0, p, size=(r, r))
        if rank(T, p) == r:
            return T


@pytest.mark.parametrize("p", [13, 2147483647])
def test_rank_table_is_invariant_under_invertible_column_maps(p):
    """rank[S] depends only on the row space of each subset, so a change of
    coordinates C -> C T (T invertible) keeps the whole table.  C is drawn
    as a product through k = 12, 9, 5 and 2 columns, so that below k = 12
    many subsets carry relations."""
    rng = np.random.default_rng(33)
    for k in (12, 9, 5, 2):
        A = rng.integers(0, p, size=(12, k)).astype(object)
        B = rng.integers(0, p, size=(k, 12)).astype(object)
        C = (A @ B % p).astype(np.int64)
        T = random_invertible(rng, p, 12)
        CT = (C.astype(object) @ T.astype(object) % p).astype(np.int64)
        ranks = _rank_table(C, p)
        assert ranks[-1] == rank(C, p)
        assert ranks == _rank_table(CT, p), (p, k)


def test_rank_table_peak_memory_at_twelve_rows_and_columns():
    import tracemalloc
    C = np.random.default_rng(12).integers(0, 13, size=(12, 12))
    tracemalloc.start()
    try:
        _rank_table(C, 13)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_cut_is_the_read_only_pivot_columns():
    for name in BUILTIN_SYSTEM_NAMES:
        sys_ = builtin_system(name, 7)
        cut = sys_.cut
        assert cut is sys_.cut and not cut.flags.writeable
        if len(sys_.pivots) == sys_.d:
            assert cut is sys_.coeffs
        else:
            assert cut.tolist() == sys_.coeffs[:, list(sys_.pivots)].tolist()
            assert rank(cut, 7) == cut.shape[1] == len(sys_.pivots)
    diff3, nf4 = builtin_system("diff3", 7), builtin_system("nf4", 7)
    assert diff3.cut.tolist() == [[6, 1], [6, 0], [0, 6]]
    assert nf4.pivots == (0, 1) and nf4.cut.tolist() == [[4, 5], [5, 6], [6, 0], [0, 1]]
    with pytest.raises(ValueError, match="read-only"):
        diff3.cut[0, 0] = 1


def rank_deficient_system(rng, p, m):
    """m distinct nonzero forms of a random rank r <= min(4, m), raised where
    p^r - 1 < m, whose d >= r + 1 columns mix r random columns with planted
    combinations of them and zero columns, in shuffled order, so that the
    pivots are not the leading columns; d runs past m, where the rank table
    is read off the cut."""
    r = min(int(rng.integers(1, 5)), m)
    while p**r - 1 < m:
        r += 1
    base = random_system(rng, p, m, r).coeffs
    while rank(base, p) < r:
        base = random_system(rng, p, m, r).coeffs
    columns = [base[:, u] for u in range(r)]
    for _ in range(int(rng.integers(1, m + 3))):
        mix = rng.integers(0, p, size=r) if rng.random() < 0.75 else np.zeros(r, np.int64)
        columns.append(base @ mix % p)
    C = np.stack(columns, axis=1)[:, rng.permutation(len(columns))]
    return LinearFormSystem(p=p, d=C.shape[1], coeffs=C)


def test_rank_table_of_c_is_the_rank_table_of_the_cut():
    """C = cut T with T of full row rank, so every set of forms has one rank
    in C and in the cut: `subset_ranks` (read off C where d <= m, off the cut
    past that) equals the cut's table, and cs_complexity is that of the
    system of the cut forms."""
    rng = np.random.default_rng(36)
    systems = [builtin_system(name, p) for name in ("diff3", "nf4")
               for p in (5, 7, 11, 13, 2147483647)]
    systems += [rank_deficient_system(rng, p, int(rng.integers(2, 13)))
                for p in (5, 7, 11, 13, 2147483647) for _ in range(12)]
    wide = 0
    for sys_ in systems:
        fresh = LinearFormSystem(p=sys_.p, d=sys_.d, coeffs=sys_.coeffs)
        ranks = fresh.subset_ranks
        assert ("pivots" in fresh.__dict__) == (sys_.d > sys_.m)
        wide += sys_.d > sys_.m
        assert len(sys_.pivots) < sys_.d and ranks[-1] == len(sys_.pivots)
        assert ranks == _rank_table(sys_.cut, sys_.p), sys_.coeffs.tolist()
        cut_system = LinearFormSystem(p=sys_.p, d=len(sys_.pivots), coeffs=sys_.cut)
        assert cs_complexity(fresh) == cs_complexity(cut_system), sys_.coeffs.tolist()
    assert len(systems) >= 60 and 0 < wide < len(systems)


def test_complexity_leaves_the_pivots_uncomputed(monkeypatch):
    """`cs_complexity`, the `complexity` command, the dual plan and the cs
    column of `list` read the rank table of C itself, so on a system with no
    more variables than forms none of them eliminates C for its pivots:
    `list` reaches the cut only through its power matrices."""
    from uniformity_lab import cli, systems as systems_module
    rng = np.random.default_rng(360)
    systems = [builtin_system(name, 7) for name in BUILTIN_SYSTEM_NAMES]
    systems += [random_system(rng, p, m, d) for p in (5, 7, 13)
                for m, d in ((6, 3), (9, 4), (12, 5))]
    for sys_ in systems:
        assert cs_complexity(sys_) >= 0
        sys_.dual_plan
        assert "pivots" not in sys_.__dict__ and "cut" not in sys_.__dict__, sys_.name

    resolved, tables = [], []
    resolve, table = cli.resolve_system, systems_module._rank_table

    def spy_resolve(ref, p):
        resolved.append(resolve(ref, p))
        return resolved[-1]

    def spy_table(C, p):
        tables.append(C)
        return table(C, p)

    monkeypatch.setattr(cli, "resolve_system", spy_resolve)
    monkeypatch.setattr(systems_module, "_rank_table", spy_table)
    for name in BUILTIN_SYSTEM_NAMES:
        assert cli.main(["complexity", "--system", name, "--p", "7"]) == 0
        assert "pivots" not in resolved[-1].__dict__, name
    resolved.clear()
    tables.clear()
    assert cli.main(["list", "--p", "7"]) == 0
    assert len(tables) == len(resolved) == len(BUILTIN_SYSTEM_NAMES)
    assert all(C is sys_.coeffs for C, sys_ in zip(tables, resolved))


def test_cs_complexity_at_large_primes():
    # the table and the search hold nothing of size p
    for p in (1000003, 2147483647):
        assert cs_complexity(builtin_system("ap3", p)) == 1
        assert cs_complexity(builtin_system("ap4", p)) == 2
        assert cs_complexity(builtin_system("gw6a", p)) == 2
        assert cs_complexity(builtin_system("cube7", p)) == 1
    rng = np.random.default_rng(21)
    p = 2147483647
    sys_ = random_system(rng, p, 8, 5)
    ranks = sys_.subset_ranks
    for mask, r in enumerate(ranks):
        assert r == rank(sys_.coeffs[[j for j in range(8) if mask >> j & 1]], p)


def test_infinite_complexity_for_parallel_forms():
    sys_ = make(5, [[1, 0], [2, 0]])
    assert cs_complexity(sys_) == INFINITE
    assert not is_s_complex_at(sys_, 0, 3)


def test_complexity_invariance_under_relabelling():
    rng = np.random.default_rng(21)
    base = builtin_system("gw6a", 5)
    cs = cs_complexity(base)
    for _ in range(5):
        perm = rng.permutation(base.m)
        var_perm = rng.permutation(base.d)
        scales = rng.integers(1, base.p, size=base.m)
        rows = (base.coeffs[perm][:, var_perm] * scales[:, None]) % base.p
        assert cs_complexity(LinearFormSystem(p=base.p, d=base.d, coeffs=rows)) == cs


def test_parallel_forms_are_infinite_from_every_floor():
    sys_ = make(5, [[1, 2, 0], [0, 1, 1], [1, 0, 3], [2, 4, 0]])
    ranks = sys_.subset_ranks
    for floor in range(sys_.m + 2):
        for i in (0, 3):  # form 3 = 2 * form 0
            assert _min_partition_classes(ranks, sys_.m, i, floor) == INFINITE
        for i in (1, 2):
            assert _min_partition_classes(ranks, sys_.m, i, floor) == max(floor, 2)
    pair = make(7, [[1, 3], [3, 2]])
    for floor in range(4):
        assert _min_partition_classes(pair.subset_ranks, 2, 0, floor) == INFINITE


def test_cs_complexity_of_twelve_forms_is_the_largest_minimum():
    """At m = 12 the running floor leaves the largest minimum, less one, as
    the complexity, in any order of the forms."""
    rng = np.random.default_rng(36)
    draws = (random_system, lambda *a: system_with_relations(*a)[0])
    values = []
    for p, draw, _ in product((5, 7, 11, 13), draws, range(4)):
        sys_ = draw(rng, p, 12, int(rng.integers(3, 8)))
        minima = [_min_partition_classes(sys_.subset_ranks, 12, i)
                  for i in range(12)]
        want = INFINITE if INFINITE in minima else int(max(minima)) - 1
        cs = cs_complexity(sys_)
        assert cs == want
        for _ in range(3):
            rows = sys_.coeffs[rng.permutation(12)]
            assert cs_complexity(LinearFormSystem(p=p, d=sys_.d, coeffs=rows)) == cs
        values.append(cs)
    finite = [v for v in values if v != INFINITE]
    assert len(finite) >= 16 and len(set(finite)) >= 3


# ---------------------------------------------------------------- normal form

def test_normal_form_examples():
    assert normal_form_check(builtin_system("nf4", 7), 2) is not None
    assert normal_form_check(builtin_system("ap4", 7), 2) is None
    w = normal_form_check(make(5, [[1, 0]]), 0)
    assert w is not None and w.tau == (frozenset({0}),)


def test_normal_form_witness_constraints():
    sys_ = builtin_system("nf4", 7)
    w = normal_form_check(sys_, 2)
    sigmas = [support(sys_.form(i)) for i in range(sys_.m)]
    for i, tau in enumerate(w.tau):
        assert tau <= sigmas[i] and 1 <= len(tau) <= 3
        for j in range(sys_.m):
            if j != i:
                assert not tau <= sigmas[j]


def test_normal_form_implies_complexity_bound():
    for name, p in [("nf4", 7), ("diff3", 5), ("gw6b", 5), ("cube7", 5)]:
        sys_ = builtin_system(name, p)
        for s in range(0, 4):
            if normal_form_check(sys_, s) is not None:
                assert cs_complexity(sys_) <= s


# ----------------------------------------------------- power independence

def test_square_independence_examples():
    assert not power_independence(builtin_system("ap4", 5), 1)
    assert not power_independence(builtin_system("ap4", 7), 1)
    assert power_independence(builtin_system("gw6b", 5), 1)
    assert power_independence(builtin_system("cube7", 5), 1)
    assert power_independence(builtin_system("gw6a", 7), 1)


def test_gw6a_square_dependence_at_p5():
    # Integer identity: -L1^2 + L2^2 + L3^2 - L4^2 + L5^2 + L6^2 = 5*(y - z)^2,
    # so the squares collapse exactly at p = 5 and at no larger prime.
    forms = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, -1], [1, -1, 2]]
    signs = [-1, 1, 1, -1, 1, 1]

    def int_square(g):
        return [g[i] * g[j] * (1 if i == j else 2)
                for i in range(3) for j in range(i, 3)]

    combo = np.sum([s * np.array(int_square(g)) for s, g in zip(signs, forms)],
                   axis=0)
    assert list(combo) == [0, 0, 0, 5, -10, 5]  # i.e. 5*(y - z)^2
    assert not power_independence(builtin_system("gw6a", 5), 1)
    for p in (7, 11, 13):
        assert power_independence(builtin_system("gw6a", p), 1)


def test_power_independence_validation():
    sys_ = builtin_system("ap3", 5)
    with pytest.raises(ValueError):
        power_independence(sys_, 0)
    with pytest.raises(ValueError):
        power_independence(builtin_system("ap3", 5), 4)  # p <= k+1


def _power_cases():
    """The integer rows of every built-in system and of 50 seeded random
    systems with entries in [-2, 2], half of them holding a form and its
    negative (a parallel pair, so that every power is dependent)."""
    cases = [_BUILTIN_ROWS[name][1] for name in BUILTIN_SYSTEM_NAMES]
    rng = np.random.default_rng(17)
    while len(cases) < len(BUILTIN_SYSTEM_NAMES) + 50:
        m, d = int(rng.integers(1, 6)), int(rng.integers(1, 5))
        rows = rng.integers(-2, 3, size=(m, d)).tolist()
        if len(cases) % 2:
            rows.append([-v for v in rows[0]])
        if all(any(r) for r in rows) and len({tuple(r) for r in rows}) == len(rows):
            cases.append(rows)
    return cases


def test_power_matrix_matches_multinomial_rows():
    """The monomial-product power matrix, over the pivot cut's rank C
    variables, against the multinomial coefficient rows over all d
    variables, at every order k with k + 1 < p and k <= m: the same rank,
    and the same pivot columns on the transposes (the forms kept by a greedy
    scan)."""
    dependent = 0
    for rows in _power_cases():
        for p in (5, 7, 11, 13):
            sys_ = make(p, rows)
            for k in range(1, min(sys_.m, p - 2) + 1):
                P = _power_matrix(sys_, k)
                oracle = oracles.naive_power_rows(rows, k, p)
                width = math.comb(len(sys_.pivots) + k, k + 1)
                assert P.shape == (sys_.m, width), (rows, p, k)
                r = oracles.naive_rank(oracle, p)
                assert rank(P, p) == r, (rows, p, k)
                assert rref(P.T, p)[1] == rref(np.array(oracle).T, p)[1], (rows, p, k)
                dependent += r < sys_.m
    assert dependent > 100


def test_power_tests_hand_rref_at_most_m_columns(monkeypatch):
    """The m x M power matrix is eliminated on its narrow side: rref sees at
    most m columns, however many monomials M there are."""
    widths = []

    def spy(M, p):
        widths.append(np.shape(M)[1])
        return rref(M, p)

    monkeypatch.setattr("uniformity_lab.algebra.rref", spy)
    monkeypatch.setattr("uniformity_lab.systems.rref", spy)
    wide = 0
    for name in BUILTIN_SYSTEM_NAMES:
        for k in range(1, builtin_system(name, 13).m + 1):
            # a fresh system per order: one that knows a lower order
            # independent answers without building order k
            sys_ = builtin_system(name, 13)
            widths.clear()
            power_independence(sys_, k)
            assert widths and max(widths) <= sys_.m, (name, k, widths)
            wide += _power_matrix(sys_, k).shape[1] > sys_.m
        widths.clear()
        maximal_square_independent_subsystem(sys_)
        assert widths == [sys_.m], name
    assert wide > 20


def test_conjectured_true_complexity_examples():
    assert conjectured_true_complexity(builtin_system("ap4", 7)) == 2
    assert conjectured_true_complexity(builtin_system("gw6b", 5)) == 1
    assert conjectured_true_complexity(make(5, [[1, 0]])) == 1
    assert conjectured_true_complexity(make(5, [[1], [2]])) is None
    # x + i y (i = 0..11) in 10 variables: powers of 12 binary forms, over
    # a pivot cut of 2 columns; independent from order k + 1 = 11 on
    assert conjectured_true_complexity(
        make(13, [[1, i] + [0] * 8 for i in range(12)])) == 10


def test_power_independence_monotone_on_library():
    for name in ("ap3", "ap4", "ap5", "diff3", "gw6a", "gw6b", "cube7", "nf4"):
        sys_ = builtin_system(name, 7)
        seen_true = False
        for k in (1, 2, 3):
            if sys_.p <= k + 1:
                break
            ok = power_independence(sys_, k)
            if seen_true:
                assert ok
            seen_true = seen_true or ok


def test_power_independence_eliminates_each_order_once(monkeypatch):
    """Asked again, at any order and after the true-complexity search, a
    system builds no power matrix twice, and none above a known independent
    order."""
    build = _power_matrix
    built = []
    monkeypatch.setattr("uniformity_lab.systems._power_matrix",
                        lambda sys_, k: built.append(k) or build(sys_, k))
    for name in BUILTIN_SYSTEM_NAMES:
        sys_ = builtin_system(name, 13)
        true_k = conjectured_true_complexity(sys_)
        assert built == list(range(1, true_k + 1)), name
        for k in range(1, 12):
            power_independence(sys_, k)
        conjectured_true_complexity(sys_)
        assert built == list(range(1, true_k + 1)), name
        built.clear()


@pytest.mark.parametrize("subsystem_first", [False, True])
def test_square_subsystem_reads_the_order_one_pivots(monkeypatch, subsystem_first):
    """Square independence and the maximal square-independent subsystem
    read one order-1 power matrix, built and eliminated once per system
    whichever is asked first; the subsystem is every form exactly when the
    squares are independent."""
    build = _power_matrix
    built = []
    monkeypatch.setattr("uniformity_lab.systems._power_matrix",
                        lambda sys_, k: built.append(k) or build(sys_, k))
    for name in BUILTIN_SYSTEM_NAMES:
        for p in (5, 7, 11):
            sys_ = builtin_system(name, p)
            built.clear()
            if subsystem_first:
                kept = maximal_square_independent_subsystem(sys_)
                independent = power_independence(sys_, 1)
            else:
                independent = power_independence(sys_, 1)
                kept = maximal_square_independent_subsystem(sys_)
            assert built == [1], (name, p)
            assert independent is (kept == list(range(sys_.m))), (name, p)
            assert maximal_square_independent_subsystem(sys_) == kept


def test_maximal_square_independent_subsystem():
    assert maximal_square_independent_subsystem(builtin_system("ap4", 7)) == [0, 1, 2]
    assert maximal_square_independent_subsystem(builtin_system("gw6b", 5)) == \
        list(range(6))
    assert maximal_square_independent_subsystem(make(5, [[1, 0], [2, 0]])) == [0]


# ---------------------------------------------------------------- relations

def test_relation_space_examples():
    W = relation_space(builtin_system("ap4", 7))
    assert W.dim == 2 and len(builtin_system("ap4", 7).pivots) == 2
    assert relation_space(make(5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])).dim == 0
    assert relation_space(make(5, [[1], [2]])).dim == 1


def test_relation_space_vectors_annihilate():
    for name in ("ap3", "ap4", "ap5", "diff3", "gw6a", "gw6b", "cube7", "nf4"):
        sys_ = builtin_system(name, 7)
        W = relation_space(sys_)
        assert W.dim + len(sys_.pivots) == sys_.m
        for mu in W.basis:
            assert not ((mu @ sys_.coeffs) % sys_.p).any()


def test_pivots_and_relations_are_cached_on_a_read_only_system():
    for name in BUILTIN_SYSTEM_NAMES:
        sys_ = builtin_system(name, 7)
        assert sys_.pivots == tuple(rref(sys_.coeffs, 7)[1])
        assert len(sys_.pivots) == oracles.naive_rank(sys_.coeffs.tolist(), 7)
        assert np.array_equal(sys_.relations.basis, nullspace(sys_.coeffs.T, 7))
        assert sys_.pivots is sys_.pivots and relation_space(sys_) is sys_.relations
        # writing into C, or into the cached relation basis, is refused
        with pytest.raises(ValueError, match="read-only"):
            sys_.coeffs[0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            sys_.relations.basis[...] = 0
    # the caller's array is copied, and stays writable
    rows = np.array([[1, 0], [1, 1]])
    make(5, rows)
    rows[0, 0] = 2


# ---------------------------------------------------------------- file format

def test_system_file_roundtrip(tmp_path):
    sys_ = builtin_system("gw6a", 5)
    path = tmp_path / "gw6a.json"
    save_system(sys_, str(path))
    loaded = load_system(str(path))
    assert loaded.p == 5 and loaded.d == 3
    assert np.array_equal(loaded.coeffs, sys_.coeffs)
    reloaded = load_system(str(path), p=7)
    assert reloaded.p == 7


def test_saved_systems_reload_as_the_same_forms_at_every_modulus(tmp_path):
    """A saved system keeps its integer rows, so it reloads at another
    modulus as the built-in at that modulus, not as its residues there."""
    for name in BUILTIN_SYSTEM_NAMES:
        valid = [p for p in (5, 7, 11, 13)
                 if np.abs(builtin_system(name, 13).rows).max() < p]
        for p in valid:
            path = tmp_path / f"{name}_{p}.json"
            save_system(builtin_system(name, p), str(path))
            for q in valid:
                assert np.array_equal(load_system(str(path), p=q).coeffs,
                                      builtin_system(name, q).coeffs), (name, p, q)


def test_saved_system_files_are_marked_as_integer_rows(tmp_path):
    path = tmp_path / "nf4.json"
    save_system(builtin_system("nf4", 7), str(path))
    doc = json.loads(path.read_text())
    assert doc["rows"] == "integer" and doc["forms"] == _BUILTIN_ROWS["nf4"][1]


def test_unmarked_files_load_at_their_own_modulus_only(tmp_path):
    """A file without the "rows": "integer" mark may hold residues mod its p,
    as nf4 saved at p = 7 did before the mark: reloaded at p = 11 those are
    other forms (partition complexity 0, against 2 for the built-in).  Such a
    file loads at its own p, and any other p is refused, naming the file and
    both moduli."""
    residues = builtin_system("nf4", 7).coeffs.tolist()
    path = tmp_path / "nf4_residues.json"
    path.write_text(json.dumps({"p": 7, "d": 4, "forms": residues, "name": "nf4"}))
    assert cs_complexity(make(11, residues)) == 0
    assert cs_complexity(builtin_system("nf4", 11)) == 2
    assert load_system(str(path)).coeffs.tolist() == residues
    assert load_system(str(path), p=7).coeffs.tolist() == residues
    with pytest.raises(ValueError, match=r"nf4_residues\.json has p = 7 .* not at p = 11"):
        load_system(str(path), p=11)
    # a file with no p of its own is read as integer rows at the given p
    path.write_text(json.dumps({"d": 1, "forms": [[1], [2]]}))
    assert load_system(str(path), p=5).coeffs.tolist() == [[1], [2]]


def test_load_rejects_missing_fields(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"p": 5}')
    with pytest.raises(ValueError):
        load_system(str(path))


@pytest.mark.parametrize("text", ['[1, 2]', '"ap3"',
                                  '{"p": null, "d": 1, "forms": [[1]]}',
                                  '{"p": 5, "d": null, "forms": [[1]]}'])
def test_load_rejects_malformed_documents(text, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(text)
    with pytest.raises(ValueError, match="bad.json"):
        load_system(str(path))


@pytest.mark.parametrize("field,value", [("forms", [[1, 0], [1, 1.5], [1, 2]]),
                                         ("forms", [[1, 0], [1, True], [1, 2]]),
                                         ("p", 7.0), ("p", True), ("d", 2.5), ("d", True)])
def test_load_refuses_non_integer_numbers(field, value, tmp_path):
    """A float or true/false where a system file holds integers is refused,
    naming the file and the field: cast, forms [1, 1.5] loaded as ap3's."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 7, "d": 2, "forms": [[1, 0], [1, 1], [1, 2]],
                                field: value}))
    with pytest.raises(ValueError, match=f"bad.json, field '{field}'"):
        load_system(str(path))


# The cross-checks of this module that are rows of tests/ledger.py, under
# their older names.
globals().update(kept_tests(__name__))
