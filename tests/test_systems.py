import math

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
                                    _power_matrix)

import oracles


def is_s_complex_at(sys_, i, s):
    """Can the forms other than form i be split into <= s + 1 classes, none
    of whose spans contains form i?"""
    return _min_partition_classes(sys_.subset_ranks, sys_.m, i) <= s + 1


def make(p, rows):
    return LinearFormSystem(p=p, d=len(rows[0]), coeffs=np.array(rows))


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


def random_system(rng, p, m, d):
    rows, seen = [], set()
    while len(rows) < m:
        r = tuple(int(v) for v in rng.integers(0, p, size=d))
        if any(r) and r not in seen:
            seen.add(r)
            rows.append(list(r))
    return make(p, rows)


def test_cs_complexity_matches_brute_force():
    rng = np.random.default_rng(20)
    systems = [builtin_system(n, 5)
               for n in ("ap3", "ap4", "diff3", "gw6b", "cube7")]
    for _ in range(10):
        p = int(rng.choice([3, 5]))
        systems.append(random_system(rng, p, int(rng.integers(2, 5)),
                                     int(rng.integers(2, 4))))
    for p in (3, 5, 7):
        for _ in range(3):
            systems.append(random_system(rng, p, 5, int(rng.integers(2, 4))))
    # d > m: rref keeps 3 and 4 of the 6 columns (form 2 = form 0 + form 1 in
    # the first), and no subset's rank may change with the others dropped
    systems.append(make(7, [[1, 0, 2, 0, 3, 1], [0, 1, 1, 4, 0, 2],
                            [1, 1, 3, 4, 3, 3], [2, 5, 0, 1, 6, 0]]))
    systems.append(make(5, [[1, 2, 0, 3, 4, 1], [0, 0, 1, 2, 2, 3],
                            [3, 1, 4, 0, 1, 2], [1, 0, 0, 0, 0, 4]]))
    # a parallel pair (form 3 = 2 * form 0) makes the system INFINITE
    systems.append(make(5, [[1, 2, 0], [0, 1, 1], [1, 0, 3], [2, 4, 0]]))
    infinite = 0
    for sys_ in systems:
        rows = [list(map(int, r)) for r in sys_.coeffs]
        per_index = [oracles.brute_min_classes(rows, i, sys_.p)
                     for i in range(sys_.m)]
        brute = max(per_index)
        expected = INFINITE if math.isinf(brute) else max(int(brute) - 1, 0)
        assert cs_complexity(sys_) == expected
        infinite += math.isinf(brute)
        for i, k in enumerate(per_index):
            if math.isinf(k):
                assert not is_s_complex_at(sys_, i, sys_.m)
                continue
            if k >= 2:
                assert not is_s_complex_at(sys_, i, int(k) - 2)
            if k >= 1:
                assert is_s_complex_at(sys_, i, int(k) - 1)
    assert infinite >= 1


def system_with_relations(rng, p, m, d):
    """A random system in which about a third of the forms are forced
    combinations of one to three earlier forms; returns it and the list of
    (form, the earlier forms it combines)."""
    rows, seen, relations = [], set(), []
    while len(rows) < m:
        sources = []
        if rows and rng.random() < 0.35:
            sources = sorted(rng.choice(len(rows), size=min(len(rows), int(
                rng.integers(1, 4))), replace=False).tolist())
            coeffs = rng.integers(1, p, size=len(sources)).tolist()
            row = tuple(sum(c * rows[i][u] for c, i in zip(coeffs, sources)) % p
                        for u in range(d))
        else:
            row = tuple(int(v) for v in rng.integers(0, p, size=d))
        if any(row) and row not in seen:
            if sources:
                relations.append((len(rows), sources))
            seen.add(row)
            rows.append(list(row))
    return make(p, rows), relations


def test_subset_rank_table_matches_span_enumeration():
    for name in ("gw6a", "cube7"):
        sys_ = builtin_system(name, 5)
        rows = [list(map(int, r)) for r in sys_.coeffs]
        ranks = sys_.subset_ranks
        assert len(ranks) == 2 ** sys_.m
        for mask, r in enumerate(ranks):
            subset = [rows[j] for j in range(sys_.m) if mask >> j & 1]
            assert r == oracles.span_rank(subset, 5)
    # seeded random systems with forced dependencies: every mask for m <= 6,
    # else 48 random masks, the full mask and each relation's masks.  A span
    # of at most 27 points is listed (`span_rank`); larger ones are reduced
    # by `naive_rank`.
    rng = np.random.default_rng(15)
    for p in (3, 5, 7, 11, 13, 2147483647):
        for m in range(1, 13):
            d = int(rng.integers(1, 14))
            while p**d <= m:
                d += 1
            sys_, relations = system_with_relations(rng, p, m, d)
            rows = [list(map(int, r)) for r in sys_.coeffs]
            ranks = sys_.subset_ranks
            assert len(ranks) == 2**m
            masks = set(range(2**m)) if m <= 6 else \
                set(rng.integers(0, 2**m, size=48).tolist()) | {2**m - 1}
            for j, sources in relations:
                below = sum(1 << i for i in sources)
                masks |= {below, below | 1 << j}
            for mask in sorted(masks):
                subset = [rows[j] for j in range(m) if mask >> j & 1]
                want = oracles.span_rank(subset, p) \
                    if p ** min(len(subset), d) <= 27 else oracles.naive_rank(subset, p)
                assert ranks[mask] == want, (p, m, d, mask)
            for j, sources in relations:
                below = sum(1 << i for i in sources)
                assert ranks[below | 1 << j] == ranks[below], (p, m, j)


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


def test_square_independence_matches_matrix_oracle():
    rng = np.random.default_rng(22)
    cases = [builtin_system(n, 7).coeffs for n in
             ("ap3", "ap4", "gw6a", "gw6b", "cube7", "diff3")]
    for _ in range(10):
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        cases.append(rng.integers(0, 5, size=(m, d)))
    for rows in cases:
        for p in (5, 7):
            rows_l = [list(map(int, r)) for r in rows]
            if not all(any(v % p for v in r) for r in rows_l):
                continue
            seen = {tuple(v % p for v in r) for r in rows_l}
            if len(seen) < len(rows_l):
                continue
            sys_ = LinearFormSystem(p=p, d=len(rows_l[0]),
                                    coeffs=np.array(rows_l) % p)
            assert power_independence(sys_, 1) == \
                oracles.naive_square_matrices_independent(rows_l, p)


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
    """The monomial-product power matrix against the multinomial coefficient
    rows, at every order k with k + 1 < p and k <= m: the same rank, and the
    same pivot columns on the transposes (the forms kept by a greedy scan)."""
    dependent = 0
    for rows in _power_cases():
        for p in (5, 7, 11, 13):
            sys_ = make(p, rows)
            for k in range(1, min(sys_.m, p - 2) + 1):
                P = _power_matrix(sys_, k)
                oracle = oracles.naive_power_rows(rows, k, p)
                assert P.shape == (sys_.m, len(oracle[0])), (rows, p, k)
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
        sys_ = builtin_system(name, 13)
        for k in range(1, sys_.m + 1):
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


def test_maximal_square_independent_subsystem():
    assert maximal_square_independent_subsystem(builtin_system("ap4", 7)) == [0, 1, 2]
    assert maximal_square_independent_subsystem(builtin_system("gw6b", 5)) == \
        list(range(6))
    assert maximal_square_independent_subsystem(make(5, [[1, 0], [2, 0]])) == [0]


@pytest.mark.parametrize("p", [5, 7])
def test_maximal_square_independent_subsystem_matches_greedy_oracle(p):
    # greedy lowest-index-first over the flattened gamma gamma^T, a form kept
    # when its square is outside the span of the kept ones (span enumeration)
    rng = np.random.default_rng(30 + p)
    checked = 0
    while checked < 25:
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        rows = [[int(v) for v in r] for r in rng.integers(0, p, size=(m, d))]
        if not all(any(r) for r in rows) or len({tuple(r) for r in rows}) < m:
            continue
        squares = [(np.outer(r, r) % p).ravel() for r in rows]
        kept = []
        for i, sq in enumerate(squares):
            if not oracles.naive_in_span(sq, [squares[j] for j in kept], p):
                kept.append(i)
        assert maximal_square_independent_subsystem(make(p, rows)) == kept, rows
        checked += 1


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
