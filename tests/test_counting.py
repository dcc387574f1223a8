import threading
import time
from fractions import Fraction

import numpy as np
import pytest

from uniformity_lab import counting
from uniformity_lab.algebra import QuadraticForm, is_odd_prime
from uniformity_lab.budget import DEFAULT_BUDGET, BudgetExceededError
from uniformity_lab.counting import (average_product_direct,
                                     average_product_dual, count_solutions,
                                     quadratic_average, quadratic_zero_count)
from uniformity_lab.domains import domain
from uniformity_lab.functions import GroupFunction, IndicatorSet, balanced
from uniformity_lab.systems import BUILTIN_SYSTEM_NAMES, _rank_table, builtin_system
from uniformity_lab.verification import (QuadraticFactor, QuadraticMap,
                                         quadratic_zero_set,
                                         verify_completefactor,
                                         verify_quadfactor)

import oracles
from ledger import (dual_cases, exactness_cases, kept_tests, make, naive_dual_sum,
                    random_functions, random_structured_system)


def test_all_ones_gives_one():
    dom = domain(5, 1)
    ones = [GroupFunction.constant(dom, 1.0)] * 3
    sys_ = builtin_system("ap3", 5)
    assert abs(average_product_direct(sys_, ones) - 1) < 1e-12
    assert abs(average_product_dual(sys_, ones) - 1) < 1e-12


def test_single_form_average_is_mean():
    dom = domain(5, 2)
    rng = np.random.default_rng(40)
    f = random_functions(dom, rng, 1)[0]
    sys_ = make(5, [[1]])
    assert abs(average_product_direct(sys_, [f]) - f.values.mean()) < 1e-12


def test_three_ap_balanced_hand_value():
    # A = {0, 1} in F_5: two progressions (both degenerate), so the balanced
    # average is 2/25 - (2/5)^3 = 2/125
    dom = domain(5, 1)
    A = IndicatorSet.from_member_vectors(dom, [[0], [1]])
    f = balanced(A)
    sys_ = builtin_system("ap3", 5)
    direct = average_product_direct(sys_, [f] * 3)
    assert abs(direct - Fraction(2, 125)) < 1e-12
    naive = oracles.naive_average_product(
        [[1, 0], [1, 1], [1, 2]], 5, 1, [f.values] * 3)
    assert abs(direct - naive) < 1e-12
    count, degenerate = count_solutions(sys_, A, with_degenerate=True)
    assert count == 2 and degenerate == 2  # degenerate tuples are counted


def test_direct_equals_dual_on_random_instances():
    rng = np.random.default_rng(41)
    for _ in range(10):
        p = int(rng.choice([3, 5]))
        dom = domain(p, int(rng.integers(1, 3)))
        sys_ = builtin_system(str(rng.choice(["ap3", "diff3"])), p)
        fs = random_functions(dom, rng, sys_.m)
        direct = average_product_direct(sys_, fs)
        dual = average_product_dual(sys_, fs)
        assert abs(direct - dual) < 1e-8


def test_independent_forms_dual_is_product_of_means():
    rng = np.random.default_rng(43)
    dom = domain(3, 2)
    sys_ = make(3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    fs = random_functions(dom, rng, 3)
    expected = np.prod([f.values.mean() for f in fs])
    assert abs(average_product_dual(sys_, fs) - expected) < 1e-12
    assert abs(average_product_direct(sys_, fs) - expected) < 1e-12


def test_multilinearity_in_a_slot():
    rng = np.random.default_rng(44)
    dom = domain(3, 2)
    sys_ = builtin_system("ap3", 3)
    f0, g, h = random_functions(dom, rng, 3)
    combined = GroupFunction(domain=dom, values=g.values + h.values)
    lhs = average_product_direct(sys_, [f0, combined, f0])
    rhs = average_product_direct(sys_, [f0, g, f0]) + \
        average_product_direct(sys_, [f0, h, f0])
    assert abs(lhs - rhs) < 1e-9


def test_solution_probability_single_form_is_density():
    dom = domain(5, 1)
    A = IndicatorSet.from_member_vectors(dom, [[0], [1]])
    assert count_solutions(make(5, [[1]]), A) == (2, None)
    assert A.density == Fraction(2, 5)


def test_solution_probability_full_set():
    # every assignment is a solution; ap3's images x, x+y, x+2y coincide
    # exactly when y = 0, on 9 of the 81 assignments
    dom = domain(3, 2)
    A = IndicatorSet(domain=dom, members=np.ones(dom.size, dtype=bool))
    assert count_solutions(builtin_system("ap3", 3), A, with_degenerate=True) == (81, 9)
    assert A.density == 1


def test_worker_count_does_not_change_results(monkeypatch):
    rng = np.random.default_rng(46)
    dom = domain(5, 2)
    sys_ = builtin_system("ap4", 5)
    fs = random_functions(dom, rng, 4)
    monkeypatch.setattr(counting, "_cpus", lambda: 1)
    serial = average_product_direct(sys_, fs)
    monkeypatch.setattr(counting, "_cpus", lambda: 4)
    pooled = average_product_direct(sys_, fs)
    assert serial == pooled  # identical bits: reduction order fixed by chunk index


def test_results_across_chunks_do_not_depend_on_threads(monkeypatch):
    # gw6b at p=5, n=2: 25^3 = 15,625 assignments and 25^3 dual tuples, in
    # tiles of 40 rows of 25 (CHUNK = 1000) and in tiles of 10 columns,
    # narrower than a row (CHUNK = 10), so the thread pool really splits the
    # work; the side-map count (quadfactor with phis) reads its variables
    # off unit forms in those tiles too
    p, n = 5, 2
    dom = domain(p, n)
    rng = np.random.default_rng(47)
    sys_ = builtin_system("gw6b", p)
    fs = random_functions(dom, rng, sys_.m)
    A = IndicatorSet(domain=dom, members=rng.random(dom.size) < 0.6)
    squares = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64),
                            b=np.zeros(n, dtype=np.int64))
    gamma2 = QuadraticMap(forms=(squares,))
    phis = [rng.integers(0, p, size=(1, n * sys_.d)) for _ in range(sys_.m)]
    factor = QuadraticFactor(p=p, n=n, gamma1=np.eye(n, dtype=np.int64)[:1],
                             gamma2=gamma2)

    def run(threads):
        monkeypatch.setattr(counting, "_cpus", lambda: threads)
        return (average_product_direct(sys_, fs),
                average_product_dual(sys_, fs),
                count_solutions(sys_, A, with_degenerate=True),
                verify_quadfactor(sys_, gamma2, phis=phis).to_dict(),
                verify_completefactor(sys_, factor, [[0]] * sys_.m,
                                      [[0]] * sys_.m).to_dict())

    one_chunk = run(1)
    for chunk in (1000, 10):
        monkeypatch.setattr(counting, "CHUNK", chunk)
        serial = run(1)
        assert serial == run(4)  # identical bits: reduction order fixed by tile index
        assert serial[2] == one_chunk[2] and serial[2][1] > 0
        assert serial[3] == one_chunk[3] and serial[4] == one_chunk[4]
        assert serial[3]["observed"]["probability"] > 0
        assert serial[4]["observed"]["probability"] > 0
        for chunked, whole in zip(serial[:2], one_chunk[:2]):
            assert abs(chunked - whole) < 1e-12


@pytest.mark.parametrize("p, n, d", [
    (3, 2, 0), (3, 2, 1), (3, 2, 2), (3, 2, 3), (3, 2, 4),
    (5, 2, 0), (5, 2, 1), (5, 2, 2), (5, 2, 3), (5, 1, 4),
    (7, 2, 0), (7, 2, 1), (7, 2, 2), (7, 1, 3), (7, 1, 4)])
def test_form_images_match_digitwise_oracle(monkeypatch, p, n, d):
    # the tiles' images, flattened in tile order, against digit tuples added
    # mod p, with one tile (CHUNK above N^d), tiles of one whole row of the
    # (prefix, last variable) grid (CHUNK between N and 2N) and tiles of
    # CHUNK columns of one row (CHUNK below N); the unit rows e_u give the
    # variables' point indices
    N = p**n
    rng = np.random.default_rng(1000 * p + 10 * n + d)
    coeffs = rng.integers(-1, p, size=(4, d))
    if d:
        coeffs[0, 0], coeffs[1, -1], coeffs[2, 0] = 0, p - 1, -1
    coeffs = np.concatenate([coeffs, np.eye(d, dtype=np.int64)])
    images = oracles.naive_form_images(coeffs.tolist(), p, n, 0, N**d)
    dom = domain(p, n)
    for chunk in (N**d + 1, 2 * N - 1, N - 2):
        monkeypatch.setattr(counting, "CHUNK", chunk)
        tiles = counting.reduce_form_images(coeffs, dom, lambda im: im)
        rows, width = max(1, chunk // N), min(chunk, N)
        widths = [min(width, N - col) for col in range(0, N, width)] if d else [1]
        assert len(tiles) == (-(-N ** (d - 1) // rows) * len(widths) if d else 1)
        for tile in tiles:
            assert tile.shape[0] == len(coeffs) and tile.shape[1] <= rows
            assert tile.shape[2] in widths
        flat = np.concatenate([tile.reshape(len(coeffs), -1) for tile in tiles], axis=1)
        assert flat.tolist() == images


def test_the_pool_takes_min_of_items_and_cpus_and_one_item_runs_inline(monkeypatch):
    assert counting._cpus() >= 1
    pools = []

    class Pool(counting.ThreadPoolExecutor):
        def __init__(self, max_workers):
            pools.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(counting, "ThreadPoolExecutor", Pool)
    for cpus, items, workers in ((4, [3], []), (4, [1, 2, 3], [3]),
                                 (4, range(6), [4]), (1, range(6), [])):
        pools.clear()
        monkeypatch.setattr(counting, "_cpus", lambda: cpus)
        assert counting._each(lambda x: x * x, items) == [x * x for x in items]
        assert pools == workers, (cpus, items)


def test_tiles_come_back_in_order_at_any_thread_count(monkeypatch):
    # 81 tiles of one row each (CHUNK = 16, N = 9, d = 3), every other one
    # slowed, so that pooled workers finish out of order
    p, n = 3, 2
    N = p**n
    dom = domain(p, n)
    coeffs = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 2, 1]])
    monkeypatch.setattr(counting, "CHUNK", 16)
    workers = set()

    def reduce(images):
        workers.add(threading.get_ident())
        time.sleep(0.001 * (1 + images[1, 0, 0] % 2))
        return images

    naive = oracles.naive_form_images(coeffs.tolist(), p, n, 0, N**3)
    for threads in (1, 2, 4):
        workers.clear()
        monkeypatch.setattr(counting, "_cpus", lambda: threads)
        tiles = counting.reduce_form_images(coeffs, dom, reduce)
        assert len(tiles) == N**2 and (len(workers) > 1) == (threads > 1)
        flat = np.concatenate([tile.reshape(len(coeffs), -1) for tile in tiles], axis=1)
        assert flat.tolist() == naive


def test_budget_refusal_names_required_count():
    dom = domain(5, 2)
    sys_ = builtin_system("cube7", 5)
    fs = [GroupFunction.constant(dom, 1.0)] * 7
    with pytest.raises(BudgetExceededError) as err:
        average_product_direct(sys_, fs, budget=1000)
    assert err.value.required == 7 * 25**4


def test_mismatched_inputs_rejected():
    dom = domain(5, 2)
    fs = [GroupFunction.constant(dom, 1.0)] * 3
    with pytest.raises(ValueError):
        average_product_direct(builtin_system("ap3", 7), fs)
    with pytest.raises(ValueError):
        average_product_direct(builtin_system("ap4", 5), fs)


# ------------------------------------------ direct side at the rank of C

def planned_exponent(sys_):
    """Largest number of variables a pass of the direct side enumerates."""
    return max(pass_.coeffs.shape[1] for pass_ in sys_.direct_plan)


def plan_shape(passes):
    """(columns, kind) of each pass of a plan."""
    return [(pass_.coeffs.shape[1], pass_.kind) for pass_ in passes]


def dual_plan(sys_):
    return counting._plan(sys_.relations.basis.T, sys_.p)


def test_planned_exponent_is_at_most_the_rank():
    """Never above rank C; 2 for diff3 (the cut), 3 for cube7 (an
    elimination), also under random changes of variables."""
    rng = np.random.default_rng(21)
    for sys_, _ in exactness_cases():
        assert planned_exponent(sys_) <= len(sys_.pivots), sys_.coeffs.tolist()
    assert planned_exponent(builtin_system("diff3", 5)) == 2
    for p in (5, 7, 11):
        cube7 = builtin_system("cube7", p)
        assert planned_exponent(cube7) == 3
        for _ in range(3):
            T = rng.integers(0, p, size=(4, 4))
            while oracles.naive_rank(T.tolist(), p) < 4:
                T = rng.integers(0, p, size=(4, 4))
            assert planned_exponent(make(p, (cube7.coeffs @ T % p).tolist())) == 3


def test_eliminated_passes_do_not_depend_on_worker_count(monkeypatch):
    """cube7 (a matrix-product fill, then a convolution fill where n = 2
    and an enumerated one where n = 1), diff3 (the pivot cut, then a
    convolution fill), gw6b (a matrix-product fill on both sides, N = 49),
    ap5 (one on its dual side, N = 25), gw6a (a convolution fill on both
    sides, N = 25) and a random system at p = 3 with two-column enumerated
    fills at CHUNK = 100: several tiles per pass, G_b and G_c gathered in
    blocks of 2 and 4 rows, and convolution slices in blocks of 4 (at
    N = 25); and at CHUNK = (N + 1) / 2, tiles narrower than a row, so that
    a fill adds two tiles per row.  Two and four threads give the bits of
    one; counts equal one tile's, and averages are within 1e-12 of it."""
    structured = np.random.default_rng(3)
    while True:
        two_column = random_structured_system(structured, 3)
        if any(pass_.kind == counting.ENUMERATE and pass_.coeffs.shape[1] == 2
               for pass_ in two_column.direct_plan[:-1]):
            break
    rng = np.random.default_rng(22)
    cases = [(builtin_system(name, p), n) for name, p, n in (
        ("cube7", 3, 2), ("cube7", 5, 1), ("diff3", 5, 2), ("gw6b", 7, 2),
        ("ap5", 5, 2), ("gw6a", 5, 2))]
    for sys_, n in cases + [(two_column, 2)]:
        name, p = sys_.name or sys_.coeffs.tolist(), sys_.p
        dom = domain(p, n)
        A = IndicatorSet(domain=dom, members=rng.random(dom.size) < 0.7)
        fs = random_functions(dom, rng, sys_.m)

        def run(threads):
            monkeypatch.setattr(counting, "_cpus", lambda: threads)
            return (count_solutions(sys_, A),
                    average_product_direct(sys_, fs),
                    average_product_dual(sys_, fs))

        def degenerate(threads):
            monkeypatch.setattr(counting, "_cpus", lambda: threads)
            return count_solutions(sys_, A, with_degenerate=True)

        monkeypatch.setattr(counting, "CHUNK", 1 << 19)
        whole, whole_degenerate = run(1), degenerate(1)
        monkeypatch.setattr(counting, "CHUNK", 100)
        assert degenerate(1) == degenerate(2) == degenerate(4) == whole_degenerate, name
        for chunk in (100, (dom.size + 1) // 2):
            monkeypatch.setattr(counting, "CHUNK", chunk)
            serial = run(1)
            assert serial == run(2) == run(4), name
            assert serial[0] == whole[0]
            for chunked, one in zip(serial[1:], whole[1:]):
                assert abs(chunked - one) < 1e-12, name


def test_matrix_product_plans():
    """A fill of exactly three independent single forms is one matrix
    product: ap5's dual and both sides of gw6b are such a fill followed by
    a pass over N^2, and cube7's direct side such a fill, then a
    convolution fill and a pass over N^2.  gw6b at p = 5, n = 2 (the
    built-in cases of the oracle tests take n = 1 there) is exact on both
    sides."""
    for p in (5, 7, 11):
        ap5, gw6b, cube7 = (builtin_system(name, p)
                            for name in ("ap5", "gw6b", "cube7"))
        assert plan_shape(dual_plan(ap5)) == [(3, "product"), (2, "enumerate")]
        assert plan_shape(gw6b.direct_plan) == \
            [(3, "product"), (2, "enumerate")]
        assert plan_shape(dual_plan(gw6b)) == [(3, "product"), (2, "enumerate")]
        assert plan_shape(cube7.direct_plan) == \
            [(3, "product"), (3, "convolution"), (2, "enumerate")]
    rng = np.random.default_rng(27)
    gw6b, dom = builtin_system("gw6b", 5), domain(5, 2)
    rows = gw6b.coeffs.tolist()
    members = rng.random(dom.size) < 0.7
    assert count_solutions(gw6b, IndicatorSet(domain=dom, members=members))[0] == \
        oracles.naive_count_solutions(rows, 5, 2, members)
    fs = random_functions(dom, rng, gw6b.m)
    naive = oracles.naive_average_product(rows, 5, 2, [f.values for f in fs])
    assert abs(average_product_direct(gw6b, fs) - naive) < 1e-12
    assert abs(average_product_dual(gw6b, fs) - naive) < 1e-12


# ------------------------------------------- two-pencil convolution fills

def enumerated_exponent(passes):
    """Largest number of variables a pass of the plan enumerates (a matrix
    product or convolution fill enumerates none)."""
    return max(pass_.coeffs.shape[1] for pass_ in passes
               if pass_.kind == counting.ENUMERATE)


def test_convolution_plans():
    """gw6a and cube7 on both sides, and ap3 and diff3 on the direct side,
    sum out a direction whose forms fall into two pencils by a convolution
    fill, so that what they enumerate drops to N^2 (gw6a, cube7) and N
    (ap3, diff3); ap4, ap5 and gw6b plan none."""
    for p in (5, 7, 11):
        gw6a, cube7, ap3, diff3 = (builtin_system(name, p)
                                   for name in ("gw6a", "cube7", "ap3", "diff3"))
        assert plan_shape(gw6a.direct_plan) == \
            [(3, "convolution"), (2, "enumerate")]
        assert plan_shape(dual_plan(gw6a)) == [(3, "convolution"), (2, "enumerate")]
        # cube7's direct plan (a product, then a convolution) is pinned in
        # test_matrix_product_plans
        assert plan_shape(dual_plan(cube7)) == [(3, "convolution"), (2, "enumerate")]
        for sys_ in (gw6a, cube7):
            assert enumerated_exponent(sys_.direct_plan) == 2
            assert enumerated_exponent(dual_plan(sys_)) == 2
        for sys_ in (ap3, diff3):
            assert plan_shape(sys_.direct_plan) == \
                [(2, "convolution"), (1, "enumerate")]
        for name in ("ap4", "ap5", "gw6b"):
            sys_ = builtin_system(name, p)
            for passes in (sys_.direct_plan, dual_plan(sys_)):
                assert all(pass_.kind != counting.CONVOLUTION for pass_ in passes), name


def test_plan_op_count_by_hand():
    """plan_op_count of the ap3, ap4, gw6b and cube7 direct plans at p = 5,
    counted by hand.  At n = 2 (N = 25): ap3's convolution is 3 * 25 * 2 * 5
    for its transforms and 2 * 25 for its products on one slice, then a pass
    of 2 forms over N; ap4 is one pass of 4 forms over N^2; gw6b's matrix
    product is N^3 multiply-adds and 3 N^2 operations, then a pass of 5
    forms over N^2; cube7's product, then a convolution of 4 forms over 25
    slices and a pass of 4 forms over N^2.  At n = 1 (N = 5) a convolution
    is priced as its enumerated pass, forms x N^columns."""
    counts = {}
    for n in (1, 2):
        dom = domain(5, n)
        for name in ("ap3", "ap4", "gw6b", "cube7"):
            counts[name, n] = counting.plan_op_count(builtin_system(name, 5).direct_plan, dom)
    assert counts == {
        ("ap3", 2): (750 + 50 + 2 * 25, 0),
        ("ap4", 2): (4 * 25**2, 0),
        ("gw6b", 2): (3 * 25**2 + 5 * 25**2, 25**3),
        ("cube7", 2): (3 * 25**2 + 25 * (750 + 4 * 25) + 4 * 25**2, 25**3),
        ("ap3", 1): (2 * 5**2 + 2 * 5, 0),
        ("ap4", 1): (4 * 5**2, 0),
        ("gw6b", 1): (3 * 5**2 + 5 * 5**2, 5**3),
        ("cube7", 1): (3 * 5**2 + 4 * 5**3 + 4 * 5**2, 5**3)}
    assert counting.plan_cost(builtin_system("gw6b", 5).direct_plan, domain(5, 2)) == \
        5000 + 25**3 // counting.PRODUCT_MADDS_PER_OP


def random_three_variable_system(rng, p):
    """Four to seven distinct nonzero forms of rank 3 in three variables."""
    while True:
        C = rng.integers(0, p, size=(int(rng.integers(4, 8)), 3))
        if C.any(axis=1).all() and len({tuple(row) for row in C.tolist()}) == len(C) \
                and oracles.naive_rank(C.tolist(), p) == 3:
            return make(p, C.tolist())


def test_convolution_sides_match_naive_oracles(monkeypatch):
    """Counts, direct averages and dual sums against the digit-tuple oracles
    at n = 2, where the transforms run (n > 1): the built-in systems that
    convolve, and sixteen seeded random three-variable systems at p = 3, of
    which some split on a side and some on neither."""
    fills = []
    fill = counting._convolution_fill
    monkeypatch.setattr(counting, "_convolution_fill",
                        lambda *a: (fills.append(1), fill(*a))[1])
    rng = np.random.default_rng(28)
    cases = [(builtin_system(name, p), p) for name, p in
             (("gw6a", 5), ("cube7", 3), ("ap3", 5), ("ap3", 7), ("diff3", 3))]
    cases += [(random_three_variable_system(rng, 3), 3) for _ in range(16)]
    split = unsplit = 0
    for sys_, p in cases:
        rows, dom = sys_.coeffs.tolist(), domain(p, 2)
        fills.clear()
        members = rng.random(dom.size) < 0.6
        A = IndicatorSet(domain=dom, members=members)
        assert count_solutions(sys_, A)[0] == \
            oracles.naive_count_solutions(rows, p, 2, members), rows
        fs = random_functions(dom, rng, sys_.m)
        naive = oracles.naive_average_product(rows, p, 2, [f.values for f in fs])
        assert abs(average_product_direct(sys_, fs) - naive) < 1e-12, rows
        assert abs(average_product_dual(sys_, fs) - naive_dual_sum(sys_, 2, fs)) \
            < 1e-12, rows
        direct, dual = ([pass_.kind for pass_ in passes].count(counting.CONVOLUTION)
                        for passes in (sys_.direct_plan, dual_plan(sys_)))
        # the count and the direct average each run the direct plan
        assert len(fills) == 2 * direct + dual, rows
        split += direct + dual > 0
        unsplit += direct + dual == 0
    assert split >= 10 and unsplit >= 3, (split, unsplit)


def test_convolution_rounding_bound_at_the_largest_budgeted_n():
    """The default budget admits ap3's direct count while 3 N^2 <= 10^10;
    the largest N = p^n there with n > 1 (so that the transforms run) is
    239^2 = 57,121.  At that N the a priori bound on a fill of 0/1 tables is
    below 1/4, the unrounded float fill lies within it of the integer one,
    and the count equals the one numpy's FFT gives (the tests' independent
    transform): (1/N) sum_r A^(r)^2 A^(-2r), rounded."""
    # n >= 2 and p^n <= 57,735 keep p below 241 and n below 12
    budgeted = [(p**n, p, n) for n in range(2, 12) for p in range(3, 241)
                if is_odd_prime(p) and 3 * p ** (2 * n) <= DEFAULT_BUDGET]
    N, p, n = max(budgeted)
    assert (N, p, n) == (57121, 239, 2)
    bound = counting._convolution_error(N, n, p, N)
    assert bound < 0.25
    ap3, dom = builtin_system("ap3", p), domain(p, n)
    members = np.random.default_rng(29).random(N) < 0.5
    conv, _ = ap3.direct_plan
    exact = counting._convolution_fill([members] * 2, conv.coeffs, dom)
    unrounded = counting._convolution_fill([members.astype(float)] * 2, conv.coeffs,
                                           dom)
    assert np.abs(unrounded - exact).max() <= bound
    count, _ = count_solutions(ap3, IndicatorSet(domain=dom, members=members),
                               budget=DEFAULT_BUDGET)
    Ah = np.fft.fftn(members.reshape(p, p).astype(float))
    twice = (-2 * np.arange(p)) % p
    fft_count = (Ah**2 * Ah[twice][:, twice]).sum().real / N
    assert abs(fft_count - count) < 0.01 and count == round(fft_count)


def test_convolution_bound_forces_the_enumerated_pass(monkeypatch):
    """Integer tables with entries near 2^20 put the bound above 1/4, so
    ap3's fill is the enumerated pass (two kernel calls), with the Python-int
    sum; tables with small entries take the convolution (one call), to
    their Python-int sum too.  At n = 1 the transform would be one dense
    N x N matrix, so even 0/1 tables take the enumerated pass."""
    ones = [np.ones(5, dtype=bool)] * 2
    assert not counting._convolution_admitted(ones, domain(5, 1))
    assert counting._convolution_admitted([np.ones(25, dtype=bool)] * 2, domain(5, 2))
    p, n = 5, 2
    dom = domain(p, n)
    ap3 = builtin_system("ap3", p)
    passes = ap3.direct_plan
    points, index = oracles.naive_points(p, n)
    rng = np.random.default_rng(30)
    kernel = counting.reduce_form_images
    calls = []
    monkeypatch.setattr(counting, "reduce_form_images",
                        lambda *a: (calls.append(1), kernel(*a))[1])
    for top, admitted in ((2**20, False), (3, True)):
        tables = [rng.integers(-top, top, dom.size) for _ in range(3)]
        held = [tables[f] for f in passes[0].ids]
        assert counting._convolution_admitted(held, dom) == admitted
        naive = 0
        for x in range(dom.size):
            for y in range(dom.size):
                prod = 1
                for table, row in zip(tables, ap3.coeffs.tolist()):
                    prod *= int(table[index[oracles._naive_form_value(
                        row, (x, y), points, p, n)]])
                naive += prod
        calls.clear()
        assert counting._run_passes(passes, dom, tables) == naive
        assert len(calls) == (1 if admitted else 2)


def test_convolution_fill_refuses_to_round_a_far_value(monkeypatch):
    """A transform 1% too large scales the fill of the full set, 25 at
    every point, by 1.01^6 to about 26.5: the count raises rather than
    rounds."""
    ap3, dom = builtin_system("ap3", 5), domain(5, 2)
    D = counting._dft_matrix(5)
    monkeypatch.setattr(counting, "_dft_matrix", lambda p: 1.01 * D)
    with pytest.raises(ArithmeticError):
        count_solutions(ap3, IndicatorSet(domain=dom, members=np.ones(25, dtype=bool)))


def test_product_fill_is_exact_on_both_sides_of_two_to_the_53():
    """Integer tables are multiplied in float64 while N max|g_a| max|g_b|
    max|g_c| < 2^53, exactly, equal to the Python-int sums; above that bound
    the fill raises rather than round."""
    p, n = 5, 2
    dom = domain(p, n)
    points, index = oracles.naive_points(p, n)
    rng = np.random.default_rng(31)
    for top in (2**16 - 1, 2**19):
        tables = [rng.integers(-top, top + 1, dom.size) for _ in range(3)]
        for t in tables:
            t[0] = top
        assert (counting._integer_bound(dom.size, tables) < 2**53) == (top < 2**19)
        if top == 2**19:
            with pytest.raises(ArithmeticError):
                counting._product_fill(tables, [1, 2, 3], dom)
            continue
        F = counting._product_fill(tables, [1, 2, 3], dom)
        assert F.dtype == np.int64

        def at(t, c, z):  # index of t + c z
            return index[oracles._naive_form_value([1, c], (t, z), points, p, n)]

        for s_, t_ in ((0, 0), (3, 17), (24, 24)):
            naive = sum(int(tables[0][at(0, 1, z)]) * int(tables[1][at(s_, 2, z)])
                        * int(tables[2][at(t_, 3, z)]) for z in range(dom.size))
            assert int(F[s_ * dom.size + t_]) == naive


def test_relation_ranks_by_duality_equal_the_rank_table(monkeypatch):
    """r*(S) = |S| - r + r(E - S) read off the cached subset ranks equals
    the rank table of the relation forms built by elimination.  It runs
    without np.bitwise_count, which numpy has only from 2.0 on."""
    monkeypatch.delattr(np, "bitwise_count", raising=False)
    rng = np.random.default_rng(32)
    systems = [sys_ for sys_, _ in exactness_cases() + dual_cases()]
    systems += [random_structured_system(rng, p) for p in (3, 5, 7, 11) * 10]
    for sys_ in systems:
        W = sys_.relations.basis.T
        expected = _rank_table(W, sys_.p) if W.shape[1] else [0] * (1 << sys_.m)
        assert counting._relation_ranks(sys_).tolist() == expected, sys_.coeffs.tolist()


@pytest.mark.parametrize("name", ["ap4", "ap5", "random"])
def test_full_rank_direct_side_is_one_plain_kernel_call(name, monkeypatch):
    """With no direction to sum out, the direct side is one kernel call on
    C itself, and its average has the bits of the one-pass `_run_passes`
    and of a plain chunk-by-chunk product sum.  The random system is drawn
    with no fill of any kind."""
    rng = np.random.default_rng(23)
    if name == "random":
        while True:
            # five forms in three variables always leave a copoint that
            # involves at most three, and six mostly split into two
            # pencils at some copoint, so draw seven
            C = rng.integers(0, 7, size=(7, 3))
            if not C.any(axis=1).all() or len({tuple(row) for row in C.tolist()}) < 7:
                continue
            sys_ = make(7, C.tolist())
            if len(sys_.pivots) == 3 and len(sys_.direct_plan) == 1:
                break
    else:
        sys_ = builtin_system(name, 7)
    dom = domain(7, 2)
    fs = random_functions(dom, rng, sys_.m)
    A = IndicatorSet(domain=dom, members=rng.random(dom.size) < 0.7)
    tables = [f.values for f in fs]
    kernel = counting.reduce_form_images
    seen = []

    def spy(coeffs, *args, **kwargs):
        seen.append(coeffs)
        return kernel(coeffs, *args, **kwargs)

    def tile_sum(images):
        prod = tables[0][images[0]]
        for table, idx in zip(tables[1:], images[1:]):
            prod *= table[idx]
        return complex(prod.sum())

    plain = 0j
    for part in kernel(sys_.coeffs, dom, tile_sum):
        plain += part
    monkeypatch.setattr(counting, "reduce_form_images", spy)
    average = average_product_direct(sys_, fs)
    count = count_solutions(sys_, A)
    assert len(seen) == 2 and all(c is sys_.coeffs for c in seen)
    one_pass = [counting._Pass(list(range(sys_.m)), sys_.coeffs)]
    assert average == complex(counting._run_passes(one_pass, dom, tables)) \
        / dom.size**sys_.d
    assert average == plain / dom.size**sys_.d
    plain_count = 0
    for part in kernel(sys_.coeffs, dom, lambda images: int(
            np.logical_and.reduce(A.members[images]).sum())):
        plain_count += part
    assert count == (plain_count, None)


# ------------------------------------------------ closed-form quadratic counts

@pytest.mark.parametrize("p", [5, 7])
def test_closed_form_count_matches_enumeration_on_builtin_systems(p):
    """Every built-in system at n = 1, 2, 3 wherever the p^(nd) assignments
    are few enough to enumerate (at most 2 * 10^6).  That leaves out cube7
    and nf4 at n = 3 (p = 5) and n >= 2 (p = 7), and diff3, gw6a and gw6b
    at p = 7, n = 3."""
    for name in BUILTIN_SYSTEM_NAMES:
        sys_ = builtin_system(name, p)
        for n in (1, 2, 3):
            if p ** (n * sys_.d) > 2 * 10**6:
                continue
            A = quadratic_zero_set(p, n)
            dot = np.eye(n, dtype=np.int64)
            assert quadratic_zero_count(sys_.coeffs, dot, p) == \
                count_solutions(sys_, A)[0], (name, n)
            # alpha, the density of A, is the m = d = 1 count over p^n
            assert quadratic_zero_count([[1]], dot, p) == A.count


def test_closed_form_count_edge_cases():
    C = np.array([[1, 0], [1, 1]])
    assert quadratic_zero_count(C, np.zeros((3, 3), dtype=int), 5) == 5 ** 6
    assert quadratic_zero_count(C, np.zeros((0, 0), dtype=int), 5) == 1
    # x and x + y both in the zero set of F_5^40: an invertible change of
    # variables, so the count is the square of the zero set's size
    zeros = quadratic_zero_count([[1]], np.eye(40, dtype=int), 5)
    assert zeros == 5**39 + 4 * 5**19
    assert quadratic_zero_count(C, np.eye(40, dtype=int), 5) == zeros**2
    with pytest.raises(BudgetExceededError):
        quadratic_zero_count(builtin_system("cube7", 5).coeffs,
                             np.eye(2, dtype=int), 5, budget=1000)


# ------------------------------------------- closed-form weighted averages

def test_quadratic_average_edge_cases():
    g = np.array([[0.5, 2, 3], [0.25, 1, 1j]])
    C = np.array([[1, 0], [1, 1]])
    # B = 0: every form is 0, so the average is prod_i g_i(0)
    assert quadratic_average(C, np.zeros((2, 2), dtype=int), 3, g) == 0.125
    with pytest.raises(BudgetExceededError):
        quadratic_average(builtin_system("cube7", 5).coeffs, np.eye(2, dtype=int),
                          5, np.ones((7, 5)), budget=1000)


# The cross-checks of this module that are rows of tests/ledger.py, under
# their older names.
globals().update(kept_tests(__name__))
