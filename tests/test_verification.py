import json
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from uniformity_lab import cli, counting, functions, verification
from uniformity_lab.algebra import QuadraticForm
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, balanced,
                                      random_bounded_function, uk_norm)
from uniformity_lab.systems import (BUILTIN_SYSTEM_NAMES, LinearFormSystem,
                                    builtin_system, cs_complexity)
from uniformity_lab.verification import (Check, ComplexityPreconditionError,
                                         ExperimentReport, QuadraticFactor,
                                         QuadraticMap, SquareDependenceError,
                                         atom_distribution, factor_rank,
                                         gauss_sum, gauss_sum_report,
                                         project_atoms, project_linear,
                                         quadratic_zero_set,
                                         quadratic_zero_set_report,
                                         random_factor, verify_badex,
                                         verify_bound1, verify_completefactor,
                                         verify_gvn, verify_projection_lemmas,
                                         verify_pythagoras, verify_quadfactor)

import oracles
from oracles import random_symmetric


def sum_of_squares_form(p, n):
    return QuadraticForm(p=p, M=np.eye(n, dtype=np.int64),
                         b=np.zeros(n, dtype=np.int64))


def make(p, rows):
    return LinearFormSystem(p=p, d=len(rows[0]), coeffs=np.array(rows))


# ---------------------------------------------------------------- gauss sums

def test_gauss_sum_one_variable_square():
    q = QuadraticForm(p=5, M=[[1]], b=[0])
    value = gauss_sum(q)
    w = np.exp(2j * np.pi / 5)
    assert abs(value - (1 + 2 * w + 2 * w**4) / 5) < 1e-12
    assert abs(abs(value) - 5 ** -0.5) < 1e-10


def test_gauss_sum_zero_form_is_one():
    q = QuadraticForm(p=5, M=np.zeros((2, 2), dtype=int), b=[0, 0])
    assert abs(gauss_sum(q) - 1) < 1e-12
    assert gauss_sum_report(q).passed


def test_gauss_sum_sum_of_squares_modulus():
    q = sum_of_squares_form(5, 2)
    assert abs(abs(gauss_sum(q)) - 1 / 5) < 1e-10


def test_gauss_sum_matches_naive_and_respects_bound():
    rng = np.random.default_rng(50)
    for _ in range(15):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        M = rng.integers(0, p, size=(n, n))
        q = QuadraticForm(p=p, M=(M + M.T) % p, b=rng.integers(0, p, size=n))
        value = gauss_sum(q)
        assert abs(value - oracles.naive_gauss_average(q.M, q.b, p)) < 1e-12
        rep = gauss_sum_report(q)
        assert rep.passed, rep.to_dict()


def test_gauss_equality_cases_across_small_fields():
    for p, n in [(3, 2), (5, 1), (5, 2), (7, 2), (3, 4)]:
        rep = gauss_sum_report(sum_of_squares_form(p, n))
        assert abs(rep.observed["modulus"] - p ** (-n / 2)) < 1e-10


# ---------------------------------------------------------------- zero set

def test_quadratic_zero_set_examples():
    A = quadratic_zero_set(5, 2)
    assert A.count == 9 and A.density == Fraction(9, 25)
    B = quadratic_zero_set(3, 1)
    assert B.count == 1 and B.members[0]
    for p, n in [(3, 2), (5, 3), (7, 1)]:
        assert quadratic_zero_set(p, n).members[0]  # 0 is always in the set
        assert quadratic_zero_set_report(p, n).passed


# ---------------------------------------------------------------- badex

def test_badex_square_independent_branch():
    rep = verify_badex(builtin_system("gw6b", 5), n=2)
    assert rep.parameters["square_independent"]
    assert rep.passed


def test_badex_dependent_branch_overshoots():
    rep = verify_badex(builtin_system("ap4", 5), n=3)
    assert not rep.parameters["square_independent"]
    assert rep.parameters["independent_subsystem_size"] == 3
    assert rep.observed["excess_over_alpha^m"] > 0
    assert rep.passed


def test_badex_single_form_probability_is_density():
    rep = verify_badex(make(5, [[1]]), n=2)
    A = quadratic_zero_set(5, 2)
    assert Fraction(rep.observed["probability_exact"]) == A.density
    assert rep.passed


def test_badex_four_ap_overshoot_factor_at_desk_scale():
    # at p=5, n=4 the four-term system beats density^4 by at least p/2
    rep = verify_badex(builtin_system("ap4", 5), n=4)
    assert rep.passed
    assert rep.observed["ratio_to_alpha^m"] >= 5 / 2


# ---------------------------------------------------------------- gvn

def test_gvn_trivial_equality_for_constant_one():
    dom = domain(5, 1)
    ones = [GroupFunction.constant(dom, 1.0)] * 3
    rep = verify_gvn(builtin_system("ap3", 5), ones, 1)
    assert rep.passed
    assert abs(rep.observed["average_modulus"] - 1) < 1e-12
    assert abs(rep.observed["min_norm"] - 1) < 1e-12


def test_gvn_random_signs_three_ap():
    dom = domain(5, 2)
    rng = np.random.default_rng(51)
    for _ in range(10):
        fs = [random_bounded_function(dom, rng, "signs") for _ in range(3)]
        assert verify_gvn(builtin_system("ap3", 5), fs, 1).passed


def test_gvn_complexity_two_system_with_balanced_functions():
    dom = domain(5, 2)
    f = balanced(quadratic_zero_set(5, 2))
    rep = verify_gvn(builtin_system("gw6a", 5), [f] * 6, 2)
    assert rep.passed


def test_gvn_holds_across_the_whole_library():
    # every built-in system, tested at its own complexity degree
    rng = np.random.default_rng(66)
    for name in ("ap3", "ap4", "ap5", "diff3", "gw6a", "gw6b", "cube7", "nf4"):
        sys_ = builtin_system(name, 7)
        k = int(cs_complexity(sys_))
        n = 2 if sys_.d <= 3 and k <= 2 else 1
        dom = domain(7, n)
        for _ in range(20):
            fs = [random_bounded_function(dom, rng) for _ in range(sys_.m)]
            assert verify_gvn(sys_, fs, k).passed, (name, k, n)


@pytest.mark.parametrize("name,k", [("ap3", 1), ("ap4", 2), ("gw6a", 2),
                                    ("ap5", 3)])
def test_gvn_norms_match_the_direct_norm(name, k):
    sys_ = builtin_system(name, 5)
    n = 1 if sys_.d > 2 or k == 3 else 2
    rng = np.random.default_rng(67)
    fs = [random_bounded_function(domain(5, n), rng) for _ in range(sys_.m)]
    rep = verify_gvn(sys_, fs, k)
    direct = [uk_norm(f, k + 1) for f in fs]
    assert np.allclose(rep.observed["norms"], direct, rtol=1e-12, atol=0)
    assert rep.observed["min_norm"] == min(rep.observed["norms"])


def spy_averages(monkeypatch):
    """Record which average verify_gvn takes, passing the call through."""
    taken = []
    for name in ("average_product_direct", "average_product_dual"):
        def spy(*args, _name=name, _f=getattr(verification, name), **kwargs):
            taken.append(_name)
            return _f(*args, **kwargs)
        monkeypatch.setattr(verification, name, spy)
    return taken


@pytest.mark.parametrize("name,k,path", [
    ("ap3", 1, "average_product_dual"),      # 3 * 125 tuples against 3 * 125^2
    ("ap4", 2, "average_product_direct"),    # 4 * 125^2 on both sides: a tie
])
def test_gvn_average_matches_the_direct_average(name, k, path, monkeypatch):
    sys_ = builtin_system(name, 5)
    rng = np.random.default_rng(68)
    fs = [random_bounded_function(domain(5, 3), rng) for _ in range(sys_.m)]
    direct = abs(counting.average_product_direct(sys_, fs))
    taken = spy_averages(monkeypatch)
    rep = verify_gvn(sys_, fs, k)
    assert taken == [path]
    if path == "average_product_direct":
        assert rep.observed["average_modulus"] == direct
    else:
        assert abs(rep.observed["average_modulus"] - direct) <= 1e-12 * direct


def spy_transforms(monkeypatch):
    """Record the table of every whole-function transform (`_dft_axes` from
    the first axis, as `GroupFunction.transform` runs it), passing the call
    through."""
    tables = []

    def spy(arr, D, first=0, _dft_axes=functions._dft_axes):
        if first == 0:
            tables.append(arr)
        return _dft_axes(arr, D, first)

    monkeypatch.setattr(functions, "_dft_axes", spy)
    return tables


def times_transformed(tables, fs):
    """How many of the recorded transforms read each function's table."""
    return [sum(np.shares_memory(t, f.values) for t in tables) for f in fs]


def test_gvn_transforms_each_function_once_on_the_dual_side(monkeypatch):
    # ap3 at k = 1 takes the dual average and the fast U^2 norms, which read
    # the transform each function keeps
    sys_ = builtin_system("ap3", 5)

    def draw():
        rng = np.random.default_rng(69)
        return [random_bounded_function(domain(5, 3), rng) for _ in range(sys_.m)]

    expected = verify_gvn(sys_, draw(), 1).to_dict()
    fs = draw()
    tables = spy_transforms(monkeypatch)
    assert verify_gvn(sys_, fs, 1).to_dict() == expected
    assert times_transformed(tables, fs) == [1] * sys_.m
    assert len(tables) == sys_.m


# A system of partition complexity 1 whose direct sum over 125^3
# assignments ties the dual's 125^3 frequency tuples, so gvn at k = 1 takes
# the direct average.
DIRECT_K1_ROWS = [[0, 0, -2], [0, 1, 0], [-1, 0, 2], [-2, -1, 2], [-1, 1, -1],
                  [2, 0, 2]]


@pytest.mark.parametrize("rows,k,path,once", [
    (DIRECT_K1_ROWS, 1, "average_product_direct", 1),  # the U^2 norms alone
    ("ap3", 2, "average_product_dual", 1),             # the dual average alone
    ("ap4", 2, "average_product_direct", 0),           # U^3 norms and a direct sum
    ("cube7", 1, "average_product_dual", 1),           # both read one transform
])
def test_gvn_transforms_each_function_at_most_once(rows, k, path, once, monkeypatch):
    sys_ = builtin_system(rows, 5) if isinstance(rows, str) else make(5, rows)
    assert cs_complexity(sys_) <= k
    rng = np.random.default_rng(70)
    fs = [random_bounded_function(domain(5, 3), rng) for _ in range(sys_.m)]
    taken = spy_averages(monkeypatch)
    tables = spy_transforms(monkeypatch)
    assert verify_gvn(sys_, fs, k).passed
    assert taken == [path]
    assert times_transformed(tables, fs) == [once] * sys_.m
    assert len(tables) == once * sys_.m


def test_gvn_prices_its_norms_before_the_average(monkeypatch, capsys):
    """An unaffordable U^(k+1) norm is refused before the average runs; an
    unaffordable average still reads as the average's refusal."""
    def refuse_to_run(*args, **kwargs):
        raise AssertionError("average taken before the norms were priced")

    for name in ("average_product_direct", "average_product_dual"):
        monkeypatch.setattr(verification, name, refuse_to_run)
    for argv, what in (
            (["--system", "gw6a", "--p", "7", "--n", "3", "--k", "4"],
             "fast U^5 norm on size 343"),
            (["--system", "ap3", "--p", "3", "--n", "12", "--k", "3"],
             "fast U^4 norm on size 531441"),
            (["--system", "ap3", "--p", "5", "--n", "3", "--budget", "374"],
             "dual count over 125^1 frequency tuples")):
        assert cli.main(["verify", "gvn"] + argv) == 3
        assert what in capsys.readouterr().err


def test_gvn_budget_prices_the_path_that_runs(capsys):
    # ap3 at p = 5, n = 3: the dual sums 3 * 125 tuples, the direct average
    # 3 * 125^2 assignments, and the fast U^2 norm 125 * (3 * 5 + 4) operations
    base = ["verify", "gvn", "--system", "ap3", "--p", "5", "--n", "3"]
    assert cli.main(base + ["--budget", "374"]) == 3
    assert "dual count over 125^1 frequency tuples" in capsys.readouterr().err
    assert cli.main(base + ["--budget", "2375"]) == 0


def test_no_verify_experiment_takes_the_direct_norm(monkeypatch, capsys):
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return uk_norm(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if mod.__name__.startswith("uniformity_lab") and \
                getattr(mod, "uk_norm", None) is uk_norm:
            monkeypatch.setattr(mod, "uk_norm", spy)
    assert functions.uk_norm is spy
    for argv in (["all"], ["gvn", "--system", "ap4"],
                 ["gvn", "--system", "ap5", "--k", "3"]):
        assert cli.main(["verify", *argv, "--p", "5", "--n", "2"]) == 0, argv
    assert calls == []


def test_gvn_refuses_when_complexity_exceeds_k():
    dom = domain(5, 2)
    ones = [GroupFunction.constant(dom, 1.0)] * 6
    with pytest.raises(ComplexityPreconditionError, match="2"):
        verify_gvn(builtin_system("gw6a", 5), ones, 1)


def test_gvn_rejects_unbounded_functions():
    dom = domain(5, 1)
    big = [GroupFunction.constant(dom, 2.0)] * 3
    with pytest.raises(ValueError):
        verify_gvn(builtin_system("ap3", 5), big, 1)


# ---------------------------------------------------------------- factors

def test_factor_rank_examples():
    assert factor_rank(QuadraticMap(forms=(sum_of_squares_form(5, 6),))) == 6
    q = sum_of_squares_form(5, 4)
    q2 = QuadraticForm(p=5, M=2 * np.eye(4, dtype=np.int64) % 5,
                       b=np.zeros(4, dtype=np.int64))
    assert factor_rank(QuadraticMap(forms=(q, q2))) == 0
    qa = QuadraticForm(p=5, M=np.diag([1, 1, 0, 0]), b=np.zeros(4, dtype=int))
    qb = QuadraticForm(p=5, M=np.diag([0, 0, 1, 1]), b=np.zeros(4, dtype=int))
    assert factor_rank(QuadraticMap(forms=(qa, qb))) == 2
    with pytest.raises(ValueError):
        factor_rank(QuadraticMap(forms=()))
    # random maps against the minimum over every nonzero combination
    rng = np.random.default_rng(177)
    kinds = ("rank1", "corank1", "random")
    for p, n, d2 in [(3, 4, 2), (3, 3, 3), (5, 3, 2), (5, 3, 3)] * 3:
        mats = [random_symmetric(p, n, kinds[rng.integers(3)], rng) for _ in range(d2)]
        gamma2 = QuadraticMap(forms=tuple(
            QuadraticForm(p=p, M=M, b=np.zeros(n, dtype=np.int64)) for M in mats))
        expected = min(
            oracles.span_rank((sum(l * M for l, M in zip(lam, mats)) % p).tolist(), p)
            for lam in product(range(p), repeat=d2) if any(lam))
        assert factor_rank(gamma2) == expected


def test_factor_rank_eliminates_one_combination_per_line(monkeypatch):
    eliminated = []
    batched = verification.batched_rank_class
    monkeypatch.setattr(verification, "batched_rank_class",
                        lambda stack, p: eliminated.append(len(stack)) or batched(stack, p))
    assert factor_rank(QuadraticMap(forms=(sum_of_squares_form(5, 6),))) == 6
    assert eliminated == [1]
    rng = np.random.default_rng(178)
    forms = tuple(QuadraticForm(p=5, M=random_symmetric(5, 5, "random", rng),
                                b=np.zeros(5, dtype=np.int64)) for _ in range(3))
    eliminated.clear()
    factor_rank(QuadraticMap(forms=forms))
    assert sum(eliminated) == (5**3 - 1) // (5 - 1)


def test_factor_validation():
    with pytest.raises(ValueError):
        QuadraticFactor(p=5, n=3, gamma1=[[1, 2, 0], [2, 4, 0]],
                        gamma2=QuadraticMap(forms=()))


def test_atom_distribution_linear_fibers_exact():
    factor = QuadraticFactor(p=5, n=4, gamma1=np.eye(4, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=()))
    rep = atom_distribution(factor)
    assert rep.passed and rep.observed["worst_deviation"] == 0


def test_atom_distribution_quadratic_examples():
    factor = QuadraticFactor(p=5, n=4, gamma1=np.zeros((0, 4), dtype=int),
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 4),)))
    rep = atom_distribution(factor)
    assert rep.passed
    assert rep.observed["worst_deviation"] <= 5**-2 + 1e-12

    factor = QuadraticFactor(p=5, n=4, gamma1=np.eye(4, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 4),)))
    rep = atom_distribution(factor)
    assert rep.passed
    assert rep.observed["worst_deviation"] <= 5**-1 + 1e-12


def test_atom_distribution_random_factors():
    rng = np.random.default_rng(52)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        d1 = int(rng.integers(0, min(2, n) + 1))
        d2 = int(rng.integers(0, 3 - (d1 > 0)))
        factor = random_factor(5, n, d1, d2, rng)
        assert atom_distribution(factor).passed


# ------------------------------------------------- factor equidistribution

def test_quadfactor_single_form_recovers_zero_set_density():
    sys_ = make(5, [[1]])
    rep = verify_quadfactor(sys_, QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    assert Fraction(rep.observed["probability_exact"]) == Fraction(9, 25)
    assert rep.passed


def test_quadfactor_empty_quadratic_map_is_trivial():
    rep = verify_quadfactor(builtin_system("gw6b", 5), QuadraticMap(forms=()), n=2)
    assert rep.observed["probability"] == 1 and rep.passed


def test_quadfactor_rejects_n_other_than_the_forms_dimension():
    gamma2 = QuadraticMap(forms=(sum_of_squares_form(5, 2),))
    for n in (1, 3):
        with pytest.raises(ValueError, match="dimension"):
            verify_quadfactor(builtin_system("gw6b", 5), gamma2, n=n)


def test_quadfactor_bound_for_square_independent_system():
    rep = verify_quadfactor(builtin_system("gw6b", 5),
                            QuadraticMap(forms=(sum_of_squares_form(5, 3),)))
    assert rep.parameters["rank"] == 3
    assert rep.passed


def test_quadfactor_refuses_square_dependent_systems():
    with pytest.raises(SquareDependenceError):
        verify_quadfactor(builtin_system("ap4", 5),
                          QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    # gw6a collapses at p = 5 specifically; at p = 7 it is accepted
    with pytest.raises(SquareDependenceError):
        verify_quadfactor(builtin_system("gw6a", 5),
                          QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    rep = verify_quadfactor(builtin_system("gw6a", 7),
                            QuadraticMap(forms=(sum_of_squares_form(7, 2),)))
    assert rep.passed


def test_quadfactor_with_linear_side_maps():
    # target gamma2(L_i(x)) = phi_i(x) + b_i with nonzero phi, checked
    # against a naive per-assignment loop
    p, n = 3, 2
    sys_ = make(p, [[1, 0], [0, 1]])
    q = sum_of_squares_form(p, n)
    rng = np.random.default_rng(53)
    phis = [rng.integers(0, p, size=(1, n * 2)) for _ in range(2)]
    bs = [[1], [2]]
    rep = verify_quadfactor(sys_, QuadraticMap(forms=(q,)), phis=phis, bs=bs)
    dom = domain(p, n)
    count = 0
    for a in range(dom.size):
        for b in range(dom.size):
            xa, xb = dom.digits[a], dom.digits[b]
            flat = np.concatenate([xa, xb])
            ok = True
            for i, (form, phi, bi) in enumerate(zip(sys_.coeffs, phis, bs)):
                img = (int(form[0]) * xa + int(form[1]) * xb) % p
                lhs = int(img @ img) % p
                rhs = (int(phi[0] @ flat) + bi[0]) % p
                ok &= lhs == rhs
            count += ok
    assert Fraction(rep.observed["probability_exact"]) == \
        Fraction(count, dom.size**2)


def test_quadfactor_linear_side_across_three_variables():
    # d = 3 variables and d2 = 2 quadratic forms with nonzero b_i, against a
    # naive loop over the 729 assignments: once with phi_0 nonzero but for
    # its middle block and phi_1 = 0, then with random phi_0, phi_1 and b
    p, n, d = 3, 2, 3
    rows = [[1, 0, 1], [0, 1, 1]]
    sys_ = make(p, rows)
    forms = [([[1, 0], [0, 1]], [0, 0]), ([[0, 1], [1, 2]], [1, 2])]
    gamma2 = QuadraticMap(forms=tuple(
        QuadraticForm(p=p, M=np.array(M), b=np.array(b)) for M, b in forms))
    points, _ = oracles.naive_points(p, n)
    rng = np.random.default_rng(57)
    first = rng.integers(1, p, size=(2, n * d))
    first[:, n:2 * n] = 0
    trials = [([first, None], [[2, 1], [2, 1]])]
    trials += [([rng.integers(0, p, size=(2, n * d)) for _ in rows],
                rng.integers(0, p, size=(2, 2)).tolist()) for _ in range(3)]
    for phis, bs in trials:
        rep = verify_quadfactor(sys_, gamma2, phis=phis, bs=bs)
        count = 0
        for assign in product(points, repeat=d):
            flat = [a for x in assign for a in x]
            ok = True
            for row, phi, b in zip(rows, phis, bs):
                img = [sum(c * x[j] for c, x in zip(row, assign)) % p for j in range(n)]
                for k, (M, off) in enumerate(forms):
                    lhs = sum(img[a] * M[a][c] * img[c] for a in range(n)
                              for c in range(n)) + sum(o * v for o, v in zip(off, img))
                    rhs = b[k] if phi is None else \
                        sum(int(f) * v for f, v in zip(phi[k], flat)) + b[k]
                    ok &= (lhs - rhs) % p == 0
            count += ok
        assert 0 < count < p ** (n * d)
        assert Fraction(rep.observed["probability_exact"]) == Fraction(count, p ** (n * d))


def test_completefactor_outside_Z_is_impossible():
    factor = QuadraticFactor(p=5, n=3, gamma1=np.eye(3, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 3),)))
    # gw6b satisfies L1 - L2 - L3 + L4 = 0; pick targets violating it
    rep = verify_completefactor(builtin_system("gw6b", 5), factor,
                                [[1], [0], [0], [0], [0], [0]], [[0]] * 6)
    assert not rep.parameters["targets_in_Z"]
    assert rep.observed["probability"] == 0 and rep.passed


def test_completefactor_zero_targets_within_bound():
    factor = QuadraticFactor(p=5, n=3, gamma1=np.eye(3, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 3),)))
    rep = verify_completefactor(builtin_system("gw6b", 5), factor,
                                [[0]] * 6, [[0]] * 6)
    assert rep.parameters["targets_in_Z"] and rep.passed


def test_completefactor_with_trivial_linear_part_matches_quadfactor():
    factor = QuadraticFactor(p=5, n=2, gamma1=np.zeros((0, 2), dtype=int),
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    sys_ = builtin_system("gw6b", 5)
    complete = verify_completefactor(sys_, factor, [[]] * 6, [[0]] * 6)
    quad = verify_quadfactor(sys_, QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    assert complete.observed["probability_exact"] == \
        quad.observed["probability_exact"]


def factor_count_cases():
    """Every built-in system at p = 3 (where it is one) and 5, and twelve
    seeded random systems with rank C < d, each at the largest n <= 2 with
    N^d <= 15,625, so that the enumeration oracle stays small."""
    rng = np.random.default_rng(95)
    cases = []
    for p in (3, 5):
        for name in BUILTIN_SYSTEM_NAMES:
            try:
                sys_ = builtin_system(name, p)
            except ValueError:  # a coefficient too large for p
                continue
            cases.append((sys_, 2 if p ** (2 * sys_.d) <= 15625 else 1))
    while len(cases) < 24:
        p = (3, 5)[len(cases) % 2]
        r = int(rng.integers(1, 3))
        d = r + 1
        rows = rng.integers(0, p, size=(int(rng.integers(2, 6)), r))
        C = rows @ rng.integers(0, p, size=(r, d)) % p
        if not C.any(axis=1).all() or len({tuple(c) for c in C.tolist()}) < len(C):
            continue
        sys_ = make(p, C.tolist())
        if len(sys_.pivots) < d:
            cases.append((sys_, 2 if p ** (2 * d) <= 15625 else 1))
    return cases


def test_factor_counts_on_the_plan_match_the_enumeration():
    """Without side maps the factor count runs on the elimination plan;
    it equals the enumeration of every assignment (`oracles`), with targets
    read off a random assignment (so hit at least once) and random ones,
    for d1 = 0, 1, 2 (up to n), with the closed form never taken."""
    rng = np.random.default_rng(96)
    hits = 0
    for sys_, n in factor_count_cases():
        p, m = sys_.p, sys_.m
        dom = domain(p, n)
        for d1 in range(min(2, n) + 1):
            factor = random_factor(p, n, d1, 1, rng)
            codes = factor.atom_codes(dom)
            points, index = oracles.naive_points(p, n)
            x = rng.integers(0, dom.size, size=sys_.d).tolist()
            image = [codes[index[oracles._naive_form_value(row, x, points, p, n)]]
                     for row in sys_.coeffs.tolist()]
            read = np.array([[c // p ** (d1 - j) % p for j in range(d1 + 1)]
                             for c in image], dtype=np.int64)
            drawn = rng.integers(0, p, size=(m, d1 + 1))
            for targets in (read, drawn):
                A_t, B_t = targets[:, :d1], targets[:, d1:]
                count = verification._factor_matches(sys_, factor, A_t, B_t, None, None)
                assert count == oracles.enumerated_factor_count(sys_, factor, A_t, B_t), \
                    (sys_.coeffs.tolist(), n, d1)
                hits += count > 0
    assert hits >= 40, hits


def test_badex_runs_the_convolution_and_product_fills(monkeypatch):
    """verify badex on gw6a reaches the convolution fill, and on gw6b the
    matrix-product fill, with the count of the enumeration."""
    seen = []
    for name in ("_convolution_fill", "_product_fill"):
        fill = getattr(counting, name)
        monkeypatch.setattr(counting, name, lambda *a, fill=fill, name=name: (
            seen.append(name), fill(*a))[1])
    monkeypatch.setattr(verification, "_use_gauss", lambda *a: False)
    for name, kind in (("gw6a", "_convolution_fill"), ("gw6b", "_product_fill")):
        sys_ = builtin_system(name, 5)
        seen.clear()
        rep = verify_badex(sys_, 2)
        assert seen == [kind], name
        factor = verification.dot_factor(5, 2)
        zeros = np.zeros((sys_.m, 0), dtype=np.int64)
        count = oracles.enumerated_factor_count(sys_, factor, zeros,
                                                np.zeros((sys_.m, 1), dtype=np.int64))
        assert Fraction(rep.observed["probability_exact"]) == Fraction(count, 5 ** 6)


# ------------------------------------------- closed form against enumeration

def report_text(rep):
    return json.dumps(rep.to_dict(), sort_keys=True)


def both_paths(monkeypatch, verify, *args):
    """The report with the closed-form count and with enumeration forced."""
    texts, seen = [], []

    def choose(homogeneous, *sizes, gauss):
        seen.append(homogeneous)
        return gauss

    for gauss in (True, False):
        monkeypatch.setattr(verification, "_use_gauss",
                            lambda *a, g=gauss: choose(*a, gauss=g))
        texts.append(report_text(verify(*args)))
    assert seen == [True, True] and texts[0] == texts[1]


@pytest.mark.parametrize("p,n,names", [(5, 2, ("gw6b", "ap3")),
                                       (3, 3, ("ap3",)), (7, 2, ("gw6b",))])
def test_quadfactor_closed_form_matches_enumeration(p, n, names, monkeypatch):
    rng = np.random.default_rng(80 + p)
    for name in names:
        sys_ = builtin_system(name, p)
        for kind in ("zero", "rank1", "corank1", "random", "random"):
            q = QuadraticForm(p=p, M=random_symmetric(p, n, kind, rng),
                              b=np.zeros(n, dtype=np.int64))
            both_paths(monkeypatch, verify_quadfactor, sys_, QuadraticMap(forms=(q,)))


def test_completefactor_closed_form_matches_enumeration(monkeypatch):
    p, n = 5, 2
    rng = np.random.default_rng(90)
    # gw6b spans F_5^3; the second system uses only two of its three
    # variables, so the closed form splits off a free variable
    systems = [builtin_system("gw6b", p), make(p, [[1, 0, 0], [1, 1, 0], [1, 2, 0]])]
    for sys_ in systems:
        for d1 in (0, 1, 2):
            for kind in ("rank1", "corank1", "random"):
                factor = random_factor(p, n, d1, 1, rng)
                q = QuadraticForm(p=p, M=random_symmetric(p, n, kind, rng),
                                  b=np.zeros(n, dtype=np.int64))
                factor = QuadraticFactor(p=p, n=n, gamma1=factor.gamma1,
                                         gamma2=QuadraticMap(forms=(q,)))
                both_paths(monkeypatch, verify_completefactor, sys_, factor,
                           [[0] * d1] * sys_.m, [[0]] * sys_.m)


def test_badex_closed_form_matches_enumeration(monkeypatch):
    for name, p, n in (("gw6a", 7, 2), ("gw6a", 5, 2), ("ap4", 5, 3), ("ap3", 5, 4)):
        both_paths(monkeypatch, verify_badex, builtin_system(name, p), n)


def test_closed_form_priced_on_pivot_columns(monkeypatch):
    # at n = 1 the closed form on all three columns is estimated at 7,183
    # operations, on the two pivot columns at 2,661, against 3,993 for
    # enumeration: it must now be taken, and give the enumerated count
    p = 11
    sys_ = make(p, [[1, 0, 0], [1, 1, 0], [1, 2, 0]])
    gamma2 = QuadraticMap(forms=(sum_of_squares_form(p, 1),))
    calls = []
    closed_form = verification.quadratic_zero_count
    monkeypatch.setattr(verification, "quadratic_zero_count",
                        lambda *a: calls.append(a) or closed_form(*a))
    text = report_text(verify_quadfactor(sys_, gamma2))
    assert len(calls) == 1 and calls[0][0].shape == (3, 2)
    monkeypatch.setattr(verification, "_use_gauss", lambda *a: False)
    assert report_text(verify_quadfactor(sys_, gamma2)) == text


def bound1_both_paths(monkeypatch, f, factor, sys_):
    """bound1 with the closed-form average and with enumeration forced: the
    reports agree except for the average, which is the check's lhs."""
    reports, seen = [], []
    for gauss in (True, False):
        def choose(homogeneous, *sizes, g=gauss):
            seen.append(homogeneous)
            return g
        monkeypatch.setattr(verification, "_use_gauss", choose)
        reports.append(verify_bound1(f, factor, sys_).to_dict())
    closed, direct = reports
    assert seen == [True, True]
    assert abs(closed["observed"].pop("average") - direct["observed"].pop("average")) <= 1e-12
    assert abs(closed["checks"][0].pop("lhs") - direct["checks"][0].pop("lhs")) <= 1e-12
    assert closed == direct


def test_bound1_closed_form_matches_enumeration(monkeypatch):
    rng = np.random.default_rng(95)
    cases = [("gw6b", 5, 2), ("gw6b", 3, 3), ("ap3", 7, 2), ("ap3", 3, 3)]
    for name, p, n in cases + [(None, 5, 2)]:
        # the last system uses two of its three variables
        sys_ = builtin_system(name, p) if name else \
            make(p, [[1, 0, 0], [1, 1, 0], [1, 2, 0]])
        fs = [balanced(quadratic_zero_set(p, n)),
              random_bounded_function(domain(p, n), rng)]
        for kind in ("zero", "rank1", "corank1", "random"):
            q = QuadraticForm(p=p, M=random_symmetric(p, n, kind, rng),
                              b=np.zeros(n, dtype=np.int64))
            factor = QuadraticFactor(p=p, n=n, gamma1=np.zeros((0, n), dtype=int),
                                     gamma2=QuadraticMap(forms=(q,)))
            for f in fs:
                bound1_both_paths(monkeypatch, f, factor, sys_)


def test_bound1_enumerates_other_factors(monkeypatch):
    """A linear part or a linear term leaves bound1 on enumeration."""
    seen = []
    monkeypatch.setattr(verification, "_use_gauss",
                        lambda homogeneous, *sizes: seen.append(homogeneous))
    rng = np.random.default_rng(96)
    f = random_bounded_function(domain(5, 2), rng)
    sys_ = builtin_system("gw6b", 5)
    linear = QuadraticFactor(p=5, n=2, gamma1=np.eye(2, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    affine = QuadraticForm(p=5, M=np.eye(2, dtype=int), b=[1, 0])
    shifted = QuadraticFactor(p=5, n=2, gamma1=np.zeros((0, 2), dtype=int),
                              gamma2=QuadraticMap(forms=(affine,)))
    for factor in (linear, shifted):
        assert verify_bound1(f, factor, sys_).passed
    assert seen == [False, False]


def test_closed_forms_run_where_enumeration_cannot():
    domain.cache_clear()
    badex = verify_badex(builtin_system("gw6a", 5), 50)
    quad = verify_quadfactor(builtin_system("gw6b", 5),
                             QuadraticMap(forms=(sum_of_squares_form(5, 20),)))
    assert badex.passed and quad.passed
    assert domain.cache_info().currsize == 0


# ---------------------------------------------------------------- projections

def test_projection_lemmas_constant_function_all_equalities():
    factor = random_factor(3, 3, 1, 0, np.random.default_rng(54))
    f = GroupFunction.constant(domain(3, 3), 0.6)
    rep = verify_projection_lemmas(f, factor)
    assert rep.passed
    assert abs(rep.observed["u2_projection"] - rep.observed["u2_f"]) < 1e-12
    assert rep.observed["u2_remainder"] < 1e-12


def test_projection_lemmas_random_instances():
    rng = np.random.default_rng(55)
    for _ in range(10):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(2, 4))
        factor = random_factor(p, n, int(rng.integers(0, min(2, n) + 1)),
                               int(rng.integers(0, 2)), rng)
        f = random_bounded_function(domain(p, n), rng)
        rep = verify_projection_lemmas(f, factor)
        assert rep.passed, rep.to_dict()


def test_projection_lemmas_balanced_quadratic_set():
    factor = QuadraticFactor(p=5, n=2, gamma1=np.eye(2, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=()))
    f = balanced(quadratic_zero_set(5, 2))
    rep = verify_projection_lemmas(f, factor)
    assert rep.passed


def test_linear_projection_averages_fibers():
    dom = domain(3, 2)
    rng = np.random.default_rng(56)
    f = random_bounded_function(dom, rng)
    factor = QuadraticFactor(p=3, n=2, gamma1=np.eye(2, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=()))
    g = project_linear(f, factor)
    for a in range(3):
        fiber = dom.digits[:, 0] == a
        assert abs(g.values[fiber].mean() - f.values[fiber].mean()) < 1e-12
        assert np.abs(np.diff(g.values[fiber])).max() < 1e-12


def test_atom_projection_is_idempotent_and_mean_preserving():
    rng = np.random.default_rng(57)
    factor = random_factor(5, 3, 1, 1, rng)
    f = random_bounded_function(domain(5, 3), rng)
    f1 = project_atoms(f, factor)
    f2 = project_atoms(f1, factor)
    assert np.abs(f1.values - f2.values).max() < 1e-12
    assert abs(f1.mean() - f.mean()) < 1e-12


# ---------------------------------------------------------------- bound1

def test_bound1_zero_function():
    factor = QuadraticFactor(p=5, n=2, gamma1=np.zeros((0, 2), dtype=int),
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    f = GroupFunction.constant(domain(5, 2), 0.0)
    rep = verify_bound1(f, factor, builtin_system("gw6b", 5))
    assert rep.passed and rep.observed["average"] == 0


def test_bound1_balanced_quadratic_set():
    factor = QuadraticFactor(p=5, n=3, gamma1=np.zeros((0, 3), dtype=int),
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 3),)))
    f = balanced(quadratic_zero_set(5, 3))
    rep = verify_bound1(f, factor, builtin_system("gw6b", 5))
    assert rep.passed


def test_bound1_no_quadratic_part_random_signs():
    rng = np.random.default_rng(58)
    factor = QuadraticFactor(p=5, n=2, gamma1=np.eye(2, dtype=int)[:1],
                             gamma2=QuadraticMap(forms=()))
    f = random_bounded_function(domain(5, 2), rng, "signs")
    rep = verify_bound1(f, factor, builtin_system("gw6b", 5))
    assert rep.passed


def test_bound1_refuses_square_dependent_system():
    factor = QuadraticFactor(p=5, n=2, gamma1=np.zeros((0, 2), dtype=int),
                             gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 2),)))
    f = GroupFunction.constant(domain(5, 2), 0.0)
    with pytest.raises(SquareDependenceError):
        verify_bound1(f, factor, builtin_system("ap4", 5))


# ---------------------------------------------------------------- pythagoras

def test_pythagoras_trivial_cases():
    dom = domain(3, 2)
    zero = GroupFunction.constant(dom, 0.0)
    assert verify_pythagoras(zero, 0.5).observed["gap"] < 1e-12
    rng = np.random.default_rng(59)
    f = random_bounded_function(dom, rng).scaled(0.5)
    f = GroupFunction(domain=dom, values=f.values - f.values.mean())
    assert verify_pythagoras(f, 0.0).observed["gap"] < 1e-12


def test_pythagoras_powers_match_the_direct_norm():
    for p, n in ((3, 3), (5, 2)):
        f = balanced(quadratic_zero_set(p, n)).scaled(0.5)
        obs = verify_pythagoras(f, 0.5).observed
        lhs = uk_norm(f.shifted(0.5), 3) ** 8
        rhs = 0.5**8 + uk_norm(f, 3) ** 8
        assert abs(obs["lhs_power"] - lhs) <= 1e-12 * lhs
        assert abs(obs["rhs_power"] - rhs) <= 1e-12 * rhs


def test_pythagoras_requires_mean_zero_and_boundedness():
    dom = domain(3, 2)
    with pytest.raises(ValueError):
        verify_pythagoras(GroupFunction.constant(dom, 0.5), 0.5)
    f = balanced(quadratic_zero_set(3, 2))
    with pytest.raises(ValueError):
        verify_pythagoras(f, 0.9)  # 0.9 + f leaves [-1, 1]


# ---------------------------------------------------------------- reports

def test_checks_recompute_from_stored_numbers():
    assert Check("le", 1.0, 2.0, "<=").passed
    assert not Check("le", 2.0, 1.0, "<=").passed
    assert Check("eq", 1.0, 1.0 + 1e-12, "==", 1e-9).passed
    assert not Check("eq", 1.0, 1.1, "==", 1e-9).passed
    assert Check("forced", 5.0, 1.0, "<=", exact_verdict=True).passed

    rep = ExperimentReport(name="demo")
    rep.add_check("a", 0.0, 1.0, "<=")
    assert rep.passed
    rep.add_check("b", 2.0, 1.0, "<=")
    assert not rep.passed
    d = rep.to_dict()
    assert d["passed"] is False
    assert [c["passed"] for c in d["checks"]] == [True, False]
