import json
import sys
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from uniformity_lab import algebra, cli, counting, functions, verification
from uniformity_lab.algebra import QuadraticForm, _atom_counts
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, balanced,
                                      random_bounded_function, uk_norm)
from uniformity_lab.systems import builtin_system, cs_complexity
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
from ledger import enumerated_factor_count, kept_tests, make, sum_of_squares_form
from oracles import random_symmetric


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
        fs = [GroupFunction(domain=dom, values=rng.choice([-1.0, 1.0], size=dom.size))
              for _ in range(3)]
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
    eliminate = algebra._eliminate
    monkeypatch.setattr(algebra, "_eliminate", lambda stack, p, lead=None:
                        eliminated.append(len(stack)) or eliminate(stack, p, lead))
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


def test_atom_histogram_in_small_blocks_matches_enumeration(monkeypatch):
    """With ATOM_BLOCK cut to 40 entries the lines of lambda come in blocks
    that fix a middle coordinate (c_lead + mid.c_mid in the transform) and
    the cosets in several steps; the counts do not move.  The factors include
    more forms than coset dimensions (d2 > n - d1)."""
    rng = np.random.default_rng(31)
    factors = [random_factor(p, n, d1, d2, rng) for p, n, d1, d2 in
               ((3, 1, 0, 4), (3, 2, 0, 5), (3, 2, 1, 4), (5, 1, 0, 3),
                (5, 2, 1, 3), (3, 3, 2, 3), (7, 2, 1, 2))]
    monkeypatch.setattr(algebra, "ATOM_BLOCK", 40)
    for factor in factors:
        counts = _atom_counts(factor.gamma1, factor.gamma2.forms, factor.p)
        assert counts.tolist() == oracles.naive_atom_histogram(factor), \
            (factor.p, factor.n, factor.d1, factor.d2)


def test_atoms_visit_the_points_only_where_that_is_cheaper(monkeypatch):
    """With many more forms than coset dimensions (p = 3, n = 2, d2 = 10:
    29524 lines of lambda, 9 points) the histogram is counted over the
    points, at the benchmark's shapes in closed form; both give the same
    exact report, and the closed form's counts equal the enumeration's."""
    assert not verification._price_atoms(3, 2, 0, 10, None)
    assert not verification._price_atoms(3, 3, 1, 9, None)
    # 88573 lines of lambda against 9 points: visited, within the default budget
    assert not verification._price_atoms(3, 2, 0, 11, 10**10)
    for shape in ((5, 6, 2, 2), (7, 4, 1, 2), (5, 5, 0, 3), (3, 8, 3, 2),
                  (5, 30, 2, 2)):
        assert verification._price_atoms(*shape, None)
    factor = random_factor(3, 2, 0, 10, np.random.default_rng(12))
    counts = _atom_counts(factor.gamma1, factor.gamma2.forms, 3)
    assert counts.tolist() == oracles.naive_atom_histogram(factor)
    visited = atom_distribution(factor)
    monkeypatch.setattr(verification, "_price_atoms", lambda *args: True)
    assert atom_distribution(factor) == visited


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
        count = enumerated_factor_count(sys_, factor, zeros,
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
    # the system uses two of its three variables: at p = 7, n = 2 the closed
    # form on the two pivot columns is estimated at 1,148 operations, on all
    # three at 3,086, against 2,254 for the elimination plan (a convolution
    # and a pass at N): it must be taken, and give the enumerated count
    p, n = 7, 2
    sys_ = make(p, [[1, 0, 0], [1, 1, 0], [1, 2, 0]])
    planned = counting.plan_cost(sys_.direct_plan, domain(p, n))
    assert (counting.quadratic_zero_op_count(3, 2, n, p), planned,
            counting.quadratic_zero_op_count(3, 3, n, p)) == (1148, 2254, 3086)
    gamma2 = QuadraticMap(forms=(sum_of_squares_form(p, n),))
    calls = []
    closed_form = verification.quadratic_zero_count
    monkeypatch.setattr(verification, "quadratic_zero_count",
                        lambda *a: calls.append(a) or closed_form(*a))
    text = report_text(verify_quadfactor(sys_, gamma2))
    assert len(calls) == 1 and calls[0][0].shape == (3, 2)
    monkeypatch.setattr(verification, "_use_gauss", lambda *a: False)
    assert report_text(verify_quadfactor(sys_, gamma2)) == text


def closed_form_taken(monkeypatch, verify, *args):
    """Whether `verify(*args)` took the closed form, and whether it built the
    system's direct plan."""
    calls = []
    for name in ("quadratic_zero_count", "quadratic_average"):
        closed_form = getattr(verification, name)
        monkeypatch.setattr(verification, name, lambda *a, f=closed_form: (
            calls.append(a), f(*a))[1])
    built = []
    plan = counting._plan
    monkeypatch.setattr(counting, "_plan", lambda *a: (built.append(a), plan(*a))[1])
    verify(*args)
    monkeypatch.undo()
    # badex counts the density of x.x = 0 in closed form on either path
    return len(calls) > (verify is verify_badex), bool(built)


def test_closed_form_taken_where_it_beats_the_plan(monkeypatch):
    """The closed form is priced against the plan the enumeration runs:
    gw6b's N^3 matrix product beats it at p = 5, n = 3 but not at n = 4,
    ap3's convolution does not beat its 57 classes at p = 7, cube7's plan
    beats its 137,257 classes at p = 7, n = 2, and a form on no coset
    dimension is taken without building the plan."""
    def quadfactor(name, p, n):
        return verify_quadfactor, builtin_system(name, p), \
            QuadraticMap(forms=(sum_of_squares_form(p, n),))

    rng = np.random.default_rng(97)
    complete = QuadraticFactor(p=7, n=2, gamma1=np.eye(2, dtype=np.int64),
                               gamma2=QuadraticMap(forms=(sum_of_squares_form(7, 2),)))
    cases = [(quadfactor("gw6b", 5, 3), (False, True)),
             (quadfactor("gw6b", 5, 4), (True, True)),
             (quadfactor("ap3", 7, 3), (True, True)),
             ((verify_completefactor, builtin_system("gw6b", 7), complete,
               [[0, 0]] * 6, [[0]] * 6), (True, False)),
             ((verify_badex, builtin_system("cube7", 7), 2), (False, True)),
             ((verify_bound1, random_bounded_function(domain(5, 3), rng),
               QuadraticFactor(p=5, n=3, gamma1=np.zeros((0, 3), dtype=np.int64),
                               gamma2=QuadraticMap(forms=(sum_of_squares_form(5, 3),))),
               builtin_system("gw6b", 5)), (False, True))]
    for (verify, *args), expected in cases:
        assert closed_form_taken(monkeypatch, verify, *args) == expected, args


def test_closed_form_taken_where_enumeration_is_refused():
    """Over the enumeration's budget price the closed form is taken even
    where the plan is cheaper, as long as it is below that price: cube7 at
    p = 7, n = 2 enumerates at 7 * 49^4 = 40,353,607 and counts in closed
    form at 24,157,240."""
    sys_ = builtin_system("cube7", 7)
    closed = counting.quadratic_zero_op_count(7, 4, 2, 7)
    assert closed == 24_157_240
    assert not verification._use_gauss(True, closed, sys_, 2, None)
    assert verification._use_gauss(True, closed, sys_, 2, 30_000_000)
    assert verification._use_gauss(True, closed, sys_, 2, 20_000_000)
    assert not verification._use_gauss(True, 7 * 49**4, sys_, 2, 30_000_000)
    assert not verification._use_gauss(False, closed, sys_, 2, 30_000_000)


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
    f = GroupFunction(domain=domain(5, 2), values=rng.choice([-1.0, 1.0], size=25))
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


# The cross-checks of this module that are rows of tests/ledger.py, under
# their older names.
globals().update(kept_tests(__name__))
