from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniformity_lab.budget import BudgetExceededError
from uniformity_lab.algebra import QuadraticForm
from uniformity_lab.domains import _add_table, _digits, domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet, balanced,
                                      convolve, fourier, inverse_fourier,
                                      l2_norm, load_function, save_function,
                                      u2_norm_fast, uk_norm, uk_norm_fast,
                                      uk_power_exact)
from uniformity_lab.hypergraphs import lift
from uniformity_lab.systems import LinearFormSystem
from uniformity_lab.verification import (QuadraticFactor, QuadraticMap,
                                         atom_distribution, gauss_sum,
                                         project_linear, quadratic_zero_set,
                                         verify_completefactor,
                                         verify_quadfactor)

import oracles


def random_function(dom, rng, complex_valued=True):
    vals = rng.uniform(-1, 1, dom.size)
    if complex_valued:
        vals = vals + 1j * rng.uniform(-1, 1, dom.size)
    return GroupFunction(domain=dom, values=vals)


# ---------------------------------------------------------------- transforms

def test_fourier_of_constant():
    dom = domain(5, 2)
    fh = fourier(GroupFunction.constant(dom, 0.3))
    assert abs(fh.values[0] - 0.3) < 1e-12
    assert np.abs(fh.values[1:]).max() < 1e-12


def test_fourier_of_character_concentrates_at_negated_frequency():
    dom = domain(5, 2)
    s = np.array([2, 3])
    fh = fourier(GroupFunction.character(dom, s))
    hot = dom.index_of((-s) % 5)
    assert abs(fh.values[hot] - 1) < 1e-12
    rest = np.delete(np.abs(fh.values), hot)
    assert rest.max() < 1e-12


def test_fourier_matches_naive_transform():
    dom = domain(3, 3)
    rng = np.random.default_rng(30)
    f = random_function(dom, rng)
    naive = oracles.naive_fourier(f.values, dom.digits, 3)
    assert np.abs(fourier(f).values - naive).max() < 1e-12


def test_parseval_and_inversion():
    rng = np.random.default_rng(31)
    for p, n in [(3, 2), (5, 2), (3, 3)]:
        dom = domain(p, n)
        f = random_function(dom, rng)
        fh = fourier(f)
        assert abs((np.abs(fh.values) ** 2).sum() -
                   (np.abs(f.values) ** 2).mean()) < 1e-9
        assert np.abs(inverse_fourier(fh).values - f.values).max() < 1e-9


# ---------------------------------------------------------------- U^k norms

def test_uk_norm_of_constant_is_the_constant():
    dom = domain(3, 2)
    f = GroupFunction.constant(dom, 0.4)
    for k in (2, 3):
        assert abs(uk_norm(f, k) - 0.4) < 1e-12


def test_u2_norm_of_character_is_one():
    dom = domain(5, 2)
    f = GroupFunction.character(dom, [1, 4])
    assert abs(uk_norm(f, 2) - 1) < 1e-9
    assert abs(u2_norm_fast(f) - 1) < 1e-9


NAIVE_UK_CASES = [(p, n, k) for p in (3, 5, 7) for n in (1, 2, 3) for k in (2, 3, 4)
                  if (p**n) ** (k + 1) * 2**k <= 2 * 10**5]


def test_uk_norm_matches_naive_enumeration():
    assert {(p, k) for p, _, k in NAIVE_UK_CASES} >= {(3, 4), (5, 4), (7, 3)}
    assert {n for _, n, _ in NAIVE_UK_CASES} == {1, 2, 3}
    rng = np.random.default_rng(32)
    for p, n, k in NAIVE_UK_CASES:
        dom = domain(p, n)
        f = random_function(dom, rng)
        neg = [dom.index_of(-v) for v in dom.digits]
        # a generic input: neither even nor conjugate-even
        assert np.abs(f.values - f.values[neg]).max() > 0.1
        assert np.abs(f.values - np.conj(f.values[neg])).max() > 0.1
        naive = oracles.naive_uk_power(list(f.values), p, n, k)
        assert abs(naive.imag) < 1e-12, (p, n, k)
        assert abs(uk_norm(f, k) ** 2**k - naive.real) <= 1e-9 * naive.real, (p, n, k)


def test_direct_fast_and_exact_uk_agree():
    rng = np.random.default_rng(36)
    for p, n in [(3, 2), (5, 1), (3, 1)]:
        dom = domain(p, n)
        fracs = [Fraction(int(v), 7) for v in rng.integers(-7, 8, dom.size)]
        f = GroupFunction.from_rational(dom, fracs)
        for k in (2, 3, 4):
            exact = float(uk_power_exact(f, k))
            assert abs(uk_norm(f, k) ** 2**k - exact) <= 1e-12 * exact
            assert abs(uk_norm_fast(f, k) ** 2**k - exact) <= 1e-12 * exact
    for p, n, k in [(3, 3, 2), (3, 3, 3), (5, 2, 3), (3, 2, 4), (5, 1, 5)]:
        f = random_function(domain(p, n), rng)
        assert abs(uk_norm(f, k) - uk_norm_fast(f, k)) < 1e-12


def test_fast_uk_at_two_is_u2_norm_fast():
    f = random_function(domain(5, 3), np.random.default_rng(37))
    assert uk_norm_fast(f, 2) == u2_norm_fast(f)


def test_norm_paths_build_no_addition_table(tmp_path):
    # neither the N x N addition table nor the (N, n) digit table is built by
    # any norm, by the lift, or by any former reader of the digit table
    _add_table.cache_clear()
    _digits.cache_clear()
    dom = domain(3, 2)
    rng = np.random.default_rng(38)
    f = GroupFunction.from_rational(
        dom, [Fraction(int(v), 5) for v in rng.integers(-5, 6, dom.size)])
    for k in (2, 3, 4):
        uk_norm(f, k)
        uk_power_exact(f, k)
        uk_norm_fast(f, k)
    lifted = lift(f)
    points, index = oracles.naive_points(3, 2)
    xyz = tuple((a + b + c) % 3 for a, b, c in zip(points[1], points[2], points[4]))
    assert lifted.exact[1, 2, 4] == f.exact[index[xyz]]

    q = QuadraticForm(p=3, M=[[1, 2], [2, 0]], b=[1, 1])
    gauss_sum(q)
    quadratic_zero_set(3, 2)
    factor = QuadraticFactor(p=3, n=2, gamma1=[[1, 1]],
                             gamma2=QuadraticMap(forms=(q,)))
    atom_distribution(factor)
    project_linear(f, factor)
    sys_ = LinearFormSystem(p=3, d=2, coeffs=[[1, 0], [0, 1]])
    verify_quadfactor(sys_, QuadraticMap(forms=(q,)),
                      phis=[[[1, 0, 2, 1]], None], bs=[[1], [0]])
    verify_completefactor(sys_, factor, [[0], [1]], [[1], [2]])
    GroupFunction.character(dom, [1, 2])
    save_function(quadratic_zero_set(3, 2), str(tmp_path / "a.json"))
    assert _add_table.cache_info().currsize == 0
    assert _digits.cache_info().currsize == 0


def test_u2_three_way_identity_and_monotonicity():
    rng = np.random.default_rng(33)
    worst = 0.0
    for _ in range(20):
        dom = domain(3, 2)
        f = random_function(dom, rng)
        direct = uk_norm(f, 2)
        fast = u2_norm_fast(f)
        conv = l2_norm(convolve(f, f)) ** 0.5
        worst = max(worst, abs(direct - fast), abs(direct**4 - conv**4))
        assert uk_norm(f, 2) <= uk_norm(f, 3) + 1e-9
    assert worst < 1e-9


def test_balanced_subspace_indicator_norms_agree():
    dom = domain(5, 3)
    members = dom.digits[:, 0] == 0  # codimension-1 subspace
    f = balanced(IndicatorSet(domain=dom, members=members))
    assert abs(uk_norm(f, 2) - u2_norm_fast(f)) < 1e-9


def test_uk_norm_validation_and_budget():
    dom = domain(3, 2)
    f = GroupFunction.constant(dom, 1.0)
    with pytest.raises(ValueError):
        uk_norm(f, 1)
    with pytest.raises(BudgetExceededError) as err:
        uk_norm(f, 3, budget=10)
    assert err.value.required == 9**3 + 9**2
    assert err.value.budget == 10
    with pytest.raises(ValueError):
        uk_norm_fast(f, 1)
    with pytest.raises(BudgetExceededError) as err:
        uk_norm_fast(f, 3, budget=10)
    assert err.value.required == 9**2 * (2 * 3 + 4)


def test_budget_env_override(monkeypatch):
    dom = domain(3, 2)
    f = GroupFunction.constant(dom, 1.0)
    monkeypatch.setenv("UNIFORMITY_LAB_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        uk_norm(f, 2)


def test_exact_rational_uk_power_matches_float():
    dom = domain(3, 2)
    rng = np.random.default_rng(34)
    fracs = [Fraction(int(v), 7) for v in rng.integers(-7, 8, dom.size)]
    f = GroupFunction.from_rational(dom, fracs)
    for k in (2, 3):
        exact = uk_power_exact(f, k)
        assert abs(float(exact) - uk_norm(f, k) ** 2**k) < 1e-9


@settings(max_examples=25, deadline=None)
@given(st.lists(st.fractions(min_value=-1, max_value=1, max_denominator=8),
                min_size=9, max_size=9))
def test_exact_u2_power_is_fourth_power_of_fast_norm(fracs):
    dom = domain(3, 2)
    f = GroupFunction.from_rational(dom, fracs)
    assert abs(float(uk_power_exact(f, 2)) - u2_norm_fast(f) ** 4) < 1e-9


def test_quadratic_zero_set_balanced_norm_gap():
    # the balanced function of {x.x = 0} in F_5^2 is linearly uniform but
    # carries quadratic structure: small U^2, U^3 bounded away from zero
    f = balanced(quadratic_zero_set(5, 2))
    assert uk_norm(f, 2) <= 5 ** -0.5 + 1e-12
    assert uk_norm(f, 3) >= 1 / 5


# ---------------------------------------------------------------- convolution

def test_convolution_identities():
    dom = domain(3, 3)
    rng = np.random.default_rng(35)
    f = random_function(dom, rng)
    delta = np.zeros(dom.size, dtype=complex)
    delta[0] = dom.size
    assert np.abs(convolve(GroupFunction(domain=dom, values=delta), f).values -
                  f.values).max() < 1e-9

    full = IndicatorSet(domain=dom, members=np.ones(dom.size, dtype=bool))
    conv = convolve(full.to_function(), full.to_function())
    assert np.abs(conv.values - 1).max() < 1e-9

    naive = oracles.naive_convolve(f.values, f.values, 3, 3)
    assert np.abs(convolve(f, f).values - naive).max() < 1e-9
    assert abs(l2_norm(convolve(f, f)) ** 2 - uk_norm(f, 2) ** 4) < 1e-9


def test_convolve_rejects_mismatched_domains():
    f = GroupFunction.constant(domain(3, 2), 1.0)
    g = GroupFunction.constant(domain(3, 3), 1.0)
    with pytest.raises(ValueError):
        convolve(f, g)


# ---------------------------------------------------------------- balanced

def test_balanced_trivial_sets():
    dom = domain(3, 2)
    full = IndicatorSet(domain=dom, members=np.ones(dom.size, dtype=bool))
    empty = IndicatorSet(domain=dom, members=np.zeros(dom.size, dtype=bool))
    assert not balanced(full).values.any()
    assert not balanced(empty).values.any()


def test_balanced_quadratic_zero_set_values():
    A = quadratic_zero_set(5, 2)
    assert A.count == 9
    f = balanced(A)
    assert sum(f.exact) == 0  # mean zero exactly, as rationals
    assert set(f.exact) == {Fraction(-9, 25), Fraction(16, 25)}


# ---------------------------------------------------------------- files

def test_function_file_roundtrips(tmp_path):
    dom = domain(3, 2)
    rng = np.random.default_rng(36)

    f = random_function(dom, rng)
    path = tmp_path / "f.json"
    save_function(f, str(path))
    g = load_function(str(path))
    assert np.abs(g.values - f.values).max() < 1e-15

    fr = GroupFunction.from_rational(dom, [Fraction(i - 4, 9) for i in range(9)])
    save_function(fr, str(path))
    g = load_function(str(path))
    assert list(g.exact) == list(fr.exact)

    A = quadratic_zero_set(3, 2)
    save_function(A, str(path))
    B = load_function(str(path))
    assert isinstance(B, IndicatorSet) and (B.members == A.members).all()


def test_indicator_density_exact():
    A = quadratic_zero_set(5, 2)
    assert A.density == Fraction(9, 25)
