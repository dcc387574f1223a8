from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from uniformity_lab import hypergraphs
from uniformity_lab.budget import BudgetExceededError
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, balanced,
                                      random_bounded_function, uk_norm)
from uniformity_lab.hypergraphs import (TripartiteFunction, lift,
                                        octahedral_norm, octahedral_power,
                                        symmetric_sign_function,
                                        vertex_uniformity_counterexample)
from uniformity_lab.verification import quadratic_zero_set

import oracles


def test_octahedral_norm_of_constant():
    F = TripartiteFunction(values=np.full((4, 5, 6), 0.7))
    assert abs(octahedral_norm(F) - 0.7) < 1e-12


def test_octahedral_norm_single_vertex_factor():
    F = TripartiteFunction(values=np.ones((3, 4, 5)))
    assert abs(octahedral_norm(F) - 1) < 1e-12
    rng = np.random.default_rng(60)
    a = rng.choice([-1.0, 1.0], size=6)
    F = TripartiteFunction(values=np.broadcast_to(a[:, None, None], (6, 4, 4)))
    # for F(x,y,z) = a(x) the eight-fold product collapses to (E a^2)-powers
    naive = oracles.naive_octahedral_power(F.values)
    assert abs(octahedral_power(F) - naive.real) < 1e-12


def test_octahedral_matches_naive_on_random_complex():
    rng = np.random.default_rng(61)
    vals = rng.uniform(-1, 1, size=(2, 3, 2)) + 1j * rng.uniform(-1, 1, size=(2, 3, 2))
    F = TripartiteFunction(values=vals)
    naive = oracles.naive_octahedral_power(vals)
    assert abs(octahedral_power(F) - naive.real) < 1e-12
    assert abs(naive.imag) < 1e-12


@pytest.mark.parametrize("shape", [(1, 3, 2), (2, 4, 3), (5, 3, 2)])
def test_octahedral_matches_naive_on_complex_non_cubic(shape):
    # nx = 1 is the diagonal alone; nx = 5 pairs x0 < x1 across several rows
    rng = np.random.default_rng(65 + shape[0])
    vals = rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape)
    naive = oracles.naive_octahedral_power(vals)
    assert abs(naive.imag) < 1e-12
    assert abs(octahedral_power(TripartiteFunction(values=vals)) - naive.real) \
        <= 1e-12 * naive.real


@pytest.mark.parametrize("shape", [(1, 3, 2), (2, 3, 2), (3, 2, 4)])
def test_real_octahedral_power_matches_naive_and_exact(shape):
    """A real table is kept as float64 and its power agrees with the
    enumeration; on values in {0, +-1/2, +-1} every sum of the real path is
    exact, so the power is the exact value rounded once."""
    rng = np.random.default_rng(66 + sum(shape))
    vals = rng.uniform(-1, 1, size=shape)
    F = TripartiteFunction(values=vals + 0j)
    assert F.values.dtype == np.float64
    naive = oracles.naive_octahedral_power(vals)
    assert abs(octahedral_power(F) - naive.real) <= 1e-12 * naive.real
    exact = np.array([Fraction(int(v), 2) for v in rng.integers(-2, 3, np.prod(shape))],
                     dtype=object).reshape(shape)
    want = float(oracles.octahedral_power_exact(exact))
    assert octahedral_power(TripartiteFunction(values=exact)) == want
    assert octahedral_power(TripartiteFunction(values=exact.astype(float))) == want


def test_tables_keep_the_complex_path_for_any_imaginary_part():
    vals = np.random.default_rng(69).uniform(-1, 1, size=(2, 3, 2))
    assert TripartiteFunction(values=vals + 1e-200j).values.dtype == np.complex128
    assert TripartiteFunction(values=np.ones((2, 2, 2), dtype=int)).values.dtype \
        == np.float64
    dom = domain(3, 2)
    real = random_bounded_function(dom, np.random.default_rng(70))
    assert real.values.dtype == np.complex128
    assert lift(real).values.dtype == np.float64
    assert lift(GroupFunction.character(dom, [1, 2])).values.dtype == np.complex128
    tiny = GroupFunction(domain=dom, values=real.values + 1e-200j)
    assert lift(tiny).values.dtype == np.complex128


def test_lift_identity_on_random_functions():
    """Real g, whose lift is float64, at p = 3, n = 2 and at the benchmark's
    p = 3, n = 3 and p = 5, n = 2, then one complex g at each shape."""
    for p, n, draws, seed in ((3, 2, 20, 62), (3, 3, 3, 74), (5, 2, 3, 76)):
        dom = domain(p, n)
        rng = np.random.default_rng(seed)
        for _ in range(draws):
            g = random_bounded_function(dom, rng)
            assert abs(octahedral_norm(lift(g)) - uk_norm(g, 3)) < 1e-9
        twisted = GroupFunction(
            domain=dom, values=g.values * GroupFunction.character(dom, [1] * n).values)
        assert abs(octahedral_norm(lift(twisted)) - uk_norm(twisted, 3)) < 1e-9


def test_lift_identity_balanced_and_character():
    g = balanced(quadratic_zero_set(3, 2))
    assert abs(octahedral_norm(lift(g)) - uk_norm(g, 3)) < 1e-9
    ch = GroupFunction.character(domain(3, 2), [1, 2])
    assert abs(octahedral_norm(lift(ch)) - 1) < 1e-9


def test_lift_of_constant_is_constant():
    g = GroupFunction.constant(domain(3, 1), 1.0)
    F = lift(g)
    assert np.abs(F.values - 1).max() == 0


def test_exact_norm_zero_iff_zero_exhaustive():
    for bits in product([0, 1], repeat=8):
        exact = np.array([Fraction(b) for b in bits], dtype=object).reshape(2, 2, 2)
        power = oracles.octahedral_power_exact(exact)
        assert (power == 0) == (not any(bits))
        assert power >= 0
    # signed values on a flat 2x2x1 table
    for signs in product([-1, 0, 1], repeat=4):
        exact = np.array([Fraction(s) for s in signs], dtype=object).reshape(2, 2, 1)
        power = oracles.octahedral_power_exact(exact)
        assert (power == 0) == (not any(signs))
        assert power >= 0


def test_octahedral_budget_refusal():
    F = TripartiteFunction(values=np.ones((10, 10, 10)))
    with pytest.raises(BudgetExceededError) as err:
        octahedral_norm(F, budget=100)
    assert err.value.required == 1000**2


def test_counterexample_five_seeds():
    for seed in range(1, 6):
        rep = vertex_uniformity_counterexample(seed, 64)
        assert rep.passed, rep.to_dict()
        assert abs(rep.observed["double_edge_average"] - 5 / 18) <= 0.02


def test_counterexample_value_is_exact_rational():
    rep = vertex_uniformity_counterexample(1, 16)
    v = Fraction(rep.observed["double_edge_exact"])
    assert float(v) == rep.observed["double_edge_average"]
    assert v.denominator <= 36 * 16**4


@pytest.mark.parametrize("seed,n_x", [(1, 1), (2, 7), (3, 64), (4, 101), (5, 250)])
def test_counterexample_sums_exactly_in_int64(seed, n_x):
    # the value against the squares summed as Python ints over the same u
    rep = vertex_uniformity_counterexample(seed, n_x)
    u = symmetric_sign_function(n_x, np.random.default_rng(seed)).astype(object)
    rowsum = u.sum(axis=1)
    numer = n_x * (3 + u) + rowsum[:, None] + rowsum[None, :]
    exact = Fraction(int((numer**2).sum()), 36 * n_x**4)
    assert Fraction(rep.observed["double_edge_exact"]) == exact


def test_counterexample_refuses_before_drawing(monkeypatch):
    def refuse_to_draw(n_x, rng):
        raise AssertionError("sign function drawn before the checks")

    monkeypatch.setattr(hypergraphs, "symmetric_sign_function", refuse_to_draw)
    with pytest.raises(BudgetExceededError, match="counterexample on 300 vertices"):
        vertex_uniformity_counterexample(1, 300, budget=300**2 - 1)
    # 635129 is the largest n_x with 36 n_x^3 < 2^63, a row sum's bound
    assert 36 * 635129**3 < 2**63 <= 36 * 635130**3
    with pytest.raises(ValueError, match="overflow"):
        vertex_uniformity_counterexample(1, 635130, budget=10**12)


def counterexample_table(u):
    return TripartiteFunction(values=oracles.counterexample_table(u))


def test_counterexample_constant_sign_sanity():
    n = 8
    H1 = counterexample_table(np.ones((n, n), dtype=int))
    assert np.allclose(H1.values, 1.0)
    assert abs(np.einsum("xyz,xyw->", H1.values, H1.values) / n**4 - 1) < 1e-12
    H0 = counterexample_table(-np.ones((n, n), dtype=int))
    assert np.allclose(H0.values, 0.0)


def test_counterexample_vertex_uniformity():
    rng = np.random.default_rng(63)
    n = 64
    F = counterexample_table(symmetric_sign_function(n, rng))
    density = F.values.mean().real
    for _ in range(20):
        a = rng.uniform(-1, 1, n)
        b = rng.uniform(-1, 1, n)
        c = rng.uniform(-1, 1, n)
        corr = oracles.vertex_correlation(F.values, a, b, c)
        ref = density * a.mean() * b.mean() * c.mean()
        assert abs(corr - ref) <= 3 / n**0.5


def test_symmetric_sign_function_is_symmetric_pm1():
    u = symmetric_sign_function(10, np.random.default_rng(64))
    assert (u == u.T).all()
    assert set(np.unique(u)) <= {-1, 1}
