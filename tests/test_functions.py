import tracemalloc
from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniformity_lab.budget import BudgetExceededError
from uniformity_lab.algebra import QuadraticForm
from uniformity_lab import functions
from uniformity_lab.domains import GroupDomain, _add_table, _digits, domain
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
    _, index = oracles.naive_points(5, 2)
    hot = index[tuple(((-s) % 5).tolist())]
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


def test_values_are_read_only_and_the_transform_is_kept():
    dom = domain(3, 2)
    own = np.exp(1j * np.arange(dom.size, dtype=np.float64))
    f = GroupFunction(domain=dom, values=own)
    with pytest.raises(ValueError, match="read-only"):
        f.values[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        f.values *= 2
    # the caller's array keeps its flags; the table is a view of it
    assert own.flags.writeable and np.shares_memory(own, f.values)
    assert fourier(f) is f.transform and fourier(f) is fourier(f)
    naive = oracles.naive_fourier(own, dom.digits, 3)
    assert np.abs(fourier(f).values - naive).max() < 1e-12
    assert not fourier(f).values.flags.writeable


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


def generic_function(dom, rng):
    """A complex function that is neither even nor conjugate-even."""
    f = random_function(dom, rng)
    points, index = oracles.naive_points(dom.p, dom.n)
    neg = [index[tuple(-x % dom.p for x in v)] for v in points]
    assert np.abs(f.values - f.values[neg]).max() > 0.1
    assert np.abs(f.values - np.conj(f.values[neg])).max() > 0.1
    return f


def real_generic_function(dom, rng):
    """A real function that is not even."""
    f = random_function(dom, rng, complex_valued=False)
    points, index = oracles.naive_points(dom.p, dom.n)
    neg = [index[tuple(-x % dom.p for x in v)] for v in points]
    assert np.abs(f.values - f.values[neg]).max() > 0.1
    return f


NAIVE_UK_CASES = [(p, n, k) for p in (3, 5, 7) for n in (1, 2, 3) for k in (2, 3, 4, 5)
                  if (p**n) ** (k + 1) * 2**k <= 2 * 10**5]


def test_uk_norm_matches_naive_enumeration():
    """On a generic complex table within 1e-9, and on a generic real one,
    which takes the float64 path, within 1e-12."""
    assert {(p, k) for p, _, k in NAIVE_UK_CASES} >= {(3, 4), (5, 4), (7, 3), (3, 5)}
    assert {n for _, n, _ in NAIVE_UK_CASES} == {1, 2, 3}
    rng, real_rng = np.random.default_rng(32), np.random.default_rng(35)
    for p, n, k in NAIVE_UK_CASES:
        dom = domain(p, n)
        for f, tol in ((generic_function(dom, rng), 1e-9),
                       (real_generic_function(dom, real_rng), 1e-12)):
            naive = oracles.naive_uk_power(list(f.values), p, n, k)
            assert abs(naive.imag) < 1e-12, (p, n, k)
            assert abs(uk_norm(f, k) ** 2**k - naive.real) <= tol * naive.real, (p, n, k)


@pytest.mark.parametrize("p,n,k", [(3, 2, 2), (5, 2, 2), (3, 2, 3), (5, 2, 3),
                                   (3, 2, 4), (5, 1, 5)])
def test_real_uk_norm_equals_the_exact_power_on_halves(p, n, k):
    """On values in {0, +-1/2, +-1} every sum of the real path is exact in
    float64, so the norm is the root of the exact power rounded once."""
    dom = domain(p, n)
    rng = np.random.default_rng(90 + p * n * k)
    f = GroupFunction.from_rational(
        dom, [Fraction(int(v), 2) for v in rng.integers(-2, 3, dom.size)])
    assert uk_norm(f, k) == float(uk_power_exact(f, k)) ** (1.0 / 2**k)


def cube_sum_dtypes(monkeypatch, f, k):
    """uk_norm(f, k) and the dtypes of the stacks its cube sums receive."""
    dtypes = set()
    cube_sum = functions._cube_sum

    def spy(dom, stack, trailing):
        dtypes.add(stack.dtype)
        return cube_sum(dom, stack, trailing)

    monkeypatch.setattr(functions, "_cube_sum", spy)
    return uk_norm(f, k), dtypes


@pytest.mark.parametrize("p,n,k", [(5, 2, 2), (3, 2, 3), (3, 2, 4)])
def test_real_tables_take_the_real_path(monkeypatch, p, n, k):
    dom = domain(p, n)
    rng = np.random.default_rng(95 + p + n + k)
    real = random_function(dom, rng, complex_valued=False)
    assert real.values.dtype == np.complex128  # the storage stays complex
    _, dtypes = cube_sum_dtypes(monkeypatch, real, k)
    assert dtypes == {np.dtype(np.float64)}
    _, dtypes = cube_sum_dtypes(monkeypatch, generic_function(dom, rng), k)
    assert dtypes == {np.dtype(np.complex128)}


@pytest.mark.parametrize("p,n,k", [(3, 2, 2), (5, 1, 3), (3, 1, 4)])
def test_a_tiny_imaginary_part_keeps_the_complex_path(monkeypatch, p, n, k):
    """Imaginary parts of 1e-200 are nonzero, so the table is not cut to
    its real part, and the value is that of the enumeration."""
    dom = domain(p, n)
    vals = np.random.default_rng(98 + p * n * k).uniform(-1, 1, dom.size) + 1e-200j
    f = GroupFunction(domain=dom, values=vals)
    value, dtypes = cube_sum_dtypes(monkeypatch, f, k)
    assert dtypes == {np.dtype(np.complex128)}
    naive = oracles.naive_uk_power(list(f.values), p, n, k)
    assert abs(value ** 2**k - naive.real) <= 1e-12 * naive.real


@pytest.mark.parametrize("p,n", [(5, 4), (5, 5), (3, 7)])
def test_u2_norm_matches_numpy_fft_across_translation_blocks(p, n):
    dom = domain(p, n)
    # (5, 4) takes its shifts in one block, (5, 5) and (3, 7) in several
    _, entries = functions._cube_split(dom)
    assert (entries > functions.CUBE_BLOCK_ENTRIES) == (dom.size > 625)
    f = generic_function(dom, np.random.default_rng(40 + p + n))
    want = oracles.fft_u2_norm(f.values, p, n)
    assert abs(uk_norm(f, 2) - want) <= 1e-12 * want


def cube_sum_by_rolls(g, p, n):
    """sum_h |sum_x g(x) conj(g(x + h))|^2, each translate an np.roll."""
    grid = g.reshape((p,) * n)
    total = 0.0
    for h in product(range(p), repeat=n):
        shifted = np.roll(grid, [-c for c in h], axis=tuple(range(n)))
        total += abs(np.vdot(shifted, grid)) ** 2
    return total


@pytest.mark.parametrize("p,n", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2),
                                 (3, 4), (5, 3)])
def test_cube_sum_at_every_split_equals_the_definition(p, n):
    """The matrix-product U^2 cube sum of a stack of generic complex tables,
    and of one of generic real float64 tables, at every split x = (a, y)
    including n = 1 and no leading coordinate, equals the definition, and
    the literal cube enumeration where that is small."""
    dom = domain(p, n)
    rng = np.random.default_rng(50 + 10 * p + n)
    complex_gs = [generic_function(dom, rng).values for _ in range(3)]
    real_gs = [real_generic_function(dom, rng).values.real for _ in range(3)]
    for gs, dtype in ((complex_gs, np.complex128), (real_gs, np.float64)):
        stack = np.stack([dom.wrap_padded(g, 1) for g in gs])
        assert stack.dtype == dtype
        want = [cube_sum_by_rolls(g, p, n) for g in gs]
        if dom.size <= 9:
            for g, w in zip(gs, want):
                naive = oracles.naive_uk_power(list(g), p, n, 2) * dom.size**3
                assert abs(naive - w) <= 1e-12 * w
        for trailing in range(1, n + 1):
            got = functions._cube_sum(dom, stack, trailing)
            assert abs(got - sum(want)) <= 1e-12 * sum(want), (dtype, trailing)
            one = functions._cube_sum(dom, stack[1:2], trailing)
            assert abs(one - want[1]) <= 1e-12 * want[1], (dtype, trailing)


@pytest.mark.parametrize("p,n,k,caps", [(3, 3, 3, (54, 540)), (5, 2, 3, (50, 600)),
                                        (3, 2, 4, (9, 100, 300)), (3, 4, 2, (162,)),
                                        (3, 2, 3, (9, 75))])
def test_uk_norm_under_a_lowered_block_cap(monkeypatch, p, n, k, caps):
    """With the block cap lowered, the blocks of derivatives and of shifts
    end mid-range, and the value stays that of the default blocks, of the
    fast norm and, where small, of the literal cube enumeration."""
    dom = domain(p, n)
    f = generic_function(dom, np.random.default_rng(70 + p * n * k))
    want = uk_norm(f, k)
    assert abs(uk_norm_fast(f, k) - want) <= 1e-12 * want
    if dom.size ** (k + 1) * 2**k <= 10**5:
        naive = oracles.naive_uk_power(list(f.values), p, n, k).real
        assert abs(want ** 2**k - naive) <= 1e-12 * naive
    trailing, _ = functions._cube_split(dom)
    pairs = (p**trailing + 1) // 2
    split = GroupDomain.split_translates
    calls = []

    def spy(self, stack, trailing, lo, hi):
        calls.append((len(stack), lo, hi))
        return split(self, stack, trailing, lo, hi)

    monkeypatch.setattr(GroupDomain, "split_translates", spy)
    reps = (dom.size + 1) // 2  # one h of each pair {h, -h}
    stacks, shift_blocks = set(), set()
    for cap in caps:
        monkeypatch.setattr(functions, "CUBE_BLOCK_ENTRIES", cap)
        calls.clear()
        assert abs(uk_norm(f, k) - want) <= 1e-13 * want, cap
        stacks |= {S for S, _, _ in calls}
        shift_blocks |= {(lo, hi) for _, lo, hi in calls}
    if k > 2:  # some block of derivatives holds more than one h, not all
        assert any(1 < S < reps ** (k - 2) for S in stacks), stacks
    # some block of shifts ends before the last representative
    assert any(hi < pairs for _, hi in shift_blocks), shift_blocks


@pytest.mark.parametrize("p,n,k,complex_valued", [
    pytest.param(5, 5, 2, True, id="5-5-2"), pytest.param(7, 3, 3, True, id="7-3-3"),
    pytest.param(5, 5, 2, False, id="5-5-2-real"),
    pytest.param(7, 3, 3, False, id="7-3-3-real")])
def test_uk_norm_peak_memory(p, n, k, complex_valued):
    """The blocks keep the direct norm's traced peak under 2 MB, about the
    complex wrap-padded table (945 KB at p = 5, n = 5), on complex and on
    real tables."""
    f = random_function(domain(p, n), np.random.default_rng(80 + p + n),
                        complex_valued)
    uk_norm(f, k)  # index tables built and cached
    tracemalloc.start()
    try:
        uk_norm(f, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 10**6, peak


@pytest.mark.parametrize("p,n,k", [(3, 1, 4), (5, 1, 4), (3, 2, 3)])
def test_exact_uk_power_equals_naive_fraction(p, n, k):
    dom = domain(p, n)
    rng = np.random.default_rng(41 + p * n * k)
    f = GroupFunction.from_rational(
        dom, [Fraction(int(v), 5) for v in rng.integers(-5, 6, dom.size)])
    assert uk_power_exact(f, k) == oracles.naive_uk_power(list(f.exact), p, n, k)


@pytest.mark.parametrize("k", [3, 4])
def test_norms_wrap_pad_once(monkeypatch, k):
    calls = []
    pad = np.pad

    def counting_pad(*args, **kwargs):
        calls.append(args[0].shape)
        return pad(*args, **kwargs)

    monkeypatch.setattr(np, "pad", counting_pad)
    rng = np.random.default_rng(42)
    f = GroupFunction.from_rational(
        domain(3, 2), [Fraction(int(v), 3) for v in rng.integers(-3, 4, 9)])
    for norm in (uk_norm, uk_power_exact, uk_norm_fast):
        calls.clear()
        norm(f, k)
        assert len(calls) <= 1, (norm.__name__, calls)


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
    assert lifted.values[1, 2, 4] == f.values[index[xyz]]

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


def test_member_vectors_build_the_exact_tables():
    dom = domain(5, 2)
    # entries are read mod p; a repeated member counts once
    A = IndicatorSet.from_member_vectors(dom, [[0, 1], [7, -1], [2, 4]])
    _, index = oracles.naive_points(5, 2)
    assert np.flatnonzero(A.members).tolist() == sorted([index[0, 1], index[2, 4]])
    assert list(A.to_function().exact) == [Fraction(int(b)) for b in A.members]
    assert list(balanced(A).exact) == [Fraction(int(b)) - Fraction(2, 25)
                                       for b in A.members]
    assert IndicatorSet.from_member_vectors(dom, []).count == 0
    for bad in ([[1, 2, 3]], [[1], [2]], [1, 2], [[1, 2], [3]]):
        with pytest.raises(ValueError):
            IndicatorSet.from_member_vectors(dom, bad)


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
