import json
import tracemalloc
from fractions import Fraction
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uniformity_lab.budget import BudgetExceededError
from uniformity_lab.cli import main
from uniformity_lab.algebra import QuadraticForm
from uniformity_lab import functions
from uniformity_lab.domains import GroupDomain, _add_table, _digits, domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet, balanced,
                                      fourier, inverse_fourier,
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
from ledger import (generic_function, kept_tests, random_function,
                    real_generic_function)


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
    naive = oracles.naive_fourier(own, 3, 2)
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

    def spy(dom, stack, trailing, *args):
        dtypes.add(stack.dtype)
        return cube_sum(dom, stack, trailing, *args)

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
    trailing = functions._cube_split(dom)
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


# (p, n, k) for the pairing of the last derivative with the first cube
# direction: n = 1 has no leading coordinate, so a class is one derivative
TRIANGLE_CASES = [(3, 1, 3), (7, 1, 3), (5, 1, 4), (3, 1, 5), (3, 2, 3), (5, 2, 3),
                  (7, 2, 3), (3, 2, 4), (3, 2, 5), (3, 3, 3), (5, 3, 3), (7, 3, 3),
                  (3, 3, 4), (3, 4, 3), (3, 4, 4)]


@pytest.mark.parametrize("p,n,k", TRIANGLE_CASES)
def test_uk_norm_on_the_triangle_matches_the_oracles(monkeypatch, p, n, k):
    """On real and complex tables the direct U^k power equals the literal
    cube enumeration where that is small and the fast norm's elsewhere, to
    1e-12, at the default block cap and at caps low enough that at k = 3 a
    class of the last level is split across blocks of derivatives (when
    there is a leading coordinate) and a block's shifts across gathers."""
    dom = domain(p, n)
    rng = np.random.default_rng(110 + 10 * p + n + k)
    trailing = functions._cube_split(dom)
    cube_sum, split = functions._cube_sum, GroupDomain.split_translates
    calls = []

    def cube_spy(dom, stack, trailing, t=None):
        calls.append([len(stack), t, 0])
        return cube_sum(dom, stack, trailing, t)

    def split_spy(self, stack, trailing, lo, hi):
        calls[-1][2] += 1
        return split(self, stack, trailing, lo, hi)

    monkeypatch.setattr(functions, "_cube_sum", cube_spy)
    monkeypatch.setattr(GroupDomain, "split_translates", split_spy)
    blocks = set()
    for complex_valued in (False, True):
        f = random_function(dom, rng, complex_valued)
        if dom.size ** (k + 1) * 2**k <= 10**5:
            want = oracles.naive_uk_power(list(f.values), p, n, k).real
        else:
            want = uk_norm_fast(f, k) ** 2**k
        for cap in (functions.CUBE_BLOCK_ENTRIES, 2**10, 1):
            monkeypatch.setattr(functions, "CUBE_BLOCK_ENTRIES", cap)
            calls.clear()
            assert abs(uk_norm(f, k) ** 2**k - want) <= 1e-12 * want, (complex_valued, cap)
            if cap < 2**14:
                blocks |= {tuple(c) for c in calls}
    if k == 3:
        if n > trailing:  # a class t > 0 holds p^lead derivatives
            assert any(t and S < p ** (n - trailing) for S, t, _ in blocks), blocks
        assert any(gathers > 1 for _, _, gathers in blocks), blocks


@pytest.mark.parametrize("p,n", [(7, 3), (3, 4), (5, 2), (5, 1)])
def test_u3_cube_sums_take_each_pair_of_classes_once(monkeypatch, p, n):
    """The last level of U^3 gathers and multiplies sum_t S_t (pairs - t)
    table-shifts, S_t the derivatives of class t: (p^lead + 1)/2 at t = 0,
    p^lead after.  At p = 7, n = 3 that is 4 * 25 + 7 * 300 = 2,200, against
    the 172 * 25 = 4,300 of every derivative taking every shift, in 26 cube
    sums of one class each."""
    dom = domain(p, n)
    trailing = functions._cube_split(dom)
    lead, pairs = n - trailing, (p**trailing + 1) // 2
    cube_sum, split = functions._cube_sum, GroupDomain.split_translates
    sums, gathered = [], []

    def cube_spy(dom, stack, trailing, t=None):
        sums.append(len(stack) * (pairs - t))
        return cube_sum(dom, stack, trailing, t)

    def split_spy(self, stack, trailing, lo, hi):
        gathered.append(len(stack) * (hi - lo))
        return split(self, stack, trailing, lo, hi)

    monkeypatch.setattr(functions, "_cube_sum", cube_spy)
    monkeypatch.setattr(GroupDomain, "split_translates", split_spy)
    uk_norm(random_function(dom, np.random.default_rng(120 + p + n)), 3)
    want = (p**lead + 1) // 2 * pairs + p**lead * pairs * (pairs - 1) // 2
    assert sum(sums) == sum(gathered) == want
    if (p, n) == (7, 3):
        assert want == 2200 and len(sums) == 26


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


@pytest.mark.parametrize("p,n,k", [(3, 1, 4), (5, 1, 4), (3, 2, 3), (3, 1, 2),
                                   (7, 1, 2), (5, 2, 2), (5, 1, 3), (7, 1, 3),
                                   (3, 1, 5), (5, 2, 3), (3, 2, 4)])
def test_exact_uk_power_equals_naive_fraction(monkeypatch, p, n, k):
    """The exact power runs `uk_norm`'s blocks, pair weights and classes on
    an integer table: at k >= 3 its last level has classes t > 0, and at
    lowered caps `_cube_sum` takes its shifts in several blocks, one pair
    representative to a block at cap 1, and the value stays the literal
    enumeration's Fraction."""
    dom = domain(p, n)
    rng = np.random.default_rng(41 + p * n * k)
    fracs = [Fraction(int(v), 5) for v in rng.integers(-5, 6, dom.size)]
    f = GroupFunction.from_rational(dom, fracs)
    want = oracles.naive_uk_power(fracs, p, n, k)
    cube_sum = functions._cube_sum
    calls = []

    def spy(dom, stack, trailing, t=None):
        calls.append(t)
        return cube_sum(dom, stack, trailing, t)

    monkeypatch.setattr(functions, "_cube_sum", spy)
    for cap in (functions.CUBE_BLOCK_ENTRIES, 2**6, 1):
        monkeypatch.setattr(functions, "CUBE_BLOCK_ENTRIES", cap)
        assert uk_power_exact(f, k) == want, cap
    assert k == 2 or any(calls), calls  # some class t > 0


# (p, n, k) on which the exact and the float U^k make the same cube sums
SAME_ENGINE_CASES = [(3, 1, 2), (5, 2, 2), (3, 3, 2), (7, 2, 2), (3, 1, 3),
                     (5, 2, 3), (3, 3, 3), (7, 2, 3), (3, 2, 4), (5, 1, 4),
                     (3, 3, 4)]


@pytest.mark.parametrize("p,n,k", SAME_ENGINE_CASES)
def test_exact_and_float_uk_make_the_same_cube_sums(monkeypatch, p, n, k):
    """`uk_power_exact` and `uk_norm` reach `_cube_sum` through one
    enumeration: the same calls, on stacks of one shape (object against
    float64) with the same class t, in the same order."""
    dom = domain(p, n)
    rng = np.random.default_rng(130 + p * n * k)
    f = GroupFunction.from_rational(
        dom, [Fraction(int(v), 3) for v in rng.integers(-3, 4, dom.size)])
    cube_sum = functions._cube_sum
    calls = []

    def spy(dom, stack, trailing, t=None):
        calls.append((stack.shape, t, stack.dtype))
        return cube_sum(dom, stack, trailing, t)

    monkeypatch.setattr(functions, "_cube_sum", spy)
    uk_norm(f, k)
    floats = calls[:]
    calls.clear()
    uk_power_exact(f, k)
    assert [c[:2] for c in calls] == [c[:2] for c in floats]
    assert {c[2] for c in floats} == {np.dtype(np.float64)}
    assert {c[2] for c in calls} == {np.dtype(object)}


def compensated_sum(items, start=0):
    """builtin sum as from CPython 3.12 on, which adds floats with Neumaier
    compensation; ints add exactly, as in every version."""
    items = list(items)
    if not any(isinstance(x, float) for x in items):
        return sum(items, start)
    total, carry = float(start), 0.0
    for x in map(float, items):
        t = total + x
        carry += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + carry


@pytest.mark.parametrize("p,n,k", [(5, 3, 3), (3, 3, 4), (7, 2, 3), (5, 2, 4)])
def test_uk_norms_do_not_depend_on_the_builtin_sum(monkeypatch, p, n, k):
    """The norms add their blocks in a fixed order: with builtin sum made
    compensating, as it is from CPython 3.12 on, no bit moves.  At p = 5,
    n = 3, k = 3 a compensated sum of the blocks would move `uk_norm` of
    this table from 0.3415601754508276 to 0.3415601754508277."""
    dom = domain(p, n)
    f = GroupFunction(domain=dom,
                      values=np.random.default_rng(3).uniform(-1, 1, dom.size))
    plain = (uk_norm(f, k), uk_norm_fast(f, k))
    monkeypatch.setattr(functions, "sum", compensated_sum, raising=False)
    assert (uk_norm(f, k), uk_norm_fast(f, k)) == plain
    if (p, n, k) == (5, 3, 3):
        assert repr(plain[0]) == "0.3415601754508276"


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
    for p, n, k in [(5, 3, 3), (3, 4, 3)]:
        dom = domain(p, n)
        fracs = [Fraction(int(v), 7) for v in rng.integers(-7, 8, dom.size)]
        f = GroupFunction.from_rational(dom, fracs)
        exact = float(uk_power_exact(f, k))
        assert abs(uk_norm(f, k) ** 2**k - exact) <= 1e-12 * exact
        assert abs(uk_norm_fast(f, k) ** 2**k - exact) <= 1e-12 * exact


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
        conv = l2_norm(oracles.convolve(f, f)) ** 0.5
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
    assert np.abs(oracles.convolve(GroupFunction(domain=dom, values=delta), f).values -
                  f.values).max() < 1e-9

    full = IndicatorSet(domain=dom, members=np.ones(dom.size, dtype=bool))
    conv = oracles.convolve(full.to_function(), full.to_function())
    assert np.abs(conv.values - 1).max() < 1e-9

    naive = oracles.naive_convolve(f.values, f.values, 3, 3)
    assert np.abs(oracles.convolve(f, f).values - naive).max() < 1e-9
    assert abs(l2_norm(oracles.convolve(f, f)) ** 2 - uk_norm(f, 2) ** 4) < 1e-9


def test_convolve_rejects_mismatched_domains():
    f = GroupFunction.constant(domain(3, 2), 1.0)
    g = GroupFunction.constant(domain(3, 3), 1.0)
    with pytest.raises(ValueError):
        oracles.convolve(f, g)


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
    assert f.exact is None
    assert set(f.values) == {-9 / 25, 16 / 25}
    assert abs(f.mean()) < 1e-15


def test_member_vectors_build_the_exact_tables():
    dom = domain(5, 2)
    # entries are read mod p; a repeated member counts once
    A = IndicatorSet.from_member_vectors(dom, [[0, 1], [7, -1], [2, 4]])
    _, index = oracles.naive_points(5, 2)
    assert np.flatnonzero(A.members).tolist() == sorted([index[0, 1], index[2, 4]])
    assert A.to_function().exact is None and balanced(A).exact is None
    assert A.to_function().values.tolist() == [float(b) for b in A.members]
    assert balanced(A).values.tolist() == [float(b) - 2 / 25 for b in A.members]
    assert IndicatorSet.from_member_vectors(dom, []).count == 0
    for bad in ([[1, 2, 3]], [[1], [2]], [1, 2], [[1, 2], [3]], [[0, 0.9]]):
        with pytest.raises(ValueError):
            IndicatorSet.from_member_vectors(dom, bad)


# ---------------------------------------------------------------- files

@pytest.mark.parametrize("field,value", [("members", [[0, 0], [0, 0.9]]), ("p", 5.0),
                                         ("p", True), ("n", 2.5), ("n", False)])
def test_load_function_refuses_non_integer_numbers(field, value, tmp_path):
    """A float or true/false where a function file holds integers is refused,
    naming the file and the field: cast, the member [0, 0.9] was point 0."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 5, "n": 2, "mode": "indicator",
                                "members": [[1, 2]], field: value}))
    with pytest.raises(ValueError, match=f"bad.json, field '{field}'"):
        load_function(str(path))


@pytest.mark.parametrize("values", [[0.1, "1/2", 1], [1, True, 0], ["0.5", 1, 1],
                                    ["1/0", 1, 1], [1, None, 1]])
def test_load_function_refuses_rational_values_other_than_integers_and_fractions(
        values, tmp_path):
    """A rational file holds integers and "a/b" strings only: a float, which
    would load with common denominator 2^55, true/false, a decimal string, a
    zero denominator and null are refused, naming the file and the field."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 3, "n": 1, "mode": "rational", "values": values}))
    with pytest.raises(ValueError, match="bad.json, field 'values'"):
        load_function(str(path))


@pytest.mark.parametrize("mode, values", [
    ("complex", [[True, 0], [0.5, False], [1, 0]]), ("complex", [[1, 0, 7], [0.5, 0], [1, 0]]),
    ("complex", [[1, 0], [0.5, 0]]), ("complex", [[1, 0], [None, 0], [1, 0]]),
    ("complex", [[1, 0], "ab", [1, 0]]), ("complex", [[1, 0], 5, [1, 0]]),
    ("complex", [[1, 0], [10**400, 0], [1, 0]]), ("complex", 7),
    ("rational", [1, "1/2"]), ("rational", [1, 0, 0, 1])])
def test_load_function_refuses_values_other_than_a_table_of_the_domain_size(
        mode, values, tmp_path):
    """A complex file holds N pairs [re, im] of numbers and a rational file N
    values: true/false, which loaded as 1/0, an entry of three, which
    raised "too many values to unpack", and a short table, which named no
    file, are refused with null, a string, a bare number, an integer beyond
    float64 and a long table, naming the file and the field; pairs of ints
    and floats load as they did."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"p": 3, "n": 1, "mode": mode, "values": values}))
    with pytest.raises(ValueError, match="bad.json, field 'values'"):
        load_function(str(path))
    assert main(["norm", "--function", str(path), "--p", "3", "--n", "1",
                 "--out", str(tmp_path / "report.json")]) == 2
    path.write_text(json.dumps({"p": 3, "n": 1, "mode": "complex",
                                "values": [[1, 0], [0.5, -2], [3, 0.25]]}))
    assert load_function(str(path)).values.tolist() == [1, 0.5 - 2j, 3 + 0.25j]


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
    assert [Fraction(a, g.exact[1]) for a in g.exact[0]] == \
        [Fraction(a, fr.exact[1]) for a in fr.exact[0]]

    A = quadratic_zero_set(3, 2)
    save_function(A, str(path))
    B = load_function(str(path))
    assert isinstance(B, IndicatorSet) and (B.members == A.members).all()


def test_rational_file_above_ten_thousand_points_roundtrips(tmp_path):
    # 3^9 = 19683 points: loaded into one integer table over the common
    # denominator, whatever the size, and saved back to the same strings
    dom = domain(3, 9)
    rng = np.random.default_rng(44)
    strings = [str(Fraction(int(a), int(b))) for a, b in
               zip(rng.integers(-9, 10, dom.size), rng.integers(1, 10, dom.size))]
    path, again = tmp_path / "f.json", tmp_path / "g.json"
    path.write_text(json.dumps({"p": 3, "n": 9, "mode": "rational", "values": strings}))
    f = load_function(str(path))
    F, D = f.exact
    assert [str(Fraction(a, D)) for a in F] == strings
    assert f.values.tolist() == [float(Fraction(v)) for v in strings]
    save_function(f, str(again))
    assert json.loads(again.read_text())["values"] == strings
    assert main(["norm", "--function", str(path), "--k", "2", "--method", "fast",
                 "--out", str(tmp_path / "r.json")]) == 0


def test_rational_file_with_distinct_prime_denominators_is_refused(
        tmp_path, monkeypatch, capsys):
    # 1/q over the first 3^9 primes: the common denominator would take about
    # 330,000 bits and the integer table 19683 times that, so the load is
    # refused (exit 2) before the table is built
    sieve = np.ones(230_000, dtype=bool)
    sieve[:2] = False
    for i in range(2, 480):
        if sieve[i]:
            sieve[i * i::i] = False
    primes = np.flatnonzero(sieve)[:3**9]
    assert len(primes) == 3**9
    path = tmp_path / "f.json"
    path.write_text(json.dumps({"p": 3, "n": 9, "mode": "rational",
                                "values": [f"1/{q}" for q in primes]}))

    def no_table(*args, **kwargs):
        raise AssertionError("integer table built")

    monkeypatch.setattr(functions, "np", SimpleNamespace(array=no_table))
    assert main(["norm", "--function", str(path), "--k", "2",
                 "--out", str(tmp_path / "r.json")]) == 2
    assert "integer table above 2^30 bits" in capsys.readouterr().err


def test_exact_table_is_read_only_and_only_rationals_carry_one():
    f = GroupFunction.from_rational(domain(3, 1), [Fraction(1, 2), 2, Fraction(-1, 3)])
    F, D = f.exact
    assert D == 6 and F.tolist() == [3, 12, -2]
    assert all(type(a) is int for a in F)
    with pytest.raises(ValueError):
        F[0] = 1
    A = quadratic_zero_set(3, 2)
    for g in (A.to_function(), balanced(A), f.scaled(2)):
        assert g.exact is None
        with pytest.raises(ValueError, match="no exact rational table"):
            uk_power_exact(g, 2)


def test_indicator_density_exact():
    A = quadratic_zero_set(5, 2)
    assert A.density == Fraction(9, 25)


# The cross-checks of this module that are rows of tests/ledger.py, under
# their older names.
globals().update(kept_tests(__name__))
