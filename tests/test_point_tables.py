"""Every table of point values the package builds (`linear_values` and the
tables built on it, the lift index, indicator files, the translation pairs
of the U^k norms with their blocks of derivatives and split translates, and
the retained digit and index tables), checked point by point against digit
tuples from `oracles.naive_points` and per-point arithmetic; the value,
zero-set, atom-code, lift-index and retained tables are rows of
`tests/ledger.py`."""

import json
import tracemalloc

import numpy as np
import pytest

from uniformity_lab.domains import _pair_digits, domain
from uniformity_lab.functions import (IndicatorSet, FOURIER_BLOCK_ENTRIES,
                                      load_function, save_function)

import oracles
from ledger import SHAPES, kept_tests


def dot(s, x, p):
    return sum(int(a) * b for a, b in zip(s, x)) % p


@pytest.mark.parametrize("p,n", SHAPES)
def test_linear_values_per_point(p, n):
    rng = np.random.default_rng(100 * p + n)
    points, _ = oracles.naive_points(p, n)
    dom = domain(p, n)
    for s in (rng.integers(-2 * p, 2 * p, size=n), np.zeros(n, dtype=int)):
        assert dom.linear_values(s).tolist() == [dot(s, x, p) for x in points]
    with pytest.raises(ValueError):
        dom.linear_values(np.ones(n + 1, dtype=int))


@pytest.mark.parametrize("p,n", SHAPES)
def test_indicator_file_lists_member_coordinates(tmp_path, p, n):
    rng = np.random.default_rng(400 * p + n)
    points, _ = oracles.naive_points(p, n)
    dom = domain(p, n)
    A = IndicatorSet(domain=dom, members=rng.random(dom.size) < 0.3)
    path = tmp_path / "a.json"
    save_function(A, str(path))
    listed = json.loads(path.read_text())["members"]
    assert listed == [list(x) for x, m in zip(points, A.members) if m]
    B = load_function(str(path))
    assert (B.members == A.members).all()


def add(x, h, p):
    return tuple((a + b) % p for a, b in zip(x, h))


def translation_pairs(p, n):
    """(h, weight) for the h of `_pair_digits` on F_p^n, one of each pair
    {h, -h}: h = 0 at weight 1, every other h at weight 2."""
    digits = np.stack(_pair_digits(p, n), axis=1).tolist()
    return [(tuple(h), 2 if any(h) else 1) for h in digits]


@pytest.mark.parametrize("p,n", [(p, n) for p in (3, 5, 7, 11) for n in (1, 2, 3, 4)])
def test_translation_pairs_cover_each_pair_once(p, n):
    points, _ = oracles.naive_points(p, n)
    pairs = translation_pairs(p, n)
    reps = [h for h, _ in pairs]
    weights = dict(pairs)
    assert len(weights) == len(pairs)  # no h listed twice
    assert reps == sorted(reps)  # enumeration order
    assert pairs[0] == ((0,) * n, 1)
    assert set(weights.values()) <= {1, 2}
    assert [h for h, w in pairs if w == 1] == [(0,) * n]
    assert sum(weights.values()) == p**n
    negated = {tuple(-c % p for c in h) for h in reps}
    assert set(reps) | negated == set(points)
    assert set(reps) & negated == {(0,) * n}
    assert all(next(c for c in h if c) <= (p - 1) // 2 for h in reps[1:])


# single-block shapes and shapes whose derivatives split into several blocks
BLOCK_SHAPES = [(3, 1), (5, 2), (3, 5), (7, 3), (3, 6), (5, 4), (11, 3), (3, 7)]


def unpadded(dom, table):
    """The values of a padded table on the grid itself, in enumeration order."""
    return table[(slice(0, dom.p),) * dom.n].reshape(dom.size)


@pytest.mark.parametrize("p,n", BLOCK_SHAPES)
def test_translation_blocks_take_each_pair_once(p, n):
    """`derivative_blocks` at the fast norm's block cap takes each h of
    `translation_pairs` once, at its weight, in blocks of at most the cap;
    with g(x) = 1 + i*index(x), conj(g(x)) g(x + h) has imaginary part
    index(x + h) - index(x), which names h and checks every point."""
    points, index = oracles.naive_points(p, n)
    dom = domain(p, n)
    rows = FOURIER_BLOCK_ENTRIES // dom.size
    g = 1 + 1j * np.arange(dom.size)
    seen = {}
    blocks = list(dom.derivative_blocks(dom.wrap_padded(g, 1)[None], rows))
    assert (len(blocks) > 2) == (dom.size > rows)
    for block, weight, t in blocks:
        assert t == 0
        assert block.shape[1:] == dom.grid
        assert len(block) <= max(rows, 1)
        for table in block.reshape(len(block), dom.size):
            h = points[int(table[0].imag)]
            assert h not in seen
            seen[h] = weight
            at = range(0, dom.size, 1 if dom.size <= 343 else 97)
            shifted = [index[add(points[i], h, p)] for i in at]
            assert table[at].imag.tolist() == [s_ - i for i, s_ in zip(at, shifted)]
            assert table[at].real.tolist() == [1 + s_ * i for i, s_ in zip(at, shifted)]
    assert seen == dict(translation_pairs(p, n))


@pytest.mark.parametrize("p,n", [(3, 1), (5, 2), (3, 3), (7, 3), (3, 4)])
def test_class_blocks_take_each_pair_once(p, n):
    """With h = (a, y) split at its last `trailing` coordinates,
    `derivative_blocks` takes one h of each pair {h, -h}, h = 0 alone at
    weight 1, in blocks of at most the cap whose h share the index t of the
    representative of {y, -y} among the pair representatives of
    F_p^trailing, t rising from block to block, at every split and block
    size; the tables are checked as in the test above."""
    points, index = oracles.naive_points(p, n)
    dom = domain(p, n)
    stack = dom.wrap_padded(1 + 1j * np.arange(dom.size), 1)[None]
    at = range(0, dom.size, 1 if dom.size <= 81 else 17)
    for trailing in range(1, n + 1):
        classes = {y: t for t, (y, _) in enumerate(translation_pairs(p, trailing))}
        for rows in (1, p, dom.size):
            seen, order = {}, []
            for block, weight, t in dom.derivative_blocks(stack, rows, trailing):
                assert len(block) <= max(rows, 1)
                order.append(t)
                for table in block.reshape(len(block), dom.size):
                    h = points[int(table[0].imag)]
                    y = h[n - trailing:]
                    assert classes.get(y, classes.get(tuple(-c % p for c in y))) == t
                    assert h not in seen
                    seen[h] = weight
                    shifted = [index[add(points[i], h, p)] for i in at]
                    assert table[at].imag.tolist() == [s_ - i for i, s_ in zip(at, shifted)]
            assert order == sorted(order) and set(order) == set(classes.values())
            assert [h for h, w in seen.items() if w == 1] == [(0,) * n]
            assert set(seen.values()) <= {1, 2}
            negated = {tuple(-c % p for c in h) for h in seen}
            assert set(seen) | negated == set(points)
            assert set(seen) & negated == {(0,) * n}


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 2), (3, 3)])
def test_derivatives_are_padded_slice_products(p, n):
    """A stack of tables padded by two levels derives into stacks padded by
    one: row s * B + j of a block is conj(g_s(x)) g_s(x + h_j), wrapped like
    a fresh pad, for every block size."""
    points, index = oracles.naive_points(p, n)
    dom = domain(p, n)
    rng = np.random.default_rng(500 * p + n)
    gs = rng.uniform(-1, 1, (2, dom.size)) + 1j * rng.uniform(-1, 1, (2, dom.size))
    stack = np.stack([dom.wrap_padded(g, 2) for g in gs])
    assert [unpadded(dom, t).tolist() for t in stack] == gs.tolist()
    pairs = translation_pairs(p, n)
    for rows in (1, p, dom.size):
        taken = []
        for block, weight, t in dom.derivative_blocks(stack, rows):
            assert t == 0
            B = len(block) // 2
            assert len(block) == 2 * B and B <= max(rows, 1)
            hs = [h for h, _ in pairs[len(taken):len(taken) + B]]
            assert {w for h, w in pairs if h in hs} == {weight}
            for s_, g in enumerate(gs):
                for j, h in enumerate(hs):
                    deriv = block[s_ * B + j]
                    expected = np.array([np.conj(g[i]) * g[index[add(x, h, p)]]
                                         for i, x in enumerate(points)])
                    # to rounding: a vectorized complex product may fuse
                    # multiply-adds
                    assert np.abs(unpadded(dom, deriv) - expected).max() < 1e-15
                    assert (deriv == dom.wrap_padded(unpadded(dom, deriv), 1)).all()
            taken += hs
        assert taken == [h for h, _ in pairs]


@pytest.mark.parametrize("p,n", [(3, 1), (3, 3), (5, 2), (7, 2), (3, 4)])
def test_split_translates_per_point(p, n):
    """Entry [s, j, b, y] of `split_translates` is g_s(b, y + h_j) for the
    pair representatives h_j of F_p^trailing, at every split."""
    points, index = oracles.naive_points(p, n)
    dom = domain(p, n)
    rng = np.random.default_rng(600 * p + n)
    gs = rng.uniform(-1, 1, (2, dom.size))
    stack = np.stack([dom.wrap_padded(g, 1) for g in gs])
    for trailing in range(1, n + 1):
        reps = [h for h, _ in translation_pairs(p, trailing)]
        lo, hi = len(reps) // 3, len(reps)
        rows = dom.split_translates(stack, trailing, lo, hi)
        assert rows.shape == (2, hi - lo, p ** (n - trailing), p**trailing)
        for s_, g in enumerate(gs):
            for j, h in enumerate(reps[lo:hi]):
                shift = (0,) * (n - trailing) + h
                expected = [g[index[add(x, shift, p)]] for x in points]
                assert rows[s_, j].reshape(-1).tolist() == expected
        assert (dom.split_translates(stack, trailing, 0, 1)[:, 0].reshape(2, -1) == gs).all()


def test_sum_grid_over_cap_refuses_before_building():
    """(2p - 1)^n = 5^12 entries exceed MAX_DOMAIN_SIZE although 3^12 does
    not: the grid is refused by name, with no table allocated."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"sum grid of 3\\^12 has {5**12} entries"):
            domain(3, 12).sum_grid
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


# The cross-checks of this module that are rows of tests/ledger.py, under
# their older names.
globals().update(kept_tests(__name__))
