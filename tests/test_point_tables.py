"""Every table of point values the package builds (`linear_values` and the
tables built on it, the lift index, indicator files, and the retained digit
and index tables), checked point by point against digit tuples from
`oracles.naive_points` and per-point arithmetic."""

import json

import numpy as np
import pytest

from uniformity_lab.algebra import QuadraticForm
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet,
                                      load_function, save_function)
from uniformity_lab.hypergraphs import lift
from uniformity_lab.verification import (QuadraticMap, quadratic_zero_set,
                                         random_factor)

import oracles

SHAPES = [(p, n) for p in (3, 5, 7) for n in (1, 2, 3, 4)]


def dot(s, x, p):
    return sum(int(a) * b for a, b in zip(s, x)) % p


def random_form(p, n, rng):
    M = rng.integers(0, p, size=(n, n))
    b = rng.integers(0, p, size=n)
    b[rng.integers(0, n)] = rng.integers(1, p)  # b != 0
    return QuadraticForm(p=p, M=(M + M.T) % p, b=b)


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
def test_quadratic_values_and_zero_set_per_point(p, n):
    rng = np.random.default_rng(200 * p + n)
    points, _ = oracles.naive_points(p, n)
    dom = domain(p, n)
    q = random_form(p, n, rng)
    values = QuadraticMap(forms=(q,)).value_codes(dom)
    assert values.tolist() == [q(x) for x in points]
    members = quadratic_zero_set(p, n).members
    assert members.tolist() == [sum(c * c for c in x) % p == 0 for x in points]


@pytest.mark.parametrize("p,n", SHAPES)
def test_atom_codes_per_point(p, n):
    rng = np.random.default_rng(300 * p + n)
    points, _ = oracles.naive_points(p, n)
    dom = domain(p, n)
    for d1 in range(min(3, n) + 1):
        factor = random_factor(p, n, d1, 2, rng)
        expected = []
        for x in points:
            code = 0
            for g in factor.gamma1:
                code = code * p + dot(g, x, p)
            for q in factor.gamma2.forms:
                code = code * p + q(x)
            expected.append(code)
        assert factor.atom_codes(dom).tolist() == expected


@pytest.mark.parametrize("p,n", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3)])
def test_lift_index_per_point(p, n):
    points, index = oracles.naive_points(p, n)
    dom = domain(p, n)
    F = lift(GroupFunction.from_values(dom, np.arange(dom.size)))
    for a, x in enumerate(points):
        for b, y in enumerate(points):
            for c, z in enumerate(points):
                s = tuple((u + v + w) % p for u, v, w in zip(x, y, z))
                assert F.values[a, b, c] == index[s]


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
    assert all(dom.index_of(x) == i for i, x in enumerate(points))


@pytest.mark.parametrize("p,n", [(p, n) for p, n in SHAPES if p**n <= 343])
def test_retained_digit_and_index_tables_per_point(p, n):
    points, index = oracles.naive_points(p, n)
    dom = domain(p, n)
    assert dom.digits.tolist() == [list(x) for x in points]
    assert dom.neg_table.tolist() == [index[tuple(-c % p for c in x)] for x in points]
    add = dom.add_table
    for i, x in enumerate(points):
        assert add[i].tolist() == [index[tuple((a + b) % p for a, b in zip(x, y))]
                                   for y in points]
