"""The cross-check ledger: every reported quantity, computed two ways.

Each `Row` names a quantity, a seeded generator of cases whose docstring
states its grid, the production call, the second call and a comparison,
exact or with its bound written in the row.  A case is a dict, and each
side is called with the keys its parameters name.  A row's second call is
an oracle of `tests/oracles.py`, independent of the package (checked on the
syntax tree by `tests/test_ledger.py`), or, in an agreement row, a second
production path; only an oracle row answers for a key of `QUANTITIES`, and a
key with none is listed in `GAPS` with its reason.

A row named "module::test[id]" carries the inputs and assertions of that
older test, which its module binds under the same name with
`globals().update(kept_tests(__name__))`, so that the name stays in the
suite; `test_ledger.py::test_row` runs every other row.  Each row runs once.

Add a row here, with its generator next to it; if it keeps no older name,
`test_row` picks it up.
"""

from __future__ import annotations

import inspect
import math
from collections import namedtuple
from fractions import Fraction
from functools import cache
from types import SimpleNamespace

import numpy as np
import pytest

from uniformity_lab.algebra import (QuadraticForm, _atom_counts, batched_affine_class,
                                    batched_rank_class, rank, solve_affine)
from uniformity_lab.counting import (average_product_direct,
                                     average_product_dual, count_solutions,
                                     quadratic_average, quadratic_zero_count,
                                     reduce_form_images, PRODUCT, _plan)
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet, fourier,
                                      random_bounded_function, uk_norm,
                                      uk_norm_fast, uk_power_exact)
from uniformity_lab import functions
from uniformity_lab.hypergraphs import (TripartiteFunction, lift,
                                        octahedral_power,
                                        symmetric_sign_function,
                                        vertex_uniformity_counterexample)
from uniformity_lab.systems import (BUILTIN_SYSTEM_NAMES, LinearFormSystem,
                                    _BUILTIN_ROWS, _min_partition_classes,
                                    builtin_system,
                                    conjectured_true_complexity, cs_complexity,
                                    INFINITE,
                                    maximal_square_independent_subsystem,
                                    normal_form_check, power_independence)
from uniformity_lab.verification import (ENTRIES, QuadraticFactor,
                                         QuadraticMap, _factor_matches,
                                         gauss_sum, gauss_sum_report,
                                         quadratic_zero_set,
                                         random_factor, verify_badex,
                                         verify_completefactor, verify_gvn,
                                         verify_quadfactor)

import oracles

# Every quantity a report carries: the priced jobs of `verification.ENTRIES`,
# the methods of `count`, the norm paths and the catalog invariants.
QUANTITIES = {
    "gauss": "verify gauss: the Gauss sum of x.x",
    "quadzero": "verify quadzero: the size of {x : x.x = 0}",
    "badex": "verify badex: the configuration count in the zero set",
    "gvn": "verify gvn: the average and the U^(k+1) norms",
    "atoms": "verify atoms: the atom histogram of a factor",
    "quadfactor": "verify quadfactor: the quadratic-factor probability",
    "completefactor": "verify completefactor: the complete-factor probability",
    "projections": "verify projections: the projection lemmas",
    "bound1": "verify bound1: the average of an atom projection against its bound",
    "pythagoras": "verify pythagoras: the U^3 powers of f, a and a + f",
    "norm": "norm: the U^k norm of a function",
    "count": "count: the probability records",
    "lift": "octahedron --check lift: the lift of a function",
    "count.direct": "count --method direct",
    "count.dual": "count --method dual",
    "count.gauss": "count --method gauss",
    "count.degenerate": "count --degenerate",
    "uk_norm": "the direct U^k norm",
    "uk_norm_fast": "the U^k norm through the transform",
    "uk_power_exact": "the exact 2^k-th power of the U^k norm",
    "cs_complexity": "the partition complexity",
    "power_independence": "independence of the (k+1)-st powers",
    "conjectured_true_complexity": "the least order of independent powers",
    "normal_form_check": "the normal-form witness",
    "counterexample": "octahedron --check counterexample: the double-edge average",
}

# Keys with no oracle row yet, each with its reason.  The list may only
# shrink: a key leaves it with its first oracle row.
GAPS = (
    ("projections", "the lemmas compare the package's projections with each "
                    "other; no oracle projects a function by enumeration"),
    ("bound1", "its closed form is checked only against the package's own "
               "enumeration (test_bound1_closed_form_matches_enumeration)"),
    ("pythagoras", "its powers are checked only against the package's direct "
                   "norm (test_pythagoras_powers_match_the_direct_norm)"),
)


def exact(got, want, case):
    return got == want


Row = namedtuple("Row", "name quantity cases production oracle compare covers",
                 defaults=(exact, None))


def near(tol):
    """|got - want| <= tol, entry by entry."""
    return lambda got, want, case: np.abs(np.subtract(got, want)).max() <= tol


def near_real(atol=0.0, rtol=0.0):
    """want's imaginary part below 1e-12, and |got - Re want| <= atol + rtol Re want."""
    return lambda got, want, case: abs(want.imag) < 1e-12 and \
        abs(got - want.real) <= atol + rtol * want.real


@cache
def _parameters(fn):
    """The parameters of fn that have no default."""
    return tuple(name for name, parameter in inspect.signature(fn).parameters.items()
                 if parameter.default is inspect.Parameter.empty)


def _call(fn, case):
    return fn(*[case[key] for key in _parameters(fn)])


def check(row):
    """Run the row on every case of its grid; `covers`, when given, is a
    claim about the grid, read on the list of the second call's values."""
    wants = []
    for case in row.cases():
        got, want = _call(row.production, case), _call(row.oracle, case)
        assert row.compare(got, want, case), \
            (row.name, {k: v for k, v in case.items() if len(repr(v)) < 80}, got, want)
        wants.append(want)
    assert wants, row.name
    assert row.covers is None or row.covers(wants), row.name


def differential(kept=None):
    """The test over the rows kept under the older test name `kept`
    ("module::test"), one parameter per "[id]" it carries; with no name, the
    test over every row that keeps none."""
    groups = {}
    for row in ROWS:
        if (row.name.partition("[")[0] == kept) if kept else "::" not in row.name:
            groups.setdefault(row.name, []).append(row)
    assert groups, kept

    def test(name):
        for row in groups[name]:
            check(row)

    if list(groups) == [kept]:
        run = lambda: test(kept)  # noqa: E731
    else:
        run = pytest.mark.parametrize(
            "name", list(groups),
            ids=[name[len(kept) + 1:-1] if kept else name for name in groups])(test)
    run.rows = list(groups)
    return run


def kept_tests(module):
    """The tests of this module whose inputs and assertions are rows, by
    their older names, for `globals().update(kept_tests(__name__))`."""
    module = module.rpartition(".")[2]
    return {name.partition("::")[2]: differential(name) for name in
            {row.name.partition("[")[0] for row in ROWS if row.name.startswith(module + "::")}}


# ---------------------------------------------------------------- inputs

def make(p, rows):
    return LinearFormSystem(p=p, d=len(rows[0]), coeffs=np.array(rows))


def random_function(dom, rng, complex_valued=True):
    vals = rng.uniform(-1, 1, dom.size)
    if complex_valued:
        vals = vals + 1j * rng.uniform(-1, 1, dom.size)
    return GroupFunction(domain=dom, values=vals)


def random_functions(dom, rng, m):
    return [random_function(dom, rng) for _ in range(m)]


def _negated(dom):
    points, index = oracles.naive_points(dom.p, dom.n)
    return [index[tuple(-x % dom.p for x in v)] for v in points]


def generic_function(dom, rng):
    """A complex function that is neither even nor conjugate-even."""
    f = random_function(dom, rng)
    neg = _negated(dom)
    assert np.abs(f.values - f.values[neg]).max() > 0.1
    assert np.abs(f.values - np.conj(f.values[neg])).max() > 0.1
    return f


def real_generic_function(dom, rng):
    """A real function that is not even."""
    f = random_function(dom, rng, complex_valued=False)
    assert np.abs(f.values - f.values[_negated(dom)]).max() > 0.1
    return f


def random_structured_system(rng, p):
    """Forms in r variables, each entry zero with probability 1/2 (so that a
    variable is often in few forms), some rows forced to be combinations of
    two others, carried into d >= r variables by a random rank-r map."""
    while True:
        r = int(rng.integers(1, 5))
        d = r + int(rng.integers(0, 2))
        m = int(rng.integers(1, 8))
        rows = rng.integers(0, p, size=(m, r)) * (rng.random((m, r)) < 0.5)
        for i in range(2, m):
            if rng.random() < 0.25:
                a, b = rng.integers(1, p, size=2)
                rows[i] = (a * rows[i - 1] + b * rows[i - 2]) % p
        T = rng.integers(0, p, size=(r, d))
        if oracles.naive_rank(T.tolist(), p) < r:
            continue
        C = rows @ T % p
        if C.any(axis=1).all() and len({tuple(row) for row in C.tolist()}) == m:
            return make(p, C.tolist())


def exactness_cases():
    """Every built-in system at p = 3, 5, 7 (where it is one), at the largest
    n <= 3 with N^d <= 729, and 36 seeded random systems with N^d <= 729."""
    cases = []
    for p in (3, 5, 7):
        for name in BUILTIN_SYSTEM_NAMES:
            if p == 3 and name in ("ap4", "ap5", "nf4", "gw6a"):
                continue
            sys_ = builtin_system(name, p)
            n = max(n for n in (1, 2, 3) if n == 1 or p ** (n * sys_.d) <= 729)
            cases.append((sys_, n))
    rng = np.random.default_rng(19)
    for k in range(36):
        p = (3, 5, 7)[k % 3]
        sys_ = random_structured_system(rng, p)
        while p**sys_.d > 729:
            sys_ = random_structured_system(rng, p)
        n = 2 if p ** (2 * sys_.d) <= 729 and rng.random() < 0.5 else 1
        cases.append((sys_, n))
    return cases


def dual_cases():
    """Twelve seeded random systems with three relations, so that the dual
    sums over G^3: sparse ones from `random_structured_system` and, at
    p = 5 and 7, dense ones of five pairwise independent forms in two
    variables (like ap5: any three of their relation forms are independent,
    so every copoint leaves three of them to a matrix product), at the
    largest n with N^3 <= 729."""
    rng = np.random.default_rng(25)
    cases = []
    while len(cases) < 12:
        p = (3, 5, 7)[len(cases) % 3]
        if p == 3 or len(cases) % 2:
            sys_ = random_structured_system(rng, p)
        else:
            C = rng.integers(0, p, size=(5, 2))
            minors = (np.outer(C[:, 0], C[:, 1]) - np.outer(C[:, 1], C[:, 0])) % p
            if np.count_nonzero(minors) < 20:  # two forms are parallel
                continue
            sys_ = make(p, C.tolist())
        if sys_.relations.dim == 3:
            cases.append((sys_, 2 if p == 3 else 1))
    return cases


def _case(sys, n=None, members=None, fs=(), **more):
    """The keys the two sides of a system's row read."""
    case = dict(sys=sys, rows=sys.coeffs.tolist(), p=sys.p, m=sys.m, n=n, fs=fs,
                fs_values=[f.values for f in fs])
    if members is not None:
        case.update(members=members,
                    A=IndicatorSet(domain=domain(sys.p, n), members=members))
    case.update(more)
    return case


def naive_dual_sum(sys, n, fs):
    """N^w times the digit-tuple oracle's average over the w-variable forms
    of the relation basis, of the Fourier tables: the dual sum on the
    package's relations and transform, so a second path, not an oracle."""
    rows = sys.relations.basis.T.tolist()
    N = sys.p**n
    return N**len(rows[0]) * oracles.naive_average_product(
        rows, sys.p, n, [fourier(f).values for f in fs])


def enumerated_factor_count(sys, factor, A_t, B_t):
    """#{x : atom of L_i(x) is (a_i, b_i) for every i}, with no side maps,
    the way the package counted it before its factor counts ran on the
    elimination plan: all N^d assignments of the system's own coefficients,
    no pivot cut, through the enumeration kernel (whose images the suite
    pins against digit tuples), each form's atom code compared with its
    target a_i p^d2 + b_i.  A second production path, not an oracle."""
    p = factor.p
    dom = domain(p, factor.n)
    codes = factor.atom_codes(dom)
    targets = []
    for row in np.concatenate([A_t, B_t], axis=1).tolist():
        code = 0
        for digit in row:
            code = code * p + int(digit)
        targets.append(code)

    def tile_matches(images):
        ok = np.ones(images.shape[1:], dtype=bool)
        for idx, target in zip(images, targets):
            ok &= codes[idx] == target
        return int(ok.sum())

    return sum(reduce_form_images(sys.coeffs, dom, tile_matches))


# ---------------------------------------------------------------- algebra

def _rank_draws():
    """30 matrices of 1-3 rows and columns at p in {3, 5} (seed 10)."""
    rng = np.random.default_rng(10)
    for _ in range(30):
        p = rng.choice([3, 5])
        rows, cols = rng.integers(1, 4, size=2)
        yield dict(rows=rng.integers(0, p, size=(rows, cols)), p=p)


def symmetric_stack(p, d, count, rng):
    """Random symmetric d x d matrices mod p, led by the zero matrix, a rank-1
    matrix, a zero-diagonal matrix and (for p = 3, where it is one) a matrix
    whose first two diagonal entries cancel the off-diagonal twice over."""
    S = rng.integers(0, p, size=(count, d, d))
    S = (S + S.transpose(0, 2, 1)) % p
    S[0] = 0
    v = rng.integers(1, p, size=d)
    S[1] = np.outer(v, v) % p
    if d >= 2:
        S[2] = 0
        S[2, 0, 1] = S[2, 1, 0] = 1
        S[3, 0, 0] = 0
        S[3, 1, 1] = (-2 * S[3, 0, 1]) % p
        S[4, :, -1] = S[4, -1, :] = 0  # rank deficient
    return S


def augmented_stack(p, k, count, rng):
    """(count, k+1, k+1) augmented forms [[A, h], [h^T, g]] over the
    matrices A of `symmetric_stack`: h = A y (consistent) for every fourth,
    h = 0 with g != 0 for the next, h random for the rest; then A = 0 gets
    h = e_0, the rank-1 matrix v v^T gets h = v + e_0, outside its column
    space, and the rank-deficient one (last row zero) gets h = e_(k-1)."""
    S = np.zeros((count, k + 1, k + 1), dtype=np.int64)
    S[:, :k, :k] = symmetric_stack(p, k, count, rng)
    h = rng.integers(0, p, size=(count, k))
    h[::4] = np.einsum("bij,bj->bi", S[::4, :k, :k], h[::4]) % p
    h[1::4] = 0
    S[:, k, k] = rng.integers(0, p, size=count)
    S[1::4, k, k] = rng.integers(1, p, size=len(S[1::4]))
    h[0] = np.eye(k, dtype=np.int64)[0]
    h[1] = (S[1, 0, :k] * pow(int(S[1, 0, 0]), p - 2, p) + np.eye(k, dtype=np.int64)[0]) % p
    if k >= 2:
        h[4] = np.eye(k, dtype=np.int64)[k - 1]
    S[:, :k, k] = S[:, k, :k] = h
    return S


def _affine_class_draws(p):
    """`augmented_stack`s of twelve forms (seed 900 + p) at every k from 1
    to 4 with p^k <= 2401, and the constant forms gamma = 3 and 0 (k = 0)."""
    rng = np.random.default_rng(900 + p)
    for k in (k for k in range(1, 5) if p**k <= 2401):
        S = augmented_stack(p, k, 12, rng)
        assert (S[1::4, k, k] != 0).all()
        yield dict(stack=S, p=p, k=k)
    yield dict(stack=np.array([[[3]], [[0]]]), p=p, k=0)


def _affine_classes(stack, p, k):
    """(rank, class, consistent, s where consistent) of each form, and
    `batched_rank_class` of the leading blocks."""
    ranks, classes, consistent, s = batched_affine_class(stack, p)
    return ([(r, e, c, int(v) if c else None) for r, e, c, v in
             zip(ranks.tolist(), classes.tolist(), consistent.tolist(), s)],
            list(zip(*(v.tolist() for v in batched_rank_class(stack[:, :k, :k], p)))))


def _affine_classes_match(got, want, case):
    """Equal, and the stack holds A = 0 with beta != 0, rank-deficient A with
    beta outside its column space, and beta = 0 with gamma != 0."""
    k, consistent = case["k"], [w[2] for w in want]
    return got == (want, [w[:2] for w in want]) and (k == 0 or not consistent[0] and (
        k < 2 or not (consistent[1] or consistent[4]) and want[4][0] < k)
        and all(consistent[1::4][1:]))


def _affine_system_draws():
    """20 systems M x = rhs of 1-3 equations in 1-3 unknowns, p in {3, 5}
    (seed 15)."""
    rng = np.random.default_rng(15)
    for _ in range(20):
        p = int(rng.choice([3, 5]))
        rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
        yield dict(M=rng.integers(0, p, size=(rows, cols)),
                   rhs=rng.integers(0, p, size=rows), p=p)


def _solution_set(M, rhs, p):
    sol = solve_affine(M, rhs, p)
    return set() if sol is None else set(oracles.subspace_points(sol))


# ---------------------------------------------------------------- norms

NAIVE_UK_CASES = [(p, n, k) for p in (3, 5, 7) for n in (1, 2, 3) for k in (2, 3, 4, 5)
                  if (p**n) ** (k + 1) * 2**k <= 2 * 10**5]


def _uk(f, k, **more):
    return dict(f=f, values=list(f.values), p=f.domain.p, n=f.domain.n, k=k, **more)


def _fourier_draw():
    """One complex function on F_3^3 (seed 30)."""
    f = random_function(domain(3, 3), np.random.default_rng(30))
    yield dict(f=f, values=f.values, p=3, n=3)


def _naive_uk_draws():
    """`NAIVE_UK_CASES`, (p, N^(k+1) 2^k) <= 2 * 10^5, which reaches (3, 4),
    (5, 4), (7, 3) and (3, 5) and n = 1, 2, 3: a generic complex table
    (seed 32), compared within 1e-9, and a generic real one, which takes the
    float64 path (seed 35), within 1e-12."""
    assert {(p, k) for p, _, k in NAIVE_UK_CASES} >= {(3, 4), (5, 4), (7, 3), (3, 5)}
    assert {n for _, n, _ in NAIVE_UK_CASES} == {1, 2, 3}
    rng, real_rng = np.random.default_rng(32), np.random.default_rng(35)
    for p, n, k in NAIVE_UK_CASES:
        dom = domain(p, n)
        yield _uk(generic_function(dom, rng), k, tol=1e-9)
        yield _uk(real_generic_function(dom, real_rng), k, tol=1e-12)


def _fft_draw(p, n):
    """One generic table (seed 40 + p + n); one table's U^2 cube sum touches
    H N entries, H = (p^trailing + 1)/2 the representatives of the pairs
    {y, -y}, so (5, 4) takes its shifts in one block, (5, 5) and (3, 7) in
    several."""
    dom = domain(p, n)
    entries = (p ** functions._cube_split(dom) + 1) // 2 * dom.size
    assert (entries > functions.CUBE_BLOCK_ENTRIES) == (dom.size > 625)
    yield dict(_uk(generic_function(dom, np.random.default_rng(40 + p + n)), 2))


def _small_uk_draws():
    """Generic complex tables (seed 120) at (p, n, k) = (3, 1, 3), (3, 2, 2),
    (5, 1, 3), (3, 1, 4): each through the direct and the fast path."""
    rng = np.random.default_rng(120)
    for p, n, k in ((3, 1, 3), (3, 2, 2), (5, 1, 3), (3, 1, 4)):
        f = generic_function(domain(p, n), rng)
        for fast in (False, True):
            yield _uk(f, k, fast=fast)


def _rational_draws():
    """Tables of fifths in [-1, 1] (seed 121) at (p, n, k) = (3, 1, 3),
    (3, 2, 2), (5, 1, 2), (3, 1, 4)."""
    rng = np.random.default_rng(121)
    for p, n, k in ((3, 1, 3), (3, 2, 2), (5, 1, 2), (3, 1, 4)):
        fracs = [Fraction(int(v), 5) for v in rng.integers(-5, 6, p**n)]
        f = GroupFunction.from_rational(domain(p, n), fracs)
        yield dict(f=f, values=fracs, p=p, n=n, k=k)


def _entry_norm(f, k, fast):
    return ENTRIES["norm"].run(f, k, fast, None)["value"] ** 2**k


# ---------------------------------------------------------------- counting

def _ap3_average_draw():
    """Three complex functions on F_3^2 (seed 42) along ap3."""
    fs = random_functions(domain(3, 2), np.random.default_rng(42), 3)
    yield _case(builtin_system("ap3", 3), 2, fs=fs, rows=[[1, 0], [1, 1], [1, 2]])


def _diff3_count_draw():
    """A set of density 1/2 in F_3^2 (seed 45) along diff3."""
    members = np.random.default_rng(45).random(9) < 0.5
    yield _case(builtin_system("diff3", 3), 2, members,
                rows=[[-1, 1, 0], [-1, 0, 1], [0, -1, 1]])


def _direct_side_draws():
    """`exactness_cases`, each with a set of density 0.7 and complex
    functions (seed 20); among them the pivot cut (rank C < d) and the
    elimination (more than one pass) each run at least ten times."""
    rng = np.random.default_rng(20)
    cut = eliminated = 0
    for sys_, n in exactness_cases():
        dom = domain(sys_.p, n)
        members = rng.random(dom.size) < 0.7
        yield _case(sys_, n, members, random_functions(dom, rng, sys_.m))
        cut += len(sys_.pivots) < sys_.d
        eliminated += len(sys_.direct_plan) > 1
    assert cut >= 10 and eliminated >= 10, (cut, eliminated)


def _dual_side_draws():
    """Every case of `exactness_cases` and `dual_cases` with complex
    functions (seed 26).  The matrix-product fill runs on ap5's and gw6b's
    duals and on at least five random systems."""
    rng = np.random.default_rng(26)
    fired = set()
    for k, (sys_, n) in enumerate(exactness_cases() + dual_cases()):
        yield _case(sys_, n, fs=random_functions(domain(sys_.p, n), rng, sys_.m))
        if any(pass_.kind == PRODUCT for pass_ in _plan(sys_.relations.basis.T, sys_.p)):
            fired.add(sys_.name or k)
    assert {"ap5", "gw6b"} <= fired
    assert len(fired - set(BUILTIN_SYSTEM_NAMES)) >= 5, fired


def _small_dual_draws():
    """Every built-in system at p = 5 on F_5, and ap3, diff3 and cube7 on
    F_3^2, with complex functions (seed 126)."""
    rng = np.random.default_rng(126)
    cases = [(builtin_system(name, 5), 1) for name in BUILTIN_SYSTEM_NAMES]
    cases += [(builtin_system(name, 3), 2) for name in ("ap3", "diff3", "cube7")]
    for sys_, n in cases:
        yield _case(sys_, n, fs=random_functions(domain(sys_.p, n), rng, sys_.m))


def _entry_count(sys, A):
    record = ENTRIES["count"].run(A, sys, ("direct",),
                                  SimpleNamespace(budget=None, degenerate=True))[0]
    return Fraction(record["observed_exact"]), record["degenerate_fraction"]


def _entry_count_matches(got, want, case):
    count, degenerate = want
    total = case["p"] ** (case["n"] * case["sys"].d)
    return got == (Fraction(count, total),
                   float(Fraction(degenerate, count)) if count else 0.0)


def _gauss_count_draws():
    """25 random (C, B) (seed 71): p in {3, 5}, d <= 3, m <= 4, n <= 3 with
    p^(nd) <= 729, B symmetric and, three times in ten, degenerate."""
    rng = np.random.default_rng(71)
    for _ in range(25):
        p = int(rng.choice([3, 5]))
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        if p ** (n * d) > 729:
            n = 1
        m = int(rng.integers(1, 5))
        C = rng.integers(0, p, size=(m, d))
        B = rng.integers(0, p, size=(n, n))
        B = (B + B.T) % p
        if rng.random() < 0.3:
            B[:, 0] = B[0, :] = 0  # degenerate
        yield dict(C=C, B=B, p=p, n=n)


def _zero_indicator_draws():
    """gw6a on F_5^2, ap4 on F_7^2, gw6b on F_3^3 and cube7 on F_3^2, each
    with a rank-1, a corank-1 and a random form (seed 72), g the indicator
    of 0."""
    rng = np.random.default_rng(72)
    for name, p, n in (("gw6a", 5, 2), ("ap4", 7, 2), ("gw6b", 3, 3), ("cube7", 3, 2)):
        C = builtin_system(name, p).coeffs
        for kind in ("rank1", "corank1", "random"):
            g = np.zeros((len(C), p))
            g[:, 0] = 1
            yield dict(C=C, B=oracles.random_symmetric(p, n, kind, rng), p=p, n=n, g=g)


def _quadratic_functions(dom, M, g):
    """g_i o q on dom for q(x) = x^T M x, one function per row of g."""
    q = QuadraticForm(p=dom.p, M=M, b=np.zeros(dom.n, dtype=np.int64))
    values = QuadraticMap(forms=(q,)).value_codes(dom)
    return [GroupFunction(domain=dom, values=row[values]) for row in g]


def _quadratic_average_draws(p):
    """Every built-in system that is one at p (not at p = 3: ap4, ap5 and
    nf4 have a coefficient 3, and two forms of gw6a agree mod 3),
    square-dependent ones included, and a system that uses two of its three
    variables, at n = 1, 2, 3 wherever the p^(nd) assignments are at most
    2 * 10^6: at least twelve cases.  B runs through the zero, rank-1,
    corank-1 and random kinds; each form has its own random g_i (seed
    300 + p)."""
    rng = np.random.default_rng(300 + p)
    names = [name for name in BUILTIN_SYSTEM_NAMES
             if p > 3 or name not in ("ap4", "ap5", "nf4", "gw6a")]
    systems = [builtin_system(name, p) for name in names]
    systems.append(make(p, [[1, 0, 0], [1, 1, 0], [1, 2, 0]]))
    kinds = ("zero", "rank1", "corank1", "random")
    cases = 0
    for sys_ in systems:
        for n in (1, 2, 3):
            if p ** (n * sys_.d) > 2 * 10**6:
                continue
            M = oracles.random_symmetric(p, n, kinds[cases % 4], rng)
            g = rng.uniform(-1, 1, (sys_.m, p)) + 1j * rng.uniform(-1, 1, (sys_.m, p))
            yield _case(sys_, n, fs=_quadratic_functions(domain(p, n), M, g), C=sys_.coeffs,
                        B=M, g=g)
            cases += 1
    assert cases >= 12


# ---------------------------------------------------------------- hypergraphs

def _single_vertex_draws():
    """The all-ones (3, 4, 5) table, and F(x, y, z) = a(x) for random signs
    a (seed 60) on (6, 4, 4), where the eight-fold product collapses to
    powers of E a^2."""
    yield dict(values=np.ones((3, 4, 5)))
    a = np.random.default_rng(60).choice([-1.0, 1.0], size=6)
    yield dict(values=np.broadcast_to(a[:, None, None], (6, 4, 4)))


def _complex_table_draw(shape, seed):
    """One complex table of this shape (seed given)."""
    rng = np.random.default_rng(seed)
    yield dict(values=rng.uniform(-1, 1, size=shape) + 1j * rng.uniform(-1, 1, size=shape))


def _real_table_draw(shape):
    """A real table (seed 66 + sum of the shape), and one of values in
    {0, +-1/2, +-1}, on which every sum of the real path is exact."""
    rng = np.random.default_rng(66 + sum(shape))
    values = rng.uniform(-1, 1, size=shape)
    halves = [Fraction(int(v), 2) for v in rng.integers(-2, 3, np.prod(shape))]
    yield dict(values=values, table=np.array(halves, dtype=object).reshape(shape))


def _real_octahedral(values):
    F = TripartiteFunction(values=values + 0j)
    assert F.values.dtype == np.float64
    return octahedral_power(F)


def _counterexample_draw(seed, n_x):
    """The sign function of `vertex_uniformity_counterexample(seed, n_x)`."""
    u = symmetric_sign_function(n_x, np.random.default_rng(seed))
    yield dict(seed=seed, n_x=n_x, u=u)


# ---------------------------------------------------------------- systems

def random_system(rng, p, m, d):
    rows, seen = [], set()
    while len(rows) < m:
        r = tuple(int(v) for v in rng.integers(0, p, size=d))
        if any(r) and r not in seen:
            seen.add(r)
            rows.append(list(r))
    return make(p, rows)


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


def _subset_rank_draws():
    """Every mask of gw6a and cube7 at p = 5, by listing the span; then
    seeded random systems (seed 15) with forced dependencies, p in {3, 5,
    7, 11, 13, 2^31 - 1} and m from 1 to 12: every mask for m <= 6, else 48
    random masks, the full mask and each relation's masks, listing spans of
    at most 27 points and reducing larger ones."""
    for name in ("gw6a", "cube7"):
        sys_ = builtin_system(name, 5)
        for mask in range(2**sys_.m):
            yield _case(sys_, mask=mask, listed=math.inf)
    rng = np.random.default_rng(15)
    for p in (3, 5, 7, 11, 13, 2147483647):
        for m in range(1, 13):
            d = int(rng.integers(1, 14))
            while p**d <= m:
                d += 1
            sys_, relations = system_with_relations(rng, p, m, d)
            masks = set(range(2**m)) if m <= 6 else \
                set(rng.integers(0, 2**m, size=48).tolist()) | {2**m - 1}
            for j, sources in relations:
                below = sum(1 << i for i in sources)
                masks |= {below, below | 1 << j}
            for mask in sorted(masks):
                yield _case(sys_, mask=mask, listed=27)


def _subset_rank(sys, mask):
    assert len(sys.subset_ranks) == 2**sys.m
    return sys.subset_ranks[mask]


def _complexity_draws():
    """ap3, ap4, diff3, gw6b and cube7 at p = 5; ten random systems of 2-4
    forms in 2-3 variables at p in {3, 5} and nine of 5 forms at p = 3, 5, 7
    (seed 20); two with d > m, where rref keeps 3 and 4 of the 6 columns;
    and one with a parallel pair, which makes it INFINITE."""
    rng = np.random.default_rng(20)
    systems = [builtin_system(n, 5) for n in ("ap3", "ap4", "diff3", "gw6b", "cube7")]
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
    systems.append(make(5, [[1, 2, 0], [0, 1, 1], [1, 0, 3], [2, 4, 0]]))
    for sys_ in systems:
        yield _case(sys_)


def _complexity_and_classes(sys):
    return cs_complexity(sys), [_min_partition_classes(sys.subset_ranks, sys.m, i)
                                for i in range(sys.m)]


def _complexity_matches(got, want, case):
    worst = max(want)
    return got == (INFINITE if math.isinf(worst) else max(int(worst) - 1, 0), want)


def _floor_draws():
    """Every built-in system at p = 7 and, for p = 3, 5, 7 and m from 1 to
    7, a random system in 3 variables (seed 35), with forced relations at
    odd m, redrawn while it has a parallel pair, whose exhaustive brute
    force is slow: each index of each."""
    def parallel(rows, p):
        return any(oracles.naive_in_span(u, [v], p)
                   for i, u in enumerate(rows) for v in rows[i + 1:])

    systems = [builtin_system(name, 7) for name in BUILTIN_SYSTEM_NAMES]
    rng = np.random.default_rng(35)
    for p in (3, 5, 7):
        for m in range(1, 8):
            while True:
                sys_ = system_with_relations(rng, p, m, 3)[0] if m % 2 else \
                    random_system(rng, p, m, 3)
                if not parallel(sys_.coeffs.tolist(), p):
                    break
            systems.append(sys_)
    for sys_ in systems:
        for i in range(sys_.m):
            yield _case(sys_, ranks=sys_.subset_ranks, i=i)


def _classes_from_every_floor(ranks, m, i):
    return [_min_partition_classes(ranks, m, i, floor) for floor in range(m + 1)] + \
        [_min_partition_classes(ranks, m, i)]


def _square_independence_draws():
    """ap3, ap4, gw6a, gw6b, cube7 and diff3, and ten random rows of 1-4
    forms in 1-3 variables (seed 22), at p = 5 and 7 wherever no form is
    zero and no two coincide."""
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
            if len({tuple(v % p for v in r) for r in rows_l}) < len(rows_l):
                continue
            yield dict(sys=make(p, [[v % p for v in r] for r in rows_l]), rows=rows_l, p=p)


def _power_order_draws():
    """(p, integer rows) of every built-in system at p in {5, 7, 11, 13} and
    of seeded random systems (seed 39) of up to 12 forms: some holding a
    form and a multiple of it (dependent powers at every order), some of
    rank below d (a column the sum of two others)."""
    cases = [(p, _BUILTIN_ROWS[name][1]) for name in BUILTIN_SYSTEM_NAMES
             for p in (5, 7, 11, 13)]
    rng = np.random.default_rng(39)
    for p in (5, 7, 11, 13):
        for kind in ("plain", "parallel", "deficient", "deficient"):
            while True:
                m, d = int(rng.integers(2, 13)), int(rng.integers(3, 5))
                rows = rng.integers(-2, 3, size=(m, d))
                if kind == "parallel":
                    rows[-1] = 2 * rows[0]
                elif kind == "deficient":
                    rows[:, -1] = rows[:, 0] + rows[:, 1]
                rows = rows.tolist()
                if all(any(r) for r in rows) and len({tuple(r) for r in rows}) == m:
                    cases.append((p, rows))
                    break
    for p, rows in cases:
        yield dict(p=p, rows=rows)


def _power_orders(p, rows):
    """At every order 1 <= k < p - 1: a fresh system per order, one asked
    from the highest order down, and one whose ranks
    `conjectured_true_complexity` has filled, with its value."""
    orders = range(1, p - 1)
    downward, warm = make(p, rows), make(p, rows)
    true_k = conjectured_true_complexity(warm)
    return ({k: power_independence(make(p, rows), k) for k in orders},
            {k: power_independence(downward, k) for k in reversed(orders)},
            {k: power_independence(warm, k) for k in reversed(orders)}, true_k)


def _power_orders_match(got, want, case):
    true_k = next((k for k, v in want.items() if v and k <= len(case["rows"])), None)
    return got == (want, want, want, true_k) and \
        all(type(v) is bool for answers in got[:3] for v in answers.values())


def _builtin_draws():
    """Every built-in system at p = 5 and 7, with s = 0, 1, 2, 3."""
    for p in (5, 7):
        for name in BUILTIN_SYSTEM_NAMES:
            for s in range(4):
                yield _case(builtin_system(name, p), s=s)


def _greedy_draws(p):
    """25 random systems of 1-4 forms in 1-3 variables (seed 30 + p), no
    form zero and no two equal."""
    rng = np.random.default_rng(30 + p)
    checked = 0
    while checked < 25:
        m, d = int(rng.integers(1, 5)), int(rng.integers(1, 4))
        rows = [[int(v) for v in r] for r in rng.integers(0, p, size=(m, d))]
        if not all(any(r) for r in rows) or len({tuple(r) for r in rows}) < m:
            continue
        yield dict(sys=make(p, rows), rows=rows, p=p)
        checked += 1


# ---------------------------------------------------------------- factors

def _gauss_sum_draws():
    """15 forms x^T M x + b.x (seed 50), p in {3, 5}, n in {1, 2}."""
    rng = np.random.default_rng(50)
    for _ in range(15):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(1, 3))
        M = rng.integers(0, p, size=(n, n))
        q = QuadraticForm(p=p, M=(M + M.T) % p, b=rng.integers(0, p, size=n))
        yield dict(q=q, M=q.M, b=q.b, p=p)


def sum_of_squares_form(p, n):
    return QuadraticForm(p=p, M=np.eye(n, dtype=np.int64), b=np.zeros(n, dtype=np.int64))


def _atom_factor_draws():
    """204 seeded factors (seed 29): p in {3, 5, 7, 11}, every d1 from 0 to
    n and every d2 from 0 to 3, then per p three with linear forms only
    (M = 0, b != 0), one of them also with a homogeneous form (b = 0)."""
    rng = np.random.default_rng(29)
    factors = []
    for p, top in ((3, 5), (5, 4), (7, 3), (11, 2)):
        factors += [random_factor(p, n, d1, d2, rng) for n in range(1, top + 1)
                    for d1 in range(n + 1) for d2 in range(4)]
        for d2 in (1, 2, 3):
            n = 3
            forms = [QuadraticForm(p=p, M=np.zeros((n, n), dtype=np.int64),
                                   b=rng.integers(1, p, size=n)) for _ in range(d2)]
            if d2 == 3:
                forms[0] = sum_of_squares_form(p, n)
            factors.append(QuadraticFactor(p=p, n=n, gamma1=np.eye(n, dtype=np.int64)[:1],
                                           gamma2=QuadraticMap(forms=tuple(forms))))
    assert len(factors) == 204
    for factor in factors:
        yield dict(factor=factor)


def _quadfactor_side_draws():
    """d = 3 variables and d2 = 2 quadratic forms with nonzero b_i on F_3^2
    (seed 57): once with phi_0 nonzero but for its middle block and
    phi_1 = 0, then with random phi_0, phi_1 and b three times."""
    p, n = 3, 2
    rows = [[1, 0, 1], [0, 1, 1]]
    forms = [([[1, 0], [0, 1]], [0, 0]), ([[0, 1], [1, 2]], [1, 2])]
    gamma2 = QuadraticMap(forms=tuple(
        QuadraticForm(p=p, M=np.array(M), b=np.array(b)) for M, b in forms))
    rng = np.random.default_rng(57)
    first = rng.integers(1, p, size=(2, n * 3))
    first[:, n:2 * n] = 0
    trials = [([first, None], [[2, 1], [2, 1]])]
    trials += [([rng.integers(0, p, size=(2, n * 3)) for _ in rows],
                rng.integers(0, p, size=(2, 2)).tolist()) for _ in range(3)]
    for phis, bs in trials:
        yield dict(sys=make(p, rows), rows=rows, gamma2=gamma2, forms=forms,
                   phis=phis, bs=bs, p=p, n=n)


def _factor_count_cases():
    """Every built-in system at p = 3 (where it is one) and 5, and twelve
    seeded random systems (seed 95) with rank C < d, each at the largest
    n <= 2 with N^d <= 15,625."""
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


def _factor_target_draws():
    """`_factor_count_cases` with a factor of d2 = 1 for each d1 = 0, 1, 2
    (up to n), and targets read off a random assignment (so hit) and random
    ones (seed 96)."""
    rng = np.random.default_rng(96)
    for sys_, n in _factor_count_cases():
        p, m = sys_.p, sys_.m
        points, index = oracles.naive_points(p, n)
        for d1 in range(min(2, n) + 1):
            factor = random_factor(p, n, d1, 1, rng)
            codes = factor.atom_codes(domain(p, n))
            x = rng.integers(0, p**n, size=sys_.d).tolist()
            image = [codes[index[oracles._naive_form_value(row, x, points, p, n)]]
                     for row in sys_.coeffs.tolist()]
            read = np.array([[c // p ** (d1 - j) % p for j in range(d1 + 1)]
                             for c in image], dtype=np.int64)
            for targets in (read, rng.integers(0, p, size=(m, d1 + 1))):
                yield dict(sys=sys_, factor=factor, A_t=targets[:, :d1],
                           B_t=targets[:, d1:])


def _completefactor_draws():
    """gw6b on F_3^2 and on F_5^1 with a factor of d1 = 1, d2 = 1 (seed
    124), targets zero and targets read off a random assignment."""
    rng = np.random.default_rng(124)
    for p, n in ((3, 2), (5, 1)):
        sys_ = builtin_system("gw6b", p)
        factor = random_factor(p, n, 1, 1, rng)
        points, index = oracles.naive_points(p, n)
        codes = oracles.naive_atom_codes(factor)
        x = rng.integers(0, p**n, size=sys_.d).tolist()
        read = [codes[index[oracles._naive_form_value(row, x, points, p, n)]]
                for row in sys_.coeffs.tolist()]
        zero = [0] * sys_.m
        for image in (zero, read):
            yield dict(sys=sys_, rows=sys_.coeffs.tolist(), factor=factor,
                       A_t=[[c // p] for c in image], B_t=[[c % p] for c in image])


def _badex_draws():
    """gw6a on F_5^2, gw6b on F_3^2 and ap3 on F_5^2."""
    for name, p, n in (("gw6a", 5, 2), ("gw6b", 3, 2), ("ap3", 5, 2)):
        sys_ = builtin_system(name, p)
        yield dict(sys=sys_, C=sys_.coeffs, B=np.eye(n, dtype=np.int64), p=p, n=n)


def _gvn_draws():
    """ap3 on F_5 and F_3^2 and gw6b on F_3, bounded functions (seed 125),
    at k = 1 and 2."""
    rng = np.random.default_rng(125)
    for name, p, n in (("ap3", 5, 1), ("ap3", 3, 2), ("gw6b", 3, 1)):
        sys_ = builtin_system(name, p)
        for k in (1, 2):
            dom = domain(p, n)
            yield _case(sys_, n, fs=[random_bounded_function(dom, rng)
                                     for _ in range(sys_.m)], k=k)


def _gvn_sides(sys, fs, k):
    observed = verify_gvn(sys, fs, k).observed
    return observed["average_modulus"], observed["norms"]


# ---------------------------------------------------------------- point tables

SHAPES = [(p, n) for p in (3, 5, 7) for n in (1, 2, 3, 4)]


def _quadratic_value_draw(p, n):
    """One form with b != 0 (seed 200 p + n) on F_p^n."""
    rng = np.random.default_rng(200 * p + n)
    M = rng.integers(0, p, size=(n, n))
    b = rng.integers(0, p, size=n)
    b[rng.integers(0, n)] = rng.integers(1, p)
    q = QuadraticForm(p=p, M=(M + M.T) % p, b=b)
    yield dict(q=q, M=q.M.tolist(), b=q.b.tolist(), p=p, n=n)


def _shape(p, n):
    """F_p^n alone."""
    yield dict(p=p, n=n)


def _atom_code_draws(p, n):
    """A factor of d2 = 2 for each d1 <= min(3, n) (seed 300 p + n)."""
    rng = np.random.default_rng(300 * p + n)
    for d1 in range(min(3, n) + 1):
        yield dict(factor=random_factor(p, n, d1, 2, rng), p=p, n=n)


def _point_tables(p, n):
    dom = domain(p, n)
    return dom.digits.tolist(), dom.neg_table.tolist(), dom.add_table.tolist()


# ---------------------------------------------------------------- the rows

def _keep(test, quantity, cases, production, oracle, compare=exact, covers=None,
          params=None, ids=None):
    """Rows for an older test name, one per parameter when it took any, with
    the ids pytest gave it."""
    if params is None:
        return [Row(test, quantity, cases, production, oracle, compare, covers)]
    ids = ids or ["-".join(map(str, a)) for a in params]
    return [Row(f"{test}[{i}]", quantity, lambda a=a: cases(*a), production,
                oracle, compare, covers) for i, a in zip(ids, params)]


def _octahedral(values):
    return octahedral_power(TripartiteFunction(values=values))


_FFT = [(5, 4), (5, 5), (3, 7)]
# nx = 1 is the diagonal alone; nx = 5 pairs x0 < x1 across several rows
_NON_CUBIC, _REAL_SHAPES = [(1, 3, 2), (2, 4, 3), (5, 3, 2)], [(1, 3, 2), (2, 3, 2), (3, 2, 4)]
_COUNTEREXAMPLES = [(1, 1), (2, 7), (3, 64), (4, 101), (5, 250)]
_LIFT_SHAPES = [(3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1)]
_TABLE_SHAPES = [(p, n) for p, n in SHAPES if p**n <= 343]
_SHAPE_IDS = [f"shape{i}" for i in range(3)]

ROWS = [
    *_keep("test_algebra::test_rank_matches_span_enumeration", "algebra.rank",
           _rank_draws, lambda rows, p: rank(rows, p), oracles.span_rank),
    *_keep("test_algebra::test_batched_affine_class_matches_enumeration",
           "algebra.affine_class", _affine_class_draws, _affine_classes,
           oracles.naive_affine_classes,
           _affine_classes_match, params=[(3,), (5,), (7,), (11,)]),
    *_keep("test_algebra::test_solve_affine_full_solution_set", "algebra.solve_affine",
           _affine_system_draws, _solution_set, oracles.naive_solutions),
    # norms
    *_keep("test_functions::test_fourier_matches_naive_transform", "functions.fourier",
           _fourier_draw, lambda f: fourier(f).values, oracles.naive_fourier, near(1e-12)),
    *_keep("test_functions::test_uk_norm_matches_naive_enumeration", "uk_norm",
           _naive_uk_draws, lambda f, k: uk_norm(f, k) ** 2**k, oracles.naive_uk_power,
           lambda got, want, c: near_real(rtol=c["tol"])(got, want, c)),
    *_keep("test_functions::test_u2_norm_matches_numpy_fft_across_translation_blocks",
           "uk_norm", _fft_draw, lambda f: uk_norm(f, 2), oracles.fft_u2_norm,
           lambda got, want, c: abs(got - want) <= 1e-12 * want, params=_FFT),
    Row("norm-entry", "norm", _small_uk_draws, _entry_norm, oracles.naive_uk_power,
        near_real(rtol=1e-9)),
    Row("uk_norm_fast", "uk_norm_fast", _small_uk_draws,
        lambda f, k: uk_norm_fast(f, k) ** 2**k, oracles.naive_uk_power, near_real(rtol=1e-9)),
    Row("uk_power_exact", "uk_power_exact", _rational_draws, uk_power_exact,
        oracles.naive_uk_power),
    # counts and averages
    *_keep("test_counting::test_direct_matches_naive_oracle", "count.direct",
           _ap3_average_draw, average_product_direct, oracles.naive_average_product,
           near(1e-12)),
    *_keep("test_counting::test_count_matches_naive_oracle", "count.direct",
           _diff3_count_draw, lambda sys, A: count_solutions(sys, A)[0],
           oracles.naive_count_solutions),
    *_keep("test_counting::test_direct_side_is_exact_on_cut_and_eliminated_systems",
           "count.degenerate", _direct_side_draws,
           lambda sys, A: (count_solutions(sys, A),
                           count_solutions(sys, A, with_degenerate=True)),
           oracles.naive_count_with_degenerate,
           lambda got, want, c: got == ((want[0], None), want)),
    *_keep("test_counting::test_direct_side_is_exact_on_cut_and_eliminated_systems",
           "count.direct", _direct_side_draws, average_product_direct,
           oracles.naive_average_product, near(1e-12)),
    *_keep("test_counting::test_dual_side_matches_naive_oracle", "count.dual",
           _dual_side_draws, average_product_dual, naive_dual_sum, near(1e-12)),
    Row("dual", "count.dual", _small_dual_draws, average_product_dual,
        oracles.naive_average_product, near(1e-12)),
    Row("count-entry", "count", _diff3_count_draw, _entry_count,
        oracles.naive_count_with_degenerate, _entry_count_matches),
    *_keep("test_counting::test_closed_form_count_matches_naive_oracle_on_random_systems",
           "count.gauss", _gauss_count_draws,
           quadratic_zero_count, oracles.naive_quadratic_zero_count),
    *_keep("test_counting::test_quadratic_average_of_zero_indicators_is_the_zero_count",
           "count.gauss", _zero_indicator_draws,
           lambda C, B, p, n, g: p ** (n * C.shape[1]) * quadratic_average(C, B, p, g),
           quadratic_zero_count,
           lambda got, want, c: round(got.real) == want and abs(got.imag) < 1e-6),
    *_keep("test_counting::test_quadratic_average_matches_enumeration", "count.gauss",
           _quadratic_average_draws, quadratic_average, average_product_direct, near(1e-12),
           params=[(3,), (5,), (7,)]),
    # hypergraphs
    *_keep("test_hypergraphs::test_octahedral_norm_single_vertex_factor",
           "hypergraphs.octahedral_power", _single_vertex_draws,
           _octahedral,
           oracles.naive_octahedral_power, near_real(atol=1e-12)),
    *_keep("test_hypergraphs::test_octahedral_matches_naive_on_random_complex",
           "hypergraphs.octahedral_power", lambda: _complex_table_draw((2, 3, 2), 61),
           _octahedral,
           oracles.naive_octahedral_power, near_real(atol=1e-12)),
    *_keep("test_hypergraphs::test_octahedral_matches_naive_on_complex_non_cubic",
           "hypergraphs.octahedral_power",
           lambda shape: _complex_table_draw(shape, 65 + shape[0]),
           _octahedral,
           oracles.naive_octahedral_power, near_real(rtol=1e-12),
           ids=_SHAPE_IDS, params=[(s,) for s in _NON_CUBIC]),
    *_keep("test_hypergraphs::test_real_octahedral_power_matches_naive_and_exact",
           "hypergraphs.octahedral_power", _real_table_draw, _real_octahedral,
           oracles.naive_octahedral_power, near_real(rtol=1e-12),
           ids=_SHAPE_IDS, params=[(s,) for s in _REAL_SHAPES]),
    *_keep("test_hypergraphs::test_real_octahedral_power_matches_naive_and_exact",
           "hypergraphs.octahedral_power", _real_table_draw,
           lambda table: (octahedral_power(TripartiteFunction(values=table)),
                          octahedral_power(TripartiteFunction(values=table.astype(float)))),
           oracles.octahedral_power_exact,
           lambda got, want, c: got == (float(want),) * 2,
           ids=_SHAPE_IDS, params=[(s,) for s in _REAL_SHAPES]),
    *_keep("test_hypergraphs::test_counterexample_sums_exactly_in_int64", "counterexample",
           _counterexample_draw,
           lambda seed, n_x: Fraction(vertex_uniformity_counterexample(seed, n_x)
                                      .observed["double_edge_exact"]),
           oracles.counterexample_double_edge, params=_COUNTEREXAMPLES),
    # systems
    *_keep("test_systems::test_subset_rank_table_matches_span_enumeration",
           "systems.subset_ranks", _subset_rank_draws, _subset_rank,
           oracles.naive_subset_rank),
    *_keep("test_systems::test_cs_complexity_matches_brute_force", "cs_complexity",
           _complexity_draws, _complexity_and_classes, oracles.naive_min_classes,
           _complexity_matches, covers=lambda wants: any(math.isinf(max(w)) for w in wants)),
    *_keep("test_systems::test_min_partition_classes_from_every_floor_matches_brute_force",
           "cs_complexity", _floor_draws, _classes_from_every_floor,
           oracles.brute_min_classes,
           lambda got, want, c: got == [max(f, want) for f in range(c["m"] + 1)] + [want],
           covers=lambda wants: sum(w >= 3 for w in wants) >= 20),
    *_keep("test_systems::test_square_independence_matches_matrix_oracle",
           "power_independence", _square_independence_draws,
           lambda sys: power_independence(sys, 1), oracles.naive_square_matrices_independent),
    *_keep("test_systems::test_power_independence_cold_and_warm_matches_the_oracle",
           "power_independence", _power_order_draws, _power_orders,
           oracles.naive_power_orders, _power_orders_match,
           covers=lambda wants: {tuple(sorted(set(w.values()))) for w in wants}
           == {(True,), (False,), (False, True)}),
    Row("conjectured_true_complexity", "conjectured_true_complexity", _builtin_draws,
        conjectured_true_complexity, oracles.naive_true_complexity),
    Row("normal_form_check", "normal_form_check", _builtin_draws,
        lambda sys, s: normal_form_check(sys, s) is not None, oracles.naive_normal_form,
        covers=lambda wants: len(set(wants)) == 2),
    *_keep("test_systems::test_maximal_square_independent_subsystem_matches_greedy_oracle",
           "power_independence", _greedy_draws, maximal_square_independent_subsystem,
           oracles.naive_square_greedy, params=[(5,), (7,)]),
    # factors
    *_keep("test_verification::test_gauss_sum_matches_naive_and_respects_bound", "gauss",
           _gauss_sum_draws, lambda q: (gauss_sum(q), gauss_sum_report(q).passed),
           oracles.naive_gauss_average,
           lambda got, want, c: abs(got[0] - want) < 1e-12 and got[1]),
    Row("badex", "badex", _badex_draws,
        lambda sys, n: Fraction(verify_badex(sys, n).observed["probability_exact"])
        * sys.p ** (n * sys.d), oracles.naive_quadratic_zero_count),
    Row("gvn", "gvn", _gvn_draws, _gvn_sides, oracles.naive_gvn,
        lambda got, want, c: abs(got[0] - want[0]) <= 1e-12
        and np.abs(np.subtract(got[1], want[1])).max() <= 1e-9),
    *_keep("test_verification::test_atom_histogram_matches_enumeration", "atoms",
           _atom_factor_draws,
           lambda factor: _atom_counts(factor.gamma1, factor.gamma2.forms, factor.p).tolist(),
           oracles.naive_atom_histogram),
    *_keep("test_verification::test_quadfactor_linear_side_across_three_variables",
           "quadfactor", _quadfactor_side_draws,
           lambda sys, gamma2, phis, bs: Fraction(verify_quadfactor(
               sys, gamma2, phis=phis, bs=bs).observed["probability_exact"]),
           oracles.naive_quadfactor_probability,
           covers=lambda wants: all(0 < w < 1 for w in wants)),
    *_keep("test_verification::test_factor_counts_on_the_plan_match_the_enumeration",
           "completefactor", _factor_target_draws,
           lambda sys, factor, A_t, B_t: _factor_matches(sys, factor, A_t, B_t, None, None),
           enumerated_factor_count, covers=lambda wants: sum(w > 0 for w in wants) >= 40),
    Row("completefactor", "completefactor", _completefactor_draws,
        lambda sys, factor, A_t, B_t: Fraction(verify_completefactor(
            sys, factor, A_t, B_t).observed["probability_exact"]),
        oracles.naive_factor_probability, covers=lambda wants: any(wants)),
    # point tables
    *_keep("test_point_tables::test_quadratic_values_and_zero_set_per_point",
           "verification.value_codes", _quadratic_value_draw,
           lambda q, p, n: QuadraticMap(forms=(q,)).value_codes(domain(p, n)).tolist(),
           oracles.naive_quadratic_values, params=SHAPES),
    *_keep("test_point_tables::test_quadratic_values_and_zero_set_per_point", "quadzero",
           _shape, lambda p, n: quadratic_zero_set(p, n).members.tolist(),
           oracles.naive_zero_set, params=SHAPES),
    *_keep("test_point_tables::test_atom_codes_per_point", "atoms", _atom_code_draws,
           lambda factor, p, n: factor.atom_codes(domain(p, n)).tolist(),
           oracles.naive_atom_codes, params=SHAPES),
    *_keep("test_point_tables::test_lift_index_per_point", "lift", _shape,
           lambda p, n: lift(GroupFunction.from_values(domain(p, n), np.arange(p**n)))
           .values.tolist(), oracles.naive_lift_index, params=_LIFT_SHAPES),
    *_keep("test_point_tables::test_retained_digit_and_index_tables_per_point",
           "domains.tables", _shape, _point_tables, oracles.naive_point_tables,
           params=_TABLE_SHAPES),
]
