"""Dense functions on F_p^n, Fourier analysis, and U^k uniformity norms.

Sign convention, fixed once and used by every identity in the package:

    transform(f)[r] = E_x f(x) * omega^(+ r.x),   omega = exp(2*pi*i/p)
    inverse(g)[x]   = sum_r g(r) * omega^(- r.x)

i.e. averages on the physical side, sums on the frequency side.  The omega
powers come from a single precomputed p-entry table so transforms are
bit-reproducible run to run.  A function's table is read-only, and its
transform is computed once and kept on it (`GroupFunction.transform`).

U^k norms have two paths, both built on the multiplicative derivative
Delta_h g(x) = g(x) conj(g(x + h)) taken on the (p,)*n grid through the
domain's padded tables (no index table), and both read the derivatives from
one generator, `GroupDomain.derivative_blocks`, in blocks of h capped by a
fixed number of entries:

* `uk_norm` sums the defining 2^k-fold product over combinatorial cubes
  (x, h_1, ..., h_k) with no Fourier step.  The product over the first k - 2
  directions is the iterated derivative g = Delta_{h_1}...Delta_{h_{k-2}} f;
  the last two directions are the U^2 cube sum
  sum_h |sum_x g(x) conj(g(x + h))|^2.  Splitting x = (a, y) at the last
  ceil(n/2) coordinates, it is one batched matrix product per block of
  derivatives and shifts y -> y + h1 (level-3 BLAS), and a gather of the
  sums over a, reduced by one matrix-vector product (`_cube_sum`); it still
  executes the N^2 multiply-adds of each cube sum.  Since Delta_{-h} g is a
  translate of conj(Delta_h g), every h runs over one representative of
  each pair {h, -h} at weight 2, and h = 0 at weight 1 (`_derivative_sum`),
  with f wrap-padded once for all levels.  `GroupFunction` stores every
  table as complex128, but a table whose imaginary parts are all exactly
  zero enters the enumeration as float64 (`_narrowed`), so its derivatives,
  products and gathers run in real arithmetic; any nonzero imaginary part
  keeps the complex path.
  It is the independent side of every norm check: `norm --method direct`,
  the octahedron lift identity and the test suite use it.  `uk_power_exact`
  is the same enumeration in Fractions, with plain row sums of the last
  level of derivatives at its base.
* `uk_norm_fast` uses the same recursion, with the same pairing, and the
  Fourier base case ||g||_{U^2}^4 = sum_r |g^(r)|^4, transforming a block of
  derivatives over the last h at once.  It is the production path of
  `norm --method fast` and of the experiments (`verify gvn`,
  `verify pythagoras`).

A budget guard refuses jobs whose operation count would run for hours.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .budget import check_budget
from .domains import MAX_DOMAIN_SIZE, GroupDomain, domain

EXACT_MODE_MAX_SIZE = 10**4

# Caps on the entries of one block of the U^k norms' work, fixed so that a
# value repeats bit for bit.  The direct norm's matrix products and gathers
# run fastest at 2^14 entries, real or complex, which also keeps its peak
# memory near the padded table's.  The fast norm's blocks of derivatives
# stay at 2^16 complex entries (1 MB), cache-sized pieces that the allocator
# reuses: at N = 625 a 4 MB cap gives blocks of 1.25 MB, which a
# long-running process mapped afresh, and page-faulted on, at every norm.
CUBE_BLOCK_ENTRIES = 2**14
FOURIER_BLOCK_ENTRIES = 2**16


@lru_cache(maxsize=None)
def _omega_table(p: int) -> np.ndarray:
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _dft_matrix(p: int) -> np.ndarray:
    """The dense p x p transform table omega^(r x), refused before it is
    built when its p^2 entries exceed `domains.MAX_DOMAIN_SIZE`, the cap on
    a table of point values."""
    if p * p > MAX_DOMAIN_SIZE:
        raise ValueError(f"the {p} x {p} transform table has {p * p} entries "
                         f"({16 * p * p} bytes of complex128), more than the "
                         f"supported maximum of {MAX_DOMAIN_SIZE}")
    om = _omega_table(p)
    out = om[np.outer(np.arange(p), np.arange(p)) % p]
    out.setflags(write=False)
    return out


def _narrowed(values) -> np.ndarray:
    """values as a float64 table when every imaginary part is exactly zero,
    else as complex128: products of a real table then run in real
    arithmetic, and no nonzero imaginary part, however small, is dropped."""
    v = np.asarray(values)
    if v.dtype.kind not in "biuf":
        v = v.astype(np.complex128, copy=False)
        if v.imag.any():
            return v
        v = v.real
    return np.ascontiguousarray(v, dtype=np.float64)


def omega_power(p: int, e) -> np.ndarray | complex:
    """omega^(e mod p), elementwise, from the shared table."""
    return _omega_table(p)[np.asarray(e) % p]


@dataclass(frozen=True)
class GroupFunction:
    """Complex-valued function on F_p^n as a dense table in enumeration order.

    `exact` optionally carries a parallel table of Fractions (real rational
    values) used as the oracle for the floating-point identities.  A table
    must not change after construction: `values` is a read-only view (the
    caller's array keeps its flags), so the kept `transform` stays valid.
    """

    domain: GroupDomain
    values: np.ndarray
    exact: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).view()
        if v.shape != (self.domain.size,):
            raise ValueError("value table does not match domain size")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        if self.exact is not None:
            if self.domain.size > EXACT_MODE_MAX_SIZE:
                raise ValueError("exact mode limited to domains of size <= 10^4")
            e = np.asarray(self.exact, dtype=object)
            if e.shape != (self.domain.size,):
                raise ValueError("exact table does not match domain size")
            object.__setattr__(self, "exact", e)

    @classmethod
    def from_values(cls, dom: GroupDomain, values: Sequence[complex]) -> "GroupFunction":
        return cls(domain=dom, values=np.asarray(values, dtype=np.complex128))

    @classmethod
    def from_rational(cls, dom: GroupDomain, values: Sequence[Fraction]) -> "GroupFunction":
        exact = np.array([Fraction(v) for v in values], dtype=object)
        return cls(domain=dom, values=np.array([float(v) for v in exact]),
                   exact=exact)

    @classmethod
    def constant(cls, dom: GroupDomain, c: complex) -> "GroupFunction":
        return cls(domain=dom, values=np.full(dom.size, c, dtype=np.complex128))

    @classmethod
    def character(cls, dom: GroupDomain, freq) -> "GroupFunction":
        """x -> omega^(s.x) for the frequency vector s."""
        return cls(domain=dom, values=_omega_table(dom.p)[dom.linear_values(freq)])

    @cached_property
    def transform(self) -> "GroupFunction":
        """The Fourier transform of f (`fourier`), computed once and kept."""
        dom = self.domain
        arr = _dft_axes(self.values.reshape(dom.grid), _dft_matrix(dom.p))
        return GroupFunction(domain=dom, values=arr.reshape(dom.size) / dom.size)

    def mean(self) -> complex:
        return complex(self.values.mean())

    def linf(self) -> float:
        return float(np.abs(self.values).max())

    def shifted(self, a: complex) -> "GroupFunction":
        return GroupFunction(domain=self.domain, values=self.values + a)

    def scaled(self, c: complex) -> "GroupFunction":
        exact = None
        if self.exact is not None and isinstance(c, (int, Fraction)):
            exact = np.array([v * Fraction(c) for v in self.exact], dtype=object)
        return GroupFunction(domain=self.domain, values=self.values * c, exact=exact)


@dataclass(frozen=True)
class IndicatorSet:
    """Subset of F_p^n as a dense membership table; density kept exact."""

    domain: GroupDomain
    members: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.members, dtype=bool)
        if m.shape != (self.domain.size,):
            raise ValueError("membership table does not match domain size")
        object.__setattr__(self, "members", m)

    @classmethod
    def from_member_vectors(cls, dom: GroupDomain, vectors) -> "IndicatorSet":
        V = np.asarray(list(vectors) or np.zeros((0, dom.n)), dtype=np.int64)
        if V.ndim != 2 or V.shape[1] != dom.n:
            raise ValueError("member vector does not match domain dimension")
        members = np.zeros(dom.size, dtype=bool)
        members[np.ravel_multi_index(tuple((V % dom.p).T), dom.grid)] = True
        return cls(domain=dom, members=members)

    @property
    def count(self) -> int:
        return int(self.members.sum())

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.domain.size)

    def to_function(self) -> GroupFunction:
        exact = np.where(self.members, Fraction(1), Fraction(0)) \
            if self.domain.size <= EXACT_MODE_MAX_SIZE else None
        return GroupFunction(domain=self.domain, values=self.members, exact=exact)


def balanced(A: IndicatorSet) -> GroupFunction:
    """Recentre the indicator to mean zero: A(x) - density.

    In exact mode the mean is zero as a rational number, not just to rounding.
    """
    alpha = A.density
    exact = None
    if A.domain.size <= EXACT_MODE_MAX_SIZE:
        exact = np.where(A.members, 1 - alpha, -alpha)
    values = A.members.astype(np.float64) - float(alpha)
    return GroupFunction(domain=A.domain, values=values, exact=exact)


# ---------------------------------------------------------------------------
# Fourier transform, factored one axis at a time: O(N * n * p) arithmetic.

def _dft_axes(arr: np.ndarray, D: np.ndarray, first: int = 0) -> np.ndarray:
    """Unnormalized transform by the matrix D along every axis of `arr` from
    `first` on."""
    for axis in range(first, arr.ndim):
        arr = np.moveaxis(np.tensordot(D, arr, axes=(1, axis)), 0, axis)
    return arr


def fourier(f: GroupFunction) -> GroupFunction:
    """The transform of f, kept on f (`GroupFunction.transform`)."""
    return f.transform


def inverse_fourier(fhat: GroupFunction) -> GroupFunction:
    dom = fhat.domain
    arr = _dft_axes(fhat.values.reshape(dom.grid), np.conj(_dft_matrix(dom.p)))
    return GroupFunction(domain=dom, values=arr.reshape(dom.size))


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = E_{y+z=x} f(y) g(z), computed through the transform."""
    if f.domain != g.domain:
        raise ValueError("functions live on different domains")
    return inverse_fourier(GroupFunction(
        domain=f.domain, values=fourier(f).values * fourier(g).values))


# ---------------------------------------------------------------------------
# U^k norms.

def uk_norm_op_count(dom: GroupDomain, k: int) -> int:
    """The cube-enumeration count: N^(k-2) cube sums of N^2 multiply-adds,
    plus the N^j derivative tables of N entries built at each level
    j = 1..k-2.  Summing each pair {h, -h} once, the direct pass executes
    about 2^-(k-1) of it, the cube sums as blocked matrix products; the
    count still prices the enumeration, so budgets and reported op counts
    do not depend on how the products are blocked."""
    N = dom.size
    return N**k + sum(N ** (j + 1) for j in range(1, k - 1))


def uk_norm_fast_op_count(dom: GroupDomain, k: int) -> int:
    """N^(k-2) derivatives of N entries, each transformed along n axes of
    p-point DFTs and raised to the fourth power."""
    return dom.size ** (k - 1) * (dom.n * dom.p + 4)


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("uniformity norms are defined for k >= 2")


def _derivative_sum(dom: GroupDomain, g: np.ndarray, depth: int,
                    base: Callable[[np.ndarray], float | Fraction], *,
                    pad: int, entries: int, base_entries: int = 0):
    """sum over (h_1..h_depth) of base([Delta_{h_1}...Delta_{h_depth} g])
    with Delta_h g(x) = g(x) conj(g(x + h)); g is a value table of any dtype,
    and base takes a stack of tables and returns the sum of its value on
    each.

    base must not change under translation or conjugation of its argument;
    since Delta_{-h} g(x) = conj(Delta_h g(x - h)), each pair {h, -h} is then
    taken once at weight 2 and h = 0 once at weight 1 (`_pair_digits`),
    and a level may take conj(Delta_h g) as `derivative_blocks` gives it.  g
    is wrap-padded once, by depth + pad levels; every level of derivatives
    is a block of window products of the padded stack before it, and base
    receives stacks padded by `pad` levels.  A level's blocks hold at most
    entries // (S c) tables per table of the stack S they derive (at least
    one), c the entries of a derivative table, or at the last level the
    entries base touches per table if larger (base_entries), so they depend
    on the shape alone.
    """
    p, n = dom.p, dom.n

    def fold(stack: np.ndarray, weight: int, depth: int):
        if depth == 0:
            return weight * base(stack)
        cost = (p + (depth - 1 + pad) * (p - 1)) ** n
        if depth == 1:
            cost = max(cost, base_entries)
        rows = entries // (len(stack) * cost)
        return sum(fold(block, weight * w, depth - 1)
                   for block, w in dom.derivative_blocks(stack, rows))

    return fold(dom.wrap_padded(g, depth + pad)[None], 1, depth)


def _cube_split(dom: GroupDomain) -> tuple[int, int]:
    """(trailing, entries): `uk_norm` splits a point as x = (a, y) at its last
    ceil(n/2) coordinates, and one table of its U^2 base touches about
    entries = H N values, H = (p^trailing + 1)/2 the number of
    representatives of the pairs {y, -y}."""
    trailing = (dom.n + 1) // 2
    return trailing, (dom.p**trailing + 1) // 2 * dom.size


def _cube_sum(dom: GroupDomain, stack: np.ndarray, trailing: int) -> float:
    """sum over the tables g of `stack`, padded by one level, of the U^2 cube
    sum sum_h |sum_x g(x) conj(g(x + h))|^2, as matrix products in the
    stack's dtype (float64 for real tables, complex128 otherwise).

    With x = (a, y) split at the last `trailing` coordinates and
    h = (h2, h1), M[(j, b), a] = sum_y g(b, y + h1_j) conj(g(a, y)) is one
    matrix product for a block of representatives h1_j of the pairs
    {h1, -h1}, batched over the stack, and the inner sum for h is
    sum_a M[(j, a + h2), a]: one gather over a fixed table of a + h2, then
    one matrix-vector product with a vector of ones, cheaper than numpy's
    sum over that short last axis.
    h1 = 0 is at weight 1 and every other h1_j at weight 2, over all h2.  A
    block holds at most CUBE_BLOCK_ENTRIES // (S max(N, N2^2)) of the h1_j
    (at least one), N2 = p^(n - trailing), which caps both the rows of g
    gathered and the entries of M.
    """
    S = len(stack)
    N1, N2 = dom.p**trailing, dom.size // dom.p**trailing
    pairs = (N1 + 1) // 2
    diagonal = _diagonal_index(dom.p, dom.n - trailing)
    step = max(1, CUBE_BLOCK_ENTRIES // (S * max(dom.size, N2 * N2)))
    ones = np.ones(N2, dtype=stack.dtype)
    total = 0.0
    for lo in range(0, pairs, step):
        hi = min(pairs, lo + step)
        rows = dom.split_translates(stack, trailing, lo, hi)
        if lo == 0:  # h1_0 = 0: the rows of g itself
            ac = np.conj(rows[:, 0]).transpose(0, 2, 1)
        M = np.matmul(rows.reshape(S, -1, N1), ac).reshape(S, hi - lo, N2 * N2)
        sums = np.take(M, diagonal, axis=2) @ ones
        mags = (sums.real**2 + sums.imag**2).sum(axis=(0, 2))
        total += 2 * float(mags.sum()) - (float(mags[0]) if lo == 0 else 0.0)
    return total


@lru_cache(maxsize=None)
def _diagonal_index(p: int, m: int) -> np.ndarray:
    """(p^m, p^m) table whose entry [h, a] is (a + h) p^m + a, a and h points
    of F_p^m: the flat index of M[a + h, a] in a p^m x p^m matrix.  a + h is
    one gather through `sum_grid`."""
    if m == 0:
        return np.zeros((1, 1), dtype=np.int64)
    P, enc = domain(p, m).sum_grid
    size = p**m
    out = P[enc[:, None] + enc[None, :]] * size + np.arange(size)
    out.setflags(write=False)
    return out


def uk_norm(f: GroupFunction, k: int, budget: int | None = None) -> float:
    """U^k norm from the defining cube average; exact enumeration, no Fourier.

    The last two directions are the U^2 cube sum of each iterated derivative
    (`_cube_sum`), taken as matrix products in blocks of derivatives and of
    shifts of at most about CUBE_BLOCK_ENTRIES entries; the block sizes
    depend on (p, n, k) alone, so a value repeats bit for bit.  A real f
    (every imaginary part exactly zero) is enumerated in float64."""
    _check_k(k)
    dom = f.domain
    check_budget(uk_norm_op_count(dom, k), budget, what=f"U^{k} norm on size {dom.size}")
    trailing, entries = _cube_split(dom)
    power_sum = _derivative_sum(dom, _narrowed(f.values), k - 2,
                                lambda stack: _cube_sum(dom, stack, trailing),
                                pad=1, entries=CUBE_BLOCK_ENTRIES, base_entries=entries)
    # |sum_x|^2 contributes N^2 and the k-1 outer averages contribute N^(k-1)
    power = float(power_sum) / dom.size ** (k + 1)
    power = max(power, 0.0)
    return float(power ** (1.0 / 2**k))


def uk_power_exact(f: GroupFunction, k: int, budget: int | None = None) -> Fraction:
    """Exact rational value of the U^k cube average (the 2^k-th power of the
    norm) for real rational-valued f; the oracle for the float path.  The
    U^2 cube sum at the base is sum_h (sum_x Delta_h g(x))^2, plain row sums
    of Fractions over the last level of derivatives."""
    if f.exact is None:
        raise ValueError("function carries no exact rational table")
    _check_k(k)
    dom = f.domain
    check_budget(uk_norm_op_count(dom, k), budget,
                 what=f"exact U^{k} norm on size {dom.size}")

    def square_sums(stack: np.ndarray) -> Fraction:
        sums = stack.reshape(len(stack), -1).sum(axis=1)
        return (sums * sums).sum()

    power_sum = _derivative_sum(dom, f.exact, k - 1, square_sums, pad=0,
                                entries=CUBE_BLOCK_ENTRIES)
    return power_sum / Fraction(dom.size) ** (k + 1)


def uk_norm_fast(f: GroupFunction, k: int, budget: int | None = None) -> float:
    """U^k norm through the transform: E_{h_1..h_(k-2)} of the fourth power of
    the U^2 norm of Delta_{h_1}...Delta_{h_(k-2)} f, to the 2^k-th root."""
    _check_k(k)
    dom = f.domain
    check_budget(uk_norm_fast_op_count(dom, k), budget,
                 what=f"fast U^{k} norm on size {dom.size}")
    if k == 2:
        return u2_norm_fast(f)
    N = dom.size
    D = _dft_matrix(dom.p)

    def fourier_sum(stack: np.ndarray) -> float:
        # sum over the stack of sum_r |g^(r)|^4, one transform for the stack
        dh = _dft_axes(stack, D, first=1) / N
        mags = dh.real**2 + dh.imag**2
        return float((mags**2).sum())

    power = _derivative_sum(dom, f.values, k - 2, fourier_sum, pad=0,
                            entries=FOURIER_BLOCK_ENTRIES) / N ** (k - 2)
    return float(max(power, 0.0) ** (1.0 / 2**k))


def u2_norm_fast(f: GroupFunction) -> float:
    """U^2 norm through the transform: fourth root of sum_r |f^(r)|^4."""
    fhat = fourier(f).values
    mags = fhat.real**2 + fhat.imag**2
    return float((mags**2).sum() ** 0.25)


def l2_norm(f: GroupFunction) -> float:
    """Physical-side L2 norm: sqrt(E_x |f(x)|^2)."""
    mags = f.values.real**2 + f.values.imag**2
    return float(mags.mean() ** 0.5)


# ---------------------------------------------------------------------------
# Function file format (JSON): header p, n, mode; values in enumeration order.

def save_function(obj: GroupFunction | IndicatorSet, path: str) -> None:
    if isinstance(obj, IndicatorSet):
        coords = np.unravel_index(np.flatnonzero(obj.members), obj.domain.grid)
        doc = {"p": obj.domain.p, "n": obj.domain.n, "mode": "indicator",
               "members": np.stack(coords, axis=1).tolist()}
    elif obj.exact is not None:
        doc = {"p": obj.domain.p, "n": obj.domain.n, "mode": "rational",
               "values": [str(v) for v in obj.exact]}
    else:
        doc = {"p": obj.domain.p, "n": obj.domain.n, "mode": "complex",
               "values": [[float(v.real), float(v.imag)] for v in obj.values]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_function(path: str) -> GroupFunction | IndicatorSet:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        dom = domain(int(doc["p"]), int(doc["n"]))
        mode = doc["mode"]
        if mode == "indicator":
            return IndicatorSet.from_member_vectors(dom, doc["members"])
        if mode == "rational":
            return GroupFunction.from_rational(dom, [Fraction(s) for s in doc["values"]])
        if mode == "complex":
            return GroupFunction.from_values(
                dom, [complex(re, im) for re, im in doc["values"]])
    except KeyError as exc:
        raise ValueError(f"function file {path} missing field {exc}") from exc
    except TypeError as exc:  # not an object, or a null field
        raise ValueError(f"function file {path} is malformed: {exc}") from exc
    raise ValueError(f"unknown function mode {doc['mode']!r}")


def random_bounded_function(dom: GroupDomain, rng: np.random.Generator,
                            kind: str = "uniform") -> GroupFunction:
    """Random real function with sup norm <= 1 (test/experiment instances)."""
    if kind == "signs":
        vals = rng.choice([-1.0, 1.0], size=dom.size)
    elif kind == "uniform":
        vals = rng.uniform(-1.0, 1.0, size=dom.size)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    return GroupFunction(domain=dom, values=vals)
