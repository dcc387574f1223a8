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
  sums over a, reduced by one matrix-vector product (`_cube_sum`).  Since
  Delta_{-h} g is a translate of conj(Delta_h g), every h runs over one
  representative of each pair {h, -h} at weight 2, and h = 0 at weight 1
  (`_derivative_sum`), with f wrap-padded once for all levels.  At k >= 3
  the last derivative u and the cube shift h enter the inner sum
  symmetrically, so the last level takes its u in blocks of one class t of
  their trailing coordinates (`derivative_blocks`), and each block's cube
  sum only the h of class t and above, those above at twice the weight:
  about N^3/8 multiply-adds at k = 3 in place of N^3/4.  `GroupFunction`
  stores every table as complex128, but a table whose imaginary parts are
  all exactly zero enters the enumeration as float64 (`_narrowed`), so its
  derivatives, products and gathers run in real arithmetic; any nonzero
  imaginary part keeps the complex path.
  It is the independent side of every norm check: `norm --method direct`,
  the octahedron lift identity and the test suite use it.  `uk_power_exact`
  is the same enumeration, the same calls in the same blocks
  (`_cube_power_sum`), on the integer table of a rational f
  (`GroupFunction.exact`) as an object array of Python ints, whose matrix
  products and gathers are exact.
* `uk_norm_fast` uses the same recursion, with the same pairing, and the
  Fourier base case ||g||_{U^2}^4 = sum_r |g^(r)|^4, transforming a block of
  derivatives over the last h at once.  It is the production path of
  `norm --method fast` and of the experiments (`verify gvn`,
  `verify pythagoras`).

A budget guard refuses jobs whose operation count would run for hours.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from typing import Callable, Optional, Sequence

import numpy as np

from .algebra import as_int, as_int_array
from .budget import check_budget
from .domains import MAX_DOMAIN_SIZE, GroupDomain, domain

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

    `exact`, set by `from_rational` alone, is (F, D): f = F / D with F a
    read-only object table of Python ints and D > 0 an int.  A table must
    not change after construction: `values` is a read-only view (the
    caller's array keeps its flags), so the kept `transform` stays valid."""

    domain: GroupDomain
    values: np.ndarray
    exact: Optional[tuple[np.ndarray, int]] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128).view()
        if v.shape != (self.domain.size,):
            raise ValueError("value table does not match domain size")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @classmethod
    def from_values(cls, dom: GroupDomain, values: Sequence[complex]) -> "GroupFunction":
        return cls(domain=dom, values=np.asarray(values, dtype=np.complex128))

    @classmethod
    def from_rational(cls, dom: GroupDomain,
                      values: Sequence[Fraction | int | str]) -> "GroupFunction":
        """`values` (any input `Fraction` takes) as F / D, D their least common
        denominator; values[x] is the float nearest F[x] / D.  D grows with N
        when the denominators are distinct primes, so F is refused before it
        is built when it would hold over 2^30 bits (128 MB)."""
        fracs = [Fraction(v) for v in values]
        D = 1
        for q in {v.denominator for v in fracs}:
            D = math.lcm(D, q)
            if len(fracs) * D.bit_length() > 2**30:
                raise ValueError(f"the common denominator of {len(fracs)} rational "
                                 "values makes an integer table above 2^30 bits")
        F = np.array([v.numerator * (D // v.denominator) for v in fracs], dtype=object)
        F.flags.writeable = False
        return cls(domain=dom, values=F / D, exact=(F, D))

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
        return GroupFunction(domain=self.domain, values=self.values * c)


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
        V = as_int_array(vectors, "member vectors")
        if not V.size:
            V = V.reshape(0, dom.n)
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
        return GroupFunction(domain=self.domain, values=self.members)


def balanced(A: IndicatorSet) -> GroupFunction:
    """Recentre the indicator to mean zero: A(x) - density."""
    values = A.members.astype(np.float64) - float(A.density)
    return GroupFunction(domain=A.domain, values=values)


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


# ---------------------------------------------------------------------------
# U^k norms.

def uk_norm_op_count(dom: GroupDomain, k: int) -> int:
    """The cube-enumeration count: N^(k-2) cube sums of N^2 multiply-adds,
    plus the N^j derivative tables of N entries built at each level
    j = 1..k-2.  Summing each pair {h, -h} once, and each pair of classes
    of the last derivative and the first cube direction once, the direct
    pass executes about 2^-k of it at k >= 3 (2^-1 at k = 2), the cube
    sums as blocked matrix products; the count still prices the
    enumeration, so budgets and reported op counts do not depend on how the
    products are blocked."""
    N = dom.size
    return N**k + sum(N ** (j + 1) for j in range(1, k - 1))


def uk_norm_fast_op_count(dom: GroupDomain, k: int) -> int:
    """N^(k-2) derivatives of N entries, each transformed along n axes of
    p-point DFTs and raised to the fourth power."""
    return dom.size ** (k - 1) * (dom.n * dom.p + 4)


def _check_k(k: int) -> None:
    if k < 2:
        raise ValueError("uniformity norms are defined for k >= 2")


def _check_direct_budget(dom: GroupDomain, k: int, budget: int | None) -> None:
    """Refuse the direct U^k norm on dom over budget (`uk_norm`,
    `uk_power_exact`)."""
    check_budget(uk_norm_op_count(dom, k), budget, what=f"U^{k} norm on size {dom.size}")


def _check_fast_budget(dom: GroupDomain, k: int, budget: int | None) -> None:
    """Refuse the fast U^k norm on dom over budget (`uk_norm_fast`)."""
    check_budget(uk_norm_fast_op_count(dom, k), budget,
                 what=f"fast U^{k} norm on size {dom.size}")


def _derivative_sum(dom: GroupDomain, g: np.ndarray, depth: int,
                    base: Callable[[np.ndarray, int | None], float | int], *,
                    pad: int, entries: int, trailing: int = 0):
    """sum over (h_1..h_depth) of base([Delta_{h_1}...Delta_{h_depth} g], t)
    with Delta_h g(x) = g(x) conj(g(x + h)); g is a value table of any dtype,
    and base takes a stack of tables and the class t of their last h (None
    at depth 0) and returns the sum of its value on each.

    base must not change under translation or conjugation of its argument;
    since Delta_{-h} g(x) = conj(Delta_h g(x - h)), each pair {h, -h} is then
    taken once at weight 2 and h = 0 once at weight 1 (`_pair_digits`),
    and a level may take conj(Delta_h g) as `derivative_blocks` gives it.
    The last level groups its h by the class t of their last `trailing`
    coordinates (`derivative_blocks`), one class to a block; every level
    before it, and the last at trailing = 0, has t = 0.  g is wrap-padded
    once, by depth + pad levels; every level of derivatives is a block of
    window products of the padded stack before it, and base receives stacks
    padded by `pad` levels.  A level's blocks hold at most entries // (S c)
    tables per table of the stack S they derive (at least one), c the
    entries of a derivative table, so they depend on the shape alone.
    """
    p, n = dom.p, dom.n

    def fold(stack: np.ndarray, weight: int, depth: int, t: int | None):
        if depth == 0:
            return weight * base(stack, t)
        cost = (p + (depth - 1 + pad) * (p - 1)) ** n
        rows = entries // (len(stack) * cost)
        split = trailing if depth == 1 else 0
        total = 0  # in order: builtin sum compensates floats from Python 3.12 on
        for block, w, c in dom.derivative_blocks(stack, rows, split):
            total += fold(block, weight * w, depth - 1, c)
        return total

    return fold(dom.wrap_padded(g, depth + pad)[None], 1, depth, None)


def _cube_split(dom: GroupDomain) -> int:
    """trailing: `uk_norm` splits a point as x = (a, y) at its last
    ceil(n/2) coordinates."""
    return (dom.n + 1) // 2


def _cube_sum(dom: GroupDomain, stack: np.ndarray, trailing: int,
              t: int | None = None) -> float:
    """sum over the tables g of `stack`, padded by one level, of the U^2 cube
    sum sum_h |sum_x g(x) conj(g(x + h))|^2, as matrix products in the
    stack's dtype (float64 for real tables, complex128 otherwise, Python
    ints in an object stack), summed in that number type; with t set, only
    the part of it that the last level of `uk_norm` still needs.

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

    t is for the tables Delta_u g' of one class t of u (`derivative_blocks`).
    The inner sum is then A(u, h) = sum_x g'(x) conj(g'(x + u) g'(x + h))
    g'(x + u + h), symmetric in u and h, and |A| is unchanged by u -> -u or
    h -> -h.  So the classes (t, s) and (s, t) of (u, h) give equal sums, and
    the sum takes only the h1_j with j >= t: h1_t at its weight and every
    later h1_j at twice it.  A block of class t so gathers pairs - t of the
    pairs shift representatives, about half of them over all classes.
    """
    S = len(stack)
    N1, N2 = dom.p**trailing, dom.size // dom.p**trailing
    pairs = (N1 + 1) // 2
    diagonal = _diagonal_index(dom.p, dom.n - trailing)
    step = max(1, CUBE_BLOCK_ENTRIES // (S * max(dom.size, N2 * N2)))
    ones = np.ones(N2, dtype=stack.dtype)
    # the rows of g itself, h1 = 0
    ac = np.conj(stack[(slice(None),) + (slice(0, dom.p),) * dom.n])
    ac = ac.reshape(S, N2, N1).transpose(0, 2, 1)
    total = 0
    for lo in range(t or 0, pairs, step):
        hi = min(pairs, lo + step)
        rows = dom.split_translates(stack, trailing, lo, hi)
        M = np.matmul(rows.reshape(S, -1, N1), ac).reshape(S, hi - lo, N2 * N2)
        sums = np.take(M, diagonal, axis=2) @ ones
        mags = (sums.real**2 + sums.imag**2).sum(axis=(0, 2))
        part = 2 * mags.sum() - (mags[0] if lo == 0 else 0)
        if t is not None:  # h1_t at its weight, each later h1_j at twice it
            part = 2 * part - (mags[0] * (2 if t else 1) if lo == t else 0)
        total += part
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


def _cube_power_sum(dom: GroupDomain, g: np.ndarray, k: int,
                    budget: int | None) -> float | int:
    """N^(k+1) times the U^k cube average of the value table g, in g's
    number type: float64 or complex128 tables give a float, an object table
    of Python ints an exact int.  The iterated derivatives of the first
    k - 2 directions (`_derivative_sum`) each take the U^2 cube sum of the
    last two (`_cube_sum`); at k >= 3 a block of the last derivative level
    holds one class t of the trailing coordinates of its h, and its cube sum
    takes the shifts of class t and above only, since the last two levels'
    inner sum is symmetric in their two directions.  Blocks of derivatives
    and of shifts hold at most about CUBE_BLOCK_ENTRIES entries, and depend
    on (p, n, k) alone, so a float value repeats bit for bit."""
    _check_k(k)
    _check_direct_budget(dom, k, budget)
    trailing = _cube_split(dom)
    return _derivative_sum(dom, g, k - 2,
                           lambda stack, t: _cube_sum(dom, stack, trailing, t),
                           pad=1, entries=CUBE_BLOCK_ENTRIES, trailing=trailing)


def uk_norm(f: GroupFunction, k: int, budget: int | None = None) -> float:
    """U^k norm from the defining cube average; exact enumeration, no Fourier
    (`_cube_power_sum`).  A real f (every imaginary part exactly zero) is
    enumerated in float64."""
    dom = f.domain
    power_sum = _cube_power_sum(dom, _narrowed(f.values), k, budget)
    # |sum_x|^2 contributes N^2 and the k-1 outer averages contribute N^(k-1)
    power = max(float(power_sum) / dom.size ** (k + 1), 0.0)
    return float(power ** (1.0 / 2**k))


def uk_power_exact(f: GroupFunction, k: int, budget: int | None = None) -> Fraction:
    """Exact U^k cube average (the 2^k-th power of the norm) of a rational
    f = F / D (`exact`), the oracle for the float path: `uk_norm`'s
    enumeration (`_cube_power_sum`) on the integer table F, in Python ints,
    divided once by D^(2^k) N^(k+1)."""
    if f.exact is None:
        raise ValueError("function carries no exact rational table")
    F, D = f.exact
    dom = f.domain
    return Fraction(_cube_power_sum(dom, F, k, budget), D ** 2**k * dom.size ** (k + 1))


def uk_norm_fast(f: GroupFunction, k: int, budget: int | None = None) -> float:
    """U^k norm through the transform: E_{h_1..h_(k-2)} of the fourth power of
    the U^2 norm of Delta_{h_1}...Delta_{h_(k-2)} f, to the 2^k-th root."""
    _check_k(k)
    dom = f.domain
    _check_fast_budget(dom, k, budget)
    if k == 2:
        return u2_norm_fast(f)
    N = dom.size
    D = _dft_matrix(dom.p)

    def fourier_sum(stack: np.ndarray, t: int | None) -> float:
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
        F, D = obj.exact
        doc = {"p": obj.domain.p, "n": obj.domain.n, "mode": "rational",
               "values": [str(Fraction(a, D)) for a in F]}
    else:
        doc = {"p": obj.domain.p, "n": obj.domain.n, "mode": "complex",
               "values": [[float(v.real), float(v.imag)] for v in obj.values]}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


# an entry of a rational file: an integer, or the string `save_function` writes
_RATIONAL = re.compile(r"-?[0-9]+(/0*[1-9][0-9]*)?")


def _rationals(values, what: str) -> list:
    """`values`, as read from JSON, if each is an integer or an "a/b" string:
    not a float, true/false or any other string, which are refused
    (ValueError naming `what`)."""
    for v in values:
        if type(v) is not int and not (type(v) is str and _RATIONAL.fullmatch(v)):
            raise ValueError(f'{what} must hold integers and "a/b" strings only, '
                             f"not {v!r}")
    return values


def load_function(path: str) -> GroupFunction | IndicatorSet:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        dom = domain(*(as_int(doc[key], f"function file {path}, field {key!r},")
                       for key in ("p", "n")))
        mode = doc["mode"]
        if mode == "indicator":
            return IndicatorSet.from_member_vectors(dom, as_int_array(
                doc["members"], f"function file {path}, field 'members',"))
        if mode == "rational":
            return GroupFunction.from_rational(dom, _rationals(
                doc["values"], f"function file {path}, field 'values',"))
        if mode == "complex":
            return GroupFunction.from_values(
                dom, [complex(re, im) for re, im in doc["values"]])
    except KeyError as exc:
        raise ValueError(f"function file {path} missing field {exc}") from exc
    except TypeError as exc:  # not an object, or a null field
        raise ValueError(f"function file {path} is malformed: {exc}") from exc
    raise ValueError(f"unknown function mode {doc['mode']!r}")


def random_bounded_function(dom: GroupDomain, rng: np.random.Generator) -> GroupFunction:
    """Random real function with sup norm <= 1 (test/experiment instances):
    values uniform on [-1, 1]."""
    return GroupFunction(domain=dom, values=rng.uniform(-1.0, 1.0, size=dom.size))
