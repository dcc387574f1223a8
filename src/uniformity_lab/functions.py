"""Dense functions on F_p^n, Fourier analysis, and U^k uniformity norms.

Sign convention, fixed once and used by every identity in the package:

    transform(f)[r] = E_x f(x) * omega^(+ r.x),   omega = exp(2*pi*i/p)
    inverse(g)[x]   = sum_r g(r) * omega^(- r.x)

i.e. averages on the physical side, sums on the frequency side.  The omega
powers come from a single precomputed p-entry table so transforms are
bit-reproducible run to run.

U^k norms have two production paths, both built on the multiplicative
derivative Delta_h g(x) = g(x) conj(g(x + h)) taken on the (p,)*n grid through
the domain's translation views (no index table):

* `uk_norm` sums the defining 2^k-fold product over combinatorial cubes
  (x, h_1, ..., h_k) with no Fourier step.  The product over the first k - 2
  directions is the iterated derivative g = Delta_{h_1}...Delta_{h_{k-2}} f,
  formed in a Python loop over (h_1, ..., h_{k-2}) in lexicographic order;
  the last two directions are the U^2 cube sum
  sum_h |sum_x g(x) conj(g(x + h))|^2, computed as blocked matrix-vector
  products over all h at once.
* `uk_norm_fast` uses the same recursion one level higher and the Fourier
  base case ||g||_{U^2}^4 = sum_r |g^(r)|^4, transforming a block of
  derivatives over the last h at once.

A budget guard refuses jobs whose operation count would run for hours.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iter_product
from typing import Callable, Optional, Sequence

import numpy as np

from .budget import check_budget
from .domains import GroupDomain, domain

EXACT_MODE_MAX_SIZE = 10**4


@lru_cache(maxsize=None)
def _omega_table(p: int) -> np.ndarray:
    out = np.exp(2j * np.pi * np.arange(p) / p)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _dft_matrix(p: int) -> np.ndarray:
    om = _omega_table(p)
    out = om[np.outer(np.arange(p), np.arange(p)) % p]
    out.setflags(write=False)
    return out


def omega_power(p: int, e) -> np.ndarray | complex:
    """omega^(e mod p), elementwise, from the shared table."""
    return _omega_table(p)[np.asarray(e) % p]


@dataclass(frozen=True)
class GroupFunction:
    """Complex-valued function on F_p^n as a dense table in enumeration order.

    `exact` optionally carries a parallel table of Fractions (real rational
    values) used as the oracle for the floating-point identities.
    """

    domain: GroupDomain
    values: np.ndarray
    exact: Optional[np.ndarray] = None

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.complex128)
        if v.shape != (self.domain.size,):
            raise ValueError("value table does not match domain size")
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
        members = np.zeros(dom.size, dtype=bool)
        for v in vectors:
            members[dom.index_of(v)] = True
        return cls(domain=dom, members=members)

    @property
    def count(self) -> int:
        return int(self.members.sum())

    @property
    def density(self) -> Fraction:
        return Fraction(self.count, self.domain.size)

    def to_function(self) -> GroupFunction:
        exact = np.array([Fraction(int(b)) for b in self.members], dtype=object) \
            if self.domain.size <= EXACT_MODE_MAX_SIZE else None
        return GroupFunction(domain=self.domain,
                             values=self.members.astype(np.complex128),
                             exact=exact)


def balanced(A: IndicatorSet) -> GroupFunction:
    """Recentre the indicator to mean zero: A(x) - density.

    In exact mode the mean is zero as a rational number, not just to rounding.
    """
    alpha = A.density
    exact = None
    if A.domain.size <= EXACT_MODE_MAX_SIZE:
        exact = np.array([Fraction(int(b)) - alpha for b in A.members], dtype=object)
    values = A.members.astype(np.float64) - float(alpha)
    return GroupFunction(domain=A.domain, values=values.astype(np.complex128),
                         exact=exact)


# ---------------------------------------------------------------------------
# Fourier transform, factored one axis at a time: O(N * n * p) arithmetic.

def _dft_axes(arr: np.ndarray, p: int, first: int = 0) -> np.ndarray:
    """Unnormalized transform along every axis of `arr` from `first` on."""
    D = _dft_matrix(p)
    for axis in range(first, arr.ndim):
        arr = np.moveaxis(np.tensordot(D, arr, axes=(1, axis)), 0, axis)
    return arr


def fourier(f: GroupFunction) -> GroupFunction:
    dom = f.domain
    arr = _dft_axes(f.values.reshape(dom.grid), dom.p)
    return GroupFunction(domain=dom, values=arr.reshape(dom.size) / dom.size)


def inverse_fourier(fhat: GroupFunction) -> GroupFunction:
    dom = fhat.domain
    arr = fhat.values.reshape((dom.p,) * dom.n)
    Dc = np.conj(_dft_matrix(dom.p))
    for axis in range(dom.n):
        arr = np.moveaxis(np.tensordot(Dc, arr, axes=(1, axis)), 0, axis)
    return GroupFunction(domain=dom, values=arr.reshape(dom.size))


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = E_{y+z=x} f(y) g(z), computed through the transform."""
    if f.domain != g.domain:
        raise ValueError("functions live on different domains")
    fh = fourier(f).values
    gh = fourier(g).values
    return inverse_fourier(GroupFunction(domain=f.domain, values=fh * gh))


# ---------------------------------------------------------------------------
# U^k norms.

def uk_norm_op_count(dom: GroupDomain, k: int) -> int:
    """N^(k-2) cube sums of N^2 multiply-adds, plus the N^j derivative
    tables of N entries built at each level j = 1..k-2."""
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
                    base: Callable[[np.ndarray], float | Fraction]):
    """sum over (h_1..h_depth), lexicographic, of base(Delta_{h_1}...Delta_{h_depth} g)
    with Delta_h g(x) = g(x) conj(g(x + h)); g is a value table of any dtype."""
    if depth == 0:
        return base(g)
    W = dom.translates(g)
    total = 0
    for h in iter_product(range(dom.p), repeat=dom.n):
        total += _derivative_sum(dom, g * np.conj(W[h].reshape(dom.size)),
                                 depth - 1, base)
    return total


def uk_norm(f: GroupFunction, k: int, budget: int | None = None) -> float:
    """U^k norm from the defining cube average; exact enumeration, no Fourier."""
    _check_k(k)
    dom = f.domain
    check_budget(uk_norm_op_count(dom, k), budget, what=f"U^{k} norm on size {dom.size}")

    def cube_sum(g: np.ndarray) -> float:
        # sum_h |sum_x g(x) conj(g(x + h))|^2; block @ gc is the conjugate sum
        gc = np.conj(g)
        total = 0.0
        for block in dom.translation_blocks(g):
            sums = block @ gc
            total += float((sums.real**2 + sums.imag**2).sum())
        return total

    power_sum = _derivative_sum(dom, f.values, k - 2, cube_sum)
    # |sum_x|^2 contributes N^2 and the k-1 outer averages contribute N^(k-1)
    power = float(power_sum) / dom.size ** (k + 1)
    power = max(power, 0.0)
    return float(power ** (1.0 / 2**k))


def uk_power_exact(f: GroupFunction, k: int, budget: int | None = None) -> Fraction:
    """Exact rational value of the U^k cube average (the 2^k-th power of the
    norm) for real rational-valued f; the oracle for the float path."""
    if f.exact is None:
        raise ValueError("function carries no exact rational table")
    _check_k(k)
    dom = f.domain
    check_budget(uk_norm_op_count(dom, k), budget,
                 what=f"exact U^{k} norm on size {dom.size}")

    def cube_sum(g: np.ndarray) -> Fraction:
        total = Fraction(0)
        for block in dom.translation_blocks(g):
            sums = block @ g
            total += (sums * sums).sum()
        return total

    return _derivative_sum(dom, f.exact, k - 2, cube_sum) / Fraction(dom.size) ** (k + 1)


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

    def fourier_sum(g: np.ndarray) -> float:
        # sum over h of sum_r |(Delta_h g)^(r)|^4, one block of h per transform;
        # g(x + h) conj(g(x)) is the conjugate of Delta_h g, with the same sum
        gc = np.conj(g)
        total = 0.0
        for block in dom.translation_blocks(g):
            deriv = (block * gc).reshape((-1,) + dom.grid)
            dh = _dft_axes(deriv, dom.p, first=1) / N
            mags = dh.real**2 + dh.imag**2
            total += float((mags**2).sum())
        return total

    power = _derivative_sum(dom, f.values, k - 3, fourier_sum) / N ** (k - 2)
    return float(max(power, 0.0) ** (1.0 / 2**k))


def u2_norm_fast(f: GroupFunction) -> float:
    """U^2 norm through the transform: fourth root of sum_r |f^(r)|^4."""
    fh = fourier(f).values
    mags = fh.real**2 + fh.imag**2
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
    return GroupFunction(domain=dom, values=vals.astype(np.complex128))
