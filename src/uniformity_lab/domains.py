"""Enumeration of the group F_p^n with a fixed base-p lexicographic order.

Point i has coordinate vector x written big-endian: coordinate 0 is the most
significant digit, so enumeration order equals lexicographic order on
coordinate tuples.  This module is the only one that knows that layout.
Tables of point values come from one builder, the per-coordinate outer sum
whose entry at x is sum_k tables[k][x_k] (`_outer_sum`): `linear_values`
gives x -> s.x mod p, and `codes` gives x -> c*x read in any base.  A value
table reshaped to `grid` = (p,)*n is indexed by coordinate vectors, so
translation by h is a cyclic shift of that array (`translates`,
`translation_blocks`); the U^k norms use these and need no index table.
Sums of points are formed without digit arithmetic through `sum_grid`: `enc`
writes a point's digits in base 2p - 1, so adding two codes never carries,
and the index of x + y is P[enc[x] + enc[y]], P being `arange(size)` on the
same wrap-padded grid that `translates` uses.  The (size, n) digit table and
the index tables for + and - remain as properties that no production path
reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .algebra import as_fp_vector, check_modulus

MAX_DOMAIN_SIZE = 2**26  # keeps index tables within platform-native ints / memory

# Cap on the entries of one block of translates: 4 MB of complex128, so the
# block and the temporaries computed from it stay in cache-sized pieces.
TRANSLATION_BLOCK_ENTRIES = 2**18


@dataclass(frozen=True, eq=True)
class GroupDomain:
    p: int
    n: int

    def __post_init__(self):
        check_modulus(self.p)
        if self.n < 1:
            raise ValueError("dimension must be >= 1")
        if self.p**self.n > MAX_DOMAIN_SIZE:
            raise ValueError(f"domain size {self.p}^{self.n} exceeds supported maximum")

    @property
    def size(self) -> int:
        return self.p**self.n

    @property
    def digits(self) -> np.ndarray:
        """(size, n) array; row i is the coordinate vector of point i.

        O(size * n) memory, built on first access; no computation in the
        package reads it.
        """
        return _digits(self.p, self.n)

    def index_of(self, vec) -> int:
        v = np.asarray(vec, dtype=np.int64) % self.p
        if v.shape != (self.n,):
            raise ValueError("vector does not match domain dimension")
        return int(np.ravel_multi_index(tuple(v), self.grid))

    @property
    def grid(self) -> tuple[int, ...]:
        """Shape (p,)*n under which a value table is indexed by coordinates."""
        return (self.p,) * self.n

    def translates(self, values: np.ndarray) -> np.ndarray:
        """View W of shape grid + grid with W[h..., x...] = values[x + h].

        It is a sliding window over one copy of the table wrap-padded by p - 1
        along every axis, so it holds (2p - 1)^n entries, of any dtype.
        """
        return sliding_window_view(_wrap_padded(values, self.p, self.n), self.grid)

    def translation_blocks(self, values: np.ndarray) -> Iterator[np.ndarray]:
        """The rows x -> values[x + h], h in enumeration order, as (rows, size)
        blocks of at most max(TRANSLATION_BLOCK_ENTRIES, size) entries.

        A block fixes the leading digits of h and runs over the trailing ones.
        """
        W = self.translates(values)
        free = 0
        while free < self.n and self.p ** (free + 1) * self.size <= TRANSLATION_BLOCK_ENTRIES:
            free += 1
        for prefix in product(range(self.p), repeat=self.n - free):
            yield W[prefix].reshape(self.p**free, self.size)

    @property
    def sum_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, enc) with P[enc[x] + enc[y]] the index of point x + point y.

        enc[x] is `codes(1, 2p - 1)`; P is the flat copy of arange(size) on
        `grid`, wrap-padded by p - 1 along every axis: (2p - 1)^n entries.
        """
        return _sum_grid(self.p, self.n)

    def codes(self, c: int = 1, base: int | None = None) -> np.ndarray:
        """(size,) table: entry x holds the digits of the point c*x read in
        `base` (default p, so that the entry is the index of c*x).

        Built one coordinate at a time, with no (size, n) digit table.
        """
        return _codes(self.p, self.n, c, self.p if base is None else base)

    def linear_values(self, s) -> np.ndarray:
        """(size,) table: entry x holds s.x mod p, for s a length-n vector."""
        s = as_fp_vector(s, self.p)
        if s.shape != (self.n,):
            raise ValueError("vector does not match domain dimension")
        coord = np.arange(self.p, dtype=np.int64)
        out = _outer_sum([sk * coord % self.p for sk in s])
        out %= self.p
        return out

    @property
    def add_table(self) -> np.ndarray:
        """(size, size) table: entry [i, j] is the index of point_i + point_j.

        O(size^2) memory, built on first access; no computation in the
        package uses it.
        """
        return _add_table(self.p, self.n)

    @property
    def neg_table(self) -> np.ndarray:
        """(size,) table: entry i is the index of -point_i; no computation in
        the package reads it."""
        return _neg_table(self.p, self.n)


@lru_cache(maxsize=None)
def domain(p: int, n: int) -> GroupDomain:
    return GroupDomain(p, n)


@lru_cache(maxsize=None)
def _digits(p: int, n: int) -> np.ndarray:
    out = np.indices((p,) * n, dtype=np.int64).reshape(n, -1).T
    out.setflags(write=False)
    return out


def _wrap_padded(values, p: int, n: int) -> np.ndarray:
    """values on the (p,)*n grid, wrap-padded by p - 1 along every axis."""
    g = np.asarray(values).reshape((p,) * n)
    return np.pad(g, [(0, p - 1)] * n, mode="wrap")


def _outer_sum(tables) -> np.ndarray:
    """(p^n,) table whose entry at x is sum_k tables[k][x_k], for a list of n
    tables of p entries each, built in O(p^n) memory.  Coordinates join from
    the last, least significant, to the first, each as a new leading axis,
    so the broadcast's inner loop runs over the long axis."""
    out = np.zeros(1, dtype=np.int64)
    for t in reversed(tables):
        out = (t[:, None] + out).ravel()
    return out


def _codes(p: int, n: int, c: int, base: int) -> np.ndarray:
    scaled = (c * np.arange(p, dtype=np.int64)) % p
    return _outer_sum([scaled * base ** (n - 1 - k) for k in range(n)])


@lru_cache(maxsize=None)
def _sum_grid(p: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    padded = _wrap_padded(np.arange(p**n, dtype=np.int64), p, n).ravel()
    enc = _codes(p, n, 1, 2 * p - 1)
    padded.setflags(write=False)
    enc.setflags(write=False)
    return padded, enc


@lru_cache(maxsize=None)
def _add_table(p: int, n: int) -> np.ndarray:
    P, enc = _sum_grid(p, n)
    out = P[enc[:, None] + enc[None, :]]
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _neg_table(p: int, n: int) -> np.ndarray:
    out = _codes(p, n, -1, p)
    out.setflags(write=False)
    return out
