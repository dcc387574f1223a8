"""Enumeration of the group F_p^n with a fixed base-p lexicographic order.

Point i has coordinate vector x written big-endian: coordinate 0 is the most
significant digit, so enumeration order equals lexicographic order on
coordinate tuples.  This module is the only one that knows that layout.
Tables of point values come from one builder, the per-coordinate outer sum
whose entry at x is sum_k tables[k][x_k] (`_outer_sum`): `linear_values`
gives x -> s.x mod p, `codes` gives x -> c*x read in any base, and
`coordinate_sum` gives x -> sum_k t(x_k) for one residue table t.  A value
table reshaped to `grid` = (p,)*n is indexed by coordinate vectors, so
translation by h is a cyclic shift of that array.  The U^k norms wrap-pad a
table once (`wrap_padded`) and read shifts of it as slices: `derivatives`
gives x -> g(x) conj(g(x + h)) as one slice product per h, and
`translation_blocks` the rows x -> g(x + h) as blocks of a sliding window,
each for one h of every pair {h, -h} (`translation_pairs`); they need no
index table.  Sums of points are formed without digit arithmetic through
`sum_grid`: `enc` writes a point's digits in base 2p - 1, so adding two codes
never carries, and the index of x + y is P[enc[x] + enc[y]], P being
`arange(size)` on the grid wrap-padded by p - 1.  The (size, n) digit table
and the index tables for + and - remain as properties that no production
path reads.
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

# Cap on the entries of one block of translates: 1 MB of complex128, so the
# block and the temporaries computed from it stay in cache-sized pieces that
# the allocator reuses.  At N = 625 a 4 MB cap gives blocks of 1.25 MB, which
# a long-running process mapped afresh, and page-faulted on, at every U^2 norm.
TRANSLATION_BLOCK_ENTRIES = 2**16


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

    @property
    def grid(self) -> tuple[int, ...]:
        """Shape (p,)*n under which a value table is indexed by coordinates."""
        return (self.p,) * self.n

    @property
    def translation_pairs(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(h, weight) for one h of each pair {h, -h}, in enumeration order:
        h = 0 at weight 1, then each h != 0 whose first nonzero digit is at
        most (p - 1)/2 at weight 2.  The weights sum to size (p is odd, so
        h = 0 is the only h with -h = h)."""
        return _translation_pairs(self.p, self.n)

    def wrap_padded(self, values, levels: int) -> np.ndarray:
        """values on `grid`, wrap-padded by levels * (p - 1) along every axis.

        Each of `derivatives` and `translation_blocks` reads one level of
        padding, so a table padded once by L levels serves L of them in turn.
        """
        return _wrap_padded(values, self.p, self.n, levels)

    def unpadded(self, padded: np.ndarray) -> np.ndarray:
        """(size,) table of the values of a padded table on `grid` itself."""
        return padded[(slice(0, self.p),) * self.n].reshape(self.size)

    def derivatives(self, padded: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
        """(D, weight) for (h, weight) in `translation_pairs`, D the table
        x -> g(x) conj(g(x + h)) of the padded table g, padded one level less.

        Each D is one slice product, head * conj(shifted), with no padding.
        """
        extent = padded.shape[0] - (self.p - 1)
        head = padded[(slice(0, extent),) * self.n]
        for h, weight in self.translation_pairs:
            shifted = padded[tuple(slice(c, c + extent) for c in h)]
            yield head * np.conj(shifted), weight

    def translation_blocks(self, padded: np.ndarray) -> Iterator[tuple[np.ndarray, int]]:
        """(rows, weight): the rows x -> g(x + h) of a table g padded by one
        level, for the h of `translation_pairs`, as (rows, size) blocks of at
        most max(TRANSLATION_BLOCK_ENTRIES, size) entries.

        Row h = 0 comes alone at weight 1; every other block is at weight 2.
        A block fixes the leading digits of h and runs over the trailing ones.
        When the fixed prefix has a nonzero digit, either every h in the
        block is a representative or none is, so the block is one window
        slice or skipped; only the all-zero prefix gathers its rows.
        """
        W = sliding_window_view(padded, self.grid)
        free = 0
        while free < self.n and self.p ** (free + 1) * self.size <= TRANSLATION_BLOCK_ENTRIES:
            free += 1
        half = (self.p + 1) // 2
        yield W[(0,) * self.n].reshape(1, self.size), 1
        for prefix in product(range(self.p), repeat=self.n - free):
            lead = next((c for c in prefix if c), 0)
            if lead == 0 and free:
                rows = W[prefix][_half_digits(self.p, free)]
                yield rows.reshape(-1, self.size), 2
            elif 0 < lead < half:
                yield W[prefix].reshape(self.p**free, self.size), 2

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

    def coordinate_sum(self, table) -> np.ndarray:
        """(size,) table: entry x holds sum_k table[x_k], for one table of p
        integers applied to every coordinate (no reduction)."""
        table = np.asarray(table, dtype=np.int64)
        if table.shape != (self.p,):
            raise ValueError("expected one table entry per residue")
        return _outer_sum([table] * self.n)

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


def _wrap_padded(values, p: int, n: int, levels: int) -> np.ndarray:
    """values on the (p,)*n grid, wrap-padded by levels * (p - 1) along every
    axis."""
    g = np.asarray(values).reshape((p,) * n)
    return np.pad(g, [(0, levels * (p - 1))] * n, mode="wrap")


@lru_cache(maxsize=None)
def _half_digits(p: int, m: int) -> tuple[np.ndarray, ...]:
    """The digit vectors h != 0 of length m whose first nonzero digit is at
    most (p - 1)/2, in enumeration order, as a tuple of m digit arrays: their
    indices are, for each e < m, the run from p^e up to (p + 1)/2 * p^e."""
    half = (p + 1) // 2
    runs = np.concatenate([np.arange(p**e, half * p**e) for e in range(m)])
    out = np.unravel_index(runs, (p,) * m)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _translation_pairs(p: int, n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    digits = np.stack(_half_digits(p, n), axis=1).tolist()
    return (((0,) * n, 1),) + tuple((tuple(h), 2) for h in digits)


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
    padded = _wrap_padded(np.arange(p**n, dtype=np.int64), p, n, 1).ravel()
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
