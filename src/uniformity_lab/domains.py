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
table once (`wrap_padded`) and read shifts of it as slices:
`derivative_blocks` gives the tables x -> conj(g(x)) g(x + h) of a stack of
padded tables g, for one h of every pair {h, -h} (`_pair_digits`), in
blocks of h that are window products, on request grouped by the pair class
of h's trailing coordinates, and `split_translates` the rows
g(b, y + h) of a table split at its trailing coordinates, as one gather;
neither builds a table of size^2 entries.  Sums of points are formed
without digit arithmetic through `sum_grid`: `enc` writes a point's digits
in base 2p - 1, so adding two codes never carries, and the index of x + y is
P[enc[x] + enc[y]], P being `arange(size)` on the grid wrap-padded by
p - 1.  The (size, n) digit table and the index tables for + and - remain
as properties that no production path reads.
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

    def wrap_padded(self, values, levels: int) -> np.ndarray:
        """values on `grid`, wrap-padded by levels * (p - 1) along every axis.

        Each level of `derivative_blocks` reads one level of padding, so a
        table padded once by L levels serves L levels of derivatives.
        """
        return _wrap_padded(values, self.p, self.n, levels)

    def derivative_blocks(self, stack: np.ndarray, rows: int, trailing: int = 0
                          ) -> Iterator[tuple[np.ndarray, int, int]]:
        """(D, weight, t) for one h of every pair {h, -h}, in blocks: `stack`
        is an (S, ...) stack of tables g padded by at least one level, and D
        the (S * B, ...) stack of the tables x -> conj(g(x)) g(x + h),
        conj(Delta_h g), for the B h of one block, padded one level less;
        row s * B + j of D derives stack[s] along the j-th h.

        Write h = (a, y), y its last `trailing` coordinates, and let t be the
        index of the representative of {y, -y} among the `_pair_digits` of
        F_p^trailing (t = 0 for y = 0).  The blocks run through t = 0, 1, ...
        and the h of a block share one t and one weight.  At t = 0 the h are
        (a, 0) for the `_pair_digits` a of the first lead = n - trailing
        coordinates: a = 0 alone at weight 1, then at weight 2 the a whose
        first lead - free digits are zero, then for each prefix of
        lead - free digits whose first nonzero digit is at most (p - 1)/2
        the p^free a with that prefix.  At t > 0 they are (a, y_t) for every
        a, at weight 2, the p^free a of one prefix to a block.  free is the
        largest count up to lead with p^free <= rows, so B <= max(rows, 1).
        At trailing = 0 every h has t = 0, in the order of `_pair_digits`.
        A prefix block is one product with a window slice; only the all-zero
        prefix at t = 0 gathers its shifts.
        """
        p, n = self.p, self.n
        lead = n - trailing
        extent = stack.shape[1] - (p - 1)
        shape = (extent,) * n
        head = np.conj(stack[(slice(None),) + (slice(0, extent),) * n])
        W = sliding_window_view(stack, shape, axis=tuple(range(1, n + 1)))
        free = 0
        while free < lead and p ** (free + 1) <= rows:
            free += 1

        def block(shifted: np.ndarray, conj_head: np.ndarray) -> np.ndarray:
            return (shifted * conj_head).reshape((-1,) + shape)

        yield block(W[(slice(None),) + (0,) * n], head), 1, 0
        half = (p + 1) // 2
        spread = head.reshape(head.shape[:1] + (1,) * free + shape)
        classes = zip(*_pair_digits(p, trailing)) if trailing else [()]
        for t, y in enumerate(classes):
            for prefix in product(range(p), repeat=lead - free):
                first = next((c for c in prefix if c), 0)
                window = W[(slice(None),) + prefix + (slice(None),) * free + y]
                if t == 0 and first == 0 and free:
                    yield block(window[(slice(None),) + _pair_digits(p, free, 1)],
                                head[:, None]), 2, 0
                elif t > 0 or 0 < first < half:
                    yield block(window, spread), 2, t

    def split_translates(self, stack: np.ndarray, trailing: int, lo: int,
                         hi: int) -> np.ndarray:
        """(S, hi - lo, p^(n - trailing), p^trailing) array whose entry
        [s, j, b, y] is g(b, y + h_j), for g = stack[s] a table padded by one
        level, its point split as x = (b, y) at the last `trailing`
        coordinates, and h_j the j-th h of the `_pair_digits` of
        F_p^trailing.  At (lo, hi) = (0, 1) it is the table itself, split.
        One gather through two index tables of N and (p^trailing + 1)/2
        entries."""
        rows, shifts = _split_index(self.p, self.n, trailing)
        flat = stack.reshape(len(stack), -1)
        return np.take(flat, rows + shifts[lo:hi, None, None], axis=1)

    @property
    def sum_grid(self) -> tuple[np.ndarray, np.ndarray]:
        """(P, enc) with P[enc[x] + enc[y]] the index of point x + point y.

        enc[x] is `codes(1, 2p - 1)`; P is the flat copy of arange(size) on
        `grid`, wrap-padded by p - 1 along every axis: (2p - 1)^n entries,
        refused before it is built when they exceed MAX_DOMAIN_SIZE.
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


def _check_entries(what: str, p: int, n: int, entries: int, dtype) -> None:
    """Refuse (ValueError) a table of more than MAX_DOMAIN_SIZE entries
    before it is built, naming its entries and bytes."""
    if entries > MAX_DOMAIN_SIZE:
        dtype = np.dtype(dtype)
        raise ValueError(f"the {what} of {p}^{n} has {entries} entries "
                         f"({dtype.itemsize * entries} bytes of {dtype}), more "
                         f"than the supported maximum of {MAX_DOMAIN_SIZE}")


def _wrap_padded(values, p: int, n: int, levels: int) -> np.ndarray:
    """values on the (p,)*n grid, wrap-padded by levels * (p - 1) along every
    axis: (p + levels (p - 1))^n entries, refused before they are built when
    they exceed MAX_DOMAIN_SIZE."""
    g = np.asarray(values).reshape((p,) * n)
    _check_entries("wrap-padded table", p, n, (p + levels * (p - 1)) ** n, g.dtype)
    return np.pad(g, [(0, levels * (p - 1))] * n, mode="wrap")


@lru_cache(maxsize=None)
def _pair_digits(p: int, m: int, first: int = 0) -> tuple[np.ndarray, ...]:
    """The digit arrays of one h of each pair {h, -h} of F_p^m, in
    enumeration order, from the `first`-th on: h = 0, at weight 1 in a sum
    that takes each pair once, then each h != 0 whose first nonzero digit is
    at most (p - 1)/2, at weight 2.  The weights sum to p^m (p is odd, so
    h = 0 is the only h with -h = h)."""
    half = (p + 1) // 2
    runs = np.concatenate([[0]] + [np.arange(p**e, half * p**e) for e in range(m)])
    out = np.unravel_index(runs[first:], (p,) * m)
    for a in out:
        a.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _split_index(p: int, n: int, trailing: int) -> tuple[np.ndarray, np.ndarray]:
    """(rows, shifts) for `split_translates`: rows[b, y] is the flat index of
    the point (b, y) in a table padded by one level, (2p - 1)^n entries, and
    shifts[j] that of (0, h_j), h_j the j-th pair representative of
    F_p^trailing.  The padded index has (2p - 1)^n entries, refused before
    it is built when they exceed MAX_DOMAIN_SIZE."""
    lead = n - trailing
    padded = (2 * p - 1,) * n
    _check_entries("split index", p, n, (2 * p - 1) ** n, np.int64)
    rows = np.arange((2 * p - 1) ** n).reshape(padded)[(slice(0, p),) * n]
    rows = rows.reshape(p**lead, p**trailing)
    shifts = np.ravel_multi_index((0,) * lead + _pair_digits(p, trailing), padded)
    for a in (rows, shifts):
        a.setflags(write=False)
    return rows, shifts


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
    _check_entries("sum grid", p, n, (2 * p - 1) ** n, np.int64)
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
