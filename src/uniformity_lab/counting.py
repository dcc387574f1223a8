"""Exact configuration counting over (F_p^n)^d by three independent strategies.

The direct strategy sums the product of the functions at the images of the
forms over the assignments of the d variables.  It runs at the rank r of the
coefficients C, not at d.  With piv the pivot columns of rref(C),
C = C[:, piv] T, and the images are constant on the N^(d-r) points of each
fibre of T, so the sum is N^(d-r) times the sum over G^r of the cut forms
C[:, piv] (the pivot cut).  Then a plan of variable elimination (`_plan`,
as in bucket elimination, or the FAQ of Abo Khamis, Ngo and Rudra) sums
out one direction u of F_p^r at a time: the factors involving u become one
table on G^(rho - 1), rho the rank of their forms, and the rank drops by
one.  The candidates are read off the copoints of the subset-rank table
(cached on the system as `LinearFormSystem.subset_ranks`).  A fill is
taken where rho is below the current rank, by one kernel pass over G^rho;
where the factors involving u are exactly three independent single forms
it is one matrix product instead (`_product_fill`: the N^3 multiply-adds
run in BLAS, in float64, raising for integer tables where it is inexact), and
that fill is also taken at rho = 3 equal to the rank, where enumeration would
lower nothing.  Where no such step exists at rank 2 or 3, a direction whose
single forms fall into two pencils (`_pencil_step`: two classes of forms
collinear modulo a form phi vanishing at u, or parallel at rank 2) is
summed out by a convolution fill (`_convolution_fill`): each of its
N^(rho - 2) slices is one correlation on G, three transforms of N n p
multiply-adds, rounded back to integers for integer tables under an a
priori error bound, with the enumerated pass where the bound or the cost
does not admit it.  A final pass enumerates what is left; with nothing to
eliminate, that is the one pass, with the cut coefficients (C itself at
full rank) and the plain reducer.  So ap3 and diff3 enumerate N on the
direct side, after a convolution; gw6a and cube7 enumerate N^2 on both
sides, in place of N^3; ap4, ap5, nf4 and gw6b plan no convolution.  A
degenerate count tests each assignment for coinciding images, so it takes
the pivot cut but no elimination.  The dual strategy evaluates the same
average on the frequency side: it sums the products of Fourier
coefficients over the annihilator subspace of frequency tuples
(r_1, ..., r_m) with sum_i c_iu r_i = 0 for every variable u, the images of
the w forms of the relation basis, through the same plan (so ap5's N^3 dual
is one matrix product and a pass over N^2), its rank table read off the
system's by matroid duality.  The direct-vs-dual check still compares two
independent computations: the two sides sum different tables
(the functions, their transforms) over different spaces (G^r, the
annihilator) with different plans; they share only the planner and the
kernels, which the oracle tests pin on each side alone.  The two must
agree to 1e-8 wherever both run, which is the central cross-check of the
whole package.

Both strategies, `count_solutions` and the factor counts in `verification`
share the plan and one kernel, `reduce_form_images`: enumeration in tiles of
whole rows of the (prefix, last variable) grid (of part of one row when N
is above CHUNK), form images, a reducer called with the (m, rows, width)
images of a tile alone, an optional thread pool and partials in tile
order.  The images are gathered through the domain's wrap-padded sum grid
(`GroupDomain.sum_grid`); no digit tensor of the assignments is built.

The third strategy counts quadratic zeros in closed form:
`quadratic_zero_count` gives #{X : (X l_i)^T B (X l_i) = 0 for all i} as an
exact sum of Gauss sums over the lines of lambda in F_p^m, read off the rank
and discriminant class of each M_lambda = sum_i lambda_i l_i l_i^T.  Its cost
depends on m, d and p, not on n, and it builds no domain.  It serves the
quadratic zero set {x.x = 0} (`count --method gauss`) and the homogeneous
factor count in `verification`, and must equal the direct count exactly.
The same class enumeration also serves weighted averages:
`quadratic_average` gives E prod_i g_i((X l_i)^T B (X l_i)) for any
functions g_i on F_p, as a float sum of the Gauss sums weighted by the g_i's
Fourier coefficients (`verify bound1`), and must agree with the direct
average to rounding.

Counting includes degenerate configurations (for instance zero-difference
progressions); the reference probabilities alpha^m of `count` are defined
over the full parameter space the same way.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from itertools import product
from typing import Any, Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from .algebra import _legendre, batched_rank_class, inv_mod, nullspace, rref
from .budget import check_budget
from .domains import GroupDomain
from .functions import (GroupFunction, IndicatorSet, _dft_axes, _dft_matrix,
                        fourier)
from .systems import LinearFormSystem, _rank_table

CHUNK = 1 << 19

# Classes of lambda per batched elimination in `quadratic_zero_count`: keeps
# the (count, d, d) stack and its temporaries to a few MB for small d.
CLASS_BLOCK = 1 << 15

DUAL_AGREEMENT_TOL = 1e-8

# How a pass of an elimination plan fills its factor (`_Pass.kind`).
ENUMERATE, PRODUCT, CONVOLUTION = "enumerate", "product", "convolution"


def _check_inputs(sys: LinearFormSystem, fs: Sequence[GroupFunction]) -> GroupDomain:
    if len(fs) != sys.m:
        raise ValueError(f"expected {sys.m} functions, got {len(fs)}")
    dom = fs[0].domain
    for f in fs:
        if f.domain != dom:
            raise ValueError("functions live on different domains")
    if dom.p != sys.p:
        raise ValueError("function domain modulus does not match the system")
    return dom


def reduce_form_images(coeffs: np.ndarray, dom: GroupDomain,
                       reduce: Callable[[np.ndarray], Any], threads: int = 1) -> list:
    """reduce(images) on each tile of the N^d assignments of d variables.

    `coeffs` is an (m, d) coefficient matrix.  The assignments, in base-N
    lexicographic order, are the (N^(d-1), N) grid of (prefix, last
    variable); a tile is max(1, CHUNK // N) whole rows of it, or CHUNK
    columns of one row when N > CHUNK, so no tile straddles a row.  images
    is the (m, rows, width) array of the point indices of the forms' values
    on a tile; a unit row e_u among the coefficients gives variable u's
    point indices.  A form's value is built without digit arithmetic: its
    first d - 1 terms are added over the tile's rows, each sum one gather
    through `dom.sum_grid`, and the last term joins as one broadcast add of
    its `c*x` code table and one gather, both written into the form's slice
    of images.  For d = 1 the images are the `c*x` table itself and the
    grid is never built; for d = 0 there is one tile of one cell.  The
    partial results come back in tile order whatever the number of worker
    threads, so a fixed-order reduction of them is bit-reproducible.
    Callers check their own budget.
    """
    coeffs = np.asarray(coeffs, dtype=np.int64) % dom.p
    m, d = coeffs.shape
    N = dom.size
    if d == 0:
        return [reduce(np.zeros((m, 1, 1), dtype=np.int64))]
    if d == 1:
        scaled = {c: dom.codes(c) for c in np.unique(coeffs).tolist()}
    else:
        P, enc = dom.sum_grid
        scaled = {c: dom.codes(c, 2 * dom.p - 1) for c in np.unique(coeffs).tolist()}
    prefixes = N ** (d - 1)
    rows, width = max(1, CHUNK // N), min(CHUNK, N)

    def run(start: tuple[int, int]):
        row, col = start
        prefix = np.arange(row, min(row + rows, prefixes), dtype=np.int64)
        pre = [prefix // N ** (d - 2 - u) % N for u in range(d - 1)]
        cols = slice(col, min(col + width, N))
        images = np.empty((m, len(prefix), cols.stop - col), dtype=np.int64)
        for i, c in enumerate(coeffs.tolist()):
            if d == 1:
                images[i] = scaled[c[0]][cols]
                continue
            acc = scaled[c[0]][pre[0]]
            for u in range(1, d - 1):
                acc = enc[P[acc + scaled[c[u]][pre[u]]]]
            np.add(acc[:, None], scaled[c[-1]][cols], out=images[i])
            # "clip" lets take write straight into its `out` (the default
            # mode buffers it), each code read before its index overwrites
            # it; every code sum is a grid index, so it never clips
            np.take(P, images[i], out=images[i], mode="clip")
        return reduce(images)

    return _each(run, [(row, col) for row in range(0, prefixes, rows)
                       for col in range(0, N, width)], threads)


def _each(task: Callable[[Any], Any], items: Sequence, threads: int) -> list:
    """[task(item) for item in items], on up to `threads` worker threads; the
    results come back in the order of items."""
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(task, items))
    return [task(item) for item in items]


def _copoints(ranks: np.ndarray, k: int) -> np.ndarray:
    """The flats of rank k - 1 (copoints) of the rank table `ranks`, as
    bitmasks: the sets S of rank k - 1 to which no form adds without raising
    the rank."""
    sets = np.arange(ranks.size)
    flat = ranks == k - 1
    for j in range(ranks.size.bit_length() - 1):
        flat &= ((sets & (1 << j)) != 0) | (ranks[sets | (1 << j)] > ranks)
    return sets[flat]


def _copoint_step(ranks: np.ndarray, flats: np.ndarray, masks: Sequence[int], k: int):
    """(H, involved, kind) for a direction u to sum out, or None.

    `ranks` is the rank table (`systems._rank_table`) of the current forms,
    which span F_p^k, `flats` its copoints (`_copoints`) and masks[f] the bitmask
    of factor f's forms.  The forms vanishing at u form a flat; its rank is
    at most k - 1, and the factors not inside it are those involving u.  A
    larger flat involves fewer factors, so only copoints, flats H of rank
    k - 1, need trying; u is then unique up to scale, with span(H) = u^perp.
    The fill exponent of u is rho = the rank of the forms of the factors
    involving it.  A fill admits a matrix product (`_product_fill`) when
    those factors are exactly three single forms with rho = 3.  Among the H
    of least rho, the first that admits one is taken, else the first; when
    the least rho is the rank k itself, only a matrix-product fill (so
    k = 3) is taken.  Returns H, the indices of its factors and the pass
    kind, PRODUCT or ENUMERATE."""
    if not flats.size:
        return None
    union = np.zeros_like(flats)
    singles = np.zeros_like(flats)
    wide = np.zeros(flats.shape, dtype=bool)
    for mask in masks:
        hit = (mask & ~flats) != 0
        union |= np.where(hit, mask, 0)
        if mask & (mask - 1):
            wide |= hit
        else:
            singles += hit
    rho = ranks[union]
    product = (rho == 3) & (singles == 3) & ~wide
    least = rho == rho.min()
    take = least & product
    if not take.any():
        if rho.min() >= k:
            return None
        take = least
    at = int(take.argmax())
    best = int(flats[at])
    return (best, [f for f, mask in enumerate(masks) if mask & ~best],
            PRODUCT if product[at] else ENUMERATE)


def _cross(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, int, int]:
    """a x b mod p for vectors of F_p^3, in Python ints."""
    return ((a[1] * b[2] - a[2] * b[1]) % p, (a[2] * b[0] - a[0] * b[2]) % p,
            (a[0] * b[1] - a[1] * b[0]) % p)


def _pencil_step(C: np.ndarray, flats: np.ndarray, masks: Sequence[int], p: int):
    """(H, involved, u, phi) for a direction u whose fill is a convolution
    (`_convolution_fill`), or None; for the current forms, the rows of C,
    spanning F_p^k with k = 2 or 3, when no copoint H in `flats` lowers
    the exponent, so that every fill has rho = k, and no factor has k forms.

    The factors involving u must be single forms, and fall into two classes
    A and B of forms that are collinear modulo a (k - 2)-dimensional space
    Phi of forms vanishing at u.  At k = 2, Phi = 0 and the classes are
    parallel forms; the copoints are then the classes of parallel forms, and
    u splits its fill exactly when there are three of them.  At k = 3, Phi
    is one form phi: the forms of a class lie in a plane through phi, and
    since the involved forms span F_p^3, one class holds two independent
    forms x, y, whose plane meets u^perp in phi = (x cross y) cross u.  One
    of the classes holds the first involved form a, and the other the first
    form b not parallel to a, so the pairs (a, y) and (b, y) give every
    candidate phi.  A candidate splits the involved forms when the forms l
    with det(a, l, phi) = l . (phi cross a) != 0 (not in class A) are all
    collinear with the first of them modulo phi, tested the same way.  A
    factor of two forms must lie in H.  The copoints are tried in order, the
    candidates in turn; the first split is taken.  phi is None at k = 2.
    u is read off the nonzero forms of H (a zero form, which relation forms
    can have, lies in every flat).  The search runs on Python ints: it
    touches a few dozen vectors."""
    k = C.shape[1]
    if k == 2 and flats.size != 3:
        return None
    rows = C.tolist()
    if k == 2:
        h = int(flats[0])
        a = next(r for j, r in enumerate(rows) if h >> j & 1 and any(r))
        return h, [f for f, mask in enumerate(masks) if mask & ~h], \
            np.array([-a[1] % p, a[0]]), None

    def dot(x, y):
        return (x[0] * y[0] + x[1] * y[1] + x[2] * y[2]) % p

    wide = [mask for mask in masks if mask & (mask - 1)]
    for h in flats.tolist():
        if any(mask & ~h for mask in wide):
            continue
        inside = [r for j, r in enumerate(rows) if h >> j & 1 and any(r)]
        R = [r for j, r in enumerate(rows) if not h >> j & 1]
        u = next(n for n in (_cross(inside[0], r, p) for r in inside[1:]) if any(n))
        a = R[0]
        b = next(r for r in R if any(_cross(a, r, p)))
        for x in (a, b):
            for y in R:
                n = _cross(x, y, p)
                if not any(n):
                    continue
                phi = _cross(n, u, p)
                off_a = [l for l in R if dot(l, _cross(phi, a, p))]
                if off_a and not any(dot(l, _cross(phi, off_a[0], p)) for l in off_a):
                    return h, [f for f, mask in enumerate(masks) if mask & ~h], \
                        np.array(u), np.array(phi)
    return None


class _Pass(NamedTuple):
    """One pass of an elimination plan (`_plan`): the factors `ids` and
    their forms, the rows of `coeffs` in id order.  A pass that fills a
    factor sums out the last column's variable; its `kind` says how:
    ENUMERATE (one kernel pass over G^(columns)), PRODUCT (one matrix
    product, `_product_fill`) or CONVOLUTION (transforms on G,
    `_convolution_fill`, where `_convolution_admitted`, else the enumerated
    pass)."""

    ids: list[int]
    coeffs: np.ndarray
    kind: str = ENUMERATE


def _plan(C: np.ndarray, p: int,
          ranks: Sequence[int] | None = None) -> tuple[_Pass, ...]:
    """The elimination plan of the sum over G^k of prod_i f_i(L_i(x)), the
    forms L_i the rows of the (m, k) matrix C of rank k.  `ranks` is C's
    rank table (`systems._rank_table`), built here when not given.

    Factors start as the m forms, one table each.  While `_copoint_step`
    finds a direction u, or, at k = 2 or 3 where it finds none,
    `_pencil_step` a two-class split, u is summed out: the factors involving
    it span a rho-dimensional space V, written in coordinates
    (kappa, lambda) with every kappa_j vanishing at u and lambda(u) = 1, so
    that along the line y + t u every kappa_j is constant and lambda takes
    every value once.  So the sum over t of the involved factors is a sum
    over G^rho of their forms in those coordinates, reduced over the last
    variable into a new factor on G^(rho - 1), indexed by the rho - 1 forms
    kappa_j.  For an enumerated fill, B is the rref basis of V,
    lambda = B_i0 / B_i0.u for the first row of nonzero B_i.u and
    kappa_j = B_j - (B_j.u) lambda for the other rows; a form l of V is
    l[P_j] kappa_j summed over j != i0, plus (l.u) lambda, P the pivot
    columns of B.  For a matrix-product fill of forms a, b, c,
    lambda = a / a.u and kappa = (b - (b.u) lambda, c - (c.u) lambda), so the
    forms read (0, 0, a.u), (1, 0, b.u) and (0, 1, c.u).  For a convolution
    fill of classes A and B, with a and b the first form of each and phi
    scaled to 1 at its first nonzero column j, lambda = a / a.u and
    kappa = (phi, b / b.u - lambda), without phi at k = 2: a form l of A is
    then beta phi + (l.u) lambda and one of B is
    delta phi + (l.u)(kappa_2 + lambda), so they read (beta, 0, l.u) and
    (delta, l.u, l.u), beta and delta the j-th entries of what is left of l
    after its u-part.  Every form left vanishes at u, so the variables drop
    to F_p^(k-1) by deleting a column c with u_c != 0.  A factor of k forms
    (independent, as every filled factor's are) involves every direction at
    rho = k and is no single form, so no step follows it, and the final
    pass enumerates what is left.

    Each pass but the last fills factor m, m + 1, ... over G^(columns).
    With nothing to eliminate the plan is one pass, of every form over C
    itself.  The planned exponent, the largest column count, is never
    above k.  The plan is a tuple and its arrays, C among them, are made
    read-only, so that a system can keep it (`LinearFormSystem.direct_plan`
    and `dual_plan`)."""
    forms = [C[i:i + 1] for i in range(C.shape[0])]
    active = list(range(C.shape[0]))
    passes: list[_Pass] = []
    while (k := C.shape[1]) >= 2:
        widths = [forms[f].shape[0] for f in active]
        if max(widths) >= k:
            break
        ranks = np.asarray(_rank_table(C, p) if ranks is None else ranks)
        offsets = np.cumsum([0] + widths[:-1]).tolist()
        masks = [((1 << w) - 1) << o for w, o in zip(widths, offsets)]
        flats = _copoints(ranks, k)
        step = _copoint_step(ranks, flats, masks, k)
        if step is not None:
            H, involved, kind = step
            u = nullspace(C[np.flatnonzero(H >> np.arange(C.shape[0]) & 1)], p)[0]
        elif k in (2, 3) and (split := _pencil_step(C, flats, masks, p)) is not None:
            H, involved, u, phi = split
            kind = CONVOLUTION
        else:
            break
        ids = [active[f] for f in involved]
        R = np.concatenate([forms[f] for f in ids])
        Ru = (R * u % p).sum(axis=1) % p
        if kind != ENUMERATE:  # single forms, so none vanishes at u
            lam = R[0] * inv_mod(int(Ru[0]), p) % p
        if kind == PRODUCT:
            kappa = (R[1:] - Ru[1:, None] * lam % p) % p
            axes = np.array([[0, 0], [1, 0], [0, 1]], dtype=np.int64)
        elif kind == CONVOLUTION:
            rest = (R - Ru[:, None] * lam % p) % p  # each row vanishes at u
            if phi is None:
                in_a = ~rest.any(axis=1)
            else:
                j = int(np.flatnonzero(phi)[0])
                phi = phi * inv_mod(int(phi[j]), p) % p
                in_a = ~((rest - rest[:, j, None] * phi % p) % p).any(axis=1)
            b = int(np.flatnonzero(~in_a)[0])
            kap = (R[b] * inv_mod(int(Ru[b]), p) - lam) % p
            second = np.where(in_a, 0, Ru)
            if phi is None:
                kappa, axes = kap[None], second[:, None]
            else:
                first = ((rest - second[:, None] * kap % p) % p)[:, j]
                kappa, axes = np.stack([phi, kap]), np.stack([first, second], axis=1)
        else:
            B, P = rref(R, p)
            B = B[:len(P)]
            Bu = (B * u % p).sum(axis=1) % p
            i0 = int(np.flatnonzero(Bu)[0])
            lam = B[i0] * inv_mod(int(Bu[i0]), p) % p
            rest = [j for j in range(len(P)) if j != i0]
            kappa = (B[rest] - Bu[rest, None] * lam % p) % p
            axes = R[:, [P[j] for j in rest]]
        passes.append(_Pass(ids, np.concatenate([axes, Ru[:, None]], axis=1), kind))
        c = int(np.flatnonzero(u)[0])
        cols = [j for j in range(k) if j != c]
        active = [f for f in active if f not in ids] + [len(forms)]
        forms.append(kappa)
        forms = [F[:, cols] if f in active else F for f, F in enumerate(forms)]
        C = np.concatenate([forms[f] for f in active])
        ranks = None
    passes.append(_Pass(active, C))
    for pass_ in passes:
        pass_.coeffs.flags.writeable = False
    return tuple(passes)


def _gather(table: np.ndarray, width: int, images: np.ndarray, row: int,
            N: int) -> np.ndarray:
    """table[index] over one tile, index the base-N number whose digits are
    images[row], ..., images[row + width - 1] (a width-0 table is its one
    entry)."""
    if not width:
        return table[0]
    idx = images[row]
    for k in range(row + 1, row + width):
        idx = idx * N + images[k]
    return table[idx]


def _factor_product(tables: Sequence[np.ndarray], widths: Sequence[int],
                    images: np.ndarray, N: int) -> np.ndarray:
    """prod_f tables[f][index_f] over one tile (`_gather`), factor f reading
    the next widths[f] forms' images.  Each gathered array is multiplied
    in and dropped at once, so the allocator reuses its block."""
    prod = _gather(tables[0], widths[0], images, 0, N)
    row = widths[0]
    for table, width in zip(tables[1:], widths[1:]):
        if np.result_type(prod, table) == prod.dtype:
            prod *= _gather(table, width, images, row, N)
        else:
            prod = prod * _gather(table, width, images, row, N)
        row += width
    return prod


def _integer_bound(N: int, tables: Sequence[np.ndarray]) -> int | None:
    """N prod_t max |t| for tables of integers (bool or int), a bound on
    every partial sum of a sum of at most N products of one entry of each;
    None when a table holds floats or complex numbers."""
    bound = N
    for t in tables:
        if t.dtype.kind not in "biu":
            return None
        bound *= max(int(t.max(initial=0)), -int(t.min(initial=0)))
    return bound


def _product_fill(tables: Sequence[np.ndarray], scales: Sequence[int],
                  dom: GroupDomain, threads: int) -> np.ndarray:
    """The factor F(s, t) = sum over z of g_a(alpha z) g_b(s + beta z)
    g_c(t + gamma z), for tables (g_a, g_b, g_c) and scales (alpha, beta,
    gamma), flattened row-major into N^2 entries.

    F = G_b diag(w) G_c^T with G_b[s, z] = g_b(s + beta z), G_c[t, z] =
    g_c(t + gamma z) and w[z] = g_a(alpha z), so the N^3 multiply-adds are
    matrix products through BLAS.  Integer tables are multiplied as float64,
    which is exact while N max|g_a| max|g_b| max|g_c| < 2^53
    (`_integer_bound`): every product and partial sum is then an integer
    below 2^53, so the result does not depend on the summation order and is
    read back as int64.  At a larger bound it raises ArithmeticError.  G_b
    and G_c are gathered through `dom.sum_grid` in blocks of CHUNK // N
    rows, so that, F aside, the temporaries stay within a few CHUNK entries;
    each block of rows of F is one task, run by up to `threads` worker
    threads, and its entries do not depend on how many there are."""
    g_a, g_b, g_c = tables
    alpha, beta, gamma = scales
    N = dom.size
    bound = _integer_bound(N, tables)
    if bound is not None and bound >= 2**53:
        raise ArithmeticError(f"integer product fill of bound {bound} >= 2^53 "
                              "is not exact in float64")
    dtype = np.result_type(*tables) if bound is None else np.float64
    P, enc = dom.sum_grid
    shift_b, shift_c = (dom.codes(c, 2 * dom.p - 1) for c in (beta, gamma))
    w = g_a[dom.codes(alpha)].astype(dtype)
    rows = max(1, CHUNK // N)
    starts = range(0, N, rows)
    F = np.empty((N, N), dtype=dtype)

    def block(g: np.ndarray, shift: np.ndarray, lo: int) -> np.ndarray:
        return g[P[enc[lo:lo + rows, None] + shift]].astype(dtype, copy=False)

    def fill(lo: int) -> None:
        left = block(g_b, shift_b, lo)
        left *= w
        for top in starts:
            F[lo:lo + rows, top:top + rows] = left @ block(g_c, shift_c, top).T

    _each(fill, starts, threads)
    return (F if bound is None else F.astype(np.int64)).reshape(-1)


def _convolution_error(N: int, n: int, p: int, bound: int) -> float:
    """A priori bound on the error of every entry of a `_convolution_fill`
    slice of integer tables, `bound` = N M_A M_B (`_integer_bound`), M_A and
    M_B the products of the largest |entries| of the tables of each class.

    Take a, b as exact float64 slices (their entries are integer products
    below M_A, M_B < 2^53).  One p-point stage of `functions._dft_axes` is a
    BLAS product with the omega table, whose entries are within 24 u of
    omega^(jk) (the angle 2 pi k / p carries 3 roundings, exp one more;
    13.6 u is the largest error measured up to p = 1009), u = 2^-53; a
    complex product and a sum of p of them add 2 sqrt(2) p u relative to the
    sum of |terms|.  So each output entry is within c sum_k |x_k| of the
    exact one, c = (3 p + 24) u, and by Cauchy-Schwarz on each line of p
    entries a stage adds an l2 error of at most c p |x|_2, while the exact
    stage multiplies |x|_2 by sqrt(p).  Over the n stages the error of a
    transform of x is at most K sqrt(N) |x|_2, K = n c sqrt(p) (first order).
    With |a|_2 <= sqrt(N) M_A, the transforms a^ and b^ are within K N M_A
    and K N M_B in l2, and at most N M_A, N M_B entrywise.  Their product
    is then within N^2 M_A M_B (2 K + sqrt(5) u) in l2, its l2 norm at most
    N^2 M_A M_B, so the inverse transform is within
    N^(5/2) M_A M_B (3 K + sqrt(5) u), and after the division by N (one
    more rounding of entries at most N M_A M_B) every entry is within
    N^(3/2) M_A M_B (3 K + 4 u).  Doubled to cover the second-order terms:
    2 sqrt(N) bound (3 n (3 p + 24) sqrt(p) + 4) u."""
    return 2 * math.sqrt(N) * bound * (3 * n * (3 * p + 24) * math.sqrt(p) + 4) * 2.0**-53


def _convolution_admitted(tables: Sequence[np.ndarray], dom: GroupDomain) -> bool:
    """Whether a convolution fill runs: n > 1, and for integer tables the
    rounding bound (`_convolution_error`) is below 1/4, so that rounding
    recovers every entry.  At n = 1 the transform is one dense N x N matrix
    (`_dft_matrix(p)`, cached for the process): N^2 complex entries where the
    enumerated pass holds a few CHUNK, and 3 N^2 multiply-adds a slice
    against its N^2."""
    if dom.n == 1:
        return False
    bound = _integer_bound(dom.size, tables)
    return bound is None or _convolution_error(dom.size, dom.n, dom.p, bound) < 0.25


def _convolution_fill(tables: Sequence[np.ndarray], coeffs: np.ndarray,
                      dom: GroupDomain, threads: int) -> np.ndarray:
    """The factor F(s, t) = sum over z of A_s(z) B_s(z + t), flattened
    row-major into N^(w + 1) entries, for a CONVOLUTION pass of width w + 1
    (`_plan`): the rows of `coeffs` are (beta, 0, alpha) for the forms of
    class A and (delta, gamma, gamma) for those of B (without the first
    column when w = 0, so that there is no s), and A_s(z) = prod_A
    g(beta s + alpha z), B_s(v) = prod_B g(delta s + gamma v).

    Each of the N^w slices is one correlation on G, evaluated through the
    package's transform (`functions._dft_axes` over every axis but the
    slice axis): with a^-(r) = sum_z A_s(z) omega^(-r.z) and
    b^(r) = sum_v B_s(v) omega^(r.v),
    F(s, t) = N^-1 sum_r a^-(r) b^(r) omega^(-r.t), so three transforms of N
    points, N n p multiply-adds each, replace the N^2 of the slice.  For
    integer tables the result is rounded to int64, and ArithmeticError is
    raised if any entry lies more than 1/4 from its integer (the caller
    takes this fill only where `_convolution_error` is below 1/4), so a
    count is never rounded quietly; float tables give their real part.
    The slices are built in blocks of at most CHUNK entries (at least one
    slice), each block one task on up to `threads` worker threads, and its
    entries do not depend on how many there are."""
    N, p = dom.size, dom.p
    width = coeffs.shape[1] - 1
    slices = N ** (width - 1)
    dtype = np.result_type(np.int64, *tables)
    integer = dtype.kind in "iu"
    work = np.complex128 if dtype == np.complex128 else np.float64
    P, _ = dom.sum_grid
    D = _dft_matrix(p)
    Dc = np.conj(D)
    rows = max(1, CHUNK // N)
    # per class, (table, codes of beta s or None, codes of alpha z) of each form
    classes = ([], [])
    for t, row in enumerate(coeffs.tolist()):
        slope = dom.codes(row[0], 2 * p - 1) if width > 1 and row[0] else None
        shift = dom.codes(row[-1], 2 * p - 1) if slope is not None else dom.codes(row[-1])
        classes[row[-2] != 0].append((tables[t], slope, shift))
    F = np.empty((slices, N), dtype=dtype)

    def side(forms: list, lo: int) -> np.ndarray:
        """prod over the forms of g(beta s + alpha z), for the slices s of the
        block at lo, on the (slices, p, ..., p) grid."""
        prod = np.ones((min(rows, slices - lo), N), dtype=work)
        for g, slope, shift in forms:
            prod *= g[shift if slope is None else P[slope[lo:lo + rows, None] + shift]]
        return prod.reshape(-1, *dom.grid)

    def fill(lo: int) -> None:
        a = _dft_axes(side(classes[0], lo), Dc, first=1)
        a *= _dft_axes(side(classes[1], lo), D, first=1)
        out = _dft_axes(a, Dc, first=1).reshape(-1, N) / N
        if integer:
            rounded = np.rint(out.real)
            if np.abs(out - rounded).max() > 0.25:
                raise ArithmeticError("convolution fill is not within 1/4 of an integer")
            F[lo:lo + rows] = rounded
        else:
            F[lo:lo + rows] = out if work == np.complex128 else out.real

    _each(fill, range(0, slices, rows), threads)
    return F.reshape(-1)


def _run_passes(passes: Sequence[_Pass], dom: GroupDomain,
                tables: Sequence[np.ndarray], threads: int):
    """Sum over G^k of the product of the factors of the last of `passes`
    (`_plan`), tables[f] the (N,) table of form f, after each earlier pass
    has filled its factor: a table on G^(columns - 1), its entries the sums
    over the last variable.  A PRODUCT pass is one `_product_fill`, a
    CONVOLUTION pass one `_convolution_fill` where `_convolution_admitted`;
    any other is one `reduce_form_images` call, whose tiles are summed over
    the last variable, and a row split into several tiles (N > CHUNK) adds
    its tiles' sums.  The tile sums of the last pass are added in an
    explicit loop (the builtin sum may compensate), so the total, a Python
    int for tables of 0/1 or ints and complex for complex ones, is
    bit-reproducible."""
    N = dom.size
    tables, widths = list(tables), [1] * len(tables)
    for ids, coeffs, kind in passes[:-1]:
        held = [tables[f] for f in ids]
        held_widths = [widths[f] for f in ids]
        width = coeffs.shape[1] - 1
        widths.append(width)
        if kind == PRODUCT:
            tables.append(_product_fill(held, coeffs[:, -1].tolist(), dom, threads))
            continue
        if kind == CONVOLUTION and _convolution_admitted(held, dom):
            tables.append(_convolution_fill(held, coeffs, dom, threads))
            continue

        def fill(images: np.ndarray) -> np.ndarray:
            return _factor_product(held, held_widths, images, N).sum(axis=-1)

        sums = np.concatenate(reduce_form_images(coeffs, dom, fill, threads))
        tables.append(sums.reshape(N**width, -1).sum(axis=1))
    ids, coeffs, _ = passes[-1]
    held = [tables[f] for f in ids]
    held_widths = [widths[f] for f in ids]
    total = np.result_type(np.int64, *held).type(0).item()
    for s in reduce_form_images(
            coeffs, dom, lambda images: _factor_product(
                held, held_widths, images, N).sum(), threads):
        total += s.item()
    return total


def direct_op_count(sys: LinearFormSystem, dom: GroupDomain) -> int:
    """m N^d, the entry operations of a full enumeration.  The direct side
    runs over G^r, r the rank of C, and sums directions out where that lowers
    the exponent or turns a fill into a matrix product (`_plan`), so this
    overstates the work it executes; the formula is kept so that reports and
    budget refusals do not depend on the plan."""
    return sys.m * dom.size**sys.d


def average_product_direct(sys: LinearFormSystem, fs: Sequence[GroupFunction],
                           budget: int | None = None, threads: int = 1) -> complex:
    """E over all assignments of prod_i f_i(L_i(x)): the sum over G^r of
    the system's `direct_plan`, over N^r.  A plan of one pass is one kernel
    call on the cut coefficients, which are C itself at full rank."""
    dom = _check_inputs(sys, fs)
    _check_average_budget(sys, dom, False, budget)
    total = _run_passes(sys.direct_plan, dom, [f.values for f in fs], threads)
    return complex(total) / dom.size**len(sys.pivots)


def dual_op_count(sys: LinearFormSystem, dom: GroupDomain) -> int:
    """m N^w, w the dimension of the relation space: the entry operations of
    enumerating every frequency tuple.  The dual side sums directions out
    (`_plan`), so this overstates the work it executes; the formula is kept
    so that reports and budget refusals stay byte-identical."""
    return sys.m * dom.size**sys.relations.dim


def _check_average_budget(sys: LinearFormSystem, dom: GroupDomain, dual: bool,
                          budget: int | None) -> None:
    """Refuse the dual average (`dual`), else the direct one, over budget."""
    if dual:
        check_budget(dual_op_count(sys, dom), budget,
                     what=f"dual count over {dom.size}^{sys.relations.dim} frequency tuples")
    else:
        check_budget(direct_op_count(sys, dom), budget,
                     what=f"direct count over {dom.size}^{sys.d} assignments")


def average_product_dual(sys: LinearFormSystem, fs: Sequence[GroupFunction],
                         budget: int | None = None, threads: int = 1) -> complex:
    """Same average, evaluated as a sum of Fourier-coefficient products over
    the annihilator of the system's frequency relations: its tuples are the
    images of the w-variable forms given by the columns of the relation
    basis, `sys.relations` (w = 0 is the single zero tuple).  Those forms,
    the rows of the basis transposed, have full column rank w, so the sum is
    the system's `dual_plan`, with no cut, from their rank table by duality
    (`_relation_ranks`).  Each function's transform is the one it keeps, so
    m copies of one function are transformed once."""
    dom = _check_inputs(sys, fs)
    _check_average_budget(sys, dom, True, budget)
    return complex(_run_passes(sys.dual_plan, dom, [fourier(f).values for f in fs],
                               threads))


def _relation_ranks(sys: LinearFormSystem) -> np.ndarray:
    """The rank table of the relation forms, the rows of the relation basis
    transposed, read off the cached `sys.subset_ranks` by matroid duality:
    the rows S of the basis span the restriction of the relation space W to
    the coordinates S, of dimension w minus that of the relations supported
    off S, so r*(S) = |S| - r + r(E - S), r the rank of C and E all m forms."""
    ranks = np.asarray(sys.subset_ranks)
    sets = np.arange(ranks.size)
    sizes = np.zeros(ranks.size, dtype=np.int64)
    for j in range(sys.m):
        sizes += (sets >> j) & 1
    return sizes - len(sys.pivots) + ranks[::-1]


def count_solutions(sys: LinearFormSystem, A: IndicatorSet,
                    budget: int | None = None, threads: int = 1,
                    with_degenerate: bool = False) -> tuple[int, Optional[int]]:
    """Exact number of assignments with every form image in A.

    Returns (count, degenerate_count) where the second entry counts the
    solutions in which two form images coincide (None unless requested).
    The count is the 0/1 sum of the system's `direct_plan`; the degenerate
    count tests each assignment for coinciding images, so it enumerates G^r
    in one pass with no elimination.
    """
    dom = A.domain
    if dom.p != sys.p:
        raise ValueError("set domain modulus does not match the system")
    check_budget(direct_op_count(sys, dom), budget,
                 what=f"solution count over {dom.size}^{sys.d} assignments")

    # the form images are constant on the N^(d - r) points of each fibre of
    # the cut, so every count is N^(d - r) times the count over G^r
    fibre = dom.size ** (sys.d - len(sys.pivots))
    if not with_degenerate:
        return fibre * _run_passes(sys.direct_plan, dom, [A.members] * sys.m,
                                   threads), None

    def tile_counts(images: np.ndarray) -> tuple[int, int]:
        ok = A.members[images[0]]
        for idx in images[1:]:
            ok &= A.members[idx]
        coincide = np.zeros(images.shape[1:], dtype=bool)
        for i in range(sys.m):
            for j in range(i + 1, sys.m):
                coincide |= images[i] == images[j]
        return int(ok.sum()), int((ok & coincide).sum())

    partials = reduce_form_images(sys.cut, dom, tile_counts, threads)
    return fibre * sum(c for c, _ in partials), fibre * sum(g for _, g in partials)


def _class_forms(mats: np.ndarray, p: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(lambdas, forms) with forms[j] = sum_i lambdas[j, i] mats[i] mod p for
    an (m, d, d) stack `mats`, one lambda on each line of F_p^m, in blocks of
    at most max(CLASS_BLOCK, p) classes: the lambdas whose first nonzero
    coordinate is 1, in lexicographic order.  Those with leading coordinate
    `lead` range over a product of copies of F_p; a block fixes the first few
    of those coordinates and is the outer sum, over the rest, of the tables
    a -> a mats[k], built one coordinate at a time.  Every entry is a sum of
    at most m residues, reduced mod p once."""
    m, d, _ = mats.shape
    flat = mats.reshape(m, d * d) % p
    multiples = np.arange(p, dtype=np.int64)[:, None, None] * flat % p
    for lead in range(m):
        fixed = lead + 1
        while fixed < m and p ** (m - fixed) > CLASS_BLOCK:
            fixed += 1
        rest = np.indices((p,) * (m - fixed)).reshape(m - fixed, p ** (m - fixed)).T
        for prefix in product(range(p), repeat=fixed - lead - 1):
            acc = flat[lead].copy()
            for k, a in enumerate(prefix, start=lead + 1):
                acc += multiples[a, k]
            acc = acc[None]
            for k in range(fixed, m):
                acc = (acc[:, None] + multiples[:, k]).reshape(-1, d * d)
            acc %= p
            head = np.broadcast_to((0,) * lead + (1,) + prefix, (len(rest), fixed))
            yield np.concatenate([head, rest], axis=1), acc.reshape(-1, d, d)


def quadratic_zero_op_count(m: int, d: int, width: int, p: int,
                            weighted: bool = False) -> int:
    """Entry operations of `quadratic_zero_count` for m forms in d variables
    and a width x width form: one elimination of the form, then for each of
    the (p^m - 1)/(p - 1) classes of lambda, M_lambda (m d^2 multiply-adds)
    and its elimination (about d^3); a 0 x 0 form needs none of them.
    `weighted` adds the (p - 1) m gathers and products with which
    `quadratic_average` weights each class."""
    if not width:
        return 0
    per_class = d * d * (m + d) + ((p - 1) * m if weighted else 0)
    return width**3 + (p**m - 1) // (p - 1) * per_class


def _lambda_classes(C, B, p: int, budget: int | None, weighted: bool = False):
    """The shared front of the closed forms: after the budget check, the rank
    r_B and class eps_B of B and an iterator of (lambdas, ranks, classes)
    blocks over the lines of lambda, the ranks and classes those of
    M_lambda = sum_i lambda_i l_i l_i^T (`algebra.batched_rank_class`)."""
    C = np.asarray(C, dtype=np.int64) % p
    B = np.asarray(B, dtype=np.int64) % p
    m, d = C.shape
    check_budget(quadratic_zero_op_count(m, d, B.shape[0], p, weighted), budget,
                 what=f"Gauss-sum count over {(p**m - 1) // (p - 1)} classes "
                      f"of {d}x{d} forms")
    (r_B,), (eps_B,) = batched_rank_class(B[None], p)

    def blocks():
        for lams, forms in _class_forms(C[:, :, None] * C[:, None, :], p):
            yield (lams, *batched_rank_class(forms, p))

    return int(r_B), int(eps_B), blocks()


def quadratic_zero_count(C, B, p: int, budget: int | None = None) -> int:
    """Exact number of X in F_p^(n x d) with (X l_i)^T B (X l_i) = 0 for every
    row l_i of the (m, d) matrix C, B a symmetric (n, n) matrix.

    Orthogonality over lambda in F_p^m writes the count as p^(-m) times the
    sum over lambda of the Gauss sum of the form X -> tr(B X M X^T), whose
    matrix is B (x) M with M = M_lambda = sum_i lambda_i l_i l_i^T.  By rank
    r and class eps (`algebra.batched_rank_class`), that Gauss sum is
    p^(nd - r r_B) eps^(r_B) eps_B^r g^(r r_B), with g^2 = chi(-1) p.  The
    p - 1 nonzero multiples of lambda share r and, when r r_B is even, the
    term; when r r_B is odd their terms cancel.  So the count is
    p^(-m) (p^(nd) + (p - 1) sum c(r, eps) term(r, eps)) over the classes of
    lambda, c(r, eps) the number of classes with rank r and class eps,
    summed in Python ints.  The cost depends on m, d and p, not on n.
    """
    m, d = np.shape(C)
    n = np.shape(B)[0]
    r_B, eps_B, blocks = _lambda_classes(C, B, p, budget)
    if r_B == 0:
        return p ** (n * d)
    tally = np.zeros(2 * d + 2, dtype=np.int64)
    for _, ranks, eps in blocks:
        tally += np.bincount(2 * ranks + (eps > 0), minlength=2 * d + 2)
    chi_minus_one = 1 if p % 4 == 1 else -1
    total = p ** (n * d)
    for key in np.nonzero(tally)[0].tolist():
        r, e = divmod(key, 2)
        if r * r_B % 2:
            continue
        sign = (1 if e else -1) ** r_B * eps_B**r * chi_minus_one ** (r * r_B // 2)
        total += (p - 1) * int(tally[key]) * sign * p ** (n * d - r * r_B // 2)
    count, rem = divmod(total, p**m)
    if rem:
        raise ArithmeticError("Gauss-sum total is not divisible by p^m")
    return count


def quadratic_average(C, B, p: int, g, budget: int | None = None) -> complex:
    """E over X in F_p^(n x d) of prod_i g_i((X l_i)^T B (X l_i)), for the rows
    l_i of the (m, d) matrix C, B a symmetric (n, n) matrix and g an (m, p)
    array whose row i is g_i on F_p.

    Writing g_i(v) = sum_a ghat_i(a) omega^(a v) turns the average into
    sum over lambda in F_p^m of prod_i ghat_i(lambda_i) S(lambda), with
    S(lambda) = p^(-nd) G(B (x) M_lambda) = p^(-r r_B / 2) eps^(r_B) eps_B^r
    u^(r r_B), u = g / sqrt(p) (1 or i), in the notation of
    `quadratic_zero_count`, whose class enumeration it shares.  The multiple
    a lambda has S(a lambda) = chi(a)^(r r_B) S(lambda), so each class of
    lambda is weighted by sum_a chi(a)^(r r_B) prod_i ghat_i(a lambda_i).  A
    float sum; its cost depends on m, d and p, not on n, and it builds no
    domain.
    """
    g = np.asarray(g, dtype=np.complex128)
    m, d = np.shape(C)
    r_B, eps_B, blocks = _lambda_classes(C, B, p, budget, weighted=True)
    if r_B == 0:
        return complex(np.prod(g[:, 0]))
    residues = np.arange(p)
    ghat = g @ np.exp(-2j * np.pi * np.outer(residues, residues) / p) / p
    # lines[i, l, a - 1] = ghat_i(a l), the weights along the line of l
    units = residues[1:]
    lines = ghat[:, np.outer(residues, units) % p]
    chi = _legendre(units, p)
    u = 1 if p % 4 == 1 else 1j
    # S at key 2 r + (eps > 0), as the tally of `quadratic_zero_count`
    S = np.array([(1 if e else -1) ** r_B * eps_B**r * u ** (r * r_B % 4)
                  * p ** (-r * r_B / 2) for r in range(d + 1) for e in (0, 1)])
    total = complex(np.prod(ghat[:, 0]))
    for lams, ranks, eps in blocks:
        w = lines[0, lams[:, 0]]
        for i in range(1, m):
            w = w * lines[i, lams[:, i]]
        weight = np.where(ranks * r_B % 2 == 1, w @ chi, w.sum(axis=1))
        total += complex((S[2 * ranks + (eps > 0)] * weight).sum())
    return total
