"""Naive reference implementations used as independent oracles.

Everything here is deliberately written in the most literal way possible
(itertools loops, span enumeration, Fractions) and shares no code paths with
the package internals it checks.  Sizes must stay tiny.  `random_symmetric`
draws the symmetric matrices the closed forms are checked on;
`counterexample_table` and `vertex_correlation` are the full-table side of
the vertex-uniformity counterexample, whose package form is exact and never
builds the table.
"""

from __future__ import annotations

import cmath
from fractions import Fraction
from itertools import combinations_with_replacement, product

import numpy as np


def span_points(rows, p):
    """All vectors in the F_p-span, closing it one row at a time:
    S <- {s + c*r : s in S, c in F_p}, starting from S = {0}."""
    rows = [tuple(int(x) % p for x in r) for r in rows]
    if not rows:
        return {tuple()}
    seen = {(0,) * len(rows[0])}
    for r in rows:
        seen = {tuple((a + c * b) % p for a, b in zip(s, r))
                for s in seen for c in range(p)}
    return seen


def span_rank(rows, p):
    size = len(span_points(rows, p))
    r = 0
    while p**r < size:
        r += 1
    return r


def naive_rank(rows, p):
    """Rank by textbook row reduction on Python ints, dividing each pivot row
    by its pivot (Fermat inverse): the oracle for spans too large to list."""
    rows = [[int(x) % p for x in r] for r in rows]
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][c], p - 2, p)
        rows[r] = [x * inv % p for x in rows[r]]
        for i in range(r + 1, len(rows)):
            f = rows[i][c]
            rows[i] = [(x - f * y) % p for x, y in zip(rows[i], rows[r])]
        r += 1
    return r


def naive_in_span(v, rows, p):
    v = tuple(int(x) % p for x in v)
    if not rows:
        return not any(v)
    return v in span_points(rows, p)


def brute_min_classes(coeffs, i, p):
    """Minimum class count over every assignment of the other forms."""
    others = [coeffs[j] for j in range(len(coeffs)) if j != i]
    t = len(others)
    if t == 0:
        return 0
    for ncl in range(1, t + 1):
        for assign in product(range(ncl), repeat=t):
            classes = [[others[j] for j in range(t) if assign[j] == c]
                       for c in range(ncl)]
            if all(not naive_in_span(coeffs[i], cl, p) for cl in classes):
                return ncl
    return float("inf")


def naive_fourier(values, digits, p):
    N = len(values)
    out = np.zeros(N, dtype=complex)
    for r in range(N):
        s = 0j
        for x in range(N):
            phase = int(np.dot(digits[r], digits[x])) % p
            s += values[x] * cmath.exp(2j * cmath.pi * phase / p)
        out[r] = s / N
    return out


def naive_points(p, n):
    """The points of F_p^n as digit tuples in enumeration order (coordinate 0
    most significant), with their index lookup."""
    points = list(product(range(p), repeat=n))
    return points, {v: i for i, v in enumerate(points)}


def subspace_points(sub):
    """The points offset + sum_j c_j basis_j of a Subspace, one for each
    coefficient tuple c in F_p^dim, as tuples."""
    basis = [[int(x) for x in row] for row in sub.basis]
    offset = [0] * sub.ambient if sub.offset is None else [int(x) for x in sub.offset]
    points = []
    for c in product(range(sub.p), repeat=len(basis)):
        points.append(tuple((o + sum(cj * row[k] for cj, row in zip(c, basis))) % sub.p
                            for k, o in enumerate(offset)))
    return points


def naive_uk_power(values, p, n, k):
    """The U^k cube average by literal enumeration of (x, h_1, ..., h_k),
    adding digit vectors mod p."""
    points, index = naive_points(p, n)
    N = len(points)
    total = 0
    for tup in product(points, repeat=k + 1):
        x, hs = tup[0], tup[1:]
        prod = 1
        for w in product((0, 1), repeat=k):
            vec = x
            for wj, hj in zip(w, hs):
                if wj:
                    vec = tuple((a + b) % p for a, b in zip(vec, hj))
            v = values[index[vec]]
            if sum(w) % 2:
                v = v.conjugate()
            prod = prod * v
        total = total + prod
    return total / N ** (k + 1)


def fft_u2_norm(values, p, n):
    """U^2 norm as the fourth root of sum_r |f^(r)|^4, with f^ from numpy's
    FFT on the (p,)*n grid (its sign convention does not change |f^|)."""
    fh = np.fft.fftn(np.asarray(values).reshape((p,) * n)) / p**n
    return float((np.abs(fh) ** 4).sum() ** 0.25)


def naive_convolve(values_f, values_g, p, n):
    """E_{y+z=x} f(y) g(z), with z = x - y formed on digit vectors."""
    points, index = naive_points(p, n)
    N = len(points)
    out = np.zeros(N, dtype=complex)
    for x in range(N):
        s = 0j
        for y in range(N):
            z = tuple((a - b) % p for a, b in zip(points[x], points[y]))
            s += values_f[y] * values_g[index[z]]
        out[x] = s / N
    return out


def _naive_form_value(row, assign, points, p, n):
    """sum_u c_u x_u on digit tuples, x_u the points of the assignment."""
    vec = (0,) * n
    for c, x in zip(row, assign):
        vec = tuple((a + int(c) * b) % p for a, b in zip(vec, points[x]))
    return vec


def naive_form_images(rows, p, n, start, stop):
    """Point indices of the forms' values, and of the variables, for the
    assignments start..stop-1 in base-N lexicographic order: (m, len) and
    (d, len) lists."""
    points, index = naive_points(p, n)
    N = len(points)
    d = len(rows[0]) if len(rows) else 0
    images = [[] for _ in rows]
    xs = [[] for _ in range(d)]
    for t in range(start, stop):
        assign = [(t // N ** (d - 1 - u)) % N for u in range(d)]
        for u, x in enumerate(assign):
            xs[u].append(x)
        for i, row in enumerate(rows):
            images[i].append(index[_naive_form_value(row, assign, points, p, n)])
    return images, xs


def naive_average_product(rows, p, n, fs_values):
    """E over assignments of prod_i f_i(L_i(x)), adding digit tuples mod p."""
    points, index = naive_points(p, n)
    N = len(points)
    d = len(rows[0])
    total = 0j
    for assign in product(range(N), repeat=d):
        prod = 1 + 0j
        for i, row in enumerate(rows):
            prod *= fs_values[i][index[_naive_form_value(row, assign, points, p, n)]]
        total += prod
    return total / N**d


def naive_count_solutions(rows, p, n, members):
    points, index = naive_points(p, n)
    N = len(points)
    d = len(rows[0])
    count = 0
    for assign in product(range(N), repeat=d):
        count += all(members[index[_naive_form_value(row, assign, points, p, n)]]
                     for row in rows)
    return count


def naive_gauss_sum(M, p):
    """sum over y in F_p^d of omega^(y^T M y), omega = exp(2 pi i / p), by
    enumerating F_p^d with plain integers."""
    d = len(M)
    omega = np.exp(2j * np.pi * np.arange(p) / p)
    Y = np.array(list(product(range(p), repeat=d)), dtype=np.int64).reshape(-1, d)
    q = np.einsum("ki,ij,kj->k", Y, np.array(M, dtype=np.int64).reshape(d, d), Y)
    return complex(omega[q % p].sum())


def naive_quadratic_zero_count(C, B, p, n):
    """#{X in F_p^(n x d) : (X l_i)^T B (X l_i) = 0 for every row l_i of C},
    enumerating every X."""
    C = np.array(C, dtype=np.int64)
    d = C.shape[1]
    X = np.array(list(product(range(p), repeat=n * d)), dtype=np.int64).reshape(-1, n, d)
    V = X @ C.T  # (points, n, m): column i is X l_i
    q = np.einsum("kam,ab,kbm->km", V, np.array(B, dtype=np.int64).reshape(n, n), V)
    return int((q % p == 0).all(axis=1).sum())


def naive_gauss_average(M, b, p):
    n = len(b)
    total = 0j
    for x in product(range(p), repeat=n):
        xv = np.array(x)
        q = (int(xv @ np.array(M) @ xv) + int(np.array(b) @ xv)) % p
        total += cmath.exp(2j * cmath.pi * q / p)
    return total / p**n


def naive_octahedral_power(values):
    nx, ny, nz = values.shape
    total = 0j
    for x0 in range(nx):
        for x1 in range(nx):
            for y0 in range(ny):
                for y1 in range(ny):
                    for z0 in range(nz):
                        for z1 in range(nz):
                            prod = 1 + 0j
                            for e in product((0, 1), repeat=3):
                                v = values[(x0, x1)[e[0]], (y0, y1)[e[1]],
                                           (z0, z1)[e[2]]]
                                prod *= v.conjugate() if sum(e) % 2 else v
                            total += prod
    return total / (nx * ny * nz) ** 2


def octahedral_power_exact(table):
    """Exact eighth power of the octahedral norm of a real table of Fractions:
    E_{x0,x1,y0,y1} (E_z F(x0,y0,z) F(x1,y0,z) F(x0,y1,z) F(x1,y1,z))^2."""
    nx, ny, nz = table.shape
    total = Fraction(0)
    for x0 in range(nx):
        for x1 in range(nx):
            for y0 in range(ny):
                for y1 in range(ny):
                    s = Fraction(0)
                    for z in range(nz):
                        s += table[x0, y0, z] * table[x1, y0, z] * \
                            table[x0, y1, z] * table[x1, y1, z]
                    total += s * s
    return total / ((nx * ny) ** 2 * nz**2)


def counterexample_table(u):
    """The full (n, n, n) table H(x, y, z) = (3 + u(x,y) + u(y,z) + u(x,z))/6
    for a symmetric sign table u (small n)."""
    return (3.0 + u[:, :, None] + u[None, :, :] + u[:, None, :]) / 6.0


def vertex_correlation(H, a, b, c):
    """E H(x,y,z) a(x) b(y) c(z), the correlation vertex uniformity bounds."""
    return complex(np.einsum("xyz,x,y,z->", H, a, b, c) /
                   (len(a) * len(b) * len(c)))


def naive_square_matrices_independent(rows, p):
    """Square independence via the rank of the flattened gamma*gamma^T
    matrices, using span enumeration (no multinomial tensors)."""
    flats = []
    for row in rows:
        g = np.array(row) % p
        flats.append(tuple(int(v) for v in (np.outer(g, g) % p).ravel()))
    return span_rank(flats, p) == len(rows)


def naive_power_rows(rows, k, p):
    """Coefficient vector of the (k+1)-st power of each form, as Python-int
    rows: the form is multiplied out k+1 times as a polynomial (a dict from
    sorted variable tuples to coefficients), so every monomial carries its
    multinomial factor, and the coefficients are listed mod p in the order
    of itertools.combinations_with_replacement."""
    d = len(rows[0])
    out = []
    for row in rows:
        poly = {(): 1}
        for _ in range(k + 1):
            grown = {}
            for mono, c in poly.items():
                for u in range(d):
                    key = tuple(sorted(mono + (u,)))
                    grown[key] = grown.get(key, 0) + c * int(row[u])
            poly = grown
        out.append([poly[mono] % p
                    for mono in combinations_with_replacement(range(d), k + 1)])
    return out


def random_symmetric(p, n, rank_kind, rng):
    """A symmetric n x n matrix: "zero", "rank1", "corank1" or "random"."""
    if rank_kind == "zero":
        return np.zeros((n, n), dtype=np.int64)
    if rank_kind == "rank1":
        v = rng.integers(1, p, size=n)
        return np.outer(v, v) % p
    M = rng.integers(0, p, size=(n, n))
    M = (M + M.T) % p
    if rank_kind == "corank1":
        M[-1, :] = M[:, -1] = 0
    return M
