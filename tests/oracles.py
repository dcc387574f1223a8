"""Naive reference implementations used as independent oracles.

Everything here is deliberately written in the most literal way possible
(itertools loops, span enumeration, Fractions) and shares no code paths with
the package internals it checks.  Sizes must stay tiny.  The rows of
`tests/ledger.py` name these functions as their oracles, and
`tests/test_ledger.py` checks on the syntax tree that an oracle, and every
helper here it calls, reads no name this module imports from
`uniformity_lab`.  An oracle may read the attributes of a package object it
is given (a factor's forms), never call the package.  `random_symmetric`
draws the symmetric matrices the closed forms are checked on;
`counterexample_table` and `vertex_correlation` are the full-table side of
the vertex-uniformity counterexample, whose package form is exact and never
builds the table.  `convolve` is the one exception: the convolution through
the package's transform, which only the tests use; it is no oracle, names no
row, and `naive_convolve` checks it.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement, product

import numpy as np

from uniformity_lab.functions import GroupFunction, fourier, inverse_fourier


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


def brute_min_classes(rows, i, p):
    """Minimum class count over every assignment of the other forms."""
    others = [rows[j] for j in range(len(rows)) if j != i]
    t = len(others)
    if t == 0:
        return 0
    for ncl in range(1, t + 1):
        for assign in product(range(ncl), repeat=t):
            classes = [[others[j] for j in range(t) if assign[j] == c]
                       for c in range(ncl)]
            if all(not naive_in_span(rows[i], cl, p) for cl in classes):
                return ncl
    return float("inf")


def naive_fourier(values, p, n):
    """f^(r) = E_x f(x) omega^(r.x), r and x the digit tuples of `naive_points`."""
    points, _ = naive_points(p, n)
    N = len(points)
    out = np.zeros(N, dtype=complex)
    for r in range(N):
        s = 0j
        for x in range(N):
            phase = sum(a * b for a, b in zip(points[r], points[x])) % p
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
    through a table of the sums of two points, their digit vectors added
    mod p once.  Fractions are summed as integer numerators over their
    common denominator, divided once at the end; complex values are
    multiplied vertex by vertex and summed tuple by tuple, in
    `product`'s order."""
    points, index = naive_points(p, n)
    N = len(points)
    add = [[index[tuple((a + b) % p for a, b in zip(x, y))] for y in points]
           for x in points]
    odd = [sum(w) % 2 for w in product((0, 1), repeat=k)]
    exact = all(isinstance(v, Fraction) for v in values)
    if exact:
        D = math.lcm(*(v.denominator for v in values))
        values = [v.numerator * (D // v.denominator) for v in values]
    total = 0
    for x, *hs in product(range(N), repeat=k + 1):
        vertices = [x]  # x + sum of the chosen h_j, in the order of `odd`
        for h in reversed(hs):
            vertices += [add[v][h] for v in vertices]
        prod = 1
        for v, conj in zip(vertices, odd):
            prod = prod * (values[v].conjugate() if conj else values[v])
        total = total + prod
    if exact:
        return Fraction(total, D ** 2**k * N ** (k + 1))
    return total / N ** (k + 1)


def fft_u2_norm(values, p, n):
    """U^2 norm as the fourth root of sum_r |f^(r)|^4, with f^ from numpy's
    FFT on the (p,)*n grid (its sign convention does not change |f^|)."""
    fh = np.fft.fftn(np.asarray(values).reshape((p,) * n)) / p**n
    return float((np.abs(fh) ** 4).sum() ** 0.25)


def convolve(f: GroupFunction, g: GroupFunction) -> GroupFunction:
    """(f*g)(x) = E_{y+z=x} f(y) g(z), computed through the transform."""
    if f.domain != g.domain:
        raise ValueError("functions live on different domains")
    return inverse_fourier(GroupFunction(
        domain=f.domain, values=fourier(f).values * fourier(g).values))


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
    """Point indices of the forms' values for the assignments start..stop-1
    in base-N lexicographic order: an (m, len) list."""
    points, index = naive_points(p, n)
    N = len(points)
    d = len(rows[0]) if len(rows) else 0
    images = [[] for _ in rows]
    for t in range(start, stop):
        assign = [(t // N ** (d - 1 - u)) % N for u in range(d)]
        for i, row in enumerate(rows):
            images[i].append(index[_naive_form_value(row, assign, points, p, n)])
    return images


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


def naive_count_with_degenerate(rows, p, n, members):
    """(count, degenerate): the assignments with every form image in the set
    of `members`, and those among them where two form images coincide."""
    points, index = naive_points(p, n)
    N = len(points)
    d = len(rows[0])
    count = degenerate = 0
    for assign in product(range(N), repeat=d):
        images = [index[_naive_form_value(row, assign, points, p, n)] for row in rows]
        if all(members[i] for i in images):
            count += 1
            degenerate += len(set(images)) < len(images)
    return count, degenerate


def naive_count_solutions(rows, p, n, members):
    return naive_count_with_degenerate(rows, p, n, members)[0]


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


def naive_affine_class(M, p):
    """(rank, class, consistent, s) of the augmented form [[A, h], [h^T, g]]
    ((k+1) x (k+1)) by enumerating F_p^k with Python ints: the rank by
    `naive_rank`; consistent when some y has A y = h, and then s = g - y^T A
    y; the class eps from the number of z with z^T A z = t, which is p^(k-1)
    plus eps chi(-1)^(r/2) (p - 1) p^(k - 1 - r/2) at t = 0 for even r > 0,
    and plus eps chi(-1)^((r-1)/2) p^(k - (r+1)/2) at t = 1 for odd r
    (Lidl-Niederreiter, Finite Fields, ch. 6); eps = 1 for A = 0."""
    M = [[int(v) % p for v in row] for row in M]
    k = len(M) - 1
    A = [row[:k] for row in M[:k]]
    h = [M[i][k] for i in range(k)]
    points = list(product(range(p), repeat=k))

    def form(z):
        return sum(A[i][j] * z[i] * z[j] for i in range(k) for j in range(k)) % p

    y = next((z for z in points
              if all(sum(A[i][j] * z[j] for j in range(k)) % p == h[i]
                     for i in range(k))), None)
    r = naive_rank(A, p)
    eps = 1
    if r:
        t, unit = (0, (p - 1) * p ** (k - 1 - r // 2)) if r % 2 == 0 else \
            (1, p ** (k - (r + 1) // 2))
        excess = sum(form(z) == t for z in points) - p ** (k - 1)
        assert abs(excess) == unit, (M, r, excess)
        chi_minus_one = 1 if p % 4 == 1 else -1
        eps = (1 if excess > 0 else -1) * chi_minus_one ** (r // 2)
    return r, eps, y is not None, None if y is None else (M[k][k] - form(y)) % p


def naive_affine_classes(stack, p):
    return [naive_affine_class(M, p) for M in stack]


def naive_solutions(M, rhs, p):
    """Every x in F_p^cols with M x = rhs, as tuples, listed."""
    return {x for x in product(range(p), repeat=len(M[0]))
            if all((sum(int(a) * b for a, b in zip(row, x)) - int(r)) % p == 0
                   for row, r in zip(M, rhs))}


def naive_atom_codes(factor):
    """The atom code of every digit tuple x of F_p^n, in `naive_points`
    order: the digits of gamma1(x), then those of gamma2(x), read in base p,
    each linear and quadratic form evaluated at x in Python ints."""
    p, n = factor.p, factor.n
    G1 = [[int(v) for v in row] for row in factor.gamma1]
    forms = [([[int(v) for v in row] for row in q.M], [int(v) for v in q.b])
             for q in factor.gamma2.forms]
    codes = []
    for x in naive_points(p, n)[0]:
        code = 0
        for row in G1:
            code = code * p + sum(g * xi for g, xi in zip(row, x)) % p
        for M, b in forms:
            code = code * p + naive_quadratic_value(M, b, x, p)
        codes.append(code)
    return codes


def naive_atom_histogram(factor):
    """#{x : gamma1(x) = a, gamma2(x) = c} for every cell (a, c), indexed by
    the digits of a then c read in base p."""
    counts = [0] * factor.p ** (len(factor.gamma1) + len(factor.gamma2.forms))
    for code in naive_atom_codes(factor):
        counts[code] += 1
    return counts


def naive_quadratic_value(M, b, x, p):
    """x^T M x + b^T x mod p in Python ints."""
    n = len(x)
    return (sum(M[i][j] * x[i] * x[j] for i in range(n) for j in range(n)) +
            sum(bi * xi for bi, xi in zip(b, x))) % p


def naive_quadratic_values(M, b, p, n):
    return [naive_quadratic_value(M, b, x, p) for x in naive_points(p, n)[0]]


def naive_zero_set(p, n):
    """Membership of each point in {x : x.x = 0}."""
    return [sum(c * c for c in x) % p == 0 for x in naive_points(p, n)[0]]


def naive_point_tables(p, n):
    """(digit tuples, index of -x, index of x + y) of every point."""
    points, index = naive_points(p, n)
    return ([list(x) for x in points],
            [index[tuple(-c % p for c in x)] for x in points],
            [[index[tuple((a + b) % p for a, b in zip(x, y))] for y in points]
             for x in points])


def naive_lift_index(p, n):
    """The index of x + y + z at [x][y][z], for points x, y, z of F_p^n."""
    points, index = naive_points(p, n)
    return [[[index[tuple((u + v + w) % p for u, v, w in zip(x, y, z))]
              for z in points] for y in points] for x in points]


def naive_factor_probability(rows, factor, A_t, B_t):
    """P(atom of L_i(x) is (a_i, b_i) for every form i), over every
    assignment x of F_p^n points to the variables, from `naive_atom_codes`."""
    p, n = factor.p, factor.n
    points, index = naive_points(p, n)
    codes = naive_atom_codes(factor)
    targets = []
    for a, b in zip(A_t, B_t):
        code = 0
        for digit in list(a) + list(b):
            code = code * p + int(digit) % p
        targets.append(code)
    d = len(rows[0])
    count = sum(all(codes[index[_naive_form_value(row, assign, points, p, n)]] == t
                    for row, t in zip(rows, targets))
                for assign in product(range(len(points)), repeat=d))
    return Fraction(count, len(points) ** d)


def naive_quadfactor_probability(rows, forms, phis, bs, p, n):
    """P(q_k(L_i(x)) = phi_i(x)_k + b_ik for every form i and quadratic form
    q_k = (M, off)), x running over every assignment of digit tuples, phi_i
    (one row per q_k, None for 0) read on the flattened assignment."""
    points, _ = naive_points(p, n)
    d = len(rows[0])
    count = 0
    for assign in product(points, repeat=d):
        flat = [a for x in assign for a in x]
        ok = True
        for row, phi, b in zip(rows, phis, bs):
            img = [sum(c * x[j] for c, x in zip(row, assign)) % p for j in range(n)]
            for k, (M, off) in enumerate(forms):
                rhs = b[k] if phi is None else \
                    sum(int(f) * v for f, v in zip(phi[k], flat)) + b[k]
                ok &= (naive_quadratic_value(M, off, img, p) - rhs) % p == 0
        count += ok
    return Fraction(count, p ** (n * d))


def naive_subset_rank(rows, mask, p, listed):
    """Rank of the rows whose bits are set in mask: `span_rank` when the span
    has at most `listed` points, else `naive_rank`."""
    subset = [r for j, r in enumerate(rows) if mask >> j & 1]
    if p ** min(len(subset), len(rows[0])) <= listed:
        return span_rank(subset, p)
    return naive_rank(subset, p)


def naive_min_classes(rows, p):
    """`brute_min_classes` at every index."""
    return [brute_min_classes(rows, i, p) for i in range(len(rows))]


def naive_power_orders(rows, p):
    """{k: are the (k+1)-st powers independent} for 1 <= k < p - 1, by the
    textbook rank of `naive_power_rows`."""
    return {k: naive_rank(naive_power_rows(rows, k, p), p) == len(rows)
            for k in range(1, p - 1)}


def naive_true_complexity(rows, p):
    """The least k <= m at which the powers are independent, else None."""
    return next((k for k, v in naive_power_orders(rows, p).items()
                 if v and k <= len(rows)), None)


def naive_square_greedy(rows, p):
    """Lowest index first over the flattened gamma gamma^T: a form is kept
    when its square is outside the span of the kept ones."""
    squares = [(np.outer(r, r) % p).ravel() for r in rows]
    kept = []
    for i, sq in enumerate(squares):
        if not naive_in_span(sq, [squares[j] for j in kept], p):
            kept.append(i)
    return kept


def naive_normal_form(rows, p, s):
    """Does every form's support hold a set of at most s + 1 variables that
    no other form's support contains?  Every subset is listed."""
    supports = [{u for u, c in enumerate(r) if c % p} for r in rows]
    return all(any(all(j == i or not set(tau) <= other
                       for j, other in enumerate(supports))
                   for size in range(1, s + 2)
                   for tau in combinations(sorted(own), size))
               for i, own in enumerate(supports))


def naive_gvn(rows, p, n, fs_values, k):
    """(|E prod_i f_i(L_i(x))|, the U^(k+1) norm of each f_i) by enumeration."""
    return (abs(naive_average_product(rows, p, n, fs_values)),
            [naive_uk_power(list(v), p, n, k + 1).real ** (1 / 2 ** (k + 1))
             for v in fs_values])


def counterexample_double_edge(u):
    """E_{x,y} (E_z H(x,y,z))^2 for `counterexample_table`'s H, as a
    Fraction: 6 E_z H = 3 + u(x,y) + (row sums of u at x and y) / n, and the
    squares are summed in Python ints."""
    u = np.asarray(u).astype(object)
    n = len(u)
    rowsum = u.sum(axis=1)
    numer = n * (3 + u) + rowsum[:, None] + rowsum[None, :]
    return Fraction(int((numer**2).sum()), 36 * n**4)
