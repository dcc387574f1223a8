"""Seeded inputs and job lists for the four benchmark workloads.

Each workload is a fixed list of CLI commands (argv lists for
`uniformity_lab.cli.main`).  The seed picks the input *values* -- function
tables, indicator sets, changes of variables, experiment seeds -- while the
*shapes* (p, n, k, system size) are fixed, so a job costs the same on every
seed and the run-to-run spread stays small.  The inputs are written as the
documented system and function files; the program sees only those files and
argv.

This module uses numpy but not the package, so input generation does not move
when the package changes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Built-in systems (rows copied from the documented catalog) whose seeded
# change-of-variables images serve as system files.
BUILTIN_ROWS = {
    "ap3": [[1, 0], [1, 1], [1, 2]],
    "ap4": [[1, 0], [1, 1], [1, 2], [1, 3]],
    "ap5": [[1, 0], [1, 1], [1, 2], [1, 3], [1, 4]],
    "diff3": [[-1, 1, 0], [-1, 0, 1], [0, -1, 1]],
    "gw6a": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1], [1, 2, -1], [1, -1, 2]],
    "gw6b": [[1, 0, 0], [1, 1, 0], [1, 0, 1], [1, 1, 1], [1, 1, -1], [1, -1, 1]],
    "cube7": [[1, 0, 0, 0], [1, 1, 0, 0], [1, 0, 1, 0], [1, 0, 0, 1],
              [1, 1, 1, 0], [1, 1, 0, 1], [1, 0, 1, 1]],
    "nf4": [[-3, -2, -1, 0], [-2, -1, 0, 1], [-1, 0, 1, 2], [0, 1, 2, 3]],
}

# Random catalog systems: (m, d, p).  Their form structure is drawn once from
# STRUCTURE_SEED; a run's seed only applies a change of variables, which keeps
# every span relation and therefore the branch-and-bound tree (the workload's
# cost) identical across seeds.  Drawing the structure from the run seed makes
# the search cost vary by 30-40% per system.
STRUCTURE_SEED = 20071185
RANDOM_SYSTEM_SHAPES = ((12, 5, 7), (12, 5, 7), (12, 4, 11), (11, 5, 7),
                        (11, 5, 7), (10, 4, 7), (10, 4, 7), (9, 3, 5))


@dataclass
class Job:
    """One CLI command; `check` names the answer check and `info` feeds it."""

    argv: list[str]
    check: str
    info: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Small exact helpers over F_p, independent of the package.

def rank_mod_p(M, p: int) -> int:
    A = np.array(M, dtype=np.int64) % p
    rows, cols = A.shape
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if A[i, c]), None)
        if piv is None:
            continue
        A[[r, piv]] = A[[piv, r]]
        A[r] = A[r] * pow(int(A[r, c]), p - 2, p) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        r += 1
        if r == rows:
            break
    return r


def random_gl(d: int, p: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform random invertible d x d matrix over F_p."""
    while True:
        T = rng.integers(0, p, size=(d, d))
        if rank_mod_p(T, p) == d:
            return T


def change_variables(rows, p: int, T: np.ndarray) -> np.ndarray:
    """Coefficients of L_i(T y): the rows times T, reduced mod p."""
    return np.asarray(rows, dtype=np.int64) @ T % p


def digits(p: int, n: int) -> np.ndarray:
    """(p^n, n) coordinate vectors in base-p lexicographic order."""
    idx = np.arange(p**n, dtype=np.int64)
    places = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return idx[:, None] // places % p


def random_structures() -> list[tuple[int, np.ndarray]]:
    """The fixed random systems of the catalog workload, as (p, rows)."""
    rng = np.random.default_rng(STRUCTURE_SEED)
    out = []
    for m, d, p in RANDOM_SYSTEM_SHAPES:
        while True:
            C = rng.integers(0, p, size=(m, d))
            distinct = len({tuple(r) for r in C}) == m
            if C.any(axis=1).all() and distinct and rank_mod_p(C, p) == d:
                out.append((p, C))
                break
    return out


# ---------------------------------------------------------------------------
# File writers (the documented JSON formats).

class InputWriter:
    def __init__(self, root: str, rng: np.random.Generator):
        self.root = root
        self.rng = rng
        self.files = 0
        os.makedirs(root, exist_ok=True)

    def _write(self, name: str, doc: dict) -> str:
        self.files += 1
        path = os.path.join(self.root, f"{self.files:02d}_{name}")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
            fh.write("\n")
        return path

    def system(self, name: str, rows, p: int) -> tuple[str, np.ndarray]:
        """Seeded change-of-variables image of `rows`, as a system file."""
        rows = np.asarray(rows, dtype=np.int64)
        C = change_variables(rows, p, random_gl(rows.shape[1], p, self.rng))
        doc = {"p": p, "d": int(C.shape[1]), "name": name,
               "forms": [[int(c) for c in r] for r in C]}
        return self._write(f"sys_{name}_p{p}.json", doc), C

    def bounded(self, p: int, n: int) -> str:
        """Random complex function with |f| <= 1."""
        N = p**n
        r = self.rng.uniform(0.0, 1.0, size=N)
        theta = self.rng.uniform(0.0, 2 * np.pi, size=N)
        vals = r * np.exp(1j * theta)
        doc = {"p": p, "n": n, "mode": "complex",
               "values": [[float(v.real), float(v.imag)] for v in vals]}
        return self._write(f"f_bounded_p{p}_n{n}.json", doc)

    def _indicator(self, name: str, p: int, n: int, members: np.ndarray) -> str:
        D = digits(p, n)
        doc = {"p": p, "n": n, "mode": "indicator",
               "members": [[int(c) for c in D[i]] for i in np.nonzero(members)[0]]}
        return self._write(name, doc)

    def quadzero_image(self, p: int, n: int) -> str:
        """{x : (Tx).(Tx) = 0} for a seeded T in GL_n(F_p): the quadratic zero
        set moved by an automorphism, so its U^k norms equal the standard set's."""
        T = random_gl(n, p, self.rng)
        Y = digits(p, n) @ T.T % p
        return self._indicator(f"qz_p{p}_n{n}.json", p, n,
                               (Y * Y).sum(axis=1) % p == 0)

    def random_set(self, p: int, n: int) -> str:
        members = self.rng.random(p**n) < 0.5
        return self._indicator(f"set_p{p}_n{n}.json", p, n, members)

    def cli_seed(self) -> str:
        return str(int(self.rng.integers(1, 2**31 - 1)))


# ---------------------------------------------------------------------------
# Job lists.

def _norms(w: InputWriter) -> list[Job]:
    def norm(path, p, n, k, method="direct", balanced=False):
        argv = ["norm", "--function", path, "--p", str(p), "--n", str(n),
                "--k", str(k), "--method", method]
        if balanced:
            argv.append("--balanced")
        return Job(argv, "norm", {"path": path, "k": k, "method": method,
                                  "balanced": balanced})

    def lift(p, n):
        seed = w.cli_seed()
        return Job(["octahedron", "--check", "lift", "--p", str(p), "--n", str(n),
                    "--seed", seed], "lift", {"p": p, "n": n, "seed": int(seed)})

    def pythagoras(p, n):
        return Job(["verify", "pythagoras", "--p", str(p), "--n", str(n)], "pythagoras",
                   {"p": p, "n": n})

    # (p, n, k, input kind, method).  U^2 at N = 3125 sets the peak RSS through
    # the N x N addition table and U^3 at N = 343 is the slowest direct norm.
    # The two N = 3125 jobs are the second and third slowest, so the tail
    # percentile (inside the third-slowest job's samples) sits on the
    # memory-bound U^2 rather than on an interpreter-bound job, whose latency
    # swings most with the speed of a shared host.  The job count puts the
    # median latency on the U^2 direct jobs at N = 625, which spread 3-7%
    # between runs; the 40-ms octahedral lift just above them spreads 14%.
    plan = ((5, 4, 2, "bounded", "direct"), (5, 4, 2, "bounded", "direct"),
            (5, 4, 2, "quadzero", "direct"), (3, 5, 2, "bounded", "direct"),
            (3, 5, 2, "quadzero", "direct"), (5, 5, 2, "bounded", "direct"),
            (5, 5, 2, "quadzero", "direct"),
            (3, 4, 3, "bounded", "direct"), (5, 3, 3, "bounded", "direct"),
            (5, 3, 3, "bounded", "direct"), (5, 3, 3, "quadzero", "direct"),
            (7, 3, 3, "bounded", "direct"), (3, 3, 4, "bounded", "direct"),
            (5, 5, 2, "bounded", "fast"), (5, 4, 2, "quadzero", "fast"),
            (7, 3, 2, "quadzero", "fast"), (3, 5, 2, "bounded", "fast"),
            (7, 3, 2, "bounded", "fast"))
    jobs = []
    for p, n, k, kind, method in plan:
        if kind == "bounded":
            jobs.append(norm(w.bounded(p, n), p, n, k, method))
        else:
            jobs.append(norm(w.quadzero_image(p, n), p, n, k, method, balanced=True))
    jobs += [lift(3, 2), lift(5, 2), lift(3, 3), pythagoras(5, 2), pythagoras(3, 4)]
    return jobs


def _counts(w: InputWriter) -> list[Job]:
    # (system, p, n, set): the dual side enumerates N^(m - rank) tuples and the
    # direct side N^d assignments, so ap5 favours direct, diff3 and cube7 dual.
    # The job count is odd, so the median latency falls inside one job's
    # samples rather than between two jobs of different cost.
    plan = (("ap3", 5, 4, "quadzero"), ("ap3", 7, 3, "random"),
            ("ap4", 7, 3, "random"), ("ap4", 5, 3, "quadzero"),
            ("ap5", 5, 3, "quadzero"),
            ("diff3", 5, 3, "random"), ("diff3", 7, 2, "quadzero"),
            ("gw6a", 5, 2, "quadzero"), ("gw6a", 7, 2, "random"),
            ("gw6b", 7, 2, "random"), ("gw6b", 5, 2, "quadzero"),
            ("cube7", 3, 3, "quadzero"), ("cube7", 5, 2, "random"))
    jobs = []
    for name, p, n, kind in plan:
        path, _ = w.system(name, BUILTIN_ROWS[name], p)
        set_arg = "quadzero" if kind == "quadzero" else w.random_set(p, n)
        jobs.append(Job(["count", "--system", path, "--set", set_arg,
                         "--p", str(p), "--n", str(n), "--method", "both"],
                        "count"))
    for name, p, n in (("gw6b", 7, 2), ("ap4", 7, 3), ("gw6a", 7, 2), ("ap3", 5, 4)):
        path, _ = w.system(name, BUILTIN_ROWS[name], p)
        jobs.append(Job(["verify", "badex", "--system", path, "--p", str(p),
                         "--n", str(n)], "experiment"))
    return jobs


def _experiments(w: InputWriter) -> list[Job]:
    def verify(exp, p, n, system=None, **opts):
        argv = ["verify", exp, "--p", str(p), "--n", str(n), "--seed", w.cli_seed()]
        if system:
            argv += ["--system", w.system(system, BUILTIN_ROWS[system], p)[0]]
        for key, val in opts.items():
            argv += [f"--{key}", str(val)]
        return Job(argv, "experiment")

    return [
        verify("quadfactor", 5, 3, "gw6b"),
        verify("quadfactor", 5, 2, "gw6b"),
        verify("quadfactor", 7, 3, "ap3"),
        verify("completefactor", 5, 3, "gw6b", d1=1),
        verify("completefactor", 7, 2, "gw6b", d1=2),
        verify("completefactor", 7, 3, "ap3", d1=1),
        verify("atoms", 5, 6, d1=2, d2=2),
        verify("atoms", 7, 4, d1=1, d2=2),
        verify("atoms", 5, 5, d1=0, d2=3),
        verify("atoms", 3, 8, d1=3, d2=2),
        verify("projections", 5, 5, d1=2, d2=2),
        verify("projections", 7, 4, d1=1, d2=1),
        verify("projections", 3, 7, d1=3, d2=2),
        verify("bound1", 5, 3, "gw6b"),
        verify("bound1", 7, 2, "gw6b"),
        verify("bound1", 7, 3, "ap3"),
        verify("gvn", 5, 4, "ap3"),
        verify("gvn", 5, 3, "ap3"),
        verify("gvn", 5, 3, "ap4"),
    ]


def _catalog(w: InputWriter) -> list[Job]:
    jobs = [Job(["list", "--p", "7", "--csv", os.path.join(w.root, "catalog.csv")],
                "list", {"p": 7}),
            Job(["list", "--p", "11"], "list", {"p": 11})]
    systems = []
    for name in ("ap3", "ap4", "ap5", "diff3", "gw6a", "gw6b", "cube7", "nf4"):
        path, C = w.system(name, BUILTIN_ROWS[name], 7)
        systems.append((path, 7, C, False))
    for i, (p, rows) in enumerate(random_structures()):
        path, C = w.system(f"rand{i}", rows, p)
        systems.append((path, p, C, True))
    for path, p, C, is_random in systems:
        info = {"path": path, "p": p}
        jobs.append(Job(["complexity", "--system", path, "--p", str(p)],
                        "complexity", info))
        jobs.append(Job(["independence", "--system", path, "--p", str(p),
                         "--k", "1"], "independence", {**info, "k": 1}))
        if is_random:
            jobs.append(Job(["independence", "--system", path, "--p", str(p),
                             "--k", "2"], "independence", {**info, "k": 2}))
            jobs.append(Job(["normal-form", "--system", path, "--p", str(p),
                             "--s", "2"], "normal_form",
                            {"rows": C.tolist(), "s": 2}))
    for s in (1, 2):
        jobs.append(Job(["normal-form", "--system", "nf4", "--s", str(s)],
                        "normal_form", {"rows": BUILTIN_ROWS["nf4"], "s": s}))
    return jobs


# Per-layer counts that must read 0 on a workload for it to isolate its
# layers; the traced run reports whether they do.
ISOLATION = {
    "norms": ("counting.calls", "counting.direct.assignments", "counting.dual.tuples"),
    "counts": ("functions.uk_norm.ops_est", "functions.uk_norm.calls"),
    "experiments": (),
    "catalog": ("domains.table_bytes", "counting.direct.assignments",
                "counting.dual.tuples", "verification.assignments"),
}

_BUILDERS = {"norms": _norms, "counts": _counts,
             "experiments": _experiments, "catalog": _catalog}
WORKLOADS = tuple(_BUILDERS)


def generate(workload: str, seed: int, root: str) -> list[Job]:
    """Write the workload's inputs under `root` and return its job list."""
    return _BUILDERS[workload](InputWriter(root, np.random.default_rng(seed)))
