"""Answer checks, run outside the timed region.

Each check takes the job, its parsed report and a generator (for the seeded
changes of variables) and returns a list of problems
(empty means the answer is right).  Floats are compared at 1e-9 relative,
never byte for byte, so that a different but exact-in-theory algorithm is not
a failure.  The checks call only the package's public API, or numpy alone.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product

import numpy as np

from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet, balanced,
                                      load_function, random_bounded_function,
                                      u2_norm_fast)
from uniformity_lab.reports import validate_report
from uniformity_lab.systems import (LinearFormSystem, cs_complexity,
                                    power_independence, relation_space,
                                    resolve_system)
from uniformity_lab.verification import quadratic_zero_set

from workloads import change_variables, random_gl

REL_TOL = 1e-9


def close(a: float, b: float, rel: float = REL_TOL) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + 1e-15


def _function_from_file(path: str, use_balanced: bool) -> GroupFunction:
    obj = load_function(path)
    if isinstance(obj, IndicatorSet):
        return balanced(obj) if use_balanced else obj.to_function()
    return obj


def uk_power_by_derivatives(f: GroupFunction, k: int) -> float:
    """||f||_{U^k}^(2^k) = E_{h_1..h_(k-2)} ||Delta_h f||_{U^2}^4, with
    Delta_h f(x) = f(x + h) conj(f(x)) and the U^2 norms from u2_norm_fast."""
    dom = f.domain
    shape = (dom.p,) * dom.n
    base = f.values.reshape(shape)
    shifts = list(product(range(dom.p), repeat=dom.n))
    total = 0.0
    for hs in product(shifts, repeat=k - 2):
        g = base
        for h in hs:
            g = np.roll(g, [-c for c in h], axis=tuple(range(dom.n))) * np.conj(g)
        total += u2_norm_fast(GroupFunction(domain=dom, values=g.reshape(-1))) ** 4
    return total / len(shifts) ** (k - 2)


def u2_by_numpy_fft(f: GroupFunction) -> float:
    dom = f.domain
    fh = np.fft.fftn(f.values.reshape((dom.p,) * dom.n)) / dom.size
    return float((np.abs(fh) ** 4).sum() ** 0.25)


def _result(report: dict, name: str) -> dict:
    return next(r for r in report["results"] if r.get("name") == name)


def check_norm(job, report, rng) -> list[str]:
    info = job.info
    rec = report["results"][0]
    f = _function_from_file(info["path"], info["balanced"])
    k = info["k"]
    if info["method"] == "fast":
        want = u2_by_numpy_fft(f)
    elif k == 2:
        want = u2_norm_fast(f)
    else:
        want = uk_power_by_derivatives(f, k) ** (1.0 / 2**k)
    if not close(rec["value"], want):
        return [f"U^{k} = {rec['value']!r}, independent value {want!r}"]
    return []


def check_lift(job, report, rng) -> list[str]:
    p, n, seed = (job.info[key] for key in ("p", "n", "seed"))
    rec = _result(report, "lift_identity")
    g = random_bounded_function(domain(p, n), np.random.default_rng(seed))
    want = uk_power_by_derivatives(g, 3) ** 0.125
    problems = []
    for key in ("octahedral", "u3"):
        if not close(rec[key], want):
            problems.append(f"{key} = {rec[key]!r}, U^3 by derivatives {want!r}")
    return problems


def check_pythagoras(job, report, rng) -> list[str]:
    p, n = job.info["p"], job.info["n"]
    obs = _result(report, "pythagoras")["observed"]
    f = balanced(quadratic_zero_set(p, n)).scaled(0.5)
    lhs = uk_power_by_derivatives(f.shifted(0.5), 3)
    rhs = 0.5**8 + uk_power_by_derivatives(f, 3)
    problems = []
    if not close(obs["lhs_power"], lhs):
        problems.append(f"lhs_power {obs['lhs_power']!r} vs {lhs!r}")
    if not close(obs["rhs_power"], rhs):
        problems.append(f"rhs_power {obs['rhs_power']!r} vs {rhs!r}")
    return problems


def check_count(job, report, rng) -> list[str]:
    byname = {r["name"]: r for r in report["results"]}
    direct = complex(byname["average_direct"]["value"]["re"],
                     byname["average_direct"]["value"]["im"])
    dual = complex(byname["average_dual"]["value"]["re"],
                   byname["average_dual"]["value"]["im"])
    gap = byname["direct_vs_dual"]
    problems = []
    if not (gap["passed"] and abs(direct - dual) <= gap["tolerance"]):
        problems.append(f"direct {direct!r} and dual {dual!r} disagree")
    exact = float(Fraction(byname["solution_probability"]["observed_exact"]))
    if not (close(exact, direct.real) and abs(direct.imag) <= 1e-12):
        problems.append(f"exact probability {exact!r} vs direct average {direct!r}")
    return problems


def _system_invariants(sys_: LinearFormSystem) -> tuple:
    cs = cs_complexity(sys_)
    return (None if cs == float("inf") else int(cs), power_independence(sys_, 1),
            relation_space(sys_).dim)


def _moved(sys_: LinearFormSystem, rng: np.random.Generator) -> LinearFormSystem:
    T = random_gl(sys_.d, sys_.p, rng)
    return LinearFormSystem(p=sys_.p, d=sys_.d,
                            coeffs=change_variables(sys_.coeffs, sys_.p, T))


def check_list(job, report, rng) -> list[str]:
    problems = []
    for rec in report["results"]:
        sys_ = resolve_system(rec["name"], job.info["p"])
        cs, sq, _ = _system_invariants(_moved(sys_, rng))
        if (rec["cs_complexity"], rec["square_independent"]) != (cs, sq):
            problems.append(f"{rec['name']}: reported {rec['cs_complexity']}, "
                            f"{rec['square_independent']}; moved system {cs}, {sq}")
    return problems


def check_complexity(job, report, rng) -> list[str]:
    sys_ = resolve_system(job.info["path"], job.info["p"])
    moved = _moved(sys_, rng)
    cs, _, dim = _system_invariants(moved)
    problems = []
    if report["results"][0]["value"] != cs:
        problems.append(f"cs_complexity {report['results'][0]['value']} but "
                        f"{cs} after a change of variables")
    if relation_space(sys_).dim != dim:
        problems.append("relation-space dimension changed under a change of variables")
    return problems


def check_independence(job, report, rng) -> list[str]:
    sys_ = resolve_system(job.info["path"], job.info["p"])
    want = power_independence(_moved(sys_, rng), job.info["k"])
    got = report["results"][0]["value"]
    return [] if got == want else [f"power independence {got}, moved system {want}"]


def check_normal_form(job, report, rng) -> list[str]:
    rows, s = job.info["rows"], job.info["s"]
    supports = [frozenset(i for i, c in enumerate(r) if c) for r in rows]

    def fingerprints(i):
        return [frozenset(t) for size in range(1, s + 2)
                for t in combinations(sorted(supports[i]), size)
                if all(j == i or not set(t) <= supports[j] for j in range(len(rows)))]

    exists = all(fingerprints(i) for i in range(len(rows)))
    witness = report["results"][0]["witness"]
    if witness is None:
        return [] if not exists else ["a normal-form witness exists but none was reported"]
    if not exists:
        return ["witness reported for a system with none"]
    if any(frozenset(t) not in fingerprints(i) for i, t in enumerate(witness)):
        return [f"invalid witness {witness}"]
    return []


CHECKS = {"norm": check_norm, "lift": check_lift, "pythagoras": check_pythagoras,
          "count": check_count, "list": check_list, "complexity": check_complexity,
          "independence": check_independence, "normal_form": check_normal_form,
          "experiment": lambda job, report, rng: []}


def check(job, report: dict, rng: np.random.Generator) -> list[str]:
    """All problems with the answer of a job that exited 0; `rng` draws the
    changes of variables of the metamorphic checks."""
    problems = [f"report: {p}" for p in validate_report(report)]
    if not report.get("passed", False):
        problems.append("report says passed = false")
    return problems + CHECKS[job.check](job, report, rng)
