"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.

Criterion 1's table gives Cauchy-Schwarz complexity 1 for the six-form
system `gw6b` and the seven-form cube-minus-a-point `cube7`. Both are
1-complex at every index: explicit two-class splits and the relation that
rules out one class are checked against the naive span oracle, without
`cs_complexity`, in
tests/test_systems.py::test_translation_invariant_sixes_are_actually_1_complex.
"""

import time
from fractions import Fraction

import numpy as np

from uniformity_lab.algebra import QuadraticForm
from uniformity_lab.counting import (average_product_direct,
                                     average_product_dual, count_solutions,
                                     dual_op_count)
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, balanced,
                                      l2_norm, random_bounded_function,
                                      u2_norm_fast, uk_norm)
from uniformity_lab.hypergraphs import lift, octahedral_norm, \
    vertex_uniformity_counterexample
from uniformity_lab.systems import (LinearFormSystem, builtin_system,
                                    cs_complexity, normal_form_check,
                                    power_independence)
from uniformity_lab.verification import (atom_distribution, gauss_sum,
                                         quadratic_zero_set, random_factor,
                                         verify_gvn, verify_projection_lemmas,
                                         verify_pythagoras)

import oracles


def verdict(num, slug, ok, detail=""):
    print(f"ACCEPTANCE {num:2d} {slug}: {'PASS' if ok else 'FAIL'}"
          f"{'  ' + detail if detail else ''}")
    return ok


def test_01_complexity_table():
    expected = {"diff3": 1, "ap4": 2, "gw6a": 2, "gw6b": 1, "cube7": 1, "ap5": 3}
    t0 = time.time()
    actual = {name: cs_complexity(builtin_system(name, 7)) for name in expected}
    elapsed = time.time() - t0
    mismatches = {n: (actual[n], expected[n]) for n in expected
                  if actual[n] != expected[n]}
    ok = not mismatches and elapsed < 1.0
    verdict(1, "complexity-table", ok,
            f"actual={actual} elapsed={elapsed:.2f}s"
            + (f" mismatches={mismatches}" if mismatches else ""))
    assert elapsed < 1.0
    assert not mismatches, (
        f"complexity table mismatch (actual, expected): {mismatches}; the "
        "gw6b and cube7 entries rest on the witness splits in tests/"
        "test_systems.py::test_translation_invariant_sixes_are_actually_1_complex")


def test_02_square_independence():
    t0 = time.time()
    checks = {
        ("ap4", 5): False, ("ap4", 7): False,
        ("gw6a", 7): True,  # at p=5 the squares obey an integer identity with content 5
        ("gw6b", 5): True, ("gw6b", 7): True,
        ("cube7", 5): True, ("cube7", 7): True,
    }
    results = {key: power_independence(builtin_system(key[0], key[1]), 1)
               for key in checks}
    elapsed = time.time() - t0
    ok = results == checks and elapsed < 1.0
    verdict(2, "square-independence", ok, f"{results} elapsed={elapsed:.2f}s")
    assert results == checks and elapsed < 1.0


def test_03_normal_form():
    ok_nf4 = normal_form_check(builtin_system("nf4", 7), 2) is not None
    ok_ap4 = normal_form_check(builtin_system("ap4", 7), 2) is None
    ok = ok_nf4 and ok_ap4
    verdict(3, "normal-form", ok, f"nf4_witness={ok_nf4} ap4_absent={ok_ap4}")
    assert ok


def test_04_gauss_equality():
    worst = 0.0
    for p, n in [(3, 2), (5, 1), (5, 2), (7, 2)]:
        q = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64),
                          b=np.zeros(n, dtype=np.int64))
        worst = max(worst, abs(abs(gauss_sum(q)) - p ** (-n / 2)))
    ok = worst <= 1e-10
    verdict(4, "gauss-equality", ok, f"worst={worst:.3g}")
    assert ok


def test_05_zero_set_dichotomy_desk_scale():
    t0 = time.time()
    # (a) six-form system at p=5: direct count at n=3, 5^(-3/2) allowance,
    #     with the frequency-side evaluation as cross-check
    A3 = quadratic_zero_set(5, 3)
    sys_a = builtin_system("gw6a", 5)
    count, _ = count_solutions(sys_a, A3)
    P = Fraction(count, 5**9)
    dev_a = abs(float(P) - 5.0**-6)
    ok_a = dev_a <= 5.0**-1.5
    fA = A3.to_function()
    direct = average_product_direct(sys_a, [fA] * 6)
    dual = average_product_dual(sys_a, [fA] * 6)
    ok_dual = abs(direct - dual) <= 1e-8 and abs(direct - float(P)) <= 1e-12

    # (b) the four-term progression system overshoots at n=4
    A4 = quadratic_zero_set(5, 4)
    sys_b = builtin_system("ap4", 5)
    count_b, _ = count_solutions(sys_b, A4)
    P_b = Fraction(count_b, 5**8)
    alpha = A4.density
    ok_b = P_b >= Fraction(3, 2) * alpha**4
    elapsed = time.time() - t0
    ok = ok_a and ok_dual and ok_b
    verdict(5, "zero-set-dichotomy", ok,
            f"|P-5^-6|={dev_a:.3g}<=5^-1.5 dual_gap={abs(direct-dual):.2g} "
            f"overshoot={float(P_b / alpha**4):.2f}x elapsed={elapsed:.1f}s")
    assert ok


def _random_system(rng):
    while True:
        p = int(rng.choice([3, 5]))
        d = int(rng.integers(2, 4))
        m = int(rng.integers(2, min(d + 2, 5) + 1))
        rows, seen = [], set()
        tries = 0
        while len(rows) < m and tries < 50:
            tries += 1
            r = tuple(int(v) for v in rng.integers(0, p, size=d))
            if any(r) and r not in seen:
                seen.add(r)
                rows.append(list(r))
        if len(rows) < m:
            continue
        sys_ = LinearFormSystem(p=p, d=d, coeffs=np.array(rows))
        n = int(rng.integers(1, 4))
        if sys_.p**(n * sys_.d) <= 4_000_000 and \
                dual_op_count(sys_, domain(sys_.p, n)) <= 4_000_000:
            return sys_, n


def test_06_oracle_equivalence_direct_vs_dual():
    rng = np.random.default_rng(606)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        sys_, n = _random_system(rng)
        dom = domain(sys_.p, n)
        fs = [GroupFunction(domain=dom,
                            values=rng.uniform(-1, 1, dom.size) +
                            1j * rng.uniform(-1, 1, dom.size))
              for _ in range(sys_.m)]
        gap = abs(average_product_direct(sys_, fs) -
                  average_product_dual(sys_, fs))
        worst = max(worst, gap)
    elapsed = time.time() - t0
    ok = worst <= 1e-8
    verdict(6, "direct-vs-dual", ok,
            f"50 instances worst_gap={worst:.2g} elapsed={elapsed:.1f}s")
    assert ok


def test_07_u2_identity_suite():
    rng = np.random.default_rng(707)
    t0 = time.time()
    worst_id = 0.0
    mono_ok = True
    for i in range(100):
        dom = domain(3, 2) if i < 60 else domain(5, 2)
        f = GroupFunction(domain=dom,
                          values=rng.uniform(-1, 1, dom.size) +
                          1j * rng.uniform(-1, 1, dom.size))
        direct = uk_norm(f, 2)
        fast = u2_norm_fast(f)
        conv4 = l2_norm(oracles.convolve(f, f)) ** 2
        worst_id = max(worst_id, abs(direct - fast),
                       abs(direct**4 - conv4), abs(fast**4 - conv4))
        mono_ok &= direct <= uk_norm(f, 3) + 1e-9
    elapsed = time.time() - t0
    ok = worst_id <= 1e-9 and mono_ok
    verdict(7, "u2-identity-suite", ok,
            f"worst={worst_id:.2g} monotone={mono_ok} elapsed={elapsed:.1f}s")
    assert ok


def test_08_gvn_property_suite():
    rng = np.random.default_rng(808)
    t0 = time.time()
    dom = domain(5, 2)
    failures = 0
    for name, k in [("diff3", 1), ("ap3", 1), ("gw6a", 2)]:
        sys_ = builtin_system(name, 5)
        for _ in range(200):
            fs = [random_bounded_function(dom, rng) for _ in range(sys_.m)]
            failures += not verify_gvn(sys_, fs, k).passed
    elapsed = time.time() - t0
    ok = failures == 0
    verdict(8, "gvn-property-suite", ok,
            f"600 instances failures={failures} elapsed={elapsed:.1f}s")
    assert ok


def test_09_projection_lemmas():
    rng = np.random.default_rng(909)
    t0 = time.time()
    worst_pyth = 0.0
    all_ok = True
    for _ in range(50):
        p = int(rng.choice([3, 5]))
        n = int(rng.integers(2, 4))
        d1 = int(rng.integers(0, min(2, n) + 1))
        d2 = int(rng.integers(0, 2))
        factor = random_factor(p, n, d1, d2, rng)
        f = random_bounded_function(domain(p, n), rng)
        rep = verify_projection_lemmas(f, factor)
        all_ok &= rep.passed
        obs = rep.observed
        worst_pyth = max(worst_pyth, abs(obs["u2_f"]**4 -
                                         obs["u2_projection"]**4 -
                                         obs["u2_remainder"]**4))
    elapsed = time.time() - t0
    ok = all_ok and worst_pyth <= 1e-9
    verdict(9, "projection-lemmas", ok,
            f"50 instances worst_pythagoras_gap={worst_pyth:.2g} "
            f"elapsed={elapsed:.1f}s")
    assert ok


def test_10_atom_equidistribution():
    rng = np.random.default_rng(1010)
    t0 = time.time()
    all_ok = True
    for _ in range(20):
        n = int(rng.integers(2, 6))
        d1 = int(rng.integers(0, min(2, n) + 1))
        d2 = int(rng.integers(1, 3))
        factor = random_factor(5, n, d1, d2, rng)
        rep = atom_distribution(factor)
        all_ok &= rep.passed
    elapsed = time.time() - t0
    verdict(10, "atom-equidistribution", all_ok,
            f"20 factors elapsed={elapsed:.1f}s")
    assert all_ok


def test_11_pythagoras_demo():
    t0 = time.time()
    f = balanced(quadratic_zero_set(5, 3)).scaled(0.5)
    rep = verify_pythagoras(f, 0.5)
    gap = rep.observed["gap"]
    c = rep.observed["u2_norm"]
    elapsed = time.time() - t0
    ok = rep.passed and gap <= 24 * c
    verdict(11, "u3-pythagoras", ok,
            f"gap={gap:.3g} 24c={24 * c:.3g} elapsed={elapsed:.1f}s")
    assert ok


def test_12_hypergraph_checks():
    t0 = time.time()
    devs = []
    for seed in range(1, 6):
        rep = vertex_uniformity_counterexample(seed, 64)
        devs.append(abs(rep.observed["double_edge_average"] - 5 / 18))
    seeds_ok = max(devs) <= 0.02

    rng = np.random.default_rng(1212)
    dom = domain(3, 2)
    worst_lift = 0.0
    for _ in range(20):
        g = random_bounded_function(dom, rng)
        worst_lift = max(worst_lift,
                         abs(octahedral_norm(lift(g)) - uk_norm(g, 3)))
    elapsed = time.time() - t0
    ok = seeds_ok and worst_lift <= 1e-9 and elapsed < 60
    verdict(12, "hypergraph-checks", ok,
            f"worst_5/18_dev={max(devs):.4f} lift_gap={worst_lift:.2g} "
            f"elapsed={elapsed:.1f}s")
    assert ok
