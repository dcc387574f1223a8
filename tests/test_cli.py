import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from uniformity_lab import (algebra, cli, counting, functions, hypergraphs,
                            systems, verification)
from uniformity_lab.cli import main
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet, balanced,
                                      save_function, uk_norm)
from uniformity_lab.reports import validate_report
from uniformity_lab.systems import BUILTIN_SYSTEM_NAMES, builtin_system
from uniformity_lab.verification import quadratic_zero_set

import oracles


def run(args, tmp_path=None, out_name="report.json"):
    """Invoke the CLI in-process; returns (exit_code, report_dict, out_path)."""
    out = str(tmp_path / out_name) if tmp_path is not None else None
    argv = list(args) + (["--out", out] if out else [])
    code = main(argv)
    report = None
    if out:
        with open(out, "r", encoding="utf-8") as fh:
            report = json.load(fh)
    return code, report, out


def test_complexity_command(tmp_path, capsys):
    code, report, _ = run(["complexity", "--system", "ap4"], tmp_path)
    assert code == 0
    assert capsys.readouterr().out.strip() == "2"
    assert report["results"][0]["value"] == 2
    assert validate_report(report) == []


def test_complexity_infinite(tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps({"p": 5, "d": 1, "forms": [[1], [2]]}))
    code, report, _ = run(["complexity", "--system", str(path), "--p", "5"],
                          tmp_path)
    assert code == 0
    assert report["results"][0]["infinite"] is True


def test_verify_gauss_command(tmp_path):
    code, report, _ = run(["verify", "gauss", "--p", "5", "--n", "2"], tmp_path)
    assert code == 0
    gauss = next(r for r in report["results"] if r["name"] == "gauss")
    assert abs(gauss["observed"]["modulus"] - 0.2) < 1e-10
    assert gauss["passed"] and report["passed"]
    assert validate_report(report) == []


def test_count_both_methods_agree(tmp_path, capsys):
    code, report, _ = run(["count", "--system", "gw6a", "--set", "quadzero",
                           "--p", "5", "--n", "2", "--method", "both"], tmp_path)
    assert code == 0
    byname = {r["name"]: r for r in report["results"]}
    assert byname["direct_vs_dual"]["passed"] is True
    assert byname["direct_vs_dual"]["gap"] <= 1e-8
    assert "solution_probability" in byname
    assert validate_report(report) == []


def test_count_accepts_function_files(tmp_path):
    dom = domain(3, 2)
    f = balanced(quadratic_zero_set(3, 2))
    path = tmp_path / "f.json"
    save_function(f, str(path))
    code, report, _ = run(["count", "--system", "ap3", "--set", str(path),
                           "--p", "3", "--n", "2", "--method", "both"], tmp_path)
    assert code == 0


def test_list_csv_export(tmp_path):
    csv_path = tmp_path / "catalog.csv"
    code, report, _ = run(["list", "--csv", str(csv_path)], tmp_path)
    assert code == 0
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0].split(",")[0] == "name"
    assert len(lines) == 1 + len(report["results"])
    gw6a = next(l for l in lines if l.startswith("gw6a"))
    assert gw6a.split(",")[3] == "2"


def test_list_command(tmp_path, capsys):
    code, report, _ = run(["list"], tmp_path)
    assert code == 0
    text = capsys.readouterr().out
    rows = {r["name"]: r for r in report["results"]}
    assert rows["gw6a"]["cs_complexity"] == 2
    assert rows["gw6a"]["square_independent"] is True
    assert rows["gw6a"]["conjectured_true_complexity"] == 1
    assert rows["ap5"]["cs_complexity"] == 3
    assert rows["diff3"]["cs_complexity"] == 1
    assert "gw6a" in text
    assert validate_report(report) == []


def test_norm_command_matches_library(tmp_path, capsys):
    code, report, _ = run(["norm", "--set", "quadzero", "--balanced",
                           "--p", "5", "--n", "2", "--k", "2"], tmp_path)
    assert code == 0
    rec = report["results"][0]
    f = balanced(quadratic_zero_set(5, 2))
    assert abs(rec["value"] - uk_norm(f, 2)) < 1e-12
    assert rec["norm"] == "U2" and rec["method"] == "direct"
    assert rec["domain"] == {"p": 5, "n": 2}


def test_norm_fast_command_any_degree(tmp_path, capsys):
    code, report, _ = run(["norm", "--set", "quadzero", "--balanced",
                           "--p", "5", "--n", "2", "--k", "3",
                           "--method", "fast"], tmp_path)
    assert code == 0
    rec = report["results"][0]
    f = balanced(quadratic_zero_set(5, 2))
    assert abs(rec["value"] - uk_norm(f, 3)) < 1e-12
    assert rec["norm"] == "U3" and rec["method"] == "fourier"
    assert validate_report(report) == []
    code, _, _ = run(["norm", "--set", "quadzero", "--p", "5", "--n", "2",
                      "--k", "3", "--method", "fast", "--budget", "10"])
    assert code == 3


def test_normal_form_command(tmp_path, capsys):
    code, report, _ = run(["normal-form", "--system", "nf4", "--s", "2"], tmp_path)
    assert code == 0
    assert report["results"][0]["witness"] is not None
    code, report, _ = run(["normal-form", "--system", "ap4", "--s", "2"],
                          tmp_path, "r2.json")
    assert code == 0
    assert report["results"][0]["witness"] is None


def test_independence_command(tmp_path, monkeypatch, capsys):
    code, report, _ = run(["independence", "--system", "gw6b", "--p", "5"],
                          tmp_path)
    assert code == 0
    assert report["results"][0]["value"] is True
    # the answer is read off the true-complexity search: no order is tested
    # twice, and the value is that of a direct test at k
    direct = systems.power_independence
    tested = []

    def spy(sys_, k):
        tested.append(k)
        return direct(sys_, k)

    monkeypatch.setattr(systems, "power_independence", spy)
    monkeypatch.setattr(cli, "power_independence", spy)
    for name in BUILTIN_SYSTEM_NAMES:
        for p in (5, 7, 11):
            sys_ = builtin_system(name, p)
            for k in (1, 2, 3):
                tested.clear()
                code, report, _ = run(["independence", "--system", name,
                                       "--p", str(p), "--k", str(k)], tmp_path)
                assert code == 0 and len(tested) == len(set(tested)), (name, p, k)
                assert report["results"][0]["value"] is direct(sys_, k), (name, p, k)
    capsys.readouterr()
    assert main(["independence", "--system", "ap3", "--k", "0"]) == 2
    assert "k must be >= 1" in capsys.readouterr().err
    assert main(["independence", "--system", "ap3", "--p", "5", "--k", "4"]) == 2
    assert "p=5 too small for power k+1=5" in capsys.readouterr().err


def test_octahedron_commands(tmp_path):
    code, report, _ = run(["octahedron", "--check", "lift", "--p", "3",
                           "--n", "2", "--seed", "2"], tmp_path)
    assert code == 0 and report["results"][0]["gap"] <= 1e-9
    code, report, _ = run(["octahedron", "--check", "counterexample",
                           "--size", "64", "--seed", "1"], tmp_path, "r2.json")
    assert code == 0 and report["passed"]
    assert validate_report(report) == []


def test_verify_all_battery(tmp_path):
    code, report, _ = run(["verify", "all", "--p", "5", "--n", "2",
                           "--seed", "3"], tmp_path)
    assert code == 0 and report["passed"]
    names = [r["name"] for r in report["results"]]
    for expected in ("gauss", "badex", "gvn", "atoms", "quadfactor",
                     "completefactor", "projections", "bound1", "pythagoras"):
        assert expected in names
    assert validate_report(report) == []


def test_exit_code_config_error(tmp_path, capsys):
    assert main(["complexity", "--system", "nosuch"]) == 2
    assert main(["count", "--system", "ap3", "--p", "4", "--set", "quadzero"]) == 2
    assert main(["norm", "--p", "5", "--n", "2"]) == 2  # no function given
    # options only `count` (--tolerance) or `count`/`verify` (--threads) read
    for argv in (["norm", "--set", "quadzero", "--tolerance", "1e-3"],
                 ["norm", "--set", "quadzero", "--threads", "2"],
                 ["octahedron", "--check", "lift", "--threads", "2"],
                 ["verify", "gauss", "--tolerance", "1e-3"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    # input files that are no JSON object, or hold a null p, n or d
    for name, text in (("list.json", "[1, 2]"),
                       ("null_p.json", '{"p": null, "n": 1, "mode": "indicator", '
                                       '"members": []}'),
                       ("null_n.json", '{"p": 5, "n": null, "mode": "indicator", '
                                       '"members": []}'),
                       ("null_d.json", '{"p": 5, "d": null, "forms": [[1]]}')):
        path = tmp_path / name
        path.write_text(text)
        argvs = [["norm", "--function", str(path)],
                 ["count", "--system", "ap3", "--set", str(path)],
                 ["complexity", "--system", str(path)]]
        for argv in argvs:
            capsys.readouterr()
            assert main(argv) == 2, argv
            assert name in capsys.readouterr().err, argv


@pytest.mark.parametrize("argv", [
    ["verify", "atoms", "--d2", "-1"],
    ["verify", "projections", "--d1", "-1"],
    ["verify", "all", "--d2", "-1"],
    ["octahedron", "--check", "counterexample", "--size", "0"],
    ["count", "--system", "ap3", "--set", "quadzero", "--threads", "0"],
    ["verify", "gvn", "--threads", "-2"],
    ["verify", "atoms", "--d1", "one"],
])
def test_out_of_range_integer_options_are_refused_at_parse_time(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --" in err
    assert ("must be at least" in err) != ("invalid int value" in err)


@pytest.mark.parametrize("value", ["-1", "-1e-9", "nan", "inf", "-inf", "tiny"])
def test_tolerance_outside_finite_nonnegative_floats_is_refused(value, capsys):
    """A negative or NaN tolerance would fail an agreeing pair, and NaN or
    infinity would be written into the report as no JSON number."""
    argv = ["count", "--system", "ap3", "--set", "quadzero", "--p", "5",
            "--n", "2", f"--tolerance={value}"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "error: argument --tolerance" in err
    assert ("must be a finite number >= 0" in err) != ("invalid float value" in err)


def test_tolerance_zero_and_positive_are_accepted():
    parser = cli.build_parser("count")
    for value in ("0", "1e-9", "2.5"):
        args = parser.parse_args(["count", "--system", "ap3", "--tolerance", value])
        assert args.tolerance == float(value)


def test_exit_code_budget_refusal(tmp_path, capsys):
    code = main(["count", "--system", "cube7", "--set", "quadzero",
                 "--p", "5", "--n", "2", "--budget", "100"])
    assert code == 3


def test_verify_gauss_refuses_over_budget_before_building(capsys):
    assert main(["verify", "gauss", "--p", "3", "--n", "14", "--budget", "1000"]) == 3
    assert "Gauss sum over 3^14 points" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["norm", "--set", "quadzero", "--balanced"],
    ["norm", "--set", "quadzero", "--method", "fast", "--k", "3"],
    ["count", "--system", "ap3", "--set", "quadzero", "--method", "both"],
    ["count", "--system", "ap3", "--set", "quadzero", "--method", "all"],
])
def test_quadzero_refuses_over_budget_before_building(argv, monkeypatch, capsys):
    def refuse_to_build(p, n):
        raise AssertionError("quadzero set built before the budget check")

    monkeypatch.setattr(cli, "quadratic_zero_set", refuse_to_build)
    assert main(argv + ["--p", "3", "--n", "16", "--budget", "1000"]) == 3
    assert "quadzero" in capsys.readouterr().err


def test_badex_refuses_over_budget_before_building(monkeypatch, capsys):
    # gw6a at p = 7, n = 2 enumerates (6 * 49^3 operations, below the closed
    # form's estimate), so the refusal must come before any table is built
    def refuse_to_build(*args):
        raise AssertionError("table built before the budget check")

    monkeypatch.setattr(verification, "quadratic_zero_set", refuse_to_build)
    monkeypatch.setattr(verification.QuadraticFactor, "atom_codes", refuse_to_build)
    assert main(["verify", "badex", "--system", "gw6a", "--p", "7", "--n", "2",
                 "--budget", "1000"]) == 3
    assert "49^3 assignments" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["gauss", "atoms", "projections"])
def test_verify_refuses_over_budget_before_building(experiment, monkeypatch, capsys):
    def refuse_to_build(*args):
        raise AssertionError("table built before the budget check")

    for name in ("_form_values", "u2_norm_fast"):
        monkeypatch.setattr(verification, name, refuse_to_build)
    for name in ("atom_codes", "linear_codes"):
        monkeypatch.setattr(verification.QuadraticFactor, name, refuse_to_build)
    assert main(["verify", experiment, "--p", "3", "--n", "6", "--budget", "10"]) == 3
    assert "budget refusal" in capsys.readouterr().err


def test_pythagoras_refuses_over_budget_before_building(monkeypatch, capsys):
    # the fast U^3 norms at p = 3, n = 13 price 3^26 * (3 * 13 + 4) operations
    def refuse_to_build(p, n):
        raise AssertionError("quadzero set built before the budget check")

    monkeypatch.setattr(cli, "quadratic_zero_set", refuse_to_build)
    assert main(["verify", "pythagoras", "--p", "3", "--n", "13"]) == 3
    assert "fast U^3 norm on size 1594323" in capsys.readouterr().err


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4)])
def test_lift_refuses_over_budget_before_building(p, n, monkeypatch, capsys):
    # the octahedral norm of the N x N x N lift prices N^6 operations
    def refuse_to_build(g):
        raise AssertionError("lift built before the budget check")

    monkeypatch.setattr(cli, "lift", refuse_to_build)
    assert main(["octahedron", "--check", "lift", "--p", str(p), "--n", str(n)]) == 3
    err = capsys.readouterr().err
    assert f"operation count {p ** (6 * n)} for octahedral norm" in err


def test_counterexample_refuses_over_budget_before_drawing(tmp_path, monkeypatch,
                                                           capsys):
    # the counterexample prices its n_x^2 table of signs
    def refuse_to_draw(n_x, rng):
        raise AssertionError("sign function drawn before the budget check")

    argv = ["octahedron", "--check", "counterexample", "--size", "300", "--budget"]
    with monkeypatch.context() as patch:
        patch.setattr(hypergraphs, "symmetric_sign_function", refuse_to_draw)
        assert main(argv + ["89999"]) == 3
    assert "counterexample on 300 vertices" in capsys.readouterr().err
    assert main(argv + ["90000", "--out", str(tmp_path / "c.json")]) == 0


def test_each_job_derives_a_systems_invariants_once(monkeypatch, capsys):
    """Per job, the relation basis (the nullspace of C^T) is computed once
    and rref(C) at most once, whichever module asks for them."""
    calls = {"nullspace": 0, "rref": 0}
    C = None
    originals = {"nullspace": algebra.nullspace, "rref": algebra.rref}

    def spy(name, target):
        def wrapped(M, p):
            A = np.asarray(M)
            if A.shape == target().shape and np.array_equal(A % p, target()):
                calls[name] += 1
            return originals[name](M, p)
        return wrapped

    for module in (algebra, systems, counting, verification):
        monkeypatch.setattr(module, "nullspace", spy("nullspace", lambda: C.T),
                            raising=False)
        monkeypatch.setattr(module, "rref", spy("rref", lambda: C), raising=False)
    for system, argv in (("ap3", ["verify", "gvn"]),
                         ("gw6b", ["verify", "completefactor"]),
                         ("diff3", ["count", "--set", "quadzero", "--method", "both"])):
        C = builtin_system(system, 5).coeffs
        calls.update(nullspace=0, rref=0)
        assert main(argv + ["--system", system, "--p", "5", "--n", "3"]) == 0
        assert calls["nullspace"] == 1 and calls["rref"] <= 1, (argv, calls)


def test_verify_gvn_takes_its_k_from_one_subset_rank_table(monkeypatch, capsys):
    """Without --k, gvn runs at the system's partition complexity, found by
    the one table build its precondition check makes: the system's
    `subset_ranks`, the rank table of its pivot cut."""
    table = systems._rank_table
    calls = []

    def spy(C, p):
        calls.append(np.asarray(C).tolist())
        return table(C, p)

    monkeypatch.setattr(systems, "_rank_table", spy)
    assert main(["verify", "gvn", "--system", "ap3", "--p", "5", "--n", "2"]) == 0
    assert calls == [builtin_system("ap3", 5).cut.tolist()]
    assert "gvn: pass" in capsys.readouterr().out


def test_verify_gvn_refuses_an_infinite_complexity(tmp_path, capsys):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps({"p": 5, "d": 2, "forms": [[1, 0], [2, 0], [0, 1]]}))
    assert main(["verify", "gvn", "--system", str(path), "--p", "5", "--n", "2"]) == 2
    assert "infinite partition complexity" in capsys.readouterr().err
    assert main(["verify", "gvn", "--system", str(path), "--p", "5", "--n", "2",
                 "--k", "2"]) == 2
    assert "need <= 2" in capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["atoms", "completefactor", "projections"])
def test_d1_above_n_is_a_config_error(experiment, capsys):
    assert main(["verify", experiment, "--d1", "5", "--p", "5", "--n", "2"]) == 2
    assert "d1 cannot exceed n" in capsys.readouterr().err


def test_power_matrix_over_budget_is_refused_before_it_is_built(
        tmp_path, monkeypatch, capsys):
    """Three forms in 10 variables, two of them parallel, so that no order
    is independent: under a budget of 1000 the squares (3 x 55, priced
    3 * 55 * 5 = 825) are built and the cubes (3 x 220) are refused."""
    path = tmp_path / "wide.json"
    forms = [[1, 2, 0, 3, 0, 1, 0, 0, 4, 1], [2, 4, 0, 6, 0, 2, 0, 0, 8, 2],
             [0, 1, 1, 0, 1, 0, 1, 1, 0, 0]]
    path.write_text(json.dumps({"p": 13, "d": 10, "forms": forms}))
    orders = []
    monomials = systems.combinations_with_replacement

    def spy(items, r):
        orders.append(r)
        return monomials(items, r)

    monkeypatch.setattr(systems, "combinations_with_replacement", spy)
    monkeypatch.setenv("UNIFORMITY_LAB_BUDGET", "1000")
    assert main(["independence", "--system", str(path), "--p", "13"]) == 3
    assert "order-3 power matrix of 3 x 220" in capsys.readouterr().err
    assert orders == [2]


# cube7 at p = 7 (0.3 s of closed form) is left to the library test
CHEAP_ALL_CASES = [(name, p, 1) for p in (5, 7) for name in BUILTIN_SYSTEM_NAMES
                   if (name, p) != ("cube7", 7)] + \
    [("ap3", 5, 3), ("gw6b", 5, 2), ("diff3", 7, 2), ("ap4", 7, 2)]


def test_count_all_methods_agree_exactly(tmp_path, capsys):
    """The built-in systems at p = 5, 7 through `--method all` at n = 1 (the
    library test covers n <= 3), and a few larger cases."""
    for name, p, n in CHEAP_ALL_CASES:
        code, report, _ = run(["count", "--system", name, "--set", "quadzero",
                               "--p", str(p), "--n", str(n), "--method", "all"],
                              tmp_path)
        assert code == 0, (name, n)
        byname = {r["name"]: r for r in report["results"]}
        assert [r["name"] for r in report["results"]] == [
            "solution_probability", "average_direct", "average_dual",
            "direct_vs_dual", "solution_probability_gauss", "gauss_vs_direct"]
        direct, gauss = byname["solution_probability"], byname["solution_probability_gauss"]
        assert gauss["method"] == "gauss" and byname["gauss_vs_direct"]["passed"]
        for key in ("observed", "observed_exact", "reference", "reference_exact",
                    "deviation"):
            assert gauss[key] == direct[key], (name, n, key)
        assert validate_report(report) == []


def test_count_gauss_runs_beyond_the_domain_limit(tmp_path, capsys):
    domain.cache_clear()
    code, report, _ = run(["count", "--system", "gw6a", "--set", "quadzero",
                           "--p", "5", "--n", "50", "--method", "gauss"], tmp_path)
    assert code == 0 and domain.cache_info().currsize == 0
    (entry,) = report["results"]
    assert entry["name"] == "solution_probability_gauss"
    assert validate_report(report) == []
    assert main(["count", "--system", "gw6a", "--set", "quadzero", "--p", "5",
                 "--n", "50", "--method", "both"]) == 2  # the domain is refused
    assert main(["count", "--system", "ap3", "--set", "quadzero", "--p", "5",
                 "--n", "2", "--method", "gauss", "--degenerate"]) == 2
    assert main(["count", "--system", "ap3", "--p", "5", "--method", "all"]) == 2


def test_dual_count_refuses_the_dense_transform_table_before_building_it(
        monkeypatch, capsys):
    """At n = 1 the transform is one dense p x p table; at p = 20011 its
    4 * 10^8 entries exceed the domain cap, so the dual count exits 2 with
    the entries and bytes named, and no (p, p) array is ever built."""
    import tracemalloc

    p = 20011
    outer = np.outer
    shapes = []

    def spy(a, b, *args, **kwargs):
        shapes.append((np.size(a), np.size(b)))
        assert np.size(a) * np.size(b) < p * p, "a (p, p) table is built"
        return outer(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "outer", spy)
    tracemalloc.start()
    try:
        code = main(["count", "--system", "ap3", "--set", "quadzero", "--p", str(p),
                     "--n", "1", "--method", "dual"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert f"{p * p} entries" in err and f"{16 * p * p} bytes" in err
    assert (p, p) not in shapes
    assert peak < 64 * 2**20  # a (p, p) int64 table alone is 3.2 GB


def test_count_degenerate_needs_a_direct_indicator_count(tmp_path, capsys):
    base = ["count", "--system", "ap3", "--p", "5", "--n", "2", "--degenerate"]
    assert main(base + ["--set", "quadzero", "--method", "dual"]) == 2
    assert "--degenerate" in capsys.readouterr().err
    path = tmp_path / "f.json"
    save_function(balanced(quadratic_zero_set(5, 2)), str(path))
    assert main(base + ["--set", str(path), "--method", "both"]) == 2
    assert "--degenerate" in capsys.readouterr().err
    code, report, _ = run(base + ["--set", "quadzero", "--method", "both"], tmp_path)
    assert code == 0
    entry = next(r for r in report["results"] if r["name"] == "solution_probability")
    assert 0 < entry["degenerate_fraction"] < 1


def _expected_probability(count, total, alpha, m):
    observed, reference = Fraction(count, total), alpha**m
    return {"observed": {"re": float(observed), "im": 0.0},
            "reference": {"re": float(reference), "im": 0.0},
            "observed_exact": str(observed), "reference_exact": str(reference),
            "deviation": abs(float(observed) - float(reference)),
            "bound": None, "passed": None}


def test_count_probability_records_match_naive_counts(tmp_path, capsys):
    """The P records of `count` against the naive oracles: the direct record
    of a seeded random indicator set with its degenerate fraction, and the
    gauss record of the quadratic zero set.  The set's P lies below alpha^m
    and the zero set's above it, so both signs of the deviation are met."""
    p, n = 5, 2
    sys_ = builtin_system("ap3", p)
    rows = sys_.coeffs.tolist()
    N = p**n
    rng = np.random.default_rng(58)
    A = IndicatorSet(domain=domain(p, n), members=rng.random(N) < 0.5)
    path = tmp_path / "a.json"
    save_function(A, str(path))
    code, report, _ = run(["count", "--system", "ap3", "--set", str(path),
                           "--p", str(p), "--n", str(n), "--method", "direct",
                           "--degenerate"], tmp_path)
    assert code == 0 and validate_report(report) == []
    members = A.members.tolist()
    count = oracles.naive_count_solutions(rows, p, n, members)
    images = oracles.naive_form_images(rows, p, n, 0, N**sys_.d)
    degenerate = sum(all(members[i] for i in col) and len(set(col)) < len(col)
                     for col in zip(*images))
    assert 0 < degenerate < count
    assert Fraction(count, N**sys_.d) < Fraction(sum(members), N)**sys_.m
    (entry, _) = report["results"]
    assert entry == {"name": "solution_probability", "method": "direct",
                     "op_count": sys_.m * N**sys_.d,
                     "degenerate_fraction": float(Fraction(degenerate, count)),
                     **_expected_probability(count, N**sys_.d,
                                             Fraction(sum(members), N), sys_.m)}

    dot = np.eye(n, dtype=np.int64)
    code, report, _ = run(["count", "--system", "ap3", "--set", "quadzero",
                           "--p", str(p), "--n", str(n), "--method", "gauss"],
                          tmp_path)
    assert code == 0 and validate_report(report) == []
    alpha = Fraction(oracles.naive_quadratic_zero_count([[1]], dot, p, n), N)
    (entry,) = report["results"]
    assert entry == {"name": "solution_probability_gauss", "method": "gauss",
                     "op_count": counting.quadratic_zero_op_count(sys_.m, sys_.d, n, p),
                     **_expected_probability(
                         oracles.naive_quadratic_zero_count(rows, dot, p, n),
                         p ** (n * sys_.d), alpha, sys_.m)}


def test_verify_all_skips_a_default_system_invalid_at_p(tmp_path, capsys):
    # badex's default gw6a has two forms equal mod 3, (1, 2, -1) and (1, -1, 2)
    code, report, _ = run(["verify", "all", "--p", "3", "--n", "2"], tmp_path)
    assert code == 0 and report["passed"] and validate_report(report) == []
    names = [r["name"] for r in report["results"]]
    assert names == ["gauss", "quadzero", "badex", "gvn", "atoms", "quadfactor",
                     "completefactor", "projections", "bound1", "pythagoras"]
    skipped = report["results"][2]
    assert skipped["passed"] is None and "gw6a" in skipped["skipped"]
    assert all(r["passed"] for r in report["results"] if r is not skipped)
    assert "badex: skipped" in capsys.readouterr().out
    assert main(["verify", "badex", "--p", "3", "--n", "2"]) == 2
    err = capsys.readouterr().err
    assert "gw6a" in err and "--system" in err
    # a system named on the command line is never skipped
    assert main(["verify", "all", "--system", "gw6a", "--p", "3", "--n", "2"]) == 2


@pytest.mark.parametrize("argv", [["verify", "badex", "--n", "50"],
                                  ["verify", "quadfactor", "--p", "5", "--n", "20"]])
def test_closed_form_experiments_run_at_large_n(argv, tmp_path, capsys):
    domain.cache_clear()
    start = time.perf_counter()
    code, report, _ = run(argv, tmp_path)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and report["passed"]
    assert domain.cache_info().currsize == 0


def test_modulus_beyond_int64_elimination_is_a_config_error(capsys):
    assert main(["complexity", "--system", "ap3", "--p", "4294967311"]) == 2
    assert "3037000499" in capsys.readouterr().err


def test_budget_env_variable(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("UNIFORMITY_LAB_BUDGET", "100")
    code = main(["count", "--system", "cube7", "--set", "quadzero",
                 "--p", "5", "--n", "2"])
    assert code == 3


def test_reports_are_byte_identical_for_same_seed(tmp_path):
    _, _, first = run(["verify", "gvn", "--system", "ap3", "--p", "5",
                       "--n", "2", "--seed", "9"], tmp_path, "a.json")
    _, _, second = run(["verify", "gvn", "--system", "ap3", "--p", "5",
                        "--n", "2", "--seed", "9"], tmp_path, "b.json")
    a = Path(first).read_bytes()
    b = Path(second).read_bytes()
    assert a == b
    _, _, third = run(["verify", "gvn", "--system", "ap3", "--p", "5",
                       "--n", "2", "--seed", "10"], tmp_path, "c.json")
    assert Path(third).read_bytes() != a


def test_threads_flag_reproducibility(tmp_path):
    base = ["count", "--system", "gw6a", "--set", "quadzero", "--p", "5",
            "--n", "2", "--method", "both"]
    _, _, one = run(base + ["--threads", "1"], tmp_path, "t1.json")
    _, _, four = run(base + ["--threads", "4"], tmp_path, "t4.json")
    r1 = json.loads(Path(one).read_text())
    r4 = json.loads(Path(four).read_text())
    assert r1["results"] == r4["results"]
    assert [r["name"] for r in r1["results"]] == [
        "solution_probability", "average_direct", "average_dual", "direct_vs_dual"]


def test_count_both_plans_each_side_once(tmp_path, monkeypatch):
    """`count --method both` runs the direct side twice (the count and the
    average) and the dual side once, but plans each side once: the plans
    are kept with the system, with read-only arrays."""
    planned = []
    plan = counting._plan

    def spy(C, p, ranks=None):
        planned.append(C.tolist())
        return plan(C, p, ranks)

    monkeypatch.setattr(counting, "_plan", spy)
    code, report, _ = run(["count", "--system", "gw6a", "--set", "quadzero",
                           "--p", "5", "--n", "2", "--method", "both"], tmp_path)
    assert code == 0 and len(report["results"]) == 4
    gw6a = builtin_system("gw6a", 5)
    assert planned == [gw6a.coeffs.tolist(), gw6a.relations.basis.T.tolist()]
    for plan_ in (gw6a.direct_plan, gw6a.dual_plan):
        assert all(not pass_.coeffs.flags.writeable for pass_ in plan_)


@pytest.mark.parametrize("kind", ["quadzero", "indicator", "complex"])
def test_count_both_transforms_its_function_once(kind, tmp_path, monkeypatch):
    """The dual average of `count --method both` reads m copies of one
    function, which keeps its transform: one whole-function transform."""
    dom = domain(5, 2)
    if kind == "quadzero":
        ref = "quadzero"
    else:
        ref = str(tmp_path / f"{kind}.json")
        rng = np.random.default_rng(71)
        save_function(IndicatorSet(dom, rng.random(dom.size) < 0.4) if kind == "indicator"
                      else GroupFunction(dom, np.exp(2j * rng.random(dom.size))), ref)
    transforms = []
    dft_axes = functions._dft_axes

    def spy(arr, D, first=0):
        transforms.append(first)
        return dft_axes(arr, D, first)

    monkeypatch.setattr(functions, "_dft_axes", spy)
    code, report, _ = run(["count", "--system", "ap3", "--set", ref, "--p", "5",
                           "--n", "2", "--method", "both"], tmp_path)
    assert code == 0 and report["results"][-1]["passed"]
    assert transforms == [0]


def test_experiment_threads_reach_the_kernel(tmp_path, monkeypatch):
    """Every enumerating experiment hands --threads to the kernel, and the
    thread count leaves the results unchanged."""
    received = []
    kernel = counting.reduce_form_images

    def spy(coeffs, dom, reduce, threads=1):
        received.append(threads)
        return kernel(coeffs, dom, reduce, threads)

    monkeypatch.setattr(counting, "reduce_form_images", spy)
    monkeypatch.setattr(verification, "reduce_form_images", spy)
    monkeypatch.setattr(verification, "_use_gauss", lambda *a: False)
    monkeypatch.setattr(counting, "CHUNK", 1000)  # so the pool splits the work
    for argv in (["verify", "quadfactor", "--system", "gw6b"],
                 ["verify", "completefactor", "--system", "gw6b"],
                 ["verify", "gvn", "--system", "ap3"],
                 ["verify", "bound1", "--system", "gw6b"],
                 ["verify", "badex", "--system", "gw6a"]):
        results = []
        for threads in ("1", "4"):
            received.clear()
            code, report, _ = run(argv + ["--p", "5", "--n", "2", "--threads", threads],
                                  tmp_path)
            assert code == 0 and received == [int(threads)], (argv, received)
            results.append(json.dumps(report["results"], sort_keys=True))
        assert results[0] == results[1], argv


def test_bound1_closed_form_runs_where_enumeration_is_refused(monkeypatch, capsys):
    # gw6b at p = 5, n = 6: 6 * 5^18 assignments, over the default budget
    def refuse(*args, **kwargs):
        raise AssertionError("assignments enumerated")

    monkeypatch.setattr(counting, "reduce_form_images", refuse)
    monkeypatch.setattr(verification, "reduce_form_images", refuse)
    assert main(["verify", "bound1", "--system", "gw6b", "--p", "5", "--n", "6"]) == 0
    assert "bound1: pass" in capsys.readouterr().out


# a command line per command, using each of its options
COMMAND_LINES = {
    "list": ["list", "--p", "11", "--csv", "catalog.csv", "--out", "r.json"],
    "complexity": ["complexity", "--system", "ap4", "--p", "5"],
    "independence": ["independence", "--system", "ap4", "--k", "2"],
    "normal-form": ["normal-form", "--system", "ap4", "--s", "2"],
    "norm": ["norm", "--set", "quadzero", "--balanced", "--k", "3",
             "--method", "fast", "--p", "3", "--n", "3", "--seed", "4"],
    "count": ["count", "--system", "ap3", "--set", "quadzero", "--method", "all",
              "--degenerate", "--tolerance", "1e-6", "--threads", "2",
              "--budget", "99"],
    "verify": ["verify", "bound1", "--system", "gw6b", "--k", "2", "--d1", "0",
               "--d2", "2"],
    "octahedron": ["octahedron", "--check", "lift", "--size", "8"],
}


# commands with a required argument: the command word alone misses it
NEEDS_AN_ARGUMENT = ("complexity", "independence", "normal-form", "count",
                     "verify", "octahedron")


def test_one_command_parser_matches_full_parser(capsys):
    assert list(COMMAND_LINES) == list(cli.COMMANDS)
    full = cli.build_parser()
    for name, argv in COMMAND_LINES.items():
        one = cli.build_parser(name)
        assert vars(one.parse_args(argv)) == vars(full.parse_args(argv)), name
        helps = []
        for parser in (one, full):
            with pytest.raises(SystemExit):
                parser.parse_args([name, "-h"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "--" in helps[0], name
        errors = [[name, "--bogus"], [name, "stray"]]
        if name in NEEDS_AN_ARGUMENT:
            errors.append([name])
        for bad in errors:
            outcomes = []
            for parser in (one, full):
                with pytest.raises(SystemExit) as exit_:
                    parser.parse_args(bad)
                outcomes.append((exit_.value.code, capsys.readouterr()))
            assert outcomes[0] == outcomes[1], bad
            assert outcomes[0][0] == 2 and "error:" in outcomes[0][1].err, bad


def test_report_config_echoes_exactly_the_parsed_options(tmp_path, monkeypatch):
    """Each command's report config holds one key per option of its parser,
    named as on the command line, with --out the one option left out."""
    monkeypatch.chdir(tmp_path)
    for name, argv in COMMAND_LINES.items():
        (sub,) = [action for action in cli.build_parser(name)._actions
                  if isinstance(action, argparse._SubParsersAction)]
        options = {action.option_strings[-1].lstrip("-") if action.option_strings
                   else action.dest for action in sub.choices[name]._actions
                   if not isinstance(action, argparse._HelpAction)}
        argv = [arg for arg in argv if arg not in ("--out", "r.json")]
        if "--budget" in argv:  # the line's budget of 99 refuses the run
            argv[argv.index("--budget") + 1] = str(10**10)
        _, report, _ = run(argv, tmp_path)
        assert set(report["config"]) == options - {"out"}, name


def test_report_schema_validator_flags_problems():
    assert validate_report({}) != []
    good = {"schema_version": "1", "command": "x", "config": {},
            "versions": {"uniformity_lab": "0", "python": "3", "numpy": "2"},
            "results": [{"name": "a", "passed": True}], "passed": True}
    assert validate_report(good) == []
    bad = dict(good, passed=False)
    assert validate_report(bad) != []
    bad = dict(good, results=[{"passed": True}])
    assert validate_report(bad) != []


def test_console_entry_point_runs():
    # the child imports the package the suite imported, installed or not
    package_root = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_root, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "uniformity_lab.cli",
                           "complexity", "--system", "diff3"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].strip() == "1"


def readme_cli_lines():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:] for line in block.splitlines()
            if line.startswith("uniformity-lab ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch, capsys):
    lines = readme_cli_lines()
    assert len(lines) >= 10
    monkeypatch.chdir(tmp_path)
    for i, argv in enumerate(lines):
        if "--out" not in argv:
            argv = argv + ["--out", f"readme_{i}.json"]
        assert main(argv) == 0, shlex.join(argv)
        out = tmp_path / argv[argv.index("--out") + 1]
        assert validate_report(json.loads(out.read_text())) == [], shlex.join(argv)
