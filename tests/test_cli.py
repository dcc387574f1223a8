import argparse
import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from uniformity_lab import (algebra, cli, counting, domains, functions,
                            hypergraphs, systems, verification)
from uniformity_lab.cli import main
from uniformity_lab.domains import domain
from uniformity_lab.functions import (GroupFunction, IndicatorSet, balanced,
                                      save_function, uk_norm)
from uniformity_lab.reports import validate_report
from uniformity_lab.systems import (BUILTIN_SYSTEM_NAMES, builtin_system,
                                    save_system)
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


def test_list_refuses_a_small_modulus_before_printing(capsys):
    # ap3's coefficient 3 needs p > 3: no row of the catalog is printed
    assert main(["list", "--p", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "modulus 3 too small" in err


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
    ["norm", "--set", "quadzero", "--p", "5", "--n", "2", "--budget", "-1"],
    ["verify", "gvn", "--p", "5", "--n", "2", "--seed", "-3", "--system", "ap3"],
    ["octahedron", "--check", "counterexample", "--seed", "-1"],
    ["count", "--system", "ap3", "--set", "quadzero", "--p", "5", "--n", "2",
     "--seed", "-3"],
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
    for value in ("0", "1e-9", "2.5"):
        args = cli.parse_args(["count", "--system", "ap3", "--tolerance", value])
        assert args.tolerance == float(value)


@pytest.mark.parametrize("argv", [
    ["count", "--system", "ap3", "--set", "quadzero", "--p", "5", "--n", "0",
     "--method", "gauss"],
    ["count", "--system", "ap3", "--set", "quadzero", "--p", "5", "--n", "-2",
     "--method", "gauss"],
    ["verify", "gauss", "--p", "3", "--n", "0"],
])
def test_dimension_below_one_is_refused_at_parse_time(argv, tmp_path, capsys):
    out = tmp_path / "report.json"
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(out)])
    assert exc.value.code == 2
    assert "error: argument --n: must be at least 1, got" in capsys.readouterr().err
    assert not out.exists()


def test_exit_code_budget_refusal(tmp_path, capsys):
    code = main(["count", "--system", "cube7", "--set", "quadzero",
                 "--p", "5", "--n", "2", "--budget", "100"])
    assert code == 3


def test_verify_gauss_refuses_over_budget_before_building(capsys):
    assert main(["verify", "gauss", "--p", "3", "--n", "14", "--budget", "1000"]) == 3
    assert "Gauss sum over 3^14 points" in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["norm", "--set", "quadzero", "--balanced"], "U^2 norm on size 43046721"),
    (["norm", "--set", "quadzero", "--method", "fast", "--k", "3"],
     "fast U^3 norm on size 43046721"),
    (["count", "--system", "ap3", "--set", "quadzero", "--method", "both"],
     "direct count over 43046721^2 assignments"),
    (["count", "--system", "ap3", "--set", "quadzero", "--method", "all"],
     "Gauss-sum count over 13 classes of 2x2 forms"),
], ids=[f"argv{i}" for i in range(4)])
def test_quadzero_refuses_over_budget_before_building(argv, message, monkeypatch,
                                                      capsys):
    def refuse_to_build(p, n):
        raise AssertionError("quadzero set built before the budget check")

    monkeypatch.setattr(verification, "quadratic_zero_set", refuse_to_build)
    assert main(argv + ["--p", "3", "--n", "16", "--budget", "1000"]) == 3
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["octahedron", "--check", "lift", "--n", "14"], "octahedral norm"),
    (["verify", "projections", "--n", "14", "--budget", "1000"],
     "projection lemmas on size 4782969"),
    (["verify", "bound1", "--system", "gw6b", "--n", "14", "--budget", "1000"],
     "fast U^2 norm on size 4782969"),
    # the closed-form average is within this budget; the fast U^2 norm of
    # the balanced set, 3^12 * (3 * 12 + 4) operations, is not
    (["verify", "bound1", "--system", "gw6b", "--n", "12", "--budget", "1000000"],
     "operation count 21257640 for fast U^2 norm on size 531441"),
    # two eliminations of 14 x 14 per coset of gamma1 and d2 (p + 1) = 4
    # transform additions for each of the 9 cells
    (["verify", "atoms", "--n", "14", "--budget", "1000"],
     "operation count 16500 for atom histogram of 3^2 cells"),
])
def test_refuses_over_budget_before_drawing(argv, message, monkeypatch, capsys):
    # each command prices its work through the library's own check before it
    # draws a function or a factor or builds the quadzero set
    def refuse_to_draw(*args):
        raise AssertionError("input drawn before the budget check")

    for name in ("random_bounded_function", "random_factor", "quadratic_zero_set"):
        monkeypatch.setattr(verification, name, refuse_to_draw)
    assert main(argv + ["--p", "3"]) == 3
    assert message in capsys.readouterr().err


def test_atoms_run_in_closed_form_beyond_the_domain_cap(monkeypatch, tmp_path):
    """At p = 5, n = 30 no domain of F_p^n exists (5^30 points), yet the
    histogram is exact: no domain is built, and its 625 counts sum to 5^30."""
    def refuse(*args, **kwargs):
        raise AssertionError("a domain was built")

    for module in (domains, functions, verification):
        monkeypatch.setattr(module, "domain", refuse)
    monkeypatch.setattr(domains.GroupDomain, "__post_init__", refuse)
    histograms = []
    counts = verification._atom_counts

    def spy(*args):
        histograms.append(counts(*args))
        return histograms[-1]

    monkeypatch.setattr(verification, "_atom_counts", spy)
    code, report, _ = run(["verify", "atoms", "--p", "5", "--n", "30", "--d1", "2",
                           "--d2", "2"], tmp_path)
    assert code == 0 and report["passed"]
    (counts,) = histograms
    assert len(counts) == 625 and sum(counts) == 5**30
    observed = report["results"][0]["observed"]
    assert (observed["count_min"], observed["count_max"]) == (min(counts), max(counts))


@pytest.mark.parametrize("p, n, d1, d2", [(3037000493, 1, 0, 1), (8191, 40, 1, 1)])
def test_atoms_over_the_cell_cap_refuse_before_drawing(p, n, d1, d2, monkeypatch,
                                                       capsys):
    """A histogram whose cells take more than MAX_DOMAIN_SIZE int64 words is
    refused (exit 2) before the factor is drawn or anything large is
    allocated: p^1 cells above the cap, or 8191^2 cells just below it whose
    counts, near 8191^39, are Python ints of 13 words each."""
    import tracemalloc

    def refuse_to_draw(*args):
        raise AssertionError("factor drawn before the cap check")

    monkeypatch.setattr(verification, "random_factor", refuse_to_draw)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code = main(["verify", "atoms", "--p", str(p), "--n", str(n),
                     "--d1", str(d1), "--d2", str(d2)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    cells = p ** (d1 + d2)
    assert f"the atom histogram has {p}^{d1 + d2} = {cells} cells" \
        in capsys.readouterr().err
    assert peak < 2**20 and elapsed < 5


def test_wrap_padded_over_cap_exits_config_without_report(tmp_path, capsys):
    """The direct U^2 norm at p = 3, n = 13 is within this budget, but it
    would wrap-pad the table to 5^13 float64 entries (9.1 GB)."""
    out = tmp_path / "n.json"
    assert main(["norm", "--set", "quadzero", "--p", "3", "--n", "13", "--balanced",
                 "--budget", str(10**14), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"wrap-padded table of 3^13 has {5**13} entries" in err
    assert "Traceback" not in err and not out.exists()


def test_bound1_checks_square_independence_before_pricing(monkeypatch, capsys):
    # ap4 is square-dependent: the precondition (exit 2) comes before the
    # U^2 norm's refusal, and neither builds the set
    def refuse_to_build(p, n):
        raise AssertionError("quadzero set built before the precondition")

    monkeypatch.setattr(verification, "quadratic_zero_set", refuse_to_build)
    assert main(["verify", "bound1", "--system", "ap4", "--p", "7", "--n", "8",
                 "--budget", "1000"]) == 2
    assert "square-independent" in capsys.readouterr().err


def test_sum_grid_over_cap_exits_config_without_report(tmp_path, capsys):
    # the direct count at p = 3, n = 13 is within this budget, but its kernel
    # would gather through a sum grid of 5^13 int64 entries
    out = tmp_path / "c.json"
    assert main(["count", "--system", "ap3", "--set", "quadzero", "--p", "3",
                 "--n", "13", "--method", "direct", "--budget", str(10**14),
                 "--out", str(out)]) == 2
    assert f"sum grid of 3^13 has {5**13} entries" in capsys.readouterr().err
    assert not out.exists()


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


def test_badex_over_the_enumeration_budget_runs_in_closed_form(tmp_path):
    # cube7 at p = 7, n = 2 takes its elimination plan by default, but its
    # enumeration is priced at 7 * 49^4 = 40,353,607 operations, over this
    # budget, and its closed form at 24,157,240, within it: the job runs
    argv = ["verify", "badex", "--system", "cube7", "--p", "7", "--n", "2"]
    code, report, _ = run(argv + ["--budget", "30000000"], tmp_path)
    assert code == 0 and report["passed"]
    _, default, _ = run(argv, tmp_path, "default.json")
    assert report["results"] == default["results"]


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

    monkeypatch.setattr(verification, "quadratic_zero_set", refuse_to_build)
    assert main(["verify", "pythagoras", "--p", "3", "--n", "13"]) == 3
    assert "fast U^3 norm on size 1594323" in capsys.readouterr().err


def test_gvn_refuses_over_budget_before_drawing(monkeypatch, capsys):
    # the fast U^4 norms at p = 3, n = 12 price 3^36 * (3 * 12 + 4) operations
    def refuse_to_draw(dom, rng, kind="uniform"):
        raise AssertionError("functions drawn before the budget check")

    monkeypatch.setattr(verification, "random_bounded_function", refuse_to_draw)
    argv = ["verify", "gvn", "--system", "ap3", "--p", "3", "--n", "12", "--k", "3"]
    assert main(argv) == 3
    assert "fast U^4 norm on size 531441" in capsys.readouterr().err


@pytest.mark.parametrize("p,n", [(3, 5), (5, 4)])
def test_lift_refuses_over_budget_before_building(p, n, monkeypatch, capsys):
    # the octahedral norm of the N x N x N lift prices N^6 operations
    def refuse_to_build(g):
        raise AssertionError("lift built before the budget check")

    monkeypatch.setattr(verification, "lift", refuse_to_build)
    assert main(["octahedron", "--check", "lift", "--p", str(p), "--n", str(n)]) == 3
    err = capsys.readouterr().err
    assert f"operation count {p ** (6 * n)} for octahedral norm" in err


def refuse_in_every_module(monkeypatch, *names):
    """Make each of `names` raise wherever a module of the package holds it."""
    def refuse(*args, **kwargs):
        raise AssertionError("built or drawn before the job was priced")

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("uniformity_lab"):
            for name in names:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, refuse)


def test_norm_checks_k_before_building_the_set(monkeypatch, capsys):
    # k < 2 is refused (exit 2) before the 3^16-point set is built
    refuse_in_every_module(monkeypatch, "quadratic_zero_set")
    assert main(["norm", "--set", "quadzero", "--p", "3", "--n", "16", "--k", "1"]) == 2
    assert "uniformity norms are defined for k >= 2" in capsys.readouterr().err


def test_bound1_prices_its_average_before_building(monkeypatch, capsys):
    # the fast U^2 norm (9 * (3 * 2 + 4) operations) is within this budget,
    # the direct average (6 * 9^3) is not: refused before the set is built
    refuse_in_every_module(monkeypatch, "quadratic_zero_set", "uk_norm_fast")
    assert main(["verify", "bound1", "--system", "gw6b", "--p", "3", "--n", "2",
                 "--budget", "1000"]) == 3
    assert "budget refusal: operation count 4374 for direct count over 9^3 " \
        "assignments exceeds budget 1000\n" == capsys.readouterr().err


@pytest.mark.parametrize("experiment", ["projections", "atoms", "completefactor", "all"])
def test_d1_above_n_is_refused_before_anything_is_built(experiment, monkeypatch,
                                                         capsys):
    # under `all` the refusal comes before gauss, quadzero and gvn run
    refuse_in_every_module(monkeypatch, "random_bounded_function", "random_factor",
                           "quadratic_zero_set", "dot_factor", "_form_values")
    assert main(["verify", experiment, "--p", "3", "--n", "14", "--d1", "15"]) == 2
    assert capsys.readouterr().err == "error: d1 cannot exceed n\n"


def test_experiments_that_ignore_d1_accept_any_d1(tmp_path):
    for experiment in ("gauss", "badex", "gvn", "quadfactor", "bound1", "pythagoras"):
        code, report, _ = run(["verify", experiment, "--p", "5", "--d1", "9"], tmp_path)
        assert code == 0 and report["passed"], experiment


# Command lines of the driven commands; together they reach every entry of
# `verification.ENTRIES`.
DRIVEN_LINES = (["verify", "all", "--p", "5"],
                ["norm", "--set", "quadzero", "--p", "3", "--n", "2"],
                ["count", "--system", "ap3", "--set", "quadzero", "--p", "3"],
                ["octahedron", "--check", "lift", "--p", "3", "--n", "1"])


def test_drive_prices_every_entry_before_building_any(monkeypatch, capsys):
    """Every entry of the table, one added later included, is reached by a
    line of DRIVEN_LINES; in each job every entry is priced once, all
    before the first build, then each is built once and run once."""
    calls = []

    def spy(name, step, fn):
        def recorded(*args):
            calls.append((name, step))
            return fn(*args)
        return recorded

    for name, entry in list(verification.ENTRIES.items()):
        monkeypatch.setitem(verification.ENTRIES, name, verification.Entry(
            *(spy(name, step, fn) for step, fn in zip(entry._fields, entry))))
    reached = set()
    for argv in DRIVEN_LINES:
        calls.clear()
        assert main(argv) == 0, argv
        names = [name for name, step in calls if step == "price"]
        assert len(set(names)) == len(names), argv
        assert calls == [(name, "price") for name in names] + \
            [(name, step) for name in names for step in ("build", "run")], argv
        reached.update(names)
    assert reached == set(verification.ENTRIES)


def test_each_price_runs_once_per_job(monkeypatch, capsys):
    """A job prices its work once: the atoms histogram, the gvn average and
    norms, and every other experiment's plan, are priced by one call of
    their price owner, which the run does not repeat."""
    counts = Counter()

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("uniformity_lab"):
            for name, fn in list(vars(module).items()):
                if name.startswith("_price_") and callable(fn):
                    monkeypatch.setattr(module, name, counted(name, fn))
    for experiment in ("badex", "gvn", "atoms", "quadfactor", "completefactor",
                       "projections", "bound1", "pythagoras"):
        counts.clear()
        assert main(["verify", experiment, "--p", "5", "--n", "2"]) == 0
        assert all(count == 1 for count in counts.values()), (experiment, counts)
        if experiment in ("gvn", "atoms"):
            assert counts[f"_price_{experiment}"] == 1, counts


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
    `subset_ranks`, the rank table of its coefficients.  The job is priced
    once, so the precondition's complexity search runs once."""
    table, complexity = systems._rank_table, verification.cs_complexity
    calls, searches = [], []

    def spy(C, p):
        calls.append(np.asarray(C).tolist())
        return table(C, p)

    def count_search(sys_):
        searches.append(sys_.name)
        return complexity(sys_)

    monkeypatch.setattr(systems, "_rank_table", spy)
    monkeypatch.setattr(verification, "cs_complexity", count_search)
    assert main(["verify", "gvn", "--system", "ap3", "--p", "5", "--n", "2"]) == 0
    assert calls == [builtin_system("ap3", 5).cut.tolist()]
    assert searches == ["ap3"]
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
    """Six forms of rank 5 in 10 variables, two of them parallel, so that no
    order is independent: under a budget of 1000 the squares over the
    5-column pivot cut (6 x 15, priced 6 * 15 * 8 = 720) are built and the
    cubes (6 x 35) are refused."""
    path = tmp_path / "wide.json"
    forms = [[1, 2, 0, 3, 0, 1, 0, 0, 4, 1], [2, 4, 0, 6, 0, 2, 0, 0, 8, 2],
             [0, 1, 1, 0, 1, 0, 1, 1, 0, 0], [0, 0, 1, 0, 0, 0, 0, 0, 0, 5],
             [0, 0, 0, 1, 0, 0, 2, 0, 0, 0], [3, 0, 0, 0, 0, 1, 0, 0, 0, 0]]
    path.write_text(json.dumps({"p": 13, "d": 10, "forms": forms}))
    orders = []
    monomials = systems.combinations_with_replacement

    def spy(items, r):
        orders.append(r)
        return monomials(items, r)

    monkeypatch.setattr(systems, "combinations_with_replacement", spy)
    monkeypatch.setenv("UNIFORMITY_LAB_BUDGET", "1000")
    assert main(["independence", "--system", str(path), "--p", "13"]) == 3
    assert "order-3 power matrix of 6 x 35" in capsys.readouterr().err
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
        assert vars(cli.parse_args(argv)) == vars(full.parse_args(argv)), name
        helps = []
        for parse in (cli.parse_args, full.parse_args):
            with pytest.raises(SystemExit):
                parse([name, "-h"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "--" in helps[0], name
        errors = [[name, "--bogus"], [name, "stray"]]
        if name in NEEDS_AN_ARGUMENT:
            errors.append([name])
        for bad in errors:
            outcomes = []
            for parse in (cli.parse_args, full.parse_args):
                with pytest.raises(SystemExit) as exit_:
                    parse(bad)
                outcomes.append((exit_.value.code, capsys.readouterr()))
            assert outcomes[0] == outcomes[1], bad
            assert outcomes[0][0] == 2 and "error:" in outcomes[0][1].err, bad


def workload_shaped_lines(tmp_path):
    """One line shaped like each kind of job of the benchmark's workloads
    (perfbench/workloads.py), at small sizes, on the documented system and
    function files; each exits 0."""
    rng = np.random.default_rng(30)
    systems = {}
    for name in ("ap3", "gw6b", "nf4"):
        path = tmp_path / f"sys_{name}.json"
        save_system(builtin_system(name, 7 if name == "nf4" else 5), str(path))
        systems[name] = str(path)
    bounded, qz, random_set = (str(tmp_path / name) for name in
                               ("bounded.json", "qz.json", "set.json"))
    save_function(functions.random_bounded_function(domain(3, 2), rng), bounded)
    save_function(quadratic_zero_set(3, 2), qz)
    save_function(IndicatorSet(domain(5, 2), rng.random(25) < 0.5), random_set)
    lines = [
        ["norm", "--function", bounded, "--p", "3", "--n", "2", "--k", "3",
         "--method", "direct"],
        ["norm", "--function", qz, "--p", "3", "--n", "2", "--k", "2",
         "--method", "fast", "--balanced"],
        ["octahedron", "--check", "lift", "--p", "3", "--n", "1", "--seed", "1234567"],
        ["verify", "pythagoras", "--p", "3", "--n", "2"],
        ["count", "--system", systems["ap3"], "--set", "quadzero", "--p", "5",
         "--n", "2", "--method", "both"],
        ["count", "--system", systems["ap3"], "--set", random_set, "--p", "5",
         "--n", "2", "--method", "both"],
        ["verify", "badex", "--system", systems["gw6b"], "--p", "5", "--n", "2"],
        ["list", "--p", "7", "--csv", str(tmp_path / "catalog.csv")],
        ["complexity", "--system", systems["gw6b"], "--p", "5"],
        ["independence", "--system", systems["gw6b"], "--p", "5", "--k", "2"],
        ["normal-form", "--system", systems["nf4"], "--p", "7", "--s", "2"],
        ["normal-form", "--system", "nf4", "--s", "1"],
    ]
    for experiment, opts in (("quadfactor", ["--system", systems["gw6b"]]),
                             ("completefactor", ["--system", systems["gw6b"], "--d1", "1"]),
                             ("atoms", ["--d1", "1", "--d2", "2"]),
                             ("projections", ["--d1", "1", "--d2", "1"]),
                             ("bound1", ["--system", systems["gw6b"]]),
                             ("gvn", ["--system", systems["ap3"]])):
        lines.append(["verify", experiment, "--p", "5", "--n", "2",
                      "--seed", "987654321"] + opts)
    return [argv + ["--out", str(tmp_path / "report.json")] for argv in lines]


def test_a_line_that_parses_builds_no_full_parser(tmp_path, monkeypatch, capsys):
    """Well-formed lines, each command's and one shaped like each kind of
    workload job, run through main without building any ArgumentParser."""
    def refuse(*args, **kwargs):
        raise AssertionError("ArgumentParser built")

    monkeypatch.chdir(tmp_path)
    # the count line's budget of 99 refuses the run (exit 3)
    lines = [(argv, 3 if name == "count" else 0) for name, argv in COMMAND_LINES.items()]
    lines += [(argv, 0) for argv in workload_shaped_lines(tmp_path)]
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
    for argv, code in lines:
        assert main(argv) == code, argv


def test_plain_read_handles_every_option_keyword():
    """Every add_argument call of every command uses only keywords, actions
    and `--name` flags the plain read handles, so a new keyword (nargs=, say)
    fails here rather than quietly sending each line to the full parser."""
    for name, (_, add_arguments, _) in cli.COMMANDS.items():
        recorder = cli._Recorder()
        add_arguments(recorder)
        assert recorder.calls, name
        for flags, kw in recorder.calls:
            assert kw.keys() <= cli.PLAIN_KEYWORDS, (name, flags, kw)
            assert kw.get("action") in cli.PLAIN_ACTIONS, (name, flags, kw)
            assert len(flags) == 1 and (flags[0].startswith("--") or
                                        not flags[0].startswith("-")), (name, flags)


def namespace_items(args):
    """("namespace", its (key, type, value) triples in order)."""
    return ("namespace", [(key, type(value), value) for key, value in vars(args).items()])


def parse_outcome(parse, argv):
    """The namespace_items of parse(argv), or ("exit", code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            args = parse(argv)
    except SystemExit as exc:
        return ("exit", exc.code, out.getvalue(), err.getvalue())
    return namespace_items(args)


# option values by type (by name for the untyped string options): well-formed
# ones, negative numbers, and words argparse refuses or reads as options
TYPED_VALUES = {"int": ["0", "1", "3", "7", "12", "-1", "-3", "x", "1.5", "-x"],
                "float": ["0", "1e-6", "2.5", ".5", "-1", "-.5", "-1e-9", "nan", "inf"],
                None: ["ap3", "quadzero", "r.json", "-", "", "-x", "--p", "a b", "-1"]}
# ways to break a line; each sends it to the full parser
MALFORMED = ("abbreviate", "equals", "repeat", "double-dash", "help", "drop value",
             "bad choice", "stray word", "unknown option", "missing positional")


def random_line(name, rng):
    """(argv, malformation): a seeded command line for `name` from its
    recorded options, a random subset in random order with the positional
    anywhere and values of every kind, and now and then one of MALFORMED
    applied to it (else None)."""
    recorder = cli._Recorder()
    cli.COMMANDS[name][1](recorder)
    words, positional, flags = [], [], {}
    for (flag,), kw in recorder.calls:
        if not flag.startswith("-"):
            positional = [str(rng.choice(list(kw["choices"])))]
            continue
        flags[flag] = kw.get("action") != "store_true"  # takes a value
        if rng.random() < 0.5 and not (kw.get("required") and rng.random() < 0.95):
            continue
        if not flags[flag]:
            words.append([flag])
        elif kw.get("choices"):
            words.append([flag, str(rng.choice(list(kw["choices"])))])
        else:
            pool = TYPED_VALUES[getattr(kw.get("type"), "__name__", None)]
            words.append([flag, str(rng.choice(pool[:5] if rng.random() < 0.8 else pool))])
    rng.shuffle(words)
    argv = [word for option in words for word in option]
    if positional:
        argv.insert(int(rng.integers(len(argv) + 1)), positional[0])
    kind = str(rng.choice(MALFORMED)) if rng.random() < 0.4 else None
    given = [i for i, word in enumerate(argv) if word in flags and
             (i == 0 or argv[i - 1] not in flags or not flags[argv[i - 1]])]
    valued = [i for i in given if flags[argv[i]]]
    at = int(rng.integers(len(argv) + 1))
    if kind == "abbreviate" and (long := [i for i in given if len(argv[i]) > 4]):
        i = int(rng.choice(long))
        argv[i] = argv[i][:int(rng.integers(3, len(argv[i])))]
        if argv[i] in flags:  # a prefix that is another option is no abbreviation
            kind = None
    elif kind == "equals" and valued:
        i = int(rng.choice(valued))
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif kind == "repeat" and words:
        argv[at:at] = words[int(rng.integers(len(words)))]
    elif kind == "double-dash":
        argv.insert(at, "--")
    elif kind == "help":
        argv.insert(at, str(rng.choice(["-h", "--help"])))
    elif kind == "drop value" and valued:
        del argv[int(rng.choice(valued)) + 1:]
    elif kind == "bad choice":
        argv[at:at] = (["--method", "bogus"] if rng.random() < 0.5 else ["nowhere"])
    elif kind == "stray word":
        argv.insert(at, "stray")
    elif kind == "unknown option":
        argv[at:at] = ["--bogus", "1"]
    elif kind == "missing positional" and positional:
        argv.remove(positional[0])
    else:
        kind = None
    return [name] + argv, kind


def test_plain_read_matches_full_parser_on_random_lines(monkeypatch):
    """On 2,400 seeded lines the plain read returns None or the full
    parser's namespace, None on every malformed one, and parse_args gives
    the full parser's namespace or its exit code, stdout and stderr."""
    rng = np.random.default_rng(20071185)
    full = cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", lambda: full)  # one build, not 1,500
    read, negative, moved, malformed = 0, 0, 0, set()
    for i in range(2400):
        argv, kind = random_line(list(cli.COMMANDS)[i % len(cli.COMMANDS)], rng)
        expected = parse_outcome(full.parse_args, argv)
        plain = cli._plain_read(argv)
        if kind is not None:
            assert plain is None, (kind, argv)
            malformed.add(kind)
        elif plain is not None:
            read += 1
            negative += any(cli.NEGATIVE_NUMBER.match(word) for word in argv)
            moved += argv[0] == "verify" and argv[1] != plain.experiment
            assert namespace_items(plain) == expected, argv
        assert parse_outcome(cli.parse_args, argv) == expected, argv
    assert read >= 600 and malformed == set(MALFORMED), (read, malformed)
    assert negative >= 20 and moved >= 20, (negative, moved)


def test_report_config_echoes_exactly_the_parsed_options(tmp_path, monkeypatch):
    """Each command's report config holds one key per option of its parser,
    named as on the command line, with --out the one option left out."""
    monkeypatch.chdir(tmp_path)
    (sub,) = [action for action in cli.build_parser()._actions
              if isinstance(action, argparse._SubParsersAction)]
    for name, argv in COMMAND_LINES.items():
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


def test_console_entry_pins_blas_threads(monkeypatch, capsys):
    import uniformity_lab_console as entry
    for var in entry.BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    monkeypatch.setenv("OMP_NUM_THREADS", "2")
    assert entry.main(["complexity", "--system", "diff3"]) == 0
    assert capsys.readouterr().out.splitlines()[0].strip() == "1"
    assert [os.environ[var] for var in entry.BLAS_THREAD_VARS] == ["1", "2", "1"]


def test_console_entry_leaves_output_unchanged(tmp_path):
    """In a fresh process with no BLAS variables, the console entry loads
    nothing of numpy before it pins BLAS, and a BLAS-bound job prints the
    same bytes and writes the same report as the CLI module run unpinned."""
    package_root = str(Path(cli.__file__).parents[1])
    env = {k: v for k, v in os.environ.items()
           if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root,
                                                      env.get("PYTHONPATH")]))
    probe = subprocess.run([sys.executable, "-c", "import sys, uniformity_lab_console; "
                            "print(sorted({'numpy', 'uniformity_lab'} & set(sys.modules)))"],
                           capture_output=True, text=True, env=env)
    assert probe.returncode == 0 and probe.stdout.strip() == "[]"
    job = ["norm", "--set", "quadzero", "--balanced", "--p", "5", "--n", "3",
           "--k", "3", "--method", "fast"]
    outputs = []
    for module in ("uniformity_lab_console", "uniformity_lab.cli"):
        out = tmp_path / f"{module}.json"
        printed = subprocess.run([sys.executable, "-m", module, *job],
                                 capture_output=True, env=env)
        written = subprocess.run([sys.executable, "-m", module, *job, "--out", str(out)],
                                 capture_output=True, env=env)
        assert printed.returncode == written.returncode == 0
        outputs.append((printed.stdout, out.read_bytes()))
    assert outputs[0] == outputs[1]


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
