import json
import subprocess
import sys
from pathlib import Path

from uniformity_lab.cli import main
from uniformity_lab.domains import domain
from uniformity_lab.functions import balanced, save_function, uk_norm
from uniformity_lab.reports import validate_report
from uniformity_lab.verification import quadratic_zero_set


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


def test_independence_command(tmp_path):
    code, report, _ = run(["independence", "--system", "gw6b", "--p", "5"],
                          tmp_path)
    assert code == 0
    assert report["results"][0]["value"] is True


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


def test_exit_code_budget_refusal(tmp_path, capsys):
    code = main(["count", "--system", "cube7", "--set", "quadzero",
                 "--p", "5", "--n", "2", "--budget", "100"])
    assert code == 3


def test_verify_gauss_refuses_over_budget_before_building(capsys):
    assert main(["verify", "gauss", "--p", "3", "--n", "14", "--budget", "1000"]) == 3
    assert "Gauss sum over 3^14 points" in capsys.readouterr().err


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
    proc = subprocess.run([sys.executable, "-m", "uniformity_lab.cli",
                           "complexity", "--system", "diff3"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].strip() == "1"
