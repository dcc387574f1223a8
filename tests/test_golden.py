"""Golden reports: command lines whose values are integers or come from
Fractions must reproduce their stored reports byte for byte.  The stored
reports in tests/golden/ omit the `versions` block, which names the
interpreter and numpy.

Regenerate the files with `PYTHONPATH=src python tests/test_golden.py`, and
only for a deliberate change of output.
"""

import json
from pathlib import Path

import pytest

from uniformity_lab.cli import main
from uniformity_lab.reports import dump_report

GOLDEN = Path(__file__).resolve().parent / "golden"

# file stem -> argv
CASES = {
    "list_p7": ["list", "--p", "7"],
    "complexity_ap4": ["complexity", "--system", "ap4", "--p", "7"],
    "complexity_gw6a": ["complexity", "--system", "gw6a", "--p", "7"],
    "independence_ap4_k2": ["independence", "--system", "ap4", "--p", "7", "--k", "2"],
    "independence_gw6a_k1": ["independence", "--system", "gw6a", "--p", "7", "--k", "1"],
    "normal_form_nf4": ["normal-form", "--system", "nf4", "--p", "7", "--s", "1"],
    "count_direct_ap3": ["count", "--system", "ap3", "--set", "quadzero", "--p", "5",
                         "--n", "2", "--method", "direct", "--degenerate"],
    "count_both_diff3": ["count", "--system", "diff3", "--set", "quadzero", "--p", "5",
                         "--n", "3", "--method", "both"],
    "count_direct_cube7": ["count", "--system", "cube7", "--set", "quadzero", "--p", "3",
                           "--n", "3", "--method", "direct", "--degenerate"],
    "count_gauss_gw6a": ["count", "--system", "gw6a", "--set", "quadzero", "--p", "5",
                         "--n", "3", "--method", "gauss"],
    "verify_badex_gw6a": ["verify", "badex", "--system", "gw6a", "--p", "5", "--n", "2"],
    "verify_badex_ap4": ["verify", "badex", "--system", "ap4", "--p", "5", "--n", "2"],
    "verify_quadfactor_gw6b": ["verify", "quadfactor", "--system", "gw6b", "--p", "5",
                               "--n", "2"],
    "verify_completefactor_gw6b": ["verify", "completefactor", "--system", "gw6b",
                                   "--p", "5", "--n", "3", "--d1", "2"],
    "verify_atoms": ["verify", "atoms", "--p", "5", "--n", "3", "--d1", "1",
                     "--d2", "1", "--seed", "2"],
}


def report_text(argv, out: Path) -> str:
    """The report of `argv` without its versions, as `dump_report` writes it."""
    assert main(argv + ["--out", str(out)]) == 0, argv
    report = json.loads(out.read_text(encoding="utf-8"))
    del report["versions"]
    return dump_report(report, None)


@pytest.mark.parametrize("stem", list(CASES))
def test_golden_report(stem, tmp_path):
    expected = (GOLDEN / f"{stem}.json").read_text(encoding="utf-8")
    assert report_text(CASES[stem], tmp_path / "report.json") == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for stem, argv in CASES.items():
            text = report_text(argv, Path(tmp) / "report.json")
            (GOLDEN / f"{stem}.json").write_text(text, encoding="utf-8")
