"""The replay corpus's [golden] lines, one test each, compared with their
records as tests/test_replay.py compares every line."""

import pytest

from test_replay import SECTIONS, check

STEMS = ("list_p7", "complexity_ap4", "complexity_gw6a", "independence_ap4_k2",
         "independence_gw6a_k1", "normal_form_nf4", "count_direct_ap3", "count_both_diff3",
         "count_direct_cube7", "count_gauss_gw6a", "verify_badex_gw6a", "verify_badex_ap4",
         "verify_quadfactor_gw6b", "verify_completefactor_gw6b", "verify_atoms")


@pytest.mark.parametrize("line", SECTIONS["golden"], ids=STEMS)
def test_golden_report(line, tmp_path, monkeypatch):
    check([line], tmp_path, monkeypatch)
