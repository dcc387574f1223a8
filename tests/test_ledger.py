"""The ledger is the cross-check contract: every row runs once, every
quantity a report carries has an oracle row or a listed gap, and no oracle
reads the package."""

import ast
import importlib
from itertools import chain
from pathlib import Path

import oracles
from ledger import GAPS, QUANTITIES, ROWS, differential
from uniformity_lab.verification import COUNT_METHODS, ENTRIES

test_row = differential()

NORM_PATHS = ("uk_norm", "uk_norm_fast", "uk_power_exact")
CATALOG = ("cs_complexity", "power_independence", "conjectured_true_complexity",
           "normal_form_check", "counterexample")


def oracle_rows():
    return [row for row in ROWS if row.oracle.__module__ == "oracles"]


def test_every_quantity_has_an_oracle_row_or_a_listed_gap():
    expected = set(ENTRIES) | {f"count.{m}" for m in chain(*COUNT_METHODS.values())} | \
        {"count.degenerate", *NORM_PATHS, *CATALOG}
    assert set(QUANTITIES) == expected
    gaps = dict(GAPS)
    assert len(gaps) == len(GAPS) <= 3, "GAPS may only shrink: lower the bound with it"
    for key, reason in GAPS:
        assert key in QUANTITIES and reason.strip() and "\n" not in reason, key
    covered = {row.quantity for row in oracle_rows()}
    for key in QUANTITIES:
        assert (key in covered) != (key in gaps), key


def test_every_row_runs_once():
    """A row that keeps an older test name runs under that name, in its
    module; `test_row` runs the rest."""
    names = [row.name for row in ROWS]
    kept = {name.partition("[")[0] for name in names if "::" in name}
    runs = list(test_row.rows)
    for test in sorted(kept):
        module, _, function = test.partition("::")
        runs += getattr(importlib.import_module(module), function).rows
    assert sorted(runs) == sorted(set(names))


def test_no_oracle_reads_the_package():
    """A row's oracle, and every helper of `tests/oracles.py` it calls, reads
    no name that `tests/oracles.py` imports from `uniformity_lab`."""
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    package = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("uniformity_lab"):
            package |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            package |= {alias.asname or alias.name.partition(".")[0] for alias in node.names
                        if alias.name.startswith("uniformity_lab")}
    assert package  # the rule has something to check
    helpers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}

    def reads(name, seen):
        for node in ast.walk(helpers[name]):
            if isinstance(node, ast.Name):
                assert node.id not in package, (name, node.id)
                if node.id in helpers and node.id not in seen:
                    seen.add(node.id)
                    reads(node.id, seen)

    for row in oracle_rows():
        assert row.oracle is getattr(oracles, row.oracle.__name__), row.name
        assert row.oracle is not oracles.convolve, row.name
        reads(row.oracle.__name__, {row.oracle.__name__})
