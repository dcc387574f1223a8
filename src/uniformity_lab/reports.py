"""Versioned JSON report envelope shared by every CLI command.

A report is {schema_version, command, config, versions, results, passed}.
Each result entry carries a name, a passed verdict (which may be null for
purely informational records) and arbitrary numeric detail; an
experiment's entry is its ExperimentReport's `to_dict`.  Reports contain
no timestamps, so identical configuration and seed produce byte-identical
files.
"""

from __future__ import annotations

import json
import platform
from dataclasses import dataclass, field
from typing import Any, Optional

import numpy

from . import __version__

SCHEMA_VERSION = "1"

FLOAT_SLACK = 1e-9


@dataclass(frozen=True)
class Check:
    """One comparison; `passed` is derived from the stored numbers."""

    name: str
    lhs: float
    rhs: float
    relation: str = "<="  # "<=" or "=="
    tolerance: float = FLOAT_SLACK
    derived_tolerance: bool = False
    exact_verdict: Optional[bool] = None  # from an exact rational comparison

    @property
    def passed(self) -> bool:
        if self.exact_verdict is not None:
            return self.exact_verdict
        if self.relation == "<=":
            return self.lhs <= self.rhs + self.tolerance
        if self.relation == "==":
            return abs(self.lhs - self.rhs) <= self.tolerance
        raise ValueError(f"unknown relation {self.relation!r}")

    def to_dict(self) -> dict:
        out = {"name": self.name, "lhs": float(self.lhs), "rhs": float(self.rhs),
               "relation": self.relation, "tolerance": float(self.tolerance),
               "passed": bool(self.passed)}
        if self.derived_tolerance:
            out["derived_tolerance"] = True
        if self.exact_verdict is not None:
            out["exact_verdict"] = bool(self.exact_verdict)
        return out


@dataclass
class ExperimentReport:
    name: str
    parameters: dict = field(default_factory=dict)
    observed: dict = field(default_factory=dict)
    checks: list[Check] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add_check(self, *args, **kwargs) -> Check:
        c = Check(*args, **kwargs)
        self.checks.append(c)
        return c

    def to_dict(self) -> dict:
        return {"name": self.name,
                "parameters": self.parameters,
                "observed": self.observed,
                "checks": [c.to_dict() for c in self.checks],
                "passed": self.passed}


def versions() -> dict:
    return {
        "uniformity_lab": __version__,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def make_report(command: str, config: dict, results: list[dict]) -> dict:
    passed = all(r.get("passed") is not False for r in results)
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "versions": versions(),
        "results": results,
        "passed": passed,
    }


def _jsonable(obj):
    if isinstance(obj, (numpy.bool_, numpy.integer, numpy.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def dump_report(report: dict, path: str | None) -> str:
    text = json.dumps(report, indent=1, sort_keys=True, default=_jsonable) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    return text


_TOP_LEVEL = {
    "schema_version": str,
    "command": str,
    "config": dict,
    "versions": dict,
    "results": list,
    "passed": bool,
}


def validate_report(obj: Any) -> list[str]:
    """Structural validation; returns a list of problems (empty means valid)."""
    problems: list[str] = []
    if not isinstance(obj, dict):
        return ["report is not an object"]
    for key, typ in _TOP_LEVEL.items():
        if key not in obj:
            problems.append(f"missing key {key!r}")
        elif not isinstance(obj[key], typ):
            problems.append(f"key {key!r} has type {type(obj[key]).__name__}, "
                            f"expected {typ.__name__}")
    if problems:
        return problems
    if obj["schema_version"] != SCHEMA_VERSION:
        problems.append(f"unknown schema version {obj['schema_version']!r}")
    for missing in ({"uniformity_lab", "python", "numpy"} - set(obj["versions"])):
        problems.append(f"versions missing {missing!r}")
    for i, res in enumerate(obj["results"]):
        if not isinstance(res, dict):
            problems.append(f"results[{i}] is not an object")
            continue
        if "name" not in res or not isinstance(res["name"], str):
            problems.append(f"results[{i}] missing string name")
        if "passed" in res and not isinstance(res["passed"], (bool, type(None))):
            problems.append(f"results[{i}].passed is not boolean or null")
    declared = obj["passed"]
    recomputed = all(r.get("passed") is not False
                     for r in obj["results"] if isinstance(r, dict))
    if declared != recomputed:
        problems.append("top-level passed does not match the results")
    return problems
