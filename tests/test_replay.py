"""The replay corpus: every command line of tests/replay/lines.txt runs
through `cli.main`, and what it gives must match tests/replay/recorded.json.

On every interpreter, a line's exit code and the sha256 of its report's
exact part must match: the report without `versions`, each float replaced
by a placeholder.  Where the running environment is the recorded one (the
report's versions, the BLAS build, the CPU model and the BLAS thread
variables), the floats must match bit for bit, and stdout and stderr (which
print floats) by sha256.  Elsewhere each float must lie within the corpus
file's bound of its recorded value.

Regenerate the corpus with `PYTHONPATH=src python tests/test_replay.py`,
only for a deliberate change of output, and list every changed line in
CHANGES.md.
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import random
import re
import shlex
import tempfile
from itertools import product
from pathlib import Path

import numpy
import pytest

from uniformity_lab.cli import main
from uniformity_lab.reports import versions
from uniformity_lab.systems import builtin_system
from uniformity_lab_console import BLAS_THREAD_VARS

REPLAY = Path(__file__).resolve().parent / "replay"


def read_sections(path: Path) -> dict:
    """{name: its lines} of the line list: "[name]" starts a section, and
    blank lines and "#" comments are skipped."""
    sections = {}
    for text in path.read_text(encoding="utf-8").splitlines():
        if text.startswith("["):
            lines = sections.setdefault(text.strip("[]"), [])
        elif text and not text.startswith("#"):
            lines.append(text)
    return sections


SECTIONS = read_sections(REPLAY / "lines.txt")
LINES = list(dict.fromkeys(line for lines in SECTIONS.values() for line in lines))
CORPUS = json.loads((REPLAY / "recorded.json").read_text(encoding="utf-8"))
COLUMNS = "80"  # argparse wraps help to the terminal width
# read at import, before any test sets them; BLAS read them when numpy loaded
BLAS_THREADS = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}

SEEDS = (7, 23)


def write_inputs(root="."):
    """Write the files the lines name into `root`: per seed, the benchmark's
    kinds of function, set and system file; then the files of the [paths]
    and [files] lines.  Drawn by `random.random`, whose stream every Python
    version keeps."""
    def write(name, doc):
        (Path(root) / name).write_text(json.dumps(doc, sort_keys=True), encoding="utf-8")

    def unitriangular(d, p):
        return [[int(i == j) if j <= i else int(rng.random() * p) for j in range(d)]
                for i in range(d)]

    def values(N):
        return [[rng.random() - 0.5, rng.random() - 0.5] for _ in range(N)]

    for seed in SEEDS:
        rng = random.Random(seed)
        write(f"bounded{seed}.json", {"p": 3, "n": 2, "mode": "complex", "values": values(9)})
        T = unitriangular(2, 3)
        write(f"qz{seed}.json", {"p": 3, "n": 2, "mode": "indicator", "members": [
            x for x in product(range(3), repeat=2)
            if sum(sum(t * c for t, c in zip(row, x)) ** 2 for row in T) % 3 == 0]})
        write(f"set{seed}.json", {"p": 5, "n": 2, "mode": "indicator", "members": [
            x for x in product(range(5), repeat=2) if rng.random() < 0.5]})
        for name, p in (("ap3", 5), ("gw6b", 5), ("nf4", 7), ("cube7", 3)):
            rows = builtin_system(name, p).coeffs.tolist()
            T = unitriangular(d := len(rows[0]), p)
            forms = [[sum(r[u] * T[u][v] for u in range(d)) % p for v in range(d)]
                     for r in rows]
            write(f"{name}_{seed}.json", {"p": p, "d": d, "name": name, "forms": forms})
        m, d, p = (12, 5, 7) if seed == SEEDS[0] else (9, 3, 5)  # a random catalog system
        forms = set()
        while len(forms) < m:
            row = tuple(int(rng.random() * p) for _ in range(d))
            if any(row):
                forms.add(row)
        write(f"rand{seed}.json", {"p": p, "d": d, "forms": sorted(forms)})
    rng = random.Random(1)
    write("complex.json", {"p": 5, "n": 2, "mode": "complex", "values": values(25)})
    write("rational.json", {"p": 3, "n": 2, "mode": "rational", "values": [
        f"{int(rng.random() * 11) - 5}/{int(rng.random() * 3) + 1}" for _ in range(9)]})
    write("bad_rational.json", {"p": 3, "n": 1, "mode": "rational", "values": [0.1, "1/2", 1]})
    write("parallel.json", {"p": 5, "d": 1, "forms": [[1], [2]]})
    write("pairs.json", {"p": 5, "d": 2, "name": "pairs", "forms": [[1, 0], [1, 1]],
                         "rows": "integer"})
    for name, field, value in (("forms", "forms", [[1, 0], [1, 1.5], [1, 2]]),
                               ("true_forms", "forms", [[1, 0], [1, True], [1, 2]]),
                               ("p", "p", 7.0), ("true_d", "d", True)):
        write(f"bad_{name}.json", {"p": 7, "d": 2, "forms": [[1, 0], [1, 1], [1, 2]],
                                   field: value})
    for name, field, value in (("member", "members", [[0, 0], [0, 0.9]]),
                               ("n", "n", 2.0), ("true_p", "p", True)):
        write(f"bad_{name}.json", {"p": 5, "n": 2, "mode": "indicator",
                                   "members": [[0, 0]], field: value})


def environment() -> dict:
    """What float bits and printed output may depend on."""
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):  # numpy before 1.25 has no dict mode
        blas = None
    try:
        cpu = re.search(r"^model name\s*:\s*(.*)$", Path("/proc/cpuinfo").read_text(),
                        re.M)[1]
    except (OSError, TypeError):
        cpu = platform.processor()
    return {"versions": versions(), "blas": blas, "cpu": cpu, "blas_threads": BLAS_THREADS}


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def replay(line: str) -> dict:
    """Run one line in the working directory: its exit code, the sha256 of
    its report's exact part and the report's floats (key order), and the
    sha256 of stdout and stderr."""
    argv = shlex.split(line)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else None
    if out:
        out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # help and parse errors
            code = exc.code
    printed = stdout.getvalue().splitlines(keepends=True)
    if out and out.exists():
        report = json.loads(out.read_text(encoding="utf-8"))
    else:  # printed after the summary, if any
        report = json.loads("".join(printed[printed.index("{\n"):])) \
            if "{\n" in printed else None
    floats = []

    def exact(obj):
        if isinstance(obj, float):
            floats.append(obj)
            return "<float>"
        if isinstance(obj, dict):
            return {key: exact(obj[key]) for key in sorted(obj) if key != "versions"}
        return [exact(item) for item in obj] if isinstance(obj, list) else obj

    return {"exit": code, "exact": None if report is None else sha(json.dumps(exact(report))),
            "floats": floats, "stdout": sha("".join(printed)),
            "stderr": sha(stderr.getvalue())}


def difference(got: dict, want: dict, same_environment: bool, bound: dict):
    """The first part of `got` that differs from the recorded `want`, or None."""
    for key in ("exit", "exact"):
        if got[key] != want[key]:
            return key
    if len(got["floats"]) != len(want["floats"]):
        return "float count"
    for i, (a, b) in enumerate(zip(got["floats"], want["floats"])):
        close = a.hex() == b.hex() if same_environment else \
            abs(a - b) <= bound["abs"] + bound["rel"] * abs(b)
        if not close:
            return f"float {i}: {a!r}, recorded {b!r}"
    for key in ("stdout", "stderr") if same_environment else ():
        if got[key] != want[key]:
            return key
    return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    root = tmp_path_factory.mktemp("replay")
    write_inputs(root)
    return root


def test_recorded_lines_are_the_line_list():
    assert list(CORPUS["lines"]) == LINES


def check(lines, root, monkeypatch):
    """Replay `lines` in `root` and assert each matches its record."""
    monkeypatch.chdir(root)
    monkeypatch.setenv("COLUMNS", COLUMNS)
    same = CORPUS["environment"] == environment()
    wrong = [(line, difference(replay(line), CORPUS["lines"][line], same, CORPUS["bound"]))
             for line in lines]
    assert [pair for pair in wrong if pair[1]] == []


@pytest.mark.parametrize("section", [name for name in SECTIONS if name != "golden"])
def test_replay(section, workdir, monkeypatch):  # tests/test_golden.py runs [golden]
    check(SECTIONS[section], workdir, monkeypatch)


if __name__ == "__main__":
    records = {}
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        os.environ["COLUMNS"] = COLUMNS
        write_inputs()
        for line in LINES:
            records[line] = replay(line)
    head = json.dumps({"bound": CORPUS["bound"], "environment": environment()},
                      indent=1, sort_keys=True)
    body = ",\n".join(f" {json.dumps(line)}: {json.dumps(record, sort_keys=True)}"
                      for line, record in records.items())
    (REPLAY / "recorded.json").write_text(f'{head[:-2]},\n "lines": {{\n{body}\n }}\n}}\n',
                                          encoding="utf-8")
