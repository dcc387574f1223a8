"""Command-line front end: argument parsing, one call of `verification.drive`
per priced job, and printing.

One command per process.  Every command echoes its configuration (the seed
of `verify` and `octahedron` included) into a versioned JSON report;
identical configuration and seed give byte-identical reports.  Exit status:
0 when every check passes, 1 on a failed assertion, 2 on configuration or
parse errors, 3 on budget refusal.
`norm`, `count`, `verify` and `octahedron --check lift` hand their parsed
options to `verification.drive`, which prices the whole job before it builds
or draws anything; this module prices nothing.
The catalog commands (`list`, `complexity`, `independence`, `normal-form`)
run `systems` and `algebra` alone, so these, `budget` and `reports` are the
only modules loaded at the top; `verification`, `counting`, `hypergraphs`
and `csv` are imported by the `_*_args` functions and handlers that use them,
and a catalog command never loads them.

A command line has two parse paths.  Where its first word names a command
and the rest is exact `--name value` options and flags (and the `verify`
experiment, anywhere), it is read against that command's `add_argument`
calls, recorded without building a parser, into the namespace the full
parser returns.  Any other line (help, an unknown or abbreviated option,
`--opt=value`, `--`, a repeated option, a missing or bad value, a missing
required option) goes to the full parser, `build_parser().parse_args(argv)`,
so help and error output are its own.
"""

from __future__ import annotations

import argparse
import math
import re
import sys

from .budget import BudgetExceededError
from .reports import dump_report, make_report
from .systems import (BUILTIN_SYSTEM_NAMES, conjectured_true_complexity,
                      cs_complexity, normal_form_check, power_independence,
                      resolve_system)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3


def _int_at_least(low):
    """argparse type: an integer >= low, refused at parse time (exit 2)."""
    def parse(text):
        if (value := int(text)) < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    parse.__name__ = "int"  # so that a non-integer reads "invalid int value"
    return parse


NONNEGATIVE_INT, POSITIVE_INT = _int_at_least(0), _int_at_least(1)


def _tolerance(text):
    """argparse type: a finite float >= 0, refused at parse time (exit 2);
    a negative or NaN tolerance fails every comparison, and NaN or infinity
    is no JSON number."""
    if not 0 <= (value := float(text)) < math.inf:
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text}")
    return value


_tolerance.__name__ = "float"  # so that a non-number reads "invalid float value"


def _common(p_cmd, p=5, n=2):
    p_cmd.add_argument("--p", type=int, default=p, help="odd prime modulus")
    p_cmd.add_argument("--n", type=POSITIVE_INT, default=n, help="dimension of F_p^n")
    p_cmd.add_argument("--budget", type=NONNEGATIVE_INT, default=None,
                       help="max scalar operations (default 1e10 or $UNIFORMITY_LAB_BUDGET)")
    p_cmd.add_argument("--out", help="write the JSON report to this path")


def _list_args(c):
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--csv", help="also write the catalog as a CSV table")
    c.add_argument("--out")


def _complexity_args(c):
    c.add_argument("--system", required=True,
                   help=f"built-in name ({', '.join(BUILTIN_SYSTEM_NAMES)}) or file")
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--out")


def _independence_args(c):
    c.add_argument("--system", required=True)
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--k", type=int, default=1, help="test (k+1)-st powers")
    c.add_argument("--out")


def _normal_form_args(c):
    c.add_argument("--system", required=True)
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--out")


def _norm_args(c):
    c.add_argument("--function", help="function file (complex/rational/indicator)")
    c.add_argument("--set", dest="set_name", choices=["quadzero"],
                   help="built-in set instead of a file")
    c.add_argument("--balanced", action="store_true",
                   help="recentre to mean zero: 1_A - density, or f - E f")
    c.add_argument("--k", type=int, default=2, help="norm degree (U^k)")
    c.add_argument("--method", choices=["direct", "fast"], default="direct",
                   help="direct: cube enumeration; fast: through the transform")
    _common(c)


def _count_args(c):
    from .counting import DUAL_AGREEMENT_TOL
    c.add_argument("--system", required=True)
    c.add_argument("--set", dest="set_name",
                   help="'quadzero' or a function/indicator file")
    c.add_argument("--method", choices=["direct", "dual", "both", "gauss", "all"],
                   default="both")
    c.add_argument("--degenerate", action="store_true",
                   help="also report the degenerate-solution fraction")
    c.add_argument("--tolerance", type=_tolerance, default=DUAL_AGREEMENT_TOL,
                   help="allowed direct-vs-dual gap for --method both and all")
    _common(c)


def _verify_args(c):
    from .verification import EXPERIMENTS
    c.add_argument("experiment", choices=tuple(EXPERIMENTS))
    c.add_argument("--system", default=None)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--d1", type=NONNEGATIVE_INT, default=1)
    c.add_argument("--d2", type=NONNEGATIVE_INT, default=1)
    c.add_argument("--seed", type=NONNEGATIVE_INT, default=1)
    _common(c)


def _octahedron_args(c):
    c.add_argument("--check", choices=["lift", "counterexample"], required=True)
    c.add_argument("--size", type=POSITIVE_INT, default=64,
                   help="vertex count for the counterexample")
    c.add_argument("--seed", type=NONNEGATIVE_INT, default=1)
    _common(c, p=3, n=2)


def build_parser() -> argparse.ArgumentParser:
    """The parser with every command, each a subparser."""
    parser = argparse.ArgumentParser(
        prog="uniformity-lab",
        description="Exact uniformity-norm, complexity and counting experiments over F_p^n.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (text, add_arguments, _) in COMMANDS.items():
        add_arguments(sub.add_parser(name, help=text))
    return parser


# the add_argument keywords and actions the plain read handles, on one
# `--name` flag or one positional a call; a command that uses anything else
# sends each of its lines to the full parser
PLAIN_KEYWORDS = frozenset({"action", "choices", "default", "dest", "help",
                            "required", "type"})
PLAIN_ACTIONS = (None, "store_true")
# a word argparse reads as a negative number, not as an option
NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class _Recorder:
    """Stands in for a command's parser: keeps its add_argument calls."""

    def __init__(self):
        self.calls = []

    def add_argument(self, *flags, **kw):
        self.calls.append((flags, kw))


def _typed(kw, text):
    """`text` through the option's type and choices; raises where argparse
    reports an error."""
    value = kw["type"](text) if kw.get("type") else text
    if kw.get("choices") is not None and value not in kw["choices"]:
        raise ValueError(f"invalid choice: {value!r}")
    return value


def _plain_read(argv: list[str]) -> argparse.Namespace | None:
    """The namespace of `build_parser().parse_args(argv)` for a line whose
    first word names a command and whose other words are its exact options,
    each given once as `--name value` (a value may be a negative number) or
    as a store_true flag, and its positionals, anywhere; None for any other
    line, and wherever argparse would report an error."""
    if not argv or argv[0] not in COMMANDS:
        return None
    recorder = _Recorder()
    COMMANDS[argv[0]][1](recorder)
    actions, options, pending = [], {}, []
    for flags, kw in recorder.calls:
        if len(flags) != 1 or not kw.keys() <= PLAIN_KEYWORDS or \
                kw.get("action") not in PLAIN_ACTIONS:
            return None
        (flag,) = flags
        if flag.startswith("--"):
            dest = kw.get("dest") or flag.lstrip("-").replace("-", "_")
            options[flag] = action = (dest, kw)
        elif flag.startswith("-"):
            return None
        else:
            pending.append(action := (flag, kw))
        actions.append(action)
    given = {}
    words = iter(argv[1:])
    try:
        for word in words:
            if word in options:
                dest, kw = options[word]
                if kw.get("action"):  # store_true
                    value = True
                else:
                    text = next(words, None)
                    if text is None or text.startswith("-") and \
                            not NEGATIVE_NUMBER.match(text):
                        return None
                    value = _typed(kw, text)
            elif pending and not word.startswith("-"):
                dest, kw = pending.pop(0)
                value = _typed(kw, word)
            else:
                return None
            if dest in given:
                return None
            given[dest] = value
        if pending:
            return None
        namespace = argparse.Namespace(command=argv[0])
        for dest, kw in actions:
            if dest in given:
                value = given[dest]
            elif kw.get("required"):
                return None
            else:
                value = kw.get("default", False if kw.get("action") else None)
                if isinstance(value, str) and kw.get("type"):
                    value = kw["type"](value)
            setattr(namespace, dest, value)
    except (argparse.ArgumentTypeError, TypeError, ValueError):
        return None
    return namespace


def parse_args(argv: list[str]) -> argparse.Namespace:
    """The namespace of `build_parser().parse_args(argv)`: the plain read's
    where it reads the line, else the full parser's, which prints help and
    errors and exits."""
    args = _plain_read(argv)
    return build_parser().parse_args(argv) if args is None else args


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _config(args) -> dict:
    """The report's echo of the command line: every parsed option but --out,
    each under its option name (--set's dest `set_name` reads as `set`)."""
    return {"set" if key == "set_name" else key: value
            for key, value in vars(args).items() if key not in ("command", "out")}


def cmd_list(args) -> list:
    # every system is resolved before any row is printed, so that a modulus
    # one of them refuses prints nothing
    systems = [resolve_system(name, args.p) for name in BUILTIN_SYSTEM_NAMES]
    results = []
    for name, sys_ in zip(BUILTIN_SYSTEM_NAMES, systems):
        cs = cs_complexity(sys_)
        true_k = conjectured_true_complexity(sys_)
        sq = power_independence(sys_, 1)
        results.append({"name": name, "m": sys_.m, "d": sys_.d,
                        "cs_complexity": None if math.isinf(cs) else int(cs),
                        "square_independent": sq,
                        "conjectured_true_complexity": true_k,
                        "passed": None})
        print(f"{name:7s} m={sys_.m} d={sys_.d} cs={cs} "
              f"square_independent={sq} conjectured_true={true_k}")
    if args.csv:
        import csv
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, ["name", "m", "d", "cs_complexity",
                                         "square_independent",
                                         "conjectured_true_complexity"],
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(results)
    return results


def cmd_complexity(args) -> list:
    sys_ = resolve_system(args.system, args.p)
    cs = cs_complexity(sys_)
    print("infinite" if math.isinf(cs) else int(cs))
    return [{"name": "cs_complexity", "system": sys_.name or args.system,
             "value": None if math.isinf(cs) else int(cs),
             "infinite": bool(math.isinf(cs)), "passed": None}]


def cmd_independence(args) -> list:
    sys_ = resolve_system(args.system, args.p)
    true_k = conjectured_true_complexity(sys_)
    indep = power_independence(sys_, args.k)
    print(f"power_independence(k={args.k}) = {indep}; "
          f"conjectured_true_complexity = {true_k}")
    return [{"name": f"power_independence_k{args.k}", "value": bool(indep),
             "conjectured_true_complexity": true_k, "passed": None}]


def cmd_normal_form(args) -> list:
    sys_ = resolve_system(args.system, args.p)
    witness = normal_form_check(sys_, args.s)
    if witness is None:
        print(f"not in {args.s}-normal form")
        return [{"name": "normal_form", "s": args.s, "witness": None,
                 "passed": None}]
    tau = [sorted(t) for t in witness.tau]
    print(f"in {args.s}-normal form; tau = {tau}")
    return [{"name": "normal_form", "s": args.s, "witness": tau, "passed": None}]


def cmd_norm(args) -> list:
    from .verification import drive
    (record,) = drive(("norm",), args)
    print(f"U^{args.k} = {_fmt(record['value'])} ({record['method']})")
    return [record]


def cmd_count(args) -> list:
    from .verification import drive
    (results,) = drive(("count",), args)
    for r in results:
        if r["name"].startswith("solution_probability"):
            print(f"P = {r['observed_exact']} = {_fmt(r['observed']['re'])}   "
                  f"alpha^m = {_fmt(r['reference']['re'])}   "
                  f"deviation = {_fmt(r['deviation'])}"
                  + (" (gauss)" if r["method"] == "gauss" else ""))
        elif r["name"] == "direct_vs_dual":
            print(f"direct vs dual gap = {r['gap']:.3g} "
                  f"({'ok' if r['passed'] else 'MISMATCH'})")
        elif r["name"] == "gauss_vs_direct":
            print(f"gauss vs direct: {'exact match' if r['passed'] else 'MISMATCH'}")
    return results


def cmd_verify(args) -> list:
    """The requested experiment's reports, and under `all` a record for each
    experiment skipped because its default system is invalid at p."""
    from .verification import EXPERIMENTS, DefaultSystemError, drive
    results = []
    names = EXPERIMENTS[args.experiment]
    for name, rep in zip(names, drive(names, args, skip=args.experiment == "all")):
        if isinstance(rep, DefaultSystemError):
            results.append({"name": name, "skipped": str(rep), "passed": None})
            print(f"{name}: skipped  {rep}")
            continue
        results.append(rep.to_dict())
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {status}  " +
              " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                       for k, v in rep.observed.items()
                       if isinstance(v, (int, float))))
    return results


def cmd_octahedron(args) -> list:
    if args.check == "lift":
        from .verification import drive
        (record,) = drive(("lift",), args)
        print(f"octahedral = {_fmt(record['octahedral'])}  U^3 = {_fmt(record['u3'])}  "
              f"gap = {record['gap']:.3g}")
        return [record]
    from .hypergraphs import vertex_uniformity_counterexample
    rep = vertex_uniformity_counterexample(args.seed, args.size, budget=args.budget)
    status = "pass" if rep.passed else "FAIL"
    print(f"counterexample: {status}  value = "
          f"{_fmt(rep.observed['double_edge_average'])}  (5/18 = {_fmt(5 / 18)})")
    return [rep.to_dict()]


# name -> (help, arguments, handler), in the order of the help listing
COMMANDS = {
    "list": ("catalog of built-in systems with invariants", _list_args, cmd_list),
    "complexity": ("partition complexity of a system", _complexity_args,
                   cmd_complexity),
    "independence": ("power independence of a system", _independence_args,
                     cmd_independence),
    "normal-form": ("normal-form witness search", _normal_form_args,
                    cmd_normal_form),
    "norm": ("uniformity norm of a function", _norm_args, cmd_norm),
    "count": ("configuration count for a set or functions", _count_args, cmd_count),
    "verify": ("run a named verification experiment", _verify_args, cmd_verify),
    "octahedron": ("tripartite-function checks", _octahedron_args, cmd_octahedron),
}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        results = COMMANDS[args.command][2](args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    report = make_report(args.command, _config(args), results)
    out = getattr(args, "out", None)
    text = dump_report(report, out)
    if not out:
        print(text, end="")
    return EXIT_OK if report["passed"] else EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
