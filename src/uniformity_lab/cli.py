"""Command-line front end.

One command per process.  Every command echoes its configuration (seed
included) into a versioned JSON report; identical configuration and seed
give byte-identical reports.  Exit status: 0 when every check passes, 1 on
a failed assertion, 2 on configuration or parse errors, 3 on budget refusal.

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
import csv
import math
import re
import sys
from fractions import Fraction

import numpy as np

from .algebra import check_modulus
from .budget import BudgetExceededError
from .counting import (DUAL_AGREEMENT_TOL, _check_average_budget,
                       _check_gauss_budget, average_product_direct,
                       average_product_dual, count_solutions, direct_op_count,
                       quadratic_zero_count, quadratic_zero_op_count)
from .domains import domain
from .functions import (IndicatorSet, _check_direct_budget, _check_fast_budget,
                        balanced, load_function, random_bounded_function,
                        uk_norm, uk_norm_fast)
from .reports import dump_report, make_report
from .systems import (BUILTIN_SYSTEM_NAMES, conjectured_true_complexity,
                      cs_complexity, normal_form_check, power_independence,
                      resolve_system)
from .verification import (ComplexityPreconditionError, SquareDependenceError,
                           _price_atoms, _price_gvn, _price_projections,
                           _require_square_independent, atom_distribution,
                           dot_factor, gauss_sum_report, quadratic_zero_set,
                           quadratic_zero_set_report, random_factor,
                           verify_badex, verify_bound1, verify_completefactor,
                           verify_gvn, verify_projection_lemmas,
                           verify_pythagoras, verify_quadfactor)
from .hypergraphs import (_check_octahedral_budget, lift, octahedral_norm,
                          vertex_uniformity_counterexample)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

VERIFY_EXPERIMENTS = ("gauss", "badex", "gvn", "atoms", "quadfactor",
                      "completefactor", "projections", "bound1",
                      "pythagoras", "all")


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


def _common(p_cmd, p=5, n=2, seed=1):
    p_cmd.add_argument("--p", type=int, default=p, help="odd prime modulus")
    p_cmd.add_argument("--n", type=POSITIVE_INT, default=n, help="dimension of F_p^n")
    p_cmd.add_argument("--seed", type=NONNEGATIVE_INT, default=seed)
    p_cmd.add_argument("--budget", type=NONNEGATIVE_INT, default=None,
                       help="max scalar operations (default 1e10 or $UNIFORMITY_LAB_BUDGET)")
    p_cmd.add_argument("--out", help="write the JSON report to this path")


def _threads(p_cmd):
    p_cmd.add_argument("--threads", type=POSITIVE_INT, default=1,
                       help="worker threads; 1 is the bit-reproducible mode")


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
                   help="recentre an indicator input to mean zero")
    c.add_argument("--k", type=int, default=2, help="norm degree (U^k)")
    c.add_argument("--method", choices=["direct", "fast"], default="direct",
                   help="direct: cube enumeration; fast: through the transform")
    _common(c)


def _count_args(c):
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
    _threads(c)


def _verify_args(c):
    c.add_argument("experiment", choices=VERIFY_EXPERIMENTS)
    c.add_argument("--system", default=None)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--d1", type=NONNEGATIVE_INT, default=1)
    c.add_argument("--d2", type=NONNEGATIVE_INT, default=1)
    _common(c)
    _threads(c)


def _octahedron_args(c):
    c.add_argument("--check", choices=["lift", "counterexample"], required=True)
    c.add_argument("--size", type=POSITIVE_INT, default=64,
                   help="vertex count for the counterexample")
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


def _cx(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def _config(args) -> dict:
    """The report's echo of the command line: every parsed option but --out,
    each under its option name (--set's dest `set_name` reads as `set`)."""
    return {"set" if key == "set_name" else key: value
            for key, value in vars(args).items() if key not in ("command", "out")}


def cmd_list(args) -> tuple[int, dict]:
    # every system is resolved before any row is printed, so that a modulus
    # one of them refuses prints nothing
    systems = [resolve_system(name, args.p) for name in BUILTIN_SYSTEM_NAMES]
    results = []
    for name, sys_ in zip(BUILTIN_SYSTEM_NAMES, systems):
        cs = cs_complexity(sys_)
        true_k = conjectured_true_complexity(sys_)
        # the search tests k = 1 first, and every odd prime allows it
        sq = true_k == 1
        results.append({"name": name, "m": sys_.m, "d": sys_.d,
                        "cs_complexity": None if math.isinf(cs) else int(cs),
                        "square_independent": sq,
                        "conjectured_true_complexity": true_k,
                        "passed": None})
        print(f"{name:7s} m={sys_.m} d={sys_.d} cs={cs} "
              f"square_independent={sq} conjectured_true={true_k}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, ["name", "m", "d", "cs_complexity",
                                         "square_independent",
                                         "conjectured_true_complexity"],
                                    extrasaction="ignore")
            writer.writeheader()
            writer.writerows(results)
    return EXIT_OK, make_report("list", _config(args), results)


def cmd_complexity(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    cs = cs_complexity(sys_)
    print("infinite" if math.isinf(cs) else int(cs))
    results = [{"name": "cs_complexity", "system": sys_.name or args.system,
                "value": None if math.isinf(cs) else int(cs),
                "infinite": bool(math.isinf(cs)), "passed": None}]
    return EXIT_OK, make_report("complexity", _config(args), results)


def cmd_independence(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    true_k = conjectured_true_complexity(sys_)
    # The search tests k = 1, 2, ... up to min(m, p - 2) and stops at the
    # first independent order, and independence is monotone in k while
    # p > k + 1.  So only a k beyond m with no independent order found is
    # tested anew, and a k outside 1 <= k < p - 1 is refused by that test.
    if not 1 <= args.k < sys_.p - 1 or true_k is None and args.k > sys_.m:
        indep = power_independence(sys_, args.k)
    else:
        indep = true_k is not None and true_k <= args.k
    print(f"power_independence(k={args.k}) = {indep}; "
          f"conjectured_true_complexity = {true_k}")
    results = [{"name": f"power_independence_k{args.k}", "value": bool(indep),
                "conjectured_true_complexity": true_k, "passed": None}]
    return EXIT_OK, make_report("independence", _config(args), results)


def cmd_normal_form(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    witness = normal_form_check(sys_, args.s)
    if witness is None:
        print(f"not in {args.s}-normal form")
        results = [{"name": "normal_form", "s": args.s, "witness": None,
                    "passed": None}]
    else:
        tau = [sorted(t) for t in witness.tau]
        print(f"in {args.s}-normal form; tau = {tau}")
        results = [{"name": "normal_form", "s": args.s, "witness": tau,
                    "passed": None}]
    return EXIT_OK, make_report("normal-form", _config(args), results)


def _load_cli_function(args):
    if args.function:
        obj = load_function(args.function)
    elif args.set_name == "quadzero":
        obj = quadratic_zero_set(args.p, args.n)
    else:
        raise ValueError("provide --function FILE or --set quadzero")
    if isinstance(obj, IndicatorSet):
        return balanced(obj) if args.balanced else obj.to_function()
    return obj


def cmd_norm(args) -> tuple[int, dict]:
    if args.set_name == "quadzero" and not args.function and args.k >= 2:
        # refuse before the set and its complex table are built
        check = _check_fast_budget if args.method == "fast" else _check_direct_budget
        check(domain(args.p, args.n), args.k, args.budget)
    f = _load_cli_function(args)
    dom = f.domain
    if args.method == "fast":
        value = uk_norm_fast(f, args.k, budget=args.budget)
        method = "fourier"
    else:
        value = uk_norm(f, args.k, budget=args.budget)
        method = "direct"
    record = {"name": f"U{args.k}_norm", "norm": f"U{args.k}", "value": value,
              "method": method, "domain": {"p": dom.p, "n": dom.n},
              "passed": None}
    print(f"U^{args.k} = {_fmt(value)} ({method})")
    return EXIT_OK, make_report("norm", _config(args), [record])


COUNT_METHODS = {"direct": ("direct",), "dual": ("dual",),
                 "both": ("direct", "dual"), "gauss": ("gauss",),
                 "all": ("direct", "dual", "gauss")}


def _probability(name, count, total, alpha, m, method, op_count,
                 degenerate=None) -> dict:
    """The record of P = count / total against alpha^m, printed as a P line;
    `degenerate`, the solutions with two coinciding form images, adds their
    fraction of the count."""
    observed = Fraction(count, total)
    reference = alpha**m
    deviation = abs(float(observed) - float(reference))
    record = {"name": name, "observed": _cx(float(observed)),
              "reference": _cx(float(reference)), "deviation": deviation,
              "bound": None, "method": method, "op_count": op_count,
              "observed_exact": str(observed), "reference_exact": str(reference),
              "passed": None}
    if degenerate is not None:
        record["degenerate_fraction"] = \
            float(Fraction(degenerate, count)) if count else 0.0
    print(f"P = {observed} = {_fmt(float(observed))}   "
          f"alpha^m = {_fmt(float(reference))}   deviation = {_fmt(deviation)}"
          + (" (gauss)" if method == "gauss" else ""))
    return record


def cmd_count(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    methods = COUNT_METHODS[args.method]
    results = []
    indicator = None
    if "gauss" in methods and args.set_name != "quadzero":
        raise ValueError("--method gauss and all count --set quadzero only")
    if not args.set_name:
        raise ValueError("provide --set quadzero or a function/indicator file")
    obj = load_function(args.set_name) if args.set_name != "quadzero" else None
    if args.degenerate and not ("direct" in methods and (
            obj is None or isinstance(obj, IndicatorSet))):
        raise ValueError("--degenerate needs the direct count of an indicator "
                         "set (--method direct, both or all)")
    if obj is None:
        # refuse each method over budget before the set is built
        if "gauss" in methods:
            _check_gauss_budget(sys_.m, sys_.d, args.n, args.p, args.budget)
        for method in ("direct", "dual"):
            if method in methods:
                _check_average_budget(sys_, domain(args.p, args.n),
                                      method == "dual", args.budget)
        if methods != ("gauss",):
            indicator = quadratic_zero_set(args.p, args.n)
    elif isinstance(obj, IndicatorSet):
        indicator = obj
    else:
        fs = [obj] * sys_.m

    exit_code = EXIT_OK
    if indicator is not None:
        fs = [indicator.to_function()] * sys_.m
        if "direct" in methods:
            dom = indicator.domain
            count, degenerate = count_solutions(
                sys_, indicator, budget=args.budget, threads=args.threads,
                with_degenerate=args.degenerate)
            entry = _probability("solution_probability", count, dom.size**sys_.d,
                                 indicator.density, sys_.m, "direct",
                                 direct_op_count(sys_, dom), degenerate)
            results.append(entry)
            # 0/1 products sum exactly: the average is count / N^d
            direct = complex(entry["observed"]["re"])
            direct_exact = entry["observed_exact"]
    if "direct" in methods:
        if indicator is None:
            direct = average_product_direct(sys_, fs, budget=args.budget,
                                            threads=args.threads)
        results.append({"name": "average_direct", "value": _cx(direct),
                        "passed": None})
    if "dual" in methods:
        dual = average_product_dual(sys_, fs, budget=args.budget,
                                    threads=args.threads)
        results.append({"name": "average_dual", "value": _cx(dual),
                        "passed": None})
    if "direct" in methods and "dual" in methods:
        gap = abs(direct - dual)
        ok = gap <= args.tolerance
        results.append({"name": "direct_vs_dual", "gap": gap,
                        "tolerance": args.tolerance, "passed": bool(ok)})
        print(f"direct vs dual gap = {gap:.3g} ({'ok' if ok else 'MISMATCH'})")
        if not ok:
            exit_code = EXIT_FAIL
    if "gauss" in methods:
        # the count and alpha (the m = d = 1 count over p^n) by the closed
        # form: no domain is built and n may be any size
        p, n, dot = args.p, args.n, np.eye(args.n, dtype=np.int64)
        count = quadratic_zero_count(sys_.coeffs, dot, p, args.budget)
        alpha = Fraction(quadratic_zero_count([[1]], dot, p, args.budget), p**n)
        entry = _probability("solution_probability_gauss", count, p ** (n * sys_.d),
                             alpha, sys_.m, "gauss",
                             quadratic_zero_op_count(sys_.m, sys_.d, n, p))
        results.append(entry)
        if "direct" in methods:
            same = entry["observed_exact"] == direct_exact
            results.append({"name": "gauss_vs_direct", "exact_match": same,
                            "passed": same})
            print(f"gauss vs direct: {'exact match' if same else 'MISMATCH'}")
            if not same:
                exit_code = EXIT_FAIL
    return exit_code, make_report("count", _config(args), results)


def _experiment_reports(args) -> list:
    """Build and run the requested experiment(s); returns ExperimentReports,
    and under `all` a result record for each experiment skipped because its
    default system is invalid at p."""
    p, n, seed = check_modulus(args.p), args.n, args.seed
    rng = np.random.default_rng(seed)
    name = args.experiment
    reports = []

    def system(experiment, default):
        """The --system system, else `default`; None when `default` is
        invalid at p under `all`, which then records the experiment as
        skipped instead of ending the run."""
        if args.system:
            return resolve_system(args.system, p)
        try:
            return resolve_system(default, p)
        except ValueError as exc:
            reason = (f"default system {default} is invalid at p = {p} ({exc}); "
                      f"choose another with --system")
            if name != "all":
                raise ValueError(reason) from exc
            reports.append({"name": experiment, "skipped": reason, "passed": None})
            return None

    if name in ("gauss", "all"):
        reports.append(gauss_sum_report(dot_factor(p, n).gamma2.forms[0],
                                        budget=args.budget))
        reports.append(quadratic_zero_set_report(p, n, budget=args.budget))
    if name in ("badex", "all") and (sys_ := system("badex", "gw6a")):
        reports.append(verify_badex(sys_, n, budget=args.budget,
                                    threads=args.threads))
    if name in ("gvn", "all") and (sys_ := system("gvn", "ap3")):
        priced = _price_gvn(sys_, domain(p, n), args.k, args.budget)  # before drawing
        fs = [random_bounded_function(domain(p, n), rng) for _ in range(sys_.m)]
        reports.append(verify_gvn(sys_, fs, budget=args.budget,
                                  threads=args.threads, priced=priced))
    if name in ("atoms", "all"):
        _price_atoms(p, n, args.d1, args.d2, args.budget)  # before drawing
        factor = random_factor(p, n, args.d1, args.d2, rng)
        reports.append(atom_distribution(factor, budget=args.budget))
    if name in ("quadfactor", "all") and (sys_ := system("quadfactor", "gw6b")):
        reports.append(verify_quadfactor(sys_, dot_factor(p, n).gamma2,
                                         budget=args.budget, threads=args.threads))
    if name in ("completefactor", "all") and (sys_ := system("completefactor", "gw6b")):
        reports.append(verify_completefactor(
            sys_, dot_factor(p, n, args.d1), [[0] * args.d1] * sys_.m,
            [[0]] * sys_.m, budget=args.budget, threads=args.threads))
    if name in ("projections", "all"):
        _price_projections(domain(p, n), args.budget)  # before drawing
        f = random_bounded_function(domain(p, n), rng)
        factor = random_factor(p, n, args.d1, args.d2, rng)
        reports.append(verify_projection_lemmas(f, factor, budget=args.budget))
    if name in ("bound1", "all") and (sys_ := system("bound1", "gw6b")):
        # the precondition, then the U^2 norm's price, before the set is built
        _require_square_independent(sys_)
        _check_fast_budget(domain(p, n), 2, args.budget)
        f = balanced(quadratic_zero_set(p, n))
        reports.append(verify_bound1(f, dot_factor(p, n), sys_, budget=args.budget,
                                     threads=args.threads))
    if name in ("pythagoras", "all"):
        _check_fast_budget(domain(p, n), 3, args.budget)  # before the set is built
        f = balanced(quadratic_zero_set(p, n)).scaled(0.5)
        reports.append(verify_pythagoras(f, 0.5, budget=args.budget))
    return reports


def cmd_verify(args) -> tuple[int, dict]:
    reports = _experiment_reports(args)
    results = []
    ok = True
    for rep in reports:
        if isinstance(rep, dict):
            results.append(rep)
            print(f"{rep['name']}: skipped  {rep['skipped']}")
            continue
        results.append(rep.to_dict())
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {status}  " +
              " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                       for k, v in rep.observed.items()
                       if isinstance(v, (int, float))))
        ok &= rep.passed
    return (EXIT_OK if ok else EXIT_FAIL), \
        make_report("verify", _config(args), results)


def cmd_octahedron(args) -> tuple[int, dict]:
    config = _config(args)
    if args.check == "lift":
        # refuse before g is drawn and the lift builds its N x N x N tables
        dom = domain(args.p, args.n)
        _check_octahedral_budget((dom.size,) * 3, args.budget)
        g = random_bounded_function(dom, np.random.default_rng(args.seed))
        oct_norm = octahedral_norm(lift(g), budget=args.budget)
        direct = uk_norm(g, 3, budget=args.budget)
        gap = abs(oct_norm - direct)
        ok = gap <= 1e-9
        print(f"octahedral = {_fmt(oct_norm)}  U^3 = {_fmt(direct)}  gap = {gap:.3g}")
        results = [{"name": "lift_identity", "octahedral": oct_norm,
                    "u3": direct, "gap": gap, "passed": bool(ok)}]
        return (EXIT_OK if ok else EXIT_FAIL), make_report("octahedron", config, results)
    rep = vertex_uniformity_counterexample(args.seed, args.size, budget=args.budget)
    status = "pass" if rep.passed else "FAIL"
    print(f"counterexample: {status}  value = "
          f"{_fmt(rep.observed['double_edge_average'])}  (5/18 = {_fmt(5 / 18)})")
    return (EXIT_OK if rep.passed else EXIT_FAIL), \
        make_report("octahedron", config, [rep.to_dict()])


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
        code, report = COMMANDS[args.command][2](args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, SquareDependenceError,
            ComplexityPreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = getattr(args, "out", None)
    text = dump_report(report, out)
    if not out:
        print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
