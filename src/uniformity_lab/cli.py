"""Command-line front end.

One command per process.  Every command echoes its configuration (seed
included) into a versioned JSON report; identical configuration and seed
give byte-identical reports.  Exit status: 0 when every check passes, 1 on
a failed assertion, 2 on configuration or parse errors, 3 on budget refusal.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import numpy as np

from .algebra import QuadraticForm
from .budget import BudgetExceededError
from .counting import (DUAL_AGREEMENT_TOL, average_product_direct,
                       average_product_dual, solution_probability)
from .domains import domain
from .functions import (IndicatorSet, balanced, load_function,
                        random_bounded_function, uk_norm, uk_norm_fast)
from .reports import dump_report, make_report
from .systems import (BUILTIN_SYSTEM_NAMES, TrueComplexityUndecided,
                      conjectured_true_complexity, cs_complexity,
                      normal_form_check, power_independence, resolve_system)
from .verification import (ComplexityPreconditionError, QuadraticFactor,
                           QuadraticMap, SquareDependenceError,
                           atom_distribution, gauss_sum_report,
                           quadratic_zero_set, quadratic_zero_set_report,
                           random_factor, verify_badex, verify_bound1,
                           verify_completefactor, verify_gvn,
                           verify_projection_lemmas, verify_pythagoras,
                           verify_quadfactor)
from .hypergraphs import (lift, octahedral_norm,
                          vertex_uniformity_counterexample)

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

VERIFY_EXPERIMENTS = ("gauss", "badex", "gvn", "atoms", "quadfactor",
                      "completefactor", "projections", "bound1",
                      "pythagoras", "all")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uniformity-lab",
        description="Exact uniformity-norm, complexity and counting experiments over F_p^n.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p_cmd, p=5, n=2, seed=1):
        p_cmd.add_argument("--p", type=int, default=p, help="odd prime modulus")
        p_cmd.add_argument("--n", type=int, default=n, help="dimension of F_p^n")
        p_cmd.add_argument("--seed", type=int, default=seed)
        p_cmd.add_argument("--budget", type=int, default=None,
                           help="max scalar operations (default 1e10 or $UNIFORMITY_LAB_BUDGET)")
        p_cmd.add_argument("--threads", type=int, default=1,
                           help="worker threads; 1 is the bit-reproducible mode")
        p_cmd.add_argument("--tolerance", type=float, default=DUAL_AGREEMENT_TOL,
                           help="allowed direct-vs-dual gap for count --method both")
        p_cmd.add_argument("--out", help="write the JSON report to this path")

    c = sub.add_parser("list", help="catalog of built-in systems with invariants")
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--csv", help="also write the catalog as a CSV table")
    c.add_argument("--out")

    c = sub.add_parser("complexity", help="partition complexity of a system")
    c.add_argument("--system", required=True,
                   help=f"built-in name ({', '.join(BUILTIN_SYSTEM_NAMES)}) or file")
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--out")

    c = sub.add_parser("independence", help="power independence of a system")
    c.add_argument("--system", required=True)
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--k", type=int, default=1, help="test (k+1)-st powers")
    c.add_argument("--out")

    c = sub.add_parser("normal-form", help="normal-form witness search")
    c.add_argument("--system", required=True)
    c.add_argument("--p", type=int, default=7)
    c.add_argument("--s", type=int, required=True)
    c.add_argument("--out")

    c = sub.add_parser("norm", help="uniformity norm of a function")
    c.add_argument("--function", help="function file (complex/rational/indicator)")
    c.add_argument("--set", dest="set_name", choices=["quadzero"],
                   help="built-in set instead of a file")
    c.add_argument("--balanced", action="store_true",
                   help="recentre an indicator input to mean zero")
    c.add_argument("--k", type=int, default=2, help="norm degree (U^k)")
    c.add_argument("--method", choices=["direct", "fast"], default="direct",
                   help="direct: cube enumeration; fast: through the transform")
    common(c)

    c = sub.add_parser("count", help="configuration count for a set or functions")
    c.add_argument("--system", required=True)
    c.add_argument("--set", dest="set_name",
                   help="'quadzero' or a function/indicator file")
    c.add_argument("--method", choices=["direct", "dual", "both"], default="both")
    c.add_argument("--degenerate", action="store_true",
                   help="also report the degenerate-solution fraction")
    common(c)

    c = sub.add_parser("verify", help="run a named verification experiment")
    c.add_argument("experiment", choices=VERIFY_EXPERIMENTS)
    c.add_argument("--system", default=None)
    c.add_argument("--k", type=int, default=None)
    c.add_argument("--d1", type=int, default=1)
    c.add_argument("--d2", type=int, default=1)
    c.add_argument("--count", type=int, default=20,
                   help="random instances for sampled experiments")
    common(c)

    c = sub.add_parser("octahedron", help="tripartite-function checks")
    c.add_argument("--check", choices=["lift", "counterexample"], required=True)
    c.add_argument("--size", type=int, default=64, help="vertex count for the counterexample")
    common(c, p=3, n=2)

    return parser


def _fmt(v: float) -> str:
    return f"{v:.10g}"


def _cx(value: complex) -> dict:
    return {"re": float(value.real), "im": float(value.imag)}


def cmd_list(args) -> tuple[int, dict]:
    results = []
    for name in BUILTIN_SYSTEM_NAMES:
        sys_ = resolve_system(name, args.p)
        cs = cs_complexity(sys_)
        sq = power_independence(sys_, 1)
        try:
            true_k = conjectured_true_complexity(sys_)
        except TrueComplexityUndecided:
            true_k = None
        results.append({"name": name, "m": sys_.m, "d": sys_.d,
                        "cs_complexity": None if math.isinf(cs) else int(cs),
                        "square_independent": bool(sq),
                        "conjectured_true_complexity": true_k,
                        "passed": None})
        print(f"{name:7s} m={sys_.m} d={sys_.d} cs={cs} "
              f"square_independent={sq} conjectured_true={true_k}")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["name", "m", "d", "cs_complexity",
                             "square_independent",
                             "conjectured_true_complexity"])
            for row in results:
                writer.writerow([row["name"], row["m"], row["d"],
                                 row["cs_complexity"],
                                 row["square_independent"],
                                 row["conjectured_true_complexity"]])
    return EXIT_OK, make_report("list", {"p": args.p, "csv": args.csv}, results)


def cmd_complexity(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    cs = cs_complexity(sys_)
    print("infinite" if math.isinf(cs) else int(cs))
    results = [{"name": "cs_complexity", "system": sys_.name or args.system,
                "value": None if math.isinf(cs) else int(cs),
                "infinite": bool(math.isinf(cs)), "passed": None}]
    return EXIT_OK, make_report("complexity", {"system": args.system, "p": args.p},
                                results)


def cmd_independence(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    indep = power_independence(sys_, args.k)
    try:
        true_k = conjectured_true_complexity(sys_)
    except TrueComplexityUndecided:
        true_k = None
    print(f"power_independence(k={args.k}) = {indep}; "
          f"conjectured_true_complexity = {true_k}")
    results = [{"name": f"power_independence_k{args.k}", "value": bool(indep),
                "conjectured_true_complexity": true_k, "passed": None}]
    return EXIT_OK, make_report(
        "independence", {"system": args.system, "p": args.p, "k": args.k}, results)


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
    return EXIT_OK, make_report(
        "normal-form", {"system": args.system, "p": args.p, "s": args.s}, results)


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
    config = {"function": args.function, "set": args.set_name,
              "balanced": args.balanced, "k": args.k, "method": args.method,
              "p": args.p, "n": args.n, "seed": args.seed,
              "budget": args.budget}
    return EXIT_OK, make_report("norm", config, [record])


def cmd_count(args) -> tuple[int, dict]:
    sys_ = resolve_system(args.system, args.p)
    config = {"system": args.system, "set": args.set_name, "p": args.p,
              "n": args.n, "method": args.method, "seed": args.seed,
              "budget": args.budget, "threads": args.threads,
              "tolerance": args.tolerance}
    results = []
    indicator = None
    if args.set_name == "quadzero":
        indicator = quadratic_zero_set(args.p, args.n)
    elif args.set_name:
        obj = load_function(args.set_name)
        if isinstance(obj, IndicatorSet):
            indicator = obj
        else:
            fs = [obj] * sys_.m
    else:
        raise ValueError("provide --set quadzero or a function/indicator file")

    exit_code = EXIT_OK
    if indicator is not None:
        fs = [indicator.to_function()] * sys_.m
        if args.method in ("direct", "both"):
            rep = solution_probability(sys_, indicator, budget=args.budget,
                                       threads=args.threads,
                                       with_degenerate=args.degenerate)
            entry = {"name": "solution_probability", **rep.to_dict(), "passed": None}
            results.append(entry)
            print(f"P = {rep.observed_exact} = {_fmt(rep.observed.real)}   "
                  f"alpha^m = {_fmt(rep.reference.real)}   "
                  f"deviation = {_fmt(rep.deviation)}")
            direct = rep.observed  # 0/1 products sum exactly: count / N^d
    if args.method in ("direct", "both"):
        if indicator is None:
            direct = average_product_direct(sys_, fs, budget=args.budget,
                                            threads=args.threads)
        results.append({"name": "average_direct", "value": _cx(direct),
                        "passed": None})
    if args.method in ("dual", "both"):
        dual = average_product_dual(sys_, fs, budget=args.budget,
                                    threads=args.threads)
        results.append({"name": "average_dual", "value": _cx(dual),
                        "passed": None})
    if args.method == "both":
        gap = abs(direct - dual)
        ok = gap <= args.tolerance
        results.append({"name": "direct_vs_dual", "gap": gap,
                        "tolerance": args.tolerance, "passed": bool(ok)})
        print(f"direct vs dual gap = {gap:.3g} ({'ok' if ok else 'MISMATCH'})")
        if not ok:
            exit_code = EXIT_FAIL
    return exit_code, make_report("count", config, results)


def _experiment_reports(args) -> list:
    """Build and run the requested experiment(s); returns ExperimentReports."""
    p, n, seed = args.p, args.n, args.seed
    rng = np.random.default_rng(seed)
    name = args.experiment
    reports = []

    def dom_fn(nn=None):
        return domain(p, nn or n)

    if name in ("gauss", "all"):
        q = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64), b=np.zeros(n, dtype=np.int64))
        reports.append(gauss_sum_report(q, budget=args.budget))
        reports.append(quadratic_zero_set_report(p, n, budget=args.budget))
    if name in ("badex", "all"):
        sys_ = resolve_system(args.system or "gw6a", p)
        reports.append(verify_badex(sys_, n, budget=args.budget,
                                    threads=args.threads))
    if name in ("gvn", "all"):
        sys_ = resolve_system(args.system or "ap3", p)
        k = args.k if args.k is not None else int(cs_complexity(sys_))
        fs = [random_bounded_function(dom_fn(), rng) for _ in range(sys_.m)]
        reports.append(verify_gvn(sys_, fs, k, budget=args.budget))
    if name in ("atoms", "all"):
        factor = random_factor(p, n, min(args.d1, n), args.d2, rng)
        reports.append(atom_distribution(factor, budget=args.budget))
    if name in ("quadfactor", "all"):
        sys_ = resolve_system(args.system or "gw6b", p)
        q = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64), b=np.zeros(n, dtype=np.int64))
        reports.append(verify_quadfactor(sys_, QuadraticMap(forms=(q,)),
                                         budget=args.budget))
    if name in ("completefactor", "all"):
        sys_ = resolve_system(args.system or "gw6b", p)
        d1 = min(args.d1, n)
        G1 = np.eye(n, dtype=np.int64)[:d1]
        q = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64), b=np.zeros(n, dtype=np.int64))
        factor = QuadraticFactor(p=p, n=n, gamma1=G1, gamma2=QuadraticMap(forms=(q,)))
        reports.append(verify_completefactor(
            sys_, factor, [[0] * d1] * sys_.m, [[0]] * sys_.m,
            budget=args.budget))
    if name in ("projections", "all"):
        f = random_bounded_function(dom_fn(), rng)
        factor = random_factor(p, n, min(args.d1, n), args.d2, rng)
        reports.append(verify_projection_lemmas(f, factor, budget=args.budget))
    if name in ("bound1", "all"):
        sys_ = resolve_system(args.system or "gw6b", p)
        f = balanced(quadratic_zero_set(p, n))
        q = QuadraticForm(p=p, M=np.eye(n, dtype=np.int64), b=np.zeros(n, dtype=np.int64))
        factor = QuadraticFactor(p=p, n=n, gamma1=np.zeros((0, n), dtype=np.int64),
                                 gamma2=QuadraticMap(forms=(q,)))
        reports.append(verify_bound1(f, factor, sys_, budget=args.budget,
                                     threads=args.threads))
    if name in ("pythagoras", "all"):
        f = balanced(quadratic_zero_set(p, n)).scaled(0.5)
        reports.append(verify_pythagoras(f, 0.5, budget=args.budget))
    return reports


def cmd_verify(args) -> tuple[int, dict]:
    config = {"experiment": args.experiment, "system": args.system,
              "p": args.p, "n": args.n, "k": args.k, "d1": args.d1,
              "d2": args.d2, "seed": args.seed, "budget": args.budget,
              "threads": args.threads}
    reports = _experiment_reports(args)
    results = []
    ok = True
    for rep in reports:
        results.append(rep.to_dict())
        status = "pass" if rep.passed else "FAIL"
        print(f"{rep.name}: {status}  " +
              " ".join(f"{k}={_fmt(v) if isinstance(v, float) else v}"
                       for k, v in rep.observed.items()
                       if isinstance(v, (int, float))))
        ok &= rep.passed
    return (EXIT_OK if ok else EXIT_FAIL), make_report("verify", config, results)


def cmd_octahedron(args) -> tuple[int, dict]:
    config = {"check": args.check, "size": args.size, "p": args.p,
              "n": args.n, "seed": args.seed, "budget": args.budget}
    if args.check == "lift":
        rng = np.random.default_rng(args.seed)
        g = random_bounded_function(domain(args.p, args.n), rng)
        oct_norm = octahedral_norm(lift(g), budget=args.budget)
        direct = uk_norm(g, 3, budget=args.budget)
        gap = abs(oct_norm - direct)
        ok = gap <= 1e-9
        print(f"octahedral = {_fmt(oct_norm)}  U^3 = {_fmt(direct)}  gap = {gap:.3g}")
        results = [{"name": "lift_identity", "octahedral": oct_norm,
                    "u3": direct, "gap": gap, "passed": bool(ok)}]
        return (EXIT_OK if ok else EXIT_FAIL), make_report("octahedron", config, results)
    rep = vertex_uniformity_counterexample(args.seed, args.size)
    status = "pass" if rep.passed else "FAIL"
    print(f"counterexample: {status}  value = "
          f"{_fmt(rep.observed['double_edge_average'])}  (5/18 = {_fmt(5 / 18)})")
    return (EXIT_OK if rep.passed else EXIT_FAIL), \
        make_report("octahedron", config, [rep.to_dict()])


_HANDLERS = {
    "list": cmd_list,
    "complexity": cmd_complexity,
    "independence": cmd_independence,
    "normal-form": cmd_normal_form,
    "norm": cmd_norm,
    "count": cmd_count,
    "verify": cmd_verify,
    "octahedron": cmd_octahedron,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, report = _HANDLERS[args.command](args)
    except BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, KeyError, OSError, SquareDependenceError,
            ComplexityPreconditionError, TrueComplexityUndecided) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out = getattr(args, "out", None)
    text = dump_report(report, out)
    if not out:
        print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
