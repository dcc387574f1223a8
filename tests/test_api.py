import ast
from pathlib import Path

import uniformity_lab

# The package's public names.  Adding or removing one is a deliberate API
# change: edit this list with it.
PUBLIC_NAMES = [
    "BudgetExceededError", "Check", "ExperimentReport", "GroupDomain",
    "GroupFunction", "INFINITE", "IndicatorSet", "LinearFormSystem",
    "NormalFormWitness", "QuadraticFactor", "QuadraticForm",
    "QuadraticMap", "Subspace", "TripartiteFunction",
    "atom_distribution", "average_product_direct",
    "average_product_dual", "balanced", "builtin_system",
    "check_budget", "conjectured_true_complexity",
    "count_solutions", "cs_complexity", "domain", "factor_rank",
    "fourier", "gauss_sum", "gauss_sum_report", "inverse_fourier",
    "l2_norm", "lift", "load_function",
    "load_system", "maximal_square_independent_subsystem",
    "normal_form_check", "octahedral_norm", "power_independence",
    "quadratic_zero_set", "rank", "relation_space", "resolve_budget",
    "save_function", "save_system", "solve_affine", "support", "u2_norm_fast", "uk_norm", "uk_norm_fast",
    "uk_power_exact", "verify_badex", "verify_bound1",
    "verify_completefactor", "verify_gvn", "verify_projection_lemmas",
    "verify_pythagoras", "verify_quadfactor",
    "vertex_uniformity_counterexample",
]


def test_public_api_is_pinned():
    assert sorted(uniformity_lab.__all__) == PUBLIC_NAMES
    for name in PUBLIC_NAMES:
        assert hasattr(uniformity_lab, name), name


def package_trees():
    """(file name, syntax tree) of every module of the package."""
    return [(path.name, ast.parse(path.read_text(encoding="utf-8")))
            for path in sorted(Path(uniformity_lab.__file__).parent.glob("*.py"))]


# Top-level names that no other line of the package reads, kept on purpose.
KEPT_UNREFERENCED = {
    "validate_report": "the report checker the README documents for users",
}

# Methods and properties of package classes that no other line of the
# package reads as an attribute, kept on purpose.
KEPT_UNREAD_MEMBERS = {
    "GroupDomain.digits": "perfbench/tracing.py wraps it to account table bytes",
    "GroupDomain.add_table": "perfbench/tracing.py wraps it to account table bytes",
    "GroupDomain.neg_table": "perfbench/tracing.py wraps it to account table bytes",
    "GroupFunction.constant": "public API on a public class",
    "GroupFunction.character": "public API on a public class",
    "LinearFormSystem.form": "public API on a public class",
}


def test_every_top_level_name_is_used_public_or_kept():
    """A top-level name defined in the package is read on another line of it
    (a name or an attribute load), is public, or is kept on purpose; dunder
    names are the interpreter's."""
    defined, read = [], set()
    for file, tree in package_trees():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.append((node.name, file, node.lineno))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined += [(n.id, file, n.lineno) for t in targets
                            for n in ast.walk(t) if isinstance(n, ast.Name)]
        for n in ast.walk(tree):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add((n.id, file, n.lineno))
            elif isinstance(n, ast.Attribute):
                read.add((n.attr, file, n.lineno))
    unused = sorted(name for name, file, line in defined
                    if not name.startswith("__") and name not in PUBLIC_NAMES
                    and not any(r[0] == name and r[1:] != (file, line) for r in read))
    assert unused == sorted(KEPT_UNREFERENCED)


def test_every_class_member_is_read_or_kept():
    """A method or property of a class of the package is read as an
    attribute on another line of it, or is kept on purpose; dunder methods
    are the interpreter's."""
    members, read = [], set()
    for file, tree in package_trees():
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef):
                members += [(f"{cls.name}.{node.name}", node.name, file, node.lineno)
                            for node in cls.body if isinstance(node, ast.FunctionDef)]
        read |= {(n.attr, file, n.lineno) for n in ast.walk(tree)
                 if isinstance(n, ast.Attribute)}
    unread = sorted(key for key, name, file, line in members
                    if not name.startswith("__")
                    and not any(r[0] == name and r[1:] != (file, line) for r in read))
    assert unread == sorted(KEPT_UNREAD_MEMBERS)


def function_params():
    """"file:function.parameter" for every parameter of every function and
    lambda of the package."""
    params = []
    for file, tree in package_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                name = getattr(node, "name", "<lambda>")
                params += [f"{file}:{name}.{x.arg}" for x in
                           a.posonlyargs + a.args + a.kwonlyargs +
                           [x for x in (a.vararg, a.kwarg) if x is not None]]
    return params


def test_no_function_takes_a_private_parameter():
    """No function of the package takes a parameter whose name starts with
    an underscore: a value one caller hands another through a private
    parameter belongs with the object it derives from."""
    assert [x for x in function_params() if x.rsplit(".", 1)[1].startswith("_")] == []


def test_the_tile_pool_sizes_itself_in_one_place():
    """No function takes a worker count (`threads`): `counting._each` sizes
    its pool from the items and the CPUs the process may use, and is the one
    function that names `ThreadPoolExecutor` (the module imports it)."""
    assert [x for x in function_params() if x.endswith(".threads")] == []
    owners = set()
    for file, tree in package_trees():
        parent = {child: node for node in ast.walk(tree)
                  for child in ast.iter_child_nodes(node)}
        for node in ast.walk(tree):
            if "ThreadPoolExecutor" in (getattr(node, "id", None),
                                        getattr(node, "attr", None),
                                        getattr(node, "name", None)):
                while node in parent and not isinstance(
                        node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    node = parent[node]
                owners.add(f"{file}:{getattr(node, 'name', '<module>')}")
    assert owners == {"counting.py:<module>", "counting.py:_each"}


# The underscore names each module imports from other modules of the
# package, dunder names aside: one module reading another's internals.
# Adding or removing one couples or uncouples two modules on purpose: edit
# this table with it.
PRIVATE_IMPORTS = {
    "counting.py": ["_dft_axes", "_dft_matrix", "_legendre", "_line_classes",
                    "_rank_table"],
    "hypergraphs.py": ["_narrowed"],
    "systems.py": ["_plan", "_relation_ranks"],
    "verification.py": ["_atom_counts", "_check_average_budget",
                        "_check_direct_budget", "_check_fast_budget",
                        "_check_gauss_budget", "_check_inputs", "_check_k",
                        "_check_octahedral_budget", "_line_classes",
                        "_run_passes"],
}


def test_private_imports_are_pinned():
    """Who imports whose internals, per module (imports inside functions
    included).  The walk over the lines of lambda is read through
    `algebra._line_classes` alone: its parts stay inside `algebra`."""
    imported = {}
    for file, tree in package_trees():
        names = sorted({alias.name for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level
                        for alias in node.names
                        if alias.name.startswith("_") and not alias.name.startswith("__")})
        if names:
            imported[file] = names
    assert imported == PRIVATE_IMPORTS
    walk_parts = {"_class_forms", "_batches", "_eliminate", "_line_block"}
    assert not walk_parts & {name for names in imported.values() for name in names}


def test_cli_prices_only_through_library_owners():
    """cli.py calls no `check_budget`: each price and its refusal message
    have one owner in the module that runs the computation, and the CLI
    calls that owner before it builds or draws anything."""
    path = Path(uniformity_lab.__file__).parent / "cli.py"
    calls = [node.lineno for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Call) and "check_budget" in
             (getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert calls == []


def test_cli_imports_no_price_owner_and_gvn_takes_no_plan():
    """cli.py imports no price owner (a `_check_*`, `_price_*` or
    `_require_*` name): every job is priced by `verification.drive`, which
    hands the plan to the run, so `verify_gvn` takes no `priced` parameter."""
    trees = dict(package_trees())
    imported = [alias.name for node in ast.walk(trees["cli.py"])
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert [name for name in imported
            if name.startswith(("_check_", "_price_", "_require_"))] == []
    (gvn,) = [node for node in trees["verification.py"].body
              if isinstance(node, ast.FunctionDef) and node.name == "verify_gvn"]
    params = gvn.args.posonlyargs + gvn.args.args + gvn.args.kwonlyargs
    assert "priced" not in [x.arg for x in params]
