"""Checks on the library source itself."""

import ast
import dataclasses
import importlib
import os
import subprocess
import sys
from pathlib import Path

import germkit

SRC = Path(__file__).resolve().parents[1] / "src"


def _nodes():
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            yield path, node


def test_no_assert_statements():
    # python -O strips asserts; an invariant must raise a GermkitError instead
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_no_budget_parameters():
    # the refinement budget comes from coefflattice.refinement_budget alone
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
        and any(a.arg == "budget" for a in ast.walk(node.args) if isinstance(a, ast.arg))
    ]
    assert found == []


def test_budget_is_read_by_the_level_walks_alone():
    # the refinement budget is read where levels are walked: the walk behind
    # every refined decision, the positive-level search of a product basis,
    # and the scan report that names the budget it ran under
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        scopes = [(n.name, n) for n in tree.body if isinstance(n, ast.FunctionDef)] + [
            (f"{c.name}.{n.name}", n)
            for c in tree.body
            if isinstance(c, ast.ClassDef)
            for n in c.body
            if isinstance(n, ast.FunctionDef)
        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and "current_budget" in (
                getattr(node.func, "id", None), getattr(node.func, "attr", None)
            ):
                where = [n for n, fn in scopes if fn.lineno <= node.lineno <= fn.end_lineno]
                found.add((path.name, where[0] if where else "<module>"))
    assert found == {
        ("coefflattice.py", "_refine"),
        ("enclosures.py", "positive_from_level"),
        ("explorer.py", "ScanConfig.to_dict"),
    }


def _float_use(node) -> bool:
    if isinstance(node, ast.Constant):
        return isinstance(node.value, float)
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow):
        return isinstance(node.right, ast.Constant) and node.right.value == 0.5
    if isinstance(node, ast.ImportFrom):
        return node.module == "math" and any(a.name == "sqrt" for a in node.names)
    if isinstance(node, ast.Call):
        f = node.func
        if isinstance(f, ast.Name):
            return f.id == "float"
        return (
            isinstance(f, ast.Attribute)
            and f.attr == "sqrt"
            and isinstance(f.value, ast.Name)
            and f.value.id == "math"
        )
    return False


def test_no_floats_under_src():
    # square roots are taken with math.isqrt and decided exactly; corpus.py
    # alone compares rng.random() with float thresholds, to pick shapes
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, node in _nodes()
        if path.name != "corpus.py" and _float_use(node)
    ]
    assert found == []


def test_enclosure_levels_are_walked_in_one_place():
    # coefflattice._refine is the one walk over enclosure levels; everything
    # else that needs levels hands it a decision
    found = {
        (path.name, fn.name)
        for path, fn in _nodes()
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
        for node in ast.walk(fn)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "enclosure"
    }
    assert found == {("coefflattice.py", "_refine")}


def test_no_self_recursive_closures():
    # a nested function that calls itself holds itself through its closure
    # cell, a reference cycle: it and everything it captured (a memo, say)
    # wait for the cyclic collector instead of going when the call returns
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    found = {
        f"{path.relative_to(SRC)}:{inner.lineno} {inner.name}"
        for path, outer in _nodes()
        if isinstance(outer, functions)
        for inner in ast.walk(outer)
        if inner is not outer
        and isinstance(inner, functions)
        and any(
            isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id == inner.name
            for call in ast.walk(inner)
        )
    }
    assert found == set()


def test_solve_and_render_stay_on_integers():
    # the solve, its caller and the renderer work on numerators over one
    # denominator; a Fraction built there, or a read of .coords (which builds
    # one per coordinate), brings the per-coordinate normalisation back
    watched = {
        ("linalg.py", "solve_exact"),
        ("discrepancy.py", "solve_discrepancies"),
        ("coefflattice.py", "render_exact"),
    }
    seen = set()
    found = set()
    for path, fn in _nodes():
        if not isinstance(fn, ast.FunctionDef) or (path.name, fn.name) not in watched:
            continue
        seen.add((path.name, fn.name))
        for node in ast.walk(fn):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
            ):
                found.add(f"{path.name}:{node.lineno} Fraction(")
            if isinstance(node, ast.Attribute) and node.attr == "coords":
                found.add(f"{path.name}:{node.lineno} .coords")
    assert seen == watched
    assert found == set()


def test_factor_and_its_readers_stay_on_integers():
    # the factor keeps every pivot and multiplier as an integer pair, and
    # the determinant and the solve read them as pairs; a Fraction named in
    # them or in a linalg helper they call, or a read of .numerator or
    # .denominator, brings the per-entry normalisation back.  rref and the
    # row-space helpers stay on Fraction
    tree = ast.parse((SRC / "germkit" / "linalg.py").read_text())
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    todo = ["factor_form", "determinant", "solve_exact"]
    seen = set()
    found = set()
    while todo:
        name = todo.pop()
        if name in seen or name not in fns:
            continue
        seen.add(name)
        for node in ast.walk(fns[name]):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                todo.append(node.func.id)
            if isinstance(node, ast.Name) and node.id == "Fraction":
                found.add(f"{name}:{node.lineno} Fraction")
            if isinstance(node, ast.Attribute) and node.attr in ("numerator", "denominator"):
                found.add(f"{name}:{node.lineno} .{node.attr}")
    assert {"factor_form", "determinant", "solve_exact", "_minus_product", "_sub_scaled"} <= seen
    assert found == set()


def test_partition_verifier_stays_on_integers():
    # the partition verifier, the weight product and the map application
    # work on numerators over one denominator, like the solve
    watched = {"verify_partition", "span_product", "QLinearMap.apply"}
    tree = ast.parse((SRC / "germkit" / "coefflattice.py").read_text())
    fns = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    for c in tree.body:
        if isinstance(c, ast.ClassDef):
            fns.update(
                (f"{c.name}.{n.name}", n) for n in c.body if isinstance(n, ast.FunctionDef)
            )
    assert watched <= set(fns)
    found = set()
    for name in watched:
        for node in ast.walk(fns[name]):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "Fraction"
            ):
                found.add(f"{name}:{node.lineno} Fraction(")
            if isinstance(node, ast.Attribute) and node.attr == "coords":
                found.add(f"{name}:{node.lineno} .coords")
    # the verifier reads the image of symbol i as column i of a snap matrix
    # and decides its signs with _nums_sign, on integer rows
    for node in ast.walk(fns["verify_partition"]):
        if isinstance(node, ast.Call):
            called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if called in {"apply", "is_le", "is_ge", "weight_total"}:
                found.add(f"verify_partition:{node.lineno} {called}(")
    assert found == set()


def test_import_leaves_hashlib_unloaded():
    # hashlib loads OpenSSL, several MB of resident memory; only
    # explorer.model_digest needs it, and imports it when called
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, germkit; print(sorted({'hashlib', '_hashlib'} & set(sys.modules)))"
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_point_minimum_ranks_without_compare():
    # mld_point decides every sign with coefflattice._nums_sign on integer
    # numerators; compare and its wrappers build a SpanElement difference
    # and reduce it by a gcd on each call
    spans = {"compare", "is_lt", "is_le", "is_gt", "is_ge", "span_min"}
    fns = [
        fn
        for path, fn in _nodes()
        if path.name == "discrepancy.py"
        and isinstance(fn, ast.FunctionDef)
        and fn.name == "mld_point"
    ]
    assert len(fns) == 1
    found = {
        f"{node.lineno} {node.func.id}"
        for node in ast.walk(fns[0])
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in spans
    }
    assert found == set()


def _innermost_calls(path):
    """(innermost enclosing function name, call) for every call in one file."""
    tree = ast.parse(path.read_text(), str(path))
    fns = [n for n in ast.walk(tree) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            around = [f for f in fns if f.lineno <= node.lineno <= f.end_lineno]
            yield (max(around, key=lambda f: f.lineno).name if around else "<module>"), node


def test_dualgraph_walks_the_graph_in_one_place():
    # connectedness, tree splits and chain growth all read _components
    found = {
        name
        for name, call in _innermost_calls(SRC / "germkit" / "dualgraph.py")
        if isinstance(call.func, ast.Attribute) and call.func.attr == "pop"
    }
    assert found == {"_components"}


def test_reports_print_coordinates_from_numerators():
    # .coords builds a Fraction per coordinate; digests, corpus identity and
    # the partition report read numerators or the map's own rows instead
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _nodes()
        if path.name in {"explorer.py", "corpus.py", "cli.py"}
        and isinstance(node, ast.Attribute)
        and node.attr == "coords"
    ]
    assert found == []


def _names_an_epsilon(node) -> bool:
    if isinstance(node, ast.Name):
        return node.id in {"eps", "epsilon"}
    return isinstance(node, ast.Attribute) and node.attr == "epsilon"


def test_eps_lc_is_decided_in_profile_alone():
    # every other reader of the eps-lc tag asks profile.classification
    found = {
        (path.name, name)
        for path in sorted(SRC.rglob("*.py"))
        for name, call in _innermost_calls(path)
        if isinstance(call.func, ast.Name)
        and call.func.id == "is_gt"
        and len(call.args) == 2
        and _names_an_epsilon(call.args[0])
        and isinstance(call.args[1], ast.Constant)
        and call.args[1].value == 0
    }
    assert found == {("discrepancy.py", "_profile")}


def _checks_document(node) -> bool:
    # isinstance(x, dict), x.keys(), or set(x) compared with or taken from a set
    if isinstance(node, ast.Call):
        if getattr(node.func, "id", None) == "isinstance":
            return any(getattr(n, "id", None) == "dict" for n in ast.walk(node.args[1]))
        return getattr(node.func, "attr", None) == "keys"
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
    elif isinstance(node, ast.BinOp):
        operands = [node.left, node.right]
    else:
        return False
    return any(
        isinstance(n, ast.Call) and getattr(n.func, "id", None) in {"set", "frozenset"}
        for n in operands
    )


def test_documents_are_checked_by_one_reader():
    # explorer._object alone asks whether a document value is an object and
    # compares its keys; every parser reads objects through it
    path = SRC / "germkit" / "explorer.py"
    tree = ast.parse(path.read_text(), str(path))
    fns = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    found = set()
    for node in ast.walk(tree):
        if _checks_document(node):
            around = [f for f in fns if f.lineno <= node.lineno <= f.end_lineno]
            found.add(max(around, key=lambda f: f.lineno).name if around else "<module>")
    assert found == {"_object"}


def _callers(path, named):
    """Innermost enclosing function of every call to a name or method in ``named``."""
    return {
        name
        for name, call in _innermost_calls(path)
        if getattr(call.func, "id", None) in named or getattr(call.func, "attr", None) in named
    }


def test_cli_main_alone_writes_a_report():
    # every subcommand returns its report and exit code; main emits the
    # report and writes it to stdout or --out
    path = SRC / "germkit" / "cli.py"
    assert _callers(path, {"emit_json", "open", "write"}) == {"main"}
    found = {
        (p.name, name)
        for p in sorted(SRC.rglob("*.py"))
        for name, call in _innermost_calls(p)
        if isinstance(call.func, ast.Attribute) and call.func.attr == "write"
    }
    assert found == {("cli.py", "main")}


def test_profile_stores_the_lc_verdict_once():
    # is_lc and is_klt are read from the classification; the profile keeps
    # no copy of the model's epsilon
    from germkit.discrepancy import DiscrepancyProfile

    fields = [f.name for f in dataclasses.fields(DiscrepancyProfile)]
    assert fields == ["a", "mld", "realizing", "classification", "epsilon_ok"]
    assert isinstance(DiscrepancyProfile.is_lc, property)
    assert isinstance(DiscrepancyProfile.is_klt, property)
    # outside the renderer and the scan aggregate, lc is asked of the profile
    found = set()
    for path in sorted(SRC.rglob("*.py")):
        for name, call in _innermost_calls(path):
            if getattr(call.func, "id", None) == "isinstance" and any(
                getattr(n, "id", None) == "NegInfinity" for n in ast.walk(call.args[1])
            ):
                found.add((path.name, name))
    assert found == {("explorer.py", "value_json"), ("explorer.py", "run_scan")}


def test_mld_values_are_compared_with_equality():
    names = {
        node.name
        for _, node in _nodes()
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert "mld_equal" not in names


def test_least_row_is_ranked_in_one_place():
    # mld_point and mld_oracle both rank numerator rows through _least,
    # the one place that subtracts two rows to take a sign
    path = SRC / "germkit" / "discrepancy.py"
    subtracting = {
        name
        for name, call in _innermost_calls(path)
        if getattr(call.func, "id", None) == "map"
        and getattr(call.args[0], "id", None) == "sub"
    }
    assert subtracting == {"_least"}
    assert {"mld_point", "mld_oracle"} <= _callers(path, {"_least"})


def test_span_coordinates_are_eliminated_in_one_place():
    # the span-closure check of scan --coeff goes through in_span, the one
    # caller of rref outside linalg
    found = {
        (path.name, name)
        for path in sorted(SRC.rglob("*.py"))
        if path.name != "linalg.py"
        for name, call in _innermost_calls(path)
        if getattr(call.func, "id", None) == "rref"
    }
    assert found == {("coefflattice.py", "in_span")}
    assert _callers(SRC / "germkit" / "explorer.py", {"in_span"}) == {"_scan_instance"}


def test_rational_literals_are_read_in_one_place():
    # coefflattice._fraction alone checks a string against the digit limit
    # (DigitLimitExceeded only names the limit in its message), and
    # parse_rational hands strings to it
    found = {
        (path.name, name)
        for path in sorted(SRC.rglob("*.py"))
        for name, call in _innermost_calls(path)
        if getattr(call.func, "attr", None) == "get_int_max_str_digits"
    }
    assert found == {("coefflattice.py", "_fraction"), ("errors.py", "__init__")}
    assert "parse_rational" in _callers(SRC / "germkit" / "explorer.py", {"_fraction"})


def test_scans_check_span_closure_over_the_model_inputs():
    # the corpus generator's coefficient pool is not the model's span
    path = SRC / "germkit" / "explorer.py"
    tree = ast.parse(path.read_text(), str(path))
    imported = {
        a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
    }
    assert "coefficient_pool" not in imported


def test_smooth_point_value_has_one_home():
    # check_empty_graph_value takes 2 - mult from smooth_point_mld; mld_point
    # writes 2 - sum b itself, since it also answers for sums above 1
    path = SRC / "germkit" / "discrepancy.py"
    assert "check_empty_graph_value" in _callers(path, {"smooth_point_mld"})
    twos = {
        name
        for name, call in _innermost_calls(path)
        if getattr(call.func, "attr", None) == "rational"
        and [getattr(a, "value", None) for a in call.args] == [2]
    }
    assert twos == {"smooth_point_mld", "mld_point"}


def _resolves(owner, dotted: str) -> bool:
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner is not None


def test_unreached_names_stay_deleted():
    # nothing in the program called these; the values LSC compares are
    # read off the profile a check already holds, and the path helpers the
    # tests read live in tests/util.py
    gone = {
        "coefflattice": {
            "shrink_delta", "span_max", "span_coordinates_over", "BasisDescriptor.index",
        },
        "discrepancy": {"generic_point_mld", "general_closed_point_mld"},
        "dualgraph": {"MarkedVertexPath.length", "MarkedVertexPath.is_path_in"},
        "linalg": {"pivot_columns", "row_space_coordinates"},
    }
    for module, names in gone.items():
        mod = importlib.import_module(f"germkit.{module}")
        assert {n for n in names if _resolves(mod, n)} == set()
        assert names.isdisjoint(germkit.__all__)


def test_bench_traced_names_resolve():
    # bench/tracing.py patches each (module, attribute) of TRACED with
    # getattr, so a name deleted here would break only a traced bench run
    path = SRC.parent / "bench" / "tracing.py"
    tree = ast.parse(path.read_text(), str(path))
    [traced] = [
        node.value
        for node in tree.body
        if isinstance(node, ast.AnnAssign) and getattr(node.target, "id", None) == "TRACED"
    ]
    entries = ast.literal_eval(traced)
    assert entries
    missing = []
    for module, attr, *_ in entries:
        owner = importlib.import_module(f"germkit.{module}")
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            missing.append(f"{module}.{attr}")
    assert missing == []


def test_isqrt_brackets_are_summed_in_one_place():
    # _brackets, _poly_sign and _exact_floor take their brackets from
    # _bracket; _certify asks isqrt for squares and _poly_sign for its bound
    path = SRC / "germkit" / "coefflattice.py"
    assert _callers(path, {"isqrt"}) == {"_bracket", "_certify", "_poly_sign"}
    assert {"_brackets", "_poly_sign", "_exact_floor"} <= _callers(path, {"_bracket"})


def test_partition_decides_signs_in_its_level_search_alone():
    # a weight is positive exactly when each of its factors is, so the
    # factor signs are left to verify_partition's weight signs
    path = SRC / "germkit" / "coefflattice.py"
    signs = {"compare", "is_lt", "is_le", "is_gt", "is_ge", "span_min", "_nums_sign"}
    found = _callers(path, signs)
    assert "within" in found
    assert "partition_of_one" not in found


def test_finite_continued_fractions_are_refused_in_one_place():
    # ContinuedFractionEnclosure refuses an empty cycle; no reader checks it
    found = [
        path.name
        for path in sorted(SRC.rglob("*.py"))
        if "finite continued fraction" in path.read_text().lower()
    ]
    assert found == ["enclosures.py"]


def _functions(watched):
    """The FunctionDef of every (file name, function name) in ``watched``."""
    found = {
        (path.name, fn.name): fn
        for path, fn in _nodes()
        if isinstance(fn, ast.FunctionDef) and (path.name, fn.name) in watched
    }
    assert set(found) == set(watched)
    return found


CHECKERS = {
    ("discrepancy.py", name)
    for name in (
        "check_convexity", "check_smooth_threshold", "check_vertex_window",
        "check_empty_graph_value",
    )
}


def test_lemma_checks_decide_signs_on_integer_rows():
    # each inequality of the checkers, and the scan's gates, is one
    # _nums_sign of an integer row; compare and its wrappers build a
    # SpanElement difference per inequality
    spans = {"compare", "is_lt", "is_le", "is_gt", "is_ge", "span_min"}
    found = {
        f"{name}:{node.lineno} {node.func.id}"
        for (_, name), fn in _functions(CHECKERS | {("explorer.py", "_scan_instance")}).items()
        for node in ast.walk(fn)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in spans
    }
    assert found == set()


def test_span_values_are_put_over_one_denominator_in_one_place():
    # _over_lcm is the one loop that scales span values to the lcm of their
    # denominators; an lcm of .den reads, or a division by one, is that loop
    # written again
    users = {
        ("discrepancy.py", "mld_point"), ("discrepancy.py", "mld_oracle"),
        ("coefflattice.py", "verify_partition"),
    } | CHECKERS
    found = set()
    for (_, name), fn in _functions(users).items():
        for node in ast.walk(fn):
            dens = []
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "lcm":
                dens = [n for a in node.args for n in ast.walk(a)]
            elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.FloorDiv):
                dens = [node.right]
            if any(isinstance(n, ast.Attribute) and n.attr == "den" for n in dens):
                found.add(f"{name}:{node.lineno}")
    assert found == set()
    scaling = set()
    for path in (SRC / "germkit" / "discrepancy.py", SRC / "germkit" / "coefflattice.py"):
        scaling |= _callers(path, {"_over_lcm"})
    assert {name for _, name in users} - scaling == {
        "check_smooth_threshold", "check_empty_graph_value"
    }
