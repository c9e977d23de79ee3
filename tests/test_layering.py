"""Layering: production modules stay apart from the brute-force oracle,
only the oracle indexes the order table, no module imports numpy and the
CLI writes its pinned outputs without it, family queries
from outside `families` go through the public, id-translating methods,
only `tree` classifies leaves, `grounds` builds systems without carving
them out of larger ones or scanning every side assignment, every JSON
output goes through the one writer `system.dump_json`, and the tree checks
read each node against its parent instead of walking its ancestors.

The oracle is the independent ground truth the suite checks the pipeline
against, so the pipeline must not compute anything with it.  Only the CLI
(its `oracle` command and `--budget`) may import it; the package `__init__`
re-exports it, the certifier `is_rich` included, as part of the public
namespace without running any of it.  Nor does the oracle share the
pipeline's searches: of a family it asks only `is_member`, and its tree
checkers read a system only through its order table, orders and counts.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import tangleforge
from tangleforge.families import KINDS
from tangleforge.tree import StructureTree

from conftest import FIXTURES
from test_outputs import INPUTS, OUTPUT_SHA256, V2_SHA256

PACKAGE = Path(tangleforge.__file__).parent


def _imports_oracle(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return (node.module or "").split(".")[-1] == "oracle" or \
            any(alias.name == "oracle" for alias in node.names)
    if isinstance(node, ast.Import):
        return any(alias.name.split(".")[-1] == "oracle" for alias in node.names)
    return False


def _oracle_imports(module: str):
    """(module, enclosing function or None, line) of each oracle import."""
    out = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if _imports_oracle(child):
                out.append((module, func, child.lineno))
            inner = child.name if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), None)
    return out


def test_only_the_cli_imports_the_oracle():
    found = [imp for path in sorted(PACKAGE.glob("*.py"))
             for imp in _oracle_imports(path.stem)]
    assert [imp for imp in found if imp[0] not in ("__init__", "cli")] == []
    # the walk sees the imports that are allowed, so it cannot pass vacuously
    assert {m for m, _, _ in found} == {"__init__", "cli"}


def _leq_subscripts(module: str):
    """Lines where the module indexes some object's ``leq`` matrix."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "leq"]


def test_only_the_oracle_indexes_leq():
    # Set operations and the system's own checks read its order words;
    # per-cell reads of the order table are the oracle's, which keeps them
    # so that it stays independent of the masks.
    found = {path.stem: _leq_subscripts(path.stem)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {m for m, lines in found.items() if lines} == {"oracle"}


def _imported_roots(module: str) -> set[str]:
    """The top-level names of the modules ``module`` imports, wherever the
    import sits; relative imports count as the package."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            out.add("tangleforge" if node.level else node.module.split(".")[0])
    return out


def test_no_module_imports_numpy():
    # Orders and lattices are Python-int words, so the library starts
    # without numpy; the tests, demos and benchmark use it on their own.
    found = {path.stem: _imported_roots(path.stem)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert [m for m, roots in found.items() if "numpy" in roots] == []
    assert "json" in found["system"]  # the walk sees imports


# Run in a fresh interpreter in which importing numpy fails: each fixture's
# build, the validate of the system its report inlines, and certify --k 2;
# prints (exit code, sha256 of the output) per run.
WITHOUT_NUMPY = """
import hashlib, json, sys
sys.modules["numpy"] = None
import tangleforge, tangleforge.cli
from tangleforge.cli import main
out = {}
for name, args, tmp in json.loads(sys.argv[1]):
    def run(command, *argv):
        code = main([*argv, "--out", f"{tmp}/{command}"])
        data = open(f"{tmp}/{command}", "rb").read()
        out[f"{name} {command}"] = [code, hashlib.sha256(data).hexdigest()]
        return data
    report = json.loads(run("build", "build", *args))
    with open(f"{tmp}/system.json", "w") as f:
        json.dump(report["system"], f)
    run("validate", "validate", "--system", f"{tmp}/system.json")
    run("certify", "certify", "--k", "2", *args)
print(json.dumps([out, sorted(m for m in sys.modules if m.startswith("numpy"))]))
"""


def test_the_cli_writes_its_pinned_outputs_without_numpy(tmp_path):
    jobs = []
    for name, argv in INPUTS.items():
        (tmp_path / name).mkdir(parents=True)
        jobs.append([name, [str(FIXTURES / a) if a.endswith((".edges", ".csv"))
                            else a for a in argv], str(tmp_path / name)])
    done = subprocess.run(
        [sys.executable, "-c", WITHOUT_NUMPY, json.dumps(jobs)],
        env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)), capture_output=True,
        text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    got, numpy_modules = json.loads(done.stdout)
    assert numpy_modules == ["numpy"]  # the blocked entry, nothing imported
    for name in INPUTS:
        for command in ("build", "certify"):
            run = f"{name} {command}"
            assert got[run] == [OUTPUT_SHA256[run][0],
                                V2_SHA256.get(run, OUTPUT_SHA256[run][1])], run
        assert got[f"{name} validate"][0] == 0, name


def _method_calls(module: str, names) -> list[tuple[str, int]]:
    """(method, line) of each call ``something.method(...)`` in the module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [(node.func.attr, node.lineno) for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names]


def test_family_hooks_are_called_only_inside_families():
    # The hooks take the bound system's ids; callers elsewhere would skip the
    # translation from a level system's ids that the public methods make.
    hooks = ("_search", "_witness", "_answer", "_critical")
    found = {path.stem: _method_calls(path.stem, hooks)
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {m for m, calls in found.items() if calls} == {"families"}


def test_the_oracle_asks_families_only_is_member():
    # The oracle checks the tree's searches, so it asks a family for its
    # definition alone, in the family's own ids, and nothing the tree asks.
    methods = {name for cls in KINDS.values() for name in dir(cls)
               if callable(getattr(cls, name)) and not name.startswith("__")}
    assert {"forbidden_subset", "holds_member", "critical_labels", "_search",
            "_answer", "_critical", "_ids_into"} <= methods
    assert _method_calls("oracle", methods - {"is_member"}) == []
    assert _method_calls("oracle", ("is_member",)) != []  # the walk sees it


def _function_calls(module: str, name: str) -> list[int]:
    """Lines where the module calls ``name`` directly or as an attribute."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) == name
                 or getattr(node.func, "attr", None) == name)]


def test_only_the_tree_classifies_leaves():
    # A tree keeps its leaf classes per family; `build` and the readers
    # outside `tree` go through leaf_class and classify_all, so no leaf of a
    # tree is classified twice.
    found = {path.stem: _function_calls(path.stem, "classify_leaf")
             for path in sorted(PACKAGE.glob("*.py"))}
    assert {m for m, lines in found.items() if lines} == {"tree"}


def test_construction_reads_needs_without_member_queries():
    # A forbidden leaf's needs are its critical labels, one family call;
    # asking forbidden_subset per label would build a witness for each.
    assert _function_calls("build", "forbidden_subset") == []
    assert _function_calls("build", "Witness") == []
    assert _function_calls("build", "critical_labels") != []  # the walk sees it


def _calls_in(module: str, function: str, names) -> list[tuple[str, int]]:
    """``_method_calls`` inside one top-level function or method."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    [top] = [node for node in ast.walk(tree)
             if isinstance(node, ast.FunctionDef) and node.name == function]
    return [(node.func.attr, node.lineno) for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in names]


CARVING = ("restrict_below", "subsystem")


def test_grounds_build_systems_without_carving():
    # A graph system is built from its graph's separations, not restricted
    # out of a larger system; one construction path serves every graph.
    assert _method_calls("grounds", CARVING) == []
    # the walk sees these calls where they are made
    assert _method_calls("system", ("subsystem",)) != []


def test_levels_are_views_not_carved_systems():
    # A pipeline or certify level is a view of the top system: neither the
    # pipeline nor restrict nor certify nor the view itself builds a system
    # for it, nor does writing it, and the CLI carves nowhere.
    for module, function in (("build", "pipeline"), ("tree", "restrict"),
                             ("tree", "_restrict"), ("system", "view_below"),
                             ("system", "to_json_dict"), ("cli", "cmd_certify")):
        assert _calls_in(module, function, CARVING) == [], function
    assert _method_calls("cli", CARVING) == []
    # the walk sees these calls where they are made
    assert _calls_in("system", "restrict_below", CARVING) != []


def _product_uses(module: str) -> list[int]:
    """Lines where the module imports or reads ``itertools.product``."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return [node.lineno for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "itertools"
            and any(alias.name == "product" for alias in node.names)
            or isinstance(node, ast.Attribute) and node.attr == "product"
            and getattr(node.value, "id", None) == "itertools"]


def test_grounds_scan_no_tri_partitions():
    # Graph separations are enumerated separator first; the scan of all 3^n
    # side assignments is the oracle's own, the independent check.
    assert _product_uses("grounds") == []
    assert _product_uses("oracle") != []  # the walk sees the oracle's import


def _package_imports(module: str) -> set[str]:
    """The package modules ``module`` imports, wherever the import sits."""
    out = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:
                if module.split(".")[0] != "tangleforge":
                    continue
                module = module.removeprefix("tangleforge").lstrip(".")
            out.update([module.split(".")[0]] if module
                       else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("tangleforge."))
    return out


def test_the_oracle_imports_only_the_system_families_and_errors():
    # The oracle checks the separation generator in `grounds`; using that
    # generator itself would check it against itself.
    assert _package_imports("oracle") == {"system", "families", "errors"}
    assert "system" in _package_imports("grounds")  # the walk sees imports


def _frozenset_callers(module: str) -> set[str]:
    """Qualified names of the functions in ``module`` that call frozenset."""
    out = set()

    def visit(node, name):
        for child in ast.iter_child_nodes(node):
            inner = name
            if isinstance(child, (ast.ClassDef, ast.FunctionDef)):
                inner = f"{name}.{child.name}" if name else child.name
            if isinstance(child, ast.Call) and \
                    getattr(child.func, "id", None) == "frozenset":
                out.add(f"{module}.{name}")
            visit(child, inner)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), "")
    return out


def test_sets_cross_layers_as_masks():
    # Between the system, trees, construction and the families a set of
    # oriented ids is a mask.  Frozensets are made only where a set leaves
    # the library as a result: a tangle leaf's tangle (read by `tangles` and
    # the report entries), a witness's members, and the certifier's
    # counterexamples.
    found = set().union(*(_frozenset_callers(m)
                          for m in ("system", "tree", "build", "families")))
    assert found == {"tree.classify_leaf",
                     "families.ForbiddenFamily.forbidden_subset",
                     "families.is_closed_under_minimization"}


def _json_dumps_calls(module: str) -> set[str | None]:
    """The top-level functions of ``module`` (None outside any) that call
    ``json.dumps`` or a ``dumps`` imported from json, nested calls included."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    imported = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "json"
                for alias in node.names if alias.name == "dumps"}
    return {top.name if isinstance(top, ast.FunctionDef) else None
            for top in tree.body for node in ast.walk(top)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "id", None) in imported
                 or getattr(node.func, "attr", None) == "dumps"
                 and getattr(node.func.value, "id", None) == "json")}


def test_every_json_output_goes_through_the_one_writer():
    # dump_json writes json.dumps(sort_keys=True, indent=1) bytes without the
    # standard library's pure-Python indenting encoder; another json.dumps
    # would be a second writer whose bytes and cost could drift.  The walk
    # sees the one call dump_json makes for values it leaves to json.
    found = {(path.stem, func) for path in sorted(PACKAGE.glob("*.py"))
             for func in _json_dumps_calls(path.stem)}
    assert found == {("system", "dump_json")}


def _while_loops(module: str) -> dict[str, list[int]]:
    """Top-level function -> lines of the while loops inside it."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    return {top.name: [node.lineno for node in ast.walk(top)
                       if isinstance(node, ast.While)]
            for top in tree.body if isinstance(top, ast.FunctionDef)}


def test_tree_checks_read_each_node_against_its_parent():
    # Each rule of the ladder holds on every root path exactly when it holds
    # on every edge, read against the root-path label mask the tree keeps;
    # reduction orders nodes by that mask's size, which is the depth on a
    # separation tree.  A walk to the root per node would be quadratic.
    assert _function_calls("build", "depth") == []
    assert _function_calls("build", "path_from_root") == []
    assert _function_calls("build", "bit_count") != []  # the walk sees it
    loops = _while_loops("tree")
    for name in ("is_separation_tree", "is_consistent_tree", "is_ordered"):
        assert loops[name] == [], name
    assert loops["_restrict"] != []  # the walk sees while loops


def _oracle_functions_reached(roots) -> dict:
    """The top-level functions of the oracle that ``roots`` call, directly
    or through one another, with the roots themselves: name -> node."""
    tree = ast.parse((PACKAGE / "oracle.py").read_text())
    top = {node.name: node for node in tree.body
           if isinstance(node, ast.FunctionDef)}
    reached, todo = {}, list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached[name] = top[name]
            todo += [node.func.id for node in ast.walk(top[name])
                     if isinstance(node, ast.Call)
                     and getattr(node.func, "id", None) in top]
    return reached


def test_the_tree_checkers_read_only_the_order_table_orders_and_counts():
    # The checkers stand for the paper's definitions: they read a system's
    # `leq` cells, its orders and its counts, none of the words, masks or
    # set methods the tree and construction use, no tree method, and of a
    # family its `is_member` alone.
    reached = _oracle_functions_reached(["tree_faults", "replay"])
    assert {"_has_member", "is_efficient_in"} <= set(reached)
    attributes = [(node.value.id, node.attr) for func in reached.values()
                  for node in ast.walk(func) if isinstance(node, ast.Attribute)
                  and isinstance(node.value, ast.Name)]
    read = {attr for name, attr in attributes if name == "system"}
    assert read == {"leq", "orders", "count", "n_oriented"}
    forbidden = {"up", "down", "_requires", "_away", "_below", "closure",
                 "minimal_elements"}
    tree_methods = {name for name in vars(StructureTree)
                    if callable(getattr(StructureTree, name))
                    and not name.startswith("__")}
    assert {"beta", "closure", "children", "s_of"} <= tree_methods
    assert [attr for _, attr in attributes
            if attr in forbidden | tree_methods] == []
    asked = {attr for name, attr in attributes if name == "family"}
    assert asked == {"arity", "system", "is_member"}
    called = {node.func.attr for func in reached.values()
              for node in ast.walk(func) if isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and getattr(node.func.value, "id", None) == "family"}
    assert called == {"is_member"}
