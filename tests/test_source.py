"""Checks on the package source itself."""

import argparse
import ast
import importlib
import inspect
import re
from pathlib import Path

import qpoints
from qpoints.cli import _build_parser


PUBLIC_API = [
    "Collection", "Configuration", "DegGraph", "DegNode", "GeneratorTable",
    "GroupScalar", "NotAdequateError", "OrbitCatalog", "QMatrix",
    "RealizationResult", "SolutionFamily", "SubLattice", "Triple", "TripleSet",
    "all_triples", "build_graph", "closure", "components", "enumerate_adequate",
    "enumerate_nodes", "forced_solutions", "generic_point_of_node",
    "good_triples", "ideal_generators", "is_adequate", "is_dense", "node_label",
    "parse_scalar", "qmatrix_from_json", "quartet_saturate", "realize",
    "realize_all", "sinks", "span", "to_dot", "triple_char",
]


def test_public_api_is_pinned():
    # a change to the public API is a deliberate edit of this list, and
    # __init__.py imports exactly the names it exports
    assert sorted(qpoints.__all__) == PUBLIC_API
    init = ast.parse(Path(qpoints.__file__).read_text())
    imported = [alias.asname or alias.name for node in init.body if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert sorted(imported) == PUBLIC_API


def test_no_assert_statements():
    # python -O strips assert statements, so no guard may rely on one
    package = Path(qpoints.__file__).parent
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_smith_normal_form_called_only_in_lattice():
    # every quotient Z^P / span goes through SubLattice.quotient, so no
    # second copy of the Smith-form reading can grow elsewhere
    package = Path(qpoints.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "smith_normal_form":
                    found.append(f"{path.name}:{node.lineno}")
    assert len(found) == 1 and found[0].startswith("lattice.py:"), found


def test_good_triples_reads_only_exponent_rows():
    # a matrix is its exponent rows, so variety.py never goes back to
    # GroupScalar entries: no name GroupScalar, no .upper or .exponents
    path = Path(qpoints.__file__).parent / "variety.py"
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        names = {alias.name for alias in node.names} if isinstance(node, ast.ImportFrom) else set()
        names.add(node.id if isinstance(node, ast.Name) else getattr(node, "attr", None))
        if names & {"GroupScalar", "upper", "exponents"}:
            found.append(f"variety.py:{node.lineno}")
    assert found == []


LATTICE_STATE = {"rows", "pivots", "supports"}
MUTATORS = {"append", "extend", "insert", "pop", "remove", "clear", "sort", "reverse"}


def lattice_state_writes(tree: ast.AST) -> list[int]:
    """Lines that assign to, delete or mutate in place an attribute named
    rows, pivots or supports, or an item of one."""

    def rooted(node):
        while isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Attribute) and node.attr in LATTICE_STATE

    lines = []
    for node in ast.walk(tree):
        stored = isinstance(node, (ast.Attribute, ast.Subscript)) and isinstance(node.ctx, (ast.Store, ast.Del))
        mutated = (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr in MUTATORS
            and rooted(node.func.value)
        )
        if (stored and rooted(node)) or mutated:
            lines.append(node.lineno)
    return sorted(lines)


def test_sublattice_state_written_only_in_lattice():
    # SubLattice keeps supports in step with rows and pivots, which holds
    # only while lattice.py alone writes them
    package = Path(qpoints.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "lattice.py"
        for line in lattice_state_writes(ast.parse(path.read_text()))
    ]
    assert found == []
    probe = "lat.rows = []\nlat.pivots[0] = 1\nlat.supports[0][1] += 2\nlat.rows.insert(0, r)\ndel lat.pivots[0]\nx = lat.rows[0]"
    assert lattice_state_writes(ast.parse(probe)) == [1, 2, 3, 4, 5]


def pair_layouts(tree: ast.AST) -> list[int]:
    """Lines that lay out the pairs i < j on their own: a call of
    triu_indices, a range that starts one past a name, range(i + 1, ...),
    or combinations(..., 2)."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func, args = node.func, node.args
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        past_name = (
            len(args) > 1
            and isinstance(args[0], ast.BinOp)
            and isinstance(args[0].op, ast.Add)
            and isinstance(args[0].left, ast.Name)
            and getattr(args[0].right, "value", None) == 1
        )
        pairs = name == "combinations" and len(args) > 1 and getattr(args[1], "value", None) == 2
        if name == "triu_indices" or (name == "range" and past_name) or pairs:
            lines.append(node.lineno)
    return sorted(lines)


def test_pair_order_laid_out_only_in_lattice():
    # lattice owns the torus coordinates: matrix rows walk pair_list, and
    # good triples and the generic point read boundary_pairs
    package = Path(qpoints.__file__).parent
    found = [
        f"{path.name}:{line}"
        for path in sorted(package.glob("*.py"))
        if path.name != "lattice.py"
        for line in pair_layouts(ast.parse(path.read_text()))
    ]
    assert found == []
    probe = (
        "for j in range(i + 1, n + 1):\n    pass\nnp.triu_indices(n + 1, 1)\nrange(i + 1)\nrange(i + 2, n)\nrange(1 + i, n)\n"
        "itertools.combinations(range(n + 1), 2)\ncombinations(range(n + 1), 3)"
    )
    assert pair_layouts(ast.parse(probe)) == [1, 3, 7]


def test_torsion_limit_read_only_by_solution_family():
    # one solver lists the torsion characters of b_t = 1, so the search
    # limit is read in SolutionFamily.characters and nowhere else
    package = Path(qpoints.__file__).parent
    readers = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            name = child.id if isinstance(child, ast.Name) else getattr(child, "attr", None)
            if name == "TORSION_SEARCH_LIMIT" and isinstance(child.ctx, ast.Load):
                readers.add(".".join((path.stem,) + scope))
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), ())
    assert readers == {"realize.SolutionFamily.characters"}, readers


def calling_scopes(name: str) -> set[str]:
    """module.function (or module.Class.method) of every call to name in
    the package; a call at module level is named by the module alone."""
    package = Path(qpoints.__file__).parent
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + (child.name,))
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) == name:
                    found.add(".".join((path.stem,) + scope))
            visit(child, scope)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text()), ())
    return found


def test_sweep_is_only_a_reference():
    # the catalog comes from lattice.traverse; the half-mask sweep is kept
    # only as the test oracle for n <= 5, so nothing in the package runs it
    assert calling_scopes("adequate_masks") == set()
    assert calling_scopes("_witness_masks") == {"adequacy.adequate_masks"}


def test_quartet_step_taken_only_by_traversal_and_saturation():
    # one closure-system traversal builds both the catalog and the graph
    assert calling_scopes("_quartet_add") == {"lattice.traverse", "lattice.quartet_saturate"}
    assert calling_scopes("traverse") == {"adequacy.enumerate_adequate", "degeneration._closed_reps_bfs"}


def test_traverse_is_a_function_of_n_alone():
    # one closure system, the quartet rule: no closing callback
    from qpoints.lattice import traverse

    assert list(inspect.signature(traverse).parameters) == ["n"]


def test_traversal_callers_are_functions_of_n_alone():
    # which n a command may run is the CLI's rule (--long at n = 5), and
    # the size bound is traverse's, so the library functions over one
    # dimension take no flag
    from qpoints import build_graph, enumerate_adequate, enumerate_nodes, realize_all, sinks

    for function in (enumerate_adequate, enumerate_nodes, build_graph, sinks, realize_all):
        assert list(inspect.signature(function).parameters) == ["n"], function.__name__


def test_traced_names_exist():
    # the benchmark tracer wraps these names by module attribute or class
    # __dict__ entry, so deleting one breaks the benchmark before its refresh
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    tables = {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) in ("FUNCTIONS", "METHODS")
    }
    missing = [
        f"{module}.{name}"
        for module, name, _ in tables["FUNCTIONS"]
        if not callable(getattr(importlib.import_module(f"qpoints.{module}"), name, None))
    ]
    missing += [
        f"{module}.{cls}.{name}"
        for module, cls, name, _ in tables["METHODS"]
        if name not in vars(getattr(importlib.import_module(f"qpoints.{module}"), cls))
    ]
    assert len(tables) == 2 and missing == []


def test_readme_lists_every_cli_option():
    # the README "Command line" block is the reference for the CLI, so the
    # lines of each subcommand name exactly the options its parser accepts
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    listed: dict[str, set[str]] = {}
    for line in block.splitlines():
        words = line.split("#", 1)[0].split()
        if words[:1] == ["qpoints"]:
            listed.setdefault(words[1], set()).update(re.findall(r"--[a-z-]+", " ".join(words[2:])))
    subparsers = next(a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    accepted = {
        name: {s for action in sub._actions for s in action.option_strings if s.startswith("--")} - {"--help"}
        for name, sub in subparsers.choices.items()
    }
    assert listed == accepted
