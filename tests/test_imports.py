"""Source hygiene: every name a module imports is used or re-exported,
dense matrices stay at the document boundary, no module has a dense
vector helper, the axiom batteries, the carrier restriction, the lift,
the connection system, the canonical map and the kernels stay in integer
arithmetic, and no private helper is left unused."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "fusionalg").glob("*.py"))


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return {elt.value for elt in node.value.elts}
    return set()


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign):
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.returns
            a = node.args
            for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]:
                yield arg and arg.annotation


def _quoted(tree: ast.Module):
    """The names inside quoted annotations, with their lines."""
    for annotation in filter(None, _annotations(tree)):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                yield from ((n.id, node.lineno) for n in ast.walk(quoted) if isinstance(n, ast.Name))


def _referenced(tree: ast.Module) -> set[str]:
    """Names loaded anywhere, and names inside quoted annotations."""
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return names | {name for name, _ in _quoted(tree)}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    unused = imported - _referenced(tree) - _exported(tree)
    assert not unused, f"{path.name} imports names it never uses: {sorted(unused)}"


@pytest.mark.parametrize(
    "path", [p for p in SOURCES if p.name != "linalg.py"], ids=lambda p: p.name
)
def test_dense_rows_stay_at_the_document_boundary(path):
    """Outside linalg, maps are read by their sparse columns: only the
    dense document codecs of serialize read the ``rows`` view, and no
    module calls the dense ``column`` or ``rows_sparse``."""
    tree = ast.parse(path.read_text())
    attributes = [node for node in ast.walk(tree) if isinstance(node, ast.Attribute)]
    if path.name != "serialize.py":
        reads = sorted({node.lineno for node in attributes if node.attr == "rows"})
        assert not reads, f"{path.name} reads .rows at lines {reads}"
    calls = [
        (node.func.attr, node.lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("column", "rows_sparse")
    ]
    assert not calls, f"{path.name} calls dense accessors: {calls}"


DENSE_VECTOR_HELPERS = {"zero_vec", "basis_vec", "sparse_of_vec", "mult_vec"}


def _names(node: ast.AST) -> list[str]:
    """The names a node defines, imports or reads."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.ImportFrom):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    return []


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dense_vector_helpers(path):
    """Vectors are sparse dicts in memory: no module defines, imports or
    calls a helper that builds or converts a dense vector."""
    tree = ast.parse(path.read_text())
    found = sorted(
        (name, node.lineno)
        for node in ast.walk(tree)
        for name in _names(node)
        if name in DENSE_VECTOR_HELPERS
    )
    assert not found, f"{path.name} names dense vector helpers: {found}"


# The axiom batteries by module, with `connection_unital`, the unital law
# of the connection battery, the check of an algebra map, the code that
# restricts the product and the coaction to a carrier and lifts a
# connection onto it with its fiber helpers, the connection system and
# the maps it is built from, the kernels they all sum with, the integer
# Gauss–Jordan steps, the echelon form and the kernel built on them, the
# solver's decision pass (on the same steps; a refutation's multipliers
# are a kernel vector over its kept rows) with the row path it reads
# through (the templates, a row, the key index and the reach), and the
# pullback glue.  A method is named ``Class.method``.
BATTERIES = {
    "linalg.py": (
        "linear_combination",
        "on_left",
        "on_right",
        "tensor_mul",
        "_Echelon.remainder",
        "_Echelon.keep",
        "rref",
        "kernel_vectors",
        "LinearSystem._templates",
        "LinearSystem.row",
        "LinearSystem._index",
        "LinearSystem._reach",
        "LinearSystem._decide",
    ),
    "algebra.py": ("check_algebra", "check_hom", "subalgebra_from_subspace", "restrict_product"),
    "hopf.py": ("check_hopf",),
    "comodule.py": (
        "check_comodule",
        "check_strong_connection",
        "connection_unital",
        "connection_system",
        "delta_L",
        "_times_first_leg",
        "coinvariants",
        "balanced_tensor",
        "canonical_map",
        "translation_inverse",
    ),
    "fusion.py": (
        "_tensor_coordinates",
        "_restrict_coaction",
        "_fiber_tensors",
        "_square_sum",
        "_refusal",
        "lift_connection",
        "pullback_identification",
    ),
}

# The `Fraction` loops: a sum of sparse entries, and a product of sparse
# vectors through a structure-constant table; the scaling of rational
# vectors to integers; and `Fraction` itself.
FRACTION_CALLS = {"accumulate", "mul_sparse", "integer_scaled", "Fraction"}

# The one exception: `rref` takes rows with rational entries, as spans are
# given, and scales them to integers once on entry.
ALLOWED_CALLS = {("linalg.py", "rref"): {"integer_scaled"}}


@pytest.mark.parametrize("name", sorted(BATTERIES))
def test_batteries_sum_no_fractions(name):
    """The batteries, the carrier restriction, the lift, the connection
    system, the canonical map and its translation inverse, the kernels,
    the echelon form, the solver's passes and the pullback glue read the
    integers that maps, tables, subspaces and systems store: none of
    them, nested functions included, sums
    ``Fraction`` entries with ``accumulate``, multiplies them with
    ``mul_sparse``, re-scales with ``integer_scaled`` (but for
    :data:`ALLOWED_CALLS`) or constructs a ``Fraction``."""
    path = next(p for p in SOURCES if p.name == name)
    tree = ast.parse(path.read_text())
    functions = {
        node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)
    } | {
        f"{node.name}.{method.name}": method
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for method in node.body
        if isinstance(method, ast.FunctionDef)
    }
    for battery in BATTERIES[name]:
        refused = FRACTION_CALLS - ALLOWED_CALLS.get((name, battery), set())
        calls = sorted(
            (node.func.id, node.lineno)
            for node in ast.walk(functions[battery])
            if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in refused
        )
        assert not calls, f"{name}:{battery} calls Fraction loops: {calls}"


def _private_definitions(tree: ast.Module):
    """The module-level private functions, classes and constants, with
    the line span of their definitions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno, node.end_lineno


def _uses(tree: ast.Module):
    """Every name read, imported or reached as an attribute, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom):
            yield from ((alias.name, node.lineno) for alias in node.names)
    yield from _quoted(tree)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_dead_private_helpers(path):
    """Every module-level private function, class or constant is used
    somewhere in the package outside its own definition."""
    uses = {source: list(_uses(ast.parse(source.read_text()))) for source in SOURCES}
    dead = [
        name
        for name, first, last in _private_definitions(ast.parse(path.read_text()))
        if not any(
            used == name and (source != path or not first <= line <= last)
            for source, found in uses.items()
            for used, line in found
        )
    ]
    assert not dead, f"{path.name} defines private names nothing uses: {dead}"
