"""Static checks over the source tree: the runtime imports only the
standard library and algolab itself, no module imports a name it never
uses (package ``__init__`` files re-export and are exempt), no code
attaches a cache to an object on the fly with ``hasattr``, every public
function is called from somewhere, no code raises ``AssertionError``, and a
truncated or infinite dimension is turned into text only at its boundaries."""

import ast
import re
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "algolab"
FILES = sorted(SRC.rglob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _imports(tree):
    """(top-level module or None for relative imports, bound name, node)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                top = alias.name.split(".")[0]
                yield top, alias.asname or top, node
        elif isinstance(node, ast.ImportFrom):
            top = None if node.level else node.module.split(".")[0]
            for alias in node.names:
                yield top, alias.asname or alias.name, node


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_imports_are_stdlib_or_algolab(path):
    foreign = {
        top
        for top, _, _ in _imports(_tree(path))
        if top is not None and top != "algolab" and top not in sys.stdlib_module_names
    }
    assert not foreign


@pytest.mark.parametrize(
    "path",
    [p for p in FILES if p.name != "__init__.py"],
    ids=lambda p: str(p.relative_to(SRC)),
)
def test_no_unused_imports(path):
    tree = _tree(path)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    unused = sorted(
        f"{name} (line {node.lineno})"
        for _, name, node in _imports(tree)
        if name not in used
    )
    assert not unused


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_hasattr(path):
    # caches are attributes their owner sets up when it is built
    calls = sorted(
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "hasattr"
    )
    assert not calls


def test_every_public_function_has_a_caller():
    # a public def whose name appears nowhere in src/, tests/ or perfbench/
    # but in a definition of that name is dead code
    root = SRC.parent.parent
    texts = [
        p.read_text()
        for d in ("src", "tests", "perfbench")
        for p in sorted((root / d).rglob("*.py"))
    ]
    names = {
        node.name: f"{path.relative_to(SRC)}:{node.lineno}"
        for path in FILES
        for node in ast.walk(_tree(path))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("_")
    }
    uncalled = sorted(
        f"{name} ({where})"
        for name, where in names.items()
        if not any(re.search(rf"(?<!def )\b{name}\b", text) for text in texts)
    )
    assert not uncalled


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_assertion_error_is_raised(path):
    # a failed internal cross-check is an InternalMismatch with its witness
    def raised_name(node):
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return exc.id if isinstance(exc, ast.Name) else None

    lines = sorted(
        node.lineno
        for node in ast.walk(_tree(path))
        if isinstance(node, ast.Raise) and node.exc is not None and raised_name(node) == "AssertionError"
    )
    assert not lines


def _scoped(tree):
    """(names of the enclosing classes and defs, node) for every node."""

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = scope + (child.name,)
            yield inner, child
            yield from visit(child, inner)

    return visit(tree, ())


def test_dimensions_become_text_only_at_their_boundaries():
    # a truncated dimension stays an AtLeast until AtLeast.__str__ writes it
    # as '>N', and infinity stays math.inf until a JSON boundary names it
    allowed = {
        ">": {("oracle/homology.py", ("AtLeast", "__str__"))},
        "infinity": {("cli.py", ("_json_safe",)), ("oracle/homology.py", ("HomologicalReport", "to_json"))},
    }
    found = []
    for path in FILES:
        where = str(path.relative_to(SRC))
        for scope, node in _scoped(_tree(path)):
            if isinstance(node, ast.JoinedStr):
                head = node.values[0] if node.values else None
                if isinstance(head, ast.Constant) and head.value.startswith(">"):
                    if (where, scope[:2]) not in allowed[">"]:
                        found.append(f"f'>...' at {where}:{node.lineno}")
            elif isinstance(node, ast.Constant) and node.value == "infinity":
                if (where, scope[:2]) not in allowed["infinity"]:
                    found.append(f"'infinity' at {where}:{node.lineno}")
    assert not found


def test_walk_entries_are_read_only_by_the_dual_complex():
    # a walk's symbolic entries become maps in one place, _dual_complex; a
    # second reader of Resolution.syms would be a second builder of them
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in FILES
        for scope, node in _scoped(_tree(path))
        if isinstance(node, ast.Attribute)
        and node.attr == "syms"
        and scope != ("_dual_complex",)
    ]
    assert not found
