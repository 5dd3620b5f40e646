"""Static checks over the source tree: the runtime imports only the
standard library and algolab itself, no module imports a name it never
uses (package ``__init__`` files re-export and are exempt), no code
attaches a cache to an object on the fly with ``hasattr``, every public
function is called from somewhere and entered by a command unless a ledger
says why not, no code raises ``AssertionError``, and a truncated or infinite
dimension is turned into text only at its boundaries."""

import ast
import contextlib
import io
import os
import re
import shlex
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


# Why each public def that no README example and no verify target enters
# is kept.  A reason starts with its kind: a reference the tests compare
# against, a lookup of perfbench, library API that no command needs, or a
# formula of the paper that no oracle check covers yet, with the ROADMAP item
# that will wire it.  The ledger only shrinks: an entry that a command
# enters fails the test, as does a def that is neither entered nor listed.
TEST = "test reference: "
PERF = "perfbench lookup: "
LIB = "library API: "
UNCHECKED = "unchecked formula: ROADMAP item "
NOT_ENTERED = {
    "cli._Parser.error": LIB + "argparse calls it on a usage error",
    "cli.main": LIB + "the algolab console script, which calls run_command",
    "dynkin.HereditaryDescriptor.to_json": LIB + "the JSON form of a descriptor",
    "dynkin.ValuedDynkinGraph.root_count": TEST + "the root count positive_roots checks",
    "dynkin.ValuedDynkinGraph.symmetrizers": TEST + "tests/test_dynkin.py",
    "dynkin.ValuedDynkinGraph.tits_q": TEST + "the Tits form of tests/test_dynkin.py",
    "dynkin.positive_roots": TEST + "the root systems of tests/test_dynkin.py",
    "dynkin.positive_roots.reflect": TEST + "nested in positive_roots",
    "gl.GLData.torsion_structure": UNCHECKED + "3 (the group structure of L in `gl`)",
    "gl.ScanReport.to_json": LIB + "the JSON form of a scan",
    "gl.geq_zero": PERF + "the tracer skips it as a per-point step",
    "gl.leq": TEST + "the partial order of tests/test_gl.py",
    "gl.x_gen": TEST + "the generators of tests/test_gl.py",
    "gl.zero": TEST + "the zero element of tests/test_gl.py",
    "linalg.RowSolver.contains": PERF + "the tracer wraps it",
    "linalg.RowSolver.kernel": TEST + "the nullspaces of hom_space and the tests",
    "linalg.RowSolver.reduce": PERF + "the tracer wraps it",
    "linalg.copy_matrix": PERF + "the tracer skips it as an allocation helper",
    "linalg.det": TEST + "tests/test_linalg_snf.py",
    "linalg.mat_mul": TEST + "the module maps of the tests",
    "linalg.mat_pow": UNCHECKED + "4 (the order of nu on K_0)",
    "nakayama.SerialModule.interval": TEST + "the serial modules of tests/test_nakayama.py",
    "nakayama.TnlReport.to_json": LIB + "the JSON form of a T(n,l) report",
    "nakayama.kupisch_module_dims": TEST + "the per-module walks of tests/test_nakayama.py",
    "nakayama.qf13_nakayama": UNCHECKED + "3 (the ledger of closed forms)",
    "nakayama.serial_dims": UNCHECKED + "3 (the ledger of closed forms)",
    "oracle.algebra.StructureConstantAlgebra.from_json": LIB + "the JSON round trip",
    "oracle.algebra.StructureConstantAlgebra.product_of_basis": TEST + "the products of the tests",
    "oracle.algebra.StructureConstantAlgebra.to_json": LIB + "the JSON round trip",
    "oracle.algebra.StructureConstantAlgebra.unit_coordinates": LIB + "the JSON round trip",
    "oracle.algebra.dual_numbers_presentation": TEST + "an algebra of the tests",
    "oracle.algebra.gorenstein_non_formal_presentation": TEST + "the paper's non-example",
    "oracle.algebra.kronecker_presentation": TEST + "an algebra of the tests",
    "oracle.algebra.linear_an_presentation": TEST + "an algebra of the tests",
    "oracle.algebra.parse_presentation": LIB + "ROADMAP item 5's presentation: base",
    "oracle.homology.HomologicalReport.to_json": LIB + "a report that does not verify",
    "oracle.homology.HomologicalReport.to_json.enc": LIB + "nested in to_json",
    "oracle.homology.codomdim_of_dual_regular": TEST + "Tachikawa's identity",
    "oracle.homology.ext_against_regular": TEST + "Ext(M, A), until ROADMAP item 7",
    "oracle.homology.inverse_nakayama": TEST + "the Nakayama functors of the tests",
    "oracle.homology.module_dims": TEST + "the module dimensions of the tests",
    "oracle.homology.nakayama_functor": TEST + "the Nakayama functors of the tests",
    "oracle.homology.tits_positive_roots": TEST + "the root count of the acceptance suite",
    "oracle.homology.tits_positive_roots.q": TEST + "nested in tits_positive_roots",
    "oracle.homology.tits_positive_roots.walk": TEST + "nested in tits_positive_roots",
    "oracle.modules.ModuleMap.block": TEST + "the module maps of the tests",
    "oracle.modules.RightModule.block": TEST + "the modules of the tests",
    "oracle.modules.RightModule.is_zero": TEST + "inverse_nakayama's zero module",
    "oracle.modules.RightModule.verify": TEST + "the module axioms the tests check",
    "oracle.modules.da_module": TEST + "Tachikawa's identity",
    "oracle.modules.hom_space": TEST + "the tests' dense Hom reference",
    "oracle.modules.hom_space.var": TEST + "nested in hom_space",
    "oracle.modules.injective_module": TEST + "the injectives of the tests",
    "oracle.modules.kernel_module": TEST + "the kernels of the tests",
    "oracle.modules.quotient_module": TEST + "the quotients of the tests",
    "oracle.modules.regular_module": TEST + "the regular module of the tests",
    "replicated.DimensionReport.to_json": LIB + "the JSON form of a dimension report",
    "replicated.d_hereditary_dims": UNCHECKED + "9",
    "replicated.d_rf_schedule_dims": UNCHECKED + "9",
    "replicated.indec_count_rf": UNCHECKED + "3 (the acceptance suite counts Tits roots)",
    "replicated.r_table_from_profile": UNCHECKED + "9",
    "serre.MinimalAGSchedule.contains": UNCHECKED + "5 (the schedules of every base)",
    "serre.MinimalAGSchedule.dims_at": UNCHECKED + "5 (the schedules of every base)",
    "serre.MinimalAGSchedule.members": UNCHECKED + "5 (the schedules of every base)",
    "serre.SerreProfile.check_dual_identities": TEST + "the acceptance suite's dual identities",
    "serre.self_injective_profile": UNCHECKED + "9",
    "serre.tensor_profiles": UNCHECKED + "9",
    "serre.tensor_profiles.combine": UNCHECKED + "9 (nested in tensor_profiles)",
    "snf.abelian_group_structure": TEST + "tests/test_linalg_snf.py, until ROADMAP item 3",
    "snf.diagonal_of": TEST + "tests/test_linalg_snf.py, until ROADMAP item 3",
    "snf.smith_normal_form": TEST + "tests/test_linalg_snf.py, until ROADMAP item 3",
    "snf.smith_normal_form.add_col": TEST + "nested in smith_normal_form",
    "snf.smith_normal_form.add_row": TEST + "nested in smith_normal_form",
    "snf.smith_normal_form.clear_from": TEST + "nested in smith_normal_form",
    "snf.smith_normal_form.negate_row": TEST + "nested in smith_normal_form",
    "snf.smith_normal_form.swap_cols": TEST + "nested in smith_normal_form",
    "snf.smith_normal_form.swap_rows": TEST + "nested in smith_normal_form",
}


def _commands():
    """The argv of every ``algolab`` line of the README's sh examples, then
    ``verify --target`` for each target the README does not run."""
    from algolab.cli import VERIFY_TARGETS

    lines, block = [], False
    for line in (SRC.parent.parent / "README.md").read_text().splitlines():
        if line.startswith("```"):
            block = line == "```sh"
        elif block and line.startswith("algolab "):
            lines.append(shlex.split(line, comments=True)[1:])
    return lines + [v for v in (["verify", "--target", t] for t in VERIFY_TARGETS) if v not in lines]


def test_every_public_function_has_a_caller(tmp_path, monkeypatch):
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

    # and every public def is entered by a command or in the ledger: the
    # code objects entered, by file and first line, against the public defs;
    # a decorated def's code starts at its first decorator
    from algolab import cli

    defs = {}
    for path in FILES:
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        for scope, node in _scoped(_tree(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name[0] != "_":
                first = min([d.lineno for d in node.decorator_list] + [node.lineno])
                defs[(str(path), first)] = f"{module}.{'.'.join(scope)}"
    entered = set()

    def note(frame, event, _, add=entered.add):
        if event == "call":
            add(frame.f_code)

    monkeypatch.chdir(tmp_path)  # the examples' --out files
    cli.build_parser.cache_clear()  # a cached parser enters no code
    commands = _commands()
    sys.setprofile(note)
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            codes = [cli.run_command(argv) for argv in commands]
    finally:
        sys.setprofile(None)
    assert codes == [2 if "selftest-corrupt" in argv else 0 for argv in commands]
    entered = {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in entered}
    missing = {name for key, name in defs.items() if key not in entered}
    assert sorted(missing - set(NOT_ENTERED)) == []
    assert sorted(set(NOT_ENTERED) - missing) == []  # entered now, or gone
    kinds = (TEST, PERF, LIB, UNCHECKED)
    assert [name for name, why in NOT_ENTERED.items() if not why.startswith(kinds)] == []


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
