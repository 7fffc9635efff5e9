import ast
import pathlib

import mathieumat


def test_no_assert_statements_in_package():
    # postconditions must survive ``python -O``, which strips asserts
    found = []
    for path in sorted(pathlib.Path(mathieumat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += ["%s:%d" % (path.name, node.lineno)
                  for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []



def runs_at_import(node):
    """The nodes under ``node`` that run when the module is imported:
    all of them but the bodies of functions."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield child
            yield from runs_at_import(child)


def test_no_module_imports_numpy_when_it_is_imported():
    # numpy is loaded at the first enumeration, inside the functions of
    # ``verify`` that use it; commands that never enumerate never pay for it
    found = []
    for path in sorted(pathlib.Path(mathieumat.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in runs_at_import(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += ["%s:%d" % (path.name, node.lineno)
                      for name in names if name.split(".")[0] == "numpy"]
    assert found == []


# ``Field.of`` and the public constructors that run it convert and check
# outside input.  They are called only where such input enters: public
# constructors, the raw scalars callers pass (a scale factor, a
# right-hand side, grid values, polynomial coefficients, family
# parameters, literal generators) and the space-file format.  Values the
# package built itself are canonical and never go through them again.
VALIDATING = {"of", "DenseMatrix", "from_flat", "from_vectors", "member", "reduce"}
BOUNDARY = {
    "linalg.DenseMatrix.__init__", "linalg.DenseMatrix.scale",
    "linalg.DenseMatrix.from_flat", "linalg.VectorSubspace.from_vectors",
    "linalg.VectorSubspace.reduce", "linalg.VectorSubspace.member", "linalg.solve_affine",
    "matspace.MatrixSubspace.from_matrices", "matspace.column_space",
    "idempotents.AffineFamily.with_block",
    "multipoly.MultiPoly.__init__", "multipoly.MultiPoly.scale",
    "multipoly.MultiPoly.evaluate", "multipoly.find_nonvanishing",
    "verify.proposition_family", "cli.running_pair_space",
}
BOUNDARY_MODULES = {"spacefile"}


def validating_callers(path):
    """Qualified names of the functions in ``path`` that call a name in
    VALIDATING, as a function or as a method."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in VALIDATING:
                    found.add(".".join([path.stem] + scope))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [])
    return found


def test_validating_entry_points_are_called_only_at_the_boundary():
    found = set()
    for path in sorted(pathlib.Path(mathieumat.__file__).parent.glob("*.py")):
        if path.stem not in BOUNDARY_MODULES:
            found |= validating_callers(path)
    assert found == BOUNDARY


def test_every_imported_name_is_used():
    # no linter runs on the package: an import left behind by the removal
    # of its last use fails here (``__init__`` imports to re-export)
    unused = []
    for path in sorted(pathlib.Path(mathieumat.__file__).parent.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += ["%s:%d %s" % (path.name, node.lineno, alias.name)
                           for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in used]
    assert unused == []


def imported_names(source):
    """The names that ``from mathieumat import ...`` statements in
    ``source`` import."""
    return {alias.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module == "mathieumat"
            for alias in node.names}


def test_the_package_binds_only_the_names_in_use():
    # the demos and the README quick start import from the package; every
    # other caller imports from the modules, so the package binds exactly
    # their names and the exception classes of ``errors``
    package = pathlib.Path(mathieumat.__file__).parent
    root = package.parent.parent
    bound = {alias.asname or alias.name
             for node in ast.parse((package / "__init__.py").read_text(encoding="utf-8")).body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    errors = {node.name for node in ast.parse(
        (package / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)}
    used = set()
    for path in sorted((root / "demos").glob("*.py")):
        used |= imported_names(path.read_text(encoding="utf-8"))
    readme = (root / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    used |= imported_names(quick_start.split("```", 1)[0])
    assert len(errors) == 8 and "DenseMatrix" in used
    assert {name for name in bound if not name.startswith("_")} == errors | used
