import ast
import importlib
import inspect
import pathlib
import re
import typing

import mathieumat

PACKAGE = pathlib.Path(mathieumat.__file__).parent
ROOT = PACKAGE.parent.parent
MODULES = sorted(PACKAGE.glob("*.py"))


def test_no_assert_statements_in_package():
    # postconditions must survive ``python -O``, which strips asserts
    found = []
    for path in MODULES:
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


# Modules that no module of the package imports when it is imported, so
# that ``import mathieumat.cli``, which every command pays, stays short;
# each with the reason the package does without it at start-up.
KEPT_OUT_OF_START_UP = {
    "numpy": "loaded at the first enumeration, inside the functions of "
             "``verify`` that use it: commands that never enumerate never pay for it",
    "dataclasses": "imports inspect, ast, dis, tokenize and copy, and execs "
                   "generated methods per class: the result records are namedtuples",
    "typing": "annotations are strings (``from __future__ import annotations``)",
    "inspect": "imports ast, dis, tokenize and linecache; nothing is introspected",
    "argparse": "imports gettext, whose locale lookups and ten parsers cost more than a "
                "short job's parsing: ``cli._read`` reads a well-formed line off "
                "``cli.COMMANDS``, and ``cli.build_parser`` imports argparse only to "
                "reject a line or print help",
}


def test_no_module_imports_what_start_up_keeps_out():
    found = []
    for path in MODULES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in runs_at_import(tree):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            found += ["%s:%d %s: %s" % (path.name, node.lineno, name, KEPT_OUT_OF_START_UP[name])
                      for name in (name.split(".")[0] for name in names)
                      if name in KEPT_OUT_OF_START_UP]
    assert found == []


# ``Field.of`` and the public constructors that run it convert and check
# outside input.  They are called only where such input enters: public
# constructors, the raw scalars callers pass (a scale factor, a
# right-hand side, grid values, polynomial coefficients, family
# parameters, literal generators) and the space-file format.  Values the
# package built itself are canonical and never go through them again.
VALIDATING = {"of", "DenseMatrix", "from_vectors", "member"}
BOUNDARY = {
    "linalg.DenseMatrix.__init__", "linalg.DenseMatrix.scale",
    "linalg.VectorSubspace.from_vectors", "linalg.VectorSubspace.member",
    "matspace.MatrixSubspace.from_matrices", "matspace.column_space",
    "multipoly.MultiPoly.__init__", "multipoly.MultiPoly.evaluate",
    "multipoly.find_nonvanishing",
    "verify.proposition_family", "cli.running_pair_space",
}
BOUNDARY_MODULES = {"spacefile"}


def callers(path, names=VALIDATING):
    """Qualified names of the functions in ``path`` that call a name in
    ``names``, as a function or as a method."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + [child.name]
            elif isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in names:
                    found.add(".".join([path.stem] + scope))
            visit(child, inner)

    visit(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)), [])
    return found


def test_validating_entry_points_are_called_only_at_the_boundary():
    found = set()
    for path in MODULES:
        if path.stem not in BOUNDARY_MODULES:
            found |= callers(path)
    assert found == BOUNDARY


# Over Q a subspace keeps integer rows, and ``_scalars`` turns integers
# into canonical ``Fraction`` scalars only where a value leaves in that
# form: the basis view, ``invert``, a matrix product and the particular
# member of an idempotent family.  No internal path builds scalars only to
# clear them back to integers.
BUILDS_SCALARS = {
    "linalg.VectorSubspace.basis", "idempotents._family", "linalg.invert",
    "linalg.DenseMatrix.mul",
}


def test_scalars_are_built_only_at_the_edge():
    found = set()
    for path in MODULES:
        found |= callers(path, {"_scalars"})
    assert found == BUILDS_SCALARS


def test_one_conjugation_path():
    # t^-1 M t is formed on integers by ``matspace.conjugate`` alone: no
    # chained product ``x.mul(y).mul(z)`` in the package builds a second
    # one, and no other function forms an inverse to conjugate with
    chained = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "mul" and isinstance(node.func.value, ast.Call)
                    and getattr(node.func.value.func, "attr", None) == "mul"):
                chained.append("%s:%d" % (path.name, node.lineno))
    assert chained == []
    found = set()
    for path in MODULES:
        found |= callers(path, {"invert"})
    assert found == {"matspace.conjugate"}


def test_one_readout_path():
    # members satisfying linear conditions are read off ``_readout`` by
    # these three alone; no subspace method wraps it a second time
    found = set()
    for path in MODULES:
        found |= callers(path, {"_readout"})
    assert found == {"linalg.VectorSubspace.intersect", "matspace.members_vanishing_at",
                     "verify.max_left_ideal"}


def test_one_grid_reshape():
    # a flat row-major row becomes the n rows of its matrix through
    # ``linalg._grid`` alone, whatever its entries: ints, ``Fraction``s
    # or report strings
    found = set()
    for path in MODULES:
        found |= callers(path, {"_grid"})
    assert found == {"matspace.MatrixSubspace.basis_matrices", "matspace.conjugate",
                     "matspace.column_space", "matspace.Filtration.__init__",
                     "multipoly._action_pivots", "cli._basis_payload", "cli._scalar_corners"}


def test_one_left_ideal_builder():
    # a left ideal's block RREF is laid out from its row space by
    # ``verify._left_ideal`` alone: the maximal left ideal, the left-ideal
    # test and the column-kill postcondition all go through it
    found = set()
    for path in MODULES:
        found |= callers(path, {"_left_ideal"})
    assert found == {"verify.max_left_ideal", "verify.left_ideal_normal_form"}


def test_unit_vectors_are_not_multiplied_out():
    # C e_k is column k of C: a ``Filtration`` reads its column spaces
    # along e_k off the grids' columns, and only the other vectors, of
    # ``column_space``, the generic-vector scan and the rank-bound points,
    # are multiplied out
    found = set()
    for path in MODULES:
        found |= callers(path, {"_images"})
    assert found == {"matspace.column_space", "matspace.find_generic_vector",
                     "matspace._rank_bounds"}


def test_one_annihilator_read_off():
    # the trace dual of the verdicts and of small codimensions, every
    # kernel and the annihilators of the counterexample's column spans are
    # read off an RREF by ``_complement`` alone; no second loop builds an
    # annihilator
    found = set()
    for path in MODULES:
        found |= callers(path, {"_complement"})
    assert found == {"linalg._kernel", "matspace.constraint_space", "verify._Dual.__init__",
                     "cli._scalar_corners"}


def test_one_back_substitution():
    # ``_eliminate`` back-substitutes over both fields on its own, a dot
    # product per free column; the row-by-row clearing of ``_reduce`` is
    # left to the three membership tests
    found = set()
    for path in MODULES:
        found |= callers(path, {"_reduce"})
    assert found == {"linalg.VectorSubspace.member", "matspace.MatrixSubspace.contains",
                     "matspace.MatrixSubspace.contains_identity"}


# A value is immutable once built: ``object.__setattr__``, the one way
# past ``_Frozen``, is called by the constructors alone, so no property
# fills in a cache after the fact.
BUILDERS = {
    "linalg.Field.__init__", "linalg.DenseMatrix._set", "linalg.VectorSubspace.__init__",
    "matspace.MatrixSubspace.__init__", "matspace.Filtration.__init__",
    "multipoly.MultiPoly.__init__",
}


def test_values_are_not_written_after_they_are_built():
    found = set()
    for path in MODULES:
        found |= callers(path, {"__setattr__"})
    assert found == BUILDERS


def test_every_command_has_one_call_shape():
    # the dispatch table of ``cli.main`` maps each command of
    # ``cli.COMMANDS`` to its ``cmd_<name>``, and each of those takes
    # ``(args, space)``: a command added to one table and not the other,
    # or given a call of its own, fails here
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    tables = [node for node in ast.walk(functions["main"]) if isinstance(node, ast.Dict)
              and all(isinstance(v, ast.Name) and v.id.startswith("cmd_") for v in node.values)]
    assert len(tables) == 1
    dispatch = {ast.literal_eval(k): v.id for k, v in zip(tables[0].keys, tables[0].values)}
    commands = importlib.import_module("mathieumat.cli").COMMANDS
    assert dispatch == {name: "cmd_" + name for name in commands}
    assert {name: [a.arg for a in node.args.args] for name, node in functions.items()
            if name.startswith("cmd_")} == {name: ["args", "space"] for name in dispatch.values()}


def test_every_imported_name_is_used():
    # no linter runs here: an import left behind by the removal of its
    # last use, in the package, the tests or the demos, fails here
    # (``__init__`` imports to re-export)
    unused = []
    for path in MODULES + sorted(ROOT.glob("tests/*.py")) + sorted(ROOT.glob("demos/*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += ["%s:%d %s" % (path.relative_to(ROOT), node.lineno, alias.name)
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
    bound = {alias.asname or alias.name
             for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    errors = {node.name for node in ast.parse(
        (PACKAGE / "errors.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)}
    used = set()
    for path in sorted(ROOT.glob("demos/*.py")):
        used |= imported_names(path.read_text(encoding="utf-8"))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    quick_start = readme.split("## Quick start", 1)[1].split("```python\n", 1)[1]
    used |= imported_names(quick_start.split("```", 1)[0])
    assert len(errors) == 8 and "DenseMatrix" in used
    assert {name for name in bound if not name.startswith("_")} == errors | used


def test_every_annotation_resolves():
    # annotations are strings (``from __future__ import annotations``): a
    # name they use must be bound in the module when they are resolved
    unresolved = []
    for path in MODULES:
        module = importlib.import_module("mathieumat." + path.stem)
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = [obj]
            if inspect.isclass(obj):
                members += [getattr(m, "__func__", getattr(m, "fget", m))
                            for m in vars(obj).values()]
            for member in members:
                if inspect.isfunction(member) or inspect.isclass(member):
                    try:
                        typing.get_type_hints(member)
                    except NameError as exc:
                        unresolved.append("%s: %s" % (member.__qualname__, exc))
    assert unresolved == []


# Definitions deleted for being reached by nothing but the tests, or for
# being a second way to do what another definition does; the tests use the
# spelling that stays, or keep the reference in ``helpers``.
DELETED = {
    "linalg.Field.div", "linalg.Field.order", "linalg.Field.characteristic",
    "linalg.DenseMatrix.__matmul__", "linalg.DenseMatrix.row", "linalg.DenseMatrix.submatrix",
    "linalg.DenseMatrix.from_flat", "linalg.DenseMatrix.zeros", "linalg.DenseMatrix.mul_vector",
    "linalg.VectorSubspace.contains_subspace", "linalg.VectorSubspace.zero",
    "matspace.MatrixSubspace.zero_space", "matspace.MatrixSubspace.intersect",
    "matspace.MatrixSubspace.elements", "matspace.filtration_level",
    "matspace.column_space_dim", "matspace._column_space", "matspace.trace_pairing",
    "multipoly.MultiPoly.zero", "multipoly.MultiPoly.constant", "multipoly.MultiPoly.scale",
    "multipoly.MultiPoly.degree", "multipoly.MultiPoly.is_homogeneous",
    "verify.is_left_ideal", "spacefile.dumps", "spacefile.from_subspace",
    "spacefile.SpaceFile", "spacefile.SpaceFile.resolve", "linalg.Field.size_greater",
    "linalg.DenseMatrix.__getitem__", "matspace._basis_vector",
    "linalg.rref", "linalg.kernel", "linalg.solve_affine", "verify.full_power_set",
    "linalg.VectorSubspace.vanishing_at", "linalg.all_matrices",
    "matspace.Filtration.column_space",
    "idempotents._minor_trace", "matspace.MatrixSubspace.sum", "linalg.VectorSubspace.sum",
    "linalg.DenseMatrix.transpose", "linalg.DenseMatrix.__neg__", "multipoly.MultiPoly.__neg__",
    "multipoly.MultiPoly.__sub__", "linalg.Field.neg",
    "linalg.VectorSubspace.reduce", "linalg._subtract_rows", "cli._parse_args",
    "cli._rows_payload", "matspace._conjugate",
    "matspace.BinaryProfile.__new__", "matspace.BinaryProfile._make",
    "idempotents.AffineFamily.with_block", "multipoly.MultiPoly.__hash__",
    "matspace._grid", "multipoly._clean",
}


def definitions():
    """``(qualified name, node)`` of the module-level functions and
    classes of the package and of the methods of those classes."""
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield "%s.%s" % (path.stem, node.name), node
                for sub in node.body if isinstance(node, ast.ClassDef) else ():
                    if isinstance(sub, ast.FunctionDef):
                        yield "%s.%s.%s" % (path.stem, node.name, sub.name), sub


def named_in(tree):
    """The names that the code of ``tree`` uses, as a name, an attribute
    or an import, except inside a definition of the same name."""
    names = set()

    def visit(node, inside):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            inside = inside | {node.name}
        name = (node.id if isinstance(node, ast.Name) else
                node.attr if isinstance(node, ast.Attribute) else
                node.name.split(".")[-1] if isinstance(node, ast.alias) else None)
        if name is not None and name not in inside:
            names.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, inside)

    visit(tree, frozenset())
    return names


def test_every_public_definition_is_reached():
    # a public function, class or method of the package is named outside
    # its own definition: in the package, a demo, the README's fenced code
    # blocks (not the inline spans of its prose), or ``HOT_METHODS`` of
    # the tracer, which wraps methods by name; what only the tests reach
    # lives in the tests.  Names are matched, not types: a method that
    # shares its name with a reached one passes
    reached = set()
    for path in MODULES + sorted(ROOT.glob("demos/*.py")):
        reached |= named_in(ast.parse(path.read_text(encoding="utf-8")))
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for code in re.findall(r"```.*?```", readme, re.S):
        reached |= set(re.findall(r"\w+", code))
    tracing = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    hot = next(node.value for node in tracing.body if isinstance(node, ast.Assign)
               and [t.id for t in node.targets] == ["HOT_METHODS"])
    for classes in ast.literal_eval(hot).values():
        for methods in classes.values():
            reached |= set(methods)
    unreached = [qualname for qualname, node in definitions()
                 if not (node.name.startswith("_") or node.name in reached)]
    assert unreached == []
    assert DELETED.isdisjoint(qualname for qualname, _ in definitions())


def test_result_records_are_plain():
    # a result record holds what the package built, already in the shape
    # its builder gives it; it neither converts nor checks its fields, so
    # no record replaces namedtuple's own ``__new__`` or ``_make``
    found = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ClassDef) and any(
                    isinstance(base, ast.Call) and getattr(base.func, "id", None) == "namedtuple"
                    for base in node.bases):
                found += ["%s.%s.%s" % (path.stem, node.name, sub.name) for sub in node.body
                          if isinstance(sub, ast.FunctionDef) and sub.name in ("__new__", "_make")]
    assert found == []
