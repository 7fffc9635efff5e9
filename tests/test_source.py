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
