"""Every import in the package and its tests is used.

No linter ships with the project, so this reads each module's syntax tree:
a name bound by an import must be read somewhere in the module or listed
in its ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(tree: ast.Module) -> set[str]:
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["__all__"]:
            read.update(ast.literal_eval(node.value))
    return imported - read


def test_no_module_imports_a_name_it_does_not_use():
    found = {}
    for path in sorted([*ROOT.glob("src/intlat/*.py"), *ROOT.glob("tests/*.py")]):
        rel = path.relative_to(ROOT).as_posix()
        unused = _unused_imports(ast.parse(path.read_text(), rel))
        if unused:
            found[rel] = sorted(unused)
    assert not found


def test_the_check_sees_an_unused_import():
    tree = ast.parse("from fractions import Fraction\nimport os.path\nimport re\nre.compile('x')\n")
    assert _unused_imports(tree) == {"Fraction", "os"}
