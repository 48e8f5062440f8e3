"""No code writes to a formula or term node once it is built.

The nodes in ``syntax.py`` are slotted dataclasses with plain attribute
stores, so nothing stops such a write at run time, and one would corrupt
every memo table and cached name set that holds the node.  No linter ships
with the project, so this reads each module's syntax tree: an attribute
named like a node field or cache slot may be assigned, deleted or set by
``setattr`` only through ``self`` (a constructor, or a class with a field
of the same name) or by the cache stores of ``syntax.py`` named below.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

NODE_ATTRS = {"lhs", "rhs", "body", "var", "op", "args", "name", "_free", "_bound", "_hash", "_vars"}

# (module, function) -> the cache slots it fills in on the nodes it is given
CACHE_STORES = {
    ("src/intlat/syntax.py", "term_vars"): {"_vars"},
    ("src/intlat/syntax.py", "free_vars"): {"_free", "_bound"},
}

_SETTERS = {"setattr", "delattr", "__setattr__", "__delattr__"}


class _Writes(ast.NodeVisitor):
    """Every write of a node attribute through anything but ``self``, as
    (innermost enclosing function or None, attribute)."""

    def __init__(self) -> None:
        self.function = None
        self.found: list[tuple] = []

    def visit_FunctionDef(self, node) -> None:
        outer, self.function = self.function, node.name
        self.generic_visit(node)
        self.function = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def _write(self, receiver: ast.expr, attr) -> None:
        if attr in NODE_ATTRS and not (isinstance(receiver, ast.Name) and receiver.id == "self"):
            self.found.append((self.function, attr))

    def _target(self, t: ast.expr) -> None:
        if isinstance(t, (ast.Tuple, ast.List)):
            for e in t.elts:
                self._target(e)
        elif isinstance(t, ast.Starred):
            self._target(t.value)
        elif isinstance(t, ast.Attribute):
            self._write(t.value, t.attr)

    def _statement(self, node) -> None:
        for t in node.targets if hasattr(node, "targets") else [node.target]:
            self._target(t)
        self.generic_visit(node)

    visit_Assign = visit_Delete = visit_AugAssign = visit_AnnAssign = _statement

    def visit_Call(self, node) -> None:
        # setattr(x, "lhs", v) and object.__setattr__(x, "lhs", v)
        fn = node.func
        name = fn.id if isinstance(fn, ast.Name) else fn.attr if isinstance(fn, ast.Attribute) else None
        if name in _SETTERS and len(node.args) >= 2 and isinstance(node.args[1], ast.Constant):
            self._write(node.args[0], node.args[1].value)
        self.generic_visit(node)


def _node_writes(tree: ast.Module) -> list[tuple]:
    writes = _Writes()
    writes.visit(tree)
    return writes.found


def test_no_module_writes_a_node_field_or_cache_slot():
    found = {}
    for path in sorted([*ROOT.glob("src/intlat/*.py"), *ROOT.glob("tests/*.py")]):
        rel = path.relative_to(ROOT).as_posix()
        bad = [(fn, a) for fn, a in _node_writes(ast.parse(path.read_text(), rel)) if a not in CACHE_STORES.get((rel, fn), ())]
        if bad:
            found[rel] = bad
    assert not found


def test_the_check_sees_a_write_to_a_node():
    tree = ast.parse(
        "def f(g, t, a):\n"
        "    g.lhs = a\n"
        "    a, t._vars = 1, 2\n"
        "    del g.rhs\n"
        "    g._hash += 1\n"
        "    object.__setattr__(g, '_free', None)\n"
        "    setattr(g, 'body', a)\n"
        "    self.var = a\n"
        "    g.seed = a\n"
        "t.op: str = 'cup'\n"
    )
    assert _node_writes(tree) == [
        ("f", "lhs"), ("f", "_vars"), ("f", "rhs"), ("f", "_hash"), ("f", "_free"), ("f", "body"), (None, "op"),
    ]
