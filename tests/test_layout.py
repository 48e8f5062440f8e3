"""The cell layout stays behind one module.

A cell mask puts the point of rank i at bit 2i (see ``intlat.cells``),
so a shift by twice a rank, or a step of two bits, is the layout itself.
This reads each module's syntax tree: only ``cells.py`` may shift by
``2 * r`` (``<< 2 * r``, ``>> 2 * r``) or step a mask by ``>>= 2``;
every other module writes and reads cells through ``cells``.

The operation table ``OPS`` stays behind one evaluator the same way:
outside ``cells.py`` only ``semantics.py`` reads it, and only in
``_Term``, so no second walk over terms can compute what ``_Term`` does.

The exact keys that rank and hash points without hashing a ``Fraction``
are made in ``cells.py`` alone: no other module calls
``as_integer_ratio``, names ``lcm`` or reads a ``numerator`` or
``denominator``, so the kernels, the two set hashes and the solver all
go through ``cells``.

The evaluator never picks a structure itself: ``semantics.py`` names no
``SIG_*`` signature and calls no ``formula_symbols``, so each caller
names the structure by the signature it passes.

Implication is parse sugar for ``!a | b``: ``syntax.Formula`` has six
kinds of node, and no module defines, imports or reads an ``Implies``.

Terms are folded in one place: only ``transforms._simp`` (and the folder
itself, recursively) names ``_simp_term``, and ``_simp`` takes exactly
``(f, memo)``, so no second folder and no option on the simplifier can
come back.

The translations write no universal of their own: ``transforms.py``
builds a ``Forall`` in one statement only, the relativized image of an
input universal in ``_l2w``'s walk, and imports ``Forall`` under no
other name.
"""

import ast
from pathlib import Path

from intlat import syntax

ROOT = Path(__file__).resolve().parent.parent
MASK_MODULE = "src/intlat/cells.py"
EVAL_MODULE = "src/intlat/semantics.py"
FOLD_MODULE = "src/intlat/transforms.py"


def _is_two(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value == 2


def _twice(node: ast.expr) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and (_is_two(node.left) or _is_two(node.right))


def _rank_shifts(tree: ast.Module) -> list[int]:
    """The lines that shift by twice something or step by two bits."""
    shifts = (ast.LShift, ast.RShift)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.BinOp) and isinstance(node.op, shifts) and _twice(node.right):
            found.append(node.lineno)
        elif isinstance(node, ast.AugAssign) and isinstance(node.op, shifts) and (_twice(node.value) or _is_two(node.value)):
            found.append(node.lineno)
    return sorted(found)


def test_only_the_mask_module_knows_the_cell_layout():
    found = {}
    for path in sorted(ROOT.glob("src/intlat/*.py")):
        rel = path.relative_to(ROOT).as_posix()
        lines = _rank_shifts(ast.parse(path.read_text(), rel))
        if lines and rel != MASK_MODULE:
            found[rel] = lines
    assert not found
    assert _rank_shifts(ast.parse((ROOT / MASK_MODULE).read_text()))


def test_the_check_sees_a_planted_shift():
    tree = ast.parse("a = 1 << 2 * r\nb = m >> r * 2 & 1\nm >>= 2\nm <<= 2 * k\nc = x << 1\nd = x >> 2\n")
    assert _rank_shifts(tree) == [1, 2, 3, 4]


def _ops_reads(tree: ast.Module) -> list[tuple[int, str]]:
    """The lines that read ``OPS`` or import it under another name, each
    with the class it is read in ("" outside every class)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, ast.ClassDef):
            owner = node.name
        if (
            isinstance(node, ast.Name)
            and node.id == "OPS"
            or isinstance(node, ast.Attribute)
            and node.attr == "OPS"
            or isinstance(node, ast.alias)
            and node.name == "OPS"
            and node.asname not in (None, "OPS")
        ):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return sorted(found)


def test_only_the_interned_term_reads_the_operation_table():
    found = {}
    for path in sorted(ROOT.glob("src/intlat/*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if rel == MASK_MODULE:
            continue
        reads = _ops_reads(ast.parse(path.read_text(), rel))
        lines = [line for line, owner in reads if (rel, owner) != (EVAL_MODULE, "_Term")]
        if lines:
            found[rel] = lines
    assert not found
    assert {owner for _, owner in _ops_reads(ast.parse((ROOT / EVAL_MODULE).read_text()))} == {"_Term"}


def test_the_check_sees_a_planted_read():
    tree = ast.parse(
        "from .cells import OPS\n"
        "class _Term:\n    fn = OPS['cup']\n"
        "class Other:\n    g = cells.OPS\n"
        "h = OPS\n"
        "from .cells import OPS as table\n"
    )
    assert _ops_reads(tree) == [(3, "_Term"), (5, "Other"), (6, ""), (7, "")]


_KEY_PARTS = {"numerator", "denominator"}


def _point_keys(tree: ast.Module) -> list[int]:
    """The lines that make a point key: an ``as_integer_ratio`` call, any
    ``lcm``, or a read of a ``numerator`` or ``denominator``."""
    found = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "as_integer_ratio"
            or isinstance(node, ast.Name)
            and node.id == "lcm"
            or isinstance(node, ast.Attribute)
            and (node.attr == "lcm" or node.attr in _KEY_PARTS)
            or isinstance(node, ast.alias)
            and node.name == "lcm"
        ):
            found.append(node.lineno)
    return sorted(set(found))


def test_only_the_mask_module_makes_point_keys():
    found = {}
    for path in sorted(ROOT.glob("src/intlat/*.py")):
        rel = path.relative_to(ROOT).as_posix()
        lines = _point_keys(ast.parse(path.read_text(), rel))
        if lines and rel != MASK_MODULE:
            found[rel] = lines
    assert not found
    assert _point_keys(ast.parse((ROOT / MASK_MODULE).read_text()))


def test_the_check_sees_a_planted_key():
    tree = ast.parse(
        "k = p.as_integer_ratio()\n"
        "from math import lcm\n"
        "s = math.lcm(*ds)\n"
        "n = p.numerator * (s // p.denominator)\n"
        "f = lcm\n"
        "ok = ratio(p)\n"
        "numerator = 1\n"
    )
    assert _point_keys(tree) == [1, 2, 3, 4, 5]


def _structure_picks(tree: ast.Module) -> list[int]:
    """The lines that name a ``SIG_*`` signature or ``formula_symbols``,
    read, imported or called."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        else:
            continue
        if name.startswith("SIG_") or name == "formula_symbols":
            found.append(node.lineno)
    return sorted(set(found))


def test_the_evaluator_picks_no_structure_itself():
    assert _structure_picks(ast.parse((ROOT / EVAL_MODULE).read_text())) == []


def test_the_check_sees_a_planted_pick():
    tree = ast.parse(
        "from .syntax import SIG_L\n"
        "s = syntax.SIG_W_DIFF\n"
        "syms = formula_symbols(f)\n"
        "from .syntax import formula_symbols as fs\n"
        "sig = SIG_W if w else other\n"
        "ok = sig.finite_sets\n"
        "symbols = term_symbols(t)\n"
    )
    assert _structure_picks(tree) == [1, 2, 3, 4, 5]


def _implies_names(tree: ast.Module) -> list[int]:
    """The lines that define, import or read a name ``Implies``."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, (ast.alias, ast.ClassDef)):
            name = node.name
        else:
            continue
        if name == "Implies":
            found.append(node.lineno)
    return sorted(set(found))


def test_a_formula_has_six_kinds_and_no_implication():
    assert len(syntax.Formula.__args__) == 6
    found = {}
    for path in sorted(ROOT.glob("src/intlat/*.py")):
        rel = path.relative_to(ROOT).as_posix()
        if lines := _implies_names(ast.parse(path.read_text(), rel)):
            found[rel] = lines
    assert not found


def test_the_check_sees_a_planted_implication():
    tree = ast.parse(
        "from .syntax import Implies\n"
        "class Implies:\n    pass\n"
        "g = syntax.Implies(a, b)\n"
        "ok = isinstance(f, Implies)\n"
        "implies = Or(Not(a), b)\n"
    )
    assert _implies_names(tree) == [1, 2, 4, 5]


def _namings(tree: ast.Module, name: str) -> list[tuple[int, str]]:
    """The lines that name ``name``, read, called or imported, each with
    the function it is named in ("" outside every function)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if (
            isinstance(node, ast.Name)
            and node.id == name
            or isinstance(node, ast.Attribute)
            and node.attr == name
            or isinstance(node, ast.alias)
            and node.name == name
        ):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return sorted(found)


def test_one_simplifier_folds_terms():
    found = {}
    for path in sorted(ROOT.glob("src/intlat/*.py")):
        rel = path.relative_to(ROOT).as_posix()
        names = _namings(ast.parse(path.read_text(), rel), "_simp_term")
        lines = [line for line, owner in names if rel != FOLD_MODULE or owner not in ("_simp", "_simp_term")]
        if lines:
            found[rel] = lines
    assert not found
    tree = ast.parse((ROOT / FOLD_MODULE).read_text())
    assert {owner for _, owner in _namings(tree, "_simp_term")} == {"_simp", "_simp_term"}
    (simp,) = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef) and node.name == "_simp"]
    args = simp.args
    assert [a.arg for a in args.posonlyargs + args.args] == ["f", "memo"]
    assert not (args.vararg or args.kwonlyargs or args.kwarg or args.defaults)


def test_the_check_sees_a_planted_folder():
    tree = ast.parse(
        "def _simp(f, memo):\n    return _simp_term(f, memo)\n"
        "def _fold_terms(f, memo):\n    return _simp_term(f.lhs, memo)\n"
        "g = rebuild(f, transforms._simp_term)\n"
        "from .transforms import _simp_term as fold\n"
        "def _simp_terms(f):\n    return f\n"
    )
    assert _namings(tree, "_simp_term") == [(2, "_simp"), (4, "_fold_terms"), (5, ""), (6, "")]


def _forall_builds(tree: ast.Module) -> list[tuple[int, str]]:
    """The lines that call ``Forall`` or import it under another name, each
    with the path of functions it sits in, joined by dots ("" outside
    every function)."""
    found = []

    def visit(node: ast.AST, owner: str) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id == "Forall" or isinstance(func, ast.Attribute) and func.attr == "Forall":
                found.append((node.lineno, owner))
        elif isinstance(node, ast.alias) and node.name == "Forall" and node.asname not in (None, "Forall"):
            found.append((node.lineno, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, "")
    return sorted(found)


def test_the_translations_build_a_universal_at_one_site():
    builds = _forall_builds(ast.parse((ROOT / FOLD_MODULE).read_text()))
    # the pair of an input universal: A Vl. A Vr. !valid_pair(Vl, Vr) | ...
    assert len(builds) == 2
    assert {owner for _, owner in builds} == {"_l2w.walk"}
    assert len({line for line, _ in builds}) == 1


def test_the_check_sees_a_planted_universal():
    tree = ast.parse(
        "def _l2w(f):\n    def walk(h):\n        return Forall(a, Forall(b, h))\n"
        "def _bound(w):\n    return And(w, syntax.Forall(t, w))\n"
        "from .syntax import Forall as All\n"
        "g = isinstance(f, Forall)\n"
    )
    assert _forall_builds(tree) == [(3, "_l2w.walk"), (3, "_l2w.walk"), (5, "_bound"), (6, "")]
