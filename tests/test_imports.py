"""Every name a lexner module imports, and every private helper it defines, is
used in that module; every public function or class is named by the program;
and no module splits text with `str.splitlines`."""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "lexner"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line number."""
    names: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def used_names(tree: ast.AST) -> set[str]:
    """Names read anywhere, including inside string annotations. An ``__all__``
    entry is a string, not a read: listing a name there does not use it."""
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for c in ast.walk(annotation):
            if isinstance(c, ast.Constant) and isinstance(c.value, str):
                used |= used_names(ast.parse(c.value, mode="eval"))
    return used


def private_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level function or class named with one leading underscore."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    }


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree).items()
              if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_checker_sees_a_name_used_only_in_a_string_annotation():
    tree = ast.parse('from x import A, B\ndef f(a: "A") -> "list[int]":\n    pass\n')
    assert set(imported_names(tree)) - used_names(tree) == {"B"}


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unreferenced_private_helpers(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = used_names(tree)
    dead = [f"{name} (line {line})" for name, line in private_definitions(tree).items()
            if name not in used]
    assert not dead, f"{path.name} defines but never uses: {', '.join(dead)}"


def test_checker_sees_an_unreferenced_private_helper():
    tree = ast.parse(
        "def _used():\n    pass\n"
        "def _dead():\n    pass\n"
        "class _Gone:\n    pass\n"
        "def __getattr__(name):\n    pass\n"
        "x = _used()\n"
    )
    assert set(private_definitions(tree)) - used_names(tree) == {"_dead", "_Gone"}


def public_definitions(tree: ast.Module) -> dict[str, int]:
    """Each module-level function or class whose name has no leading underscore."""
    return {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }


def named(tree: ast.Module) -> set[str]:
    """Every name a module imports, reads, or reads as an attribute."""
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return set(imported_names(tree)) | used_names(tree) | attributes


def test_every_public_definition_is_named_by_the_program():
    """A public function or class that no module of the package (its own
    included) and no `pyproject.toml` script names serves only tests."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SRC.glob("*.py")}
    names = set().union(*map(named, trees.values()))
    scripts = re.findall(r'"lexner\.(\w+):(\w+)"', (ROOT / "pyproject.toml").read_text())
    unnamed = [
        f"{stem}.{name} (line {line})"
        for stem, tree in sorted(trees.items())
        for name, line in public_definitions(tree).items()
        if name not in names and (stem, name) not in scripts
    ]
    assert not unnamed, f"only tests name: {', '.join(unnamed)}"


def test_checker_sees_an_unnamed_public_definition():
    tree = ast.parse(
        "import m\n"
        "def used():\n    pass\n"
        "def by_attribute():\n    pass\n"
        "def unnamed():\n    pass\n"
        "class Unnamed:\n    pass\n"
        "def _private():\n    pass\n"
        "used()\n"
        "m.by_attribute\n"
    )
    assert set(public_definitions(tree)) - named(tree) == {"unnamed", "Unnamed"}


def test_checker_does_not_count_an_all_entry_as_a_use():
    tree = ast.parse('__all__ = ["listed", "used"]\ndef listed():\n    pass\n'
                     "def used():\n    pass\nused()\n")
    assert set(public_definitions(tree)) - named(tree) == {"listed"}


def splitlines_calls(tree: ast.Module) -> list[int]:
    """The line of each `.splitlines(...)` call."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "splitlines"
    ]


def test_no_splitlines():
    """`data.read_lines` splits files into lines; `str.splitlines` would also
    break at U+2028, `\\x0c` and U+0085, which are characters of a line."""
    calls = [
        f"{path.name}:{line}"
        for path in sorted(SRC.glob("*.py"))
        for line in splitlines_calls(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not calls, f"splitlines called at {', '.join(calls)}"


def test_checker_sees_a_splitlines_call():
    tree = ast.parse('"""splitlines("""\nx = text.splitlines()\ny = f(a).splitlines(True)\n')
    assert splitlines_calls(tree) == [2, 3]
