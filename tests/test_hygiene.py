"""Reachability: the package holds no code that only the tests reach.

Every module-level function, class and assignment of ``src/oikg``, and
every method that is not a dunder, must be referenced by name somewhere in
``src/oikg`` outside its own definition.  A helper that only tests call
belongs in the tests; one that nothing calls belongs nowhere.  Names are
matched, not resolved: a reference to ``x.add`` keeps every ``add`` alive,
and one name of an unpacking assignment (``PAD, BOS, EOS = 0, 1, 2``)
keeps the whole statement.  Likewise every dataclass field must be read:
loaded as an attribute (``x.field``) somewhere outside its class body.

Likewise pytest must know every setting of ``[tool.pytest.ini_options]``:
a misspelled key would switch nothing on.  And under those settings a
failing property test must count as one failure, not end the session.
"""

import ast
import re
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "oikg"


def dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def definitions(tree: ast.Module):
    """(qualified name, bare names, defining node) for each checked member."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, {node.name}, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not dunder(item.name)):
                    yield f"{node.name}.{item.name}", {item.name}, item
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for target in targets for n in ast.walk(target)
                     if isinstance(n, ast.Name) and not dunder(n.id)]
            if names:
                yield ", ".join(names), set(names), node


def loaded_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def parse(src: Path) -> dict:
    return {path.stem: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(src.glob("*.py"))}


def unreferenced(src: Path = SRC) -> list[str]:
    """Members of the package's modules that nothing in it references,
    as 'module.member' strings."""
    trees = parse(src)
    # every loaded name, with the node that loads it
    loads = [(name, node) for tree in trees.values() for node in ast.walk(tree)
             if (name := loaded_name(node)) is not None]
    found = []
    for module, tree in trees.items():
        for qualname, names, defn in definitions(tree):
            inside = {id(n) for n in ast.walk(defn)}
            if not any(n in names and id(node) not in inside for n, node in loads):
                found.append(f"{module}.{qualname}")
    return found


def is_dataclass(cls: ast.ClassDef) -> bool:
    return any(loaded_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
               for d in cls.decorator_list)


def unread_fields(src: Path = SRC) -> list[str]:
    """Dataclass fields of the package that nothing in it loads as an
    attribute outside the class body, as 'module.Class.field' strings."""
    trees = parse(src)
    reads = [(node.attr, node) for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)]
    found = []
    for module, tree in trees.items():
        for cls in tree.body:
            if not (isinstance(cls, ast.ClassDef) and is_dataclass(cls)):
                continue
            inside = {id(n) for n in ast.walk(cls)}
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    field = item.target.id
                    if not any(attr == field and id(node) not in inside
                               for attr, node in reads):
                        found.append(f"{module}.{cls.name}.{field}")
    return found


def test_every_package_member_is_referenced_in_the_package():
    assert unreferenced() == []


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_fields() == []


def test_check_flags_a_member_only_its_own_body_uses(tmp_path):
    (tmp_path / "a.py").write_text(
        "import math\n"
        "LIMIT = 3\n"
        "LOW, HIGH = 0, 1\n"
        "UNUSED_A, UNUSED_B = 2, 3\n"
        "def bounds():\n    return LOW\n"
        "def used():\n    return LIMIT\n"
        "def recursive(n):\n    return recursive(n - 1) if n else math.pi\n"
        "class Box:\n"
        "    def __init__(self):\n        self.size = used()\n"
        "    def grow(self):\n        return self.size\n"
        "    def orphan(self):\n        return self.grow()\n")
    (tmp_path / "b.py").write_text("from .a import Box, bounds\n\nBOX = (Box(), bounds())\n")
    assert unreferenced(tmp_path) == ["a.UNUSED_A, UNUSED_B", "a.recursive",
                                      "a.Box.orphan", "b.BOX"]


def test_check_flags_a_dataclass_field_nothing_reads(tmp_path):
    (tmp_path / "a.py").write_text(
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class Row:\n"
        "    read: int\n"
        "    own_body_only: int\n"
        "    written_only: int = 0\n"
        "    def __post_init__(self):\n        assert self.own_body_only >= 0\n"
        "@dataclasses.dataclass\n"
        "class Pair:\n"
        "    left: int\n"
        "    right: int\n"
        "class Plain:\n"
        "    never_read: int\n")
    (tmp_path / "b.py").write_text(
        "from .a import Pair, Row\n\n"
        "def use(row: Row, pair: Pair):\n"
        "    row.written_only = pair.left\n"
        "    return row.read, getattr(pair, 'right')\n")
    assert unread_fields(tmp_path) == ["a.Row.own_body_only", "a.Row.written_only",
                                       "a.Pair.right"]


def test_every_pytest_setting_is_known(pytestconfig):
    """``getini`` raises ValueError for an unknown key.  Strictness is on:
    pytest reads it from the ``strict_markers`` and ``strict_config`` ini
    keys, and the same flags in ``addopts`` leave those keys false."""
    text = (SRC.parents[1] / "pyproject.toml").read_text()
    section = text.split("[tool.pytest.ini_options]\n", 1)[1].split("\n[", 1)[0]
    keys = re.findall(r"^(\w+)\s*=", section, flags=re.MULTILINE)
    assert "filterwarnings" in keys
    for key in keys:
        pytestconfig.getini(key)
    assert pytestconfig.getini("strict_markers") is True
    assert pytestconfig.getini("strict_config") is True


PROPERTY_TESTS = """\
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_after():
    pass
"""


def test_failing_property_test_is_reported_as_a_failure(tmp_path):
    """Reporting a failing ``@given`` test makes hypothesis import libcst,
    whose import warns that ``mypy_extensions.TypedDict`` is deprecated.
    Under ``filterwarnings = ["error"]`` alone that warning aborted the
    session (INTERNALERROR, exit 3) before any later test ran."""
    (tmp_path / "test_prop.py").write_text(PROPERTY_TESTS)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(SRC.parents[1] / "pyproject.toml"), "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert run.returncode == 1, run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
