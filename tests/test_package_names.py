"""Every top-level function, class and constant of the package has a user
outside the tests: the package itself, its scripts or the benchmark. A
helper that only tests call belongs in tests/helpers.py."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "odup"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")


def top_level_names(source: str) -> list[str]:
    """Names a module binds at top level by def, class or assignment;
    dunders such as ``__version__`` are metadata and are left out."""
    names = []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [n for n in names if not (n.startswith("__") and n.endswith("__"))]


def unused_names(package: Path, users) -> list[str]:
    """Top-level names of ``package`` that appear, as a word, nowhere in the
    ``.py`` files under ``users`` except at their one definition."""
    text = "\n".join(p.read_text(encoding="utf-8") for d in users for p in sorted(d.rglob("*.py")))
    return sorted(
        name
        for path in sorted(package.glob("*.py"))
        for name in top_level_names(path.read_text(encoding="utf-8"))
        if len(re.findall(rf"\b{re.escape(name)}\b", text)) < 2
    )


def test_top_level_names_cover_defs_classes_and_constants():
    source = "X = 1\nA, (B, C) = 2, (3, 4)\nT: int = 5\n__version__ = '1'\n" \
             "def f():\n    inner = 1\nclass K:\n    attr = 2\n"
    assert top_level_names(source) == ["X", "A", "B", "C", "T", "f", "K"]


def test_flags_a_name_used_only_by_its_definition(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text("def used():\n    pass\n\ndef orphan():\n    return used()\n")
    (pkg / "b.py").write_text("from .a import used\nLIMIT = 3\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text("print(LIMIT)\n")
    assert unused_names(pkg, (pkg, scripts)) == ["orphan"]


def test_every_package_name_has_a_non_test_user():
    assert unused_names(PACKAGE, USERS) == []
