"""The package holds nothing that only tests use.

Every top-level function, class and constant of the package has a user
outside the tests: the package itself, its scripts or the benchmark. A
helper that only tests call belongs in tests/helpers.py.

Every parameter with a default, of any function, method or ``__init__``,
and every dataclass field with a default, is passed by some call in those
same users: by keyword, positionally past its index, or through ``*`` or
``**`` unpacking. A value that no run sets is a constant, not a parameter.
The one exception is ``cli.main``'s ``argv``, the seam tests drive the
command line through; the console script passes none.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "odup"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
UNPASSED_ALLOWED = {"cli.main:argv"}


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


def _callee(node) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    return node.attr if isinstance(node, ast.Attribute) else None


def defaulted_params(source: str, module: str) -> list[tuple[str, str, str, int | None]]:
    """(callee, label, parameter, position) for every parameter with a
    default in ``source``. A call names ``callee``: the function, or the
    class for an ``__init__`` or a dataclass field. ``position`` is the
    parameter's index among a call's positional arguments (a method's leaves
    out self), None when it is keyword-only. ``label`` is
    ``module.Qualified.name:parameter``."""
    found = []

    def visit(node, qual: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                where = f"{qual}.{child.name}"
                if "dataclass" in {_callee(getattr(d, "func", d)) for d in child.decorator_list}:
                    fields = [f for f in child.body
                              if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]
                    found.extend((child.name, where, f.target.id, i)
                                 for i, f in enumerate(fields) if f.value is not None)
                visit(child, where, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, where = child.args, f"{qual}.{child.name}"
                callee = cls if child.name == "__init__" else child.name
                bound = cls is not None and "staticmethod" not in {_callee(d) for d in child.decorator_list}
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                found.extend((callee, where, p.arg, i - bound)
                             for i, p in enumerate(positional) if i >= first)
                found.extend((callee, where, p.arg, None)
                             for p, default in zip(a.kwonlyargs, a.kw_defaults) if default is not None)
                visit(child, where, None)
            else:
                visit(child, qual, cls)

    visit(ast.parse(source), module, None)
    return found


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` may pass ``param``: by keyword, by ``**``, or, for a
    positional parameter, by enough positional arguments or a ``*``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args))


def unpassed_defaults(package: Path, users) -> list[str]:
    """Labels of the defaulted parameters of ``package`` that no call in the
    ``.py`` files under ``users`` passes, UNPASSED_ALLOWED aside."""
    calls: dict[str, list[ast.Call]] = {}
    for path in (p for d in users for p in sorted(d.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                calls.setdefault(_callee(node.func), []).append(node)
    return sorted(
        f"{where}:{param}"
        for path in sorted(package.glob("*.py"))
        for callee, where, param, position in defaulted_params(path.read_text(encoding="utf-8"), path.stem)
        if f"{where}:{param}" not in UNPASSED_ALLOWED
        and not any(passes(call, param, position) for call in calls.get(callee, ()))
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


def test_defaulted_params_positions():
    source = ("def f(a, b=1, *, c=2, d):\n    def inner(e=3):\n        pass\n"
              "class K:\n    def __init__(self, x, y=0):\n        pass\n"
              "    def m(self, z=1):\n        pass\n"
              "    @staticmethod\n    def s(w=1):\n        pass\n"
              "@dataclass\nclass D:\n    p: int\n    q: int = 0\n    r: list = field(default_factory=list)\n")
    assert defaulted_params(source, "mod") == [
        ("f", "mod.f", "b", 1), ("f", "mod.f", "c", None), ("inner", "mod.f.inner", "e", 0),
        ("K", "mod.K.__init__", "y", 1), ("m", "mod.K.m", "z", 0), ("s", "mod.K.s", "w", 0),
        ("D", "mod.D", "q", 1), ("D", "mod.D", "r", 2),
    ]


def test_flags_a_default_only_tests_pass(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def by_keyword(x, scale=1.0):\n    return x * scale\n\n"
        "def by_position(x, y=0, z=0):\n    return x + y + z\n\n"
        "def by_star(x, y=0):\n    return x + y\n\n"
        "def by_double_star(*, key=1):\n    return key\n\n"
        "def orphan(x, temperature=1.0):\n    return x / temperature\n\n"
        "class Opt:\n    def __init__(self, lr, beta=0.9):\n        self.lr = lr\n")
    (pkg / "cli.py").write_text("def main(argv=None):\n    return 0\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "by_keyword(2, scale=3)\nby_position(1, 2)\nargs, kw = [1], {'key': 2}\n"
        "by_star(*args)\nby_double_star(**kw)\norphan(4)\nOpt(0.1)\n")
    assert unpassed_defaults(pkg, (pkg, scripts)) == [
        "a.Opt.__init__:beta", "a.by_position:z", "a.orphan:temperature",
    ]


def test_every_package_default_is_passed_by_a_non_test_caller():
    assert unpassed_defaults(PACKAGE, USERS) == []


def test_every_name_the_benchmark_tracer_wraps_resolves(monkeypatch):
    """perfbench/spans.py patches each (module, attribute) of WRAPPED and
    fails on a missing one, so the package must keep every such name bound."""
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)  # its dataclasses look their module up
    spec.loader.exec_module(spans)
    assert spans.WRAPPED
    missing = []
    for module_name, attr, _ in spans.WRAPPED:
        owner = importlib.import_module(module_name)
        for part in attr.split("."):
            owner = getattr(owner, part, None)
        if not callable(owner):
            missing.append(f"{module_name}.{attr}")
    assert missing == []
