"""The package holds nothing that only tests use.

Every top-level function, class and constant of the package has a user
outside the tests: the package itself, its scripts or the benchmark. A
helper that only tests call belongs in tests/helpers.py.

Every parameter with a default, of any function, method or ``__init__``,
and every dataclass field with a default, is passed by some call in those
same users: by keyword, positionally past its index, or through ``*`` or
``**`` unpacking. A value that no run sets is a constant, not a parameter.
A call counts by the name it calls, but neither a wrapper's forwarding call
inside a function of the same name nor a method call on a numpy
``Generator`` is a call of the package's function of that name.
The one exception is ``cli.main``'s ``argv``, the seam tests drive the
command line through; the console script passes none.

Every such default is also left unset by some call in those users: a
default that every run overrides is a value only tests use, so the
parameter should be required.

The same holds for config keys, which ``load_config`` passes on as
``ExperimentConfig(**values)``: every key is set by some run, that is by a
``scripts/*.cfg`` file, by a keyword of an ``ExperimentConfig(...)`` or
``replace(...)`` call in those users, or by a ``key = value`` line that a
CI workflow step echoes into a config with a value the config accepts.
UNSET_KEYS_ALLOWED names the keys that stay settings although no run sets
them, each with its reason.

Every required parameter, and every dataclass field with no default, is
varied by those users: some two calls pass it different values, or one
passes it something other than a literal or an UPPER_CASE constant that
some module of those users binds at top level, or unpacks ``*``/``**``. A
parameter every run fills with one constant is that constant, read where
it is used.

Every function or method that returns a value has its result read by some
direct call in those users: a call that is not a bare expression statement.
A result every run throws away is work for nothing, so the function should
return nothing. The same holds for each element of a tuple result: some
direct call reads it, whole or unpacked to a name other than ``_``, and an
element every call binds to ``_`` should not be returned.

Every CI workflow step names only what is there: its config files and
scripts, its benchmark workloads and the config keys it writes. No runner
is needed to see a step that would fail on a name.

README's table of config keys names every key with its default, and no
other key.
"""

import ast
import dataclasses
import importlib
import importlib.util
import itertools
import re
import sys
from pathlib import Path

from odup.errors import ConfigError
from odup.pipeline import _FIELD_TYPES, ExperimentConfig, _parse_value, config_entries

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "odup"
USERS = (PACKAGE, ROOT / "scripts", ROOT / "perfbench")
UNPASSED_ALLOWED = {"cli.main:argv"}
UNSET_KEYS_ALLOWED = {
    "delimiter": "the field separator of the event log at data, a property of that file",
    "skip_threshold": "acceptance criterion 8 raises it to show the skip rule on drift-free data",
}


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


def dataclass_fields(node) -> list[ast.AnnAssign] | None:
    """The fields of ``node`` in order when it is a dataclass, else None."""
    if not (isinstance(node, ast.ClassDef)
            and "dataclass" in {_callee(getattr(d, "func", d)) for d in node.decorator_list}):
        return None
    return [f for f in node.body if isinstance(f, ast.AnnAssign) and isinstance(f.target, ast.Name)]


def signature_params(source: str, module: str) -> list[tuple[str, str, str, int | None, bool]]:
    """(callee, label, parameter, position, defaulted) for every parameter
    in ``source`` but ``self``/``cls`` and ``*``/``**`` catch-alls. A call
    names ``callee``: the function, or the class for an ``__init__`` or a
    dataclass field. ``position`` is the parameter's index among a call's
    positional arguments (a method's leaves out self), None when it is
    keyword-only. ``label`` is ``module.Qualified.name:parameter``, and
    ``defaulted`` says whether the parameter or field has a default."""
    found = []

    def visit(node, qual: str, cls: str | None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                where = f"{qual}.{child.name}"
                found.extend((child.name, where, f.target.id, i, f.value is not None)
                             for i, f in enumerate(dataclass_fields(child) or ()))
                visit(child, where, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a, where = child.args, f"{qual}.{child.name}"
                callee = cls if child.name == "__init__" else child.name
                bound = cls is not None and "staticmethod" not in {_callee(d) for d in child.decorator_list}
                positional = a.posonlyargs + a.args
                first = len(positional) - len(a.defaults)
                found.extend((callee, where, p.arg, i - bound, i >= first)
                             for i, p in enumerate(positional) if i >= bound)
                found.extend((callee, where, p.arg, None, default is not None)
                             for p, default in zip(a.kwonlyargs, a.kw_defaults))
                visit(child, where, None)
            else:
                visit(child, qual, cls)

    visit(ast.parse(source), module, None)
    return found


def defaulted_params(source: str, module: str) -> list[tuple[str, str, str, int | None]]:
    """(callee, label, parameter, position) for every parameter with a
    default in ``source``, as ``signature_params`` gives them."""
    return [p[:4] for p in signature_params(source, module) if p[4]]


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether ``call`` may pass ``param``: by keyword, by ``**``, or, for a
    positional parameter, by enough positional arguments or a ``*``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position or any(isinstance(arg, ast.Starred) for arg in call.args))


def user_trees(users) -> list[ast.Module]:
    """The parsed ``.py`` files under ``users``."""
    return [ast.parse(p.read_text(encoding="utf-8")) for d in users for p in sorted(d.rglob("*.py"))]


def generator_receivers(tree: ast.Module) -> set[str]:
    """The receivers, as source text, that ``tree`` binds to a numpy
    ``Generator``: an assignment target of ``np.random.default_rng(...)``,
    such as ``self.rng``, or a parameter annotated ``np.random.Generator``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and _callee(getattr(node.value, "func", None)) == "default_rng":
            found.update(ast.unparse(t) for t in node.targets)
        elif isinstance(node, ast.arg) and node.annotation is not None and _callee(node.annotation) == "Generator":
            found.add(node.arg)
    return found


def calls_by_callee(trees) -> dict[str, list[ast.Call]]:
    """Every call in ``trees``, by the name it calls, but for a call made
    inside a function of the same name and a method call on a numpy
    ``Generator`` (see ``generator_receivers``): neither a wrapper's
    forwarding call, such as ``def choice(self, n, p=None): return
    self._gen.choice(n, p=p)``, nor numpy's ``rng.integers(0, 5, size)`` is
    a run that calls the package's method of that name."""
    calls: dict[str, list[ast.Call]] = {}

    def visit(node, func: str | None):
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and _callee(child.func) != func
                    and not (isinstance(child.func, ast.Attribute) and ast.unparse(child.func.value) in numpy_rngs)):
                calls.setdefault(_callee(child.func), []).append(child)
            visit(child, child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else func)

    for tree in trees:
        numpy_rngs = generator_receivers(tree)
        visit(tree, None)
    return calls


def _defaults_by_calls(package: Path, users, flagged) -> list[str]:
    """Labels of the defaulted parameters of ``package``, UNPASSED_ALLOWED
    aside, for which ``flagged(calls, param, position)`` holds, ``calls``
    being every call in the ``.py`` files under ``users`` that names the
    parameter's callee."""
    calls = calls_by_callee(user_trees(users))
    return sorted(
        f"{where}:{param}"
        for path in sorted(package.glob("*.py"))
        for callee, where, param, position in defaulted_params(path.read_text(encoding="utf-8"), path.stem)
        if f"{where}:{param}" not in UNPASSED_ALLOWED
        and flagged(calls.get(callee, ()), param, position)
    )


def unpassed_defaults(package: Path, users) -> list[str]:
    """Labels of the defaulted parameters of ``package`` that no call in the
    ``.py`` files under ``users`` passes, UNPASSED_ALLOWED aside."""
    return _defaults_by_calls(package, users, lambda calls, param, position: not any(
        passes(call, param, position) for call in calls))


def overridden_defaults(package: Path, users) -> list[str]:
    """Labels of the defaulted parameters of ``package`` that every call in
    the ``.py`` files under ``users`` may pass, UNPASSED_ALLOWED aside: no
    run leaves them at their default."""
    return _defaults_by_calls(package, users, lambda calls, param, position: all(
        passes(call, param, position) for call in calls))


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


def test_a_forwarding_call_does_not_pass_its_wrapper_s_default(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "class Rng:\n"
        "    def choice(self, n, size=1, p=None):\n        return self._gen.choice(n, size=size, p=p)\n\n"
        "    def integers(self, lo, hi=None):\n        return self._gen.integers(lo, hi)\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text("rng.choice(3, 2)\nrng.integers(0, 5)\n")
    assert unpassed_defaults(pkg, (pkg, scripts)) == ["a.Rng.choice:p"]


def test_a_call_on_a_numpy_generator_does_not_pass_the_package_s_default(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "class Rng:\n"
        "    def integers(self, lo, hi, size=None):\n        return self._gen.integers(lo, hi, size=size)\n\n"
        "    def normal(self, scale, size=None):\n        return self._gen.normal(0.0, scale, size)\n\n"
        "    def random(self, size=None):\n        return self._gen.random(size)\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "import numpy as np\n\n"
        "class Server:\n    def __init__(self, seed):\n        self.rng = np.random.default_rng(seed)\n"
        "        self.codes = self.rng.integers(0, 4, (3, 2))\n\n"
        "def probe(rng: np.random.Generator):\n    return rng.normal(0.0, (2, 2))\n\n"
        "check = np.random.default_rng(1)\ncheck.random(5)\n"
        "ours = Rng(1)\nours.integers(0, 4)\nours.normal(1.0)\nours.random(3)\n")
    assert unpassed_defaults(pkg, (pkg, scripts)) == ["a.Rng.integers:size", "a.Rng.normal:size"]


def test_every_package_default_is_passed_by_a_non_test_caller():
    assert unpassed_defaults(PACKAGE, USERS) == []


def test_flags_a_default_every_call_overrides(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def always(x, scale=1.0):\n    return x * scale\n\n"
        "def sometimes(x, scale=1.0):\n    return x * scale\n\n"
        "def by_position(x, y=0):\n    return x + y\n\n"
        "def by_double_star(*, key=1):\n    return key\n\n"
        "class Opt:\n    def __init__(self, lr, beta=0.9):\n        self.lr = lr\n")
    (pkg / "cli.py").write_text("def main(argv=None):\n    return 0\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "always(2, scale=3)\nalways(1, 2)\nsometimes(2, scale=3)\nsometimes(1)\n"
        "by_position(1)\nby_position(1, 2)\nkw = {'key': 2}\nby_double_star(**kw)\n"
        "Opt(0.1, 0.8)\nOpt(0.1, beta=0.7)\nmain([])\n")
    assert overridden_defaults(pkg, (pkg, scripts)) == [
        "a.Opt.__init__:beta", "a.always:scale", "a.by_double_star:key",
    ]


def test_every_package_default_is_left_unset_by_a_run():
    assert overridden_defaults(PACKAGE, USERS) == []


def _is_constant(node, bound: set[str]) -> bool:
    """Whether ``node`` is a literal, as ``ast.literal_eval`` reads one, or
    an UPPER_CASE name or attribute in ``bound``, the names some module
    binds at top level: a one-letter local such as ``X`` is no constant."""
    if isinstance(node, (ast.Name, ast.Attribute)):
        name = _callee(node)
        return re.fullmatch(r"[A-Z][A-Z0-9_]*", name) is not None and name in bound
    try:
        ast.literal_eval(node)
    except (ValueError, TypeError, SyntaxError):
        return False
    return True


def _passed_value(call: ast.Call, param: str, position: int | None):
    """The expression ``call`` passes to ``param``, by keyword or at
    ``position``; None when it passes none or unpacks ``*``/``**``, which
    may pass anything."""
    if any(isinstance(arg, ast.Starred) for arg in call.args) or any(kw.arg is None for kw in call.keywords):
        return None
    for kw in call.keywords:
        if kw.arg == param:
            return kw.value
    return call.args[position] if position is not None and position < len(call.args) else None


def constant_required(package: Path, users) -> list[str]:
    """Labels ``module.Qualified.name:parameter`` of the required parameters
    and the dataclass fields with no default of ``package`` to which every
    call in the ``.py`` files under ``users`` passes one and the same
    constant (see ``_is_constant``): a value no run varies belongs in the
    code that reads it."""
    trees = user_trees(users)
    calls = calls_by_callee(trees)
    bound = {name for tree in trees for name in top_level_names(ast.unparse(tree))}
    found = []
    for path in sorted(package.glob("*.py")):
        for callee, where, param, position, defaulted in signature_params(path.read_text(encoding="utf-8"),
                                                                          path.stem):
            passed = [_passed_value(call, param, position) for call in calls.get(callee, ())]
            if (not defaulted and passed and all(v is not None and _is_constant(v, bound) for v in passed)
                    and len({ast.dump(v) for v in passed}) == 1):
                found.append(f"{where}:{param}")
    return sorted(found)


def test_flags_a_field_every_construction_sets_alike(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "from dataclasses import dataclass\nRATE = 0.5\n\n"
        "@dataclass\nclass Cfg:\n    lr: float\n    size: int\n    seed: int\n"
        "    rate: float\n    tag: str = 'x'\n\n"
        "@dataclass(eq=False)\nclass Unpacked:\n    lr: float\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "Cfg(0.01, 4, seed, RATE, tag='x')\nCfg(lr=0.01, size=4, seed=seed + 1, rate=RATE, tag='y')\n"
        "Cfg(0.01, 8, 0, RATE)\nkw = {'lr': 0.01}\nUnpacked(**kw)\nUnpacked(0.01)\n")
    assert constant_required(pkg, (pkg, scripts)) == ["a.Cfg:lr", "a.Cfg:rate"]


def test_flags_a_required_parameter_every_call_passes_alike(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "GAP = 10.0\n\n"
        "def split(log, gap):\n    return log\n\n"
        "def rank(table, ds, ks):\n    return ks\n\n"
        "def fit(enc, X, *, tau):\n    return X\n\n"
        "def check(X):\n    return X\n\n"
        "class Rng:\n    def sample(self, n, size, replace):\n        return n\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "split(a, GAP)\nsplit(log=b, gap=GAP)\nrank(t, d, (5, 10))\nrank(t, e, [5])\n"
        "def main(enc, other):\n    X = load()\n    fit(enc, X, tau=0.1)\n    fit(other, X, tau=0.1)\n"
        "    check(X)\n    check(X)\n"
        "rng.sample(9, 3, False)\nrng.sample(n=4, size=2, replace=False)\n")
    assert constant_required(pkg, (pkg, scripts)) == [
        "a.Rng.sample:replace", "a.fit:tau", "a.split:gap",
    ]


def test_every_required_field_varies_across_runs():
    assert constant_required(PACKAGE, USERS) == []


def _returns_value(func) -> bool:
    """Whether ``func`` has a ``return`` of a value other than None in its
    own body, the bodies of nested functions and classes aside."""
    stack = list(func.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return) and node.value is not None and not (
                isinstance(node.value, ast.Constant) and node.value.value is None):
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def dropped_positions(trees) -> dict[int, set[int] | None]:
    """By ``id`` of a call in ``trees``, what its statement throws away of
    the result: None for all of it (a bare expression statement), or the
    positions that an assignment unpacking it binds to ``_``. A call absent
    here keeps its whole result; so does one unpacked with a ``*`` target."""
    dropped: dict[int, set[int] | None] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                dropped[id(node.value)] = None
            elif (isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and len(node.targets) == 1
                  and isinstance(node.targets[0], (ast.Tuple, ast.List))
                  and not any(isinstance(elt, ast.Starred) for elt in node.targets[0].elts)):
                dropped[id(node.value)] = {i for i, elt in enumerate(node.targets[0].elts)
                                           if isinstance(elt, ast.Name) and elt.id == "_"}
    return dropped


def unread_results(package: Path, users) -> list[str]:
    """Labels ``module.Qualified.name`` of the functions and methods of
    ``package`` that return a value which every direct call in the ``.py``
    files under ``users`` throws away, as an expression statement, and
    ``module.Qualified.name[i]`` where every such call throws the result
    away or unpacks it with position i bound to ``_``, and one unpacks it:
    a result, or a part of one, that no run reads is work for nothing."""
    trees = user_trees(users)
    calls = calls_by_callee(trees)
    dropped = dropped_positions(trees)
    found = []

    def visit(node, qual: str):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{qual}.{child.name}"
                named = calls.get(child.name, ())
                if not isinstance(child, ast.ClassDef) and _returns_value(child) and named:
                    drops = [dropped.get(id(call), set()) for call in named]
                    unpacked = [d for d in drops if d is not None]
                    if not unpacked:
                        found.append(where)
                    else:
                        found.extend(f"{where}[{i}]" for i in sorted(set.intersection(*unpacked)))
                visit(child, where)
            else:
                visit(child, qual)

    for path in sorted(package.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sorted(found)


def test_flags_a_result_every_call_drops(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def fit(x):\n    return [x]\n\n"
        "def read(x):\n    return x\n\n"
        "def step(x):\n    x.append(1)\n    return None\n\n"
        "class Model:\n    def update(self, x):\n        def inner():\n            return x\n"
        "        return inner()\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "fit(1)\nfit(2)\nread(1)\ny = read(2)\nstep([])\nm.update(3)\n")
    assert unread_results(pkg, (pkg, scripts)) == ["a.Model.update", "a.fit"]


def test_flags_a_tuple_element_every_call_binds_to_underscore(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "a.py").write_text(
        "def train(x):\n    return x, x + 1, x + 2\n\n"
        "def tapped(x):\n    return x, x + 1\n\n"
        "def split(x):\n    return x, x + 1\n\n"
        "def starred(x):\n    return x, x + 1\n\n"
        "def first(x):\n    return x, x + 1\n")
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "run.py").write_text(
        "store, _, _ = train(1)\n[store, enc, _] = train(2)\n"
        "a, _ = tapped(1)\nout = tapped(2)\n"
        "a, _ = split(1)\n_, b = split(2)\n"
        "a, *_ = starred(1)\n"
        "_, b = first(1)\nfirst(2)\n")
    assert unread_results(pkg, (pkg, scripts)) == ["a.first[0]", "a.train[2]"]


def test_every_package_result_is_read_by_a_run():
    assert unread_results(PACKAGE, USERS) == []


def config_keys_set_by_runs(users, cfg_dir: Path, workflows: Path) -> set[str]:
    """The keys of every ``key = value`` line of the ``.cfg`` files in
    ``cfg_dir`` (read by the program's ``config_entries``), every keyword
    of an ``ExperimentConfig(...)`` or ``replace(...)`` call in the ``.py``
    files under ``users`` (a ``**`` unpacking names none), and every key a
    step of the ``.yml`` files in ``workflows`` writes (see
    ``step_config_entries``) with a value ``accepted`` takes."""
    keys = set()
    for path in sorted(cfg_dir.glob("*.cfg")):
        keys.update(key for _, key, _ in config_entries(path))
    for path in (p for d in users for p in sorted(d.rglob("*.py"))):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call) and _callee(node.func) in ("ExperimentConfig", "replace"):
                keys.update(kw.arg for kw in node.keywords if kw.arg is not None)
    for path in sorted(workflows.glob("*.yml")):
        keys.update(key for key, raw in step_config_entries(path.read_text(encoding="utf-8"))
                    if accepted(key, raw))
    return keys


def step_config_entries(text: str) -> list[tuple[str, str]]:
    """(key, raw value) of every line a workflow's steps write into a
    config, as ``echo "key = value"`` or as a line of
    ``printf 'key = value\\n...'``."""
    entries = re.findall(r'echo "(\w+) = ([^"]*)"', text)
    for lines in re.findall(r"printf '([^']*)'", text):
        entries += re.findall(r"(?:^|\\n)(\w+) = (.*?)(?=\\n|$)", lines)
    return entries


def accepted(key: str, raw: str) -> bool:
    """Whether ``ExperimentConfig`` takes ``raw``, parsed as a config file's
    value, for ``key`` with every other key at its default: a step that
    writes a value the program refuses sets nothing. A key that is no field
    is left to ``workflow_faults``, which names it."""
    if key not in _FIELD_TYPES:
        return True
    try:
        ExperimentConfig(**{key: _parse_value(key, raw)})
    except ConfigError:
        return False
    return True


def unset_config_keys(keys, users, cfg_dir: Path, workflows: Path) -> list[str]:
    """The ``keys`` that no run sets, UNSET_KEYS_ALLOWED aside."""
    set_keys = config_keys_set_by_runs(users, cfg_dir, workflows)
    return sorted(k for k in keys if k not in set_keys and k not in UNSET_KEYS_ALLOWED)


def test_flags_a_config_key_no_run_sets(tmp_path):
    pkg, scripts, workflows = (tmp_path / name for name in ("pkg", "scripts", "workflows"))
    for d in (pkg, scripts, workflows):
        d.mkdir()
    (pkg / "a.py").write_text(
        "import dataclasses\ncfg = ExperimentConfig(by_call=1, **extra)\n"
        "cfg = dataclasses.replace(cfg, by_replace=2)\nother(by_other_call=3)\n")
    (scripts / "demo.cfg").write_text("# commented = 4\nby_file = 5  # trailing note\n")
    (scripts / "notes.txt").write_text("by_text = 6\n")
    (workflows / "ci.yml").write_text(
        'steps:\n  - run: |\n      echo "by_step = 7" >> "$RUNNER_TEMP/x.cfg"\n'
        "  - run: |\n      printf 'by_printf = 8\\nby_printf_too = 9\\n' > \"$RUNNER_TEMP/y.cfg\"\n"
        "  - run: printf 'by_printf_text is 10\\n'\n")
    keys = ["by_call", "by_replace", "by_other_call", "commented", "by_file", "by_text",
            "by_step", "by_printf", "by_printf_too", "by_printf_text", "delimiter", "skip_threshold"]
    assert unset_config_keys(keys, (pkg,), scripts, workflows) == [
        "by_other_call", "by_printf_text", "by_text", "commented",
    ]


def test_a_key_a_step_writes_counts_only_with_a_value_the_config_takes(tmp_path):
    scripts, workflows = tmp_path / "scripts", tmp_path / "workflows"
    for d in (scripts, workflows):
        d.mkdir()
    (workflows / "ci.yml").write_text(
        'steps:\n  - run: |\n      echo "codec_batch = 0" > "$RUNNER_TEMP/bad.cfg"\n'
        '      echo "encoder = last_gated" >> "$RUNNER_TEMP/x.cfg"\n'
        '      echo "timing = sometimes" >> "$RUNNER_TEMP/x.cfg"\n'
        '      echo "data = $RUNNER_TEMP/events.tsv" >> "$RUNNER_TEMP/x.cfg"\n'
        "  - run: |\n      printf 'n = 4\\nk = 0\\nd = two\\n' > \"$RUNNER_TEMP/y.cfg\"\n")
    keys = ["codec_batch", "encoder", "timing", "data", "n", "k", "d"]
    assert step_config_entries((workflows / "ci.yml").read_text())[-1] == ("d", "two")
    assert unset_config_keys(keys, (), scripts, workflows) == ["codec_batch", "d", "k", "timing"]


def test_every_config_key_is_set_by_a_run():
    keys = [f.name for f in dataclasses.fields(ExperimentConfig)]
    assert unset_config_keys(keys, USERS, ROOT / "scripts", ROOT / ".github" / "workflows") == []


def test_readme_key_table_is_the_config():
    # a row such as "| `n`, `k` | 8, 16 | ..." gives its keys' defaults in order
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index("| key | default | range | meaning |") + 2
    rows = [line.split("|")[1:3] for line in itertools.takewhile(lambda l: l.startswith("|"), lines[start:])]
    table = [(key.strip(" `"), raw.strip(" `")) for keys, raws in rows
             for key, raw in zip(keys.split(","), raws.split(","), strict=True)]
    documented = {key: _parse_value(key, {"tab": "\\t"}.get(raw, raw)) if key in _FIELD_TYPES else raw
                  for key, raw in table}
    assert len(documented) == len(table)
    assert documented == {f.name: f.default for f in dataclasses.fields(ExperimentConfig)}


def workflow_faults(text: str, root: Path) -> list[str]:
    """What a workflow's steps name that is not there: a ``--config``,
    ``scripts/`` or ``perfbench/`` path missing under ``root`` (a path the
    step makes itself holds a ``$``), a ``--workload`` that
    ``perfbench/run.py`` does not offer, a key a step writes that is no
    ExperimentConfig field, and a step name used twice in one job (a job
    is a two-space-indented key)."""
    faults = []
    paths = set(re.findall(r"--config (\S+)", text))
    paths.update(re.findall(r"\b((?:scripts|perfbench)/[\w./-]+)", text))
    faults += [f"no path {p}" for p in sorted(paths) if "$" not in p and not (root / p).exists()]
    run_py = ast.parse((root / "perfbench" / "run.py").read_text(encoding="utf-8"))
    workloads = next(node.value for node in run_py.body
                     if isinstance(node, ast.Assign) and getattr(node.targets[0], "id", None) == "WORKLOADS")
    offered = {"all", *ast.literal_eval(workloads)}
    faults += [f"no workload {w}" for w in sorted(set(re.findall(r"--workload (\S+)", text)) - offered)]
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    faults += [f"no config key {key}" for key in sorted({key for key, _ in step_config_entries(text)} - fields)]
    for job in re.split(r"^  [\w-]+:\s*$", text, flags=re.M):
        names = re.findall(r"^\s*- name: (.*?)\s*$", job, re.M)
        faults += [f"step name {name!r} repeats" for name in sorted({n for n in names if names.count(n) > 1})]
    return faults


def test_flags_a_workflow_step_naming_what_is_not_there(tmp_path):
    (tmp_path / "scripts").mkdir()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "scripts" / "demo.cfg").write_text("seed = 1\n")
    (tmp_path / "perfbench" / "run.py").write_text('WORKLOADS = ("a", "b")\n')
    text = (
        "jobs:\n"
        "  one:\n"
        "    steps:\n"
        "      - name: Fine\n"
        '        run: odup --config scripts/demo.cfg --out "$RUNNER_TEMP/x" simulate\n'
        "      - name: Fine\n"
        "        run: |\n"
        '          echo "seed = 2" >> "$RUNNER_TEMP/x.cfg"\n'
        '          odup --config "$RUNNER_TEMP/x.cfg" simulate\n'
        "          python scripts/gone.py && python perfbench/run.py --workload b\n"
        "  two:\n"
        "    steps:\n"
        "      - name: Fine\n"
        "        run: |\n"
        "          printf 'n = 4\\nno_such_key = 1\\n' > a.cfg\n"
        "          odup --config missing.cfg simulate\n"
        "          python perfbench/run.py --workload c\n"
    )
    assert workflow_faults(text, tmp_path) == [
        "no path missing.cfg", "no path scripts/gone.py", "no workload c", "no config key no_such_key",
        "step name 'Fine' repeats",
    ]


def test_every_workflow_step_names_what_is_there():
    for path in sorted((ROOT / ".github" / "workflows").glob("*.yml")):
        assert workflow_faults(path.read_text(encoding="utf-8"), ROOT) == [], path.name


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
