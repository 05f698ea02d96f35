"""Design rules checked on the cylsim sources.

No cylsim module reaches into another one's private names.  A name with a
leading underscore (dunders such as __version__ aside) is an implementation
detail of its module; anything another module needs is made public where it
is defined.  The rule covers `from .x import _name` and `x._name` on a
module bound by `from . import x` or `import cylsim.x`.

Only `decompose` imports scipy, so the LP solver stays behind one module.

No module memoises with `functools.lru_cache` or `functools.cache`: a
module-level cache is mutable state shared by every caller.

No `if` or conditional expression tests `isinstance(x, C)` for a class C
defined in cylsim: that fork is how a function accepts a second format for
one value, and each value has one.
"""

import ast
from pathlib import Path

import cylsim

SRC = Path(cylsim.__file__).parent


def _private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _is_cylsim(module: str | None, level: int) -> bool:
    return level > 0 or (module or "").split(".")[0] == "cylsim"


def private_imports(source: str) -> list[str]:
    """`module:line name` for every private cylsim name the source imports
    or reads off an imported cylsim module."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to cylsim modules
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and _is_cylsim(node.module, node.level):
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"{node.lineno} {alias.name}")
                elif node.module is None or node.module == "cylsim":
                    modules.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if _is_cylsim(alias.name, 0):
                    modules.add(alias.asname or alias.name.split(".")[0])
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and _private(node.attr):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_no_private_cross_module_imports():
    offenders = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
                 for hit in private_imports(path.read_text())]
    assert offenders == []


def test_private_import_guard_catches_each_form():
    assert private_imports("from .decompose import _solve_lp") == ["1 _solve_lp"]
    assert private_imports("from cylsim.growth import fold_phase, _lambda_folded") \
        == ["1 _lambda_folded"]
    assert private_imports("from . import decompose\ndecompose._ratio(1, 2)") \
        == ["2 decompose._ratio"]
    assert private_imports("import cylsim.bloch\ncylsim.bloch._x") == ["2 cylsim.bloch._x"]
    # dunders, own private names and other packages are allowed
    assert private_imports("from . import __version__\n_local = 1\n"
                           "import numpy as np\nnp._NoValue") == []


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or one of its submodules."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name.split(".")[0] == "scipy" for name in names):
            lines.append(node.lineno)
    return lines


def test_only_decompose_imports_scipy():
    importers = [path.name for path in sorted(SRC.glob("*.py"))
                 if scipy_imports(path.read_text())]
    assert importers == ["decompose.py"]


def test_scipy_guard_catches_each_form():
    assert scipy_imports("from scipy.optimize import brentq") == [1]
    assert scipy_imports("import numpy\nimport scipy.linalg as sl") == [2]
    assert scipy_imports("import os, scipy") == [1]
    assert scipy_imports("import scipy.optimize._highspy._core as _h") == [1]
    # relative imports and look-alike names are not scipy
    assert scipy_imports("from .decompose import linprog\nimport scipyx") == []


_CACHES = {"lru_cache", "cache"}


def memo_caches(source: str) -> list[str]:
    """`line name` for every functools.lru_cache or functools.cache the
    source imports by name or reads off an imported functools module."""
    tree = ast.parse(source)
    modules: set[str] = set()  # local names bound to functools
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "functools":
            found += [f"{node.lineno} {alias.name}" for alias in node.names
                      if alias.name in _CACHES]
        elif isinstance(node, ast.Import):
            modules |= {alias.asname or alias.name for alias in node.names
                        if alias.name == "functools"}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in _CACHES
                and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"{node.lineno} {ast.unparse(node)}")
    return found


def test_no_memo_caches():
    offenders = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
                 for hit in memo_caches(path.read_text())]
    assert offenders == []


def test_memo_cache_guard_catches_each_form():
    assert memo_caches("from functools import lru_cache") == ["1 lru_cache"]
    assert memo_caches("from functools import reduce, cache") == ["1 cache"]
    assert memo_caches("import functools\n@functools.lru_cache(maxsize=8)\n"
                       "def f(x):\n    return x") == ["2 functools.lru_cache"]
    assert memo_caches("import functools as ft\nf = ft.cache(len)") == ["2 ft.cache"]
    # other functools names and other modules' caches are allowed
    assert memo_caches("import functools\nfunctools.wraps\n"
                       "from functools import partial\nx.cache") == []


def cylsim_classes() -> set[str]:
    """Names of the classes defined in the cylsim sources."""
    return {node.name for path in SRC.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.ClassDef)}


def isinstance_forks(source: str, classes: set[str]) -> list[str]:
    """`line call` for every isinstance(x, C), C one of `classes`, in the
    test of an `if` or a conditional expression."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.If, ast.IfExp)):
            continue
        for call in ast.walk(node.test):
            if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                    and call.func.id == "isinstance" and len(call.args) == 2):
                continue
            kinds = call.args[1]
            kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
            names = {k.id if isinstance(k, ast.Name) else getattr(k, "attr", None)
                     for k in kinds}
            if names & classes:
                found.append(f"{call.lineno} {ast.unparse(call)}")
    return found


def test_no_isinstance_forks_on_cylsim_classes():
    classes = cylsim_classes()
    assert {"BlochVector", "ExperimentSpec"} <= classes
    offenders = [f"{path.name}:{hit}" for path in sorted(SRC.glob("*.py"))
                 for hit in isinstance_forks(path.read_text(), classes)]
    assert offenders == []


def test_isinstance_fork_guard_catches_each_form():
    classes = {"Coeffs", "BlochVector"}
    assert isinstance_forks("m = t.m if isinstance(t, Coeffs) else t", classes) \
        == ["1 isinstance(t, Coeffs)"]
    assert isinstance_forks("if ok and not isinstance(p, (list, BlochVector)):\n"
                            "    p = BlochVector(*p)", classes) \
        == ["1 isinstance(p, (list, BlochVector))"]
    assert isinstance_forks("if x:\n    pass\nelif isinstance(v, bloch.BlochVector):\n"
                            "    pass", classes) == ["3 isinstance(v, bloch.BlochVector)"]
    # other classes, and checks outside a branch test, are allowed
    assert isinstance_forks("if isinstance(x, bool) or isinstance(x, dict):\n"
                            "    pass\nassert isinstance(s, Coeffs)\n"
                            "ok = isinstance(v, BlochVector)", classes) == []
