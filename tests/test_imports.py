"""Design rule: no cylsim module reaches into another one's private names.

A name with a leading underscore (dunders such as __version__ aside) is an
implementation detail of its module; anything another module needs is made
public where it is defined.  The rule covers `from .x import _name` and
`x._name` on a module bound by `from . import x` or `import cylsim.x`.
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
