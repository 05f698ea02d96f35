"""Design rules checked on the cylsim sources.

No cylsim module reaches into another one's private names.  A name with a
leading underscore (dunders such as __version__ aside) is an implementation
detail of its module; anything another module needs is made public where it
is defined.  The rule covers `from .x import _name` and `x._name` on a
module bound by `from . import x` or `import cylsim.x`.

Only `decompose` loads scipy code, by import or by path, so the LP solver
stays behind one module.  It loads scipy's HiGHS extension from its file, so
importing cylsim runs no `scipy.optimize` package code, and every module an
operation needs loads with cylsim: `cylsim.cli.main` imports nothing more on
the benchmark's commands.

No module memoises with `functools.lru_cache` or `functools.cache`: a
module-level cache is mutable state shared by every caller.

No `if` or conditional expression tests `isinstance(x, C)` for a class C
defined in cylsim: that fork is how a function accepts a second format for
one value, and each value has one.

Every public function, class and method of cylsim is used by the pipeline:
it is reachable from an entry point, a cylsim module's top-level statements
(`__init__` aside) or a file under `bench/` or `scripts/`, through the
functions, methods and classes that those reach.  Code that only tests run
lives in `tests/reference.py`; the few paper results that only tests check
are the roots listed in `TEST_ONLY`.

Each exit code of `cylsim.cli.main` is one base class: `InfeasibleRequest`
(2), `SolverFailure` (3) and `ValueError` (4).  Every exception class of
cylsim derives from exactly one of them and is raised in the module that
defines it, so a failure's exit code is decided where it is raised.
"""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import cylsim

SRC = Path(cylsim.__file__).parent
# bench/ and scripts/ sit beside tests/, as reference.bench_workloads finds them
ROOT = Path(__file__).resolve().parent.parent


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


# importlib calls that import, locate or load a module named by their first
# argument
_LOADERS = {"__import__", "import_module", "find_spec", "spec_from_file_location"}


def scipy_imports(source: str) -> list[int]:
    """Lines that import scipy or one of its submodules, by an import
    statement or by a loader call whose first argument is a string naming
    it."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        elif (isinstance(node, ast.Call) and node.args
              and isinstance(node.args[0], ast.Constant)
              and isinstance(node.args[0].value, str)
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in _LOADERS):
            names = [node.args[0].value]
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
    assert scipy_imports("import importlib\nimportlib.import_module('scipy.linalg')") == [2]
    assert scipy_imports("from importlib.util import find_spec\nfind_spec('scipy')") == [2]
    assert scipy_imports("import importlib.util as u\nu.spec_from_file_location(\n"
                         "    'scipy.optimize._highspy._core', path)") == [2]
    assert scipy_imports("m = __import__('scipy.optimize')") == [1]
    # relative imports, look-alike names, other modules' names and strings
    # outside a loader call are not scipy
    assert scipy_imports("from .decompose import linprog\nimport scipyx") == []
    assert scipy_imports("import_module('scipyx')\nfind_spec('numpy')\n"
                         "find_spec(name)\nprint('scipy')") == []


# Run in a fresh interpreter: import cylsim.cli, run main on each argv of
# sys.argv[1], then solve a linprog with scipy's own HiGHS wrapper.
_SPLIT_PROBE = """
import contextlib, io, json, sys

import cylsim.cli
from cylsim import decompose

report = {"loaded": [m for m in ("scipy.optimize", "scipy.linalg") if m in sys.modules],
          "ops": []}
for argv in json.loads(sys.argv[1]):
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cylsim.cli.main(argv)
    report["ops"].append([argv[0], code, sorted(set(sys.modules) - before)])
import scipy.optimize._highspy._core as core
from scipy.optimize import linprog
res = linprog([1.0, 2.0], A_ub=[[-1.0, -1.0]], b_ub=[-1.0], method="highs")
report["same_core"] = core is decompose._h
report["linprog"] = [res.status, res.fun]
print(json.dumps(report))
"""


def test_operations_import_nothing(tmp_path):
    theta = 0.1
    chain = {"version": 1, "graph": [[0, 1], [1, 2]],
             "inputs": {str(i): {"theta": theta} for i in range(3)},
             "gates": [{"edge": [0, 1], "phi": 3.14}, {"edge": [1, 2], "phi": 3.14}],
             "schedule": [{"node": i, "kind": "XY", "omega": 0.0} for i in range(3)],
             "sampler": {"num_samples": 50, "seed": 1}}
    edges = [[0, 1], [2, 3], [0, 2], [1, 3]]
    schedule = [{"node": i, "kind": "XY", "omega": 0.0, "mode": "quasi-destructive"}
                for i in range(4)]
    schedule[2]["adaptive"] = {"nodes": [0, 1], "angles": [0.3, 1.1]}
    grid = {"version": 1, "graph": edges,
            "inputs": {str(i): {"theta": theta} for i in range(4)},
            "gates": [{"edge": e, "phi": 3.14} for e in edges],
            "schedule": schedule, "sampler": {"num_samples": 50, "seed": 2}}
    (tmp_path / "chain.json").write_text(json.dumps(chain))
    (tmp_path / "grid.json").write_text(json.dumps(grid))
    argvs = [["simulate", "--spec", str(tmp_path / "chain.json")],
             ["verify", "--spec", str(tmp_path / "grid.json")],
             ["search-space", "--delta", "3", "--discretization", "8",
              "--search-tol", "1e-2"]]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC.parent), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _SPLIT_PROBE, json.dumps(argvs)],
                          capture_output=True, text=True, env=env, timeout=120,
                          check=True)
    report = json.loads(proc.stdout)
    assert report["loaded"] == []
    assert report["ops"] == [[argv[0], 0, []] for argv in argvs]
    # scipy's own HiGHS wrapper still works, on the module cylsim loaded
    assert report["same_core"]
    assert report["linprog"] == [0, 1.0]


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


# Public names that no pipeline code calls, each a result of the paper that
# tests check
TEST_ONLY = {
    "matter:comb_construction",  # the comb pattern of the dimension reduction
    "matter:steered_radius",  # criterion 6: the steering audit
    "statespace:lemma8_audit",  # Lemma 8: no Z-symmetric space beats the cylinder
    "statespace:SymmetricStateSpace.contains",  # membership in criterion 5's spaces
}


def _bindings(tree, modules) -> tuple[set, set]:
    """The names the source imports from cylsim (a package module of
    `modules`, `cylsim` or a relative import), and the names it binds to
    other packages, wherever the import stands."""
    ours, foreign = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound = [(alias.name, alias.asname or alias.name.split(".")[0])
                     for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            bound = [("cylsim" if node.level else node.module, alias.asname or alias.name)
                     for alias in node.names]
        else:
            continue
        for module, name in bound:
            (ours if module.split(".")[0] in {"cylsim", *modules} else foreign).add(name)
    return ours, foreign


def unused_names(modules: dict[str, str], users: list[str], roots=()) -> list[str]:
    """`module:name` for each public function or class, and `module:Class.name`
    for each public method, that `modules` (source by module name) define
    and that nothing reaches from the entry points.

    The entry points are each module's statements outside its definitions,
    every user source and the `roots` keys.  A reached function or method
    reaches what its body names; a reached class, what its decorators, bases
    and class-level statements name, and its dunder methods.  A name reaches
    the top-level definition of that name in its own module, or in any
    module when the source imports it from cylsim.  An attribute reaches
    every definition of that name, unless it is read off a module of another
    package that the source imports (`json.dumps`)."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    defs, attrs = {}, {}  # key -> node; name -> the keys that define it
    for module, tree in trees.items():
        for top in tree.body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defs[f"{module}:{top.name}"] = top
            if isinstance(top, ast.ClassDef):
                defs.update({f"{module}:{top.name}.{node.name}": node for node in top.body
                             if isinstance(node, ast.FunctionDef)})
    for key in defs:
        attrs.setdefault(key.split(":")[1].split(".")[-1], set()).add(key)
    bindings = {module: _bindings(tree, modules) for module, tree in trees.items()}

    def uses(nodes, module, ours, foreign) -> set[str]:
        found = set()
        for node in (node for top in nodes for node in ast.walk(top)):
            if isinstance(node, ast.Name):
                homes = trees if node.id in ours else [module]
                found |= {f"{home}:{node.id}" for home in homes} & defs.keys()
            elif isinstance(node, ast.Attribute):
                base = node.value
                while isinstance(base, ast.Attribute):
                    base = base.value
                if not (isinstance(base, ast.Name) and base.id in foreign):
                    found |= attrs.get(node.attr, set())
        return found

    todo = set(roots)
    for module, tree in trees.items():
        todo |= uses([node for node in tree.body
                      if not isinstance(node, (ast.FunctionDef, ast.ClassDef))],
                     module, *bindings[module])
    for tree in map(ast.parse, users):
        todo |= uses([tree], None, *_bindings(tree, modules))
    reached = set()
    while todo:
        key = todo.pop()
        reached.add(key)
        module, node = key.split(":")[0], defs[key]
        if isinstance(node, ast.ClassDef):
            todo |= {f"{key}.{m.name}" for m in node.body if isinstance(m, ast.FunctionDef)
                     and m.name.startswith("__") and m.name.endswith("__")}
            nodes = [*node.decorator_list, *node.bases, *node.keywords,
                     *(n for n in node.body if not isinstance(n, ast.FunctionDef))]
        else:
            nodes = [node]
        todo |= uses(nodes, module, *bindings[module]) - reached
    return [key for key in defs if key not in reached
            and not any(part.startswith("_") for part in key.split(":")[1].split("."))]


def test_every_public_name_is_used():
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))
               if path.stem != "__init__"}
    users = [path.read_text() for folder in ("bench", "scripts")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert users  # the checkout has bench/ and scripts/ beside tests/
    assert unused_names(modules, users, TEST_ONLY) == []
    # each allowlisted name is reached only through its own root
    for name in sorted(TEST_ONLY):
        assert name in unused_names(modules, users, TEST_ONLY - {name}), name


def test_unused_name_guard_catches_each_form():
    core = "def f():\n    return 1\nclass C:\n    def m(self):\n        pass\n"
    assert unused_names({"core": core}, []) == ["core:f", "core:C", "core:C.m"]
    # module statements, users and explicit roots are entry points; a name
    # reaches its own module's definition or one the source imports, and an
    # attribute every definition of that name, also off a package module
    assert unused_names({"core": core, "cli": "from .core import f\nf()"},
                        ["import core\ncore.C().m()"]) == []
    assert unused_names({"core": core}, ["import cylsim.core as c\nc.C()"],
                        {"core:f"}) == ["core:C.m"]
    # a reached body reaches what it names: x.make() reaches C.make and,
    # through its body, C; a reached class its decorators, class-level
    # statements and dunder methods; an import alone reaches nothing
    assert unused_names({"core": "def f(n):\n    return f(n - 1)\nclass C:\n"
                                 "    def make(self):\n        return C()\n"},
                        ["x.make()"]) == ["core:f"]
    assert unused_names({"core": "def deco(c):\n    return c\ndef size():\n    return 2\n"
                                 "def length():\n    return 0\n@deco\nclass C:\n"
                                 "    n = size()\n    def __len__(self):\n"
                                 "        return length()\n"},
                        ["from cylsim import C\nC()"]) == []
    assert unused_names({"core": core}, ["from cylsim.core import f, C"]) \
        == ["core:f", "core:C", "core:C.m"]
    assert unused_names({"core": "class C:\n    def a(self):\n        return self.b()\n"
                                 "    def b(self):\n        return self.a()\n"},
                        ["from cylsim.core import C\nC()"]) == ["core:C.a", "core:C.b"]
    # not reached: a cycle of methods that only name each other, a method
    # named only as an attribute of another package's module, a local
    # variable or a string of the same name, or a name that the source
    # neither defines nor imports; private names, dunders and methods of
    # private classes are exempt
    spec = "class S:\n    def dumps(self):\n        return ''\n    def total(self):\n" \
           "        return 0\n"
    assert unused_names({"core": spec, "cli": "import json\nfrom .core import S\n"
                                              "total = 1\njson.dumps(S())"},
                        ["getattr(S(), 'total')"]) == ["core:S.dumps", "core:S.total"]
    assert unused_names({"core": spec, "cli": "S().dumps()"}, []) \
        == ["core:S", "core:S.total"]
    assert unused_names({"core": "def _g():\n    pass\nclass _P:\n    def error(self):\n"
                                 "        pass\nclass C:\n    def __len__(self):\n"
                                 "        return 0\n"}, []) == ["core:C"]


_EXIT_BASES = {"InfeasibleRequest", "SolverFailure", "ValueError"}


def exception_classes(modules: dict[str, str]) -> dict[str, str]:
    """`module:Class` -> its faults ('' if none) for each exception class
    that `modules` (source by module name) define.  A class must derive from
    exactly one of _EXIT_BASES, counting itself, and be raised in its own
    module.  A base is resolved by its last name: a class that `modules`
    define, else a builtin."""
    trees = {module: ast.parse(source) for module, source in modules.items()}
    bases = {node.name: [ast.unparse(base).split(".")[-1] for base in node.bases]
             for tree in trees.values() for node in tree.body
             if isinstance(node, ast.ClassDef)}

    def ancestors(name: str) -> set[str]:
        if name in bases:
            return {name}.union(*map(ancestors, bases[name]))
        kind = getattr(builtins, name, None)
        return {k.__name__ for k in kind.__mro__} if isinstance(kind, type) else set()

    found = {}
    for module, tree in trees.items():
        raised = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(ast.unparse(exc).split(".")[-1])
        for node in tree.body:
            lineage = ancestors(node.name) if isinstance(node, ast.ClassDef) else set()
            if "BaseException" not in lineage:
                continue
            exits = sorted(lineage & _EXIT_BASES)
            faults = [] if len(exits) == 1 else [f"derives from {exits or 'no exit base'}"]
            if node.name not in raised:
                faults.append(f"never raised in {module}")
            found[f"{module}:{node.name}"] = "; ".join(faults)
    return found


def test_each_exception_has_one_exit_code(monkeypatch, capsys):
    modules = {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}
    found = exception_classes(modules)
    assert {key: faults for key, faults in found.items() if faults} == {}
    kinds = {f"{stem}:{kind.__name__}": kind for stem in modules if stem != "__init__"
             for kind in vars(importlib.import_module(f"cylsim.{stem}")).values()
             if isinstance(kind, type) and issubclass(kind, BaseException)
             and kind.__module__ == f"cylsim.{stem}"}
    assert kinds.keys() == found.keys()  # the source walk sees every class
    from cylsim import cli, decompose, sampler

    exit_codes = {sampler.InfeasibleRequest: 2, decompose.SolverFailure: 3, ValueError: 4}
    assert {base.__name__ for base in exit_codes} == _EXIT_BASES
    for key, kind in sorted(kinds.items()):
        def fail(_args, kind=kind):
            raise kind("planted")

        monkeypatch.setattr(cli, "cmd_exact", fail)
        code = cli.main(["exact", "--spec", "spec.json"])
        out, err = capsys.readouterr()
        [expected] = [c for base, c in exit_codes.items() if issubclass(kind, base)]
        assert (code, out, err.count("\n"), err.endswith(": planted\n")) \
            == (expected, "", 1, True), key


def test_exception_guard_catches_each_form():
    base = "class SolverFailure(RuntimeError):\n    pass\nraise SolverFailure('x')\n"
    assert exception_classes({"decompose": base}) == {"decompose:SolverFailure": ""}
    # a subclass raised in its own module, by call or bare, on any exit base
    assert exception_classes({
        "decompose": base,
        "sampler": "from . import decompose\nclass Short(decompose.SolverFailure):\n"
                   "    pass\nclass Bad(ValueError):\n    pass\nraise Short\n"
                   "raise Bad('y')\n"}) \
        == {"decompose:SolverFailure": "", "sampler:Short": "", "sampler:Bad": ""}
    # a class on no exit base, or on two, or raised only in another module;
    # classes that are no exceptions are exempt
    assert exception_classes({
        "decompose": base,
        "core": "class Oops(RuntimeError):\n    pass\nclass Both(SolverFailure, ValueError):\n"
                "    pass\nclass Lost(ValueError):\n    pass\nclass Spec:\n    pass\n"
                "raise Oops()\nraise Both()\n",
        "cli": "from .core import Lost\nraise Lost('z')\n"}) \
        == {"decompose:SolverFailure": "",
            "core:Oops": "derives from no exit base",
            "core:Both": "derives from ['SolverFailure', 'ValueError']",
            "core:Lost": "never raised in core"}
