"""Every name a library module, test module or script imports is read in
that module, every module-level private function, class and constant of
the library is read somewhere outside the statement that binds it, every
name a library function assigns is read in that function, and every
defaulted parameter of a library function is set by some call in the
library, tests, scripts or benchmark.  A name listed in the module's
__all__ counts as read; __future__ imports are skipped.  The library
imports no scipy, and every CLI subcommand runs in a fresh interpreter
where importing scipy fails; neither they nor the closed-orbit and rate
entry points load numpy.ma."""

import ast
import functools
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "thermoflow"


def unused_imports(source: str) -> list:
    """Names bound by an import statement in `source` and never read."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds `a`
            imported |= {a.asname or a.name.split(".")[0]
                         for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            read |= set(ast.literal_eval(node.value))
    return sorted(imported - read)


def test_unused_imports_examples():
    assert unused_imports("import math\nimport os.path\n") == ["math", "os"]
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("def f():\n    from a import b\n") == ["b"]


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    + sorted((ROOT / "scripts").glob("*.py")),
    ids=lambda p: p.name if p.parent == SRC else f"{p.parent.name}/{p.name}")
def test_every_import_is_read(path):
    assert unused_imports(path.read_text()) == []


def _defined_names(top) -> list:
    """The names a module-level statement binds: a function or class, or
    the targets of an assignment, tuple targets included."""
    if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef,
                        ast.ClassDef)):
        return [top.name]
    targets = top.targets if isinstance(top, ast.Assign) else \
        [top.target] if isinstance(top, ast.AnnAssign) else []
    return [n.id for t in targets for n in ast.walk(t)
            if isinstance(n, ast.Name)]


def unreferenced_private_names(sources: dict) -> list:
    """Module-level functions, classes and constants named _x in `sources`
    ({module: text}) whose name no top-level statement but the one that
    binds it reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = [(top, {n.id for n in ast.walk(top) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
              | {n.attr for n in ast.walk(top)
                 if isinstance(n, ast.Attribute)})
             for tree in trees.values() for top in tree.body]
    return sorted(
        f"{mod}:{name}" for mod, tree in trees.items()
        for top in tree.body for name in _defined_names(top)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in names for other, names in reads
                    if other is not top))


def test_unreferenced_private_functions_examples():
    srcs = {"a": "def _f():\n    return _f()\n\ndef _g():\n    pass\n",
            "b": "from a import _g\n_g()\n\nclass C:\n    def _h(self):\n"
                 "        pass\n"}
    assert unreferenced_private_names(srcs) == ["a:_f"]
    assert unreferenced_private_names(
        {"a": "import m\nm._k()\ndef _k():\n    pass\n"}) == []
    # classes, constants, tuple and annotated targets; dunders are skipped
    assert unreferenced_private_names(
        {"a": "class _C:\n    pass\n\nclass _D(_C):\n    pass\n",
         "b": "_X, (_Y, Z) = 1, (2, 3)\n_W: int = _Y\n__all__ = []\n"}
    ) == ["a:_D", "b:_W", "b:_X"]
    assert unreferenced_private_names(
        {"a": "_N = 4\n\ndef f():\n    return _N\n"}) == []


def test_every_private_function_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_names(sources) == []


def unused_locals(source: str) -> list:
    """function:name for each name a function in `source` assigns with a
    plain `name = ...` and never reads, nested functions included.
    Tuple-unpacking targets and _-prefixed names are skipped; an augmented
    assignment reads its target."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in ast.walk(fn)
                 if isinstance(n, ast.AugAssign)
                 and isinstance(n.target, ast.Name)}
        assigned = set()
        todo = list(fn.body)
        while todo:  # the function's own statements, not nested scopes
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Lambda)):
                continue
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                read |= set(node.names)
            targets = node.targets if isinstance(node, ast.Assign) else \
                [node.target] if isinstance(node, ast.AnnAssign) else []
            assigned |= {t.id for t in targets if isinstance(t, ast.Name)}
            todo.extend(ast.iter_child_nodes(node))
        out += [f"{fn.name}:{name}" for name in sorted(assigned - read)
                if not name.startswith("_")]
    return sorted(out)


def test_unused_locals_examples():
    assert unused_locals("def f():\n    a = 1\n    b = 2\n    return b\n"
                         ) == ["f:a"]
    assert unused_locals("def f():\n    a, b = g()\n    _c = 1\n") == []
    assert unused_locals("def f(x):\n    x += 1\n") == []
    assert unused_locals("def f():\n    a = 1\n    def g():\n"
                         "        return a\n    return g\n") == []
    assert unused_locals("def f():\n    def g():\n        a = 1\n"
                         "    return g\n") == ["g:a"]
    assert unused_locals("x = 1\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_local_is_read(path):
    assert unused_locals(path.read_text()) == []


def unset_parameters(library: dict, callers: list) -> list:
    """function.param (Class.method.param for a method) for each defaulted
    parameter of a module-level function or method in `library` ({module:
    text}) that no call in `callers` (texts) sets.  A call is matched by
    the called name (a class name calls its __init__), and a function
    passed as an argument is called with the arguments after it, as in
    `tracer.call(label, f, x, key=v)`.  A positional or keyword argument
    sets a parameter unless it is a constant equal to the default; a
    starred argument sets every parameter from its position on, and a
    double-starred one sets every parameter."""
    params = {}  # called name -> [(label, positional names, defaults)]
    for text in library.values():
        for top in ast.parse(text).body:
            defs = [(None, top)] if isinstance(top, ast.FunctionDef) else \
                [(top.name, f) for f in top.body
                 if isinstance(f, ast.FunctionDef)] \
                if isinstance(top, ast.ClassDef) else []
            for cls, fn in defs:
                a = fn.args
                pos = [p.arg for p in a.posonlyargs + a.args]
                if cls and not any(isinstance(d, ast.Name)
                                   and d.id == "staticmethod"
                                   for d in fn.decorator_list):
                    pos = pos[1:]
                defaults = dict(zip(pos[len(pos) - len(a.defaults):],
                                    a.defaults))
                defaults.update((p.arg, d) for p, d in
                                zip(a.kwonlyargs, a.kw_defaults) if d)
                if not defaults:
                    continue
                name = cls if fn.name == "__init__" else fn.name
                label = f"{cls}.{fn.name}" if cls else fn.name
                params.setdefault(name, []).append((label, pos, defaults))
    unset = {(label, p): d for entries in params.values()
             for label, _, defaults in entries for p, d in defaults.items()}

    def called(node):
        return node.id if isinstance(node, ast.Name) else \
            node.attr if isinstance(node, ast.Attribute) else None

    def mark(name, args, keywords):
        for label, pos, defaults in params.get(name, ()):
            given = list(zip(pos, args)) + [(k.arg, k.value)
                                            for k in keywords if k.arg]
            for i, arg in enumerate(args):
                if isinstance(arg, ast.Starred):
                    given += [(p, arg) for p in pos[i:]]
            if any(k.arg is None for k in keywords):
                given += [(p, None) for p in defaults]
            for p, value in given:
                d = defaults.get(p)
                if d is not None and not (
                        isinstance(value, ast.Constant)
                        and isinstance(d, ast.Constant)
                        and value.value == d.value):
                    unset.pop((label, p), None)

    for text in callers:
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                mark(called(node.func), node.args, node.keywords)
                for i, arg in enumerate(node.args):
                    if called(arg) in params:
                        mark(called(arg), node.args[i + 1:], node.keywords)
    return sorted(f"{label}.{p}" for label, p in unset)


def test_unset_parameters_examples():
    lib = {"m": "def f(a, b=1, *, c=None):\n    pass\n\n"
                "class K:\n    def __init__(self, x=0):\n        pass\n\n"
                "    def g(self, y=2):\n        pass\n\n"
                "    @staticmethod\n    def h(z=3):\n        pass\n"}
    assert unset_parameters(lib, []) == ["K.__init__.x", "K.g.y", "K.h.z",
                                         "f.b", "f.c"]
    assert unset_parameters(lib, ["f(0, 1)\nk.g(y=2)\nK.h(3)\n"]) == [
        "K.__init__.x", "K.g.y", "K.h.z", "f.b", "f.c"]
    assert unset_parameters(lib, ["f(0, 5, c=x)\nK(1).g(4)\nK.h(z)\n"]) \
        == []
    assert unset_parameters(lib, ["t.call('f', m.f, 0, 5)\n"
                                  "K(*a)\nk.g(**kw)\n"]) == ["K.h.z", "f.c"]


def test_every_parameter_is_set_by_some_call():
    """A defaulted parameter that no call sets is a knob nobody turns."""
    library = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    callers = [p.read_text() for d in ("src/thermoflow", "tests", "scripts",
                                       "bench")
               for p in sorted((ROOT / d).glob("*.py"))]
    assert unset_parameters(library, callers) == []


@pytest.mark.parametrize("path", sorted(set(SRC.glob("*.py"))
                                         - {SRC / "__init__.py"}),
                         ids=lambda p: p.name)
def test_all_lists_own_definitions(path):
    """Every function or class a module's __all__ names is defined in that
    module, not re-exported from another, and the package exports it: by
    name, or with its module when the package exports the module (io)."""
    import importlib
    import inspect

    import thermoflow
    module = importlib.import_module(f"thermoflow.{path.stem}")
    for name in getattr(module, "__all__", ()):
        obj = getattr(module, name)
        if inspect.isfunction(obj) or inspect.isclass(obj):
            assert obj.__module__ == module.__name__, name
            assert name in thermoflow.__all__ \
                or path.stem in thermoflow.__all__, name


def scipy_imports(source: str) -> list:
    """(enclosing top-level name or None, module) for each import of scipy
    or a scipy submodule in `source`."""
    out = []
    for top in ast.parse(source).body:
        for node in ast.walk(top):
            modules = [a.name for a in node.names] \
                if isinstance(node, ast.Import) else [node.module] \
                if isinstance(node, ast.ImportFrom) else []
            out += [(getattr(top, "name", None), m) for m in modules
                    if m and m.split(".")[0] == "scipy"]
    return out


def test_scipy_imports_examples():
    assert scipy_imports("import scipy\nfrom scipy.special import b\n") \
        == [(None, "scipy"), (None, "scipy.special")]
    assert scipy_imports("def f():\n    import scipy.optimize as o\n") \
        == [("f", "scipy.optimize")]
    assert scipy_imports("import scipyx\nfrom numpy import scipy\n"
                         "from . import scipy\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_library_does_not_import_scipy(path):
    assert scipy_imports(path.read_text()) == []


# one run of each subcommand on the tests/data models
CLI_RUNS = {
    "spec-tau": ["--sft", "golden.json"],
    "glue": ["--sft", "golden.json", "--delta", "0.3", "--seed", "7"],
    "pressure": ["--sft", "full2.json", "--potential", "zero.json",
                 "--method", "all"],
    "equilibrium": ["--graph", "rose2.json", "--potential", "zero4.json"],
    "gibbs": ["--sft", "full2.json", "--potential", "phi_small.json",
              "--t-grid", "5,10", "--samples", "50", "--seed", "11"],
    "equidistribute": ["--sft", "full2.json", "--potential",
                       "phi_small.json", "--t-grid", "4,8"],
    "ldp": ["--sft", "full2.json", "--psi", "psi_ind1.json", "--epsilon",
            "0.1", "--samples", "2000", "--seed", "1"],
    "entropy-dense": ["--sft", "full2.json", "--eta", "0.05", "--seed",
                      "0"],
}

def _blocker(packages) -> str:
    """Source of a meta path finder, first in line, that fails every import
    of the named packages and their submodules."""
    return f"""\
import sys

class Blocked:
    def find_spec(self, name, path=None, target=None):
        if any(name == p or name.startswith(p + ".") for p in {packages!r}):
            raise ImportError(f"{{name}} is blocked")

sys.meta_path.insert(0, Blocked())
"""


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)


@functools.cache
def numpy_loads_ma() -> bool:
    """Whether a bare `import numpy` loads numpy.ma, as numpy < 2 does.
    numpy 2 loads it at the first plain np.unique, np.setdiff1d or np.isin
    (np.ma.is_masked), 17-19 ms of a cold process, so the library calls
    none of them."""
    return _run_fresh("import sys, numpy\n"
                      "sys.exit('numpy.ma' in sys.modules)").returncode != 0


def test_cli_runs_cover_every_subcommand():
    from thermoflow.cli import SUBCOMMANDS
    assert sorted(CLI_RUNS) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("subcommand", sorted(CLI_RUNS))
def test_cold_cli_runs_without_scipy(subcommand, tmp_path):
    """A fresh interpreter in which `import scipy*` raises ImportError, and
    so does `import numpy.ma*` unless numpy itself loads it, runs the
    subcommand through the CLI and exits 0."""
    data = ROOT / "tests" / "data"
    argv = [subcommand] + [str(data / a) if a.endswith(".json") else a
                           for a in CLI_RUNS[subcommand]] \
        + ["--out", str(tmp_path)]
    blocked = ("scipy",) if numpy_loads_ma() else ("scipy", "numpy.ma")
    done = _run_fresh(_blocker(blocked) + (
        "from thermoflow.cli import main\n"
        f"sys.exit(main({argv!r}))\n"))
    assert done.returncode == 0, done.stderr


# one call of each closed-orbit and rate entry point on golden (1, 2)
LIBRARY_RUNS = {
    "weighted-orbit-measure": "weighted_orbit_measure(SYSTEM, PHI, 8.0)",
    "pressure-gurevic": "pressure(SYSTEM, PHI, 'gurevic')",
    "pressure-separated": "pressure(SYSTEM, PHI, 'separated')",
    "rate-legendre": "rate_function(SYSTEM, PHI, PSI, [0.1, 0.5])",
    "rate-direct": "rate_function(SYSTEM, PHI, PSI, [0.1, 0.5], 'direct')",
}


@pytest.mark.parametrize("call", sorted(LIBRARY_RUNS))
def test_cold_library_call_without_numpy_ma(call):
    """A fresh interpreter in which `import numpy.ma*` raises ImportError
    makes the call and exits 0."""
    if numpy_loads_ma():
        pytest.skip("a bare `import numpy` loads numpy.ma")
    done = _run_fresh(_blocker(("numpy.ma",)) + (
        "from thermoflow import *\n"
        "SYSTEM = Suspension(Sft([[1, 1], [1, 0]]), Roof([1, 2]))\n"
        "PHI = CylinderPotential(1, {(0,): 0.1, (1,): -0.2})\n"
        "PSI = CylinderPotential(1, {(0,): 0.0, (1,): 1.0})\n"
        f"{LIBRARY_RUNS[call]}\n"))
    assert done.returncode == 0, done.stderr
