"""Every name a library module, test module or script imports is read in
that module, every module-level private function of the library is read
somewhere outside its own body, and every name a library function assigns
is read in that function.  A name listed in the module's __all__ counts as
read; __future__ imports are skipped."""

import ast
import pathlib

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


def unreferenced_private_functions(sources: dict) -> list:
    """Module-level functions named _x in `sources` ({module: text}) whose
    name no top-level statement but their own definition reads."""
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    reads = [(top, {n.id for n in ast.walk(top) if isinstance(n, ast.Name)
                    and isinstance(n.ctx, ast.Load)}
              | {n.attr for n in ast.walk(top)
                 if isinstance(n, ast.Attribute)})
             for tree in trees.values() for top in tree.body]
    return sorted(
        f"{mod}:{top.name}" for mod, tree in trees.items()
        for top in tree.body
        if isinstance(top, ast.FunctionDef) and top.name.startswith("_")
        and not top.name.startswith("__")
        and not any(top.name in names for other, names in reads
                    if other is not top))


def test_unreferenced_private_functions_examples():
    srcs = {"a": "def _f():\n    return _f()\n\ndef _g():\n    pass\n",
            "b": "from a import _g\n_g()\n\nclass C:\n    def _h(self):\n"
                 "        pass\n"}
    assert unreferenced_private_functions(srcs) == ["a:_f"]
    assert unreferenced_private_functions(
        {"a": "import m\nm._k()\ndef _k():\n    pass\n"}) == []


def test_every_private_function_is_read():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert unreferenced_private_functions(sources) == []


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
