"""Every name a library module imports is read in that module, and every
module-level private function of the library is read somewhere outside its
own body.  A name listed in the module's __all__ counts as read;
__future__ imports are skipped."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "thermoflow"


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


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
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
