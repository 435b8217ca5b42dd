"""Source hygiene, by plain ``ast`` scans, so it needs no linter.

* Every name a package module imports is used.  A name counts as used when
  it appears as an identifier anywhere in the module (the base of an
  attribute access included) or is listed in the module's ``__all__``.
* Only ``grid`` touches a spectrum: no other module accesses ``.fft`` or a
  spectral attribute of ``GridSpec``, or imports ``fft`` or the inverse
  transform ``_to_real``.
* No function assigns a local it never reads (``_``-prefixed names aside).
* No function writes into module-level state: no ``global`` statement, and
  no subscript store or ``.update``/``.setdefault``/``.append`` call on a
  name the module binds at top level (unless the function rebinds it).
* Every ``_``-prefixed module-level function, class or constant is referred
  to somewhere in the package outside its own definition, so a private
  helper whose last caller went away does not linger.
* ``scipy`` is imported only inside functions, never when a module loads:
  importing ``scipy.sparse.linalg`` after numpy took a process's peak
  resident memory from 27 to 59 MB (numpy 2.4, scipy 1.17, Linux x86-64),
  and the momentum and physical paths never need it.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "driftsolve"
MODULES = sorted(PACKAGE.glob("*.py"))
SPECTRAL = {"fft", "_k2", "_inv_k2", "_ik", "_pair_weight",
            "_unpaired_half", "_kernel_half"}
NOT_IMPORTED = SPECTRAL | {"_to_real"}
MUTATORS = {"update", "setdefault", "append"}
LAZY = {"scipy"}


def _imported_names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _used_names(tree):
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def unused_imports(source):
    """(name, line) of each imported name the source never uses."""
    tree = ast.parse(source)
    used = _used_names(tree)
    return [(name, line) for name, line in _imported_names(tree)
            if name not in used]


def spectral_leaks(source):
    """(name, line) of each spectral attribute access, and of each import
    from or of ``fft``, a spectral attribute or ``_to_real``."""
    leaks = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in SPECTRAL:
            leaks.append((node.attr, node.lineno))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            module = getattr(node, "module", None) or ""
            leaks += [(alias.name, node.lineno) for alias in node.names
                      if not NOT_IMPORTED.isdisjoint(f"{module}.{alias.name}".split("."))]
    return leaks


def unused_locals(source):
    """``function.name`` of each local a function assigns but never reads;
    a nested function's reads count for its enclosing one."""
    found = []
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        stored, loaded, shared = set(), set(), set()
        for node in ast.walk(func):
            if isinstance(node, ast.Name):
                (loaded if isinstance(node.ctx, ast.Load) else stored).add(node.id)
            elif isinstance(node, (ast.Global, ast.Nonlocal)):
                shared.update(node.names)
        found += [f"{func.name}.{name}" for name in sorted(stored - loaded - shared)
                  if not name.startswith("_")]
    return found


def module_state_writes(source):
    """``function.name`` of each write a function makes into module-level
    state: a ``global`` statement, or a subscript store or mutating call on
    a top-level name the function does not rebind."""
    tree = ast.parse(source)
    module_names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        else:
            continue
        module_names.update(t.id for t in targets if isinstance(t, ast.Name))
    found = set()
    for func in ast.walk(tree):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {arg.arg for arg in ast.walk(func.args) if isinstance(arg, ast.arg)}
        local |= {node.id for node in ast.walk(func)
                  if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load)}
        shared = module_names - local
        for node in ast.walk(func):
            if isinstance(node, ast.Global):
                found.update(f"{func.name}.{name}" for name in node.names)
                continue
            if (isinstance(node, ast.Subscript)
                    and not isinstance(node.ctx, ast.Load)):
                base = node.value
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                  and node.func.attr in MUTATORS):
                base = node.func.value
            else:
                continue
            if isinstance(base, ast.Name) and base.id in shared:
                found.add(f"{func.name}.{base.id}")
    return sorted(found)


def _references(node):
    """Names a node loads, as bare names or as attributes."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def _private_definitions(node):
    """``_``-prefixed, non-dunder names a top-level statement defines."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name)]
    else:
        names = []
    return [n for n in names if n.startswith("_") and not n.startswith("__")]


def unreferenced_privates(sources):
    """``module.name`` of each private module-level definition that no
    top-level statement of ``sources`` (module name -> text) refers to,
    apart from the statement that defines it."""
    defined, referenced = [], {}
    for module, source in sources.items():
        for i, node in enumerate(ast.parse(source).body):
            key = (module, i)
            referenced[key] = _references(node)
            defined += [(module, name, key) for name in _private_definitions(node)]
    return [f"{module}.{name}" for module, name, key in defined
            if not any(name in refs for other, refs in referenced.items() if other != key)]


def eager_imports(source):
    """(module, line) of each import of a ``LAZY`` package that runs when
    the module loads: anywhere outside a function body."""
    found = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                found.extend((alias.name, child.lineno) for alias in child.names
                             if alias.name.split(".")[0] in LAZY)
            elif (isinstance(child, ast.ImportFrom) and child.level == 0
                  and child.module.split(".")[0] in LAZY):
                found.append((child.module, child.lineno))
            visit(child)

    visit(ast.parse(source))
    return found


def test_scan_finds_unused_imports():
    source = ("import os\nimport numpy as np\nfrom a.b import c, d as e\n"
              "from x import kept\n__all__ = ['kept']\nprint(np.pi, e)\n")
    assert unused_imports(source) == [("os", 1), ("c", 3)]


def test_scan_finds_spectral_leaks():
    source = ("import numpy.fft\nfrom .grid import _to_real, _rfft\n"
              "from numpy.fft import rfftn\n"
              "h = np.fft.rfftn(v) * g._k2\nm = g._kernel_half\n")
    assert sorted(spectral_leaks(source)) == [
        ("_k2", 4), ("_kernel_half", 5), ("_to_real", 2), ("fft", 4),
        ("numpy.fft", 1), ("rfftn", 3)]


def test_scan_finds_unused_locals():
    source = ("def f(a):\n    g = a.grid\n    k, _ = a.pair\n    total = 0\n"
              "    for _ in a:\n        total += 1\n    def inner():\n"
              "        return k\n    return inner\n")
    assert unused_locals(source) == ["f.g", "f.total"]


def test_scan_finds_module_state_writes():
    source = ("_CACHE = {}\n_SEEN: list = []\n_COUNT = 0\nLIMIT = 3\n"
              "def put(k, v):\n    _CACHE[k] = v\n"
              "def note(x):\n    _SEEN.append(x)\n    _CACHE.update(x=1)\n"
              "def bump():\n    global _COUNT\n    _COUNT += 1\n"
              "def fill(k):\n    return _CACHE.setdefault(k, LIMIT)\n"
              "def clean(k):\n    del _CACHE[k]\n"
              "def local(k):\n    _CACHE = {}\n    _CACHE[k] = LIMIT\n"
              "    out = [_SEEN[0]]\n    out.append(k)\n    return _CACHE, out\n")
    assert module_state_writes(source) == [
        "bump._COUNT", "clean._CACHE", "fill._CACHE", "note._CACHE",
        "note._SEEN", "put._CACHE"]


def test_scan_finds_eager_imports():
    source = ("import scipy\nimport scipyx, numpy\nfrom scipy.sparse import linalg\n"
              "from .scipy import local\n"
              "def solve():\n    from scipy.sparse.linalg import gmres\n"
              "    import scipy.optimize\n    return gmres\n"
              "class Holder:\n    import scipy.fft as sf\n"
              "    def method(self):\n        import scipy.linalg\n"
              "if linalg:\n    import scipy.special\n"
              "f = lambda: __import__('scipy')\n")
    assert eager_imports(source) == [("scipy", 1), ("scipy.sparse", 3),
                                     ("scipy.fft", 10), ("scipy.special", 14)]


def test_scan_finds_unreferenced_privates():
    sources = {
        "a": ("_LIMIT = 3\n_SPARE: int = 4\n__all__ = ['run']\n"
              "def _helper(x):\n    return _helper(x - 1) if x else _LIMIT\n"
              "def _used():\n    return 1\n"
              "def run():\n    return _used()\n"
              "class _Unused:\n    pass\n"),
        "b": "from a import run\n_TABLE = {'run': run}\nprint(a_mod._SPARE, _TABLE)\n",
    }
    assert unreferenced_privates(sources) == ["a._helper", "a._Unused"]


def test_every_private_definition_is_referenced():
    sources = {path.stem: path.read_text() for path in MODULES}
    assert unreferenced_privates(sources) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "grid.py"],
                         ids=lambda p: p.name)
def test_only_grid_touches_a_spectrum(path):
    assert spectral_leaks(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_local_is_assigned_and_never_read(path):
    assert unused_locals(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_function_writes_module_state(path):
    assert module_state_writes(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_scipy_is_imported_lazily(path):
    assert eager_imports(path.read_text()) == []
