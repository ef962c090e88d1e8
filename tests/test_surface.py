"""Production code is what the package reaches: every module-level
function and class of src/minrank_atlas, and every method that is not a
dunder, is referenced somewhere in the package outside its own body.
A helper that only tests call belongs in tests/oracles.py or the test.

The package reads every data file through graph6.read_lines and writes
every output file through cli._emit: no other definition opens a file.

No function nested in another refers to its own name, except the one
named in test_no_nested_function_refers_to_itself: such a closure
holds a cell that holds the closure, so every call of the outer
function leaves a reference cycle for the cyclic collector.  An
explicit stack does the same work with none."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minrank_atlas"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = (*FUNCS, ast.ClassDef)


def _references(tree: ast.AST) -> tuple[Counter, Counter]:
    """Counts of the names a tree reads: bare names and import aliases,
    and attribute names."""
    names: Counter = Counter()
    attrs: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(node, ast.Attribute):
            attrs[node.attr] += 1
    return names, attrs


def unreferenced_definitions(package: Path = PACKAGE) -> list[str]:
    """'module.name' or 'module.Class.method' for every definition that
    nothing in the package but its own body refers to.  A module-level
    name counts through a name, an import alias or an attribute
    (module.name); a method only through an attribute."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(package.glob("*.py"))}
    names: Counter = Counter()
    attrs: Counter = Counter()
    for tree in trees.values():
        n, a = _references(tree)
        names += n
        attrs += a
    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, DEFS):
                continue
            own_names, own_attrs = _references(node)
            outside = names[node.name] - own_names[node.name] + attrs[node.name] - own_attrs[node.name]
            if outside <= 0:
                out.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for item in node.body:
                if not isinstance(item, DEFS) or item.name.startswith("__") and item.name.endswith("__"):
                    continue
                own = _references(item)[1][item.name]
                if attrs[item.name] - own <= 0:
                    out.append(f"{module}.{node.name}.{item.name}")
    return out


def opens(package: Path = PACKAGE, *, write: bool = False) -> list[str]:
    """'module.name' of the module-level definition around each open()
    call, once per call: the calls with a write mode ('w', 'a', 'x' or
    '+') when write, else the rest; a mode that is not a literal counts
    as a read."""
    out = []
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            owner = f"{path.stem}.{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if not isinstance(node, ast.Call) or "open" not in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    continue
                mode = node.args[1] if len(node.args) > 1 else None
                mode = next((k.value for k in node.keywords if k.arg == "mode"), mode)
                writes = isinstance(mode, ast.Constant) and bool(set(str(mode.value)) & set("wax+"))
                if writes == write:
                    out.append(owner)
    return out


def self_referring_closures(package: Path = PACKAGE) -> list[str]:
    """'module.outer.name' for every function defined inside a
    module-level function or a method ('module.Class.method.name'),
    at any depth, whose body reads its own name."""
    out = []
    for path in sorted(package.glob("*.py")):
        outers = []
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(top, ast.ClassDef):
                outers += [(f"{top.name}.{item.name}", item) for item in top.body if isinstance(item, FUNCS)]
            elif isinstance(top, FUNCS):
                outers.append((top.name, top))
        for label, outer in outers:
            for node in ast.walk(outer):
                if node is outer or not isinstance(node, FUNCS):
                    continue
                if any(isinstance(n, ast.Name) and n.id == node.name for n in ast.walk(node)):
                    out.append(f"{path.stem}.{label}.{node.name}")
    return out


def reading_opens(package: Path = PACKAGE) -> list[str]:
    return opens(package)


def test_one_reader_opens_data_files():
    assert reading_opens() == ["graph6.read_lines"]


def test_one_writer_writes_output_files(tmp_path):
    assert opens(write=True) == ["cli._emit"]
    (tmp_path / "a.py").write_text(
        "def write(p):\n    open(p, 'w').close()\n    open(p, mode='a+b').close()\n\n"
        "def read(p, m):\n    open(p).close()\n    open(p, m).close()\n"
    )
    assert opens(tmp_path, write=True) == ["a.write", "a.write"]


def test_the_walk_finds_a_read_outside_the_reader(tmp_path):
    (tmp_path / "a.py").write_text(
        "import io\n\n"
        "def write(p):\n    open(p, 'w').close()\n    open(p, mode='a+b').close()\n\n"
        "def read(p):\n    open(p).close()\n    open(p, 'rb').close()\n\n"
        "class Reader:\n    def load(self, p, m):\n        return io.open(p, mode=m)\n"
    )
    assert reading_opens(tmp_path) == ["a.read", "a.read", "a.Reader"]


def test_every_definition_is_reached_from_the_package():
    assert unreferenced_definitions() == []


def test_the_walk_finds_a_definition_nothing_calls(tmp_path):
    (tmp_path / "a.py").write_text(
        "def used():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n"
        "class Box:\n"
        "    def __init__(self):\n        self.n = 0\n"
        "    def shown(self):\n        return self.n\n"
        "    def hidden(self):\n        return self.hidden()\n"
    )
    (tmp_path / "b.py").write_text("from a import Box\n\nBox().shown()\n")
    assert unreferenced_definitions(tmp_path) == ["a.lonely", "a.Box.hidden"]


def test_no_nested_function_refers_to_itself():
    # has_minor's search leaves production with the minor search itself
    # (ROADMAP item 4); until then it stays as it is, since a change to
    # it moves the graph-queries benchmark
    assert self_referring_closures() == ["minors.has_minor.search"]


def test_the_walk_finds_a_closure_that_refers_to_itself(tmp_path):
    (tmp_path / "a.py").write_text(
        "def outer(n):\n"
        "    def walk(k):\n        return walk(k - 1) if k else 0\n"
        "    def flat(k):\n        return k\n"
        "    return walk(n) + flat(n)\n\n"
        "def top(n):\n    return top(n - 1) if n else 0\n\n"
        "class Box:\n"
        "    def method(self):\n"
        "        def again():\n            return again\n"
        "        return again()\n"
    )
    assert self_referring_closures(tmp_path) == ["a.outer.walk", "a.Box.method.again"]
