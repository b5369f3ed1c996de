"""Every module-level import in ``src/repro`` is used by its module.

Each non-``__init__`` module is parsed, and a top-level imported name
fails the test unless the module references it in code, in a string
annotation or in ``__all__``.  Package ``__init__`` modules re-export by
design and are skipped.

One kind of binding is exempt: the importer bindings that the benchmark's
layer tracer (``perfbench/layers.py``, ``ENTRY_POINTS``) patches.  The
tracer refuses to install when one of them is missing, so such a name
stays imported even where its module no longer calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LAYERS = ROOT / "perfbench" / "layers.py"


def _pinned_bindings():
    """``{(module, name)}`` the layer tracer patches in its importers."""
    tree = ast.parse(LAYERS.read_text(encoding="utf-8"))
    for node in tree.body:
        target = getattr(node, "target", None)
        if getattr(target, "id", None) == "ENTRY_POINTS":
            entries = ast.literal_eval(node.value)
            return {(importer, attr.split(".")[0])
                    for _, _, attr, importers in entries
                    for importer in importers}
    raise AssertionError("perfbench/layers.py defines no ENTRY_POINTS")


def _module_name(path):
    return ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)


def _imported_names(tree):
    """Top-level imported bindings, mapped to their line numbers."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                names[bound] = node.lineno
    return names


def _names_in(node):
    return {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}


def _annotation_strings(tree):
    """Names inside string annotations (``x: "Foo"``, ``List["Foo"]``)."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations.extend(
                arg.annotation
                for arg in (args.posonlyargs + args.args + args.kwonlyargs
                            + [args.vararg, args.kwarg])
                if arg is not None and arg.annotation is not None)
            if node.returns is not None:
                annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                names |= _names_in(ast.parse(sub.value, mode="eval"))
    return names


def _exported(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__"
                        for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(path):
    """The top-level names ``path`` imports and never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = _names_in(tree) | _annotation_strings(tree) | _exported(tree)
    return {name: line for name, line in _imported_names(tree).items()
            if name not in used}


def test_no_module_imports_a_name_it_never_uses():
    pinned = _pinned_bindings()
    unused = []
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        module = _module_name(path)
        for name, line in sorted(unused_imports(path).items()):
            if (module, name) not in pinned:
                unused.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not unused, "unused imports:\n" + "\n".join(unused)


def test_the_scan_sees_every_kind_of_use(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from typing import List, Optional, Set\n"
        "import os.path\n"
        "from json import dumps as to_json\n"
        "from math import pi\n"
        "__all__ = ['pi']\n"
        "def f(x: 'Optional[int]') -> List[int]:\n"
        "    return [os.path.sep]\n",
        encoding="utf-8")
    assert unused_imports(module) == {"Set": 1, "to_json": 3}

