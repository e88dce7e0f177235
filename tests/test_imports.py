"""Every name a `src/vulrtex` module imports is used in that module.

A deletion that leaves an import behind keeps a dead dependency and can keep
a whole module loading for nothing; this AST guard catches it. A name counts
as used when the module reads it anywhere, annotations included, or lists
it in `__all__`.
"""

import ast
from pathlib import Path

import vulrtex


def _imported(tree: ast.Module) -> dict[str, int]:
    """Each name the module's imports bind, with the line that binds it."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _used(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return used


def test_src_modules_use_every_name_they_import():
    unused = []
    for path in sorted(Path(vulrtex.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        used = _used(tree)
        unused += [f"{path.name}:{line}: {name}"
                   for name, line in _imported(tree).items() if name not in used]
    assert unused == []


def test_the_guard_sees_an_unused_import_and_a_used_one():
    tree = ast.parse("from __future__ import annotations\n"
                     "import os.path\nfrom json import dumps, loads as ld\n"
                     "def f(x: dumps) -> None:\n    return os.sep\n")
    assert {name for name in _imported(tree) if name not in _used(tree)} == {"ld"}


def _reads_hop_template(tree: ast.Module) -> list[int]:
    """The lines where the module imports or reads graph.HOP_TEMPLATE."""
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            lines += [node.lineno for alias in node.names if alias.name == "HOP_TEMPLATE"]
        elif ((isinstance(node, ast.Name) and node.id == "HOP_TEMPLATE")
              or (isinstance(node, ast.Attribute) and node.attr == "HOP_TEMPLATE")):
            lines.append(node.lineno)
    return lines


def test_only_graph_reads_the_hop_template():
    """The description layout lives in graph.py alone: it writes
    descriptions (describe_path) and counts their terms (DescriptionTerms),
    so no other module can keep a copy of the layout that drifts."""
    readers = []
    for path in sorted(Path(vulrtex.__file__).parent.glob("*.py")):
        if path.name != "graph.py":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            readers += [f"{path.name}:{line}" for line in _reads_hop_template(tree)]
    assert readers == []


def test_the_hop_template_guard_sees_an_import_and_a_read():
    tree = ast.parse("from .graph import HOP_TEMPLATE as T\nfrom . import graph\n"
                     "x = graph.HOP_TEMPLATE.format(src=1)\n")
    assert _reads_hop_template(tree) == [1, 3]
