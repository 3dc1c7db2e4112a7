"""Every public name in kgmon has a caller that is not a test.

A public module-level function or class, or a public method or property,
must be referenced somewhere other than its own definition: in
`src/kgmon`, in the benchmark's `perfbench/*.py`, or in the README's
"Library use" example. A name that only tests call is API kept alive for
the tests alone; delete it, or call what it wraps from the test.

A reference is any use of the identifier (a name, an attribute or an
import), so a method counts as used when any object's attribute of that
name is read. Uses inside the definition itself, such as recursion, do
not count.
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"))


def _identifiers(tree: ast.AST) -> Counter:
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.alias):
            found[node.name.rsplit(".", 1)[-1]] += 1
    return found


def _library_use_example() -> ast.AST:
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", section, re.DOTALL)
    return ast.parse("\n".join(blocks))


def _public_definitions(tree: ast.Module):
    """(qualified name, definition node) of each public module-level function
    and class, and of each public method or property of any class."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, defs[:2]) and not member.name.startswith("_"):
                    yield f"{node.name}.{member.name}", member


def test_every_public_name_has_a_caller_outside_tests():
    trees = {p.name: _parse(p) for p in sorted((ROOT / "src/kgmon").glob("*.py"))}
    assert "cli.py" in trees
    benchmark = [_parse(p) for p in sorted((ROOT / "perfbench").glob("*.py"))]
    uses = Counter()
    for tree in [*trees.values(), *benchmark, _library_use_example()]:
        uses += _identifiers(tree)
    unused = [
        f"{module}:{qualname}"
        for module, tree in trees.items()
        for qualname, node in _public_definitions(tree)
        if uses[node.name] - _identifiers(node)[node.name] == 0
    ]
    assert unused == []
