"""`src/mlio` holds only what the estimator, CLI, demos and benchmark use.

Each public top-level function or class of `src/mlio/*.py`, and each
public method of a public class, needs a reference (a name, attribute,
imported name, or a string equal to it, as the benchmark tracer patches
by name) from `src/`, `demos/` or `perfbench/` outside its own
definition. References from unreferenced definitions do not count, so a
chain of helpers that only tests reach is caught whole.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mlio"


def _public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name[0] != "_"


def _referenced_name(node):
    if isinstance(node, ast.alias):
        return node.name.rsplit(".", 1)[-1]
    if isinstance(node, ast.Constant):
        return node.value if isinstance(node.value, str) else None
    return getattr(node, "id", None) or getattr(node, "attr", None)  # Name, Attribute


def unreferenced() -> list:
    """'path:line name' of each checked definition without a reference."""
    defs = {}  # key -> name
    refs = defaultdict(list)  # name -> [keys of the enclosing definitions]

    def collect(node, owners, keys):
        owners = owners | keys.get(id(node), set())
        if (name := _referenced_name(node)) is not None:
            refs[name].append(owners)
        for child in ast.iter_child_nodes(node):
            collect(child, owners, keys)

    for path in sorted(PACKAGE.glob("*.py")) + sorted(ROOT.glob("demos/*.py")) \
            + sorted(ROOT.glob("perfbench/*.py")):
        tree = ast.parse(path.read_text())
        keys = {}
        checked = [n for n in tree.body if _public(n)] if path.parent == PACKAGE else []
        for node in checked:
            methods = node.body if isinstance(node, ast.ClassDef) else []
            for sub in [node] + [m for m in methods if _public(m)]:
                qual = sub.name if sub is node else f"{node.name}.{sub.name}"
                key = f"{path.relative_to(ROOT)}:{sub.lineno} {qual}"
                keys[id(sub)], defs[key] = {key}, sub.name
        collect(tree, frozenset(), keys)
    dead = set()
    while True:
        now = {key for key, name in defs.items()
               if not any(key not in o and not o & dead for o in refs[name])}
        if now == dead:
            return sorted(dead)
        dead = now


def test_every_public_name_has_a_product_reference():
    dead = unreferenced()
    assert not dead, "no reference outside tests/:\n" + "\n".join(dead)
