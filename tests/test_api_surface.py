"""Every function and method of the package has a use outside the tests.

A name counts as used when it appears in ``src/sp4eis`` or ``perfbench/``
as a ``Name`` node, an ``Attribute`` node or a string constant, other
than its own definition.  A dotted string such as ``"RuleTable.local_pole"``
(the form of ``perfbench/layertrace.py``'s ``SPANNED``) counts for each of
its parts.  Dunder methods are called by the language and are exempt.

The check is by name, so it cannot see an unused dunder, nor an unused
method whose name another class's method shares and src calls (an
``inverse`` counts as used while ``Series.inverse`` is).  Such surface has
to be found by reading.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "sp4eis"
USERS = (PACKAGE, ROOT / "perfbench")

# Defined for a reader other than the engine, each with its reason.
KEPT = {
    # the reference that tests/test_localrules.py checks the rule table against
    "sl2_reducible": "reducibility reference for the pole table",
    "gl2_reducible": "reducibility reference for the pole table",
}

_DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)*")


def _trees(roots):
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _definitions() -> dict[str, list[str]]:
    """Module-level functions and class methods of the package, by name."""
    out: dict[str, list[str]] = {}
    for path, tree in _trees([PACKAGE]):
        where = path.relative_to(ROOT)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.setdefault(node.name, []).append(f"{where}:{node.name}")
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        out.setdefault(item.name, []).append(f"{where}:{node.name}.{item.name}")
    return out


def _uses() -> set[str]:
    names: set[str] = set()
    for _, tree in _trees(USERS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                    and _DOTTED.fullmatch(node.value):
                names.update(node.value.split("."))
    return names


def test_every_definition_has_a_use():
    uses = _uses()
    unused = sorted(
        where
        for name, places in _definitions().items()
        if name not in uses and name not in KEPT
        and not (name.startswith("__") and name.endswith("__"))
        for where in places
    )
    assert not unused, "no use in src/sp4eis or perfbench/: " + ", ".join(unused)


def test_kept_exceptions_are_still_defined_and_unused():
    defined, uses = _definitions(), _uses()
    assert all(name in defined for name in KEPT), sorted(set(KEPT) - set(defined))
    assert not [name for name in KEPT if name in uses]
