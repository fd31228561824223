"""Gate: no module under ``src/repro`` imports a name it never reads.

An ``ast`` walk (no linter is needed) collects the names each import
statement binds — ``import a.b`` binds ``a``, ``import a as b`` and
``from m import a as b`` bind ``b``; ``from __future__`` imports bind
nothing — and the names the module reads: every ``Name`` node, the
words of an ``__all__`` list (a re-export is a use), and the names
inside string annotations (``x: "Optional[T]"``).  A bound name the
module never reads fails the gate.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap
from typing import List, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bound(node: ast.stmt) -> List[str]:
    """Names one import statement binds."""
    if isinstance(node, ast.Import):
        return [alias.asname or alias.name.split(".")[0]
                for alias in node.names]
    if isinstance(node, ast.ImportFrom) and node.module != "__future__":
        return [alias.asname or alias.name for alias in node.names
                if alias.name != "*"]
    return []


def _annotation_names(annotation: ast.AST) -> Set[str]:
    """Names a (possibly string) annotation reads."""
    names: Set[str] = set()
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= _annotation_names(parsed)
        elif isinstance(node, ast.Name):
            names.add(node.id)
    return names


def _read(tree: ast.Module) -> Set[str]:
    """Names the module reads, as the module docstring defines."""
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            names.update(c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant))
        elif isinstance(node, ast.AnnAssign):
            names |= _annotation_names(node.annotation)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            names |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            names |= _annotation_names(node.returns)
    return names


def unused_imports(root: pathlib.Path) -> List[str]:
    """``path:line: name`` for every import ``root/src/repro`` never
    reads."""
    found = []
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        read = _read(tree)
        for node in ast.walk(tree):
            for name in _bound(node):
                if name not in read:
                    found.append(f"{path.relative_to(root)}:"
                                 f"{node.lineno}: {name}")
    return found


def test_no_unused_imports_under_src():
    unused = unused_imports(REPO_ROOT)
    assert not unused, ("imported but never read (delete the import, or "
                        "list a re-export in __all__):\n  "
                        + "\n  ".join(unused))


def test_gate_flags_a_planted_unused_import(tmp_path):
    path = tmp_path / "src" / "repro" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent('''
        """Module."""
        from __future__ import annotations
        import os.path
        import json as codec
        from dataclasses import dataclass, field
        from typing import Dict, Optional
        from collections import OrderedDict
        from repro.other import exported

        __all__ = ["exported"]

        @dataclass
        class Box:
            cache: "OrderedDict[str, int]"

        def load(text) -> Optional[int]:
            return codec.loads(text) if os.path.exists(text) else None
    '''))
    assert unused_imports(tmp_path) == [
        "src/repro/mod.py:6: field",
        "src/repro/mod.py:7: Dict",
    ]
