"""Gate: no class under ``src/repro`` only forwards to the object it
holds.

An ``ast`` walk (no linter is needed) looks at every class and its
methods other than ``__init__``.  A method *does nothing* when its body
is a docstring, ``pass`` or ``...``; it *forwards* when its body is one
call to a method of an attribute of ``self`` (``self._x.run(a)``, as a
statement or returned), on its own or under one ``if`` with no
``else``.  A class with at least one such method fails the gate when
every method does nothing or forwards, and all the forwards go to one
attribute that ``__init__`` sets (or there are none).  Such a class is
an adapter: its caller can hold the target's bound methods instead.

A real seam (an interface whose default does nothing, a layer that
must sit in a stack) goes on :data:`ALLOWED` with its reason.  An entry
fails too when its class no longer exists or no longer forwards, so the
list cannot rot.
"""

from __future__ import annotations

import ast
import pathlib
import textwrap
from typing import Dict, List, Optional, Set

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Forwarding classes kept on purpose, each with the reason.  Keys are
#: ``<module>:<qualified class name>``.
ALLOWED: Dict[str, str] = {}


def _body(func: ast.FunctionDef) -> List[ast.stmt]:
    """The statements of ``func`` after its docstring."""
    body = func.body
    if (body and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]
    return body


def _does_nothing(body: List[ast.stmt]) -> bool:
    return all(isinstance(stmt, ast.Pass)
               or (isinstance(stmt, ast.Expr)
                   and isinstance(stmt.value, ast.Constant)
                   and stmt.value.value is Ellipsis)
               for stmt in body)


def _forward_target(body: List[ast.stmt], self_name: str) -> Optional[str]:
    """The attribute ``body`` forwards to, or None when it does more."""
    if len(body) != 1:
        return None
    stmt = body[0]
    if isinstance(stmt, ast.If) and not stmt.orelse:
        return _forward_target(stmt.body, self_name)
    if not isinstance(stmt, (ast.Expr, ast.Return)) \
            or not isinstance(stmt.value, ast.Call):
        return None
    func = stmt.value.func
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id == self_name):
        return func.value.attr
    return None


def _set_in_init(cls: ast.ClassDef) -> Set[str]:
    """Attributes ``__init__`` assigns on ``self``."""
    names: Set[str] = set()
    for node in cls.body:
        if isinstance(node, ast.FunctionDef) and node.name == "__init__" \
                and node.args.args:
            self_name = node.args.args[0].arg
            for sub in ast.walk(node):
                targets = (sub.targets if isinstance(sub, ast.Assign)
                           else [sub.target] if isinstance(sub, ast.AnnAssign)
                           else [])
                names.update(t.attr for t in targets
                             if isinstance(t, ast.Attribute)
                             and isinstance(t.value, ast.Name)
                             and t.value.id == self_name)
    return names


def _forwards(cls: ast.ClassDef) -> bool:
    methods = [node for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and node.name != "__init__"]
    if not methods:
        return False
    targets = set()
    for method in methods:
        body = _body(method)
        if _does_nothing(body):
            continue
        if not method.args.args:
            return False
        target = _forward_target(body, method.args.args[0].arg)
        if target is None:
            return False
        targets.add(target)
    return len(targets) <= 1 and targets <= _set_in_init(cls)


def _classes(body: List[ast.stmt], prefix: str):
    for node in body:
        if isinstance(node, ast.ClassDef):
            yield f"{prefix}{node.name}", node
            yield from _classes(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _classes(node.body, f"{prefix}{node.name}.")


def forwarders(root: pathlib.Path) -> Dict[str, str]:
    """``<module>:<class>`` → ``path:line`` for every forwarding class
    under ``root/src/repro``."""
    src = root / "src"
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))
        for qualname, cls in _classes(tree.body, ""):
            if _forwards(cls):
                found[f"{module}:{qualname}"] = \
                    f"{path.relative_to(root)}:{cls.lineno}"
    return found


def audit(root: pathlib.Path, allowed: Dict[str, str]) -> List[str]:
    """One line per forwarding class not allowed, and per allow-list
    entry that no longer names a forwarding class."""
    found = forwarders(root)
    problems = [f"{key} ({where}) only forwards"
                for key, where in sorted(found.items())
                if key not in allowed]
    problems += [f"{key}: allowed but not a forwarding class"
                 for key in sorted(allowed) if key not in found]
    return problems


def test_no_forwarding_classes_under_src():
    problems = audit(REPO_ROOT, ALLOWED)
    assert not problems, (
        "classes that only forward to the object they hold (hand its "
        "bound methods to the caller instead, or add the class to "
        "ALLOWED with a reason), and stale ALLOWED entries:\n  "
        + "\n  ".join(problems))


def test_allow_list_entries_give_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def test_gate_flags_a_planted_forwarder(tmp_path):
    path = tmp_path / "src" / "repro" / "mod.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent('''
        """Module."""

        class Target:
            def run(self, x):
                return x + 1

        class Shim:
            def __init__(self, target):
                self._target = target

            def on_message(self, group, payload):
                if isinstance(payload, int):
                    self._target.run(payload)

            def on_view(self, view):
                """Views are ignored."""

        class Listener:
            def on_message(self, payload):
                """Does nothing."""

            def on_view(self, view):
                pass

        class Seam:
            def __init__(self, inner):
                self._inner = inner

            def start(self, handler):
                return self._inner.start(handler)

        class TwoTargets:
            def __init__(self, a, b):
                self._a, self._b = a, b

            def first(self):
                self._a.run(1)

            def second(self):
                self._b.run(2)

        class Works:
            def __init__(self, inner):
                self._inner = inner
                self.calls = 0

            def run(self, x):
                self.calls += 1
                return self._inner.run(x)

        class Data:
            def __init__(self, x):
                self.x = x

        def factory():
            class Local:
                def __init__(self, inner):
                    self.inner = inner

                def go(self):
                    self.inner.go()
            return Local
    '''))
    allowed = {"repro.mod:Seam": "a layer of a stack",
               "repro.mod:Works": "does more than forward"}
    assert audit(tmp_path, allowed) == [
        "repro.mod:Listener (src/repro/mod.py:19) only forwards",
        "repro.mod:Shim (src/repro/mod.py:8) only forwards",
        "repro.mod:factory.Local (src/repro/mod.py:57) only forwards",
        "repro.mod:Works: allowed but not a forwarding class",
    ]
