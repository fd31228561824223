"""Earn-or-delete gate: every definition under ``src/repro`` is reached.

An ``ast`` walk collects each function, class and method defined under
``src/repro`` (dunders excluded: they run without being named, so
they count as part of the code around them) and the names each piece
of code mentions: ``Name`` and ``Attribute`` nodes, and the words of
string constants that are not docstrings (dispatch tables and
``getattr`` lookups name code in strings).  ``__init__.py``
re-exports and ``__all__`` lists do not count: exporting a name is not
using it.

A name is *reached* when it is mentioned by non-test code outside
``src/`` (``examples/``, ``benchmarks/``, ``scripts/``, ``perfbench/``;
``from … import`` aliases count there), by module-level code under
``src/repro``, or by the body of a definition whose own name is
reached: a least fixpoint, so a method that only names itself, or an
island of helpers only an unreached function calls, stays unreached.

A definition whose name is not reached fails the gate unless
:data:`ALLOWED` lists it with a reason.  An allowed definition is
exempt itself, but its body reaches nothing.  An allow-list entry
fails too when it is no longer defined or has been reached, so the
list cannot rot.  It is a name heuristic: a method shares its name
with every other method so called, so the gate finds a lower bound of
dead code, never a false "dead".
"""

from __future__ import annotations

import ast
import pathlib
import re
import textwrap
from typing import Dict, Iterable, List, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
READER_DIRS = ("examples", "benchmarks", "scripts", "perfbench")
_WORD = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")

#: Definitions kept although no non-test code reads them, each with
#: the reason it stays.  Keys are ``<module>:<qualified name>``.
ALLOWED: Dict[str, str] = {
    # Test oracles and reference implementations.
    "repro.telemetry.analysis:validate_spans":
        "oracle: the span-tree invariants the telemetry tests assert",
    "repro.telemetry.export:parse_chrome_trace":
        "oracle: reloads `trace --format chrome` output in tests",
    "repro.telemetry.export:parse_prometheus_text":
        "oracle: reloads `trace --format prometheus` output in tests",
    "repro.slo.engine:SloOutcome.ledger_jsonl":
        "oracle: the error-budget ledger the SLO tests compare",
    "repro.cluster.partition:PartitionMap.assignment":
        "oracle: the whole shard map, checked by the partition tests",
    "repro.sim.kernel:Simulator.step":
        "oracle: the reference kernel dispatches one event at a time",
    "repro.campaign.spec:CampaignSpec.to_json":
        "oracle: golden digests and store tests hash specs through it",
    "repro.journal.availability:FaultMatch.missed":
        "oracle: the availability tests count missed faults with it",
    # Test fixtures.
    "repro.net.loss:RandomLoss":
        "fixture: the loss model the network and GCS tests install",
    "repro.net.network:Network.remove_loss_model":
        "fixture: pairs with add_loss_model in the network tests",
    "repro.orb.servant:EchoServant":
        "fixture: the minimal servant of the ORB tests",
    "repro.workload.profiles:StepProfile":
        "fixture: a rate step for the adaptation tests",
    "repro.workload.profiles:RampProfile":
        "fixture: a rate ramp for the adaptation tests",
    # The paper's knobs, which ROADMAP item 7 decides on.
    "repro.core.realtime:RealTimeKnob":
        "paper knob: Table 1 real-time knob, ROADMAP item 7",
    "repro.core.realtime:RealTimePolicy":
        "paper knob: the policy RealTimeKnob applies, ROADMAP item 7",
    "repro.core.knobs:CheckpointIntervalKnob":
        "paper knob: Table 1 checkpointing knob, ROADMAP item 7",
    "repro.core.realtime:RealTimePolicy.tightest_feasible_deadline":
        "paper model: real-time bound, ROADMAP item 7",
    # Planned readers.
    "repro.telemetry.analysis:critical_path":
        "planned: ROADMAP items 2 and 3 read the critical path",
    "repro.telemetry.analysis:style_aggregates":
        "planned: ROADMAP items 2 and 3 aggregate spans per style",
    "repro.telemetry.analysis:PathSegment":
        "planned: ROADMAP items 2 and 3, one step of a critical path",
    "repro.telemetry.analysis:SpanStats":
        "planned: ROADMAP items 2 and 3, per-style span aggregates",
}


def _docstring_ids(tree: ast.AST) -> Set[int]:
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr)
                    and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                ids.add(id(body[0].value))
    return ids


def _all_ids(tree: ast.AST) -> Set[int]:
    """Nodes inside an ``__all__ = [...]`` assignment."""
    ids = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            ids.update(id(sub) for sub in ast.walk(node.value))
    return ids


def _mentions(nodes: Iterable[ast.AST], skip: Set[int],
              imports: bool) -> Set[str]:
    """Every name the subtrees of ``nodes`` mention, as the module
    docstring defines; ``from … import`` aliases count when
    ``imports`` is set."""
    names: Set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            if imports:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_WORD.findall(node.value))
        stack.extend(ast.iter_child_nodes(node))
    return names


def _parse(path: pathlib.Path) -> Tuple[ast.Module, Set[int]]:
    tree = ast.parse(path.read_text(), str(path))
    return tree, _docstring_ids(tree) | _all_ids(tree)


def names_read(path: pathlib.Path) -> Set[str]:
    """Every name one file mentions, anywhere in it."""
    tree, skip = _parse(path)
    return _mentions([tree], skip, imports=path.name != "__init__.py")


def _is_def(node: ast.stmt) -> bool:
    """A function, class or method the gate tracks (dunders are part
    of the code around them: they run without being named)."""
    return (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef))
            and not (node.name.startswith("__")
                     and node.name.endswith("__")))


def _collect(body: List[ast.stmt], prefix: str, skip: Set[int],
             found: Dict[str, Tuple[str, int, Set[str]]]) -> Set[str]:
    """Record each tracked definition in ``body`` in ``found`` as
    qualname → (bare name, line, names its body mentions); return the
    names the rest of ``body`` mentions.  A class's body is its
    decorators, bases and every statement but its tracked methods; a
    function's body is all of it, nested functions included."""
    loose: List[ast.AST] = []
    for node in body:
        if not _is_def(node):
            loose.append(node)
            continue
        qualname = f"{prefix}{node.name}"
        if isinstance(node, ast.ClassDef):
            head = node.decorator_list + node.bases + node.keywords
            mentions = (_mentions(head, skip, imports=False)
                        | _collect(node.body, f"{qualname}.", skip, found))
        else:
            mentions = _mentions([node], skip, imports=False)
        found[qualname] = (node.name, node.lineno, mentions)
    return _mentions(loose, skip, imports=False)


def definitions(root: pathlib.Path
                ) -> Tuple[Set[str], Dict[str, Tuple[str, str, Set[str]]]]:
    """(names module-level code under ``root/src`` mentions,
    ``<module>:<qualname>`` → (bare name, ``path:line``, names its
    body mentions) for every function, class and method under
    ``root/src/repro``)."""
    src = root / "src"
    roots: Set[str] = set()
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree, skip = _parse(path)
        defs: Dict[str, Tuple[str, int, Set[str]]] = {}
        roots |= _collect(tree.body, "", skip, defs)
        for qualname, (name, line, mentions) in defs.items():
            where = f"{path.relative_to(root)}:{line}"
            found[f"{module}:{qualname}"] = (name, where, mentions)
    return roots, found


def _names_under(root: pathlib.Path, dirs) -> Set[str]:
    names: Set[str] = set()
    for directory in dirs:
        for path in sorted((root / directory).rglob("*.py")):
            names |= names_read(path)
    return names


def reached_names(roots: Set[str],
                  defined: Dict[str, Tuple[str, str, Set[str]]]
                  ) -> Set[str]:
    """Least fixpoint: ``roots``, plus what the body of every
    definition named by a reached name mentions.  ``ALLOWED`` plays no
    part: an allowed definition's body counts only once it is
    reached."""
    by_name: Dict[str, List[Set[str]]] = {}
    for name, _, mentions in defined.values():
        by_name.setdefault(name, []).append(mentions)
    reached: Set[str] = set()
    queue = list(roots)
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        reached.add(name)
        for mentions in by_name.get(name, ()):
            queue.extend(mentions - reached)
    return reached


def audit(root: pathlib.Path, allowed: Dict[str, str]
          ) -> Tuple[List[str], List[str]]:
    """(orphans, stale allow-list entries) of the tree at ``root``.

    An orphan line names the definition, where it is, and who reads
    it; a stale line says why the entry no longer holds.
    """
    roots, defined = definitions(root)
    reached = reached_names(roots | _names_under(root, READER_DIRS),
                            defined)
    in_src = set().union(*(m for _, _, m in defined.values()))
    test_readers = _names_under(root, ("tests",))
    orphans = []
    for key, (name, where, _) in sorted(defined.items()):
        if name in reached or key in allowed:
            continue
        reach = ("reached only from tests" if name in test_readers
                 else "read only by unreached code" if name in in_src
                 else "referenced nowhere")
        orphans.append(f"{key} ({where}): {reach}")
    stale = []
    for key in sorted(allowed):
        if key not in defined:
            stale.append(f"{key}: allowed but no longer defined")
        elif defined[key][0] in reached:
            stale.append(f"{key}: allowed but now reached")
    return orphans, stale


def test_every_definition_has_a_reader_outside_tests():
    orphans, stale = audit(REPO_ROOT, ALLOWED)
    assert not orphans + stale, (
        "definitions no reached code reads (delete them, or add them "
        "to ALLOWED with a reason) and stale ALLOWED entries:\n  "
        + "\n  ".join(orphans + stale))


def test_allow_list_entries_give_a_reason():
    assert all(reason.strip() for reason in ALLOWED.values())


def _plant(root: pathlib.Path, files: Dict[str, str]) -> None:
    for rel, text in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(text))


def test_gate_flags_a_planted_orphan_and_a_stale_entry(tmp_path):
    _plant(tmp_path, {
        "src/repro/__init__.py": '''
            """Package."""
            from repro.mod import Used, orphan, tested
            __all__ = ["Used", "orphan", "tested", "kept"]
        ''',
        "src/repro/mod.py": '''
            """Module naming orphan in its docstring only."""
            TABLE = {"run": "dispatched"}

            class Used:
                def run(self):
                    return helper()

                def __len__(self):
                    return 0

            def helper():
                return 1

            def dispatched():
                return 2

            def orphan():
                """Mentions orphan, which does not count."""

            def tested():
                return 3

            def kept():
                return 4

            def now_read():
                return 5
        ''',
        "examples/use.py": '''
            from repro import Used
            Used().run()
            print(now_read())
        ''',
        "tests/test_mod.py": '''
            from repro.mod import tested, kept
        ''',
    })
    allowed = {
        "repro.mod:kept": "fixture",
        "repro.mod:gone": "deleted since",
        "repro.mod:now_read": "gained a reader since",
    }
    orphans, stale = audit(tmp_path, allowed)
    assert orphans == [
        "repro.mod:orphan (src/repro/mod.py:18): referenced nowhere",
        "repro.mod:tested (src/repro/mod.py:21): reached only from tests",
    ]
    assert stale == [
        "repro.mod:gone: allowed but no longer defined",
        "repro.mod:now_read: allowed but now reached",
    ]


def test_gate_follows_reachability(tmp_path):
    """A method that only names itself, and a helper that only an
    allowed definition calls, are not reached."""
    _plant(tmp_path, {
        "src/repro/__init__.py": '''
            """Package."""
        ''',
        "src/repro/mod.py": '''
            """Module."""

            class Pool:
                def total(self):
                    return sum(part.total for part in self.parts)

            def oracle():
                return island()

            def island():
                return 1
        ''',
        "examples/use.py": '''
            from repro.mod import Pool
            Pool()
        ''',
    })
    orphans, stale = audit(tmp_path, {"repro.mod:oracle": "oracle"})
    assert orphans == [
        "repro.mod:Pool.total (src/repro/mod.py:5): "
        "read only by unreached code",
        "repro.mod:island (src/repro/mod.py:11): "
        "read only by unreached code",
    ]
    assert stale == []
