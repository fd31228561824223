"""Earn-or-delete gate: every definition under ``src/repro`` has a reader.

An ``ast`` walk collects each function, class and method defined under
``src/repro`` (dunders excluded) and every name the non-test code
mentions: ``Name`` and ``Attribute`` nodes, ``from … import`` aliases,
and the words of string constants that are not docstrings (dispatch
tables and ``getattr`` lookups name code in strings).  ``__init__.py``
re-exports and ``__all__`` lists do not count as readers: exporting a
name is not using it.  Non-test code is everything under ``src/``,
``examples/``, ``benchmarks/``, ``scripts/`` and ``perfbench/``.

A definition whose name nothing outside ``tests/`` mentions fails the
gate unless :data:`ALLOWED` lists it with a reason.  An allow-list
entry fails too when it is no longer defined or has gained a non-test
reader, so the list cannot rot.  It is a name heuristic: a method
shares its name with every other method so called, so the gate finds
a lower bound of dead code, never a false "dead".
"""

from __future__ import annotations

import ast
import pathlib
import re
import textwrap
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = pathlib.Path(__file__).resolve().parents[1]
READER_DIRS = ("src", "examples", "benchmarks", "scripts", "perfbench")
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
    "repro.telemetry.metrics:MetricsRegistry.as_dict":
        "oracle: a golden digest hashes the registry through it",
    "repro.slo.engine:SloOutcome.ledger_jsonl":
        "oracle: the error-budget ledger the SLO tests compare",
    "repro.cluster.partition:PartitionMap.assignment":
        "oracle: the whole shard map, checked by the partition tests",
    "repro.gcs.vector_clock:VectorClock.concurrent_with":
        "oracle: the causal-order property tests use it",
    "repro.slo.stitch:cross_shard_traces":
        "oracle: the end-to-end stitching test checks against it",
    "repro.slo.stitch:stitch_summary":
        "oracle: the end-to-end stitching test checks against it",
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
    "repro.orb.marshal:padded":
        "fixture: the CDR alignment rule the marshal tests pin",
    # Inspection accessors.
    "repro.gcs.client:GcsClient.current_view":
        "accessor: a client's installed view, for inspection",
    "repro.sim.host:Cpu.jobs_run":
        "accessor: jobs a CPU has run, for inspection",
    "repro.adaptation.manager:AdaptationManager.switches_triggered":
        "accessor: switches a manager has ordered",
    "repro.adaptation.modes:ModeManager.degradations":
        "accessor: mode degradations caused by violated contracts",
    "repro.cluster.deploy:ShardDeployment.primary_replica":
        "accessor: a shard's live primary",
    "repro.gcs.client:GcsClient.joined_groups":
        "accessor: the groups a client has joined",
    "repro.gcs.links:ReliableLink.unacked_count":
        "accessor: frames a link still retransmits",
    "repro.gcs.messages:Grade.reliable":
        "accessor: whether a grade retransmits",
    "repro.monitoring.contracts:ContractMonitor.all_honoured":
        "accessor: whether every contract is honoured",
    "repro.replication.store:StableStore.latest":
        "accessor: synchronous peek at a group's stored checkpoint",
    "repro.sim.actor:Actor.timer_pending":
        "accessor: whether a named timer is armed",
    "repro.sim.host:Cpu.queue_delay_us":
        "accessor: how long a job submitted now would wait",
    "repro.sim.host:Cpu.utilization":
        "accessor: CPU utilization since an instant",
    "repro.journal.events:Journal.flight_recorder":
        "accessor: the flight-recorder ring, kept until it gets a reader",
    "repro.sim.kernel:NullJournal.flight_recorder":
        "accessor: the disabled journal's twin of flight_recorder",
    # The paper's knobs, which ROADMAP item 7 decides on.
    "repro.core.realtime:RealTimeKnob":
        "paper knob: Table 1 real-time knob, ROADMAP item 7",
    "repro.core.knobs:CheckpointIntervalKnob":
        "paper knob: Table 1 checkpointing knob, ROADMAP item 7",
    "repro.core.markov:plan_redundancy":
        "paper model: replica count for an availability target, item 7",
    "repro.core.realtime:RealTimePolicy.tightest_feasible_deadline":
        "paper model: real-time bound, ROADMAP item 7",
    "repro.core.markov:RepairableGroupModel.mean_time_to_total_failure_us":
        "paper model: availability helper, ROADMAP item 7",
    "repro.core.markov:RepairableGroupModel.expected_live_replicas":
        "paper model: availability helper, ROADMAP item 7",
    # Planned readers.
    "repro.telemetry.analysis:critical_path":
        "planned: ROADMAP items 2 and 3 read the critical path",
    "repro.telemetry.analysis:style_aggregates":
        "planned: ROADMAP items 2 and 3 aggregate spans per style",
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


def names_read(path: pathlib.Path) -> Set[str]:
    """Every name one file mentions, as the module docstring defines."""
    tree = ast.parse(path.read_text(), str(path))
    is_init = path.name == "__init__.py"
    skip = _docstring_ids(tree) | _all_ids(tree)
    names: Set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            if not is_init:
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(_WORD.findall(node.value))
    return names


def _defs_in(body: List[ast.stmt], prefix: str
             ) -> Iterator[Tuple[str, str, int]]:
    for node in body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
            continue
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        qualname = f"{prefix}{name}"
        yield qualname, name, node.lineno
        if isinstance(node, ast.ClassDef):
            yield from _defs_in(node.body, f"{qualname}.")


def definitions(root: pathlib.Path) -> Dict[str, Tuple[str, str]]:
    """``<module>:<qualname>`` → (bare name, ``path:line``) for every
    function, class and method under ``root/src/repro``."""
    src = root / "src"
    found = {}
    for path in sorted((src / "repro").rglob("*.py")):
        module = ".".join(path.relative_to(src).with_suffix("").parts)
        module = module.removesuffix(".__init__")
        tree = ast.parse(path.read_text(), str(path))
        for qualname, name, line in _defs_in(tree.body, ""):
            where = f"{path.relative_to(root)}:{line}"
            found[f"{module}:{qualname}"] = (name, where)
    return found


def _names_under(root: pathlib.Path, dirs) -> Set[str]:
    names: Set[str] = set()
    for directory in dirs:
        for path in sorted((root / directory).rglob("*.py")):
            names |= names_read(path)
    return names


def audit(root: pathlib.Path, allowed: Dict[str, str]
          ) -> Tuple[List[str], List[str]]:
    """(orphans, stale allow-list entries) of the tree at ``root``.

    An orphan line names the definition, where it is, and whether the
    tests read it; a stale line says why the entry no longer holds.
    """
    defined = definitions(root)
    readers = _names_under(root, READER_DIRS)
    test_readers = _names_under(root, ("tests",))
    orphans = []
    for key, (name, where) in sorted(defined.items()):
        if name in readers or key in allowed:
            continue
        reach = ("reached only from tests" if name in test_readers
                 else "referenced nowhere")
        orphans.append(f"{key} ({where}): {reach}")
    stale = []
    for key in sorted(allowed):
        if key not in defined:
            stale.append(f"{key}: allowed but no longer defined")
        elif defined[key][0] in readers:
            stale.append(f"{key}: allowed but now read outside tests")
    return orphans, stale


def test_every_definition_has_a_reader_outside_tests():
    orphans, stale = audit(REPO_ROOT, ALLOWED)
    assert not orphans + stale, (
        "definitions no non-test code reads (delete them, or add them "
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
        "repro.mod:now_read: allowed but now read outside tests",
    ]
