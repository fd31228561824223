"""Property: a mutated input file never crashes the CLI.

One valid file of each kind the CLI loads — a journal, an SLO spec, a
campaign spec and a repro artifact — is mutated once, structurally
(another document, a truncated text) or in one field.  Field mutations
are drawn from the declared rules of that file's values
(:class:`repro.errors.Rule`): a value of the wrong kind, NaN or inf, a
value just outside the range, a missing field, ``null``.  Whatever the
mutation, ``repro.cli.main`` returns 0, 1 or 2 — never a traceback —
and exit 2 is one line on stderr.
"""

from __future__ import annotations

import contextlib
import copy
import functools
import io
import json
import math
import os
import tempfile
from dataclasses import replace
from typing import Any, Dict, List, Sequence, Tuple

from hypothesis import given, settings, strategies as st

from repro.campaign.spec import AXIS_RULES, CAMPAIGN_RULES
from repro.check.artifact import ARTIFACT_RULES, POLICY_RULES, ReproArtifact
from repro.check.scenario import SCENARIO_RULES
from repro.cli import main
from repro.errors import Rule
from repro.journal.events import EVENT_RULES
from repro.slo.spec import SLO_SPEC_RULES

#: Values of every JSON kind; a rule's wrong-kind values are the ones
#: it refuses.
ANY_KIND = (1, 1.5, "x", True, [1], {"a": 1})
NOT_FINITE = (math.nan, math.inf, -math.inf)
MISSING = object()

JOURNAL_LINE = {"seq": 0, "t_us": 5.0, "host": "s01", "component": "gcs",
                "kind": "request.done", "attrs": {"op": "add"},
                "trace_id": 1, "shard": "shard0"}
SLO_SPEC = {"name": "fuzz", "shard": "*", "availability_target": 0.99,
            "latency_p": 0.99, "latency_target_us": 5000.0,
            "fast_window_us": 100_000.0, "slow_window_us": 1_000_000.0,
            "burn_threshold": 2.0}
CAMPAIGN_SPEC = {"name": "fuzz", "styles": ["active"], "replica_counts": [2],
                 "checkpoint_intervals": [1], "fault_loads": ["none"],
                 "shard_counts": [1], "seeds": [0], "n_clients": 1,
                 "duration_us": 50_000.0, "rate_per_s": 100.0,
                 "deadline_us": 7000.0, "settle_us": 100_000.0,
                 "sample": None, "base_seed": 0, "version": 1}

#: Where each file's rules apply: (path to the object, rules, whether
#: the rules govern the elements of the named lists).
Sections = Sequence[Tuple[Tuple[str, ...], Sequence[Rule], bool]]


def refused(rule: Rule) -> List[Any]:
    """Values ``rule`` refuses: other kinds, NaN and inf, the nearest
    values outside its range, and ``null``."""
    values = list(ANY_KIND) + [None]
    if rule.kind in (int, float):
        values += NOT_FINITE
    for bound, step in ((rule.gt, 0), (rule.ge, -1), (rule.lt, 0),
                        (rule.le, 1)):
        if bound is not None:
            values.append(bound + step)
    return [value for value in values if not rule.admits(value)]


@st.composite
def mutated(draw, document: Dict[str, Any], sections: Sections) -> str:
    """The JSON text of ``document`` after one drawn mutation."""
    doc = copy.deepcopy(document)
    how = draw(st.sampled_from(["field"] * 4 + ["document", "truncate"]))
    if how == "document":
        doc = draw(st.sampled_from([None, 1, "x", [], [doc]]))
    elif how == "field":
        path, rules, elements = draw(st.sampled_from(sections))
        rule = draw(st.sampled_from(rules))
        name = draw(st.sampled_from(rule.names))
        value = draw(st.sampled_from(refused(rule) + [MISSING]))
        target = functools.reduce(dict.__getitem__, path, doc)
        if elements:
            target[name] = [] if value is MISSING else [value]
        elif value is MISSING:
            target.pop(name, None)
        else:
            target[name] = value
    text = json.dumps(doc)
    if how == "truncate":
        text = text[:draw(st.integers(0, len(text) - 1))]
    return text


def run_cli(argv: List[str]) -> int:
    """``main(argv)``; asserts the exit-code contract."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 2:
        assert len(err.getvalue().splitlines()) == 1, err.getvalue()
    return code


def write(directory: str, name: str, text: str) -> str:
    path = os.path.join(directory, name)
    with open(path, "w") as handle:
        handle.write(text)
    return path


FUZZ = settings(max_examples=40, derandomize=True, deadline=None)


@FUZZ
@given(mutated(JOURNAL_LINE, [((), EVENT_RULES, False)]))
def test_mutated_journal(text):
    with tempfile.TemporaryDirectory() as tmp:
        path = write(tmp, "run.jsonl", json.dumps(JOURNAL_LINE) + "\n"
                     + text + "\n")
        run_cli(["observe", path])
        run_cli(["slo", "status", path])


@FUZZ
@given(mutated(SLO_SPEC, [((), SLO_SPEC_RULES, False)]))
def test_mutated_slo_spec(text):
    with tempfile.TemporaryDirectory() as tmp:
        journal = write(tmp, "run.jsonl", json.dumps(JOURNAL_LINE) + "\n")
        run_cli(["slo", "status", journal, "--spec",
                 write(tmp, "slo.json", text)])


@settings(FUZZ, max_examples=25)
@given(mutated(CAMPAIGN_SPEC, [((), CAMPAIGN_RULES, False),
                               ((), AXIS_RULES, True)]))
def test_mutated_campaign_spec(text):
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["campaign", write(tmp, "spec.json", text), "--quiet",
                 "--results", os.path.join(tmp, "results.jsonl")])


@functools.lru_cache(maxsize=None)
def artifact_document() -> Dict[str, Any]:
    """A replayable artifact of one short random walk."""
    from repro.check import RandomWalkPolicy, canonical_scenario, run_schedule

    scenario = replace(canonical_scenario(), n_requests=1,
                       horizon_us=300_000.0, settle_us=100_000.0)
    policy = RandomWalkPolicy(seed=1, tie_choices=4, delay_bound_us=150.0)
    outcome = run_schedule(scenario, policy)
    return ReproArtifact(scenario, 1, 4, 150.0, list(policy.decisions),
                         outcome.digest, []).to_dict()


@settings(FUZZ, max_examples=30)
@given(st.data())
def test_mutated_artifact(data):
    text = data.draw(mutated(artifact_document(), [
        ((), ARTIFACT_RULES, False), (("policy",), POLICY_RULES, False),
        (("scenario",), SCENARIO_RULES, False)]))
    with tempfile.TemporaryDirectory() as tmp:
        run_cli(["check", "--replay", write(tmp, "artifact.json", text)])
