"""Experiment harness shared by examples and benchmarks.

Public surface:

- :class:`Testbed` and the deploy helpers (:func:`deploy_replica`,
  :func:`deploy_replica_group`, :func:`deploy_client`)
- :class:`ScenarioRun` — the staged runner (build, warm, drive,
  collect) every scenario engine goes through, and the object a fault
  load's ``inject`` hook receives
- :class:`RunRecord` — the one result record every engine returns,
  built by :meth:`ScenarioRun.record`
- scenario engines: :func:`run_replicated_load`, :func:`build_profile`
  (Fig. 7 sweep), :func:`run_rtt_breakdown` (Fig. 3),
  :func:`run_overhead_modes` (Fig. 4), :func:`run_adaptive_scenario`
  (Fig. 6), :func:`run_fault_trial` (campaign trial unit)
"""

from repro.experiments.run import RunRecord, ScenarioRun
from repro.experiments.scenarios import (
    DEFAULT_PROCESSING_US,
    DEFAULT_REPLY_BYTES,
    DEFAULT_REQUEST_BYTES,
    DEFAULT_STATE_BYTES,
    build_profile,
    run_adaptive_scenario,
    run_overhead_modes,
    run_replicated_load,
    run_rtt_breakdown,
)
from repro.experiments.testbed import (
    ClientStack,
    Replica,
    Testbed,
    deploy_client,
    deploy_replica,
    deploy_replica_group,
)
from repro.experiments.trial import run_fault_trial

__all__ = [
    "ClientStack",
    "DEFAULT_PROCESSING_US",
    "DEFAULT_REPLY_BYTES",
    "DEFAULT_REQUEST_BYTES",
    "DEFAULT_STATE_BYTES",
    "Replica",
    "RunRecord",
    "ScenarioRun",
    "Testbed",
    "build_profile",
    "deploy_client",
    "deploy_replica",
    "deploy_replica_group",
    "run_adaptive_scenario",
    "run_fault_trial",
    "run_overhead_modes",
    "run_replicated_load",
    "run_rtt_breakdown",
]
