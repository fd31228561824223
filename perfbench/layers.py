"""Fold one cProfile run into per-layer numbers.

A layer is the owning module of a profiled function's file under
``src/repro/``.  Self-time of anything else (C built-ins, stdlib) is
charged to the layer of the function that called it, through the
pstats ``callers`` table; with no ``repro`` caller it goes to
``other``.
"""

from __future__ import annotations

import os
import pstats
from typing import Callable, Dict, Iterable, Optional, Tuple

LAYERS = ("sim.kernel", "sim.snapshot", "sim.rest", "net", "gcs", "orb",
          "interpose", "replication", "adaptation", "monitoring",
          "workload", "faults", "cluster", "campaign", "check", "journal",
          "telemetry", "slo", "experiments", "other")

_REPRO = os.sep + os.path.join("src", "repro") + os.sep

FuncKey = Tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """Layer owning ``filename``; ``None`` outside ``src/repro/``."""
    _, found, rest = filename.rpartition(_REPRO)
    if not found:
        return None
    package, _, module = rest.partition(os.sep)
    if package == "sim":
        leaf = os.path.splitext(module)[0]
        return f"sim.{leaf}" if leaf in ("kernel", "snapshot") \
            else "sim.rest"
    return package if package in LAYERS else "other"


def fold(stats: pstats.Stats) -> Tuple[Dict[str, float], Dict[str, int]]:
    """``(self-time seconds, python-level calls)`` per layer."""
    seconds = dict.fromkeys(LAYERS, 0.0)
    calls = dict.fromkeys(LAYERS, 0)
    for (filename, _, _), (_, n_calls, self_s, _, callers) \
            in stats.stats.items():
        layer = layer_of(filename)
        if layer is not None:
            seconds[layer] += self_s
            calls[layer] += n_calls
            continue
        charged = 0.0
        for (caller_file, _, _), (_, _, from_caller_s, _) in callers.items():
            seconds[layer_of(caller_file) or "other"] += from_caller_s
            charged += from_caller_s
        seconds["other"] += self_s - charged  # roots have no caller
    return seconds, calls


def key_of(function: Callable) -> FuncKey:
    """The pstats key of a Python function or method."""
    code = function.__code__
    return (code.co_filename, code.co_firstlineno, code.co_name)


def calls_and_seconds(stats: pstats.Stats,
                      keys: Iterable[FuncKey]) -> Tuple[int, float]:
    """Total calls and cumulative seconds of the given functions."""
    n_calls, cumulative_s = 0, 0.0
    for key in keys:
        entry = stats.stats.get(key)
        if entry is not None:
            n_calls += entry[1]
            cumulative_s += entry[3]
    return n_calls, cumulative_s
