"""Wing–Gong linearizability checker for single-object histories.

Given the client-observed history of one replicated object and a
sequential specification, the checker searches for a *linearization*:
a total order of the operations that (a) respects real time — an
operation that completed before another was invoked must precede
it — and (b) makes every observed return value equal the value the
sequential spec produces at that point in the order.

Pending operations (no observed reply: the client crashed or gave
up) may take effect at any point after their invocation *or never* —
both must be explored, because a primary may have executed a request
whose reply was lost.

The search is the classic Wing–Gong enumeration with memoization on
``(state, remaining-operations)``; histories larger than
``max_operations`` are reported as *skipped* rather than silently
truncated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.check.history import Operation


class CounterSpec:
    """Sequential spec of :class:`repro.orb.CounterServant`:
    ``add(x)`` returns the post-increment value, any other operation
    (``read``) returns the current value unchanged."""

    initial_state = 0

    def apply(self, state: int, op: Operation) -> Tuple[int, int]:
        """Return ``(next_state, expected_return)`` for ``op``."""
        if op.operation == "add":
            next_state = state + int(op.payload)
            return next_state, next_state
        return state, state


class IncrementSpec:
    """Sequential spec of :class:`repro.orb.BusyServant`: *every*
    operation increments the request counter and returns it."""

    initial_state = 0

    def apply(self, state: int, op: Operation) -> Tuple[int, int]:
        """Return ``(next_state, expected_return)`` for ``op``."""
        next_state = state + 1
        return next_state, next_state


@dataclass
class LinearizabilityResult:
    """Outcome of one linearizability check."""

    ok: bool
    skipped: bool = False
    reason: str = ""
    #: A witness order of op ids when ``ok`` (completed operations
    #: plus any pending ones the witness takes effect for).
    linearization: Tuple[str, ...] = ()
    #: On failure: operations whose return value no explored order
    #: could explain (the deepest-blocked frontier).
    blocked_ops: Tuple[str, ...] = ()
    configurations_explored: int = 0


def check_linearizability(operations: Sequence[Operation], spec,
                          max_operations: int = 400
                          ) -> LinearizabilityResult:
    """Check one single-object history against a sequential spec.

    ``spec`` provides ``initial_state`` (hashable) and
    ``apply(state, op) -> (next_state, expected_return)``.
    """
    ops: List[Operation] = list(operations)
    completed_ids = frozenset(op.op_id for op in ops if not op.pending)
    if len(ops) > max_operations:
        return LinearizabilityResult(
            ok=True, skipped=True,
            reason=f"history has {len(ops)} operations "
                   f"(> max_operations={max_operations}); not checked")
    by_id: Dict[str, Operation] = {op.op_id: op for op in ops}

    Config = Tuple[object, FrozenSet[str]]
    initial: Config = (spec.initial_state, frozenset(by_id))
    visited = {initial}
    parents: Dict[Config, Tuple[Config, str]] = {}
    stack: List[Config] = [initial]
    explored = 0
    best_frontier: FrozenSet[str] = completed_ids

    while stack:
        state, remaining = stack.pop()
        explored += 1
        remaining_completed = remaining & completed_ids
        if len(remaining_completed) < len(best_frontier):
            best_frontier = remaining_completed
        if not remaining_completed:
            # Every observed return is explained; any still-remaining
            # pending operations simply never took effect.
            order: List[str] = []
            config: Config = (state, remaining)
            while config in parents:
                config, op_id = parents[config]
                order.append(op_id)
            order.reverse()
            return LinearizabilityResult(
                ok=True, linearization=tuple(order),
                configurations_explored=explored)
        # Real-time bound: an operation may be linearized next only if
        # no *other remaining completed* operation finished before it
        # was invoked.
        min_completion = min(by_id[op_id].completed_at
                             for op_id in remaining_completed)
        for op_id in remaining:
            op = by_id[op_id]
            if op.invoked_at > min_completion:
                continue
            next_state, expected = spec.apply(state, op)
            if not op.pending and op.result != expected:
                continue  # this order cannot explain the return value
            successor: Config = (next_state, remaining - {op_id})
            if successor in visited:
                continue
            visited.add(successor)
            parents[successor] = ((state, remaining), op_id)
            stack.append(successor)

    return LinearizabilityResult(
        ok=False,
        reason="no operation order explains the observed returns",
        blocked_ops=tuple(sorted(best_frontier)),
        configurations_explored=explored)
