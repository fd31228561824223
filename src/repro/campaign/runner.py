"""Campaign execution: fan trials out across a persistent worker pool.

The simulator is single-threaded Python, so the only real speed-up
for a campaign is *process-level* parallelism (DAVOS reaches the same
conclusion for its HDL simulators).  A fixed pool of worker processes
is forked once per campaign and fed *chunks* of trials over a pipe —
amortizing the fork/import cost that a process-per-trial design pays
on every single trial.  The guarantees are unchanged:

- **crash isolation** — a trial raising is caught inside the worker
  and shipped back as a ``failed`` record; a worker segfaulting or
  exiting kills only that worker, which is respawned, and only the
  trial it was running is marked ``failed``;
- **per-trial timeout** — workers announce each trial before running
  it, so a hung simulation becomes a ``timeout`` record (the worker
  is killed and replaced) instead of a hung campaign;
- **deterministic output** — per-trial seeds derive from the spec
  alone and records are written in expansion order, so a parallel run
  produces a byte-identical results file to a serial one;
- **resume** — trials already recorded ``ok`` in the store are
  skipped, DAVOS-checkpoint style.

``workers=1`` falls back to plain in-process execution (no fork, easy
debugging, same records).
"""

from __future__ import annotations

import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.campaign.dictionary import compile_load
from repro.campaign.results import ResultsStore, TrialRecord
from repro.campaign.spec import CampaignSpec, TrialSpec
from repro.errors import ConfigurationError

#: Generous per-trial wall-clock budget; campaigns of small simulated
#: windows finish trials in well under a second.
DEFAULT_TRIAL_TIMEOUT_S = 300.0

ProgressFn = Callable[[int, int, Optional[TrialRecord]], None]


def execute_trial(trial: TrialSpec,
                  telemetry: bool = False,
                  journal_dir: Optional[str] = None,
                  check: bool = False,
                  slo: bool = False) -> TrialRecord:
    """Run one trial in the current process and build its record.

    ``telemetry=True`` records spans during the trial and attaches the
    per-trial telemetry summary to the record's metrics; the default
    keeps records byte-identical to pre-telemetry campaigns.  With
    ``journal_dir`` set, the trial runs with the dependability journal
    on, writes ``<journal_dir>/<trial_id>.journal.jsonl`` and attaches
    the journal digest (availability, MTTR, fault matching) to the
    record's metrics.  ``check=True`` verifies the trial's operation
    history and protocol invariants (:mod:`repro.check`) and attaches
    the verdict.  ``slo=True`` evaluates the default SLO set
    (:mod:`repro.slo`) over the trial's journal and attaches the
    error-budget/alert verdict.
    """
    from repro.experiments.trial import run_fault_trial  # lazy: keeps
    # campaign importable without dragging the full stack in at startup

    trial.validate()
    window = dict(
        style=trial.replication_style, n_clients=trial.n_clients,
        duration_us=trial.duration_us, rate_per_s=trial.rate_per_s,
        seed=trial.seed, checkpoint_interval=trial.checkpoint_interval,
        deadline_us=trial.deadline_us, settle_us=trial.settle_us,
        telemetry=telemetry, journal=journal_dir is not None,
        check=check, slo=slo)
    if trial.n_shards > 1:
        from repro.cluster import run_cluster_trial
        result = run_cluster_trial(n_shards=trial.n_shards,
                                   fault_load=trial.fault_load, **window)
    else:
        result = run_fault_trial(
            n_replicas=trial.n_replicas,
            inject=lambda run: compile_load(trial.fault_load, run),
            **window)
    if journal_dir is not None:
        from repro.journal.io import write_jsonl
        os.makedirs(journal_dir, exist_ok=True)
        write_jsonl(result.journal.events,
                    os.path.join(journal_dir,
                                 f"{trial.trial_id}.journal.jsonl"))
    return TrialRecord(trial_id=trial.trial_id, status="ok",
                       spec=trial.to_dict(), metrics=result.metrics())


def _failure_record(trial: TrialSpec, status: str,
                    error: str) -> TrialRecord:
    return TrialRecord(trial_id=trial.trial_id, status=status,
                       spec=trial.to_dict(), error=error)


def _pool_worker(conn, telemetry: bool = False,
                 journal_dir: Optional[str] = None,
                 check: bool = False,
                 slo: bool = False) -> None:
    """Persistent worker-process loop: run chunks of trials until told
    to stop.

    Protocol (worker side): receive ``("chunk", [(index, trial_dict),
    ...])`` or ``("stop",)``; for every trial send ``("start", index)``
    before executing (arms the master's per-trial timeout) and
    ``("done", index, kind, payload)`` after, then ``("idle",)`` once
    the chunk drains.  A trial raising is shipped back as an error
    payload — the worker itself survives and keeps serving.
    """
    try:
        while True:
            try:
                command = conn.recv()
            except EOFError:
                break
            if command[0] != "chunk":
                break
            for index, trial_dict in command[1]:
                conn.send(("start", index))
                trial = TrialSpec.from_dict(trial_dict)
                try:
                    record = execute_trial(trial, telemetry=telemetry,
                                           journal_dir=journal_dir,
                                           check=check, slo=slo)
                    conn.send(("done", index, "ok", record.to_line()))
                except BaseException:  # noqa: BLE001 - isolation is the point
                    conn.send(("done", index, "error",
                               traceback.format_exc(limit=20)))
            conn.send(("idle",))
    finally:
        conn.close()


@dataclass
class CampaignSummary:
    """What a campaign run did."""

    total: int
    ran: int
    skipped: int
    failed: int
    elapsed_s: float
    records: List[TrialRecord] = field(default_factory=list)


@dataclass
class _PoolWorker:
    """Master-side book-keeping for one persistent pool worker."""

    process: multiprocessing.process.BaseProcess
    conn: object
    #: Chunk items handed to the worker and not yet reported done,
    #: keyed by expansion index (insertion order = execution order).
    assigned: "Dict[int, TrialSpec]" = field(default_factory=dict)
    #: Index of the trial the worker announced it is executing.
    current: Optional[int] = None
    #: Wall-clock start of the current trial (or chunk dispatch).
    started_at: float = 0.0
    #: True once the worker reported its chunk drained.
    idle: bool = True

    @property
    def busy(self) -> bool:
        return bool(self.assigned)


def _mp_context():
    """Fork where available (fast, Linux); spawn otherwise."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn")


def chunk_size(n_jobs: int, workers: int) -> int:
    """Jobs per dispatch to a pool of ``workers``: small enough to keep
    the pool balanced (about four chunks per worker), capped at 8 so a
    late straggler never sits behind a long private queue."""
    per_worker = -(-n_jobs // (workers * 4))
    return max(1, min(8, per_worker))


class CampaignRunner:
    """Executes one campaign against one results store."""

    def __init__(self, spec: CampaignSpec, store: ResultsStore,
                 workers: int = 1,
                 trial_timeout_s: float = DEFAULT_TRIAL_TIMEOUT_S,
                 progress: Optional[ProgressFn] = None,
                 telemetry: bool = False,
                 journal_dir: Optional[str] = None,
                 check: bool = False,
                 slo: bool = False):
        if workers < 1:
            raise ConfigurationError("workers must be >= 1")
        if trial_timeout_s <= 0:
            raise ConfigurationError("trial timeout must be positive")
        self.spec = spec
        self.store = store
        self.workers = workers
        self.trial_timeout_s = trial_timeout_s
        self.progress = progress
        self.telemetry = telemetry
        self.journal_dir = journal_dir
        self.check = check
        self.slo = slo

    def run(self) -> CampaignSummary:
        """Run every not-yet-completed trial; returns the summary."""
        started = time.monotonic()
        trials = self.spec.expand()
        done_ids = self.store.completed_ids()
        todo = [(i, t) for i, t in enumerate(trials)
                if t.trial_id not in done_ids]
        skipped = len(trials) - len(todo)

        if self.workers == 1:
            records = self._run_serial(todo, len(trials), skipped)
        else:
            records = self._run_parallel(todo, len(trials), skipped)

        return CampaignSummary(
            total=len(trials), ran=len(records), skipped=skipped,
            failed=sum(1 for r in records if not r.ok),
            elapsed_s=time.monotonic() - started, records=records)

    # ------------------------------------------------------------------
    # Serial path
    # ------------------------------------------------------------------
    def _run_serial(self, todo: List[Tuple[int, TrialSpec]],
                    total: int, skipped: int) -> List[TrialRecord]:
        records = []
        done = skipped
        for _, trial in todo:
            try:
                record = execute_trial(trial, telemetry=self.telemetry,
                                       journal_dir=self.journal_dir,
                                       check=self.check, slo=self.slo)
            except Exception:  # crash isolation, in-process flavour
                record = _failure_record(
                    trial, "failed", traceback.format_exc(limit=20))
            self.store.append(record)
            records.append(record)
            done += 1
            self._report(done, total, record)
        return records

    # ------------------------------------------------------------------
    # Parallel path
    # ------------------------------------------------------------------
    def _run_parallel(self, todo: List[Tuple[int, TrialSpec]],
                      total: int, skipped: int) -> List[TrialRecord]:
        ctx = _mp_context()
        pending = list(todo)
        finished: Dict[int, TrialRecord] = {}
        # Records are buffered and flushed in expansion order so the
        # store is byte-identical to a serial run's.
        write_queue = [index for index, _ in todo]
        next_write = 0
        done = skipped
        per_chunk = chunk_size(len(todo), self.workers)
        pool = [self._spawn(ctx)
                for _ in range(min(self.workers, len(todo)))]

        def flush() -> None:
            nonlocal next_write
            while (next_write < len(write_queue)
                   and write_queue[next_write] in finished):
                self.store.append(finished[write_queue[next_write]])
                next_write += 1

        def settle(record_pairs: List[Tuple[int, TrialRecord]]) -> None:
            nonlocal done
            for index, record in record_pairs:
                finished[index] = record
                flush()
                done += 1
                self._report(done, total, record)

        while pending or any(w.busy for w in pool):
            for worker in pool:
                if worker.idle and pending:
                    chunk, pending = pending[:per_chunk], pending[per_chunk:]
                    self._dispatch(worker, chunk)

            time.sleep(0.005)
            for slot, worker in enumerate(pool):
                records, replacement = self._collect(worker, ctx, pending)
                settle(records)
                if replacement is not None:
                    pool[slot] = replacement

        flush()
        for worker in pool:
            self._retire(worker)
        return [finished[index] for index, _ in todo]

    def _spawn(self, ctx) -> _PoolWorker:
        """Fork one persistent pool worker."""
        parent, child = ctx.Pipe(duplex=True)
        process = ctx.Process(
            target=_pool_worker,
            args=(child, self.telemetry, self.journal_dir, self.check,
                  self.slo),
            daemon=True)
        process.start()
        child.close()
        return _PoolWorker(process=process, conn=parent)

    @staticmethod
    def _dispatch(worker: _PoolWorker,
                  chunk: List[Tuple[int, TrialSpec]]) -> None:
        worker.assigned = {index: trial for index, trial in chunk}
        worker.current = None
        worker.idle = False
        worker.started_at = time.monotonic()
        worker.conn.send(("chunk",
                          [(index, trial.to_dict())
                           for index, trial in chunk]))

    def _collect(self, worker: _PoolWorker, ctx,
                 pending: List[Tuple[int, TrialSpec]],
                 ) -> Tuple[List[Tuple[int, TrialRecord]],
                            Optional[_PoolWorker]]:
        """One poll of a pool worker.

        Returns records produced this poll plus a replacement worker
        when this one had to be killed (timeout) or died underneath us
        (crash).  Unfinished chunk items of a dead worker go back onto
        ``pending`` — only the trial it was actually running is
        recorded as failed/timed out.
        """
        records: List[Tuple[int, TrialRecord]] = []
        if worker.conn.closed:
            return records, None
        while worker.conn.poll():
            try:
                message = worker.conn.recv()
            except EOFError:
                break
            if message[0] == "start":
                worker.current = message[1]
                worker.started_at = time.monotonic()
            elif message[0] == "done":
                _, index, kind, payload = message
                trial = worker.assigned.pop(index)
                worker.current = None
                if kind == "ok":
                    records.append((index, TrialRecord.from_line(payload)))
                else:
                    records.append((index, _failure_record(
                        trial, "failed", str(payload))))
            elif message[0] == "idle":
                worker.idle = True

        if not worker.busy:
            return records, None
        if not worker.process.is_alive():
            reason = (f"worker died "
                      f"(exit code {worker.process.exitcode})")
            records.extend(self._abandon(worker, "failed", reason, pending))
            return records, self._respawn(ctx, pending)
        if time.monotonic() - worker.started_at > self.trial_timeout_s:
            worker.process.terminate()
            reason = f"trial exceeded {self.trial_timeout_s:.0f}s"
            records.extend(self._abandon(worker, "timeout", reason, pending))
            return records, self._respawn(ctx, pending)
        return records, None

    def _abandon(self, worker: _PoolWorker, status: str, reason: str,
                 pending: List[Tuple[int, TrialSpec]],
                 ) -> List[Tuple[int, TrialRecord]]:
        """Tear down a dead/hung worker: fail the trial it was running,
        requeue the rest of its chunk, release its resources."""
        self._retire(worker)
        records = []
        for index, trial in worker.assigned.items():
            if index == worker.current or worker.current is None:
                records.append((index, _failure_record(
                    trial, status, reason)))
                worker.current = index  # requeue only what follows
            else:
                pending.append((index, trial))
        worker.assigned = {}
        return records

    def _respawn(self, ctx,
                 pending: List[Tuple[int, TrialSpec]],
                 ) -> Optional[_PoolWorker]:
        return self._spawn(ctx) if pending else None

    @staticmethod
    def _retire(worker: _PoolWorker) -> None:
        """Stop one pool worker (graceful if it is still listening)."""
        try:
            worker.conn.send(("stop",))
        except (BrokenPipeError, OSError):
            pass
        worker.process.join(timeout=5.0)
        if worker.process.is_alive():
            worker.process.terminate()
            worker.process.join(timeout=5.0)
        worker.conn.close()

    def _report(self, done: int, total: int,
                record: Optional[TrialRecord]) -> None:
        if self.progress is not None:
            self.progress(done, total, record)


def run_campaign(spec: CampaignSpec, store: ResultsStore,
                 workers: int = 1,
                 trial_timeout_s: float = DEFAULT_TRIAL_TIMEOUT_S,
                 progress: Optional[ProgressFn] = None,
                 telemetry: bool = False,
                 journal_dir: Optional[str] = None,
                 check: bool = False,
                 slo: bool = False) -> CampaignSummary:
    """Convenience wrapper around :class:`CampaignRunner`."""
    return CampaignRunner(spec, store, workers=workers,
                          trial_timeout_s=trial_timeout_s,
                          progress=progress, telemetry=telemetry,
                          journal_dir=journal_dir, check=check,
                          slo=slo).run()
