"""The white-box latency predictor (§3.3): Eq. (1)-(4) and Algorithm 1.

The predictor estimates the end-to-end latency of a workflow under a given
:class:`~repro.core.wrap.DeploymentPlan` without running it:

* Eq. (1): workflow latency = sum of stage latencies;
* Eq. (2): stage latency = slowest wrap, where wraps beyond the first pay
  the invocation overhead ``(k-1) * T_INV`` plus one RPC;
* Eq. (3): wrap latency = slowest process + pipe IPC pairs;
* Eq. (4): process latency = serialized fork block + interpreter startup +
  multi-thread execution time;
* Algorithm 1: the multi-thread execution time is obtained by *replaying*
  GIL switching over the profiled CPU/block periods — the main thread spawns
  a batch of threads per switch interval, the holder computes in at most
  interval-sized chunks, drops the lock on blocking I/O, and the next holder
  is the non-blocked thread with minimum accumulated CPU time.

For no-GIL runtimes (Java, Figure 18) and process pools (the -P variants)
the replay generalizes to a fluid fair-share schedule on ``cores`` cores
with bounded concurrency.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from operator import itemgetter
from typing import Callable, Dict, Optional, Sequence, Union

from repro.calibration import RuntimeCalibration
from repro.core.wrap import DeploymentPlan, ExecMode, StageAssignment
from repro.errors import DeploymentError
from repro.workflow.behavior import FunctionBehavior
from repro.workflow.model import Workflow

_EPS = 1e-9

#: every counter the incremental prediction engine increments (pinned by the
#: golden-trace schema, mirroring ``repro.overload.OVERLOAD_COUNTERS``)
PGP_COUNTERS = (
    "pgp.cache.hit",
    "pgp.cache.miss",
    "pgp.cache.invalidations",
    "pgp.evals.full",
    "pgp.evals.delta",
    "pgp.kl.swaps.evaluated",
    "pgp.kl.swaps.pruned",
)


class PredictionCache:
    """Content-addressed memo of per-stage / per-group predictions.

    Keys are ``(kind, calibration id, fingerprint)`` triples built from the
    canonical fingerprints of :mod:`repro.core.wrap`,
    :meth:`repro.workflow.behavior.FunctionBehavior.fingerprint` and
    :meth:`repro.calibration.RuntimeCalibration.fingerprint` — every input
    the prediction depends on is *in* the key, so a drifted behaviour, a
    re-sized cpuset or a different calibration can never alias a stale
    entry.  That is the whole invalidation story: entries are immutable
    facts, :meth:`invalidate` exists only to bound memory or reset counters.

    One cache may safely back several predictors (different calibrations,
    conservatisms or GIL-handoff policies included — the calibration id
    covers the replay policy, and conservatism scales only workflow totals,
    which are never cached).

    ``enabled=False`` keeps the counters ticking while every lookup misses
    and nothing is stored — the full-evaluation baseline the benchmark
    harness compares against.  ``verify=True`` recomputes every hit and
    raises :class:`~repro.errors.DeploymentError` on the slightest
    disagreement — the bit-identity guard used by tests and the CI perf
    smoke.
    """

    def __init__(self, *, capacity: int = 65536, enabled: bool = True,
                 verify: bool = False,
                 registry: Optional["Registry"] = None) -> None:
        if capacity < 1:
            raise DeploymentError(f"cache capacity must be >= 1, "
                                  f"got {capacity}")
        from repro.obs.metrics import Registry

        self.capacity = capacity
        self.enabled = enabled
        self.verify = verify
        self.metrics = registry if registry is not None else Registry()
        self._entries: "OrderedDict[tuple, float]" = OrderedDict()
        #: guards the whole lookup-compute-insert sequence — portfolio
        #: search arms share one cache across threads.  Holding the lock
        #: across ``compute`` keeps hit/miss/full-eval counters exact and
        #: schedule-independent (each key is computed exactly once), and
        #: costs nothing in practice: predictions are pure CPU-bound
        #: Python, so the GIL serializes concurrent computes anyway.
        #: Reentrant because stage computes recurse into group-level
        #: ``get_or_compute`` calls (stage -> group only, never cycles).
        self._lock = threading.RLock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def hits(self) -> int:
        return int(self.metrics.counter("pgp.cache.hit").value)

    @property
    def misses(self) -> int:
        return int(self.metrics.counter("pgp.cache.miss").value)

    @property
    def full_evals(self) -> int:
        return int(self.metrics.counter("pgp.evals.full").value)

    @property
    def delta_evals(self) -> int:
        return int(self.metrics.counter("pgp.evals.delta").value)

    def get_or_compute(self, key: tuple,
                       compute: Callable[[], float]) -> tuple[float, bool]:
        """Return ``(value, came_from_cache)`` for ``key``.

        A miss runs ``compute`` (one full Algorithm-1/Eq.-(2)-(4)
        evaluation, counted as ``pgp.evals.full``) and stores the result.
        """
        if not self.enabled:
            value = compute()
            self.metrics.inc("pgp.cache.miss")
            self.metrics.inc("pgp.evals.full")
            return value, False
        entries = self._entries
        with self._lock:
            value = entries.get(key)
            if value is not None:
                entries.move_to_end(key)
                self.metrics.inc("pgp.cache.hit")
                if self.verify:
                    fresh = compute()
                    if fresh != value:
                        raise DeploymentError(
                            f"prediction cache divergence: cached {value!r} "
                            f"!= recomputed {fresh!r} for key kind "
                            f"{key[0]!r} — cache keys are missing an input")
                return value, True
            value = compute()
            self.metrics.inc("pgp.cache.miss")
            self.metrics.inc("pgp.evals.full")
            entries[key] = value
            if len(entries) > self.capacity:
                entries.popitem(last=False)
            return value, False

    def invalidate(self) -> None:
        """Drop every entry (memory bound / explicit reset).

        Correctness never requires calling this — keys are content-
        addressed — so the only reasons are reclaiming memory or starting a
        fresh measurement window.
        """
        self._entries.clear()
        self.metrics.inc("pgp.cache.invalidations")


class _Th:
    """Mutable per-task state of the fluid fair-share replay over a
    behaviour's ``replay_segments``; with ``trace`` set, block spans are
    emitted into it at ``offset`` + replay time."""

    __slots__ = ("segs", "idx", "off", "cpu_time", "blocked_until", "done",
                 "name", "trace", "offset")

    def __init__(self, segs: tuple, *, name: str = "t", trace=None,
                 offset: float = 0.0):
        self.name = name
        self.trace = trace
        self.offset = offset
        self.segs = segs
        self.idx = 0
        self.off = 0.0
        self.cpu_time = 0.0
        self.blocked_until: Optional[float] = None
        self.done = not segs

    def absorb(self, now: float) -> None:
        """Advance through zero-CPU-left and completed-IO segments."""
        while not self.done:
            if self.idx >= len(self.segs):
                self.done = True
                return
            is_cpu, dur = self.segs[self.idx]
            remaining = dur - self.off
            if is_cpu:
                if remaining > _EPS:
                    return  # runnable
                self.idx += 1
                self.off = 0.0
            else:  # IO
                if self.blocked_until is None:
                    self.blocked_until = now + remaining
                    if self.trace is not None and remaining > _EPS:
                        self.trace.record(self.name, "block",
                                          self.offset + now,
                                          self.offset + self.blocked_until)
                    return  # just blocked
                if self.blocked_until <= now + _EPS:
                    self.idx += 1
                    self.off = 0.0
                    self.blocked_until = None
                    continue
                return  # still blocked

    @property
    def runnable(self) -> bool:
        return (not self.done and self.blocked_until is None
                and self.idx < len(self.segs) and self.segs[self.idx][0])


def _replay_gil(segs: Sequence[tuple], interval: float, spawn_cost: float,
                fifo: bool, trace, names: Sequence[str], t0: float) -> float:
    """Algorithm 1 as an event-driven replay over pre-scaled segments.

    Runnable threads wait in a heap keyed ``(cpu_time, spawn index)`` (line
    17's min-CPU-time hand-off, oldest thread first on ties), blocked ones
    in a heap keyed by release time.  A step releases the sleepers due at
    ``now`` once (an IO that blocks during the release waits for the next
    step, however short), absorbs the threads spawned last step, then runs
    the main thread or the top of the ready heap.
    """
    n = len(segs)
    idx = [0] * n      # each thread's current segment
    off = [0.0] * n    # CPU already run inside that segment
    cpu = [0.0] * n    # accumulated CPU time
    ready: list = []   # (cpu_time, i) of runnable threads
    sleep: list = []   # (blocked_until, i) of blocked threads
    fresh: list = []   # spawned, not yet absorbed
    spawned = 0
    main_cpu = 0.0
    now = 0.0

    def absorb(i: int, k: int, now: float) -> None:
        """Move thread ``i`` from segment ``k`` to runnable/blocked/done."""
        th_segs = segs[i]
        while k < len(th_segs):
            is_cpu, dur = th_segs[k]
            if not is_cpu:
                idx[i] = k
                until = now + dur
                heappush(sleep, (until, i))
                if trace is not None and dur > _EPS:
                    trace.record(names[i], "block", t0 + now, t0 + until)
                return
            if dur - off[i] > _EPS:
                idx[i] = k
                heappush(ready, (cpu[i], i))
                return
            off[i] = 0.0
            k += 1
        idx[i] = k

    while True:
        if sleep and sleep[0][0] <= now + _EPS:
            due = []
            while sleep and sleep[0][0] <= now + _EPS:
                due.append(heappop(sleep)[1])
            due.sort()  # spawn order, so trace spans keep their order
            for i in due:
                absorb(i, idx[i] + 1, now)
        if fresh:
            for i in fresh:
                absorb(i, 0, now)
            fresh.clear()
        if spawned < n and (not ready or main_cpu <= ready[0][0]):
            # Main-thread turn: start y functions in one interval
            # (Alg. 1 lines 4-5).
            if spawn_cost <= 0:
                fresh.extend(range(spawned, n))
                spawned = n
                continue
            batch = min(max(1, int(interval // spawn_cost)), n - spawned)
            if trace is not None:
                for b in range(batch):
                    trace.record(names[spawned + b], "startup",
                                 t0 + now + b * spawn_cost,
                                 t0 + now + (b + 1) * spawn_cost,
                                 op="thread.spawn")
            fresh.extend(range(spawned, spawned + batch))
            spawned += batch
            now += batch * spawn_cost
            main_cpu += batch * spawn_cost
            continue
        if not ready:
            if not sleep:
                return now  # all threads over (Alg. 1 lines 12-13)
            now = sleep[0][0]
            continue

        # Function turn (Alg. 1 lines 7-17): run continuously until the
        # switch interval elapses, a block op occurs, or the function
        # finishes.
        if fifo:  # ablation: oldest spawned runnable thread
            entry = min(ready, key=itemgetter(1))
            ready.remove(entry)
            heapify(ready)
        else:
            entry = heappop(ready)
        i = entry[1]
        th_segs = segs[i]
        k, o = idx[i], off[i]
        budget = interval
        ran = 0.0
        while budget > _EPS and k < len(th_segs):
            is_cpu, dur = th_segs[k]
            if not is_cpu:
                break  # block op: T_avl consumed, GIL dropped
            step = dur - o
            if budget < step:
                step = budget
            o += step
            ran += step
            budget -= step
            if o >= dur - _EPS:
                k += 1
                o = 0.0
        off[i] = o
        if trace is not None and ran > _EPS:
            trace.record(names[i], "exec", t0 + now, t0 + now + ran)
        now += ran
        cpu[i] = entry[0] + ran
        absorb(i, k, now)


class LatencyPredictor:
    """Predicts workflow latency for a deployment plan.

    ``conservatism`` inflates final predictions; PGP uses a value > 1 so the
    plans it accepts keep a margin below the SLO (§6.2: "Chiron adopts larger
    parameters to estimate the latency, avoiding performance violation").

    ``cache`` controls the incremental-prediction engine: ``None`` (default)
    attaches a fresh private :class:`PredictionCache`; pass an existing
    cache to share warmth across predictors, or ``False`` to force full
    evaluation on every call.  Cached and uncached predictions are
    bit-identical — traced predictions (``trace=...``) always take the full
    path, since a cache hit has no timeline to replay.
    """

    def __init__(self, cal: Optional[RuntimeCalibration] = None, *,
                 conservatism: float = 1.0,
                 gil_handoff: str = "cfs",
                 cache: Union[None, bool, PredictionCache] = None) -> None:
        self.cal = cal or RuntimeCalibration.native()
        if conservatism <= 0:
            raise DeploymentError("conservatism must be > 0")
        if gil_handoff not in ("cfs", "fifo"):
            raise DeploymentError(f"unknown gil_handoff {gil_handoff!r}")
        self.conservatism = conservatism
        #: how Algorithm 1 picks the next GIL holder: "cfs" (min CPU time,
        #: the paper's line 17) or "fifo" (arrival order; ablation).
        self.gil_handoff = gil_handoff
        if cache is None or cache is True:
            cache = PredictionCache()
        elif cache is False:
            cache = None
        self.cache: Optional[PredictionCache] = cache
        #: lazily built (calibration fingerprint, GIL policy) cache-key part
        self._cal_token: Optional[tuple] = None
        #: what every behaviour's replay segments depend on (see
        #: FunctionBehavior.replay_segments)
        self._seg_key = (self.cal.isolation_startup_ms,
                         1.0 + self.cal.exec_overhead_cpu,
                         1.0 + self.cal.exec_overhead_io)

    def _calibration_token(self) -> tuple:
        """The calibration id every cache key carries (frozen per instance:
        ``cal`` and ``gil_handoff`` are never mutated after construction)."""
        token = self._cal_token
        if token is None:
            token = self._cal_token = (self.cal.fingerprint(),
                                       self.gil_handoff)
        return token

    # ------------------------------------------------------------------
    # Algorithm 1: multi-thread execution under the GIL
    # ------------------------------------------------------------------
    def predict_multithread_exec(
            self, behaviors: Sequence[FunctionBehavior], *,
            include_spawn: bool = True, trace=None,
            names: Optional[Sequence[str]] = None,
            t0: float = 0.0) -> float:
        """Wall time for ``behaviors`` running as threads of one process.

        With ``trace`` set, the replay also emits each thread's simulated
        timeline (startup/exec/block spans, offset by ``t0``) — consumed by
        the divergence reporter to compare mechanisms side by side with the
        runtime's trace of the same plan.
        """
        if not behaviors:
            return 0.0
        cal = self.cal
        if not cal.has_gil:
            # True-parallel threads: fall back to the fluid schedule with one
            # core per thread available inside the process's cpuset share.
            return self.predict_parallel_exec(behaviors, cores=len(behaviors),
                                              trace=trace, names=names, t0=t0)
        if trace is not None and names is None:
            names = [f"t{i}" for i in range(len(behaviors))]
        return _replay_gil([b.replay_segments(self._seg_key)
                            for b in behaviors],
                           cal.gil_switch_interval_ms,
                           cal.thread_startup_ms if include_spawn else 0.0,
                           self.gil_handoff == "fifo", trace, names, t0)

    def predict_exec_canonical(
            self, behaviors: Sequence[FunctionBehavior]) -> float:
        """Algorithm-1 execution time of a *multiset* of behaviours, cached.

        PGP's Kernighan-Lin pass evaluates the same thread groups — up to
        permutation — thousands of times across swaps, stages, ``n``
        candidates and SLO sweeps.  The replay's outcome is treated as
        order-invariant by that search (equal-behaviour swaps must be
        no-ops), so behaviours are sorted into a canonical order *before*
        replaying: permutations share one cache entry, and cached vs.
        uncached evaluation run the exact same replay — bit-identical by
        construction.
        """
        if not behaviors:
            return 0.0
        ordered = sorted(behaviors, key=lambda b: b.fingerprint())
        if self.cache is None:
            return self.predict_multithread_exec(ordered)
        key = ("exec", self._calibration_token(),
               tuple(b.fingerprint() for b in ordered))
        value, _hit = self.cache.get_or_compute(
            key, lambda: self.predict_multithread_exec(ordered))
        return value

    # ------------------------------------------------------------------
    # Fluid fair-share schedule (no-GIL threads, process pools)
    # ------------------------------------------------------------------
    def predict_parallel_exec(
            self, behaviors: Sequence[FunctionBehavior], *, cores: float,
            max_concurrent: Optional[int] = None,
            start_offsets: Optional[Sequence[float]] = None,
            trace=None, names: Optional[Sequence[str]] = None,
            t0: float = 0.0) -> float:
        """Wall time for true-parallel tasks sharing ``cores`` cores.

        ``max_concurrent`` bounds simultaneously admitted tasks (pool
        workers); ``start_offsets`` stagger task arrivals (fork block /
        dispatch serialization).  ``trace`` captures the fluid replay's
        per-task timeline (see :meth:`predict_multithread_exec`).
        """
        if not behaviors:
            return 0.0
        if cores <= 0:
            raise DeploymentError(f"cores must be > 0, got {cores}")
        n = len(behaviors)
        offsets = list(start_offsets) if start_offsets is not None else [0.0] * n
        if len(offsets) != n:
            raise DeploymentError("start_offsets length mismatch")
        segs = [b.replay_segments(self._seg_key) for b in behaviors]
        if trace is None:  # hot path: PGP's search never traces
            tasks = [_Th(s) for s in segs]
        else:
            tasks = [_Th(s, name=(names[i] if names is not None else f"t{i}"),
                         trace=trace, offset=t0)
                     for i, s in enumerate(segs)]
        admitted: list[_Th] = []
        waiting = sorted(range(n), key=lambda i: (offsets[i], i))
        slots = max_concurrent if max_concurrent is not None else n
        now = 0.0

        def active_count() -> int:
            return sum(1 for t in admitted if not t.done)

        while True:
            # admit arrivals whose offset has passed and a slot is free
            while (waiting and offsets[waiting[0]] <= now + _EPS
                   and active_count() < slots):
                admitted.append(tasks[waiting.pop(0)])
            for t in admitted:
                t.absorb(now)
            running = [t for t in admitted if t.runnable]
            blocked = [t.blocked_until for t in admitted
                       if not t.done and t.blocked_until is not None]
            if not running:
                horizons = list(blocked)
                if waiting and active_count() < slots:
                    horizons.append(offsets[waiting[0]])
                if not horizons:
                    break  # everything finished
                now = max(now, min(horizons))
                continue
            rate = min(1.0, cores / len(running))
            horizon = min((t.segs[t.idx][1] - t.off) / rate for t in running)
            if blocked:
                horizon = min(horizon, min(blocked) - now)
            if waiting and active_count() < slots:
                horizon = min(horizon, offsets[waiting[0]] - now)
            horizon = max(horizon, _EPS)
            for t in running:
                t.off += horizon * rate
                t.cpu_time += horizon * rate
            now += horizon
        return now

    # ------------------------------------------------------------------
    # Eq. (4): one process of a wrap
    # ------------------------------------------------------------------
    def _exec_ordered(self, behaviors: Sequence[FunctionBehavior]) -> float:
        """Untraced Algorithm-1 replay memoized on the *ordered* behaviour
        fingerprints.

        Unlike :meth:`predict_exec_canonical` this never reorders — it
        returns exactly what :meth:`predict_multithread_exec` would, so the
        stage predictions composed from it stay bit-identical to uncached
        evaluation.  Repacking re-simulates the same process groups under
        every wrap-count cap; this memo collapses those replays to one.
        """
        if self.cache is None:
            return self.predict_multithread_exec(behaviors)
        key = ("exec-ordered", self._calibration_token(),
               tuple(b.fingerprint() for b in behaviors))
        value, _hit = self.cache.get_or_compute(
            key, lambda: self.predict_multithread_exec(behaviors))
        return value

    def predict_process(self, behaviors: Sequence[FunctionBehavior], *,
                        fork_position: int, trace=None,
                        names: Optional[Sequence[str]] = None,
                        proc_entity: Optional[str] = None,
                        t0: float = 0.0) -> float:
        """Latency of the ``fork_position``-th forked process (1-based).

        ``fork_position=0`` means the group runs as threads of the resident
        orchestrator process: no fork block, no interpreter startup.  With
        ``trace`` set, the fork wait and interpreter startup are recorded on
        ``proc_entity`` ahead of the thread replay's own spans.
        """
        cal = self.cal
        if fork_position <= 0:
            if trace is None:
                return self._exec_ordered(behaviors)
            return self.predict_multithread_exec(behaviors, trace=trace,
                                                 names=names, t0=t0)
        wait = (fork_position - 1) * cal.fork_block_ms
        if trace is not None:
            ent = proc_entity or f"proc-{fork_position - 1}"
            # One fork-syscall-sized span per child (mirrors the runtime's
            # per-child record, so mechanism totals align side to side).
            trace.record(ent, "fork", t0 + wait,
                         t0 + wait + cal.fork_block_ms, op="fork")
            trace.record(ent, "startup", t0 + wait,
                         t0 + wait + cal.process_startup_ms,
                         op="proc.startup")
        if trace is None:
            exec_ms = self._exec_ordered(behaviors)
        else:
            exec_ms = self.predict_multithread_exec(
                behaviors, trace=trace, names=names,
                t0=t0 + wait + cal.process_startup_ms)
        return wait + cal.process_startup_ms + exec_ms

    def _ipc_ms(self, assignment: StageAssignment,
                workflow: Workflow) -> float:
        """Eq. (3)'s IPC term, matching the runtime's ``ipc_collect``:
        ``t_ipc`` per interaction pair plus streaming every function's output
        through the pipe (paid even by a single process collecting results).
        """
        pairs = max(0, len(assignment.processes) - 1)
        if not pairs:
            return 0.0
        data_mb = sum(workflow.function(n).behavior.data_out_mb
                      for n in assignment.function_names)
        return (self.cal.t_ipc_ms * pairs
                + data_mb / self.cal.pipe_bandwidth_mb_per_ms)

    # ------------------------------------------------------------------
    # non-uniform CPU sharing within a wrap (§4 / Figure 7's motivation)
    # ------------------------------------------------------------------
    def predict_wrap_stage_shared(self, assignment: StageAssignment,
                                  workflow: Workflow, cores: float, *,
                                  trace=None,
                                  entity_prefix: Optional[str] = None,
                                  t0: float = 0.0) -> float:
        """Wrap-stage latency when its processes share ``cores`` CPUs.

        Each forked group is folded to one task (its Algorithm-1 execution
        replayed as a single thread-of-work) staggered by its fork position;
        a thread group becomes one task whose CPU demand is its Algorithm-1
        execution time.  The fluid schedule then spreads the tasks over the
        cpuset — the "combined true and pseudo-parallelism" of Observation 4
        that lets Chiron allocate fewer CPUs than processes.
        """
        cal = self.cal
        behaviors_of = lambda names: [workflow.function(n).behavior
                                      for n in names]
        prefix = entity_prefix or "wrap"
        tasks: list[FunctionBehavior] = []
        offsets: list[float] = []
        task_names: list[str] = []
        n_forked = len(assignment.forked_processes)
        fork_j = 0
        for proc in assignment.processes:
            # Folded groups lose per-function identity; name the task after
            # the group so divergence can still match singleton groups.
            task_names.append("+".join(proc.functions))
            group = behaviors_of(proc.functions)
            exec_ms = self._exec_ordered(group)
            io_ms = min(b.io_ms for b in group) if len(group) == 1 else 0.0
            # preserve the group's IO share so blocked time frees cores
            cpu_ms = max(exec_ms - io_ms, 0.0)
            if proc.mode is ExecMode.PROCESS:
                # interpreter startup is CPU work that competes inside the
                # shared cpuset, not free waiting
                cpu_ms += cal.process_startup_ms
            # predict_parallel_exec re-applies the calibration's isolation
            # execution overheads; exec_ms already includes them, so
            # pre-divide to avoid double counting.
            cpu_ms /= 1.0 + cal.exec_overhead_cpu
            io_ms /= 1.0 + cal.exec_overhead_io
            segs = ([("cpu", cpu_ms)] if io_ms <= 0
                    else [("cpu", cpu_ms), ("io", io_ms)])
            tasks.append(FunctionBehavior.of(*segs))
            if proc.mode is ExecMode.THREAD:
                offsets.append(n_forked * cal.fork_block_ms)
            else:
                fork_j += 1
                offsets.append((fork_j - 1) * cal.fork_block_ms)
        total = self.predict_parallel_exec(tasks, cores=cores,
                                           start_offsets=offsets,
                                           trace=trace, names=task_names,
                                           t0=t0)
        ipc_ms = self._ipc_ms(assignment, workflow)
        if trace is not None and ipc_ms > _EPS:
            trace.record(f"{prefix}-ipc-s{assignment.stage_index}", "ipc",
                         t0 + total, t0 + total + ipc_ms, op="ipc")
        return total + ipc_ms

    # ------------------------------------------------------------------
    # Eq. (3): one wrap within one stage
    # ------------------------------------------------------------------
    def predict_wrap_stage(self, assignment: StageAssignment,
                           workflow: Workflow, *, trace=None,
                           entity_prefix: Optional[str] = None,
                           t0: float = 0.0) -> float:
        """Latency of one wrap's share of a stage.

        Traced entities mirror the runtime's naming (``{wrap}-s{i}-{j}``
        fork children, ``{wrap}-ipc-s{i}`` pipes, plain function names for
        threads) so the divergence reporter can align the two timelines.
        """
        behaviors_of = lambda names: [workflow.function(n).behavior
                                      for n in names]
        prefix = entity_prefix or "wrap"
        n_forked = len(assignment.forked_processes)
        latencies = []
        fork_j = 0
        for proc in assignment.processes:
            if proc.mode is ExecMode.THREAD:
                # Orchestrator thread groups start after the orchestrator
                # finished issuing all forks (forks come first, Figure 9).
                start = n_forked * self.cal.fork_block_ms
                latencies.append(
                    start + self.predict_process(
                        behaviors_of(proc.functions), fork_position=0,
                        trace=trace, names=list(proc.functions),
                        t0=t0 + start))
            else:
                fork_j += 1
                latencies.append(self.predict_process(
                    behaviors_of(proc.functions), fork_position=fork_j,
                    trace=trace, names=list(proc.functions),
                    proc_entity=(
                        f"{prefix}-s{assignment.stage_index}-{fork_j - 1}"),
                    t0=t0))
        ipc_ms = self._ipc_ms(assignment, workflow)
        if trace is not None and ipc_ms > _EPS:
            trace.record(f"{prefix}-ipc-s{assignment.stage_index}", "ipc",
                         t0 + max(latencies), t0 + max(latencies) + ipc_ms,
                         op="ipc")
        return max(latencies) + ipc_ms

    def _predict_pool_stage(self, plan: DeploymentPlan, workflow: Workflow,
                            stage_index: int, *, trace=None,
                            t0: float = 0.0) -> float:
        """Pool-mode stage latency: dispatch stagger + bounded concurrency."""
        parts = plan.stage_wraps(stage_index)
        worst = 0.0
        for k, (wrap, sa) in enumerate(parts):
            names = list(sa.function_names)
            behaviors = [workflow.function(n).behavior for n in names]
            offsets = [i * self.cal.pool_dispatch_ms
                       for i in range(len(behaviors))]
            shift = (k * self.cal.t_inv_ms + self.cal.t_rpc_ms) if k else 0.0
            if trace is not None and k > 0:
                trace.record(wrap.name, "rpc",
                             t0 + k * self.cal.t_inv_ms, t0 + shift, op="rpc")
            if trace is not None:
                pd = self.cal.pool_dispatch_ms
                for i in range(len(behaviors)):
                    trace.record(f"{wrap.name}/orch/main", "startup",
                                 t0 + shift + i * pd,
                                 t0 + shift + (i + 1) * pd,
                                 op="pool.dispatch")
            t = self.predict_parallel_exec(
                behaviors, cores=plan.cores_for(wrap),
                max_concurrent=plan.pool_workers or None,
                start_offsets=offsets, trace=trace, names=names,
                t0=t0 + shift)
            worst = max(worst, t + shift)
        return worst

    # ------------------------------------------------------------------
    # Eq. (2): one stage
    # ------------------------------------------------------------------
    def _wrap_part_latency(self, plan: DeploymentPlan, wrap,
                           sa: StageAssignment, workflow: Workflow, *,
                           trace=None, t0: float = 0.0) -> float:
        """One wrap's stage latency, honouring its CPU allocation."""
        needed = (len(sa.forked_processes)
                  + (1 if sa.thread_groups else 0))
        cores = plan.cores_for(wrap)
        if cores < needed:
            return self.predict_wrap_stage_shared(
                sa, workflow, cores, trace=trace, entity_prefix=wrap.name,
                t0=t0)
        return self.predict_wrap_stage(sa, workflow, trace=trace,
                                       entity_prefix=wrap.name, t0=t0)

    def predict_stage(self, plan: DeploymentPlan, workflow: Workflow,
                      stage_index: int, *, trace=None,
                      t0: float = 0.0) -> float:
        """One stage's latency; memoized per stage fingerprint.

        Untraced predictions are served from the stage-level cache (stage
        latency is independent of ``t0`` — offsets only shift trace spans),
        so re-evaluating a plan after a single-stage edit — a KL swap, a
        repack, a cpuset shrink — re-simulates only the touched stage.
        """
        if trace is None and self.cache is not None:
            value, _hit = self._predict_stage_cached(plan, workflow,
                                                     stage_index)
            return value
        return self._predict_stage_full(plan, workflow, stage_index,
                                        trace=trace, t0=t0)

    def _predict_stage_cached(self, plan: DeploymentPlan, workflow: Workflow,
                              stage_index: int) -> tuple[float, bool]:
        key = ("stage", self._calibration_token(),
               plan.stage_fingerprint(stage_index, workflow))
        return self.cache.get_or_compute(
            key,
            lambda: self._predict_stage_full(plan, workflow, stage_index))

    def _predict_stage_full(self, plan: DeploymentPlan, workflow: Workflow,
                            stage_index: int, *, trace=None,
                            t0: float = 0.0) -> float:
        parts = plan.stage_wraps(stage_index)
        if not parts:
            raise DeploymentError(f"no wrap covers stage {stage_index}")
        if plan.pool_workers > 0:
            return self._predict_pool_stage(plan, workflow, stage_index,
                                            trace=trace, t0=t0)
        first = self._wrap_part_latency(plan, parts[0][0], parts[0][1],
                                        workflow, trace=trace, t0=t0)
        rest = 0.0
        for k, (wrap, sa) in enumerate(parts[1:], start=2):
            # Sibling wraps start after (k-1) async submissions plus the
            # gateway RPC; shifting their t0 by t_rpc up front is arithmetic-
            # ally the same as Eq. 2's "+ T_RPC after the max".
            shift = (k - 1) * self.cal.t_inv_ms + self.cal.t_rpc_ms
            if trace is not None:
                trace.record(wrap.name, "rpc",
                             t0 + (k - 1) * self.cal.t_inv_ms, t0 + shift,
                             op="rpc")
            t = (self._wrap_part_latency(plan, wrap, sa, workflow,
                                         trace=trace, t0=t0 + shift)
                 + shift)
            rest = max(rest, t)
        return max(first, rest)

    # ------------------------------------------------------------------
    # Eq. (1): the whole workflow
    # ------------------------------------------------------------------
    def predict_workflow(self, workflow: Workflow, plan: DeploymentPlan, *,
                         trace=None) -> float:
        """Eq. (1) total; with ``trace`` set, also emits the predicted
        timeline (stage k's spans offset by the latency of stages < k).

        The trace carries *raw* predicted times — ``conservatism`` scales
        only the returned total, so traced timelines stay comparable with
        the runtime's mechanism for mechanism.

        Untraced totals compose per-stage cached results: only stages whose
        fingerprint has never been seen are simulated, and a total that
        reused at least one cached stage counts as a *delta* evaluation
        (``pgp.evals.delta``).  The summation order matches the uncached
        loop exactly, so cached totals are bit-identical.
        """
        if trace is None and self.cache is not None:
            total = 0.0
            any_cached = False
            for i in range(len(workflow.stages)):
                value, hit = self._predict_stage_cached(plan, workflow, i)
                any_cached = any_cached or hit
                total += value
            if any_cached:
                self.cache.metrics.inc("pgp.evals.delta")
            return total * self.conservatism
        total = 0.0
        for i in range(len(workflow.stages)):
            total += self.predict_stage(plan, workflow, i, trace=trace,
                                        t0=total)
        return total * self.conservatism

    # ------------------------------------------------------------------
    # Cold-start-aware first-invocation prediction
    # ------------------------------------------------------------------
    def boot_waves(self, plan: DeploymentPlan, workflow: Workflow) -> int:
        """How many boot latencies a first invocation serializes.

        Chiron wraps boot lazily: a wrap starts its sandbox when its first
        stage begins, and sibling wraps of one stage boot *concurrently* —
        so the request pays one boot cost per distinct first-stage wave,
        not one per sandbox.
        """
        seen: set[str] = set()
        waves = 0
        for i in range(len(workflow.stages)):
            fresh = [wrap for wrap, _sa in plan.stage_wraps(i)
                     if wrap.name not in seen]
            if fresh:
                waves += 1
                seen.update(wrap.name for wrap in fresh)
        return waves

    def boot_penalty_ms(self, plan: DeploymentPlan, workflow: Workflow,
                        tier=None, *,
                        creating_snapshot: bool = False) -> float:
        """Added first-invocation latency when sandboxes boot via ``tier``
        (a :class:`repro.lifecycle.BootTier`; default cold).  Zero for
        warm/pool tiers — the waves cost nothing."""
        from repro.lifecycle.policy import BootTier, boot_cost_ms

        tier = BootTier.COLD if tier is None else tier
        per_wave = boot_cost_ms(tier, self.cal,
                                creating_snapshot=creating_snapshot)
        if per_wave <= 0.0:
            return 0.0
        return self.boot_waves(plan, workflow) * per_wave

    def predict_first_invocation(self, workflow: Workflow,
                                 plan: DeploymentPlan, *, tier=None,
                                 creating_snapshot: bool = False) -> float:
        """Eq. (1) plus the boot-tier penalty: what the *first* request of
        a fresh deployment experiences, so PGP can plan against an SLO
        that includes cold start."""
        return (self.predict_workflow(workflow, plan)
                + self.boot_penalty_ms(plan, workflow, tier,
                                       creating_snapshot=creating_snapshot))
