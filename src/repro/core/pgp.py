"""PGP: the Prediction-based Graph Partitioning scheduler (§3.4, Alg. 2).

Given a (profiled) workflow and a latency SLO, PGP decides

1. **how many processes** each stage runs (the minimum ``n`` whose predicted
   workflow latency meets the SLO — Alg. 2 lines 1-5);
2. **which functions share each process** (round-robin initialization refined
   by Kernighan-Lin function swapping that minimizes predicted latency —
   lines 8-11 and 18-25);
3. **how processes pack into wraps/sandboxes** (as few sandboxes as possible
   while the SLO still holds — lines 13-17).

Functions that conflict with others (runtime version or shared files, §3.4
end) are pinned to dedicated single-function wraps before partitioning.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from repro.calibration import RuntimeCalibration
from repro.core.predictor import LatencyPredictor
from repro.core.wrap import (
    DeploymentPlan,
    ExecMode,
    ProcessAssignment,
    StageAssignment,
    Wrap,
)
from repro.errors import SchedulingError
from repro.workflow.model import FunctionSpec, Workflow


@dataclass
class PGPOptions:
    """Tunable knobs (defaults reproduce the paper; others feed ablations)."""

    #: run the Kernighan-Lin swap refinement (lines 10-11); turning it off
    #: keeps the round-robin initial partition.
    kernighan_lin: bool = True
    #: let each wrap's first group run as orchestrator threads (no fork).
    #: ``True`` always, ``False`` never (every group forks), or
    #: ``"sequential-only"`` — only single-function stages ride the
    #: orchestrator, parallel groups always fork (the Chiron-M fairness
    #: configuration of §4).
    orchestrator_threads: object = True
    #: "incremental" scans n = 1,2,3,... (Alg. 2 line 3); "exponential" uses
    #: doubling + binary search (the parallelizable speed-up of §7).
    search: str = "exponential"
    #: raise instead of returning a best-effort plan when no n meets the SLO.
    strict: bool = False
    #: cap on functions per process.  ``1`` forces one process per parallel
    #: function — the Chiron-M configuration (§4: MPK threads for sequential
    #: functions, forked processes for parallel ones).
    max_threads_per_process: Optional[int] = None


def conflicted_functions(workflow: Workflow) -> set[str]:
    """Functions pinned to dedicated sandboxes (§3.4 end).

    Conflicts form a graph; pinning a greedy vertex cover (repeatedly
    pin the highest-degree endpoint) leaves the rest mutually
    compatible while isolating as few functions as possible — e.g. one
    ``python2`` function among ``python3`` peers is pinned alone rather
    than pinning the whole stage.  Module-level because the plan search
    (:mod:`repro.core.search`) relies on the same pinning to keep every
    move conflict-free by construction.
    """
    fns = workflow.functions
    edges = {(a.name, b.name)
             for a, b in itertools.combinations(fns, 2)
             if a.conflicts_with(b)}
    pinned: set[str] = set()
    while edges:
        degree: dict[str, int] = {}
        for a, b in edges:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        victim = max(sorted(degree), key=lambda n: degree[n])
        pinned.add(victim)
        edges = {(a, b) for a, b in edges if victim not in (a, b)}
    return pinned


class PGPScheduler:
    """Runs Algorithm 2 against a :class:`LatencyPredictor`."""

    def __init__(self, predictor: Optional[LatencyPredictor] = None, *,
                 options: Optional[PGPOptions] = None) -> None:
        self.predictor = predictor or LatencyPredictor(
            RuntimeCalibration.native(), conservatism=1.05)
        self.options = options or PGPOptions()
        #: :class:`repro.core.search.SearchResult` of the most recent
        #: ``schedule(search=...)`` call, ``None`` for plain KL runs.
        self.last_search = None

    # ------------------------------------------------------------------
    # public entry
    # ------------------------------------------------------------------
    def schedule(self, workflow: Workflow, slo_ms: float, *,
                 search=None, tracer=None) -> DeploymentPlan:
        """Produce a deployment plan meeting ``slo_ms`` with minimal CPUs.

        All prediction state lives in the predictor's content-addressed
        :class:`~repro.core.predictor.PredictionCache`, so warmth survives
        across ``schedule()`` calls: an SLO sweep over one workflow, or
        re-planning after partial drift, re-simulates only stages and
        thread groups whose fingerprints actually changed.

        ``search`` enables anytime refinement of the greedy KL plan:
        ``"sa"``/``"portfolio"`` or a :class:`repro.core.search.SearchOptions`
        anneal from the KL seed — the seed's per-stage predictions are
        served back from the shared cache, never recomputed — and the
        refined plan is returned (details in :attr:`last_search`).
        """
        self.last_search = None
        plan = self._schedule_kl(workflow, slo_ms)
        from repro.core.search import SearchOptions, refine_plan

        opts = SearchOptions.coerce(search)
        if opts is None:
            return plan
        result = refine_plan(workflow, plan, slo_ms, self.predictor, opts,
                             tracer=tracer)
        self.last_search = result
        return result.plan

    def _schedule_kl(self, workflow: Workflow,
                     slo_ms: float) -> DeploymentPlan:
        """Algorithm 2 proper: minimal-n scan + KL swaps + wrap repacking."""
        if slo_ms <= 0:
            raise SchedulingError(f"SLO must be > 0, got {slo_ms}")
        conflicted = conflicted_functions(workflow)
        max_n = max(
            (len([f for f in st if f.name not in conflicted])
             for st in workflow.stages),
            default=0)
        max_n = max(max_n, 1)

        evaluated: Dict[int, tuple[dict, DeploymentPlan]] = {}

        def evaluate(n: int) -> DeploymentPlan:
            if n not in evaluated:
                partitions = self._partition_all_stages(workflow, n, conflicted)
                plan = self._build_plan(workflow, partitions, conflicted,
                                        wraps_per_stage=None, slo_ms=slo_ms)
                predicted = self.predictor.predict_workflow(workflow, plan)
                evaluated[n] = (partitions, self._with_prediction(plan, predicted))
            return evaluated[n][1]

        chosen_n = self._search_minimal_n(evaluate, max_n, slo_ms)
        if chosen_n is None:
            best_n = min(evaluated,
                         key=lambda n: (evaluated[n][1].predicted_latency_ms
                                        or float("inf")))
            if self.options.strict:
                raise SchedulingError(
                    f"no partition of {workflow.name!r} meets "
                    f"SLO={slo_ms} ms (best prediction "
                    f"{evaluated[best_n][1].predicted_latency_ms:.1f} ms)")
            # Best-effort / performance-first mode: no n satisfies the SLO,
            # so return the latency-minimal deployment — including a
            # latency-oriented wrap regrouping of the best partition.
            return self._repack_min_latency(workflow, evaluated[best_n][0],
                                            conflicted, slo_ms,
                                            fallback=evaluated[best_n][1])

        # lines 13-17: repack processes into as few wraps as possible.
        partitions, _ = evaluated[chosen_n]
        return self._repack(workflow, partitions, conflicted, slo_ms)

    def trim_cores(self, workflow: Workflow, plan: DeploymentPlan,
                   slo_ms: float) -> DeploymentPlan:
        """Shrink per-wrap cpusets while the SLO still holds (§4, Obs. 4).

        Wraps default to one CPU per concurrent process; the combined
        true/pseudo parallelism lets processes share CPUs at a small latency
        cost (Figure 7), so we greedily drop cores wrap by wrap as long as
        the predicted workflow latency stays within the SLO.
        """
        cores = {w.name: plan.cores_for(w) for w in plan.wraps}

        def rebuilt() -> DeploymentPlan:
            return DeploymentPlan(
                workflow_name=plan.workflow_name, wraps=plan.wraps,
                cores=dict(cores), pool_workers=plan.pool_workers,
                predicted_latency_ms=None, slo_ms=slo_ms)

        current = self.predictor.predict_workflow(workflow, rebuilt())
        if current > slo_ms:
            return self._with_prediction(rebuilt(), current)
        improved = True
        while improved:
            improved = False
            for wrap in plan.wraps:
                if cores[wrap.name] <= 1:
                    continue
                cores[wrap.name] -= 1
                predicted = self.predictor.predict_workflow(workflow,
                                                            rebuilt())
                if predicted <= slo_ms:
                    current = predicted
                    improved = True
                else:
                    cores[wrap.name] += 1
        return self._with_prediction(rebuilt(), current)

    def schedule_pool(self, workflow: Workflow, slo_ms: float, *,
                      workers: Optional[int] = None) -> DeploymentPlan:
        """Chiron-P: one pool-backed wrap; find the minimal cpuset (§4).

        All functions deploy into a single sandbox whose pre-forked pool
        gives true parallelism; Chiron shares CPUs between workers via
        affinity, so the knob PGP turns is the number of cores.
        """
        if slo_ms <= 0:
            raise SchedulingError(f"SLO must be > 0, got {slo_ms}")
        workers = workers or workflow.max_parallelism
        wrap = Wrap(name="wrap-pool", stages=tuple(
            StageAssignment(
                stage_index=i,
                processes=(ProcessAssignment(
                    functions=tuple(f.name for f in stage),
                    mode=ExecMode.POOL),))
            for i, stage in enumerate(workflow.stages)))
        best: Optional[DeploymentPlan] = None
        for cores in range(1, workers + 1):
            plan = DeploymentPlan(
                workflow_name=workflow.name, wraps=(wrap,),
                cores={wrap.name: cores}, pool_workers=workers,
                slo_ms=slo_ms)
            predicted = self.predictor.predict_workflow(workflow, plan)
            plan = self._with_prediction(plan, predicted)
            if best is None or predicted < (best.predicted_latency_ms
                                            or float("inf")):
                best = plan
            if predicted <= slo_ms:
                return plan
        assert best is not None
        if self.options.strict:
            raise SchedulingError(
                f"pool plan cannot meet SLO={slo_ms} ms "
                f"(best {best.predicted_latency_ms:.1f} ms)")
        return best

    # ------------------------------------------------------------------
    # n-search (Alg. 2 lines 1-5; exponential variant per §7's speed-up)
    # ------------------------------------------------------------------
    def _search_minimal_n(self, evaluate, max_n: int,
                          slo_ms: float) -> Optional[int]:
        def ok(n: int) -> bool:
            plan = evaluate(n)
            return (plan.predicted_latency_ms or float("inf")) <= slo_ms

        if self.options.search == "incremental":
            for n in range(1, max_n + 1):
                if ok(n):
                    return n
            return None
        if self.options.search != "exponential":
            raise SchedulingError(f"unknown search {self.options.search!r}")
        # Doubling probe for the first satisfying power of two...
        n = 1
        prev = 0
        while n < max_n and not ok(n):
            prev = n
            n *= 2
        n = min(n, max_n)
        if not ok(n):
            return None
        # ... then binary refinement in (prev, n]: latency is non-increasing
        # in n for the workloads we target, so this finds the minimum probed
        # satisfying n.
        lo, hi = prev + 1, n
        while lo < hi:
            mid = (lo + hi) // 2
            if ok(mid):
                hi = mid
            else:
                lo = mid + 1
        return hi

    # ------------------------------------------------------------------
    # conflicts (§3.4 end)
    # ------------------------------------------------------------------
    #: kept as a static alias; the implementation moved to module level so
    #: the plan search shares the exact pinning.
    _conflicted_functions = staticmethod(conflicted_functions)

    # ------------------------------------------------------------------
    # partitioning (lines 8-11)
    # ------------------------------------------------------------------
    def _exec_prediction(self, workflow: Workflow,
                         names: Sequence[str]) -> float:
        # Keyed on the *behaviour multiset* by the predictor's cache:
        # permutations and equal-behaviour swaps (ubiquitous in fan-out
        # stages) share one entry, and warmth persists across schedule()
        # calls and SLO sweeps.
        behaviors = [workflow.function(n).behavior for n in names]
        return self.predictor.predict_exec_canonical(behaviors)

    def _partition_stage(self, workflow: Workflow,
                         names: list[str], n: int) -> list[list[str]]:
        """Split one stage's functions into <= n process sets."""
        k = min(n, len(names))
        if self.options.max_threads_per_process is not None and names:
            import math as _math
            k = max(k, _math.ceil(len(names)
                                  / self.options.max_threads_per_process))
            k = min(k, len(names))
        if k <= 0:
            return []
        parts = [names[j::k] for j in range(k)]  # line 9's round-robin init
        if self.options.kernighan_lin and k > 1:
            # Every KL pass of this stage ranks and bounds by the same
            # behaviour sums: take them once, over this stage only.
            behaviors = [workflow.function(f).behavior for f in names]
            solo = {f: b.solo_ms for f, b in zip(names, behaviors)}
            cpu = {f: b.cpu_ms for f, b in zip(names, behaviors)}
            for i, j in itertools.combinations(range(k), 2):
                parts[i], parts[j] = self._kernighan_lin(
                    workflow, parts[i], parts[j], solo, cpu)
        return parts

    def _partition_all_stages(self, workflow: Workflow, n: int,
                              conflicted: set[str]) -> dict[int, list[list[str]]]:
        partitions: dict[int, list[list[str]]] = {}
        for i, stage in enumerate(workflow.stages):
            names = [f.name for f in stage if f.name not in conflicted]
            partitions[i] = self._partition_stage(workflow, names, n)
        return partitions

    def _pair_objective(self, workflow: Workflow, a: Sequence[str],
                        b: Sequence[str]) -> float:
        """Latency contribution of two processes: the slower of the two.

        Fork positions are unaffected by swapping functions between two
        fixed processes, so the pairwise objective reduces to the max of the
        Algorithm-1 execution predictions.
        """
        ea = self._exec_prediction(workflow, a) if a else 0.0
        eb = self._exec_prediction(workflow, b) if b else 0.0
        return max(ea, eb)

    #: swap gains below max(absolute, relative * objective) are treated as
    #: noise and terminate the KL pass — profiled behaviours carry jitter
    #: that would otherwise make KL chase irrelevant sub-0.1 ms swaps.
    _KL_MIN_GAIN_ABS_MS = 0.05
    _KL_MIN_GAIN_REL = 1e-3
    #: per pick, only the top-K longest functions of the heavier set and the
    #: top-K shortest of the lighter set are considered: under the
    #: max-of-two-processes objective, the best swap always moves work off
    #: the heavier process, so the search space prunes safely.
    _KL_CANDIDATE_WINDOW = 6

    def _kernighan_lin(self, workflow: Workflow, a: list[str],
                       b: list[str], solo: dict[str, float],
                       cpu: dict[str, float]
                       ) -> tuple[list[str], list[str]]:
        """Lines 18-25: greedy swap sequence, then apply the best prefix.

        Candidate swaps are pruned against an optimistic lower bound before
        paying for an Algorithm-1 replay: under the GIL every CPU
        millisecond serializes, so a process's *unscaled* CPU sum bounds its
        execution prediction from below (execution overheads and isolation
        startup only add).  A swap whose bound already exceeds the incumbent
        best objective cannot win and is skipped — the chosen swap sequence
        is unchanged, so plans stay bit-identical with pruning on or off.
        ``solo`` and ``cpu`` map every function of ``a`` and ``b`` to its
        solo latency and CPU sum.
        """
        cal = self.predictor.cal
        can_prune = (cal.has_gil and cal.exec_overhead_cpu >= 0
                     and cal.isolation_startup_ms >= 0)
        metrics = (self.predictor.cache.metrics
                   if self.predictor.cache is not None else None)
        c_eval = (metrics.counter("pgp.kl.swaps.evaluated")
                  if metrics is not None else None)
        c_pruned = (metrics.counter("pgp.kl.swaps.pruned")
                    if metrics is not None else None)
        work_a, work_b = list(a), list(b)
        cand_a, cand_b = list(a), list(b)
        swaps: list[tuple[str, str]] = []
        gains: list[float] = []
        current = self._pair_objective(workflow, work_a, work_b)
        window = self._KL_CANDIDATE_WINDOW
        while cand_a and cand_b:
            # Heavier set donates long functions, lighter set donates short
            # ones; restrict to a window of each when the sets are large.
            ea = self._exec_prediction(workflow, work_a)
            eb = self._exec_prediction(workflow, work_b)
            heavy_first = ea >= eb
            xs = sorted(cand_a, key=lambda f: solo[f], reverse=heavy_first)
            ys = sorted(cand_b, key=lambda f: solo[f], reverse=not heavy_first)
            xs, ys = xs[:window], ys[:window]
            if can_prune:
                cpu_a = sum(cpu[f] for f in work_a)
                cpu_b = sum(cpu[f] for f in work_b)
            best: Optional[tuple[float, str, str]] = None
            for x in xs:
                for y in ys:
                    if can_prune and best is not None:
                        lb = max(cpu_a - cpu[x] + cpu[y],
                                 cpu_b - cpu[y] + cpu[x])
                        if lb >= best[0] + 1e-9:
                            if c_pruned is not None:
                                c_pruned.inc()
                            continue
                    if c_eval is not None:
                        c_eval.inc()
                    na = [f if f != x else y for f in work_a]
                    nb = [f if f != y else x for f in work_b]
                    obj = self._pair_objective(workflow, na, nb)
                    if best is None or obj < best[0]:
                        best = (obj, x, y)
            assert best is not None
            obj, x, y = best
            threshold = max(self._KL_MIN_GAIN_ABS_MS,
                            self._KL_MIN_GAIN_REL * current)
            if obj >= current - threshold:
                # No materially improving swap remains; with prefix-gain
                # selection a non-improving head swap can never enter the
                # applied prefix, so end the pass.
                break
            gains.append(current - obj)        # line 22
            swaps.append((x, y))
            work_a = [f if f != x else y for f in work_a]
            work_b = [f if f != y else x for f in work_b]
            current = obj
            cand_a.remove(x)
            cand_b.remove(y)
        # line 24: the prefix with the largest cumulative gain
        best_k, best_sum, run = 0, 0.0, 0.0
        for k, g in enumerate(gains, start=1):
            run += g
            if run > best_sum + 1e-12:
                best_sum, best_k = run, k
        out_a, out_b = list(a), list(b)
        for x, y in swaps[:best_k]:
            out_a = [f if f != x else y for f in out_a]
            out_b = [f if f != y else x for f in out_b]
        return out_a, out_b

    # ------------------------------------------------------------------
    # plan construction
    # ------------------------------------------------------------------
    def _initial_wraps_per_stage(self, k: int) -> int:
        """Line 7: wrap 1 holds ``min(floor(T_RPC / T_block), k)`` processes,
        every further process gets its own wrap."""
        cal = self.predictor.cal
        first = max(1, min(int(cal.t_rpc_ms // cal.fork_block_ms), k))
        return 1 + max(0, k - first)

    def _build_plan(self, workflow: Workflow,
                    partitions: dict[int, list[list[str]]],
                    conflicted: set[str],
                    wraps_per_stage: Optional[dict[int, int]],
                    slo_ms: Optional[float],
                    validate: bool = True) -> DeploymentPlan:
        """Materialize wraps from per-stage partitions.

        ``wraps_per_stage`` gives each stage's wrap count; ``None`` uses the
        line-7 initial grouping.
        """
        per_stage: dict[int, int] = {}
        for i, parts in partitions.items():
            k = len(parts)
            if k == 0:
                continue
            if wraps_per_stage is not None:
                per_stage[i] = max(1, min(wraps_per_stage.get(i, 1), k))
            else:
                per_stage[i] = self._initial_wraps_per_stage(k)
        total_wraps = max(per_stage.values(), default=1)

        stage_assignments: dict[int, dict[int, list[ProcessAssignment]]] = {}
        for i, parts in partitions.items():
            if not parts:
                continue
            w = per_stage[i]
            buckets: list[list[list[str]]] = [[] for _ in range(w)]
            if wraps_per_stage is None:
                # line 7 shape: first wrap takes the head chunk, the rest one
                # process each.
                head = len(parts) - (w - 1)
                buckets[0] = parts[:head]
                for j, proc in enumerate(parts[head:], start=1):
                    buckets[j] = [proc]
            else:
                for j, proc in enumerate(parts):
                    buckets[j % w].append(proc)
            ot = self.options.orchestrator_threads
            stage_is_sequential = len(workflow.stages[i]) == 1
            allow_thread = (ot is True
                            or (ot == "sequential-only" and stage_is_sequential))
            for wrap_idx, procs in enumerate(buckets):
                if not procs:
                    continue
                assignments = []
                for p_idx, fn_names in enumerate(procs):
                    thread_ok = allow_thread and p_idx == 0
                    assignments.append(ProcessAssignment(
                        functions=tuple(fn_names),
                        mode=ExecMode.THREAD if thread_ok else ExecMode.PROCESS))
                stage_assignments.setdefault(wrap_idx, {})[i] = assignments

        wraps: list[Wrap] = []
        for wrap_idx in range(total_wraps):
            stages = stage_assignments.get(wrap_idx)
            if not stages and wrap_idx > 0:
                continue
            wraps.append(Wrap(
                name=f"wrap-{wrap_idx + 1}",
                stages=tuple(StageAssignment(stage_index=i,
                                             processes=tuple(procs))
                             for i, procs in sorted((stages or {}).items()))))
        if wraps and not wraps[0].stages:
            wraps = wraps[1:]

        # dedicated wraps for conflicted functions (one function, own sandbox)
        for name in sorted(conflicted):
            stage_idx = next(i for i, st in enumerate(workflow.stages)
                             if any(f.name == name for f in st))
            wraps.append(Wrap(
                name=f"wrap-solo-{name}",
                stages=(StageAssignment(
                    stage_index=stage_idx,
                    processes=(ProcessAssignment(
                        functions=(name,), mode=ExecMode.THREAD),)),)))
        if not wraps:
            raise SchedulingError(f"nothing to deploy for {workflow.name!r}")

        cores = {w.name: w.max_concurrent_processes for w in wraps}
        plan = DeploymentPlan(workflow_name=workflow.name,
                              wraps=tuple(wraps), cores=cores,
                              slo_ms=slo_ms)
        if validate:
            plan.validate(workflow)
        return plan

    @staticmethod
    def _with_prediction(plan: DeploymentPlan,
                         predicted: float) -> DeploymentPlan:
        return DeploymentPlan(workflow_name=plan.workflow_name,
                              wraps=plan.wraps, cores=plan.cores,
                              pool_workers=plan.pool_workers,
                              predicted_latency_ms=predicted,
                              slo_ms=plan.slo_ms)

    # ------------------------------------------------------------------
    # repacking (lines 13-17)
    # ------------------------------------------------------------------
    def _repack(self, workflow: Workflow,
                partitions: dict[int, list[list[str]]],
                conflicted: set[str], slo_ms: float) -> DeploymentPlan:
        """Minimize the sandbox count W, then per-stage wrap counts <= W."""
        max_k = max((len(p) for p in partitions.values() if p), default=1)
        best: Optional[DeploymentPlan] = None
        for w_cap in range(1, max_k + 1):
            per_stage = self._best_wraps_under_cap(workflow, partitions,
                                                   conflicted, w_cap, slo_ms)
            plan = self._build_plan(workflow, partitions, conflicted,
                                    wraps_per_stage=per_stage, slo_ms=slo_ms)
            predicted = self.predictor.predict_workflow(workflow, plan)
            plan = self._with_prediction(plan, predicted)
            if best is None or predicted < (best.predicted_latency_ms
                                            or float("inf")):
                best = plan
            if predicted <= slo_ms:
                return plan
        assert best is not None
        return best  # SLO regression during packing: fall back to best seen

    def _repack_min_latency(self, workflow: Workflow,
                            partitions: dict[int, list[list[str]]],
                            conflicted: set[str], slo_ms: float,
                            fallback: DeploymentPlan) -> DeploymentPlan:
        """Regroup processes into wraps minimizing *predicted latency*.

        Used when the SLO is unsatisfiable (performance-first mode): for
        each sandbox-count cap the per-stage wrap counts are chosen for
        minimum stage latency, and the overall latency-minimal plan wins.
        """
        max_k = max((len(p) for p in partitions.values() if p), default=1)
        best = fallback
        for w_cap in range(1, max_k + 1):
            per_stage = self._best_wraps_under_cap(workflow, partitions,
                                                   conflicted, w_cap, slo_ms)
            plan = self._build_plan(workflow, partitions, conflicted,
                                    wraps_per_stage=per_stage, slo_ms=slo_ms)
            predicted = self.predictor.predict_workflow(workflow, plan)
            if predicted < (best.predicted_latency_ms or float("inf")):
                best = self._with_prediction(plan, predicted)
        return best

    def _best_wraps_under_cap(self, workflow: Workflow,
                              partitions: dict[int, list[list[str]]],
                              conflicted: set[str], w_cap: int,
                              slo_ms: float) -> dict[int, int]:
        """For each stage, the wrap count <= w_cap minimizing its latency."""
        out: dict[int, int] = {}
        for i, parts in partitions.items():
            if not parts:
                continue
            k = len(parts)
            best_w, best_t = 1, float("inf")
            for w in range(1, min(w_cap, k) + 1):
                plan = self._build_plan(workflow, {i: parts}, set(),
                                        wraps_per_stage={i: w}, slo_ms=slo_ms,
                                        validate=False)
                t = self.predictor.predict_stage(plan, workflow, i)
                if t < best_t - 1e-9:
                    best_w, best_t = w, t
            out[i] = best_w
        return out
