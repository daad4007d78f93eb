"""The three user paths of the Chiron pipeline, as benchmark phases.

* :class:`PlanPhase` — a fresh ``ChironManager`` deploys one catalog
  workflow at 1.5x and 2.0x its critical path with SA plan search, then
  runs a blind ``refresh()`` (the periodic re-profile and re-plan) of both
  deployments; the passes take two search seeds in turn.
* :class:`ServePhase` — a plan built at set-up serves half of a batch of
  jittered requests through ``Platform.run`` (the halves in turn), plain
  and armed (faults + retry + deadline + breaker + HA) alternating, then
  an open-loop load test with admission control and a deadline at a fixed
  Poisson rate.
* :class:`FleetPhase` — ``compile_fleet`` -> ``FleetPlacer.anneal`` ->
  ``run_fleet`` on a multi-tenant spec.

Every phase checks its outputs (:class:`GateError` on a wrong one), counts
ops attempted and failed, and returns host timings plus a ``sim`` dict of
simulated results that must repeat exactly for the same seed.  Program
entry points are reached through module attributes at call time, so the
wrappers :class:`layers.LayerProbe` installs see every call.
"""

from __future__ import annotations

import math
import sys
import traceback

import numpy as np

from repro.apps.catalog import workload
from repro.cluster import loadgen
from repro.core.ha import HAPolicy
from repro.core.manager import ChironManager
from repro.core.search import SearchOptions, plan_cost
from repro.errors import DeadlineExceeded, ReproError, SimulationError
from repro.faults.plan import FaultPlan
from repro.faults.retry import RetryPolicy
from repro.fleet import placement, runner
from repro.fleet import bench as fleet_bench
from repro.fleet import spec as fleet_spec
from repro.obs import Tracer
from repro.obs.metrics import Registry
from repro.overload.admission import AdmissionPolicy
from repro.overload.breaker import BreakerPolicy
from repro.platforms.chiron import ChironPlatform

from layers import clock

#: prediction-cache / search counters read around each deploy and refresh
PLAN_COUNTERS = ("pgp.cache.hit", "pgp.cache.miss", "pgp.evals.full",
                 "pgp.kl.swaps.evaluated", "pgp.kl.swaps.pruned",
                 "search.moves.proposed", "search.moves.accepted",
                 "search.moves.invalid")


class GateError(Exception):
    """A program output failed a correctness check."""


def _gate(ok: bool, message: str) -> None:
    if not ok:
        raise GateError(message)


class Ops:
    """Ops attempted and failed; a failed op's exception goes to stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.last_error = None

    def call(self, fn, *args, **kwargs):
        """Run one op; returns ``(result or None, ok)``."""
        return self.call_n(1, fn, *args, **kwargs)

    def call_n(self, n: int, fn, *args, **kwargs):
        """Run ``fn`` as ``n`` ops that succeed or fail together."""
        self.attempted += n
        try:
            return fn(*args, **kwargs), True
        except GateError:
            raise
        except Exception as exc:                # a failed op, not a crash
            self.failed += n
            self.last_error = exc
            traceback.print_exc(file=sys.stderr)
            return None, False


def validated(check, what: str) -> None:
    """Run a program-side validation; its error is a failed gate."""
    try:
        check()
    except ReproError as exc:
        raise GateError(f"{what}: {exc}") from exc


class Meter:
    """Times the steps of one pass.

    In an untraced pass every step waits for a quiet host and is scaled by
    the ``calibrator`` (:class:`layers.Calibrator`) read just before and
    after it; in a traced pass the ``probe`` frames every step, so the time
    between layer spans is attributed to the bench, and nothing waits or is
    scaled."""

    def __init__(self, probe=None, calibrator=None) -> None:
        self.probe = probe
        self.calibrator = calibrator

    def enter(self, phase: str) -> None:
        if self.probe is not None:
            self.probe.phase = phase

    def settle(self) -> None:
        """Hold the next step back while the host is in a slow spell."""
        if self.calibrator is not None:
            self.calibrator.settle()

    def scale(self) -> float:
        """The scale of the host time since the previous :meth:`settle`."""
        return 1.0 if self.calibrator is None else self.calibrator.scale()

    def framed(self, frame: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` in a bench frame when traced."""
        if self.probe is None:
            return fn(*args, **kwargs)
        return self.probe.span(frame, fn, *args, **kwargs)

    def timed(self, frame: str, fn, *args, **kwargs):
        """``fn(*args, **kwargs)`` and its scaled :func:`clock` seconds."""
        self.settle()
        start = clock()
        result = self.framed(frame, fn, *args, **kwargs)
        return result, (clock() - start) * self.scale()


def _counters(registry) -> dict:
    return {name: registry.counter(name).value for name in PLAN_COUNTERS}


def _delta(after: dict, before: dict) -> dict:
    return {k: after[k] - before[k] for k in after}


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------
class PlanPhase:
    """Cold deploys at two SLOs, then a blind refresh of each."""

    SLO_FACTORS = (1.5, 2.0)
    #: SA seeds derived from the workload seed, one per part; passes take
    #: the parts in turn.  A FINRA-50 deploy's cost follows its search path
    #: (2.37 s with one seed, 2.78 s with the next), and a run over two
    #: seeds varies less from seed to seed than over one
    PARTS = 2

    def __init__(self, app: str, seed: int) -> None:
        self.workflow = workload(app)
        self.cp_ms = self.workflow.critical_path_ms
        self.searches = [SearchOptions(method="sa", seed=seed * self.PARTS + j)
                         for j in range(self.PARTS)]
        self.passes = 0

    def _checked(self, deployment, slo_ms: float) -> float:
        plan = deployment.plan
        validated(lambda: plan.validate(deployment.profiled_workflow),
                  f"plan for {plan.workflow_name}")
        predicted = plan.predicted_latency_ms
        _gate(predicted is not None and math.isfinite(predicted)
              and predicted > 0,
              f"plan for {plan.workflow_name} at SLO {slo_ms:.1f} ms has "
              f"predicted latency {predicted!r}")
        return plan_cost(predicted, plan.total_cores, slo_ms)

    def run(self, ops: Ops, meter: Meter) -> dict:
        meter.enter("plan")
        # a traced pass plans the part of the pass before it, so that the
        # traced and untraced results compare
        if meter.probe is None:
            self.passes += 1
        part = (self.passes - 1) % self.PARTS
        search = self.searches[part]
        manager = ChironManager()
        registry = manager.prediction_cache.metrics
        out = {"times": {}, "counters": {}, "sim": {}, "part": part}
        deployments = []
        costs = []
        deploy_s = 0.0
        before = _counters(registry)
        for factor in self.SLO_FACTORS:
            slo = factor * self.cp_ms
            (dep, ok), dt = meter.timed("bench.plan.deploy", ops.call,
                                        manager.deploy, self.workflow, slo,
                                        search=search)
            if not ok:
                return out
            deploy_s += dt
            costs.append(self._checked(dep, slo))
            deployments.append(dep)
        after_deploy = _counters(registry)
        refreshed = []
        refresh_s = 0.0
        for dep in deployments:
            (fresh, ok), dt = meter.timed("bench.plan.refresh", ops.call,
                                          manager.refresh, dep,
                                          search=search)
            if not ok:
                return out
            refresh_s += dt
            costs.append(self._checked(fresh, fresh.plan.slo_ms))
            refreshed.append(fresh)
        after = _counters(registry)
        out["times"] = {"deploy_s": deploy_s, "refresh_s": refresh_s}
        out["counters"] = {"deploy": _delta(after_deploy, before),
                           "refresh": _delta(after, after_deploy)}
        plans = [d.plan for d in (*deployments, *refreshed)]
        out["sim"] = {
            "plan_cost": sum(costs),
            "fingerprints": [repr(plan.fingerprint()) for plan in plans],
            "predicted_ms": [plan.predicted_latency_ms for plan in plans],
        }
        return out


# ---------------------------------------------------------------------------
# serve
# ---------------------------------------------------------------------------
#: known defect (c): armed FINRA-50 requests, as ``(workload seed, batch
#: index)``, that fail with a GIL double acquire at this fault rate and the
#: default ``BreakerPolicy``
GIL_DEFECT_REQUESTS = ((1, 725), (2, 745), (8, 225))
GIL_DEFECT_FAULT_RATE = 0.01


class ServePhase:
    """A request batch (plain/armed alternating) plus an open-loop test."""

    SLO_FACTOR = 2.0
    #: armed requests: every subsystem joins.  At 0.01 about one in 2,000
    #: hit known defect (c) or ran out of retries, see NOTES.md
    FAULT_RATE = 0.002
    RETRY_ATTEMPTS = 6
    #: consecutive failures that open the breaker.  Defect (c) follows a
    #: breaker fast-fail; at the default of 3 it took about one armed
    #: request in 2,000 at a 1% fault rate, at 5 none of 6,000
    BREAKER_THRESHOLD = 5
    DEADLINE_SLOS = 8.0
    #: the open-loop test's deadline, in SLOs of the served plan
    LOAD_DEADLINE_SLOS = 4.0
    #: requests per batch, plain and armed alternating; a pass serves
    #: ``PER_PASS`` of them, the parts of the batch in turn
    BATCH = 1000
    PER_PASS = 500
    #: armed requests pre-sampled into the open loop's service pool
    POOL = 100
    #: CPU seconds of batch requests between two calibration readings
    CHUNK_S = 0.5
    #: the open loop's instances and Poisson arrivals
    INSTANCES = 8
    LOAD_REQUESTS = 30_000

    def __init__(self, app: str, seed: int, *, rps: float) -> None:
        self.workflow = workload(app)
        self.slo_ms = self.SLO_FACTOR * self.workflow.critical_path_ms
        self.platform = ChironPlatform(
            ChironManager().plan(self.workflow, self.slo_ms))
        self.rps = rps
        self.base = seed * 1_000_003
        self.passes = 0
        self.faults = FaultPlan.uniform(self.FAULT_RATE, seed=seed)
        self.retry = RetryPolicy(max_attempts=self.RETRY_ATTEMPTS)
        self.breaker = BreakerPolicy(failure_threshold=self.BREAKER_THRESHOLD)
        self.ha = HAPolicy(mode="checkpoint")

    def _armed(self, rseed: int) -> dict:
        return dict(faults=self.faults, retry=self.retry, fault_seed=rseed,
                    deadline_ms=self.DEADLINE_SLOS * self.slo_ms,
                    overload=self.breaker, ha=self.ha)

    def run(self, ops: Ops, meter: Meter) -> dict:
        meter.enter("serve")
        traced = meter.probe is not None
        # a traced pass serves the part of the pass before it, so that the
        # traced and untraced results compare
        if not traced:
            self.passes += 1
        part = (self.passes - 1) % (self.BATCH // self.PER_PASS)
        batch = meter.framed("bench.serve.batch", self._batch, ops, meter,
                             first=part * self.PER_PASS)
        pool, sample_s = meter.timed("bench.serve.sample", self._pool, ops)
        load, load_run_s = meter.timed(
            "bench.serve.load", loadgen.run_open_loop,
            self.platform, self.workflow, instances=self.INSTANCES,
            rps=self.rps, requests=self.LOAD_REQUESTS,
            seed=self.base + self.BATCH + self.POOL,
            admission=AdmissionPolicy(),
            deadline_ms=self.LOAD_DEADLINE_SLOS * self.slo_ms,
            service_samples=pool)
        accounted = load.completed + load.shed + load.rejected + load.expired
        _gate(accounted == self.LOAD_REQUESTS,
              f"open loop accounted for {accounted} of "
              f"{self.LOAD_REQUESTS} arrivals")
        _gate(load.goodput_rps > 0, "open loop had zero goodput")
        sim_ms = batch.pop("sim_ms")
        batch["times"] = {"batch_s": batch.pop("batch_s"),
                          "sample_s": sample_s,
                          "load_s": sample_s + load_run_s}
        batch["load"] = load
        # the simulated results repeat for each part of the batch
        batch["part"] = part
        batch["sim"] = {
            "latency_ms": sim_ms.tolist(),
            "sim_goodput_rps": load.goodput_rps,
            "load": [load.completed, load.shed, load.rejected,
                     load.expired, load.met_deadline],
        }
        return batch

    def _batch(self, ops: Ops, meter: Meter, *, first: int) -> dict:
        """``PER_PASS`` requests from ``first`` on.  Their CPU times are
        scaled in chunks of about ``CHUNK_S`` seconds, each by the host speed
        read around it; ``batch_s`` is the sum of the scaled chunks."""
        wf, platform = self.workflow, self.platform
        traced = meter.probe is not None
        host_ms = np.empty(self.PER_PASS)
        sim_ms = np.empty(self.PER_PASS)
        armed_at = np.zeros(self.PER_PASS, dtype=bool)
        layer = {"faults.injected": 0, "faults.retries": 0,
                 "overload.deadline.expired": 0, "core.ha.checkpoints": 0,
                 "gil_handoffs": 0.0}
        meter.settle()
        batch_s, chunk, chunk_start = 0.0, 0, clock()
        for k, i in enumerate(range(first, first + self.PER_PASS)):
            rseed = self.base + i
            armed = armed_at[k] = i % 2 == 1
            kwargs = self._armed(rseed) if armed else {}
            tracer = Tracer() if traced else None
            start = clock()
            res, ok = ops.call(platform.run, wf, seed=rseed, tracer=tracer,
                               **kwargs)
            end = clock()
            host_ms[k] = (end - start) * 1000.0
            sim_ms[k] = res.latency_ms if ok else math.inf
            if ok:
                _gate(math.isfinite(res.latency_ms) and res.latency_ms > 0,
                      f"request {i} has simulated latency "
                      f"{res.latency_ms!r}")
                if armed:
                    layer["faults.injected"] += res.faults["injected_total"]
                    layer["faults.retries"] += res.faults["retries"]
                    layer["core.ha.checkpoints"] += res.ha["checkpoints"]
                if tracer is not None:
                    layer["gil_handoffs"] += tracer.metrics.counter(
                        "event.gil.handoff").value
            elif isinstance(ops.last_error, DeadlineExceeded):
                layer["overload.deadline.expired"] += 1
            if end - chunk_start >= self.CHUNK_S or k == self.PER_PASS - 1:
                scale = meter.scale()
                host_ms[chunk:k + 1] *= scale
                batch_s += (end - chunk_start) * scale
                if k + 1 < self.PER_PASS:
                    meter.settle()
                chunk, chunk_start = k + 1, clock()
        kinds = {"plain": host_ms[~armed_at].tolist(),
                 "armed": host_ms[armed_at].tolist()}
        # a failed request misses every latency limit
        host_ms[np.isinf(sim_ms)] = math.inf
        return {"host_ms": host_ms, "sim_ms": sim_ms, "kinds_ms": kinds,
                "layer": layer, "batch_s": batch_s}

    def gil_defect_failures(self) -> int:
        """How many of the :data:`GIL_DEFECT_REQUESTS` still fail with known
        defect (c), the GIL double acquire; the plan must be FINRA-50's."""
        failures = 0
        for wseed, i in GIL_DEFECT_REQUESTS:
            rseed = wseed * 1_000_003 + i
            kwargs = self._armed(rseed)
            kwargs["faults"] = FaultPlan.uniform(GIL_DEFECT_FAULT_RATE,
                                                 seed=wseed)
            kwargs["overload"] = BreakerPolicy()
            try:
                self.platform.run(self.workflow, seed=rseed, **kwargs)
            except SimulationError as exc:
                failures += "already holds the GIL" in str(exc)
        return failures

    def _pool(self, ops: Ops) -> list:
        """The open loop's service pool, pre-sampled from armed requests."""
        pool = []
        for j in range(self.POOL):
            rseed = self.base + self.BATCH + j
            res, ok = ops.call(self.platform.run, self.workflow, seed=rseed,
                               **self._armed(rseed))
            if ok:
                pool.append(res.latency_ms)
        _gate(bool(pool), "every service-pool request failed")
        return pool


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------
def bench_fleet_spec(seed: int):
    """The ``BENCH_fleet.json`` shape at the quick size of the fleet bench's
    smoke run."""
    return fleet_spec.synth_fleet(
        tenants=fleet_bench.BENCH_TENANTS,
        workloads_per_tenant=fleet_bench.BENCH_WORKLOADS_PER_TENANT,
        requests_per_stream=fleet_bench.BENCH_REQUESTS_QUICK,
        rps=fleet_bench.BENCH_RPS, seed=seed)


class FleetPhase:
    """Compile, anneal and run one multi-tenant fleet."""

    #: ``run_fleet`` calls of one :meth:`repeat` pass, each a timed step
    REPEAT_CALLS = 2

    def __init__(self, spec, seed: int) -> None:
        self.spec = spec
        self.options = SearchOptions(budget=fleet_bench.BENCH_ANNEAL_BUDGET,
                                     seed=seed)
        #: ``(fleet, placement, run fields)`` of the latest pass
        self.placed = None

    def run(self, ops: Ops, meter: Meter) -> dict:
        meter.enter("fleet")
        registry = tracer = None
        if meter.probe is not None:
            registry, tracer = Registry(), meter.probe.tracer
        total = self.spec.total_requests
        times = {}

        def place_and_run():
            fleet, times["compile_s"] = meter.timed(
                "bench.fleet.compile", fleet_spec.compile_fleet, self.spec)
            placer = placement.FleetPlacer(fleet, registry=registry,
                                           tracer=tracer)
            plan, times["anneal_s"] = meter.timed(
                "bench.fleet.anneal", placer.anneal, self.options)
            report, times["run_s"] = meter.timed(
                "bench.fleet.run", runner.run_fleet, fleet, plan,
                registry=registry, tracer=tracer)
            return fleet, plan, report

        # the fleet's requests are this phase's ops: a step that raises
        # fails every one of them
        result, ok = ops.call_n(total, place_and_run)
        if not ok:
            return {"times": {}, "sim": {}}
        fleet, plan, report = result
        validated(lambda: plan.validate(fleet), "annealed placement")
        _gate(plan.seed_cost is not None and plan.cost <= plan.seed_cost,
              f"annealed cost {plan.cost} above its seed {plan.seed_cost}")
        _gate(report.completed + report.disrupted == total,
              f"fleet run accounted for {report.completed} completed + "
              f"{report.disrupted} disrupted of {total} requests")
        fields = {**report.quality_fields(), **report.fleet_fields()}
        self.placed = (fleet, plan, fields)
        return {
            "times": {"place_s": times["compile_s"] + times["anneal_s"],
                      "run_s": [times["run_s"]]},
            "sim": {
                "placement_cost": plan.cost,
                "seed_cost": plan.seed_cost,
                "assignment": list(plan.assignment),
                "run": fields,
            },
            # requests of one run_fleet call
            "requests": total,
            "report": report,
            "registry": registry,
        }

    def repeat(self, ops: Ops, meter: Meter) -> dict:
        """``REPEAT_CALLS`` more ``run_fleet`` calls on the latest pass's
        placement, which must give that pass's results again.  Short
        passes of these, spread over a run, give ``run_requests_per_s``
        samples from many moments of the host's speed."""
        meter.enter("fleet")
        fleet, plan, fields = self.placed
        total = self.spec.total_requests
        run_s = []
        for _ in range(self.REPEAT_CALLS):
            (report, ok), dt = meter.timed("bench.fleet.run", ops.call_n,
                                           total, runner.run_fleet, fleet,
                                           plan)
            if not ok:
                return {"times": {}, "sim": {}}
            _gate({**report.quality_fields(), **report.fleet_fields()}
                  == fields, "repeated fleet runs of one placement differ")
            run_s.append(dt)
        return {"times": {"run_s": run_s}, "sim": {"run": fields},
                "requests": total}
