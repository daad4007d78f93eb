"""Per-layer attribution of host time, from outside the program.

:class:`LayerProbe` wraps public entry points of each layer with spans that
go into a :class:`repro.obs.Tracer` (host clock) and, at the same
boundaries, into exact self-time accumulators.  A layer's self time is its
span minus the time its child spans cover; the accumulators keep that sum
for every call, while the tracer keeps at most ``SPAN_CAP`` spans per layer
so that the exported Perfetto file stays small for layers called hundreds
of thousands of times (the predictor, the placement cost).

Nothing under ``src/`` knows about this module: :meth:`LayerProbe.install`
swaps module and class attributes and :meth:`LayerProbe.restore` puts the
originals back, so untraced iterations run the unmodified program.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict, deque

#: spans recorded into the tracer per layer; later calls are only summed
SPAN_CAP = 2000

#: the clock of every timing in the benchmark: CPU seconds of this process.
#: The pipeline is single-threaded and CPU-bound, so this is its host time
#: minus the time the OS gave other processes on a shared host.
clock = time.process_time


#: pure-Python loop iterations of one calibration sample (about 10 ms)
CALIBRATION_LOOPS = 100_000
#: samples per calibration point; their median is the point's reading
CALIBRATION_SAMPLES = 3
#: seconds one sample takes at the speed every host timing is scaled to:
#: about the reference host's fastest observed speed
CALIBRATION_REFERENCE_S = 0.0075
#: a step starts once a reading is at most ``QUIET_FACTOR`` times the best
#: reading of the last ``QUIET_WINDOW_S`` seconds ...
QUIET_FACTOR = 1.15
QUIET_WINDOW_S = 30.0
#: ... or once it has waited ``QUIET_STEP_S``, polling every
#: ``QUIET_POLL_S``
QUIET_STEP_S = 2.0
QUIET_POLL_S = 0.1


def calibrate() -> float:
    """CPU seconds a fixed pure-Python loop takes now."""
    start = clock()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return clock() - start


class Calibrator:
    """Host speed around each timed step.

    The shared reference host changes speed by half or more, in spells of
    seconds to minutes, and the program's timings follow it.  Every timed
    step is scaled by ``CALIBRATION_REFERENCE_S`` over the mean of the
    calibration readings just before and just after it, so that timings
    taken at different host speeds compare.  A reading is the median of
    ``CALIBRATION_SAMPLES`` samples, so one sample the OS interrupted does
    not skew a step.

    The program slows down more than the loop does in a slow spell (about
    1.6 times as much, in log terms, for ``run_fleet``), so scaling alone
    leaves part of a spell in the timing.  :meth:`settle` therefore holds
    a step back, for at most ``QUIET_STEP_S`` and ``wait_budget_s`` in
    all, until the host runs near its best speed of the last
    ``QUIET_WINDOW_S`` seconds; spells last seconds, so most steps then run
    outside one."""

    def __init__(self, wait_budget_s: float = 0.0) -> None:
        self.samples = []
        self.scales = []
        self.recent = deque()           # (perf_counter, reading)
        self.wait_budget_s = wait_budget_s
        self.waited_s = 0.0
        self.last = self._sample()

    def _sample(self) -> float:
        values = [calibrate() for _ in range(CALIBRATION_SAMPLES)]
        self.samples.extend(values)
        reading = statistics.median(values)
        now = time.perf_counter()
        self.recent.append((now, reading))
        while self.recent[0][0] < now - QUIET_WINDOW_S:
            self.recent.popleft()
        return reading

    def settle(self) -> None:
        """Wait for a quiet host, then take the reading the next step is
        scaled from."""
        start = time.perf_counter()
        limit = min(QUIET_STEP_S, self.wait_budget_s - self.waited_s)
        while True:
            self.last = self._sample()
            best = min(reading for _, reading in self.recent)
            if (self.last <= QUIET_FACTOR * best
                    or time.perf_counter() - start >= limit):
                break
            time.sleep(QUIET_POLL_S)
        self.waited_s += time.perf_counter() - start

    def scale(self) -> float:
        """The scale of the step since the previous call."""
        before, self.last = self.last, self._sample()
        value = CALIBRATION_REFERENCE_S / ((before + self.last) / 2)
        self.scales.append(value)
        return value


def host_tracer():
    """A :class:`repro.obs.Tracer` whose spans are stamped in :func:`clock`
    milliseconds."""
    from repro.obs import Tracer

    return Tracer(clock=lambda: clock() * 1000.0)


class LayerProbe:
    """Self-time and call accounting for wrapped layer entry points."""

    def __init__(self, tracer) -> None:
        self.tracer = tracer
        #: (phase, layer) -> seconds of self time / of total (outermost) time
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        #: (phase, layer) -> simulation events dispatched inside the layer
        self.events = defaultdict(int)
        self.phase = "bench"
        self._stack: list = []       # [layer, start, child_s, span handle]
        self._spans = defaultdict(int)
        self._saved: list = []

    # -- frames ---------------------------------------------------------------
    def enter(self, layer: str) -> list:
        handle = None
        if self._spans[layer] < SPAN_CAP:
            self._spans[layer] += 1
            handle = self.tracer.begin(layer, entity="host", kind="layer",
                                       phase=self.phase)
        frame = [layer, clock(), 0.0, handle]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        now = clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"layer frames closed out of order: "
                               f"{frame[0]} inside {popped[0]}")
        layer, start, child_s, handle = frame
        elapsed = now - start
        key = (self.phase, layer)
        self.self_s[key] += elapsed - child_s
        self.total_s[key] += elapsed
        self.calls[key] += 1
        if self._stack:
            self._stack[-1][2] += elapsed
        if handle is not None:
            self.tracer.end(handle)

    def parent(self) -> str:
        return self._stack[-1][0] if self._stack else ""

    def span(self, layer: str, fn, *args, **kwargs):
        frame = self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    # -- wrapping -------------------------------------------------------------
    def _wrap(self, fn, layer: str, *, outermost: bool = False):
        probe = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if outermost and probe.parent() == layer:
                return fn(*args, **kwargs)
            return probe.span(layer, fn, *args, **kwargs)

        return wrapper

    def _wrap_env_run(self, fn):
        """``Environment.run``: the event kernel, or the load generator's
        queueing simulation when ``run_open_loop`` is the caller."""
        probe = self

        @functools.wraps(fn)
        def wrapper(env, *args, **kwargs):
            layer = ("cluster.loadgen.queue"
                     if probe.parent() == "cluster.loadgen"
                     else "simcore.kernel")
            before = env.events_processed
            frame = probe.enter(layer)
            try:
                return fn(env, *args, **kwargs)
            finally:
                probe.exit(frame)
                probe.events[(probe.phase, layer)] += (
                    env.events_processed - before)

        return wrapper

    def _set(self, owner, name: str, value) -> None:
        self._saved.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _replace_function(self, original, layer: str) -> None:
        """Rebind ``original`` in every loaded ``repro`` module that imported
        it by name, so callers resolve the wrapper at call time."""
        wrapper = self._wrap(original, layer)
        for mod_name, module in list(sys.modules.items()):
            if not mod_name.startswith("repro") or module is None:
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self) -> None:
        from repro.cluster import loadgen
        from repro.core import search
        from repro.core.generator import OrchestratorGenerator
        from repro.core.pgp import PGPScheduler
        from repro.core.predictor import LatencyPredictor
        from repro.core.profiler import Profiler
        from repro.fleet import placement, runner, spec
        from repro.metrics import stats
        from repro.platforms.base import Platform
        from repro.simcore.kernel import Environment

        if self._saved:
            raise RuntimeError("layer probe already installed")
        methods = [
            (Profiler, "profile_workflow", "core.profiler"),
            (PGPScheduler, "schedule", "core.pgp"),
            (OrchestratorGenerator, "generate", "core.generator"),
            (Platform, "run", "platforms.run"),
            (placement.FleetPlacer, "anneal", "fleet.placement.anneal"),
        ]
        for owner, name, layer in methods:
            self._set(owner, name, self._wrap(vars(owner)[name], layer))
        for name, value in list(vars(LatencyPredictor).items()):
            if name.startswith("predict_") and callable(value):
                self._set(LatencyPredictor, name,
                          self._wrap(value, "core.predictor",
                                     outermost=True))
        self._set(Environment, "run",
                  self._wrap_env_run(vars(Environment)["run"]))
        functions = [
            (search.refine_plan, "core.search"),
            (loadgen.run_open_loop, "cluster.loadgen"),
            (stats.summarize_latencies, "metrics.stats"),
            (spec.compile_fleet, "fleet.spec.compile"),
            (placement.placement_cost, "fleet.placement.cost"),
            (runner.run_fleet, "fleet.runner"),
        ]
        for original, layer in functions:
            self._replace_function(original, layer)

    def restore(self) -> None:
        while self._saved:
            owner, name, value = self._saved.pop()
            setattr(owner, name, value)

    # -- reading --------------------------------------------------------------
    def layer_self(self, phase: str, prefix: str) -> float:
        """Self seconds of every layer in ``phase`` named ``prefix``*."""
        return sum(v for (ph, layer), v in self.self_s.items()
                   if ph == phase and layer.startswith(prefix))

    def layers_self_sum(self) -> float:
        """Self seconds of every wrapped layer, bench frames excluded."""
        return sum(v for (_ph, layer), v in self.self_s.items()
                   if not layer.startswith("bench."))
