"""Tests for the white-box latency predictor (Algorithm 1 + Eq. 1-4)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.calibration import RuntimeCalibration
from repro.core.predictor import LatencyPredictor
from repro.core.wrap import (
    DeploymentPlan,
    ExecMode,
    ProcessAssignment,
    StageAssignment,
    Wrap,
)
from repro.errors import DeploymentError
from repro.workflow import FunctionBehavior, FunctionSpec, Stage, Workflow
from repro.workflow.behavior import SegmentKind

CAL = RuntimeCalibration.native()


def predictor(**kw):
    return LatencyPredictor(CAL, **kw)


def behaviors(*solo_cpu):
    return [FunctionBehavior.cpu(ms) for ms in solo_cpu]


class TestAlgorithm1:
    def test_empty_is_zero(self):
        assert predictor().predict_multithread_exec([]) == 0.0

    def test_single_thread_is_solo_plus_spawn(self):
        t = predictor().predict_multithread_exec(behaviors(10.0))
        assert t == pytest.approx(10.0 + CAL.thread_startup_ms, rel=0.01)

    def test_cpu_threads_serialize(self):
        """GIL: total ~ sum of CPU work regardless of thread count."""
        t = predictor().predict_multithread_exec(behaviors(10.0, 10.0, 10.0))
        assert t == pytest.approx(30.0 + 3 * CAL.thread_startup_ms, rel=0.02)

    def test_io_overlaps(self):
        """Blocking ops overlap with the GIL holder (Figure 2)."""
        b = [FunctionBehavior.io(50.0), FunctionBehavior.cpu(50.0)]
        t = predictor().predict_multithread_exec(b)
        assert t == pytest.approx(50.0, rel=0.05)

    def test_all_io_threads_fully_overlap(self):
        b = [FunctionBehavior.io(40.0) for _ in range(8)]
        t = predictor().predict_multithread_exec(b)
        # spawn serialization plus one overlapping 40ms block
        assert t == pytest.approx(40.0 + 8 * CAL.thread_startup_ms, rel=0.10)

    def test_interleaved_cpu_io(self):
        """Two threads alternating cpu/io can hide each other's blocks."""
        b = [FunctionBehavior.of(("cpu", 5.0), ("io", 5.0), ("cpu", 5.0)),
             FunctionBehavior.of(("cpu", 5.0), ("io", 5.0), ("cpu", 5.0))]
        t = predictor().predict_multithread_exec(b)
        # 20ms CPU total; blocks overlap compute: well under 30ms serial
        assert t < 30.0
        assert t >= 20.0

    def test_spawn_excluded_when_requested(self):
        p = predictor()
        with_spawn = p.predict_multithread_exec(behaviors(10.0))
        without = p.predict_multithread_exec(behaviors(10.0),
                                             include_spawn=False)
        assert with_spawn > without
        assert without == pytest.approx(10.0)

    def test_no_gil_runtime_parallel(self):
        p = LatencyPredictor(RuntimeCalibration.no_gil())
        t = p.predict_multithread_exec(behaviors(10.0, 10.0, 10.0, 10.0))
        assert t == pytest.approx(10.0, rel=0.05)

    def test_isolation_overheads_enter_prediction(self):
        p_native = LatencyPredictor(RuntimeCalibration.native())
        p_mpk = LatencyPredictor(RuntimeCalibration.mpk())
        b = behaviors(10.0)
        assert (p_mpk.predict_multithread_exec(b)
                > p_native.predict_multithread_exec(b))

    def test_deterministic(self):
        b = [FunctionBehavior.of(("cpu", 3.0), ("io", 2.0))] * 7
        assert (predictor().predict_multithread_exec(b)
                == predictor().predict_multithread_exec(b))


class TestFluidPrediction:
    def test_needs_positive_cores(self):
        with pytest.raises(DeploymentError):
            predictor().predict_parallel_exec(behaviors(1.0), cores=0)

    def test_four_tasks_three_cores(self):
        t = predictor().predict_parallel_exec(behaviors(*[30.0] * 4), cores=3)
        assert t == pytest.approx(40.0, rel=0.01)

    def test_enough_cores_is_max(self):
        t = predictor().predict_parallel_exec(behaviors(10.0, 25.0, 5.0),
                                              cores=8)
        assert t == pytest.approx(25.0, rel=0.01)

    def test_max_concurrent_queues_tasks(self):
        t = predictor().predict_parallel_exec(behaviors(*[10.0] * 4),
                                              cores=8, max_concurrent=2)
        assert t == pytest.approx(20.0, rel=0.01)

    def test_start_offsets_shift_completion(self):
        t = predictor().predict_parallel_exec(
            behaviors(10.0, 10.0), cores=4, start_offsets=[0.0, 15.0])
        assert t == pytest.approx(25.0, rel=0.01)

    def test_offsets_length_checked(self):
        with pytest.raises(DeploymentError):
            predictor().predict_parallel_exec(behaviors(1.0), cores=1,
                                              start_offsets=[0.0, 1.0])

    def test_io_does_not_occupy_cores(self):
        b = [FunctionBehavior.of(("cpu", 5.0), ("io", 20.0)),
             FunctionBehavior.cpu(25.0)]
        t = predictor().predict_parallel_exec(b, cores=1)
        # io task's block overlaps the cpu task's compute
        assert t < 50.0 - 5.0


class TestEq4:
    def test_orchestrator_thread_group_skips_fork(self):
        p = predictor()
        t0 = p.predict_process(behaviors(10.0), fork_position=0)
        t1 = p.predict_process(behaviors(10.0), fork_position=1)
        assert t1 - t0 == pytest.approx(CAL.process_startup_ms)

    def test_fork_position_adds_block_time(self):
        p = predictor()
        t1 = p.predict_process(behaviors(10.0), fork_position=1)
        t5 = p.predict_process(behaviors(10.0), fork_position=5)
        assert t5 - t1 == pytest.approx(4 * CAL.fork_block_ms)


def _staged_workflow_and_plan(groups, modes=None):
    """One parallel stage partitioned into the given name groups."""
    names = [n for g in groups for n in g]
    wf = Workflow("wf", [Stage("s0", [
        FunctionSpec(n, FunctionBehavior.cpu(5.0)) for n in names])])
    procs = []
    for i, g in enumerate(groups):
        mode = (modes[i] if modes else
                (ExecMode.THREAD if i == 0 else ExecMode.PROCESS))
        procs.append(ProcessAssignment(functions=tuple(g), mode=mode))
    wrap = Wrap(name="w1", stages=(StageAssignment(0, tuple(procs)),))
    plan = DeploymentPlan(workflow_name="wf", wraps=(wrap,))
    return wf, plan


class TestEq3Eq2Eq1:
    def test_wrap_ipc_pairs(self):
        wf, plan = _staged_workflow_and_plan([["a"], ["b"], ["c"]])
        p = predictor()
        t = p.predict_wrap_stage(plan.wraps[0].stages[0], wf)
        base = p.predict_process([wf.function("b").behavior], fork_position=2)
        assert t == pytest.approx(base + 2 * CAL.t_ipc_ms, rel=0.05)

    def test_single_process_no_ipc(self):
        wf, plan = _staged_workflow_and_plan([["a", "b"]])
        p = predictor()
        t = p.predict_wrap_stage(plan.wraps[0].stages[0], wf)
        exec_t = p.predict_multithread_exec(
            [wf.function("a").behavior, wf.function("b").behavior])
        assert t == pytest.approx(exec_t)

    def test_multi_wrap_stage_pays_rpc_and_inv(self):
        names = ["a", "b", "c"]
        wf = Workflow("wf", [Stage("s0", [
            FunctionSpec(n, FunctionBehavior.cpu(5.0)) for n in names])])
        w1 = Wrap(name="w1", stages=(StageAssignment(0, (
            ProcessAssignment(("a",), ExecMode.THREAD),)),))
        w2 = Wrap(name="w2", stages=(StageAssignment(0, (
            ProcessAssignment(("b",), ExecMode.THREAD),)),))
        w3 = Wrap(name="w3", stages=(StageAssignment(0, (
            ProcessAssignment(("c",), ExecMode.THREAD),)),))
        plan = DeploymentPlan(workflow_name="wf", wraps=(w1, w2, w3))
        p = predictor()
        t = p.predict_stage(plan, wf, 0)
        solo = p.predict_process([wf.function("c").behavior], fork_position=0)
        expected = solo + 2 * CAL.t_inv_ms + CAL.t_rpc_ms  # k=3 wrap
        assert t == pytest.approx(expected, rel=0.01)

    def test_stage_without_wrap_rejected(self):
        wf, plan = _staged_workflow_and_plan([["a"]])
        with pytest.raises(DeploymentError):
            predictor().predict_stage(plan, wf, 3)

    def test_workflow_sums_stages(self):
        wf = Workflow("wf", [
            Stage("s0", [FunctionSpec("a", FunctionBehavior.cpu(5.0))]),
            Stage("s1", [FunctionSpec("b", FunctionBehavior.cpu(7.0))]),
        ])
        wrap = Wrap(name="w1", stages=(
            StageAssignment(0, (ProcessAssignment(("a",), ExecMode.THREAD),)),
            StageAssignment(1, (ProcessAssignment(("b",), ExecMode.THREAD),)),
        ))
        plan = DeploymentPlan(workflow_name="wf", wraps=(wrap,))
        p = predictor()
        total = p.predict_workflow(wf, plan)
        s0 = p.predict_stage(plan, wf, 0)
        s1 = p.predict_stage(plan, wf, 1)
        assert total == pytest.approx(s0 + s1)

    def test_conservatism_scales_prediction(self):
        wf, plan = _staged_workflow_and_plan([["a", "b"]])
        base = predictor().predict_workflow(wf, plan)
        inflated = predictor(conservatism=1.2).predict_workflow(wf, plan)
        assert inflated == pytest.approx(1.2 * base)

    def test_pool_plan_prediction(self):
        names = [f"f{i}" for i in range(6)]
        wf = Workflow("wf", [Stage("s0", [
            FunctionSpec(n, FunctionBehavior.cpu(10.0)) for n in names])])
        wrap = Wrap(name="w1", stages=(StageAssignment(0, (
            ProcessAssignment(tuple(names), ExecMode.POOL),)),))
        plan = DeploymentPlan(workflow_name="wf", wraps=(wrap,),
                              cores={"w1": 3}, pool_workers=6)
        t = predictor().predict_stage(plan, wf, 0)
        # 60ms work on 3 cores -> >= 20ms; well under GIL-serial 60ms
        assert 20.0 <= t <= 30.0


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1,
                max_size=8))
def test_property_gil_exec_bounded(works):
    """Algorithm 1 output lies between max(solo) and sum(solo)+spawn."""
    p = predictor()
    t = p.predict_multithread_exec(behaviors(*works))
    spawn = len(works) * CAL.thread_startup_ms
    assert t >= max(works) - 1e-6
    assert t <= sum(works) + spawn + 1e-6


@settings(deadline=None, max_examples=25)
@given(st.lists(st.floats(min_value=0.1, max_value=30.0), min_size=1,
                max_size=8),
       st.integers(min_value=1, max_value=8))
def test_property_fluid_work_conservation(works, cores):
    p = predictor()
    t = p.predict_parallel_exec(behaviors(*works), cores=cores)
    assert t >= max(works) - 1e-6
    assert t >= sum(works) / cores - 1e-6
    assert t <= sum(works) + 1e-6


# ----------------------------------------------------------------------
# Differential test: the heap-scheduled replay kernel against the retired
# linear-scan Algorithm-1 loop, kept here as the oracle (less the finish
# times it recorded, which no result used).
# ----------------------------------------------------------------------
_EPS = 1e-9


class _OracleThread:
    """Per-thread state of the retired loop (built from ``merged()``)."""

    def __init__(self, behavior, cal, *, name="t", trace=None, offset=0.0):
        self.name = name
        self.trace = trace
        self.offset = offset
        cpu_scale = 1.0 + cal.exec_overhead_cpu
        io_scale = 1.0 + cal.exec_overhead_io
        segs = []
        if cal.isolation_startup_ms > 0:
            segs.append((SegmentKind.CPU, cal.isolation_startup_ms))
        for seg in behavior.merged():
            scale = cpu_scale if seg.kind is SegmentKind.CPU else io_scale
            segs.append((seg.kind, seg.duration_ms * scale))
        self.segs = segs
        self.idx = 0
        self.off = 0.0
        self.cpu_time = 0.0
        self.blocked_until = None
        self.done = not segs

    def absorb(self, now):
        while not self.done:
            if self.idx >= len(self.segs):
                self.done = True
                return
            kind, dur = self.segs[self.idx]
            remaining = dur - self.off
            if kind is SegmentKind.CPU:
                if remaining > _EPS:
                    return
                self.idx += 1
                self.off = 0.0
            else:
                if self.blocked_until is None:
                    self.blocked_until = now + remaining
                    if self.trace is not None and remaining > _EPS:
                        self.trace.record(self.name, "block",
                                          self.offset + now,
                                          self.offset + self.blocked_until)
                    return
                if self.blocked_until <= now + _EPS:
                    self.idx += 1
                    self.off = 0.0
                    self.blocked_until = None
                    continue
                return

    @property
    def runnable(self):
        return (not self.done and self.blocked_until is None
                and self.idx < len(self.segs)
                and self.segs[self.idx][0] is SegmentKind.CPU)


def oracle_multithread_exec(cal, gil_handoff, behaviors, *,
                            include_spawn=True, trace=None, names=None,
                            t0=0.0):
    """The retired O(threads)-per-step Algorithm-1 replay."""
    if not behaviors:
        return 0.0
    interval = cal.gil_switch_interval_ms
    spawn_cost = cal.thread_startup_ms if include_spawn else 0.0
    threads = [_OracleThread(b, cal,
                             name=(names[i] if names is not None else f"t{i}"),
                             trace=trace, offset=t0)
               for i, b in enumerate(behaviors)]
    to_spawn = list(range(len(threads)))
    spawned = []
    main_cpu_time = 0.0
    now = 0.0
    while True:
        for th in spawned:
            th.absorb(now)
        runnable = [th for th in spawned if th.runnable]
        main_ready = bool(to_spawn)
        if not runnable and not main_ready:
            pending = [th.blocked_until for th in spawned
                       if not th.done and th.blocked_until is not None]
            if pending:
                now = min(pending)
                continue
            break
        min_thread_cpu = min((th.cpu_time for th in runnable),
                             default=math.inf)
        if main_ready and main_cpu_time <= min_thread_cpu:
            if spawn_cost <= 0:
                spawned.extend(threads[i] for i in to_spawn)
                to_spawn.clear()
                continue
            batch = max(1, int(interval // spawn_cost))
            batch = min(batch, len(to_spawn))
            cost = batch * spawn_cost
            for b in range(batch):
                th = threads[to_spawn.pop(0)]
                spawned.append(th)
                if trace is not None:
                    trace.record(th.name, "startup",
                                 t0 + now + b * spawn_cost,
                                 t0 + now + (b + 1) * spawn_cost,
                                 op="thread.spawn")
            now += cost
            main_cpu_time += cost
            continue
        if gil_handoff == "cfs":
            th = min(runnable, key=lambda t: t.cpu_time)
        else:
            th = runnable[0]
        budget = interval
        ran = 0.0
        while budget > _EPS and not th.done:
            if th.idx >= len(th.segs):
                th.done = True
                break
            kind, dur = th.segs[th.idx]
            if kind is not SegmentKind.CPU:
                break
            step = min(dur - th.off, budget)
            th.off += step
            ran += step
            budget -= step
            if th.off >= dur - _EPS:
                th.idx += 1
                th.off = 0.0
        if trace is not None and ran > _EPS:
            trace.record(th.name, "exec", t0 + now, t0 + now + ran)
        now += ran
        th.cpu_time += ran
        th.absorb(now)
    return now


class _SpanLog:
    """Minimal trace sink: every record, in order, tags included."""

    def __init__(self):
        self.spans = []

    def record(self, entity, kind, start_ms, end_ms, **tags):
        self.spans.append((entity, kind, start_ms, end_ms,
                           tuple(sorted(tags.items()))))


#: durations that exercise the replay's epsilon paths: zero-length and
#: sub-``_EPS`` segments, values straddling ``_EPS``, and ordinary ones
_DURATIONS = st.one_of(
    st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 1.5e-9, 0.05, 0.1, 5.0]),
    st.floats(min_value=0.0, max_value=30.0, allow_nan=False))
_SEGMENT = st.tuples(st.sampled_from(["cpu", "io"]), _DURATIONS)
_CALIBRATIONS = [RuntimeCalibration.native(), RuntimeCalibration.mpk(),
                 RuntimeCalibration.sfi(), RuntimeCalibration.nodejs()]


@st.composite
def _replay_cases(draw):
    cal = draw(st.sampled_from(_CALIBRATIONS))
    # vary the spawn batch size (interval // spawn cost) and the quantum
    cal = cal.evolve(
        thread_startup_ms=draw(st.sampled_from(
            [cal.thread_startup_ms, 0.0, 0.3, 1.7, 6.0])),
        gil_switch_interval_ms=draw(st.sampled_from(
            [cal.gil_switch_interval_ms, 0.5, 2.0])))
    as_numpy = draw(st.booleans())
    behaviors = []
    for _ in range(draw(st.integers(min_value=1, max_value=60))):
        segs = draw(st.lists(_SEGMENT, min_size=1, max_size=6))
        if as_numpy:
            segs = [(kind, np.float64(dur)) for kind, dur in segs]
        behaviors.append(FunctionBehavior.of(*segs))
    # shared behaviour objects: equal-key ties in the ready heap
    if len(behaviors) > 2 and draw(st.booleans()):
        behaviors[1] = behaviors[0]
    return (cal, draw(st.sampled_from(["cfs", "fifo"])),
            draw(st.booleans()), behaviors)


@settings(deadline=None, max_examples=120)
@given(_replay_cases(), st.sampled_from([0.0, 12.5]))
def test_property_replay_kernel_matches_retired_loop(case, t0):
    """The event-driven kernel returns the retired loop's wall time bit for
    bit and records the same spans in the same order."""
    cal, handoff, include_spawn, bs = case
    p = LatencyPredictor(cal, gil_handoff=handoff, cache=False)
    want = oracle_multithread_exec(cal, handoff, bs,
                                   include_spawn=include_spawn)
    got = p.predict_multithread_exec(bs, include_spawn=include_spawn)
    assert got == want
    names = [f"f{i}" for i in range(len(bs))]
    want_log, got_log = _SpanLog(), _SpanLog()
    traced_want = oracle_multithread_exec(
        cal, handoff, bs, include_spawn=include_spawn, trace=want_log,
        names=names, t0=t0)
    traced_got = p.predict_multithread_exec(
        bs, include_spawn=include_spawn, trace=got_log, names=names, t0=t0)
    assert traced_got == traced_want == want
    assert got_log.spans == want_log.spans


@pytest.mark.parametrize("name", ["finra-5", "finra-50"])
@pytest.mark.parametrize("cal", _CALIBRATIONS[:3],
                         ids=["native", "mpk", "sfi"])
def test_replay_kernel_matches_retired_loop_on_finra_prefixes(name, cal):
    """Every prefix of a FINRA fan-out stage, both hand-offs."""
    from repro.apps import workload

    stage = max(workload(name).stages, key=len)
    bs = [f.behavior for f in stage]
    for handoff in ("cfs", "fifo"):
        p = LatencyPredictor(cal, gil_handoff=handoff, cache=False)
        for k in range(1, len(bs) + 1):
            assert (p.predict_multithread_exec(bs[:k])
                    == oracle_multithread_exec(cal, handoff, bs[:k]))


def test_zero_length_io_reached_during_a_release_waits_a_step():
    """Releasing ``a`` from its 1 ms IO skips a zero CPU segment and blocks
    it on a zero-length IO; that IO is released at the next step, after
    ``b`` took its turn — the retired loop's one-absorb-per-step rule."""
    a = FunctionBehavior.of(("io", 1.0), ("cpu", 0.0), ("io", 0.0),
                            ("cpu", 11.0))
    b = FunctionBehavior.of(("cpu", 7.0), ("io", 3.0))
    p = LatencyPredictor(CAL, cache=False)
    got = p.predict_multithread_exec([a, b], include_spawn=False)
    assert got == oracle_multithread_exec(CAL, "cfs", [a, b],
                                          include_spawn=False) == 18.0


def test_replay_segments_memo_follows_the_calibration():
    """Segments are merged, prefixed by the isolation startup and scaled;
    the behaviour's memo never serves segments built for another key."""
    b = FunctionBehavior.of(("cpu", 2.0), ("cpu", 1.0), ("io", 3.0))
    plain = ((True, 3.0), (False, 3.0))
    scaled = ((True, 0.5), (True, 6.0), (False, 4.5))
    assert b.replay_segments((0.0, 1.0, 1.0)) == plain
    assert b.replay_segments((0.5, 2.0, 1.5)) == scaled
    assert b.replay_segments((0.0, 1.0, 1.0)) == plain
    native, sfi = RuntimeCalibration.native(), RuntimeCalibration.sfi()
    for cal in (native, sfi, native):
        p = LatencyPredictor(cal, cache=False)
        assert (p.predict_multithread_exec([b])
                == oracle_multithread_exec(cal, "cfs", [b]))
