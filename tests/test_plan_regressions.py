"""Plan-level regression pins: non-degenerate FINRA-50 plans, and plans of
jittered workloads (whose segment durations come from numpy)."""

import hashlib

import pytest

from repro.apps.catalog import ALL_WORKLOADS, workload
from repro.core.manager import ChironManager
from repro.core.search import SearchOptions
from repro.platforms.base import jittered
from repro.workflow import FunctionBehavior


def plan_digest(plan) -> str:
    return hashlib.sha256(repr(plan.fingerprint()).encode()).hexdigest()[:16]


#: FINRA-50 plans as ``{search: {slo factor: (plan digest, predicted ms)}}``,
#: recorded before the Algorithm-1 replay became heap-scheduled; any change
#: to the predictor, PGP/KL or the SA search that moves them is a behaviour
#: change, not a refactor
FINRA50_PINS = {
    "kl": {1.5: ("0c332fe653a4a3e2", 115.40028117593934),
           2.0: ("5fc2180307a31bf8", 135.39354323210586)},
    "sa-seed-2": {1.5: ("441cab2823d13b87", 107.74057155933419),
                  2.0: ("971723c5f1fc50a3", 127.91885381474796)},
}
SEARCHES = {"kl": "none", "sa-seed-2": SearchOptions(method="sa", seed=2)}


@pytest.mark.parametrize("search", sorted(FINRA50_PINS))
def test_finra50_plans_are_pinned(search):
    wf = workload("finra-50")
    manager = ChironManager()
    for factor, (digest, predicted) in FINRA50_PINS[search].items():
        dep = manager.deploy(wf, factor * wf.critical_path_ms,
                             search=SEARCHES[search], generate_code=False)
        assert (plan_digest(dep.plan), dep.plan.predicted_latency_ms) == (
            digest, predicted)


def float_cast(behavior: FunctionBehavior) -> FunctionBehavior:
    return FunctionBehavior.of(
        *((s.kind.value, float(s.duration_ms)) for s in behavior),
        data_out_mb=behavior.data_out_mb, memory_mb=behavior.memory_mb)


@pytest.mark.parametrize("name", sorted(ALL_WORKLOADS))
def test_jittered_workloads_deploy_like_float_cast_ones(name):
    """Jitter multiplies durations by numpy scalars.  Segments store plain
    floats, so KL never compares numpy booleans (which used to raise a
    TypeError in its sort) and the plans equal those of float-cast
    behaviours."""
    wf = jittered(workload(name), seed=1)
    assert all(type(s.duration_ms) is float
               for f in wf.functions for s in f.behavior)
    cast = wf.map_behaviors(float_cast)
    jittered_manager, cast_manager = ChironManager(), ChironManager()
    for factor in (1.2, 1.5):
        slo = factor * wf.critical_path_ms
        got = jittered_manager.deploy(wf, slo, generate_code=False).plan
        want = cast_manager.deploy(cast, slo, generate_code=False).plan
        assert got.fingerprint() == want.fingerprint()
        assert got.predicted_latency_ms == want.predicted_latency_ms
