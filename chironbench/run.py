"""One benchmark for the Chiron pipeline: plan, serve and fleet.

Usage, from the root of a checkout::

    python3 chironbench/run.py --workload plan --seed 1 --seconds 52 --trace 0

Every run executes the pipeline's three user paths (see ``phases.py``) for
``--seconds`` seconds.  The workload (``plan`` or ``serve``) names the path
that runs at full size; the other two run at small size, so that every
end-to-end metric has a reading on every workload (see ``NOTES.md``).

``--trace 0`` reports the end-to-end metrics of untraced passes, the own
path taking half the time.  ``--trace 1`` runs iterations of one pass per
path, alternating untraced and traced ones, and reports the
per-layer metrics of the traced ones plus the tracing overhead; it also
writes the host-time spans as a Chrome/Perfetto trace.  Outputs land in
``.bench_out/`` of the checkout.  The last line of standard output is the
JSON result; a failed correctness check prints ``"correct": false`` and
exits with code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform as host_platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

WORKLOADS = ("plan", "serve")
#: the pipeline's paths, each a phase of every run
PHASES = ("plan", "serve", "fleet")
#: set-up repetitions per run; ``setup_s`` is their median
SETUP_REPEATS = 3
#: share of an untraced run's time that the workload's own path gets; the
#: two probes split the rest
OWN_SHARE = 0.5
#: passes every phase makes at least in an untraced run: every median has
#: two samples, and the serve passes cover both halves of the batch
MIN_PASSES = 2
#: share of ``--seconds`` an untraced run may spend, set-ups included,
#: waiting for the host to leave a slow spell before a timed step
QUIET_SHARE = 0.2
OUT_DIR = ".bench_out"

#: end-to-end metrics, in BENCHMARK.json order: name -> unit
END_TO_END = {
    "setup_s": "s",
    "deploy_s": "s", "refresh_s": "s", "plan_cost": "cost",
    "requests_per_s": "1/s", "request_ms_p50": "ms", "request_ms_p99": "ms",
    "sim_latency_p99_ms": "ms", "load_s": "s", "sim_goodput_rps": "1/s",
    "place_s": "s", "run_requests_per_s": "1/s", "placement_cost": "cost",
}


#: layers each traced phase must reach; a wrapper that no call goes
#: through (a caller holding its own reference, say) fails the run
REQUIRED_LAYERS = {
    "plan": ("core.profiler", "core.pgp", "core.predictor", "core.search",
             "core.generator"),
    "serve": ("platforms.run", "simcore.kernel", "cluster.loadgen",
              "cluster.loadgen.queue", "metrics.stats"),
    "fleet": ("fleet.spec.compile", "core.pgp", "fleet.placement.anneal",
              "fleet.placement.cost", "fleet.runner"),
}


def _fail_usage(message: str) -> int:
    print(f"chironbench: {message}", file=sys.stderr)
    return 2


def build_pipeline(workload: str, seed: int):
    """``(name, phase)`` for the three phases, at full size for
    ``workload`` and as probes otherwise.  Building them is the run's
    set-up."""
    from phases import FleetPhase, PlanPhase, ServePhase, bench_fleet_spec

    plan = PlanPhase("finra-50" if workload == "plan" else "finra-5", seed)
    if workload == "serve":
        serve = ServePhase("finra-50", seed, rps=24.0)
    else:
        serve = ServePhase("finra-5", seed, rps=44.0)
    fleet = FleetPhase(bench_fleet_spec(seed), seed)
    return [("plan", plan), ("serve", serve), ("fleet", fleet)]


def setup_once(root: Path, workload: str, seed: int) -> float:
    """Seconds a fresh interpreter takes to import the program and build
    the run's inputs: the set-up a user of the pipeline pays per process."""
    code = ("import sys, time\n"
            "start = time.process_time()\n"
            f"sys.path[:0] = [{str(root / 'src')!r}, "
            f"{str(Path(__file__).resolve().parent)!r}]\n"
            "import run\n"
            f"run.build_pipeline({workload!r}, {seed})\n"
            "print(time.process_time() - start)\n")
    proc = subprocess.run([sys.executable, "-c", code], cwd=root,
                          capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


def _overdue(began: float, step: float, seconds: float) -> bool:
    """Whether a step of ``step`` seconds started now would end after the
    deadline."""
    return time.perf_counter() - began + step > seconds


def measure(pipeline, ops, workload: str, seconds: float,
            calibrator) -> dict:
    """Untraced passes for ``seconds``: ``{phase: [pass results]}``, every
    host timing scaled by ``calibrator`` step by step.

    Phases short of ``MIN_PASSES`` go first, so that a slow own path's
    last required pass does not start near the deadline.  After that the
    next pass is always of the phase furthest below its share of the time
    spent so far, so the short probe passes spread over the rest of the
    run, and a slow spell of the host does not fall on all samples of one
    metric.  Once the fleet phase has a placement, a short ``fleet.run``
    pass that repeats ``run_fleet`` on it follows every other pass, so
    that ``run_requests_per_s`` samples the whole run."""
    from phases import GateError, Meter

    meter = Meter(calibrator=calibrator)
    share = {name: OWN_SHARE if name == workload else (1 - OWN_SHARE) / 2
             for name, _ in pipeline}
    fleet = dict(pipeline)["fleet"]
    repeat = ("fleet.run", SimpleNamespace(run=fleet.repeat))
    # the fleet goes first among equals, so that fleet.run passes can follow
    # the other passes from the start of the run
    pipeline = sorted(pipeline, key=lambda p: p[0] != "fleet")
    spent = dict.fromkeys((*share, repeat[0]), 0.0)
    last = {}
    runs = {name: [] for name in spent}
    sims = {}
    previous = None

    def next_phase():
        if previous not in (None, repeat[0]) and fleet.placed is not None:
            return repeat
        short = [p for p in pipeline if len(runs[p[0]]) < MIN_PASSES]
        return min(short or pipeline,
                   key=lambda p: spent[p[0]] / share[p[0]])

    began = time.perf_counter()
    while True:
        name, phase = next_phase()
        previous = name
        start = time.perf_counter()
        out = phase.run(ops, meter)
        last[name] = time.perf_counter() - start
        spent[name] += last[name]
        if sims.setdefault((name, out.get("part")), out["sim"]) != out["sim"]:
            raise GateError(f"simulated {name} results differ between "
                            f"passes of the same seed")
        runs[name].append(out)
        if (min(map(len, runs.values())) >= MIN_PASSES
                and _overdue(began, last[next_phase()[0]], seconds)):
            return runs


def run_iteration(pipeline, ops, probe=None) -> dict:
    """plan -> serve -> fleet, one pass each; ``probe`` traces the
    iteration."""
    from layers import clock
    from phases import Meter

    meter = Meter(probe=probe)
    wall, start = time.perf_counter(), clock()
    out = {name: phase.run(ops, meter) for name, phase in pipeline}
    out["host_s"] = clock() - start
    out["wall_s"] = time.perf_counter() - wall
    return out


def _sims(it: dict) -> dict:
    """Simulated results of an iteration, by phase."""
    return {name: it[name]["sim"] for name in PHASES}


def trace(pipeline, ops, seconds: float):
    """Untraced and traced iterations, alternating, for ``seconds``:
    ``(untraced, traced, probes)``, a probe per traced iteration."""
    from layers import LayerProbe, host_tracer
    from phases import GateError

    untraced, traced, probes = [], [], []
    sims = {}
    began = time.perf_counter()
    while True:
        probe = None
        if len(untraced) > len(traced):
            probe = LayerProbe(host_tracer())
            probe.install()
        try:
            it = run_iteration(pipeline, ops, probe)
        finally:
            if probe is not None:
                probe.restore()
        (untraced if probe is None else traced).append(it)
        if probe is not None:
            probes.append(probe)
            missing = [f"{phase}/{layer}"
                       for phase, layers in REQUIRED_LAYERS.items()
                       for layer in layers
                       if not probe.calls[(phase, layer)]]
            if missing:
                raise GateError(f"no traced call reached {missing}")
            if probe.layers_self_sum() > it["host_s"]:
                raise GateError(
                    f"layer self times sum to {probe.layers_self_sum():.3f}"
                    f" s, more than the traced iteration's "
                    f"{it['host_s']:.3f} s")
        parts = (it["plan"]["part"], it["serve"]["part"])
        if sims.setdefault(parts, _sims(it)) != _sims(it):
            raise GateError("simulated results differ between iterations "
                            "of the same seed")
        step = max(x["wall_s"] for x in (untraced + traced)[-2:])
        if traced and _overdue(began, step, seconds):
            return untraced, traced, probes


def _median(values):
    return statistics.median(values) if values else None


def end_to_end(runs: dict, setup: list) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes and scaled set-ups, plus
    sample counts."""
    import numpy as np

    def times(phase, key):
        return [out["times"][key] for out in runs[phase]
                if key in out["times"]]

    def part_mean(key):
        """The plan passes' median of ``key`` per search seed, averaged
        over the seeds."""
        parts = {}
        for out in runs["plan"]:
            if key in out["times"]:
                parts.setdefault(out["part"], []).append(out["times"][key])
        if not parts:
            return None
        return statistics.fmean(map(statistics.median, parts.values()))

    first = {name: out[0] for name, out in runs.items()}
    plan_costs = {out["part"]: out["sim"]["plan_cost"] for out in runs["plan"]
                  if "plan_cost" in out["sim"]}
    host_ms = np.concatenate([out["host_ms"] for out in runs["serve"]])
    # simulated latencies of the whole batch, each part once
    parts = {out["part"]: out["sim"]["latency_ms"] for out in runs["serve"]}
    sim_ms = np.concatenate(list(parts.values()))
    # one rate per run_fleet call
    run_rates = [out["requests"] / run_s
                 for out in (*runs["fleet"], *runs["fleet.run"])
                 for run_s in out["times"].get("run_s", ())]
    values = {
        "setup_s": _median(setup),
        "deploy_s": part_mean("deploy_s"),
        "refresh_s": part_mean("refresh_s"),
        "plan_cost": (statistics.fmean(plan_costs.values())
                      if plan_costs else None),
        "requests_per_s": len(host_ms) / sum(times("serve", "batch_s")),
        "request_ms_p50": float(np.percentile(host_ms, 50)),
        "request_ms_p99": float(np.percentile(host_ms, 99)),
        "sim_latency_p99_ms": float(np.percentile(sim_ms, 99)),
        "load_s": _median(times("serve", "load_s")),
        "sim_goodput_rps": first["serve"]["sim"]["sim_goodput_rps"],
        "place_s": _median(times("fleet", "place_s")),
        "run_requests_per_s": _median(run_rates),
        "placement_cost": first["fleet"]["sim"].get("placement_cost"),
    }
    samples = {
        "passes": {name: len(out) for name, out in runs.items()},
        "setup_repeats": len(setup),
        "request_ms_samples": len(host_ms),
        "request_ms_p99_beyond": int(len(host_ms) * 0.01),
        "sim_latency_samples": len(sim_ms),
    }
    return values, samples


def per_layer(untraced: list, traced: list, probes: list) -> dict:
    """Per-layer metrics: medians over traced iterations."""
    rows = [layer_row(it, probe) for it, probe in zip(traced, probes)]
    out = {k: _median([r[k] for r in rows]) for k in rows[0]}
    wall_u = _median([it["host_s"] for it in untraced])
    wall_t = _median([it["host_s"] for it in traced])
    out["obs.untraced_s"] = wall_u
    out["obs.traced_s"] = wall_t
    out["obs.tracing_overhead"] = wall_t / wall_u - 1.0
    request_ms = [_median([ms for it in group
                           for kind in ("plain", "armed")
                           for ms in it["serve"]["kinds_ms"][kind]])
                  for group in (untraced, traced)]
    out["obs.request_tracer_overhead"] = request_ms[1] / request_ms[0] - 1.0
    return out


def gil_defect_failures(pipeline) -> int:
    """Known defect (c), replayed on FINRA-50 outside the measured ops: the
    number of its reproducing requests that still fail."""
    from phases import ServePhase

    serve = dict(pipeline)["serve"]
    if serve.workflow.name != "finra-50":
        serve = ServePhase("finra-50", 0, rps=24.0)
    return serve.gil_defect_failures()


def _ratio(num, den):
    return num / den if den else 0.0


def layer_row(it: dict, probe) -> dict:
    """Per-layer readings of one traced iteration."""
    plan, serve, fleet = it["plan"], it["serve"], it["fleet"]
    dep = plan["counters"]["deploy"]
    ref = plan["counters"]["refresh"]
    tot = {k: dep[k] + ref[k] for k in dep}
    pred_s = probe.self_s[("plan", "core.predictor")]
    proposed = tot["search.moves.proposed"]
    requests = serve["host_ms"].size
    platform_calls = probe.calls[("serve", "platforms.run")]
    kernel_events = probe.events[("serve", "simcore.kernel")]
    layer = serve["layer"]
    load = serve["load"]
    reg = fleet["registry"]
    fleet_requests = fleet["requests"]
    cost_calls = probe.calls[("fleet", "fleet.placement.cost")]
    fleet_proposed = reg.counter("fleet.place.moves.proposed").value
    row = {
        "core.profiler.busy_s": probe.total_s[("plan", "core.profiler")],
        "core.pgp.self_s": probe.self_s[("plan", "core.pgp")],
        "core.pgp.kl_swaps_evaluated": tot["pgp.kl.swaps.evaluated"],
        "core.pgp.kl_swaps_pruned": tot["pgp.kl.swaps.pruned"],
        "core.predictor.self_s": pred_s,
        "core.predictor.replays": tot["pgp.evals.full"],
        "core.predictor.us_per_replay":
            _ratio(pred_s * 1e6, tot["pgp.evals.full"]),
        "core.search.self_s": probe.self_s[("plan", "core.search")],
        "core.search.moves_proposed": proposed,
        "core.search.accept_ratio":
            _ratio(tot["search.moves.accepted"], proposed),
        "core.search.invalid_ratio":
            _ratio(tot["search.moves.invalid"],
                   proposed + tot["search.moves.invalid"]),
        "core.generator.self_s": probe.self_s[("plan", "core.generator")],
        "simcore.events_per_request": _ratio(kernel_events, platform_calls),
        "simcore.us_per_event":
            _ratio(probe.total_s[("serve", "simcore.kernel")] * 1e6,
                   kernel_events),
        "runtime.gil.handoffs_per_request":
            _ratio(layer["gil_handoffs"], requests),
        "platforms.plain.request_ms":
            statistics.median(serve["kinds_ms"]["plain"]),
        "platforms.armed.request_ms":
            statistics.median(serve["kinds_ms"]["armed"]),
        "faults.injected": layer["faults.injected"],
        "faults.retries": layer["faults.retries"],
        "overload.deadline.expired": layer["overload.deadline.expired"],
        "core.ha.checkpoints": layer["core.ha.checkpoints"],
        "cluster.loadgen.sample_s": serve["times"]["sample_s"],
        "cluster.loadgen.queue_s":
            probe.total_s[("serve", "cluster.loadgen.queue")],
        "cluster.loadgen.events":
            probe.events[("serve", "cluster.loadgen.queue")],
        "overload.admission.shed": load.shed,
        "overload.admission.rejected": load.rejected,
        "overload.admission.expired": load.expired,
        "metrics.stats.self_s": probe.self_s[("serve", "metrics.stats")],
        "fleet.spec.compile_s": probe.total_s[("fleet",
                                               "fleet.spec.compile")],
        "fleet.spec.core_s": probe.layer_self("fleet", "core."),
        "fleet.placement.anneal_s":
            probe.total_s[("fleet", "fleet.placement.anneal")],
        "fleet.placement.moves_proposed": fleet_proposed,
        "fleet.placement.accept_ratio":
            _ratio(reg.counter("fleet.place.moves.accepted").value,
                   fleet_proposed),
        "fleet.placement.cost_evals": cost_calls,
        "fleet.placement.us_per_cost_eval":
            _ratio(probe.total_s[("fleet", "fleet.placement.cost")] * 1e6,
                   cost_calls),
        "fleet.runner.self_s": probe.self_s[("fleet", "fleet.runner")],
        "fleet.runner.jobs": reg.counter("fleet.run.jobs").value,
        "fleet.runner.ns_per_request":
            _ratio(probe.total_s[("fleet", "fleet.runner")] * 1e9,
                   fleet_requests),
        "fleet.runner.sojourn_p99_ms": fleet["report"].sojourn.p99_ms,
        "fleet.runner.goodput_fraction": fleet["report"].goodput_fraction,
        "obs.layers_self_s": probe.layers_self_sum(),
    }
    for label, counts in (("deploy", dep), ("refresh", ref)):
        hits, misses = counts["pgp.cache.hit"], counts["pgp.cache.miss"]
        row[f"core.predictor.cache.{label}.hits"] = hits
        row[f"core.predictor.cache.{label}.misses"] = misses
        row[f"core.predictor.cache.{label}.hit_ratio"] = _ratio(
            hits, hits + misses)
    return row


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_replay") or name.endswith("us_per_event") \
            or name.endswith("us_per_cost_eval"):
        return "us"
    if name.endswith("ns_per_request"):
        return "ns"
    if name.endswith("_ms") or name.endswith(".request_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("ratio", "fraction", "overhead")):
        return "ratio"
    return "count"


def provenance(args, root: Path) -> dict:
    """Where a result came from: commit (or a digest of ``src/`` when the
    checkout is not a git repository), arguments, host and versions."""
    import numpy as np

    commit = None
    if (root / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=30)
            if proc.returncode == 0:
                commit = proc.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "argv": sys.argv[1:],
        "host": host_platform.node(),
        "machine": host_platform.machine(),
        "nproc": os.cpu_count(),
        "python": host_platform.python_version(),
        "numpy": np.__version__,
    }


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        return _fail_usage("--seed must be >= 0 and --seconds > 0")
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        return _fail_usage(f"no src/repro package under {root}; run from "
                           f"the root of a repository checkout")
    sys.path.insert(0, str(root / "src"))

    from layers import Calibrator

    # set-up time is an end-to-end metric: a traced run does not repeat it
    calibrator = Calibrator(0.0 if args.trace
                            else QUIET_SHARE * args.seconds)
    setup = []
    for _ in range(0 if args.trace else SETUP_REPEATS - 1):
        calibrator.settle()
        seconds = setup_once(root, args.workload, args.seed)
        setup.append(seconds * calibrator.scale())
    # the last set-up is this process's own, imports included
    calibrator.settle()
    start = time.process_time()
    pipeline = build_pipeline(args.workload, args.seed)
    setup.append((time.process_time() - start) * calibrator.scale())

    from phases import GateError, Ops
    from repro.obs.export import write_chrome_trace

    ops = Ops()
    try:
        if args.trace:
            untraced, traced, probes = trace(pipeline, ops, args.seconds)
        else:
            runs = measure(pipeline, ops, args.workload, args.seconds,
                           calibrator)
    except GateError as exc:
        print(f"chironbench: correctness check failed: {exc}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(ops.attempted, 1),
                          "failed": ops.failed, "metrics": {}}))
        return 1

    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    info = {"provenance": provenance(args, root)}
    if args.trace:
        info["sim"] = _jsonable(_sims(untraced[0]))
        values = per_layer(untraced, traced, probes)
        values["defects.gil_double_acquire"] = gil_defect_failures(pipeline)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in sorted(values.items())}
        trace_path = out_dir / f"{args.workload}-seed{args.seed}.trace.json"
        # the first traced iteration's spans are the exported trace
        write_chrome_trace(probes[0].tracer, str(trace_path))
        info["trace_file"] = str(trace_path.relative_to(root))
        info["iterations"] = {"untraced": len(untraced),
                              "traced": len(traced)}
    else:
        info["sim"] = _jsonable({name: out[0]["sim"]
                                 for name, out in runs.items()})
        values, info["samples"] = end_to_end(runs, setup)
        # the host's speed: divide a metric by the median scale for its
        # time at that speed
        info["samples"]["calibration"] = {
            "samples": len(calibrator.samples),
            "median_s": _median(calibrator.samples),
            "median_scale": _median(calibrator.scales),
            "waited_s": calibrator.waited_s}
        metrics = {k: {"value": values[k], "unit": unit}
                   for k, unit in END_TO_END.items()}
    missing = sorted(k for k, m in metrics.items()
                     if m["value"] is None or not math.isfinite(m["value"]))
    if missing:
        print(f"chironbench: too many failed ops to measure {missing}",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": ops.attempted,
                          "failed": ops.failed, "metrics": {}}))
        return 1
    info["metrics"] = metrics
    (out_dir / f"{stem}.json").write_text(json.dumps(_jsonable(info),
                                                     indent=1))
    print(json.dumps({"provenance": info["provenance"]}))
    if "samples" in info:
        print(json.dumps({"samples": info["samples"]}))
    for name, m in metrics.items():
        print(f"{name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": True, "attempted": ops.attempted,
                      "failed": ops.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
