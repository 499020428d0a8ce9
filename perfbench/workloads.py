"""The benchmark's four workloads, driven through public entry points.

* ``paper_hours`` — the venue simulator via
  :func:`repro.experiments.parallel.run_specs` (one worker, serial);
* ``shard_city`` — the sharded city via
  :func:`repro.sim.shards.run_sharded` in inline mode;
* ``serve_reads`` / ``serve_writes`` — the ranking service via
  :func:`repro.serve.service.run_stream` and
  :meth:`repro.serve.service.RankingService.submit`, next to a bare
  :meth:`repro.serve.core.RankingCore.handle` loop over the same stream.

Each workload function takes a :class:`Ctx` and returns an
:class:`Outcome`.  With ``ctx.trace`` false it measures the end-to-end
metrics for ``ctx.seconds``; with it true it runs one untraced unit of
work, the same unit again under :class:`~layertrace.LayerTracer`, and
the observability on/off passes, and reports the per-layer metrics.
The program receives only the inputs generated from ``ctx.seed``.
"""

from __future__ import annotations

import asyncio
import dataclasses
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import time
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

import numpy as np
from layertrace import LayerTracer, Wrap

perf = time.perf_counter

# -- metric catalogue --------------------------------------------------------

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_rate": "sim_s/s",
    "probes_per_s": "1/s",
}
"""Reported by every workload in an untraced run (name -> unit)."""

PER_LAYER: Dict[str, str] = {
    "sim.events": "count",
    "sim.heap_pushes": "count",
    "sim.step_self_s": "s",
    "mobility.position_calls": "count",
    "mobility.self_s": "s",
    "geo.grid_moves": "count",
    "geo.grid_queries": "count",
    "geo.self_s": "s",
    "dot11.deliveries": "count",
    "dot11.index_refreshes": "count",
    "dot11.candidates_per_query": "ratio",
    "dot11.recipient_ratio": "ratio",
    "dot11.self_s": "s",
    "dot11.burst_saving": "ratio",
    "devices.receive_calls": "count",
    "devices.scans": "count",
    "devices.self_s": "s",
    "core.bursts": "count",
    "core.ssids_per_burst": "ratio",
    "core.select_self_s": "s",
    "core.hit_ratio": "ratio",
    "core.self_s": "s",
    "experiments.city_build_s": "s",
    "experiments.wigle_build_s": "s",
    "experiments.executor_overhead_s": "s",
    "experiments.self_s": "s",
    "shards.derive_s": "s",
    "shards.phase_a_s": "s",
    "shards.phase_b_s": "s",
    "shards.hunter_s": "s",
    "shards.handoff_records": "count",
    "shards.scans": "count",
    "shards.self_s": "s",
    "stations_per_s": "1/s",
    "stations_per_s.4shards": "1/s",
    "serve.kernel_probes_per_s": "1/s",
    "serve.service_overhead": "ratio",
    "serve.queue_wait_us.p99": "us",
    "serve.commit_wait_us.p99": "us",
    "serve.rank_cache_hit_ratio": "ratio",
    "serve.queue_depth_peak": "count",
    "serve.generator_late_ms": "ms",
    "serve.self_s": "s",
    "latency_p50_us": "us",
    "latency_p99_us": "us",
    "latency_samples": "count",
    "rate_at_slo": "1/s",
    "other_s": "s",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "obs.lineage_overhead": "ratio",
    "obs.trace_overhead": "ratio",
    "obs.profile_overhead": "ratio",
    "obs.heartbeat_overhead": "ratio",
    "obs.epoch_trace_overhead": "ratio",
    "obs.req_trace_overhead": "ratio",
    "obs.bench_tracing_overhead": "ratio",
    "failed_fraction": "ratio",
}
"""Reported by every workload in a traced run; a layer the workload
does not exercise reads 0."""

# -- workload parameters -----------------------------------------------------

CITY_SEED = 42
"""The paper city every plane is built over (the ``RunSpec`` default)."""

PEAK_SLOTS = (
    ("railway_station", 0),
    ("passage", 0),
    ("canteen", 4),
    ("shopping_center", 10),
)
"""Each venue's peak Fig. 5 slot (08:00 rush, 08:00 rush, 12:00 lunch,
18:00 evening)."""

FIG5_BANDS = {
    "passage": (0.08, 0.17),
    "canteen": (0.13, 0.24),
    "shopping_center": (0.09, 0.20),
    "railway_station": (0.10, 0.22),
}
"""The venue-average h_b bands of ``benchmarks/bench_fig5.py``.  A
peak hour is one slot, not the 12-slot average, so a miss is recorded
as a verdict, not counted as a failure."""

FIG5_FIDELITY = "burst"
"""``fig5_all``'s default fidelity."""

OBS_VENUE = "shopping_center"
"""The paper hour the observability on/off rows re-run (the cheapest)."""

OBS_KNOBS = (
    ("obs.lineage_overhead", "REPRO_LINEAGE", "1"),
    ("obs.trace_overhead", "REPRO_TRACE", "1"),
    ("obs.profile_overhead", "REPRO_PROFILE", "1"),
    ("obs.heartbeat_overhead", "REPRO_HEARTBEAT", "0.5"),
)

SHARD_EPOCH_S = 2.0

SERVE_CLIENTS = 100
SERVE_VENUE = "canteen"
SERVE_POOL = 60
"""Direct probes and feedback name SSIDs from the WiGLE head."""

SERVE_MIXES = {
    "serve_reads": (0.08, 0.04),
    "serve_writes": (0.30, 0.20),
}
"""(direct-probe share, feedback share) of each serving stream."""

OPEN_LOOP_RATE = 4_000.0
OPEN_LOOP_S = 1.0
"""The fixed-rate open-loop pass offers the stream's first
``OPEN_LOOP_RATE * OPEN_LOOP_S`` events at ``OPEN_LOOP_RATE``/s."""

SLO_P99_US = 20_000.0
"""Latency limit for ``rate_at_slo``: p99 from due time to commit."""

RATE_LADDER = (
    2_000, 4_000, 6_000, 8_000, 10_000, 12_000, 14_000, 16_000, 18_000,
    20_000, 22_000, 24_000, 26_000, 28_000, 30_000, 33_000, 36_000,
    40_000, 45_000, 50_000, 60_000, 70_000, 80_000,
)
"""Fixed offered rates (events/s) climbed until one misses the limit."""


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; :data:`SMALL` is the quick variant the tests use."""

    hour_s: float = 3600.0
    shard_stations: int = 4000
    shard_sensors: int = 400
    shard_size_m: float = 2400.0
    shard_duration_s: float = 240.0
    serve_events: int = 16_000
    ladder_window_s: float = 0.5
    setup_repeats: int = 3


FULL = Sizes()
SMALL = Sizes(
    hour_s=240.0,
    shard_stations=400,
    shard_sensors=40,
    shard_size_m=960.0,
    shard_duration_s=40.0,
    serve_events=2_000,
    ladder_window_s=0.1,
    setup_repeats=2,
)


@dataclasses.dataclass
class Ctx:
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes = FULL


class Outcome:
    """What one run measured and checked."""

    def __init__(self) -> None:
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.checks: List[Tuple[str, bool, str]] = []
        self.notes: List[str] = []
        self.trace_doc: Optional[dict] = None

    def check(self, name: str, ok: bool, detail: str = "", weight: int = 1) -> bool:
        """Record a correctness check; a miss fails ``weight`` operations."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += weight
        return bool(ok)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(ok for _, ok, _ in self.checks)


# -- shared helpers ----------------------------------------------------------


def median(values) -> float:
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return kib / 1024.0


REF_NOMINAL_S = 0.1
"""Calibrated seconds are host seconds rescaled to a host on which the
reference loop takes this long."""


def _reference_python() -> None:
    table: Dict[str, float] = {}
    rows = []
    for i in range(120_000):
        key = "k%d" % (i & 4095)
        table[key] = table.get(key, 0.0) + math.sqrt(i)
        if i % 3 == 0:
            rows.append((key, (i * 7919) % 10007))
    rows.sort(key=lambda row: row[1])


def _reference_numpy() -> None:
    xs = np.linspace(0.0, 2400.0, 4000)
    ys = np.linspace(0.0, 2400.0, 400)
    for _ in range(6):
        dx = xs[:, None] - ys[None, :]
        dy = ys[None, :] - xs[:, None]
        int(((dx * dx + dy * dy) <= 3600.0).sum())


REFERENCES = {"python": _reference_python, "numpy": _reference_numpy}
"""Reference loops by the kind of work they stand in for: interpreter
work (venue simulator, service) or dense array work (sharded city)."""


def reference_s(kind: str = "python") -> float:
    """Wall time of a fixed reference loop, with the collector off.

    The loops run no program code, so their time only says how fast
    this host runs that kind of work at this moment.
    """
    loop = REFERENCES[kind]
    gc.disable()
    try:
        t0 = perf()
        loop()
        return perf() - t0
    finally:
        gc.enable()


def _measure(fn, kind: str = "python"):
    """Run ``fn()`` between two samples of the ``kind`` reference loop.

    Returns (result, wall, calibrated wall).  Shared hosts drift in speed
    by tens of percent over tens of seconds; a reference loop of the same
    kind of work drifts with them, so the end-to-end metrics use the
    calibrated wall.
    """
    gc.collect()
    before = reference_s(kind)
    t0 = perf()
    result = fn()
    wall = perf() - t0
    after = reference_s(kind)
    return result, wall, wall * 2.0 * REF_NOMINAL_S / (before + after)


def _units(label: str, values) -> str:
    return "%s (%d): %s" % (label, len(values), " ".join("%.5g" % v for v in values))


def _digest(payload) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@contextmanager
def _env(var: str, value: str):
    """Set one observability knob for the duration of a block."""
    os.environ[var] = value
    try:
        yield
    finally:
        os.environ.pop(var, None)


def _ssids_out(result, args) -> int:
    return len(result)


def _frames_in(result, args) -> int:
    return len(args[1])  # receive_burst(self, responses, time, spacing)


def wrap_plan() -> List[Wrap]:
    """Every public function the traced run wraps, with its layer."""
    import repro.sim.shards as shards_pkg
    from repro.core import hunter as core_hunter
    from repro.core.hunter import CityHunter
    from repro.devices.phone import Phone
    from repro.dot11.medium import Medium
    from repro.experiments import parallel
    from repro.geo.grid import MutableSpatialGrid
    from repro.mobility.base import PathMobility
    from repro.serve import core as serve_core
    from repro.serve import service as serve_service
    from repro.serve.core import RankingCore
    from repro.serve.service import RankingService
    from repro.sim.scheduler import Scheduler
    from repro.sim.shards import shard as shard_mod
    from repro.sim.shards.attacker import LiteHunter
    from repro.sim.shards.shard import ShardRuntime
    from repro.sim.simulation import Simulation

    return [
        Wrap(PathMobility, "position_at", "mobility"),
        Wrap(MutableSpatialGrid, "move", "geo"),
        Wrap(MutableSpatialGrid, "candidates", "geo"),
        Wrap(Medium, "transmit", "dot11", keep="media"),
        Wrap(Medium, "transmit_response_burst", "dot11", keep="media"),
        Wrap(Phone, "receive", "devices"),
        Wrap(Phone, "receive_burst", "devices", size=_frames_in),
        Wrap(core_hunter, "select_for_client", "core",
             name="select_for_client", size=_ssids_out),
        Wrap(serve_core, "select_for_client", "core",
             name="select_for_client.serve", size=_ssids_out),
        Wrap(CityHunter, "on_broadcast_probe", "core"),
        Wrap(CityHunter, "on_direct_probe", "core"),
        Wrap(CityHunter, "on_hit", "core"),
        Wrap(parallel, "default_city", "experiments", kind="span"),
        Wrap(parallel, "shared_wigle", "experiments", kind="span"),
        Wrap(parallel, "run_specs", "experiments", kind="span"),
        Wrap(parallel, "execute_spec", "experiments", kind="span"),
        Wrap(Simulation, "run", "sim"),
        Wrap(Scheduler, "schedule_at", "sim", kind="count"),
        Wrap(shards_pkg, "run_sharded", "shards", kind="span"),
        Wrap(shard_mod, "derive_walkers", "shards", kind="span"),
        Wrap(ShardRuntime, "run_phase_a", "shards"),
        Wrap(ShardRuntime, "run_phase_b", "shards"),
        Wrap(LiteHunter, "burst_for", "shards"),
        Wrap(LiteHunter, "feedback", "shards"),
        Wrap(RankingCore, "handle", "serve"),
        Wrap(RankingService, "submit", "serve"),
        Wrap(serve_service, "run_stream", "serve", kind="span"),
    ]


@contextmanager
def traced(tracer: LayerTracer):
    """Install the wrap plan plus the scheduler profiler; always restore."""
    from repro.obs.profiler import SimProfiler

    tracer.install(wrap_plan(), profiler_cls=SimProfiler)
    try:
        with _env("REPRO_PROFILE", "1"):
            yield tracer
    finally:
        tracer.restore()


def _setup_repeats(ctx: Ctx) -> int:
    """A traced run times set-up once; its budget goes to the traced pass."""
    return 1 if ctx.trace else ctx.sizes.setup_repeats


def _layer_metrics(out: Outcome, tracer: LayerTracer, wall: float) -> None:
    """The per-layer counts and self times every plane shares."""
    selfs = tracer.layer_self()
    m = out.metrics
    m["sim.events"] = sum(c[0] for c in tracer.handlers.values())
    m["sim.heap_pushes"] = tracer.count("Scheduler.schedule_at")
    m["sim.step_self_s"] = selfs["sim"]
    m["mobility.position_calls"] = tracer.count("PathMobility.position_at")
    m["mobility.self_s"] = selfs["mobility"]
    m["geo.grid_moves"] = tracer.count("MutableSpatialGrid.move")
    m["geo.grid_queries"] = tracer.count("MutableSpatialGrid.candidates")
    m["geo.self_s"] = selfs["geo"]
    media = list(tracer.kept.get("media", {}).values())
    deliveries = sum(md.frames_delivered for md in media)
    candidates = sum(md.index_candidates for md in media)
    queries = sum(md.index_queries for md in media)
    burst_frames = tracer.items("Phone.receive_burst")
    m["dot11.deliveries"] = deliveries
    m["dot11.index_refreshes"] = sum(md.index_refreshes for md in media)
    m["dot11.candidates_per_query"] = candidates / queries if queries else 0.0
    m["dot11.recipient_ratio"] = (
        (deliveries - burst_frames) / candidates if candidates else 0.0
    )
    m["dot11.self_s"] = selfs["dot11"]
    m["devices.receive_calls"] = tracer.count("Phone.receive") + tracer.count(
        "Phone.receive_burst"
    )
    m["devices.scans"] = tracer.handler_count("Phone._do_scan")
    m["devices.self_s"] = selfs["devices"]
    bursts = tracer.count("select_for_client") + tracer.count(
        "select_for_client.serve"
    )
    ssids = tracer.items("select_for_client") + tracer.items(
        "select_for_client.serve"
    )
    m["core.bursts"] = bursts
    m["core.ssids_per_burst"] = ssids / bursts if bursts else 0.0
    m["core.select_self_s"] = tracer.self_time("select_for_client") + (
        tracer.self_time("select_for_client.serve")
    )
    m["core.self_s"] = selfs["core"]
    m["experiments.city_build_s"] = tracer.total("parallel.default_city")
    m["experiments.wigle_build_s"] = tracer.total("parallel.shared_wigle")
    m["experiments.executor_overhead_s"] = (
        tracer.total("parallel.run_specs") - tracer.total("parallel.execute_spec")
        if tracer.count("parallel.run_specs")
        else 0.0
    )
    m["experiments.self_s"] = selfs["experiments"]
    m["shards.derive_s"] = tracer.total("shard.derive_walkers")
    m["shards.phase_a_s"] = tracer.total("ShardRuntime.run_phase_a")
    m["shards.phase_b_s"] = tracer.total("ShardRuntime.run_phase_b")
    m["shards.hunter_s"] = tracer.total("LiteHunter.burst_for") + tracer.total(
        "LiteHunter.feedback"
    )
    m["shards.self_s"] = selfs["shards"]
    m["serve.self_s"] = selfs["serve"]
    accounted = sum(v for k, v in selfs.items() if k != "other")
    m["other_s"] = wall - accounted
    m["traced_wall_s"] = wall
    out.check(
        "layer self times plus other account for the traced wall",
        min(selfs[k] for k in selfs if k != "other") >= -1e-6
        and m["other_s"] >= -1e-6,
        "other %.4f s of %.4f s" % (m["other_s"], wall),
    )


def _restored_check(out: Outcome, tracer: LayerTracer) -> None:
    leftover = tracer.unrestored()
    out.check("every wrapped function restored", not leftover, ", ".join(leftover))


def _finish_trace(out: Outcome, tracer: LayerTracer, untraced_wall: float) -> None:
    wall = out.metrics["traced_wall_s"]
    out.metrics["untraced_wall_s"] = untraced_wall
    out.metrics["obs.bench_tracing_overhead"] = (
        wall / untraced_wall - 1.0 if untraced_wall > 0 else 0.0
    )
    out.trace_doc = tracer.to_dict()
    out.trace_doc["layers_self_s"] = tracer.layer_self()


# -- paper_hours -------------------------------------------------------------


def _paper_specs(seed: int, sizes: Sizes, fidelity: str = FIG5_FIDELITY):
    """One peak hour per venue, seeded like ``fig5_all`` (seed + 1000 x slot)."""
    from repro.experiments.calibration import venue_profile
    from repro.experiments.parallel import RunSpec

    # Pass the fidelity only while RunSpec still has the field, so the
    # workload outlives the planned removal of the frame/burst split.
    has_fidelity = "fidelity" in RunSpec.__dataclass_fields__
    specs = []
    for venue, slot in PEAK_SLOTS:
        profile = venue_profile(venue)
        extra = {"fidelity": fidelity} if has_fidelity else {}
        specs.append(
            RunSpec(
                attacker="cityhunter",
                venue=venue,
                seed=seed + 1000 * slot,
                duration=sizes.hour_s,
                people_per_min=profile.hourly_people_per_min.rate_for_slot(slot),
                rush=slot in profile.rush_slots,
                city_seed=CITY_SEED,
                tag="fig5:%s:%d" % (venue, slot),
                **extra,
            )
        )
    return specs


def _build_city(then=None) -> Tuple[float, float]:
    """Cold city + WiGLE build through the executor's own call sites,
    followed by ``then()`` when given; (wall, calibrated wall)."""
    from repro.experiments import calibration, parallel, runner

    def build():
        parallel.default_city(CITY_SEED)
        parallel.shared_wigle(CITY_SEED)
        if then is not None:
            then()

    calibration.default_city.cache_clear()
    runner.shared_wigle.cache_clear()
    _, wall, calibrated = _measure(build)
    return wall, calibrated


def _batch(specs) -> Tuple[list, float, List[float]]:
    """Run ``specs`` serially, one ``run_specs`` call each, so a
    reference sample sits between hours.

    Returns (results, wall, calibrated wall of each spec).
    """
    from repro.experiments import parallel

    results, wall, calibrated = [], 0.0, []
    for spec in specs:
        done, w, c = _measure(
            lambda: parallel.run_specs([spec], workers=1, retries=0)
        )
        results.extend(done)
        wall += w
        calibrated.append(c)
    return results, wall, calibrated


def _batch_digest(results) -> str:
    from repro.experiments.parallel import metrics_doc
    from repro.obs.golden import metrics_digest

    return metrics_digest(metrics_doc(results, workers=1))


def _summary_digest(results) -> str:
    """Session outcomes only: invariant under every observe-only knob."""
    rows = []
    for r in results:
        if r.failed:
            rows.append([r.spec.tag, "failed"])
            continue
        rows.append(
            [
                r.spec.tag,
                r.spec.seed,
                dataclasses.asdict(r.summary),
                dataclasses.asdict(r.source),
                dataclasses.asdict(r.buffers),
                r.people_spawned,
            ]
        )
    return _digest(rows)


def _probes(result) -> int:
    counters = (result.metrics or {}).get("counters", {})
    return int(sum(v for k, v in counters.items() if k.startswith("attacker.probes")))


def _check_paper_batch(out: Outcome, results) -> None:
    out.attempted += len(results)
    for r in results:
        if r.failed:
            out.check("%s completed" % r.spec.tag, False, r.error)
            continue
        out.check(
            "%s h >= h_b > 0" % r.spec.tag,
            r.h >= r.h_b and r.h_b > 0,
            "h=%.4f h_b=%.4f" % (r.h, r.h_b),
        )


def _band_verdicts(out: Outcome, results) -> None:
    for r in results:
        if r.failed:
            continue
        lo, hi = FIG5_BANDS[r.spec.venue]
        verdict = "in band" if lo < r.h_b < hi else "outside band"
        out.notes.append(
            "band %s: h_b=%.1f%% %s (%.0f%%, %.0f%%) [h=%.1f%%, clients=%d]"
            % (r.spec.tag, 100 * r.h_b, verdict, 100 * lo, 100 * hi,
               100 * r.h, r.summary.total_clients)
        )


def _repeat_check(out: Outcome, results, digests: List[str]) -> None:
    """Digests must repeat; with one batch, re-run the cheapest hour."""
    if len(digests) > 1:
        out.check(
            "batch digests identical across %d repeats" % len(digests),
            len(set(digests)) == 1,
            weight=sum(len(results) for _ in digests[1:]),
        )
        return
    mall = next(r for r in results if r.spec.venue == OBS_VENUE)
    again, _, _ = _batch([mall.spec])
    out.attempted += 1
    out.check(
        "%s digest identical on repeat" % mall.spec.tag,
        not again[0].failed and _batch_digest(again) == _batch_digest([mall]),
    )


def paper_hours(ctx: Ctx) -> Outcome:
    out = Outcome()
    setups = [_build_city() for _ in range(_setup_repeats(ctx))]
    specs = _paper_specs(ctx.seed, ctx.sizes)
    if ctx.trace:
        return _paper_traced(ctx, out, specs, median(w for w, _ in setups))
    rates, probe_rates, digests, raw = [], [], [], []
    deadline = perf() + ctx.seconds
    while True:
        results, wall, per_spec = _batch(specs)
        calibrated = sum(per_spec)
        _check_paper_batch(out, results)
        done = [r for r in results if not r.failed]
        sim_s = sum(r.duration for r in done)
        rates.append(sim_s / calibrated)
        raw.append(sim_s / wall)
        probe_rates.append(sum(_probes(r) for r in done) / calibrated)
        digests.append(_batch_digest(results))
        if perf() >= deadline:
            break
    _repeat_check(out, results, digests)
    _band_verdicts(out, results)
    out.notes.append(_units("sim_rate per batch", rates))
    out.notes.append(_units("uncalibrated sim_rate per batch", raw))
    out.metrics.update(
        setup_s=median(c for _, c in setups),
        sim_rate=median(rates),
        probes_per_s=median(probe_rates),
    )
    return out


def _obs_rows(out: Outcome, spec) -> None:
    """Observability knob on/off rows over one cheap paper hour."""
    base_results, _, (base1,) = _batch([spec])
    base = _summary_digest(base_results)
    rows = []
    for metric, var, value in OBS_KNOBS:
        with _env(var, value):
            results, _, (wall,) = _batch([spec])
        out.check(
            "%s leaves %s outcomes unchanged" % (var, spec.tag),
            _summary_digest(results) == base,
        )
        rows.append((metric, wall))
    _, _, (base2,) = _batch([spec])
    out.attempted += 2 + len(rows)
    floor = min(base1, base2)
    for metric, wall in rows:
        out.metrics[metric] = wall / floor - 1.0


def _paper_traced(ctx: Ctx, out: Outcome, specs, setup_s: float) -> Outcome:
    results, wall, per_spec = _batch(specs)
    _check_paper_batch(out, results)
    _band_verdicts(out, results)
    untraced_digest = _batch_digest(results)
    untraced_wall = setup_s + wall

    tracer = LayerTracer()
    with traced(tracer):
        with tracer.span("traced"):
            _build_city()
            traced_results, _, _ = _batch(specs)
    _restored_check(out, tracer)
    out.attempted += len(traced_results)
    out.check(
        "traced batch digest equals untraced",
        _batch_digest(traced_results) == untraced_digest,
        weight=len(traced_results),
    )
    _layer_metrics(out, tracer, tracer.total("traced"))
    done = [r for r in traced_results if not r.failed]
    clients = sum(r.summary.total_clients for r in done)
    connected = sum(
        r.summary.connected_direct + r.summary.connected_broadcast for r in done
    )
    out.metrics["core.hit_ratio"] = connected / clients if clients else 0.0
    _finish_trace(out, tracer, untraced_wall)

    _obs_rows(out, next(s for s in specs if s.venue == OBS_VENUE))
    if "fidelity" in type(specs[0]).__dataclass_fields__:
        # specs[0] is the station hour; compare calibrated walls.
        burst_wall = per_spec[0]
        frame, _, (frame_wall,) = _batch(
            [dataclasses.replace(specs[0], fidelity="frame")]
        )
        out.attempted += 1
        if out.check("frame-fidelity station hour completed", not frame[0].failed):
            out.metrics["dot11.burst_saving"] = 1.0 - burst_wall / frame_wall
            out.notes.append(
                "station hour, calibrated: frame %.2f s, burst %.2f s"
                % (frame_wall, burst_wall)
            )
    return out


# -- shard_city --------------------------------------------------------------


def _shard_scenario(seed: int, sizes: Sizes):
    from repro.sim.shards import ShardScenario

    return ShardScenario(
        stations=sizes.shard_stations,
        sensors=sizes.shard_sensors,
        duration=sizes.shard_duration_s,
        seed=seed,
        size_m=sizes.shard_size_m,
        epoch_s=SHARD_EPOCH_S,
    )


def _shard_run(scenario, shards: int, **kwargs):
    """One inline run: (result, epoch-loop wall, wall outside the loop,
    calibration factor)."""
    import repro.sim.shards as shards_pkg

    result, wall, calibrated = _measure(
        lambda: shards_pkg.run_sharded(
            scenario, shards=shards, mode="inline", collect_states=True,
            **kwargs,
        ),
        kind="numpy",
    )
    loop = result.wall_phase_s + result.wall_handoff_s
    return result, loop, wall - loop, calibrated / wall


def _shard_pair(out: Outcome, scenario, reference: Optional[str]):
    """A 1-shard and a 4-shard run; loop and set-up walls calibrated."""
    one, loop1, setup1, k1 = _shard_run(scenario, 1)
    four, loop4, setup4, k4 = _shard_run(scenario, 4)
    out.attempted += 2
    digest = one.digest()
    out.check(
        "4-shard digest equals 1-shard digest",
        four.digest() == digest,
        "%s vs %s" % (four.digest()[:12], digest[:12]),
    )
    if reference is not None:
        out.check("1-shard digest identical on repeat", digest == reference)
    return one, four, loop1 * k1, loop4 * k4, setup1 * k1 + setup4 * k4


def shard_city(ctx: Ctx) -> Outcome:
    out = Outcome()
    scenario = _shard_scenario(ctx.seed, ctx.sizes)
    if ctx.trace:
        return _shard_traced(ctx, out, scenario)
    rates, probe_rates, setups = [], [], []
    reference = None
    deadline = perf() + ctx.seconds
    while True:
        one, _, loop1, _, setup = _shard_pair(out, scenario, reference)
        reference = one.digest()
        rates.append(scenario.duration / loop1)
        probe_rates.append(one.summary["probes"] / loop1)
        setups.append(setup)
        if perf() >= deadline:
            break
    out.notes.append(_units("sim_rate per 1+4 shard pair", rates))
    out.notes.append(_units("probes_per_s per pair", probe_rates))
    out.metrics.update(
        setup_s=median(setups),
        sim_rate=median(rates),
        probes_per_s=median(probe_rates),
    )
    return out


def _handoff_records(result) -> int:
    counters = result.metrics.get("counters", {})
    return int(
        sum(
            counters.get(k, 0)
            for k in (
                "shardops.migrations_out",
                "shardsim.probes",
                "shardsim.feedbacks",
                "shardsim.offers",
            )
        )
    )


def _shard_traced(ctx: Ctx, out: Outcome, scenario) -> Outcome:
    one, four, loop1, loop4, _ = _shard_pair(out, scenario, None)
    steps = scenario.stations * one.epochs
    out.metrics["stations_per_s"] = steps / loop1
    out.metrics["stations_per_s.4shards"] = steps / loop4
    out.metrics["core.hit_ratio"] = one.summary["connected"] / max(
        1, one.summary["probed"]
    )
    out.metrics["shards.scans"] = one.summary["scans"]
    t0 = perf()
    _shard_pair(out, scenario, one.digest())
    untraced_wall = perf() - t0

    tracer = LayerTracer()
    with traced(tracer):
        with tracer.span("traced"):
            t_one, t_four, _, _, _ = _shard_pair(out, scenario, one.digest())
    _restored_check(out, tracer)
    out.check(
        "traced digests equal untraced",
        t_one.digest() == one.digest() and t_four.digest() == one.digest(),
    )
    _layer_metrics(out, tracer, tracer.total("traced"))
    out.metrics["shards.handoff_records"] = _handoff_records(
        t_one
    ) + _handoff_records(t_four)
    _finish_trace(out, tracer, untraced_wall)

    traced_four, loop_traced, _, k = _shard_run(scenario, 4, epoch_trace=True)
    out.attempted += 1
    out.check(
        "epoch trace leaves the 4-shard digest unchanged",
        traced_four.digest() == one.digest(),
    )
    out.metrics["obs.epoch_trace_overhead"] = loop_traced * k / loop4 - 1.0
    return out


# -- serve_reads / serve_writes ----------------------------------------------


class _StampedCore:
    """Forwards to a RankingCore; stamps when each event's commit ends.

    The service commits events one at a time in ingress order, so the
    i-th stamp belongs to the i-th event offered.
    """

    def __init__(self, core) -> None:
        self._core = core
        self.done: List[float] = []

    def handle(self, event):
        decision = self._core.handle(event)
        self.done.append(perf())
        return decision

    def __getattr__(self, name):
        return getattr(self._core, name)


class ServeSetup:
    """City, WiGLE head, stream and a factory for freshly seeded cores."""

    def __init__(self, ctx: Ctx, workload: str) -> None:
        from repro.experiments import calibration, parallel
        from repro.serve.core import RankingCore
        from repro.serve.events import ProbeEvent
        from repro.serve.workload import synthetic_stream
        from repro.wigle.queries import top_ssids_by_count

        def seed_core():
            city = parallel.default_city(CITY_SEED)
            wigle = parallel.shared_wigle(CITY_SEED)
            venue = calibration.venue_profile(SERVE_VENUE).venue_name
            position = city.venue(venue).region.center
            self._args = (wigle, city.heatmap, position)
            return RankingCore.seeded(*self._args, seed=ctx.seed)

        builds = [_build_city(then=seed_core) for _ in range(_setup_repeats(ctx))]
        self.setup_wall = median(w for w, _ in builds)
        self.setup_calibrated = median(c for _, c in builds)
        wigle = self._args[0]
        self._seed = ctx.seed
        direct, feedback = SERVE_MIXES[workload]
        pool = [s for s, _ in top_ssids_by_count(wigle, SERVE_POOL)]
        self.events = synthetic_stream(
            SERVE_CLIENTS,
            ctx.sizes.serve_events,
            seed=ctx.seed,
            direct_share=direct,
            feedback_share=feedback,
            ssid_pool=pool,
        )
        self.probes = sum(1 for e in self.events if isinstance(e, ProbeEvent))
        last = self.events[-1].time
        self.stream_s = last + last / max(1, len(self.events) - 1)

    def core(self):
        from repro.serve.core import RankingCore

        return RankingCore.seeded(*self._args, seed=self._seed)


def _kernel_pass(setup: ServeSetup, events=None):
    """The bare kernel loop: (decision digest, wall, core)."""
    from repro.serve.events import decisions_digest

    events = setup.events if events is None else events
    core = setup.core()
    handle = core.handle
    gc.collect()
    t0 = perf()
    decisions = [d for d in map(handle, events) if d is not None]
    wall = perf() - t0
    return decisions_digest(decisions), wall, core


def _service_pass(setup: ServeSetup, **kwargs):
    from repro.serve import service as serve_service
    from repro.serve.events import decisions_digest

    core = setup.core()
    service, wall, calibrated = _measure(
        lambda: serve_service.run_stream(core, setup.events, **kwargs)
    )
    return decisions_digest(service.decisions), wall, service, calibrated


async def _open_loop_drive(service, events, rate: float):
    due: List[float] = []
    late: List[float] = []
    await service.start()
    try:
        start = perf() + 0.001
        for i, event in enumerate(events):
            t_due = start + i / rate
            wait = t_due - perf()
            if wait > 0:
                await asyncio.sleep(wait)
            due.append(t_due)
            late.append(perf() - t_due)
            await service.submit(event)
        await service.drain()
    finally:
        await service.stop()
    service.finish()
    return due, late


def _open_loop(setup: ServeSetup, rate: float, events=None):
    """Offer ``events`` at ``rate``/s from one asyncio producer.

    Each event's latency runs from its due time to the end of its
    commit.  Returns (decision digest, latencies in us, producer
    lateness in ms, service).
    """
    from repro.serve.events import decisions_digest
    from repro.serve.service import RankingService

    events = setup.events if events is None else events
    stamped = _StampedCore(setup.core())
    service = RankingService(stamped)
    gc.collect()
    due, late = asyncio.run(_open_loop_drive(service, events, rate))
    done = stamped.done
    latencies = [(done[i] - due[i]) * 1e6 for i in range(min(len(done), len(due)))]
    late_ms = [x * 1e3 for x in late]
    return decisions_digest(service.decisions), latencies, late_ms, service


def serve_workload(name: str):
    def run(ctx: Ctx) -> Outcome:
        return _serve(ctx, name)

    run.__name__ = name
    return run


def _serve_round(out: Outcome, setup: ServeSetup, reference: Optional[str]):
    n = len(setup.events)
    k_digest, k_wall, _ = _kernel_pass(setup)
    s_digest, s_wall, service, s_cal = _service_pass(setup)
    head = setup.events[: int(OPEN_LOOP_RATE * OPEN_LOOP_S)]
    h_digest, _, _ = _kernel_pass(setup, head)
    o_digest, latencies, late_ms, o_service = _open_loop(
        setup, OPEN_LOOP_RATE, head
    )
    out.attempted += 2 * n + len(head)
    for svc in (service, o_service):
        failed = svc.shed_total() + svc.metrics.counter_value("serve.events_failed")
        out.check("no event shed or failed", failed == 0, weight=int(failed))
    out.check("service digest equals bare kernel", s_digest == k_digest, weight=n)
    out.check(
        "open-loop digest equals bare kernel", o_digest == h_digest,
        weight=len(head),
    )
    if reference is not None:
        out.check("kernel digest identical on repeat", k_digest == reference, weight=n)
    return k_digest, k_wall, (s_wall, s_cal), service, (latencies, late_ms)


def _serve(ctx: Ctx, name: str) -> Outcome:
    out = Outcome()
    setup = ServeSetup(ctx, name)
    if ctx.trace:
        return _serve_traced(ctx, out, setup)
    rates, raw, sim_rates, lat = [], [], [], []
    reference = None
    deadline = perf() + ctx.seconds
    while True:
        reference, _, (s_wall, s_cal), _, (latencies, _) = _serve_round(
            out, setup, reference
        )
        rates.append(setup.probes / s_cal)
        raw.append(setup.probes / s_wall)
        sim_rates.append(setup.stream_s / s_cal)
        lat.extend(latencies)
        if perf() >= deadline:
            break
    out.notes.append(_units("probes_per_s per round", rates))
    out.notes.append(_units("uncalibrated probes_per_s per round", raw))
    out.notes.append(
        "open loop at %.0f events/s: p50 %.0f us, p99 %.0f us over %d samples"
        % (OPEN_LOOP_RATE, np.percentile(lat, 50), np.percentile(lat, 99),
           len(lat))
    )
    out.metrics.update(
        setup_s=setup.setup_calibrated,
        sim_rate=median(sim_rates),
        probes_per_s=median(rates),
    )
    return out


def _rung_ok(latencies: List[float]) -> bool:
    """p99 within the limit, and no backlog growing through the run."""
    if not latencies:
        return False
    tenth = max(1, len(latencies) // 10)
    first = float(np.median(latencies[:tenth]))
    last = float(np.median(latencies[-tenth:]))
    return (
        float(np.percentile(latencies, 99)) <= SLO_P99_US
        and last <= 2.0 * first + 500.0
    )


def _rate_at_slo(out: Outcome, setup: ServeSetup, window_s: float) -> float:
    best = 0.0
    for rate in RATE_LADDER:
        n = min(len(setup.events), max(1000, int(rate * window_s)))
        _, latencies, _, _ = _open_loop(setup, rate, setup.events[:n])
        out.attempted += n
        if not _rung_ok(latencies):
            out.notes.append(
                "rate ladder: %d/s missed (p99 %.0f us)"
                % (rate, np.percentile(latencies, 99))
            )
            break
        best = float(rate)
    return best


def _serve_traced(ctx: Ctx, out: Outcome, setup: ServeSetup) -> Outcome:
    from repro.obs.registry import estimate_percentile

    t0 = perf()
    k_digest, k_wall, (s_wall, s_cal), service, (lat, late_ms) = _serve_round(
        out, setup, None
    )
    m = out.metrics
    m["serve.kernel_probes_per_s"] = setup.probes / k_wall
    m["serve.service_overhead"] = s_wall / k_wall
    for stage in ("queue_wait", "commit_wait"):
        hist = service.metrics.histogram("serve.%s_us" % stage)
        m["serve.%s_us.p99" % stage] = (
            estimate_percentile(hist, 99) or 0.0 if hist else 0.0
        )
    stats = service.core.stats()
    lookups = stats["rank_cache_hits"] + stats["rank_cache_misses"]
    m["serve.rank_cache_hit_ratio"] = (
        stats["rank_cache_hits"] / lookups if lookups else 0.0
    )
    m["serve.queue_depth_peak"] = service.metrics.gauge_value(
        "serve.queue_depth_peak"
    ) or 0.0
    m["latency_p50_us"] = float(np.percentile(lat, 50))
    m["latency_p99_us"] = float(np.percentile(lat, 99))
    m["latency_samples"] = len(lat)
    m["serve.generator_late_ms"] = float(np.percentile(late_ms, 99))
    from repro.analysis.metrics import summarize

    m["core.hit_ratio"] = summarize(service.core.session).hit_rate
    untraced_wall = setup.setup_wall + k_wall + s_wall
    m["rate_at_slo"] = _rate_at_slo(out, setup, ctx.sizes.ladder_window_s)

    tracer = LayerTracer()
    with traced(tracer):
        with tracer.span("traced"):
            _build_city()
            setup.core()
            t_k, _, _ = _kernel_pass(setup)
            t_s, _, _, _ = _service_pass(setup)
    _restored_check(out, tracer)
    out.attempted += 2 * len(setup.events)
    out.check(
        "traced digests equal untraced",
        t_k == k_digest and t_s == k_digest,
        weight=2 * len(setup.events),
    )
    _layer_metrics(out, tracer, tracer.total("traced"))
    _finish_trace(out, tracer, untraced_wall)

    r_digest, _, _, r_cal = _service_pass(setup, req_trace=True)
    out.attempted += len(setup.events)
    out.check(
        "request tracing leaves the decision digest unchanged",
        r_digest == k_digest,
        weight=len(setup.events),
    )
    m["obs.req_trace_overhead"] = r_cal / s_cal - 1.0
    out.notes.append("traced pass total %.1f s" % (perf() - t0))
    return out


WORKLOADS = {
    "paper_hours": paper_hours,
    "shard_city": shard_city,
    "serve_reads": serve_workload("serve_reads"),
    "serve_writes": serve_workload("serve_writes"),
}
