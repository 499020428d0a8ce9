"""District-sharded city: RNG, partition, SoA and engine invariance.

The contract under test is the tentpole of the sharding PR: a
:class:`~repro.sim.shards.scenario.ShardScenario` produces the exact
same result — ``shardsim.*`` metrics, walker rows, hunter states, and
therefore :meth:`~repro.sim.shards.engine.ShardRunResult.digest` — at
any shard count, with either array backend, in either execution mode.
Everything here runs small scenarios (seconds, not minutes); the
golden-scale pins live in ``test_shard_golden.py``.
"""

import json
import math
import os
import pathlib
import sys

import numpy as np
import pytest

from repro.geo.grid import DistrictPartition
from repro.obs.artifacts import ARTIFACT_DIR_ENV
from repro.sim.clock import epoch_schedule
from repro.sim.shards import (
    SHARD_MODE_ENV,
    SHARDS_ENV,
    ShardScenario,
    resolve_shard_mode,
    resolve_shards,
    run_sharded,
)
from repro.sim.shards.attacker import LiteHunter
from repro.sim.shards.scenario import derive_sensors, derive_walkers
from repro.sim.shards.soa import BACKEND_ENV, resolve_backend
from repro.sim.shards.srng import stream_base, u01, u01_vec

# Sized so shard seams see real traffic: walkers cover up to ~324 m in
# the duration, crossing interior stripe boundaries at 2+ shards.
SMALL = ShardScenario(
    stations=80,
    sensors=10,
    duration=180.0,
    seed=13,
    size_m=360.0,
)


@pytest.fixture(scope="module")
def small_result():
    """The 1-shard reference run of the small scenario."""
    return run_sharded(SMALL, shards=1)


# -- stateless RNG --------------------------------------------------------


class TestStatelessRng:
    def test_scalar_in_unit_interval_and_deterministic(self):
        base = stream_base(7, "walker")
        draws = [u01(base, i, c) for i in range(50) for c in range(4)]
        assert all(0.0 <= d < 1.0 for d in draws)
        assert draws == [u01(base, i, c) for i in range(50) for c in range(4)]

    def test_vector_bit_identical_to_scalar(self):
        base = stream_base(99, "walker")
        ids = np.arange(500, dtype=np.uint64)
        for counter in (0, 1, 7, 12345):
            vec = u01_vec(base, ids, counter)
            scalar = np.array([u01(base, int(i), counter) for i in ids])
            assert (vec == scalar).all()

    def test_streams_do_not_collide(self):
        walkers = stream_base(7, "walker")
        sensors = stream_base(7, "sensor")
        assert walkers != sensors
        assert u01(walkers, 0, 0) != u01(sensors, 0, 0)


# -- district partition ---------------------------------------------------


class TestDistrictPartition:
    def test_stripes_tile_the_city(self):
        part = DistrictPartition(960.0, 120.0)
        for shards in (1, 2, 3, 4, 8):
            bounds = [part.stripe_bounds(k, shards) for k in range(shards)]
            assert bounds[0][0] == 0.0
            assert bounds[-1][1] == part.size_m
            for (_, hi), (lo, _) in zip(bounds, bounds[1:]):
                assert hi == lo

    def test_point_owner_matches_stripe(self):
        part = DistrictPartition(960.0, 120.0)
        for shards in (1, 2, 4):
            for x in np.linspace(0.0, 959.9, 97):
                owner = part.shard_of_point(float(x), 5.0, shards)
                lo, hi = part.stripe_bounds(owner, shards)
                assert lo <= x < hi or (x >= lo and hi == part.size_m)

    def test_district_ids_are_shard_count_invariant(self):
        """The handoff sort key leans on this: districts never move."""
        part = DistrictPartition(720.0, 120.0)
        assert part.districts == 36
        assert part.district_of(0.0, 0.0) == 0
        assert part.district_of(719.0, 719.0) == 35
        # Clamping: points nudged outside still map into the grid.
        assert part.district_of(-5.0, 9999.0) == 30

    def test_every_column_owned_exactly_once(self):
        part = DistrictPartition(2400.0, 120.0)
        for shards in (1, 2, 4, 7):
            owners = [part.shard_of_column(ix, shards) for ix in range(part.nx)]
            assert set(owners) == set(range(shards))
            assert owners == sorted(owners)  # contiguous stripes


# -- derivations ----------------------------------------------------------


class TestDerivations:
    def test_backends_derive_identical_walkers(self):
        a = derive_walkers(SMALL, "numpy")
        b = derive_walkers(SMALL, "python")
        for col in ("t0", "t_exit", "x0", "y0", "vx", "vy", "period", "phase"):
            va = [float(v) for v in getattr(a, col)]
            vb = [float(v) for v in getattr(b, col)]
            assert va == vb, f"column {col} differs between backends"
        assert a.pnl_open == b.pnl_open

    def test_sensors_inside_city(self):
        for sid, x, y in derive_sensors(SMALL):
            assert 0.0 <= x < SMALL.size_m
            assert 0.0 <= y < SMALL.size_m

    def test_scenario_validation(self):
        with pytest.raises(ValueError):
            ShardScenario(stations=0, sensors=4, duration=60.0)
        with pytest.raises(ValueError):
            ShardScenario(stations=4, sensors=4, duration=60.0, size_m=50.0)
        with pytest.raises(ValueError):
            ShardScenario(stations=4, sensors=4, duration=60.0, open_share=0.0)


# -- LiteHunter core ------------------------------------------------------


class TestLiteHunter:
    def test_burst_never_repeats_per_walker(self):
        hunter = LiteHunter(universe=40, pb_size=20, fb_size=4, burst_size=6)
        seen = set()
        for _ in range(5):
            burst = hunter.burst_for(3)
            assert not (set(burst) & seen)
            seen |= set(burst)
        assert hunter.untried(3) == frozenset(range(40)) - seen

    def test_feedback_moves_ssid_up_and_into_fb(self):
        hunter = LiteHunter(universe=10, pb_size=10, fb_size=2, burst_size=3)
        assert hunter.feedback(1, 9) is None  # never offered to walker 1
        assert hunter.order[0] == 9 or hunter.weights[9] > 1
        assert hunter.fb == [9]
        hunter.feedback(1, 4)
        assert hunter.fb == [4, 9]
        hunter.feedback(1, 7)
        assert hunter.fb == [7, 4]  # capped at fb_size=2

    def test_order_matches_sort_oracle_after_hits(self):
        hunter = LiteHunter(universe=30, pb_size=30, fb_size=4, burst_size=5)
        for ssid in (3, 3, 17, 29, 3, 17):
            hunter.feedback(0, ssid)
        oracle = sorted(range(30), key=lambda s: (-hunter.weights[s], s))
        assert hunter.order == oracle


# -- engine invariance ----------------------------------------------------


class TestShardInvariance:
    def test_digest_invariant_across_shard_counts(self, small_result):
        for shards in (2, 3, 4):
            result = run_sharded(SMALL, shards=shards)
            assert result.digest() == small_result.digest(), (
                f"digest diverged at {shards} shards"
            )

    def test_backend_invariance(self, small_result):
        result = run_sharded(SMALL, shards=2, backend="python")
        assert result.digest() == small_result.digest()

    def test_process_mode_invariance(self, small_result):
        result = run_sharded(SMALL, shards=2, mode="process")
        assert result.mode == "process"
        assert result.digest() == small_result.digest()

    def test_run_is_not_trivially_empty(self, small_result):
        s = small_result.summary
        assert s["probed"] > 0
        assert s["hits"] > 0
        assert s["hits"] == s["feedbacks"]
        assert s["connected"] <= s["probed"] <= SMALL.stations
        bb = small_result.buffer_breakdown()
        assert bb.from_popularity + bb.from_freshness == s["hits"]

    def test_session_summary_is_broadcast_only(self, small_result):
        summary = small_result.session_summary()
        assert summary.direct_clients == 0
        assert summary.total_clients == small_result.summary["probed"]
        assert summary.connected_broadcast == small_result.summary["connected"]

    def test_shardops_namespace_excluded_from_digest(self, small_result):
        """Per-shard operational metrics may vary with the shard count;
        the digest must only cover the shardsim workload namespace."""
        counters = small_result.metrics["counters"]
        assert any(k.startswith("shardops.") for k in counters)
        assert all(
            k.startswith(("shardsim.", "shardops.")) for k in counters
        )


# Sparse eligibility: one scan a minute against 2-s epochs, and every
# PNL entry open over a tiny SSID universe so walkers connect (and stop
# scanning) early.  Most owned rows are ineligible in most epochs, and
# some epochs have no scanner at all.
SPARSE = ShardScenario(
    stations=60,
    sensors=16,
    duration=180.0,
    seed=5,
    size_m=480.0,
    epoch_s=2.0,
    scan_period_min_s=60.0,
    scan_period_max_s=60.0,
    open_share=1.0,
    ssid_universe=8,
)


def _scan_windows(scenario):
    """Per epoch, how many walkers have a scan instant in it (the
    engine's eligibility window, connection state ignored)."""
    batch = derive_walkers(scenario, "python")
    barriers = epoch_schedule(scenario.duration, scenario.epoch_s)
    counts = []
    for t_e, t_next in zip(barriers, barriers[1:]):
        n = 0
        for i in range(batch.n):
            start = batch.t0[i] + batch.phase[i]
            hi = min(t_next, scenario.duration, batch.t_exit[i])
            k_lo = max(0.0, math.ceil((t_e - start) / batch.period[i]))
            n += math.ceil((hi - start) / batch.period[i]) > k_lo
        counts.append(n)
    return counts


class TestSparseEligibility:
    """The numpy backend slices owned rows down to this epoch's
    scanners before building the adjacency; the python backend walks
    every owned walker.  Equal digests pin the row -> walker mapping."""

    def test_scenario_is_sparse(self):
        windows = _scan_windows(SPARSE)
        assert 0 in windows
        assert max(windows) <= SPARSE.stations // 10
        reference = run_sharded(SPARSE, shards=1, backend="python")
        summary = reference.summary
        assert summary["hits"] > 0
        # Connected walkers drop out of later windows.
        assert summary["scans"] < sum(windows)

    @pytest.mark.parametrize("mode", ["inline", "process"])
    def test_numpy_equals_python(self, mode):
        reference = run_sharded(SPARSE, shards=1, backend="python").digest()
        for shards in (1, 2, 4):
            for backend in ("numpy", "python"):
                result = run_sharded(
                    SPARSE, shards=shards, mode=mode, backend=backend
                )
                assert result.digest() == reference, (
                    f"{backend} backend diverged at {shards} shards ({mode})"
                )


# -- knob resolution ------------------------------------------------------


class TestKnobResolution:
    def test_resolve_shards_env(self, monkeypatch):
        monkeypatch.delenv(SHARDS_ENV, raising=False)
        assert resolve_shards() == 1
        monkeypatch.setenv(SHARDS_ENV, "4")
        assert resolve_shards() == 4
        assert resolve_shards(2) == 2  # explicit beats env
        with pytest.raises(ValueError):
            resolve_shards(0)

    def test_resolve_mode_env(self, monkeypatch):
        monkeypatch.delenv(SHARD_MODE_ENV, raising=False)
        assert resolve_shard_mode() == "inline"
        monkeypatch.setenv(SHARD_MODE_ENV, "process")
        assert resolve_shard_mode() == "process"
        with pytest.raises(ValueError):
            resolve_shard_mode("threads")

    def test_resolve_backend_env(self, monkeypatch):
        monkeypatch.delenv(BACKEND_ENV, raising=False)
        assert resolve_backend() == "numpy"
        monkeypatch.setenv(BACKEND_ENV, "python")
        assert resolve_backend() == "python"
        assert resolve_backend("numpy") == "numpy"
        with pytest.raises(ValueError):
            resolve_backend("fortran")


# -- benchmark artefact routing -------------------------------------------


class TestArtifactRouting:
    def test_bench_emit_honours_artifact_dir(self, tmp_path, monkeypatch):
        """The benchmark helpers must write where ``REPRO_ARTIFACT_DIR``
        points, so concurrent CI jobs stop racing on benchmarks/out/."""
        bench_dir = pathlib.Path(__file__).resolve().parent.parent / "benchmarks"
        monkeypatch.syspath_prepend(str(bench_dir))
        monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path / "routed"))
        sys.modules.pop("_shared", None)
        import _shared

        _shared.emit("routing_probe", "hello")
        assert (tmp_path / "routed" / "routing_probe.txt").read_text() == "hello\n"
        assert _shared.out_dir() == tmp_path / "routed"
        sys.modules.pop("_shared", None)

    def test_shards_bench_doc_gateable(self, tmp_path, monkeypatch, small_result):
        """A BENCH_shards-style document round-trips through the
        bench-regression gate with the shards extractor."""
        from repro.obs.bench import compare_bench

        doc = {
            "schema": "repro.bench_shards/v1",
            "grid": [
                {
                    "stations": 80,
                    "shards": s,
                    "speedup": 1.0 if s == 1 else 2.5,
                    "stations_per_s": 1000.0 * s,
                    "handoff_fraction": 0.01,
                }
                for s in (1, 4)
            ],
            "max_speedup": 2.5,
        }
        report = compare_bench(doc, json.loads(json.dumps(doc)), tolerance=0.1)
        assert report["ok"]
        gated = {d["metric"] for d in report["deltas"] if d["gated"]}
        assert gated == {"stations_per_s@80st/1sh"}
        informational = {d["metric"] for d in report["deltas"] if not d["gated"]}
        assert {"speedup@80st/4sh", "max_speedup", "stations_per_s@80st/4sh"} <= (
            informational
        )
        assert not any(d["metric"] == "speedup@80st/1sh" for d in report["deltas"])
        # Multi-shard speedups ride along but cannot fail the gate ...
        slower_split = json.loads(json.dumps(doc))
        slower_split["grid"][1]["speedup"] = 1.1
        slower_split["grid"][1]["stations_per_s"] = 1100.0
        slower_split["max_speedup"] = 1.1
        assert compare_bench(slower_split, doc, tolerance=0.1)["ok"]
        # ... while a drop in 1-shard throughput does.
        worse = json.loads(json.dumps(doc))
        worse["grid"][0]["stations_per_s"] = 800.0
        report = compare_bench(worse, doc, tolerance=0.1)
        assert not report["ok"]
        assert report["regressions"] == ["stations_per_s@80st/1sh"]


# -- heartbeats -----------------------------------------------------------


def test_per_shard_heartbeats_written(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    monkeypatch.setenv("REPRO_HEARTBEAT", "30")
    run_sharded(SMALL, shards=2)
    files = sorted(p.name for p in (tmp_path / "telemetry").glob("shard-*.jsonl"))
    assert files == ["shard-0.jsonl", "shard-1.jsonl"]
    entry = json.loads(
        (tmp_path / "telemetry" / "shard-0.jsonl").read_text().splitlines()[-1]
    )
    assert entry["spec"] == "shard 0/2"


def test_heartbeats_off_by_default(tmp_path, monkeypatch):
    monkeypatch.setenv(ARTIFACT_DIR_ENV, str(tmp_path))
    monkeypatch.delenv("REPRO_HEARTBEAT", raising=False)
    run_sharded(SMALL, shards=2)
    assert not (tmp_path / "telemetry").exists()
