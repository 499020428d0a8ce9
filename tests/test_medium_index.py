"""Differential tests: spatial-index medium vs brute-force medium.

The index is contractually a *pure accelerator* — every test here runs
the same scripted world twice, once with ``index=True`` and once with
``index=False``, and demands bit-identical delivery logs (receiver,
sender, time triples in order), delivered-frame counts and fault-loss
metrics.  Layouts, mobility, loss rates and fault plans are randomized
across seeds so the equivalence is exercised well beyond any single
hand-built topology.
"""

import math
import os

import numpy as np
import pytest

from repro.dot11.frames import ProbeRequest, ProbeResponse
from repro.dot11.medium import (
    MEDIUM_INDEX_ENV,
    Medium,
    resolve_medium_index,
)
from repro.dot11.propagation import LogDistanceShadowing
from repro.faults.plan import GilbertElliottParams
from repro.geo.point import Point
from repro.geo.region import Rect
from repro.mobility.corridor import corridor_walk
from repro.mobility.static import static_dwell
from repro.mobility.waypoints import waypoint_wander
from repro.sim.simulation import Simulation


class MovingStation:
    """Linear-motion station with an honest speed bound, logging receives."""

    def __init__(self, mac, origin, velocity=(0.0, 0.0)):
        self.mac = mac
        self._origin = origin
        self._velocity = velocity
        self.max_speed_mps = math.hypot(*velocity)
        self.log = []

    def position_at(self, time):
        return Point(
            self._origin.x + self._velocity[0] * time,
            self._origin.y + self._velocity[1] * time,
        )

    def receive(self, frame, time):
        self.log.append((self.mac, frame.src, time))


class UnboundedStation(MovingStation):
    """Same motion, but refuses to promise a speed bound."""

    def __init__(self, mac, origin, velocity=(0.0, 0.0)):
        super().__init__(mac, origin, velocity)
        self.max_speed_mps = None


class PathStation:
    """Phone-like double: kinematics exposed as a real ``PathMobility``."""

    def __init__(self, mac, mobility):
        self.mac = mac
        self.mobility = mobility
        self.log = []

    def position_at(self, time):
        return self.mobility.position_at(time)

    @property
    def max_speed_mps(self):
        return self.mobility.max_speed()

    def receive(self, frame, time):
        self.log.append((self.mac, frame.src, time))


class FixedStation:
    """AP-like double: a fixed ``position`` under a zero speed bound."""

    max_speed_mps = 0.0

    def __init__(self, mac, position):
        self.mac = mac
        self.position = position
        self.log = []

    def position_at(self, time):
        return self.position

    def receive(self, frame, time):
        self.log.append((self.mac, frame.src, time))


def _build_world(
    index,
    layout_seed,
    n_stations=40,
    n_frames=60,
    area_m=600.0,
    loss_rate=0.0,
    burst_loss=None,
    moving_share=0.5,
    unbounded_every=0,
    sim_seed=9,
):
    """One scripted world; returns (sim, medium, stations) ready to run.

    All randomness comes from a layout RNG seeded independently of the
    simulation, so the index=True and index=False worlds are built from
    byte-identical ingredients.
    """
    rng = np.random.default_rng(layout_seed)
    sim = Simulation(seed=sim_seed)
    medium = Medium(
        sim, loss_rate=loss_rate, burst_loss=burst_loss, index=index
    )
    stations = []
    for i in range(n_stations):
        origin = Point(rng.uniform(0, area_m), rng.uniform(0, area_m))
        if rng.random() < moving_share:
            velocity = (rng.uniform(-3, 3), rng.uniform(-3, 3))
        else:
            velocity = (0.0, 0.0)
        cls = (
            UnboundedStation
            if unbounded_every and i % unbounded_every == 0
            else MovingStation
        )
        st = cls(f"02:00:00:00:00:{i:02x}", origin, velocity)
        stations.append(st)
        medium.attach(st, float(rng.uniform(40, 80)))
    for _ in range(n_frames):
        sender = stations[int(rng.integers(0, n_stations))]
        medium.transmit(
            sender, ProbeRequest(sender.mac), airtime=float(rng.uniform(0.01, 30))
        )
    return sim, medium, stations


def _run_world(index, build=_build_world, **kwargs):
    sim, medium, stations = build(index, **kwargs)
    sim.run(40.0)
    log = []
    for st in stations:
        log.extend(st.log)
    log.sort()
    return {
        "log": log,
        "delivered": medium.frames_delivered,
        "fault_lost": medium.fault_frames_lost,
        "metrics": sim.metrics.to_dict()["counters"],
        "medium": medium,
    }


def _path_mobility(rng, area_m):
    """One walker from a real constructor, possibly mid-visit at t=0."""
    t_enter = float(rng.uniform(-60.0, 20.0))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        region = Rect(0, 0, area_m, area_m)
        return waypoint_wander(region, t_enter, rng, pause_mean=5.0)
    if kind == 1:
        lateral = float(rng.uniform(0, area_m - 15))
        corridor = Rect(0, lateral, area_m, lateral + 15)
        return corridor_walk(corridor, t_enter, rng, speed_mean=2.0)
    return static_dwell(Rect(0, 0, area_m, area_m), t_enter, 300.0, rng)


def _build_mixed_world(
    index,
    layout_seed,
    n_stations=48,
    n_frames=80,
    area_m=300.0,
    loss_rate=0.0,
    burst_loss=None,
    kinds=("path", "fixed", "moving", "unbounded"),
    churn=0,
    sim_seed=9,
):
    """Like :func:`_build_world`, over a mix of station kinds.

    ``churn`` stations are detached at a random time and re-attached
    later (a re-attach is a newcomer: it joins at the back of the
    delivery order).
    """
    rng = np.random.default_rng(layout_seed)
    sim = Simulation(seed=sim_seed)
    medium = Medium(sim, loss_rate=loss_rate, burst_loss=burst_loss, index=index)
    stations = []
    for i in range(n_stations):
        mac = f"02:00:00:00:01:{i:02x}"
        kind = kinds[int(rng.integers(0, len(kinds)))]
        if kind == "path":
            st = PathStation(mac, _path_mobility(rng, area_m))
        elif kind == "fixed":
            st = FixedStation(mac, Point(*rng.uniform(0, area_m, 2)))
        else:
            cls = MovingStation if kind == "moving" else UnboundedStation
            velocity = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            st = cls(mac, Point(*rng.uniform(0, area_m, 2)), velocity)
        stations.append(st)
        medium.attach(st, float(rng.uniform(40, 80)))
    for st in stations[:churn]:
        gone = float(rng.uniform(1.0, 20.0))
        back = gone + float(rng.uniform(0.0, 15.0))
        tx_range = float(rng.uniform(40, 80))
        sim.at(gone, medium.detach, st.mac)
        sim.at(back, medium.attach, st, tx_range)
    for _ in range(n_frames):
        sender = stations[int(rng.integers(0, n_stations))]
        medium.transmit(
            sender, ProbeRequest(sender.mac), airtime=float(rng.uniform(0.01, 35))
        )
    return sim, medium, stations


def _assert_equivalent(kwargs, build=_build_world):
    fast = _run_world(True, build=build, **kwargs)
    slow = _run_world(False, build=build, **kwargs)
    assert fast["log"] == slow["log"]
    assert fast["delivered"] == slow["delivered"]
    assert fast["fault_lost"] == slow["fault_lost"]
    assert fast["metrics"] == slow["metrics"]
    return fast, slow


class TestDifferentialEquivalence:
    @pytest.mark.parametrize("layout_seed", [0, 1, 2, 3, 4, 5, 6, 7])
    def test_randomized_layouts_static(self, layout_seed):
        _assert_equivalent(dict(layout_seed=layout_seed, moving_share=0.0))

    @pytest.mark.parametrize("layout_seed", [10, 11, 12, 13, 14, 15])
    def test_randomized_layouts_mobile(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(layout_seed=layout_seed, moving_share=0.8)
        )
        assert fast["medium"].index_queries > 0

    @pytest.mark.parametrize("layout_seed", [20, 21, 22])
    def test_with_uniform_loss(self, layout_seed):
        _assert_equivalent(dict(layout_seed=layout_seed, loss_rate=0.25))

    @pytest.mark.parametrize("layout_seed", [30, 31, 32])
    def test_with_gilbert_elliott_faults(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(
                layout_seed=layout_seed,
                loss_rate=0.1,
                burst_loss=GilbertElliottParams(),
            )
        )
        # The fault chain genuinely fired, so its draws were compared.
        assert fast["fault_lost"] > 0

    @pytest.mark.parametrize("layout_seed", [40, 41])
    def test_with_unbounded_stations_mixed_in(self, layout_seed):
        """Stations without a speed bound ride the exact side path."""
        _assert_equivalent(
            dict(layout_seed=layout_seed, moving_share=0.7, unbounded_every=3)
        )

    def test_index_actually_prunes(self):
        """In a spread layout the index must visit fewer candidates than
        a full scan would — otherwise it is dead weight."""
        fast = _run_world(
            True, layout_seed=50, n_stations=80, area_m=2000.0, moving_share=0.3
        )
        medium = fast["medium"]
        assert medium.index_queries > 0
        scanned = medium.index_candidates / medium.index_queries
        assert scanned < 80 * 0.5  # at least half the scan avoided


class TestPathTableEquivalence:
    """Stations whose kinematics are data (``PathMobility`` walkers and
    fixed installations) are resolved through the vectorised path
    table; every mix must still equal the brute-force scan."""

    @pytest.mark.parametrize("layout_seed", [70, 71, 72, 73])
    def test_path_and_fixed_stations(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(layout_seed=layout_seed, kinds=("path", "fixed")),
            build=_build_mixed_world,
        )
        medium = fast["medium"]
        assert medium.index_queries > 0
        # No grid rows in this world: every refresh is a table pass.
        assert medium.index_refreshes > 0
        assert fast["delivered"] > 0

    @pytest.mark.parametrize("layout_seed", [80, 81, 82, 83])
    def test_mixed_with_grid_and_unbounded(self, layout_seed):
        _assert_equivalent(dict(layout_seed=layout_seed), build=_build_mixed_world)

    @pytest.mark.parametrize("layout_seed", [90, 91, 92])
    def test_churn_mid_run(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(layout_seed=layout_seed, churn=20, loss_rate=0.2),
            build=_build_mixed_world,
        )
        assert fast["delivered"] > 0

    @pytest.mark.parametrize("layout_seed", [94, 95])
    def test_with_gilbert_elliott_faults(self, layout_seed):
        fast, _ = _assert_equivalent(
            dict(
                layout_seed=layout_seed,
                loss_rate=0.1,
                burst_loss=GilbertElliottParams(),
                churn=8,
            ),
            build=_build_mixed_world,
        )
        assert fast["fault_lost"] > 0

    def test_reattach_without_detach_keeps_order(self):
        """A re-attached path station keeps its delivery slot, even when
        it comes back as a different kind of station."""
        results = []
        for index in (True, False):
            sim = Simulation(seed=8)
            medium = Medium(sim, loss_rate=0.5, index=index)
            rng = np.random.default_rng(3)
            stations = [
                PathStation(
                    f"02:00:00:00:02:{i:02x}",
                    static_dwell(Rect(0, 0, 40, 40), 0.0, 300.0, rng),
                )
                for i in range(10)
            ]
            for st in stations:
                medium.attach(st, 100.0)
            medium.attach(stations[3], 100.0)  # same station, same slot
            grid_twin = MovingStation(stations[5].mac, Point(20, 20), (0.5, 0.0))
            medium.attach(grid_twin, 100.0)  # path row -> grid, same slot
            medium.attach(stations[5], 100.0)  # and back again
            for st in stations[::2]:
                medium.transmit(st, ProbeRequest(st.mac))
            sim.run(1.0)
            log = []
            for st in stations:
                log.extend(st.log)
            results.append(sorted(log))
        assert results[0] == results[1]
        assert results[0]


def _hypot_disagreement(np_larger):
    """Sender/receiver coordinates whose ``np.hypot`` distance is one ulp
    above (or below) ``math.hypot``'s; None if this libm never differs."""
    rng = np.random.default_rng(2024)
    pts = rng.uniform(0.0, 100.0, size=(200_000, 4))
    vec = np.hypot(pts[:, 0] - pts[:, 2], pts[:, 1] - pts[:, 3])
    for row, d in zip(pts.tolist(), vec.tolist()):
        x0, y0, x1, y1 = row
        exact = math.hypot(x0 - x1, y0 - y1)
        if (d > exact) if np_larger else (d < exact):
            return Point(x0, y0), Point(x1, y1), exact, d
    return None


class TestHypotBoundary:
    """``reach`` placed exactly between the two hypot results: the
    vector test alone would classify the receiver wrongly, so the band
    re-check must hand the verdict to the scalar predicate."""

    @pytest.mark.parametrize("np_larger", [True, False])
    def test_vector_and_scalar_disagree_on_side(self, np_larger):
        case = _hypot_disagreement(np_larger)
        if case is None:
            pytest.skip("np.hypot agrees with math.hypot on this platform")
        a, b, exact, vector = case
        # np larger: reach == scalar distance, in range only by scalar.
        # np smaller: reach == vector distance, out of range by scalar.
        reach = exact if np_larger else vector
        heard = []
        for index in (True, False):
            sim = Simulation(seed=1)
            medium = Medium(sim, index=index)
            sender = FixedStation("02:00:00:00:03:01", a)
            receiver = FixedStation("02:00:00:00:03:02", b)
            medium.attach(sender, reach)
            medium.attach(receiver, reach)
            medium.transmit(sender, ProbeRequest(sender.mac))
            sim.run(1.0)
            heard.append(len(receiver.log))
        assert heard == ([1, 1] if np_larger else [0, 0])


class TestMidDeliveryMutation:
    """Regression: attach/detach during a delivery must neither crash
    nor perturb the already-resolved recipient snapshot."""

    def _world(self, index):
        sim = Simulation(seed=4)
        medium = Medium(sim, index=index)
        a = MovingStation("02:00:00:00:00:aa", Point(0, 0))
        b = MovingStation("02:00:00:00:00:bb", Point(10, 0))
        c = MovingStation("02:00:00:00:00:cc", Point(20, 0))
        return sim, medium, a, b, c

    @pytest.mark.parametrize("index", [True, False])
    def test_receiver_detaches_peer_mid_delivery(self, index):
        sim, medium, a, b, c = self._world(index)
        for st in (a, b, c):
            medium.attach(st, 50.0)

        def detach_c(frame, time):
            MovingStation.receive(b, frame, time)
            medium.detach(c.mac)

        b.receive = detach_c
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        # c was in the snapshot (in range at delivery time) so it still
        # receives this frame; it is gone for the next one.
        assert len(c.log) == 1
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(2.0)
        assert len(c.log) == 1
        assert len(b.log) == 2

    @pytest.mark.parametrize("index", [True, False])
    def test_receiver_attaches_newcomer_mid_delivery(self, index):
        sim, medium, a, b, c = self._world(index)
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)

        def attach_c(frame, time):
            MovingStation.receive(b, frame, time)
            if not medium.is_attached(c.mac):
                medium.attach(c, 50.0)

        b.receive = attach_c
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        # c joined after recipients were resolved: not this frame.
        assert c.log == []
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(2.0)
        assert len(c.log) == 1

    @pytest.mark.parametrize("index", [True, False])
    def test_monitor_detaches_itself_during_burst(self, index):
        sim, medium, a, b, c = self._world(index)
        medium = Medium(sim, fidelity="burst", index=index)
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        medium.attach(c, 50.0, promiscuous=True)

        def self_detach(frame, time):
            MovingStation.receive(c, frame, time)
            medium.detach(c.mac)

        c.receive = self_detach
        from repro.dot11.capabilities import Security

        burst = [
            ProbeResponse(a.mac, b.mac, f"net-{i}", Security.OPEN)
            for i in range(3)
        ]
        medium.transmit_response_burst(a, burst)
        sim.run(1.0)
        assert len(c.log) == 3  # full overheard burst despite self-detach
        assert len(b.log) == 3


class TestIndexMechanics:
    def test_reattach_keeps_delivery_order(self):
        """Re-attaching an existing MAC must not move it to the back of
        the delivery order (dict insertion order is preserved, and the
        index's sequence numbers must agree)."""
        results = []
        for index in (True, False):
            sim = Simulation(seed=8)
            medium = Medium(sim, loss_rate=0.5, index=index)
            stations = [
                MovingStation(f"02:00:00:00:01:{i:02x}", Point(5.0 * i, 0))
                for i in range(12)
            ]
            for st in stations:
                medium.attach(st, 100.0)
            medium.attach(stations[3], 100.0)  # re-attach, same slot
            medium.transmit(stations[0], ProbeRequest(stations[0].mac))
            sim.run(1.0)
            log = []
            for st in stations:
                log.extend(st.log)
            results.append(sorted(log))
        assert results[0] == results[1]

    def test_stochastic_propagation_disables_index(self):
        sim = Simulation(seed=1)
        medium = Medium(
            sim, propagation=LogDistanceShadowing(), index=True
        )
        assert not medium.index_active

    def test_deterministic_propagation_enables_index(self):
        sim = Simulation(seed=1)
        assert Medium(sim, index=True).index_active
        assert not Medium(sim, index=False).index_active

    def test_env_resolution(self, monkeypatch):
        monkeypatch.delenv(MEDIUM_INDEX_ENV, raising=False)
        assert resolve_medium_index() is True
        for off in ("0", "off", "false", "no", "OFF", " Off "):
            monkeypatch.setenv(MEDIUM_INDEX_ENV, off)
            assert resolve_medium_index() is False
        monkeypatch.setenv(MEDIUM_INDEX_ENV, "1")
        assert resolve_medium_index() is True
        # Explicit argument beats the environment.
        monkeypatch.setenv(MEDIUM_INDEX_ENV, "off")
        assert resolve_medium_index(True) is True

    def test_detach_unknown_mac_with_index(self):
        sim = Simulation(seed=0)
        medium = Medium(sim, index=True)
        medium.detach("02:aa:aa:aa:aa:aa")  # must not raise

    def test_index_stats_never_touch_metrics(self):
        """Index bookkeeping must stay out of sim.metrics — counters
        there are part of the golden on/off equivalence contract."""
        fast = _run_world(True, layout_seed=60, moving_share=0.5)
        assert fast["medium"].index_queries > 0
        for key in fast["metrics"]:
            assert "index" not in key

    def test_index_enabled_by_default_env(self, monkeypatch):
        monkeypatch.delenv(MEDIUM_INDEX_ENV, raising=False)
        sim = Simulation(seed=0)
        assert Medium(sim).index_active

    def test_env_off_disables_by_default(self, monkeypatch):
        monkeypatch.setenv(MEDIUM_INDEX_ENV, "off")
        sim = Simulation(seed=0)
        assert not Medium(sim).index_active
        assert os.environ[MEDIUM_INDEX_ENV] == "off"
