"""Tests for the deterministic fault-injection subsystem (repro.faults).

The load-bearing properties: every fault is a pure function of (plan,
seed) so two runs under one plan suffer bit-identical faults, and an
empty plan is byte-identical to no plan at all — the seed of every
fault draw lives in a dedicated ``faults.*`` stream that fault-free
runs never open.
"""

import numpy as np
import pytest

from repro.core.config import CityHunterConfig
from repro.core.hunter import CityHunter
from repro.core.seeding import SeedingStats, seed_database
from repro.dot11.frames import ProbeRequest, ProbeResponse
from repro.dot11.medium import Medium
from repro.experiments.attackers import make_attacker
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import run_experiment
from repro.faults.gilbert import GilbertElliottChannel
from repro.faults.outages import OutageSchedule, OutageWindow
from repro.faults.plan import (
    FaultPlan,
    GilbertElliottParams,
    OutageParams,
    WigleFaultParams,
)
from repro.faults.wigle import ssid_fault_kind
from repro.geo.point import Point
from repro.sim.simulation import Simulation


class TestFaultPlan:
    def test_default_plan_is_empty(self):
        assert FaultPlan().empty
        assert not FaultPlan(channel=GilbertElliottParams()).empty
        assert not FaultPlan(worker_crashes=1).empty

    def test_dict_round_trip(self):
        plan = FaultPlan(
            seed=9,
            channel=GilbertElliottParams(p_bad=0.1),
            outages=OutageParams(rate_per_hour=6.0),
            wigle=WigleFaultParams(corrupt_fraction=0.2),
            worker_crashes=2,
        )
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown fault-plan keys"):
            FaultPlan.from_dict({"seed": 0, "gremlins": True})

    def test_bad_probabilities_rejected(self):
        with pytest.raises(ValueError):
            GilbertElliottParams(p_bad=1.5)
        with pytest.raises(ValueError):
            GilbertElliottParams(p_bad=0.0, p_good=0.0)
        with pytest.raises(ValueError):
            WigleFaultParams(corrupt_fraction=0.7, missing_fraction=0.6)
        with pytest.raises(ValueError):
            OutageParams(duration_mean_s=0.0)
        with pytest.raises(ValueError):
            FaultPlan(worker_crashes=-1)


def _loss_run_lengths(flags):
    """Lengths of maximal runs of consecutive True values."""
    runs, current = [], 0
    for flag in flags:
        if flag:
            current += 1
        elif current:
            runs.append(current)
            current = 0
    if current:
        runs.append(current)
    return runs


class TestGilbertElliott:
    PARAMS = GilbertElliottParams(
        p_bad=0.02, p_good=0.25, loss_good=0.0, loss_bad=1.0
    )

    def test_observed_rate_tracks_marginal(self):
        chain = GilbertElliottChannel(self.PARAMS, np.random.default_rng(1))
        for _ in range(60_000):
            chain.lost()
        assert chain.attempts == 60_000
        assert chain.observed_loss_rate == pytest.approx(
            self.PARAMS.marginal_loss, rel=0.12
        )

    def test_losses_are_bursty_unlike_uniform(self):
        # Same marginal loss rate, radically different clustering: the
        # GE chain's mean loss-run length approaches 1/p_good while a
        # uniform coin at rate p has mean run length 1/(1-p) ~= 1.
        chain = GilbertElliottChannel(self.PARAMS, np.random.default_rng(2))
        ge_flags = [chain.lost() for _ in range(40_000)]
        rate = self.PARAMS.marginal_loss
        uniform_rng = np.random.default_rng(2)
        uni_flags = [uniform_rng.random() < rate for _ in range(40_000)]
        ge_runs = _loss_run_lengths(ge_flags)
        uni_runs = _loss_run_lengths(uni_flags)
        assert np.mean(ge_runs) > 2.5 * np.mean(uni_runs)
        assert np.mean(ge_runs) == pytest.approx(
            1.0 / self.PARAMS.p_good, rel=0.25
        )

    def test_deterministic_per_seed(self):
        a = GilbertElliottChannel(self.PARAMS, np.random.default_rng(7))
        b = GilbertElliottChannel(self.PARAMS, np.random.default_rng(7))
        assert [a.lost() for _ in range(500)] == [b.lost() for _ in range(500)]

    def test_stationary_properties(self):
        p = GilbertElliottParams(p_bad=0.1, p_good=0.4, loss_bad=0.5)
        assert p.stationary_bad == pytest.approx(0.2)
        assert p.marginal_loss == pytest.approx(0.1)


class TestOutageSchedule:
    def test_generate_is_deterministic(self):
        params = OutageParams(rate_per_hour=20.0, duration_mean_s=30.0)
        a = OutageSchedule.generate(params, 3600.0, np.random.default_rng(5))
        b = OutageSchedule.generate(params, 3600.0, np.random.default_rng(5))
        assert a.windows == b.windows
        assert len(a) > 0

    def test_windows_ordered_disjoint_and_onset_bounded(self):
        params = OutageParams(rate_per_hour=60.0, duration_mean_s=40.0)
        sched = OutageSchedule.generate(
            params, 1800.0, np.random.default_rng(3)
        )
        for w in sched.windows:
            assert 0.0 < w.start < 1800.0
            assert w.duration >= params.duration_min_s
        for a, b in zip(sched.windows, sched.windows[1:]):
            assert b.start >= a.end

    def test_down_at_half_open_windows(self):
        sched = OutageSchedule((OutageWindow(10.0, 20.0), OutageWindow(50.0, 55.0)))
        assert not sched.down_at(9.99)
        assert sched.down_at(10.0)
        assert sched.down_at(19.99)
        assert not sched.down_at(20.0)
        assert sched.down_at(52.0)
        assert sched.total_downtime == pytest.approx(15.0)

    def test_zero_rate_yields_no_outages(self):
        sched = OutageSchedule.generate(
            OutageParams(rate_per_hour=0.0), 3600.0, np.random.default_rng(0)
        )
        assert len(sched) == 0
        assert not sched.down_at(100.0)

    def test_overlapping_windows_rejected(self):
        with pytest.raises(ValueError, match="disjoint"):
            OutageSchedule((OutageWindow(0.0, 10.0), OutageWindow(5.0, 15.0)))


class TestWigleFaultKind:
    PARAMS = WigleFaultParams(corrupt_fraction=0.2, missing_fraction=0.1)

    def test_pure_function_of_seed_and_ssid(self):
        for ssid in ("CoffeeNet", "PCCW1x", "#HKAirport Free WiFi"):
            assert ssid_fault_kind(self.PARAMS, 3, ssid) == ssid_fault_kind(
                self.PARAMS, 3, ssid
            )

    def test_fractions_roughly_honoured(self):
        ssids = [f"ssid-{i}" for i in range(5000)]
        kinds = [ssid_fault_kind(self.PARAMS, 11, s) for s in ssids]
        assert kinds.count("missing") == pytest.approx(500, rel=0.2)
        assert kinds.count("corrupt") == pytest.approx(1000, rel=0.2)

    def test_no_params_or_zero_fractions_never_fault(self):
        assert ssid_fault_kind(None, 0, "x") is None
        assert ssid_fault_kind(WigleFaultParams(), 0, "x") is None

    def test_seed_changes_the_victim_set(self):
        ssids = [f"ssid-{i}" for i in range(500)]
        a = {s for s in ssids if ssid_fault_kind(self.PARAMS, 1, s)}
        b = {s for s in ssids if ssid_fault_kind(self.PARAMS, 2, s)}
        assert a != b


class TestSeedingWithFaults:
    FAULTS = WigleFaultParams(corrupt_fraction=0.15, missing_fraction=0.1)

    def _seed(self, city, wigle, faults=None, fault_seed=0):
        stats = SeedingStats()
        config = CityHunterConfig(n_popular=60, n_nearby=20)
        center = city.venue("University Canteen").region.center
        db = seed_database(
            wigle, city.heatmap, center, config,
            faults=faults, fault_seed=fault_seed, stats=stats,
        )
        return db, stats

    def test_faulted_records_skipped_and_backfilled(self, city, wigle):
        db, stats = self._seed(city, wigle, faults=self.FAULTS, fault_seed=4)
        assert stats.total_skipped > 0
        assert stats.skipped_corrupt + stats.skipped_missing == stats.total_skipped
        for ssid in stats.skipped_ssids:
            assert ssid not in db
        assert stats.textgen_fallback == stats.total_skipped
        fallback = [e for e in db.ranked() if e.seed_class == "textgen-fallback"]
        assert len(fallback) == stats.textgen_fallback
        assert all(e.origin == "textgen" for e in fallback)

    def test_fault_seed_is_deterministic(self, city, wigle):
        db_a, stats_a = self._seed(city, wigle, faults=self.FAULTS, fault_seed=4)
        db_b, stats_b = self._seed(city, wigle, faults=self.FAULTS, fault_seed=4)
        assert stats_a.skipped_ssids == stats_b.skipped_ssids
        assert [e.ssid for e in db_a.ranked()] == [e.ssid for e in db_b.ranked()]

    def test_no_faults_leaves_stats_untouched(self, city, wigle):
        _, stats = self._seed(city, wigle)
        assert stats.total_skipped == 0
        assert stats.textgen_fallback == 0

    def test_carrier_ssids_survive_faults(self, city, wigle):
        # Carrier extension entries are typed in by the operator, not
        # read from the export: corruption cannot touch them.
        stats = SeedingStats()
        config = CityHunterConfig(carrier_ssids=("PCCW1x",))
        db = seed_database(
            wigle, city.heatmap, Point(0, 0), config,
            faults=WigleFaultParams(missing_fraction=1.0),
            fault_seed=1, stats=stats,
        )
        assert db.get("PCCW1x") is not None


class _Sniffer:
    def __init__(self, mac="02:00:00:00:00:99", where=Point(0, 0)):
        self.mac = mac
        self.where = where
        self.received = []

    def position_at(self, time):
        return self.where

    def receive(self, frame, time):
        self.received.append(frame)

    def receive_burst(self, responses, time, spacing):
        self.received.extend(responses)


class TestMediumBurstLoss:
    BLACKOUT = GilbertElliottParams(
        p_bad=1.0, p_good=0.0, loss_good=0.0, loss_bad=1.0
    )

    def _medium(self, burst_loss=None, fidelity="frame"):
        sim = Simulation(seed=3)
        medium = Medium(sim, fidelity=fidelity, burst_loss=burst_loss)
        a = _Sniffer("02:00:00:00:00:01", Point(0, 0))
        b = _Sniffer("02:00:00:00:00:02", Point(10, 0))
        medium.attach(a, 50.0)
        medium.attach(b, 50.0)
        return sim, medium, a, b

    def test_permanent_bad_state_drops_everything(self):
        sim, medium, a, b = self._medium(burst_loss=self.BLACKOUT)
        for _ in range(5):
            medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        assert b.received == []
        assert medium.fault_frames_lost == 5
        counters = sim.metrics.to_dict()["counters"]
        assert any(k.startswith("faults.frames_lost") for k in counters)

    def test_no_plan_never_counts_fault_losses(self):
        sim, medium, a, b = self._medium()
        medium.transmit(a, ProbeRequest(a.mac))
        sim.run(1.0)
        assert len(b.received) == 1
        assert medium.fault_frames_lost == 0
        assert medium.burst_loss is None

    def test_burst_fidelity_applies_channel_per_response(self):
        sim, medium, a, b = self._medium(
            burst_loss=self.BLACKOUT, fidelity="burst"
        )
        responses = [
            ProbeResponse(a.mac, b.mac, f"net-{i}", None) for i in range(8)
        ]
        medium.transmit_response_burst(a, responses)
        sim.run(1.0)
        assert b.received == []
        assert medium.fault_frames_lost == 8


class TestAttackerOutages:
    @pytest.fixture
    def hunter(self, city, wigle):
        sim = Simulation(seed=3)
        medium = Medium(sim)
        venue = city.venue("University Canteen")
        hunter = CityHunter(
            "02:aa:00:00:00:01", venue.region.center, medium,
            wigle=wigle, heatmap=city.heatmap,
        )
        hunter.install_outages(OutageSchedule((OutageWindow(10.0, 20.0),)))
        sniffer = _Sniffer(where=venue.region.center)
        medium.attach(sniffer, 100.0)
        sim.add_entity(hunter)
        sim.run(0.001)
        return sim, hunter, sniffer

    def _drain(self, sim, sniffer):
        sim.run(sim.now + 1.0)
        out = [f for f in sniffer.received if isinstance(f, ProbeResponse)]
        sniffer.received.clear()
        return out

    def test_probe_during_outage_is_dead_air(self, hunter):
        sim, hunter, sniffer = hunter
        hunter.receive(ProbeRequest(sniffer.mac), 15.0)
        assert self._drain(sim, sniffer) == []
        # The probe was never observed, so no session record either.
        assert sniffer.mac not in hunter.session.clients
        counters = sim.metrics.to_dict()["counters"]
        assert any(
            k.startswith("faults.outage_frames_dropped") for k in counters
        )

    def test_untried_lists_survive_outages(self, hunter):
        # The ISSUE's headline hazard: a dead NIC must not burn SSIDs
        # off a client's untried list for responses that never aired.
        sim, hunter, sniffer = hunter
        hunter.receive(ProbeRequest(sniffer.mac), 15.0)
        assert sniffer.mac not in hunter.core._tried
        hunter.receive(ProbeRequest(sniffer.mac), 25.0)
        sent = self._drain(sim, sniffer)
        assert len(sent) == hunter.config.burst_total
        assert len(hunter.core._tried[sniffer.mac]) == hunter.config.burst_total

    def test_outage_metrics_published_at_start(self, city, wigle):
        sim = Simulation(seed=3)
        medium = Medium(sim)
        hunter = CityHunter(
            "02:aa:00:00:00:01", Point(0, 0), medium,
            wigle=wigle, heatmap=city.heatmap,
        )
        hunter.install_outages(
            OutageSchedule((OutageWindow(5.0, 8.0), OutageWindow(30.0, 31.0)))
        )
        sim.add_entity(hunter)
        sim.run(0.001)
        counters = sim.metrics.to_dict()["counters"]
        assert counters["faults.outages"] == 2
        assert counters["faults.outage_downtime_s"] == pytest.approx(4.0)
        assert sum(
            1 for e in sim.events if e.get("kind") == "fault.outage"
        ) == 2

    def test_radio_down_without_schedule_is_false(self, city, wigle):
        sim = Simulation(seed=3)
        hunter = CityHunter(
            "02:aa:00:00:00:01", Point(0, 0), Medium(sim),
            wigle=wigle, heatmap=city.heatmap,
        )
        assert not hunter.radio_down(100.0)


class TestEmptyPlanEquivalence:
    def test_empty_plan_is_byte_identical_to_no_plan(self, city, wigle):
        # The acceptance bar: routing an *empty* FaultPlan through the
        # whole stack (medium, scenario builder, attacker factory,
        # seeding) must not perturb a single draw.
        def run(faults):
            result = run_experiment(
                city, wigle,
                make_attacker("cityhunter", city, wigle, faults=faults),
                venue_profile("canteen"),
                duration=150.0, seed=7, fidelity="burst", faults=faults,
            )
            return result.summary, result.people_spawned

        assert run(None) == run(FaultPlan(seed=99))

    def test_faulted_run_still_deterministic(self, city, wigle):
        plan = FaultPlan(
            seed=5,
            channel=GilbertElliottParams(),
            outages=OutageParams(rate_per_hour=24.0, duration_mean_s=15.0),
            wigle=WigleFaultParams(corrupt_fraction=0.1, missing_fraction=0.05),
        )

        def run():
            result = run_experiment(
                city, wigle,
                make_attacker("cityhunter", city, wigle, faults=plan),
                venue_profile("canteen"),
                duration=150.0, seed=7, fidelity="burst", faults=plan,
            )
            return result.summary

        assert run() == run()
