"""Differential harness: service decisions vs the inline simulator.

The serving layer's headline contract is that
:class:`~repro.serve.core.RankingCore` behind the async
:class:`~repro.serve.service.RankingService` makes *bit-identical*
burst decisions to the inline :class:`~repro.core.hunter.CityHunter`
given the same seeded database, RNG stream and event sequence.  These
tests prove it end to end: record the attacker-visible event stream and
the decision stream from real venue scenarios (several venues, seeds,
configs and both fidelity modes), replay the events through the
service, and compare the decision sequences byte for byte — globally,
per client, and at several ingress queue bounds.
"""

import pytest

from repro.core.config import CityHunterConfig
from repro.experiments.attackers import make_cityhunter
from repro.experiments.calibration import venue_profile
from repro.experiments.runner import run_experiment
from repro.serve.events import decision_rows, decisions_by_client, decisions_digest
from repro.serve.record import record_probe_stream
from repro.serve.service import run_stream

# (venue, seed, duration, config, fidelity) — scenarios spanning venues,
# seeds, non-default configs and the burst fidelity.  The last one turns
# off untried lists and PB/FB adaptation, the kernel's two disabled
# branches.
SCENARIOS = [
    ("canteen", 11, 240.0, None, "frame"),
    ("passage", 3, 300.0, None, "frame"),
    ("shopping_center", 5, 180.0,
     CityHunterConfig(initial_pb=24, ghost_picks=1), "frame"),
    ("railway_station", 7, 180.0, None, "burst"),
    ("canteen", 13, 180.0,
     CityHunterConfig(untried_lists=False, adaptive=False), "frame"),
]

_IDS = ["%s-s%d-%s" % (v, s, f) for v, s, _, _, f in SCENARIOS]


@pytest.fixture(scope="module", params=SCENARIOS, ids=_IDS)
def recording(request, city, wigle):
    venue, seed, duration, config, fidelity = request.param
    return record_probe_stream(
        city,
        wigle,
        venue=venue,
        duration=duration,
        seed=seed,
        config=config,
        fidelity=fidelity,
    )


class TestBitIdentical:
    def test_decision_stream_identical(self, recording, city, wigle):
        """The whole decision stream matches, byte for byte."""
        core = recording.seeded_core(wigle, city)
        service = run_stream(core, recording.events)
        assert decision_rows(service.decisions) == decision_rows(
            recording.decisions
        )
        assert decisions_digest(service.decisions) == decisions_digest(
            recording.decisions
        )

    def test_per_client_sequences_identical(self, recording, city, wigle):
        """Every client sees the exact burst sequence the sim sent it."""
        core = recording.seeded_core(wigle, city)
        service = run_stream(core, recording.events)
        got = decisions_by_client(service.decisions)
        want = decisions_by_client(recording.decisions)
        assert set(got) == set(want)
        for mac in want:
            assert [d.as_row() for d in got[mac]] == [
                d.as_row() for d in want[mac]
            ], "client %s diverged" % mac

    @pytest.mark.parametrize("queue_max", [1, 4, 1024])
    def test_queue_bound_invariance(self, recording, city, wigle, queue_max):
        """Batch size never changes the decisions, only the transport.

        A bound of 1 forces batches of one; 1024 lets whole bursts of
        the stream drain into one batch.
        """
        core = recording.seeded_core(wigle, city)
        service = run_stream(core, recording.events, queue_max=queue_max)
        assert decisions_digest(service.decisions) == decisions_digest(
            recording.decisions
        )

    def test_session_state_identical(self, recording, city, wigle):
        """The core's session converges to the sim attacker's session."""
        core = recording.seeded_core(wigle, city)
        run_stream(core, recording.events)
        sim_session = recording.result.session
        sim_clients = sim_session.clients
        srv_clients = core.session.clients
        assert set(srv_clients) == set(sim_clients)
        for mac, sim_rec in sim_clients.items():
            srv_rec = srv_clients[mac]
            for field in (
                "probes_seen",
                "direct_prober",
                "ssids_sent",
                "connected",
                "hit_time",
                "hit_ssid",
                "hit_origin",
                "hit_bucket",
                "hit_position",
            ):
                assert getattr(srv_rec, field, None) == getattr(
                    sim_rec, field, None
                ), "client %s field %s diverged" % (mac, field)
        assert len(core.db) == len(recording.result.attacker.db)


class TestObserveOnly:
    """Request tracing and heartbeats must not perturb decisions.

    The observability layers only *observe* — no RNG draws, no
    scheduling.  Re-run every differential scenario with
    ``REPRO_REQ_TRACE=1`` and fast service heartbeats enabled and
    demand the digest the un-instrumented run produced, at several
    ingress queue bounds (mirrors the lineage/epoch tracer invariance
    tests).
    """

    @pytest.mark.parametrize("queue_max", [1, 4, 1024])
    def test_tracing_on_digest_identical(
        self, recording, city, wigle, queue_max, monkeypatch, tmp_path
    ):
        monkeypatch.setenv("REPRO_REQ_TRACE", "1")
        monkeypatch.setenv("REPRO_HEARTBEAT", "0.05")
        # finish() flushes reqtrace JSONL; keep it out of the repo tree.
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        core = recording.seeded_core(wigle, city)
        service = run_stream(core, recording.events, queue_max=queue_max)
        assert decisions_digest(service.decisions) == decisions_digest(
            recording.decisions
        )
        assert service.reqtrace is not None and len(service.reqtrace) > 0
        flushed = list((tmp_path / "telemetry").glob("reqtrace-*.jsonl"))
        assert flushed, "finish() should flush the span ring"


def test_recording_is_passthrough(city, wigle):
    """The wire-tap must not perturb the attack it observes."""
    recording = record_probe_stream(
        city, wigle, venue="canteen", duration=240.0, seed=11
    )
    plain = run_experiment(
        city,
        wigle,
        make_cityhunter(wigle, city.heatmap),
        venue_profile("canteen"),
        duration=240.0,
        seed=11,
        fidelity="frame",
    )
    assert (
        recording.result.summary.as_table_row("x")
        == plain.summary.as_table_row("x")
    )
    rec_clients = recording.result.session.clients
    plain_clients = plain.session.clients
    assert set(rec_clients) == set(plain_clients)
    for mac, rec in rec_clients.items():
        other = plain_clients[mac]
        assert (rec.connected, rec.hit_bucket, rec.ssids_sent) == (
            other.connected,
            other.hit_bucket,
            other.ssids_sent,
        )
