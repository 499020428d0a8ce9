"""Property-based fuzzing of the selection machinery and the hunter.

These drive the core data structures through random sequences of the
operations a live deployment performs and assert the invariants the
attack's correctness rests on: bursts never exceed 40, never repeat an
SSID within a burst, never resend to the same client, and provenance
always matches the database.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.selection import select_for_client
from repro.core.ssid_database import WeightedSsidDatabase

ssid_strategy = st.text(
    alphabet="abcdefghij-", min_size=1, max_size=12
).filter(lambda s: s.strip())


@st.composite
def db_with_history(draw):
    """A database plus a plausible mutation history."""
    db = WeightedSsidDatabase()
    names = draw(
        st.lists(ssid_strategy, min_size=1, max_size=120, unique=True)
    )
    for i, name in enumerate(names):
        weight = draw(st.floats(min_value=0.5, max_value=300.0))
        origin = draw(st.sampled_from(["wigle", "direct", "carrier"]))
        db.add(name, weight, origin, time=float(i))
    # Random hit history.
    hits = draw(st.lists(st.sampled_from(names), max_size=40))
    for t, ssid in enumerate(hits):
        db.record_hit(ssid, float(t), weight_bonus=draw(
            st.floats(min_value=0.0, max_value=20.0)))
    return db, names


class TestSelectionProperties:
    @settings(max_examples=60, deadline=None)
    @given(db_with_history(), st.integers(0, 2**31), st.data())
    def test_burst_invariants(self, db_and_names, seed, data):
        db, names = db_and_names
        tried = set(
            data.draw(st.lists(st.sampled_from(names), max_size=60))
        )
        split = AdaptiveSplit(total=40, initial_pb=28)
        config = CityHunterConfig()
        rng = np.random.default_rng(seed)
        metas = select_for_client(db, tried, split, config, rng, now=100.0)

        ssids = [m.ssid for m in metas]
        # Never more than the reception ceiling.
        assert len(metas) <= config.burst_total
        # Never a duplicate within one burst.
        assert len(ssids) == len(set(ssids))
        # Never an SSID already tried on this client.
        assert not set(ssids) & tried
        # Everything sent exists in the database.
        assert all(db.get(s) is not None for s in ssids)
        # If the burst is short, the database really was exhausted.
        if len(metas) < config.burst_total:
            untried = [e for e in db.ranked() if e.ssid not in tried]
            assert len(metas) == len(untried)

    @settings(max_examples=40, deadline=None)
    @given(db_with_history(), st.integers(0, 2**31))
    def test_buckets_are_legal(self, db_and_names, seed):
        db, _ = db_and_names
        split = AdaptiveSplit(total=40, initial_pb=28)
        config = CityHunterConfig()
        metas = select_for_client(
            db, frozenset(), split, config, np.random.default_rng(seed), now=0.0
        )
        legal = {"pb", "fb", "pb_ghost", "fb_ghost"}
        assert all(m.bucket in legal for m in metas)
        assert sum(1 for m in metas if m.bucket == "pb_ghost") <= config.ghost_picks
        assert sum(1 for m in metas if m.bucket == "fb_ghost") <= config.ghost_picks

    @settings(max_examples=40, deadline=None)
    @given(db_with_history(), st.integers(0, 2**31))
    def test_repeated_selection_exhausts_exactly_once(self, db_and_names, seed):
        """Sweeping a client through repeated scans sends every SSID
        exactly once (the untried-list guarantee)."""
        db, _ = db_and_names
        split = AdaptiveSplit(total=40, initial_pb=28)
        config = CityHunterConfig()
        rng = np.random.default_rng(seed)
        tried = set()
        sent_total = []
        for _ in range(len(db) // 40 + 2):
            metas = select_for_client(db, tried, split, config, rng, now=0.0)
            sent_total.extend(m.ssid for m in metas)
            tried.update(m.ssid for m in metas)
        assert len(sent_total) == len(set(sent_total)) == len(db)


class TestHunterFuzz:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**31), data=st.data())
    def test_random_probe_sequences_keep_invariants(self, city, wigle, seed, data):
        """Throw a random interleaving of probes/associations at the
        hunter; bookkeeping must stay consistent."""
        from repro.core.hunter import CityHunter
        from repro.dot11.frames import AssocRequest, ProbeRequest
        from repro.dot11.medium import Medium
        from repro.sim.simulation import Simulation

        sim = Simulation(seed=seed)
        medium = Medium(sim, fidelity="burst")
        venue = city.venue("University Canteen")
        hunter = CityHunter(
            "02:aa:00:00:00:01", venue.region.center, medium,
            wigle=wigle, heatmap=city.heatmap,
        )
        sim.add_entity(hunter)
        sim.run(0.001)

        clients = [f"02:0{i}:00:00:00:01" for i in range(4)]
        events = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(clients),
                    st.sampled_from(["broadcast", "direct", "assoc"]),
                ),
                max_size=30,
            )
        )
        for mac, kind in events:
            now = sim.now
            if kind == "broadcast":
                hunter.receive(ProbeRequest(mac), now)
            elif kind == "direct":
                hunter.receive(ProbeRequest(mac, "SomeHiddenNet"), now)
            else:
                # Associate to something actually offered, when possible.
                prov = hunter.session._provenance.get(mac, {})
                if prov:
                    ssid = next(iter(prov))
                    hunter.receive(AssocRequest(mac, hunter.mac, ssid), now)
            sim.run(sim.now + 0.5)

        # Invariants over the whole run:
        for mac, tried in hunter.core._tried.items():
            assert len(tried) == hunter.session.tried_count(mac)
        for rec in hunter.session.records():
            if rec.connected and rec.hit_bucket != "mimic":
                assert rec.hit_ssid in hunter.db
        assert (
            hunter.split.pb_size + hunter.split.fb_size
            == hunter.config.burst_total
        )
