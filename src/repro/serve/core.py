"""The City-Hunter kernel: paper steps 2-4 as synchronous state transitions.

:class:`RankingCore` is the one implementation of the attack loop of
paper Section IV (Fig. 3): online updating from direct probes and hits,
adaptive PB/FB selection with ghost-list exploration, and per-client
untried lists.  It owns the
:class:`~repro.core.ssid_database.WeightedSsidDatabase`, the
:class:`~repro.core.adaptive.AdaptiveSplit` and the untried lists, and
exposes three transitions:

* :meth:`RankingCore.choose_burst` — the burst for one client (step 3+4);
* :meth:`RankingCore.learn_direct` — harvest or bump a direct-probed
  SSID (step 2);
* :meth:`RankingCore.learn_hit` — weight/freshness update and buffer
  adaptation after an association (step 2).

Two adapters drive them.  The simulator's
:class:`~repro.core.hunter.CityHunter` calls them from its frame hooks
on the medium.  :meth:`RankingCore.handle` is the event adapter: it
wraps the same calls in the session bookkeeping
:meth:`repro.attacks.base.RogueAp.receive` does around the hooks, so
:class:`~repro.serve.events.ProbeEvent` /
:class:`~repro.serve.events.FeedbackEvent` objects in stream order
yield :class:`~repro.serve.events.BurstDecision` objects bit-identical
to the simulator's transmissions.  The differential harness
(``tests/test_serve_differential.py``) replays recorded simulator
streams through both adapters and asserts exactly that.

The core is synchronous and single-threaded: one event, one state
transition, no awaits.  Transport (the bounded queue, shedding, the
batching consumer) lives in :mod:`repro.serve.service`, which commits
events through :meth:`RankingCore.handle` in ingress order.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set

import numpy as np

from repro.analysis.session import AttackSession, SentSsid
from repro.city.heatmap import HeatMap
from repro.core.adaptive import AdaptiveSplit
from repro.core.config import CityHunterConfig
from repro.core.seeding import SeedingStats, seed_database
from repro.core.selection import select_for_client
from repro.core.ssid_database import WeightedSsidDatabase
from repro.faults.plan import WigleFaultParams
from repro.geo.point import Point
from repro.serve.events import BurstDecision, Event, FeedbackEvent, ProbeEvent
from repro.util.rng import derive_seed
from repro.wigle.database import WigleDatabase

RNG_STREAM = "cityhunter"
"""Name of the ghost-pick RNG substream — the same name the inline
attacker claims from ``sim.rngs``, so a core seeded with the scenario
seed replays the identical pick sequence."""

_EMPTY_SET: frozenset = frozenset()


class RankingCore:
    """Per-node ranking state: shared SSID store + per-client sessions.

    The SSID store (``db``), the adaptive PB/FB split and the ghost-pick
    RNG are *shared* across every client the node serves: one database
    serves every probe.  Per-client state (untried lists, session
    records) is keyed by MAC.
    """

    def __init__(
        self,
        db: WeightedSsidDatabase,
        config: Optional[CityHunterConfig] = None,
        rng: Optional[np.random.Generator] = None,
        session: Optional[AttackSession] = None,
    ):
        self.config = config if config is not None else CityHunterConfig()
        self.db = db
        self.session = session if session is not None else AttackSession()
        self.split = AdaptiveSplit(
            total=self.config.burst_total,
            initial_pb=self.config.initial_pb,
            min_size=self.config.min_buffer,
            enabled=self.config.adaptive,
        )
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self._tried: Dict[str, Set[str]] = {}
        self.seeding_stats: Optional[SeedingStats] = None
        # Deterministic serving counters (pure functions of the stream).
        self.events_handled = 0
        self.rank_cache_hits = 0
        self.rank_cache_misses = 0
        # Bumped on every db mutation; a selection that runs with the
        # version unchanged reuses the incremental ranking lists with
        # zero maintenance done since — the "cache hit" of the
        # bisect-based ranking from the hot-path PR.
        self._db_version = 0
        self._version_at_last_select = -1

    @classmethod
    def seeded(
        cls,
        wigle: WigleDatabase,
        heatmap: Optional[HeatMap],
        position: Point,
        config: Optional[CityHunterConfig] = None,
        seed: int = 0,
        use_heat: bool = True,
        wigle_faults: Optional[WigleFaultParams] = None,
        wigle_fault_seed: int = 0,
    ) -> "RankingCore":
        """A core whose database is seeded for an attacker at ``position``.

        ``seed`` is the *scenario* seed: the ghost-pick RNG is derived
        through the same ``(seed, "cityhunter")`` fan-out the
        simulation's :class:`~repro.util.rng.RngRegistry` performs, so a
        service replaying a recorded stream from a seed-``s`` scenario
        consumes the identical pick sequence.
        """
        config = config if config is not None else CityHunterConfig()
        stats = SeedingStats()
        db = seed_database(
            wigle,
            heatmap,
            position,
            config,
            use_heat=use_heat,
            faults=wigle_faults,
            fault_seed=wigle_fault_seed,
            stats=stats,
        )
        rng = np.random.default_rng(derive_seed(seed, RNG_STREAM))
        core = cls(db, config=config, rng=rng)
        core.seeding_stats = stats
        return core

    @property
    def db_size(self) -> int:
        return len(self.db)

    # -- paper steps 2-4 ---------------------------------------------------------

    def choose_burst(self, client: str, time: float) -> List[SentSsid]:
        """Step 3+4: the best untried SSIDs for ``client``, marked tried."""
        if self.config.untried_lists:
            tried = self._tried.setdefault(client, set())
        else:
            tried = _EMPTY_SET
        if self._db_version == self._version_at_last_select:
            self.rank_cache_hits += 1
        else:
            self.rank_cache_misses += 1
            self._version_at_last_select = self._db_version
        metas = select_for_client(
            self.db, tried, self.split, self.config, self.rng, now=time
        )
        if metas and self.config.untried_lists:
            tried.update(m.ssid for m in metas)
        return metas

    def learn_direct(self, ssid: str, time: float) -> bool:
        """Step 2: harvest or bump a direct-probed SSID; True if it was new."""
        new = ssid not in self.db
        if new:
            self.db.add(
                ssid, self.config.direct_initial_weight, origin="direct", time=time
            )
            self.session.record_db_size(time, len(self.db))
        else:
            self.db.bump_weight(ssid, self.config.direct_repeat_bump)
        self._db_version += 1
        entry = self.db.get(ssid)
        entry.direct_seen = True
        entry.last_direct_seen = time
        return new

    def learn_hit(
        self, ssid: str, time: float, bucket: Optional[str]
    ) -> Optional[str]:
        """Step 2: learn from a hit in ``bucket``; the PB/FB swap, if any."""
        broadcast_hit = bucket is not None and bucket != "mimic"
        self.db.record_hit(
            ssid, time, weight_bonus=self.config.hit_weight_bonus, fresh=broadcast_hit
        )
        self.db.trim_recency(self.config.recency_cap)
        self._db_version += 1
        return self.split.on_hit(bucket) if broadcast_hit else None

    # -- event adapter ------------------------------------------------------------

    def handle(self, event: Event) -> Optional[BurstDecision]:
        """Apply one event; returns the decision it produced, if any.

        Session bookkeeping brackets each transition in the order
        ``RogueAp.receive`` and the send helpers apply it inline.
        """
        self.events_handled += 1
        if isinstance(event, FeedbackEvent):
            # First association wins; the recorded bucket drives learning.
            record = self.session.record_hit(event.mac, event.time, event.ssid)
            self.learn_hit(event.ssid, event.time, record.hit_bucket)
            return None
        if not isinstance(event, ProbeEvent):
            raise TypeError("unknown event type %r" % type(event).__name__)
        mac, time = event.mac, event.time
        self.session.observe_probe(mac, time, direct=event.is_direct)
        if event.is_direct:
            self.learn_direct(event.ssid, time)
            self.session.record_mimic(mac, time, event.ssid)
            meta = SentSsid(event.ssid, origin="mimic", bucket="mimic")
            return BurstDecision(mac, time, "mimic", (meta,))
        metas = self.choose_burst(mac, time)
        if not metas:
            return None
        self.session.record_sent(mac, time, metas)
        return BurstDecision(mac, time, "burst", tuple(metas))

    # -- introspection ----------------------------------------------------------

    def stats(self) -> dict:
        """Deterministic serving counters (pure functions of the stream)."""
        return {
            "events_handled": self.events_handled,
            "db_size": len(self.db),
            "clients": len(self.session.clients),
            "rank_cache_hits": self.rank_cache_hits,
            "rank_cache_misses": self.rank_cache_misses,
            "pb_size": self.split.pb_size,
            "fb_size": self.split.fb_size,
        }
