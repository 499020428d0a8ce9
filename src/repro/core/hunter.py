"""The advanced City-Hunter attacker (paper Section IV) on the medium.

:class:`CityHunter` is the frame adapter over the one City-Hunter kernel,
:class:`~repro.serve.core.RankingCore`: the kernel owns the WiGLE +
heat-map seeded database, the adaptive PB/FB split with its ghost lists
and the per-client untried lists (steps 1-4 of Fig. 3), while this class
turns probe and association frames into kernel calls and the kernel's
answers into probe responses, ``hunter.*`` metrics and ``pbfb_swap``
events.  Direct probes are answered KARMA-style, as the paper specifies.
"""

from __future__ import annotations

from typing import Optional

from repro.attacks.base import RogueAp
from repro.city.heatmap import HeatMap
from repro.core.config import CityHunterConfig
from repro.dot11.mac import MacAddress
from repro.faults.plan import WigleFaultParams
# select_for_client is re-exported because perfbench wraps it by module.
from repro.serve.core import RNG_STREAM, RankingCore, select_for_client  # noqa: F401
from repro.sim.simulation import Simulation
from repro.wigle.database import WigleDatabase


class CityHunter(RogueAp):
    """The full adaptive attacker."""

    name = "city-hunter"

    def __init__(
        self,
        *args,
        wigle: WigleDatabase,
        heatmap: Optional[HeatMap],
        config: Optional[CityHunterConfig] = None,
        use_heat: bool = True,
        wigle_faults: Optional[WigleFaultParams] = None,
        wigle_fault_seed: int = 0,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        core = self.core = RankingCore.seeded(
            wigle,
            heatmap,
            self.position,
            config=config,
            use_heat=use_heat,
            wigle_faults=wigle_faults,
            wigle_fault_seed=wigle_fault_seed,
        )
        core.session = self.session
        # Aliases into the kernel, which never rebinds them.
        self.config, self.db, self.split = core.config, core.db, core.split
        self.seeding_stats = core.seeding_stats

    def start(self, sim: Simulation) -> None:
        """Attach to the medium and hand the kernel the shared ghost-pick
        stream (co-deployed hunters draw from one generator)."""
        super().start(sim)
        self.core.rng = sim.rngs.stream(RNG_STREAM)
        self.session.record_db_size(sim.now, len(self.db))
        self._record_split(sim.now)
        stats = self.seeding_stats
        if stats.total_skipped:
            if stats.skipped_corrupt:
                sim.metrics.inc(
                    "faults.wigle_records_skipped",
                    stats.skipped_corrupt,
                    kind="corrupt",
                )
            if stats.skipped_missing:
                sim.metrics.inc(
                    "faults.wigle_records_skipped",
                    stats.skipped_missing,
                    kind="missing",
                )
            sim.metrics.inc(
                "seeding.textgen_fallback", stats.textgen_fallback
            )
            sim.record_event(
                "fault.wigle_seed",
                skipped_corrupt=stats.skipped_corrupt,
                skipped_missing=stats.skipped_missing,
                textgen_fallback=stats.textgen_fallback,
            )

    def provenance_of(self, ssid: str, origin) -> str:
        """Refine ``wigle`` into near/heat via the entry's seed class."""
        if origin == "wigle":
            entry = self.db.get(ssid)
            if entry is not None and entry.seed_class:
                return entry.seed_class
        return super().provenance_of(ssid, origin)

    def _record_split(self, time: float) -> None:
        """Append the current PB/FB sizes to the metrics timelines."""
        metrics = self.metrics
        if metrics is None:
            return
        metrics.series_append("hunter.pb_size", time, self.split.pb_size)
        metrics.series_append("hunter.fb_size", time, self.split.fb_size)

    @property
    def db_size(self) -> int:
        """Current database size."""
        return len(self.db)

    # -- probe handling ---------------------------------------------------------

    def on_broadcast_probe(self, client: MacAddress, time: float) -> None:
        """Step 3+4: select and send the best untried SSIDs."""
        self.send_ssid_burst(client, self.core.choose_burst(client, time), time)

    def on_direct_probe(self, client: MacAddress, ssid: str, time: float) -> None:
        """KARMA-style reflection plus online database updating."""
        if self.core.learn_direct(ssid, time) and self.metrics is not None:
            self.metrics.inc("hunter.db_adds", provenance="overheard-direct")
            self.metrics.gauge_max("hunter.db_size_peak", len(self.db))
        self.send_mimic(client, ssid, time)

    # -- online updating on hits ---------------------------------------------------

    def on_hit(self, client: MacAddress, ssid: str, time: float) -> None:
        """Step 2: weight bump, freshness update, buffer adaptation."""
        record = self.session.clients.get(client)
        bucket = record.hit_bucket if record is not None else None
        direction = self.core.learn_hit(ssid, time, bucket)
        if direction is None:
            return
        self._record_split(time)
        if self.metrics is not None:
            self.metrics.inc("hunter.pbfb_swaps", direction=direction)
        if self.sim is not None:
            self.sim.record_event(
                "pbfb_swap",
                direction=direction,
                pb=self.split.pb_size,
                fb=self.split.fb_size,
                trigger_bucket=bucket,
                ssid=ssid,
            )
