"""Buffered structured-event sink on the shared bounded ring.

The sink is the exportable counterpart of :class:`~repro.sim.tracing.Trace`:
low-frequency, *structured* events (phase spans, PB/FB swaps, deauth
cycles) written as dicts, capped so it can stay enabled during the full
Fig. 5 sweeps; every run's retained events ride along in the batch's
``metrics.json`` (``repro obs events`` reads them back).

The sink sits on :class:`~repro.obs.substrate.Ring`: when the buffer is
full the *oldest* events are evicted and counted in ``dropped`` — recent
history is what post-mortems want, and the drop counter keeps the loss
honest in the artefact.  Its cap is the ``max_events`` argument alone
(default 65,536); ``REPRO_TRACE_MAX`` does not apply to it.
"""

from __future__ import annotations

from typing import Dict, List

from repro.obs.substrate import Ring

DEFAULT_MAX_EVENTS = 65_536


class EventSink(Ring):
    """Capped, append-only store of timestamped event dicts."""

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        enabled: bool = True,
    ):
        super().__init__(max_events, DEFAULT_MAX_EVENTS)
        self.enabled = enabled

    def emit(self, time: float, kind: str, **fields: object) -> None:
        """Record one event (no-op when disabled)."""
        if not self.enabled:
            return
        event: Dict[str, object] = {"time": time, "kind": kind}
        event.update(fields)
        self.append(event)

    def of_kind(self, kind: str) -> List[Dict[str, object]]:
        """Retained events of one kind, oldest first."""
        return [e for e in self._records if e.get("kind") == kind]
