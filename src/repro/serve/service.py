"""Attacker-as-a-service: the asyncio serving layer.

:class:`RankingService` turns the synchronous
:class:`~repro.serve.core.RankingCore` into a traffic-serving system:
probe-request events flow in through a bounded ingress queue, one
consumer task drains them in batches, and burst decisions flow out —
with explicit backpressure, load-shed accounting and ``serve.*``
metrics through the standard
:class:`~repro.obs.registry.MetricsRegistry`.

**One consumer, batched drain.**  The ranking state (SSID store, PB/FB
split, ghost-pick RNG) is shared across every client, so the *apply
order* of events decides every downstream burst.  Each accepted event
is stamped with its ingress sequence number — its position in the FIFO
queue, so concurrent producers parked on a full queue cannot commit out
of stamp order.  The consumer awaits one item, takes whatever else is
already queued with ``get_nowait()``, and commits that batch in stamp
order by calling ``core.handle`` directly.  Decisions therefore come
out in ingress order at any queue bound, which is what makes the
differential harness meaningful.  More consumer tasks
would not add throughput: they share one thread and would have to be
serialised again before touching the core.

**Backpressure vs shedding.**  The default policy is backpressure:
``submit`` awaits queue space, pushing the wait onto the producer (a
capture pipeline that cannot buffer should shed upstream).  With
``shed=True`` a full queue drops *probe* events on the floor — counted
in ``serve.shed_total`` — but feedback events always take the
backpressure path: losing a probe costs one response opportunity,
losing feedback forks the ranking state from reality.

**Faults.**  Every fault is caught in the consumer loop and counted in
``serve.consumer_faults``; the consumer keeps running with all session
state intact, because state lives in the core.  A fault in the
transport stage (``fault_hook``, a parse/validate stand-in) happens
before the core sees the event, so the event is still applied and no
feedback is lost.  A fault raised inside ``core.handle`` loses that one
event, counted in ``serve.events_failed``, and the stream continues.
"""

from __future__ import annotations

import asyncio
import os
import time as _time
from typing import Callable, Iterable, List, Optional, Tuple

from repro.obs.registry import (
    METRICS_SCHEMA,
    MetricsRegistry,
    estimate_percentile,
)
from repro.obs.reqtrace import maybe_request_trace
from repro.obs.telemetry import HeartbeatWriter, resolve_heartbeat_interval
from repro.serve.core import RankingCore
from repro.serve.events import BurstDecision, Event, FeedbackEvent, ProbeEvent

DEFAULT_QUEUE_MAX = 1024

LATENCY_BUCKETS_US: Tuple[float, ...] = (
    50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600,
)
"""Burst-selection latency histogram bounds, microseconds (an overflow
bucket is implicit).  Wall-clock observations: like the ``timers``
section, these are *not* part of the deterministic metric surface."""

STAGE_BUCKETS_US: Tuple[float, ...] = (
    50, 100, 200, 400, 800, 1600, 3200, 6400, 12800, 25600,
    102400, 409600, 1638400, 6553600,
)
"""Queue-wait / commit-wait histogram bounds, microseconds.  The waits
are dominated by backlog, not compute, so the range extends to ~6.5 s
before the overflow bucket.  Wall-clock, like the select histogram."""


class RankingService:
    """Async probe-stream server over one shared :class:`RankingCore`."""

    def __init__(
        self,
        core: RankingCore,
        queue_max: Optional[int] = None,
        shed: bool = False,
        metrics: Optional[MetricsRegistry] = None,
        fault_hook: Optional[Callable[[Event], None]] = None,
        sample_latencies: bool = False,
        req_trace: Optional[bool] = None,
    ):
        self.core = core
        self.queue_max = (
            DEFAULT_QUEUE_MAX if queue_max is None else max(1, int(queue_max))
        )
        self.shed = shed
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.decisions: List[BurstDecision] = []
        self.events_log: List[dict] = []
        self._fault_hook = fault_hook
        self._sample_latencies = sample_latencies
        self.latencies_us: List[float] = []
        self._queue: Optional[asyncio.Queue] = None
        self._next_seq = 0  # stamped on enqueue
        self._next_pick = 0  # the consumer's matching FIFO count
        self._consumer: Optional[asyncio.Task] = None
        # Observe-only instrumentation: the span ring never touches an
        # RNG stream and the heartbeat thread never mutates core state,
        # so digests are identical with both on or off.
        self.reqtrace = maybe_request_trace(req_trace)
        self._heartbeat: Optional[HeartbeatWriter] = None
        self._committed = 0
        self._hb_anchor: Tuple[float, int] = (0.0, 0)

    # -- lifecycle -------------------------------------------------------------

    def _ensure_queue(self) -> asyncio.Queue:
        if self._queue is None:
            self._queue = asyncio.Queue(maxsize=self.queue_max)
        return self._queue

    async def start(self) -> None:
        """Spawn the consumer task."""
        if self._consumer is not None:
            return
        queue = self._ensure_queue()
        self._consumer = asyncio.get_running_loop().create_task(
            self._consume(queue)
        )
        interval = resolve_heartbeat_interval()
        if interval is not None and self._heartbeat is None:
            self._heartbeat = HeartbeatWriter(
                "serve",
                1.0,  # rescaled to the submitted count on every beat
                lambda: (float(self._committed), len(self.decisions)),
                interval_s=interval,
                file_stem="serve-%d" % os.getpid(),
                extra=self._heartbeat_extra,
            ).__enter__()

    async def drain(self) -> None:
        """Wait until every accepted event has been committed."""
        if self._queue is not None:
            await self._queue.join()

    async def stop(self) -> None:
        """Cancel the consumer (drain first for a clean shutdown)."""
        if self._consumer is not None:
            consumer, self._consumer = self._consumer, None
            consumer.cancel()
            try:
                await consumer
            except asyncio.CancelledError:
                pass
        if self._heartbeat is not None:
            heartbeat, self._heartbeat = self._heartbeat, None
            heartbeat.__exit__(None, None, None)

    # -- ingress ---------------------------------------------------------------

    async def submit(self, event: Event) -> bool:
        """Offer one event; returns False when shed (never for feedback)."""
        queue = self._ensure_queue()
        etype = "feedback" if isinstance(event, FeedbackEvent) else (
            "direct" if event.is_direct else "broadcast"
        )
        self.metrics.inc("serve.events_total", type=etype)
        if (
            self.shed
            and isinstance(event, ProbeEvent)
            and queue.full()
        ):
            self.metrics.inc("serve.shed_total", type=etype)
            return False
        t_offer = _time.perf_counter()
        await queue.put((event, t_offer))
        # No await between the put and here, so this is the event's
        # queue position — the seq the consumer will count it at.
        seq = self._next_seq
        self._next_seq += 1
        self.metrics.gauge_max("serve.queue_depth_peak", queue.qsize())
        if self.reqtrace is not None:
            # The enqueue span covers any backpressure wait for queue
            # space; queue_wait starts at the offer for the same reason.
            self.reqtrace.record(
                "enqueue",
                seq,
                t_offer,
                _time.perf_counter() - t_offer,
                mac=event.mac,
                etype=etype,
            )
        return True

    # -- consumer --------------------------------------------------------------

    async def _consume(self, queue: asyncio.Queue) -> None:
        """Await one item, drain the rest of the backlog, commit in order."""
        while True:
            batch = [await queue.get()]
            while not queue.empty():
                batch.append(queue.get_nowait())
            t_pick = _time.perf_counter()
            for event, t_offer in batch:
                self._process(self._next_pick, event, t_offer, t_pick)
                self._next_pick += 1
                queue.task_done()

    def _process(
        self, seq: int, event: Event, t_offer: float, t_pick: float
    ) -> None:
        self.metrics.observe(
            "serve.queue_wait_us",
            (t_pick - t_offer) * 1e6,
            buckets=STAGE_BUCKETS_US,
        )
        if self.reqtrace is not None:
            self.reqtrace.record("queue_wait", seq, t_offer, t_pick - t_offer)
        if self._fault_hook is not None:
            try:
                self._fault_hook(event)
            except Exception:
                # Transport-stage fault: the core never saw the event,
                # so apply it anyway — feedback is never lost.
                self._fault(seq, "transport")
        try:
            self._commit(seq, event, t_pick)
        except Exception:
            self._fault(seq, "commit")
            self.metrics.inc("serve.events_failed")

    def _fault(self, seq: int, stage: str) -> None:
        self.metrics.inc("serve.consumer_faults")
        self.events_log.append(
            {"kind": "serve.consumer_fault", "seq": seq, "stage": stage}
        )

    def _commit(self, seq: int, event: Event, t_pick: float) -> None:
        start = _time.perf_counter()
        # Head-of-line wait inside the drained batch.
        self.metrics.observe(
            "serve.commit_wait_us",
            (start - t_pick) * 1e6,
            buckets=STAGE_BUCKETS_US,
        )
        decision = self.core.handle(event)
        t_rank = _time.perf_counter()
        elapsed_us = (t_rank - start) * 1e6
        if isinstance(event, ProbeEvent):
            self.metrics.observe(
                "serve.select_latency_us",
                elapsed_us,
                buckets=LATENCY_BUCKETS_US,
            )
            self.metrics.timer_add("serve.select", elapsed_us / 1e6)
            if self._sample_latencies:
                self.latencies_us.append(elapsed_us)
        self._committed += 1
        if decision is not None:
            self.decisions.append(decision)
            self.metrics.inc("serve.decisions_total", kind=decision.kind)
            self.metrics.inc("serve.ssids_offered", len(decision.ssids))
        t_apply = _time.perf_counter()
        self.metrics.observe(
            "serve.apply_us",
            (t_apply - t_rank) * 1e6,
            buckets=LATENCY_BUCKETS_US,
        )
        if self.reqtrace is not None:
            self.reqtrace.record("commit_wait", seq, t_pick, start - t_pick)
            self.reqtrace.record(
                "rank",
                seq,
                start,
                t_rank - start,
                kind=None if decision is None else decision.kind,
            )
            self.reqtrace.record("apply", seq, t_rank, t_apply - t_rank)

    # -- bookkeeping -----------------------------------------------------------

    def _heartbeat_extra(self) -> dict:
        """Serving vitals for one heartbeat record (read-only).

        Runs on the heartbeat thread: every value is a plain read of
        int/float attributes or histogram buckets the event loop writes
        — a torn read smears one beat, never the service.
        """
        now = _time.perf_counter()
        hist = self.metrics.histogram("serve.select_latency_us")
        probes = hist.count if hist is not None else 0
        last_wall, last_probes = self._hb_anchor
        rate = None
        if last_wall and now > last_wall:
            rate = round((probes - last_probes) / (now - last_wall), 1)
        self._hb_anchor = (now, probes)
        submitted = self._next_seq
        shed = self.shed_total()
        offered = submitted + shed
        if self._heartbeat is not None:
            # Fraction in the base record = committed / submitted.
            self._heartbeat.duration_s = float(max(1, submitted))
        return {
            "kind": "serve",
            "events": int(offered),
            "committed": int(self._committed),
            "probes_per_s": rate,
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "queue_max": self.queue_max,
            "shed": int(shed),
            "shed_fraction": (
                round(shed / offered, 6) if offered else 0.0
            ),
            "p50_us": estimate_percentile(hist, 50) if hist else None,
            "p99_us": estimate_percentile(hist, 99) if hist else None,
            "consumer_faults": int(
                self.metrics.counter_value("serve.consumer_faults")
            ),
        }

    def finish(self) -> None:
        """Fold the core's deterministic counters into the registry."""
        stats = self.core.stats()
        self.metrics.gauge_set("serve.db_size", stats["db_size"])
        self.metrics.gauge_set("serve.clients", stats["clients"])
        self.metrics.gauge_set("serve.pb_size", stats["pb_size"])
        self.metrics.gauge_set("serve.fb_size", stats["fb_size"])
        hits, misses = stats["rank_cache_hits"], stats["rank_cache_misses"]
        if hits:
            self.metrics.inc("serve.rank_cache", hits, result="hit")
        if misses:
            self.metrics.inc("serve.rank_cache", misses, result="miss")
        if self.reqtrace is not None:
            self.metrics.gauge_set(
                "reqtrace.records", float(len(self.reqtrace))
            )
            self.metrics.gauge_set(
                "reqtrace.dropped", float(self.reqtrace.dropped)
            )
            self.metrics.gauge_set(
                "reqtrace.cap", float(self.reqtrace.max_records)
            )
            self.reqtrace.flush()

    def shed_total(self) -> float:
        """Total events shed so far (all types)."""
        return sum(
            self.metrics.counters_named("serve.shed_total").values()
        )


async def serve_stream(
    service: RankingService, events: Iterable[Event]
) -> List[BurstDecision]:
    """Run one bounded stream to completion through ``service``."""
    stream_start = _time.perf_counter()
    await service.start()
    try:
        for event in events:
            await service.submit(event)
        await service.drain()
    finally:
        await service.stop()
    # Wall time of the whole stream (quarantined in ``timers``): what
    # ``obs summarize`` divides the probe count by for probes/s.
    service.metrics.timer_add(
        "serve.stream", _time.perf_counter() - stream_start
    )
    service.finish()
    return service.decisions


def serve_metrics_doc(
    service: RankingService,
    tag: str = "serve",
    seed: int = 0,
    venue: Optional[str] = None,
) -> dict:
    """One serving run as a standard ``repro.metrics/v1`` artefact.

    The same document shape the batch executor writes, so the whole
    ``obs`` toolchain — ``summarize``, ``prom``, the schema validator —
    works on serving runs unchanged.  ``workers`` is always 1 (one
    consumer); the schema requires the field.
    """
    snapshot = service.metrics.to_dict()
    return {
        "schema": METRICS_SCHEMA,
        "workers": 1,
        "run_count": 1,
        "merged": snapshot,
        "runs": [
            {
                "tag": tag,
                "attacker": "serve",
                "venue": venue,
                "seed": seed,
                "metrics": snapshot,
                "events": list(service.events_log),
            }
        ],
    }


def run_stream(
    core: RankingCore,
    events: Iterable[Event],
    queue_max: Optional[int] = None,
    shed: bool = False,
    metrics: Optional[MetricsRegistry] = None,
    sample_latencies: bool = False,
    req_trace: Optional[bool] = None,
) -> RankingService:
    """Synchronous convenience: serve ``events``, return the service.

    The returned service carries the decision list, the metrics
    registry and (optionally) the raw latency samples.
    """
    service = RankingService(
        core,
        queue_max=queue_max,
        shed=shed,
        metrics=metrics,
        sample_latencies=sample_latencies,
        req_trace=req_trace,
    )
    asyncio.run(serve_stream(service, events))
    return service
