"""Per-probe request tracing through the serving path.

PR 5's lineage tracer answered *where did this hit come from* in the
simulation; this module answers *where did this probe's microseconds
go* in the serving plane.  When ``REPRO_REQ_TRACE`` is truthy, the
:class:`~repro.serve.service.RankingService` records one span per
pipeline stage for every accepted event:

* ``enqueue``     — ingress: the ``submit`` call offering the event to
  the bounded queue (includes any backpressure wait for queue space);
* ``queue_wait``  — from the ingress offer to the consumer picking the
  event off the queue in a drained batch;
* ``commit_wait`` — from that batch pickup to the event's own commit:
  the head-of-line wait behind earlier events of the same batch;
* ``rank``        — the ranking walk (``core.handle``), the paper's hot
  path;
* ``apply``       — decision emission: appending the burst decision and
  its counters.

**Observe-only, bounded.**  Spans land in an in-memory ring
(:class:`RequestTrace`, a :class:`~repro.obs.substrate.Ring` capped at
200,000 records unless ``REPRO_TRACE_MAX`` — the cap every trace ring
shares — says otherwise) as plain dicts stamped with ``perf_counter``
readings.  Nothing here draws from an RNG stream or schedules work, so
decision streams and differential-parity digests are bit-identical with
tracing on or off — the same contract the lineage and epoch tracers
honour.  When the ring is full the *oldest* spans are dropped and
counted (``reqtrace.dropped`` gauge): under overload you keep the most
recent window, which is the one you are debugging.

**Files and export.**  ``RankingService.finish`` flushes the ring
through one :class:`~repro.obs.substrate.TelemetryLog` to
``<artifact_dir>/telemetry/reqtrace-<pid>.jsonl`` (the previous run's
file rotated to ``.old``).  :func:`req_trace_doc` maps one or more such
files onto the shared :class:`~repro.obs.substrate.ChromeTrace` document
— an ingress track plus one consumer track, with flow arrows following
each sequence number from its ingress enqueue to its commit.
``repro obs serve-trace`` and ``repro serve bench --req-trace`` drive
the export.
"""

from __future__ import annotations

import os
import pathlib
from typing import Dict, List, Optional, Union

from repro.obs.substrate import (
    ChromeTrace,
    Ring,
    TelemetryLog,
    env_flag,
    load_jsonl_dir,
    telemetry_dir,
)

REQ_TRACE_ENV = "REPRO_REQ_TRACE"

DEFAULT_MAX_RECORDS = 200_000
"""Ring capacity: at 5 spans per probe this holds the last ~40k probes."""

REQTRACE_FILE_PREFIX = "reqtrace-"

#: Keys every span record carries (foreign lines lack them).
SPAN_KEYS = ("stage", "seq", "start")

#: Stage names in pipeline order; only ``enqueue`` runs on ingress.
STAGES = ("enqueue", "queue_wait", "commit_wait", "rank", "apply")


def resolve_req_trace(value: Optional[bool] = None) -> bool:
    """Is request tracing enabled?  Explicit arg wins over the env."""
    if value is not None:
        return bool(value)
    return env_flag(REQ_TRACE_ENV)


class RequestTrace(Ring):
    """Bounded in-memory ring of per-stage spans for one service.

    ``record`` is called from the serving hot path, so it does the
    minimum: build one plain dict and append it to the ring.
    """

    def __init__(self, max_records: Optional[int] = None):
        super().__init__(max_records, DEFAULT_MAX_RECORDS)

    def record(
        self,
        stage: str,
        seq: int,
        start: float,
        dur: float,
        **attrs: object,
    ) -> None:
        """Append one stage span (``start``/``dur`` in perf-counter s)."""
        rec: Dict[str, object] = {
            "stage": stage,
            "seq": int(seq),
            "start": float(start),
            "dur": float(dur),
        }
        for key, value in attrs.items():
            if value is not None:
                rec[key] = value
        self.append(rec)

    def flush(
        self, base: Optional[Union[str, pathlib.Path]] = None
    ) -> pathlib.Path:
        """Write the retained spans to ``reqtrace-<pid>.jsonl`` (the
        previous run's file is rotated to ``.old``)."""
        path = telemetry_dir(base) / (
            "%s%d.jsonl" % (REQTRACE_FILE_PREFIX, os.getpid())
        )
        with TelemetryLog(path) as log:
            log.write(*self._records)
        return path


def maybe_request_trace(
    enabled: Optional[bool] = None,
    max_records: Optional[int] = None,
) -> Optional[RequestTrace]:
    """A :class:`RequestTrace` when tracing is on, else ``None`` — the
    single gate the service constructor uses."""
    if not resolve_req_trace(enabled):
        return None
    return RequestTrace(max_records)


def load_reqtrace_dir(directory: Union[str, pathlib.Path]) -> List[dict]:
    """Every span in every ``reqtrace-*.jsonl`` under ``directory``, in
    sorted-file order (the exporter sorts by timestamp anyway)."""
    by_file = load_jsonl_dir(directory, REQTRACE_FILE_PREFIX, SPAN_KEYS)
    return [rec for records in by_file.values() for rec in records]


# -- Chrome trace-event export ----------------------------------------------


INGRESS_TID = 0
CONSUMER_TID = 1
"""``enqueue`` spans render on the ingress track, every other stage on
the consumer track below it."""


def _span_tid(rec: dict) -> int:
    return INGRESS_TID if rec["stage"] == "enqueue" else CONSUMER_TID


def req_trace_doc(records: List[dict]) -> dict:
    """Chrome trace-event JSON for a list of request spans.

    One ``X`` (complete) event per span on the ingress track (tid 0) or
    the consumer track (tid 1); an ``s``/``f`` flow-arrow pair per
    sequence number connecting the ingress ``enqueue`` span to its
    ``rank`` commit span.  Open in Perfetto / ``chrome://tracing``.
    """
    if not records:
        raise ValueError("no request spans to export")
    trace = ChromeTrace("repro-serve", pid=0)
    trace.track("ingress", INGRESS_TID)
    trace.track("consumer", CONSUMER_TID)
    t0 = min(float(r["start"]) for r in records)

    def ts(start: float) -> float:
        return round((start - t0) * 1e6, 1)

    enqueue_by_seq: Dict[int, dict] = {}
    commit_by_seq: Dict[int, dict] = {}
    for rec in records:
        seq = int(rec["seq"])
        stage = rec["stage"]
        if stage == "enqueue":
            enqueue_by_seq[seq] = rec
        elif stage == "rank":
            commit_by_seq[seq] = rec
        args: Dict[str, object] = {"seq": seq}
        for key in ("mac", "etype", "kind"):
            if rec.get(key) is not None:
                args[key] = rec[key]
        dur = round(float(rec.get("dur", 0.0)) * 1e6, 1)
        trace.span(
            _span_tid(rec), ts(float(rec["start"])), dur, stage, "serve", args
        )
    # Flow arrows: ingress enqueue -> that sequence's commit.
    common = sorted(set(enqueue_by_seq) & set(commit_by_seq))
    for flow_id, seq in enumerate(common, 1):
        enq, commit = enqueue_by_seq[seq], commit_by_seq[seq]
        enq_end = float(enq["start"]) + float(enq.get("dur", 0.0))
        trace.flow(
            flow_id, "probe", "serve.flow",
            (_span_tid(enq), ts(enq_end)),
            (_span_tid(commit), ts(float(commit["start"]))),
        )
    return trace.doc(sort=True)

