"""Per-epoch barrier spans for the district-sharded engine.

The sharded engine's unit of progress is the *epoch*: every shard runs
phase A (walkers), hits the X1 barrier, runs phase B (sensors), hits
X2, repeat.  End-of-run ``shardops.*`` gauges say how much total work
each shard did; nothing says *which shard was the straggler at which
epoch* or how handoff volume skewed across the stripes.  This module
records exactly that.

With ``REPRO_EPOCH_TRACE`` set (truthy), every
:class:`~repro.sim.shards.shard.ShardRuntime` owns an
:class:`EpochTracer` that appends one JSON record per phase, through one
:class:`~repro.obs.substrate.TelemetryLog` opened once per run, to
``<artifact_dir>/telemetry/epochs-<k>.jsonl``:

* wall-clock start/duration of the phase (``wall``/``wall_s``);
* time spent waiting at the barrier before the phase (``barrier_s`` —
  in process mode that is genuine pipe-wait, in inline mode it is the
  time the driver spent stepping the *other* shards, which is the same
  straggler signal);
* handed-in record counts by kind (``in``) and handed-out record
  counts and bytes by destination shard (``out``/``out_bytes``).

Files are append-only with one writer each, exactly like the heartbeat
files — the live aggregator (``repro obs top``) only reads.  A run's
first tracer rotates the previous run's file to ``.old``; a shard worker
respawned after a crash appends instead, so the file keeps the
pre-crash epochs next to the replayed ones.

Determinism contract: the tracer only observes.  It never draws from an
RNG stream, never touches the workload metrics, never schedules an
event — golden digests are bit-identical with tracing on or off
(asserted in ``tests/test_shard_golden.py``).

Exports: :func:`epoch_trace_doc` maps the records onto the shared
:class:`~repro.obs.substrate.ChromeTrace` document with one track per
shard, a span per phase, a span per barrier wait, and flow arrows for
every cross-shard handoff batch — an epoch-barrier stall reads as one
visibly long span in Perfetto.  That is the ``repro obs shard-trace``
CLI.
"""

from __future__ import annotations

import pathlib
import time as _time
from typing import Callable, Dict, List, Optional, Union

from repro.obs.substrate import (
    ChromeTrace,
    TelemetryLog,
    env_flag,
    load_jsonl_dir,
    telemetry_dir,
    truthy,
)

EPOCH_TRACE_ENV = "REPRO_EPOCH_TRACE"

EPOCH_FILE_PREFIX = "epochs-"

#: Keys every epoch record carries (foreign lines lack them).
EPOCH_KEYS = ("epoch", "phase")

#: Phases in barrier order within one epoch.
PHASES = ("a", "b")

#: Auxiliary record kinds sharing the epoch files (not barrier phases):
#: ``"c"`` marks a checkpoint write at an epoch barrier.
AUX_PHASES = ("c",)


def resolve_epoch_trace(value: Optional[str] = None) -> bool:
    """Whether per-epoch barrier tracing is on (``REPRO_EPOCH_TRACE``)."""
    return env_flag(EPOCH_TRACE_ENV) if value is None else truthy(value)


def _record_bytes(records) -> int:
    """Rough payload size of a handoff batch (repr bytes — cheap, stable
    enough for skew detection; only computed when tracing is on)."""
    return sum(len(repr(rec)) for rec in records)


class EpochTracer:
    """Append-only per-shard epoch recorder (one instance per shard).

    The shard calls :meth:`record` once per phase, after the phase ran
    and its outboxes are assembled.  The file is opened when the tracer
    is built, rotating any leftover file from a previous run to
    ``<name>.old`` so epoch counts are never inflated by stale runs.
    """

    def __init__(
        self,
        shard_id: int,
        shards: int,
        epochs_total: int,
        base_dir: Optional[Union[str, pathlib.Path]] = None,
        clock: Callable[[], float] = _time.time,
    ):
        self.shard_id = int(shard_id)
        self.shards = int(shards)
        self.epochs_total = int(epochs_total)
        self.path = telemetry_dir(base_dir) / (
            "%s%d.jsonl" % (EPOCH_FILE_PREFIX, shard_id)
        )
        self._clock = clock
        self._log = TelemetryLog(self.path)

    def close(self) -> None:
        self._log.close()

    def record(
        self,
        epoch: int,
        phase: str,
        wall_s: float,
        barrier_s: float,
        records_in: Dict[str, int],
        outboxes: Dict[int, list],
        extra: Optional[Dict[str, object]] = None,
    ) -> None:
        """Append one phase record; ``outboxes`` is the dest->records map
        the phase produced (summarised here, never retained).  ``extra``
        carries phase-specific fields (e.g. checkpoint ``bytes`` on
        ``"c"`` records) and never overrides the core keys."""
        rec = {
            "wall": self._clock(),
            "shard": self.shard_id,
            "shards": self.shards,
            "epoch": int(epoch),
            "epochs": self.epochs_total,
            "phase": phase,
            "wall_s": float(wall_s),
            "barrier_s": float(barrier_s),
            "in": {k: int(v) for k, v in records_in.items() if v},
            "out": {int(d): len(recs) for d, recs in outboxes.items()},
            "out_bytes": sum(_record_bytes(r) for r in outboxes.values()),
        }
        if extra:
            for key, value in extra.items():
                rec.setdefault(key, value)
        self._log.write(rec)


def maybe_epoch_tracer(
    shard_id: int,
    shards: int,
    epochs_total: int,
    enabled: Optional[bool] = None,
) -> Optional[EpochTracer]:
    """An :class:`EpochTracer` when tracing is on, else ``None`` — the
    single gate both engine modes use."""
    if enabled is None:
        enabled = resolve_epoch_trace()
    if not enabled:
        return None
    return EpochTracer(shard_id, shards, epochs_total)


def load_epoch_dir(
    directory: Union[str, pathlib.Path],
) -> Dict[int, List[dict]]:
    """shard id -> epoch records for every ``epochs-<k>.jsonl`` present."""
    by_stem = load_jsonl_dir(directory, EPOCH_FILE_PREFIX, EPOCH_KEYS)
    return {int(k): recs for k, recs in by_stem.items() if k.isdigit()}


# -- Chrome trace-event export ----------------------------------------------


def _span_name(rec: dict) -> str:
    return "epoch %d %s" % (rec["epoch"], rec["phase"].upper())


def epoch_trace_doc(records_by_shard: Dict[int, List[dict]]) -> dict:
    """Chrome trace-event JSON for the epoch spans of one run.

    One track (``tid``) per shard.  Every phase becomes a complete
    (``X``) event whose duration is the phase wall time; the barrier
    wait before it becomes its own dimmer ``barrier`` span, so a stall
    at a barrier is a visibly long box.  Every non-empty handoff batch
    becomes a flow arrow (``s``/``f``) from the emitting phase span to
    the receiving shard's matching span — X1 lands in the same epoch's
    phase B, X2 and migrations land in the next epoch's phase A.
    """
    trace = ChromeTrace("repro-shards")
    starts: Dict[tuple, float] = {}
    t0 = None
    for shard_id, records in records_by_shard.items():
        trace.track("shard %d" % shard_id, shard_id)
        for rec in records:
            start = float(rec["wall"]) - float(rec["wall_s"])
            starts[(shard_id, int(rec["epoch"]), rec["phase"])] = start
            span_t0 = start - float(rec["barrier_s"])
            t0 = span_t0 if t0 is None else min(t0, span_t0)
    if t0 is None:
        t0 = 0.0

    def ts(wall: float) -> float:
        return round((wall - t0) * 1e6, 1)

    flow_id = 0
    for shard_id, records in records_by_shard.items():
        for rec in records:
            epoch = int(rec["epoch"])
            phase = rec["phase"]
            start = starts[(shard_id, epoch, phase)]
            barrier_s = float(rec.get("barrier_s", 0.0))
            if barrier_s > 0.0:
                trace.span(
                    shard_id, ts(start - barrier_s),
                    round(barrier_s * 1e6, 1), "barrier", "barrier",
                    {"epoch": epoch, "before_phase": phase},
                )
            trace.span(
                shard_id, ts(start), round(float(rec["wall_s"]) * 1e6, 1),
                _span_name(rec), "phase",
                {
                    "epoch": epoch,
                    "phase": phase,
                    "in": rec.get("in", {}),
                    "out": rec.get("out", {}),
                    "out_bytes": rec.get("out_bytes", 0),
                },
            )
            # Flow arrows: phase A feeds the same epoch's phase B on the
            # destination shard (X1); phase B feeds the next epoch's
            # phase A (X2, buffered one epoch like the protocol).
            target = (epoch, "b") if phase == "a" else (epoch + 1, "a")
            end = ts(start + float(rec["wall_s"]))
            for dest_str, count in rec.get("out", {}).items():
                dest = int(dest_str)
                key = (dest,) + target
                if not count or key not in starts:
                    continue
                flow_id += 1
                trace.flow(
                    flow_id, "handoff", "handoff",
                    (shard_id, end), (dest, ts(starts[key])),
                    {"records": count, "to": dest},
                    {"records": count, "from": shard_id},
                )
    return trace.doc(sort=True)

