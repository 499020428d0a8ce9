"""The one trace substrate every observability stream sits on.

Four pieces, each written once:

* **env parsing** — :func:`truthy`/:func:`env_flag` are the one
  ``1``/``true``/``on``/``yes`` grammar every ``REPRO_*`` switch
  shares, and :func:`resolve_cap` is the one ring-capacity rule
  (explicit value, else ``REPRO_TRACE_MAX``, else the ring's own
  default; a non-integer or < 1 cap raises ``ValueError``);
* **the ring** — :class:`Ring` keeps the newest ``max_records`` records
  and counts every evicted one in ``dropped``.  The row trace, the
  event sink, the lineage tracer and the request tracer all sit on it;
* **telemetry JSONL** — every per-process telemetry file lives in
  :func:`telemetry_dir`, is written through one :class:`TelemetryLog`
  (opened once per run, flushed per record batch) and read back by one
  torn-line-tolerant :func:`read_jsonl`.  :func:`rotate_to_old` is the
  one ``.old`` rotation: a log opened at the start of a run moves the
  previous run's file aside, while a respawned shard worker (see
  :func:`continue_run_files`) appends to the files of the run it
  replaces;
* **Chrome trace events** — :class:`ChromeTrace` builds the metadata,
  complete-span (``X``) and flow (``s``/``f``) events the lineage, epoch
  and request exporters map their records onto;
  :func:`validate_chrome_trace` is the schema contract and
  :func:`write_trace_doc` the file writer.
"""

from __future__ import annotations

import json
import os
import pathlib
from collections import deque
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.obs.artifacts import artifact_dir

PathLike = Union[str, pathlib.Path]

# -- env parsing ------------------------------------------------------------

_TRUTHY = ("1", "true", "on", "yes")

TRACE_MAX_ENV = "REPRO_TRACE_MAX"


def truthy(value: str) -> bool:
    """Whether ``value`` is one of ``1``/``true``/``on``/``yes``."""
    return value.strip().lower() in _TRUTHY


def env_flag(name: str) -> bool:
    """Whether the environment variable ``name`` is truthy."""
    return truthy(os.environ.get(name, ""))


def resolve_cap(value: Optional[int], default: int) -> int:
    """Ring capacity: ``value``, else ``REPRO_TRACE_MAX``, else ``default``."""
    source: str = "max_records"
    if value is None:
        raw = os.environ.get(TRACE_MAX_ENV, "").strip()
        if not raw:
            return default
        source, value = TRACE_MAX_ENV, raw
    try:
        cap = int(value)
    except (TypeError, ValueError):
        raise ValueError(
            "%s must be an integer, got %r" % (source, value)
        ) from None
    if cap < 1:
        raise ValueError("%s must be >= 1, got %r" % (source, cap))
    return cap


# -- the ring ---------------------------------------------------------------


class Ring:
    """Bounded, append-only record store.

    Once ``max_records`` records are held the oldest falls off on every
    append and is counted in ``dropped``: recent history is what a
    post-mortem wants, and the counter keeps the loss honest.
    """

    def __init__(self, max_records: Optional[int], default: int):
        self.max_records = resolve_cap(max_records, default)
        self._records: deque = deque(maxlen=self.max_records)
        self.dropped = 0

    def append(self, record: object) -> None:
        if len(self._records) == self.max_records:
            self.dropped += 1
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator:
        return iter(self._records)

    def records(self) -> list:
        """All retained records, oldest first."""
        return list(self._records)


# -- telemetry JSONL --------------------------------------------------------

TELEMETRY_SUBDIR = "telemetry"

_continuing_run = False


def telemetry_dir(base: Optional[PathLike] = None) -> pathlib.Path:
    """Directory every telemetry file lives in (under the artefact dir)."""
    root = pathlib.Path(base) if base is not None else artifact_dir()
    return root / TELEMETRY_SUBDIR


def rotate_to_old(path: pathlib.Path) -> None:
    """Move ``path`` aside to ``<name>.old``, replacing an older one.

    ``.old`` matches no reader's ``*.jsonl`` glob, so readers only ever
    see the current run.
    """
    try:
        path.replace(path.with_name(path.name + ".old"))
    except OSError:
        pass  # nothing to rotate


def continue_run_files(enabled: bool = True) -> None:
    """Process-local switch: logs opened from now on append, never rotate.

    A shard worker respawned after a crash calls this, so its heartbeat
    and epoch files continue the run it replaces instead of moving the
    pre-crash records aside.
    """
    global _continuing_run
    _continuing_run = enabled


class TelemetryLog:
    """One append-only JSONL telemetry file with a single writer.

    The file is opened once; ``rotate=True`` (a run starting) first moves
    the previous run's file aside unless this process continues a run
    (:func:`continue_run_files`).  Every :meth:`write` flushes, so a
    reader tailing the file sees whole records, and a writer killed
    mid-line leaves at worst one torn final line.
    """

    def __init__(self, path: PathLike, rotate: bool = True):
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if rotate and not _continuing_run:
            rotate_to_old(self.path)
        self._fh = open(self.path, "a")

    def write(self, *records: dict) -> None:
        """Append records, one JSON object per line, then flush."""
        fh = self._fh
        for record in records:
            fh.write(json.dumps(record) + "\n")
        fh.flush()

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "TelemetryLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: PathLike, require: Tuple[str, ...] = ()) -> List[dict]:
    """Every JSON object in one JSONL file that has all ``require`` keys.

    Blank lines, foreign records and torn lines (a writer killed
    mid-record) are skipped; a missing file reads as empty.
    """
    out: List[dict] = []
    try:
        fh = open(path)
    except FileNotFoundError:
        return out
    with fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and all(key in rec for key in require):
                out.append(rec)
    return out


def load_jsonl_dir(
    directory: PathLike, prefix: str, require: Tuple[str, ...] = ()
) -> Dict[str, List[dict]]:
    """``{name part after prefix: records}`` for every non-empty
    ``<prefix>*.jsonl`` under ``directory``, in sorted-name order."""
    out: Dict[str, List[dict]] = {}
    for path in sorted(pathlib.Path(directory).glob(prefix + "*.jsonl")):
        records = read_jsonl(path, require)
        if records:
            out[path.name[len(prefix) : -len(".jsonl")]] = records
    return out


# -- Chrome trace events ----------------------------------------------------

TRACE_EVENT_REQUIRED_KEYS = ("ph", "ts", "pid", "tid", "name")
"""Keys every exported trace event must carry."""


class ChromeTrace:
    """One Chrome trace-event document (Perfetto / ``chrome://tracing``)
    under construction: one process, named tracks, spans, flows."""

    def __init__(self, process_name: str, pid: int = 1):
        self.pid = pid
        self.events: List[dict] = []
        self._tids: Dict[str, int] = {}
        self._meta(0, "process_name", process_name)

    def _meta(self, tid: int, name: str, value: str) -> None:
        self.events.append(
            {
                "ph": "M",
                "ts": 0,
                "pid": self.pid,
                "tid": tid,
                "name": name,
                "args": {"name": value},
            }
        )

    def track(self, name: str, tid: Optional[int] = None) -> int:
        """The tid of the track called ``name``, declared on first use
        (as ``tid``, or the next free number from 1)."""
        found = self._tids.get(name)
        if found is None:
            found = len(self._tids) + 1 if tid is None else tid
            self._tids[name] = found
            self._meta(found, "thread_name", name)
        return found

    def span(
        self, tid: int, ts: float, dur: float, name: str, cat: str, args: dict
    ) -> None:
        """One complete (``X``) event."""
        self.events.append(
            {
                "ph": "X",
                "ts": ts,
                "dur": dur,
                "pid": self.pid,
                "tid": tid,
                "name": name,
                "cat": cat,
                "args": args,
            }
        )

    def flow(
        self,
        flow_id: int,
        name: str,
        cat: str,
        src: Tuple[int, float],
        dst: Tuple[int, float],
        src_args: Optional[dict] = None,
        dst_args: Optional[dict] = None,
    ) -> None:
        """One flow arrow from ``src`` to ``dst`` (each a (tid, ts))."""
        for ph, (tid, ts), args in (("s", src, src_args), ("f", dst, dst_args)):
            event = {"ph": ph, "ts": ts, "pid": self.pid, "tid": tid,
                     "name": name, "cat": cat, "id": flow_id}
            if ph == "f":
                event["bp"] = "e"
            if args is not None:
                event["args"] = args
            self.events.append(event)

    def doc(self, sort: bool = False, **fields: object) -> dict:
        """The document; ``sort`` orders events by (ts, tid, ph)."""
        if sort:
            self.events.sort(key=lambda e: (e["ts"], e["tid"], e["ph"]))
        return {**fields, "traceEvents": self.events, "displayTimeUnit": "ms"}


def validate_chrome_trace(doc: dict) -> None:
    """Raise ``ValueError`` unless ``doc`` is a valid trace-event file.

    Every event carries the required keys, every complete event a
    ``dur``, and every flow start (``s``) exactly one finish (``f``)
    with the same ``(cat, id)`` — and vice versa.
    """
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("trace document has no traceEvents list")
    flows: Dict[tuple, List[str]] = {}
    for i, event in enumerate(events):
        for key in TRACE_EVENT_REQUIRED_KEYS:
            if key not in event:
                raise ValueError(
                    "traceEvents[%d] missing required key %r" % (i, key)
                )
        ph = event["ph"]
        if ph == "X" and "dur" not in event:
            raise ValueError("traceEvents[%d] complete event lacks dur" % i)
        if ph in ("s", "f"):
            key = (event.get("cat"), event.get("id"))
            flows.setdefault(key, []).append(ph)
    for (cat, flow_id), phases in flows.items():
        if sorted(phases) != ["f", "s"]:
            raise ValueError(
                "flow %r id %r has events %s, not one s and one f"
                % (cat, flow_id, "".join(phases))
            )


def write_trace_doc(doc: dict, path: PathLike) -> pathlib.Path:
    """Write one trace document as JSON; returns the path."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True) + "\n")
    return path
