"""In-memory layer tracer for the benchmark's traced run.

The tracer wraps public functions and methods where they are looked up
(a class attribute, or the module attribute a caller resolves at call
time) and puts every original back in :meth:`LayerTracer.restore`.  It
never edits the program's source and is never installed during a timed
run.

Two kinds of record are kept, both in memory until the run ends:

* hot paths (``position_at``, ``receive``, ``handle`` ...) are
  aggregated per function as call count, total time and the part of
  that time spent in other wrapped functions (child time), so millions
  of calls cost a few floats rather than millions of spans;
* coarse boundaries (``run_specs``, ``execute_spec``, ``derive_walkers``
  ...) and the benchmark's own phases are also kept as spans with an id,
  a parent id, a start and an end.

A function's self time is its total minus its child time.  The venue
simulator's delivery handlers are private, so they are not wrapped:
the scheduler's own :class:`~repro.obs.profiler.SimProfiler` times
them, and the tracer hooks its ``record`` method to learn how much of
each handler call was spent in wrapped functions.  The rest of the
handler's time is that handler's private time, credited to the layer
that owns the handler's class.
"""

from __future__ import annotations

import inspect
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

perf = time.perf_counter

HANDLER_LAYERS = {
    "Medium": "dot11",
    "Phone": "devices",
    "ArrivalProcess": "mobility",
    "CityHunter": "core",
    "RogueAp": "core",
    "ShardRuntime": "shards",
}
"""Layer of a scheduler handler, keyed by the class in its qualname."""

LAYERS = (
    "sim",
    "mobility",
    "geo",
    "dot11",
    "devices",
    "core",
    "experiments",
    "shards",
    "serve",
)


class Wrap:
    """One function to wrap: ``owner.attr`` (a class or a module)."""

    __slots__ = ("owner", "attr", "name", "layer", "kind", "size", "keep")

    def __init__(
        self,
        owner: Any,
        attr: str,
        layer: str,
        kind: str = "hot",
        name: Optional[str] = None,
        size: Optional[Callable[[Any, tuple], int]] = None,
        keep: Optional[str] = None,
    ):
        if kind not in ("hot", "span", "count"):
            raise ValueError("unknown wrap kind %r" % kind)
        self.owner = owner
        self.attr = attr
        self.layer = layer
        self.kind = kind
        self.name = name or "%s.%s" % (
            getattr(owner, "__name__", str(owner)).rsplit(".", 1)[-1],
            attr,
        )
        self.size = size
        """Optional ``(result, args) -> int`` summed into the call's
        ``items``."""
        self.keep = keep
        """When set, the call's first argument (``self``) is remembered
        under this key so its public counters can be read afterwards."""


class LayerTracer:
    """Aggregating tracer; see the module docstring."""

    def __init__(self) -> None:
        # name -> [calls, total_s, child_s, items]
        self.calls: Dict[str, List[float]] = {}
        self.layer_of: Dict[str, str] = {}
        # handler qualname -> [calls, wall_s, wrapped_inside_s]
        self.handlers: Dict[str, List[float]] = {}
        # [id, parent, name, start, end]
        self.spans: List[list] = []
        self.kept: Dict[str, Dict[int, Any]] = defaultdict(dict)
        self._stack: List[List[float]] = []
        self._span_stack: List[int] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        self._originals: List[Tuple[Any, str, Any]] = []
        self._t0 = perf()

    # -- installing ----------------------------------------------------------

    def install(self, wraps: List[Wrap], profiler_cls: Any = None) -> None:
        """Wrap every entry of ``wraps``; hook ``profiler_cls.record``."""
        for w in wraps:
            original = vars(w.owner)[w.attr]
            self.layer_of[w.name] = w.layer
            self.calls.setdefault(w.name, [0, 0.0, 0.0, 0])
            if w.kind == "count":
                wrapper = self._counted(original, w.name)
            elif inspect.iscoroutinefunction(original):
                wrapper = self._timed_async(original, w.name)
            else:
                wrapper = self._timed(original, w)
            self._patch(w.owner, w.attr, original, wrapper)
        if profiler_cls is not None:
            original = vars(profiler_cls)["record"]
            self._patch(
                profiler_cls, "record", original, self._record_hook(original)
            )

    def _patch(self, owner: Any, attr: str, original: Any, wrapper: Any) -> None:
        self._patches.append((owner, attr, original))
        self._originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every original back (last wrapped, first restored)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def unrestored(self) -> List[str]:
        """``owner.attr`` of every wrapped function not back to its
        original object (empty after :meth:`restore`)."""
        return [
            "%s.%s" % (getattr(owner, "__name__", owner), attr)
            for owner, attr, original in self._originals
            if vars(owner).get(attr) is not original
        ]

    # -- wrappers ------------------------------------------------------------

    def _counted(self, fn: Callable, name: str) -> Callable:
        cell = self.calls[name]

        def counted(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _timed(self, fn: Callable, w: Wrap) -> Callable:
        cell = self.calls[w.name]
        stack = self._stack
        size = w.size
        kept = self.kept[w.keep] if w.keep else None
        if w.kind == "span":
            return self._spanned(fn, w.name, cell)

        def timed(*args, **kwargs):
            if kept is not None:
                kept[id(args[0])] = args[0]
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                stack.pop()
                cell[0] += 1
                cell[1] += dt
                cell[2] += frame[0]
                if stack:
                    stack[-1][0] += dt
            if size is not None:
                cell[3] += size(result, args)
            return result

        timed.__wrapped__ = fn
        return timed

    def _spanned(self, fn, name, cell) -> Callable:
        def spanned(*args, **kwargs):
            with self.span(name, cell):
                return fn(*args, **kwargs)

        spanned.__wrapped__ = fn
        return spanned

    def _timed_async(self, fn: Callable, name: str) -> Callable:
        cell = self.calls[name]
        stack = self._stack

        async def timed(*args, **kwargs):
            # While this coroutine waits, other tasks' synchronous frames
            # push and pop above it; only one such frame may be open.
            frame = [0.0, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                return await fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                if stack.pop() is not frame:
                    raise RuntimeError("%s: traced frames interleaved" % name)
                cell[0] += 1
                cell[1] += dt
                cell[2] += frame[0]
                if stack:
                    stack[-1][0] += dt

        timed.__wrapped__ = fn
        return timed

    def _record_hook(self, original: Callable) -> Callable:
        stack = self._stack
        handlers = self.handlers

        def record(profiler, name, wall_s, sim_advance_s):
            original(profiler, name, wall_s, sim_advance_s)
            inner = 0.0
            if stack:
                # The open frame is Simulation.run: whatever it gained in
                # child time since the previous handler was spent in
                # wrapped calls made by this handler.
                frame = stack[-1]
                inner = frame[0] - frame[1]
                frame[1] = frame[0]
            cell = handlers.get(name)
            if cell is None:
                handlers[name] = [1, wall_s, inner]
            else:
                cell[0] += 1
                cell[1] += wall_s
                cell[2] += inner

        record.__wrapped__ = original
        return record

    # -- coarse spans --------------------------------------------------------

    def span(self, name: str, cell: Optional[List[float]] = None) -> "_Span":
        """A coarse span; also a frame, so it collects child time."""
        if cell is None:
            cell = self.calls.setdefault(name, [0, 0.0, 0.0, 0])
        return _Span(self, name, cell)

    # -- reading -------------------------------------------------------------

    def count(self, name: str) -> int:
        return int(self.calls.get(name, (0,))[0])

    def total(self, name: str) -> float:
        return float(self.calls.get(name, (0, 0.0))[1])

    def self_time(self, name: str) -> float:
        cell = self.calls.get(name)
        return float(cell[1] - cell[2]) if cell else 0.0

    def items(self, name: str) -> int:
        return int(self.calls.get(name, (0, 0.0, 0.0, 0))[3])

    def handler_count(self, prefix: str) -> int:
        return int(
            sum(c[0] for h, c in self.handlers.items() if h.startswith(prefix))
        )

    def layer_self(self) -> Dict[str, float]:
        """Self seconds per layer.

        ``sim`` is the scheduler alone: ``Simulation.run``'s self time
        minus the private time of the handlers it dispatched, which is
        credited to the handler's own layer (``other`` when unknown).
        """
        selfs = defaultdict(float, dict.fromkeys(LAYERS + ("other",), 0.0))
        for name, cell in self.calls.items():
            layer = self.layer_of.get(name)
            if layer is not None:
                selfs[layer] += cell[1] - cell[2]
        for handler, (_, wall, inner) in self.handlers.items():
            private = wall - inner
            owner = HANDLER_LAYERS.get(handler.split(".", 1)[0], "other")
            selfs[owner] += private
            selfs["sim"] -= private
        return dict(selfs)

    def to_dict(self) -> dict:
        """Everything recorded, as plain JSON-ready values."""
        return {
            "calls": {
                name: {
                    "layer": self.layer_of.get(name),
                    "calls": int(c[0]),
                    "total_s": c[1],
                    "self_s": c[1] - c[2],
                    "items": int(c[3]),
                }
                for name, c in sorted(self.calls.items())
            },
            "handlers": {
                name: {"calls": int(c[0]), "wall_s": c[1], "wrapped_s": c[2]}
                for name, c in sorted(self.handlers.items())
            },
            "spans": [
                {
                    "id": s[0],
                    "parent": s[1],
                    "name": s[2],
                    "start_s": s[3] - self._t0,
                    "end_s": s[4] - self._t0,
                }
                for s in self.spans
            ],
        }


class _Span:
    """Context manager behind :meth:`LayerTracer.span`."""

    __slots__ = ("_tr", "_name", "_cell", "_frame", "_rec", "_t0")

    def __init__(self, tracer: LayerTracer, name: str, cell: List[float]):
        self._tr = tracer
        self._name = name
        self._cell = cell

    def __enter__(self) -> "_Span":
        tr = self._tr
        parent = tr._span_stack[-1] if tr._span_stack else None
        self._rec = [len(tr.spans), parent, self._name, 0.0, 0.0]
        tr.spans.append(self._rec)
        tr._span_stack.append(self._rec[0])
        self._frame = [0.0, 0.0]
        tr._stack.append(self._frame)
        self._t0 = self._rec[3] = perf()
        return self

    def __exit__(self, *exc) -> None:
        tr = self._tr
        end = perf()
        dt = end - self._t0
        self._rec[4] = end
        if tr._stack.pop() is not self._frame:
            raise RuntimeError("%s: traced frames interleaved" % self._name)
        tr._span_stack.pop()
        cell = self._cell
        cell[0] += 1
        cell[1] += dt
        cell[2] += self._frame[0]
        if tr._stack:
            tr._stack[-1][0] += dt
