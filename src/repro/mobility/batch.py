"""Batched corridor kinematics for struct-of-arrays walkers.

:class:`~repro.mobility.base.PathMobility` answers *where is this one
person at time t* through per-object knot interpolation; the sharded
city (:mod:`repro.sim.shards`) needs the same answer for thousands of
walkers per call.  Shard walkers are straight-line corridor crossers
(the subway-passage pattern scaled city-wide), so their position has a
closed form — entry point plus velocity times clamped elapsed time —
and the whole population can be evaluated as arrays.

Only *elementwise* float arithmetic is used (no reductions), so the
numpy backend, the pure-python backend, and any partition of the
population into shards all produce bit-identical coordinates.

:class:`PathTable` applies the same discipline to general multi-knot
paths: the venue medium (:mod:`repro.dot11.medium`) keeps every phone's
``PathMobility`` (and every fixed AP as a one-knot path) as a row and
re-positions the whole crowd with one numpy pass per broadcast,
bit-identical to per-object ``position_at``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from typing import Dict, Generic, Hashable, List, Optional, Sequence, Tuple, TypeVar

import numpy as np

from repro.geo.point import Point

K = TypeVar("K", bound=Hashable)


def corridor_endpoints(
    horizontal: bool, forward: bool, cross: float, size: float
) -> Tuple[float, float, float, float]:
    """Entry point and unit direction of one corridor crossing.

    Returns ``(x0, y0, ux, uy)``: the walker enters on one edge of the
    ``[0, size)`` square at offset ``cross`` on the perpendicular axis
    and walks straight across.  Multiply the unit direction by the
    walker's speed for its velocity.
    """
    if horizontal:
        return (0.0, cross, 1.0, 0.0) if forward else (size, cross, -1.0, 0.0)
    return (cross, 0.0, 0.0, 1.0) if forward else (cross, size, 0.0, -1.0)


def clamped_elapsed(t: float, t_enter: float, t_exit: float) -> float:
    """Seconds of motion accumulated by time ``t`` (scalar form).

    Before entry the walker waits at its entry point, after exit it is
    parked at its exit point — the same end-point clamping
    :meth:`~repro.mobility.base.PathMobility.position_at` applies.
    """
    if t <= t_enter:
        return 0.0
    if t >= t_exit:
        return t_exit - t_enter
    return t - t_enter


def position_scalar(
    t: float,
    t_enter: float,
    t_exit: float,
    x0: float,
    y0: float,
    vx: float,
    vy: float,
) -> Tuple[float, float]:
    """Closed-form position of one walker at time ``t``."""
    dt = clamped_elapsed(t, t_enter, t_exit)
    return (x0 + vx * dt, y0 + vy * dt)


def positions_vec(t: float, t_enter, t_exit, x0, y0, vx, vy):
    """Vectorised :func:`position_scalar` over numpy arrays.

    ``np.clip(t, t_enter, t_exit) - t_enter`` computes the identical
    clamped elapsed time elementwise, so the two forms agree bitwise.
    """
    dt = np.clip(t, t_enter, t_exit) - t_enter
    return x0 + vx * dt, y0 + vy * dt


# Field rows of the path table's ``(_FIELDS, capacity)`` array.
_FIELDS = 14
(
    _FIRST,  # first knot time / point
    _LAST,  # last knot time / point
    _FX,
    _FY,
    _LX,
    _LY,
    _WLO,  # window [lo, hi) in which the cached segment needs no seek
    _WHI,
    _T0,  # cached segment: start time, duration, start point, delta
    _DT,
    _X0,
    _Y0,
    _DX,
    _DY,
) = range(_FIELDS)


class PathTable(Generic[K]):
    """Struct-of-arrays :class:`~repro.mobility.base.PathMobility` rows.

    Each keyed row holds one path's first and last knot plus its current
    segment ``(t0, p0, t1, p1)``; :meth:`positions` evaluates every row
    at one time with exactly the float operations of
    :meth:`~repro.mobility.base.PathMobility.position_at` and
    :meth:`~repro.geo.point.Point.towards` — the end-point clamps,
    ``frac = (t - t0) / (t1 - t0)`` and ``x0 + (x1 - x0) * frac`` — so
    the coordinates agree bitwise with the scalar path.

    A row's segment cursor only moves when a query leaves the cached
    segment: forward with ``bisect_right`` from the cursor, backwards
    with a full bisect.  Rows stay sorted by the caller's ``rank``
    (removed rows leave dead slots until compaction, which preserves
    order), so slot order is rank order.
    """

    def __init__(self) -> None:
        self._a = np.empty((_FIELDS, 64))
        self._n = 0  # slots in use, dead ones included
        self._keys: List[Optional[K]] = []
        self._ranks: List[int] = []
        self._paths: List[Tuple[Sequence[float], Sequence[Point]]] = []
        self._cursor: List[int] = []
        self._slot: Dict[K, int] = {}
        self._at = float("nan")
        self._xy = None
        self.evaluations = 0
        """Passes :meth:`positions` computed (cache hits excluded)."""

    def __len__(self) -> int:
        return len(self._slot)

    @property
    def keys(self) -> List[Optional[K]]:
        """Key of every slot in rank order; None marks a removed row."""
        return self._keys

    def add(
        self, key: K, times: Sequence[float], points: Sequence[Point], rank: int
    ) -> None:
        """Add (or replace) ``key``'s path; ``times`` strictly increase.

        The sequences are kept by reference and must not be mutated.
        """
        self.discard(key)
        n = self._n
        if n == self._a.shape[1]:
            grown = np.empty((_FIELDS, 2 * n))
            grown[:, :n] = self._a
            self._a = grown
        pos = bisect_right(self._ranks, rank)
        if pos < n:  # out-of-order rank: shift the tail up one slot
            self._a[:, pos + 1 : n + 1] = self._a[:, pos:n]
            for k in self._keys[pos:]:
                if k is not None:
                    self._slot[k] += 1
        self._keys.insert(pos, key)
        self._ranks.insert(pos, rank)
        self._paths.insert(pos, (times, points))
        self._cursor.insert(pos, 1)
        self._slot[key] = pos
        self._n = n + 1
        first, last = points[0], points[-1]
        a = self._a
        a[_FIRST, pos] = times[0]
        a[_LAST, pos] = times[-1]
        a[_FX, pos], a[_FY, pos] = first
        a[_LX, pos], a[_LY, pos] = last
        if len(times) == 1:
            # Every query clamps; the segment only has to be harmless.
            a[_WLO:, pos] = (-math.inf, math.inf, times[0], 1.0) + first + (0.0, 0.0)
        else:
            self._seg(pos, 1)
        self._xy = None

    def discard(self, key: K) -> None:
        """Remove ``key``'s row; unknown keys are ignored."""
        slot = self._slot.pop(key, None)
        if slot is None:
            return
        self._keys[slot] = None
        dead = self._n - len(self._slot)
        if dead > 32 and 2 * dead > self._n:
            self._compact()

    def _compact(self) -> None:
        live = [s for s, k in enumerate(self._keys) if k is not None]
        m = len(live)
        self._a[:, :m] = self._a[:, live]
        self._keys = [self._keys[s] for s in live]
        self._ranks = [self._ranks[s] for s in live]
        self._paths = [self._paths[s] for s in live]
        self._cursor = [self._cursor[s] for s in live]
        self._slot = {k: s for s, k in enumerate(self._keys)}
        self._n = m
        self._xy = None

    def _seg(self, slot: int, i: int) -> None:
        """Cache segment ``i`` (knots ``i - 1`` to ``i``) of ``slot``."""
        times, points = self._paths[slot]
        self._cursor[slot] = i
        t0, t1 = times[i - 1], times[i]
        p0, p1 = points[i - 1], points[i]
        a = self._a
        # The first/last segment's window is open-ended: queries beyond
        # it clamp to an end point and need no other segment.
        a[_WLO, slot] = -math.inf if i == 1 else t0
        a[_WHI, slot] = math.inf if i == len(times) - 1 else t1
        a[_T0, slot] = t0
        a[_DT, slot] = t1 - t0
        a[_X0, slot], a[_Y0, slot] = p0
        a[_DX, slot] = p1.x - p0.x
        a[_DY, slot] = p1.y - p0.y

    def _seek(self, slot: int, t: float) -> None:
        times = self._paths[slot][0]
        i = self._cursor[slot]
        if t >= times[i]:
            i = bisect_right(times, t, i)
        else:
            i = bisect_right(times, t)
        self._seg(slot, min(max(i, 1), len(times) - 1))

    def positions(self, t: float):
        """``(xs, ys)`` arrays of every slot's position at time ``t``.

        Dead slots hold stale values; read them through :attr:`keys`.
        The arrays are cached until ``t`` or the membership changes, so
        callers must not write to them.
        """
        if t == self._at and self._xy is not None:
            return self._xy
        a = self._a[:, : self._n]
        stale = np.flatnonzero((t < a[_WLO]) | (t >= a[_WHI]))
        for slot in stale.tolist():
            self._seek(slot, t)
        frac = (t - a[_T0]) / a[_DT]
        xs = a[_X0] + a[_DX] * frac
        ys = a[_Y0] + a[_DY] * frac
        after = t >= a[_LAST]
        np.copyto(xs, a[_LX], where=after)
        np.copyto(ys, a[_LY], where=after)
        # Before-first wins over after-last, as in position_at (the two
        # only coincide on single-knot rows, whose end points are equal).
        before = t <= a[_FIRST]
        np.copyto(xs, a[_FX], where=before)
        np.copyto(ys, a[_FY], where=before)
        self._at = t
        self._xy = (xs, ys)
        self.evaluations += 1
        return self._xy
