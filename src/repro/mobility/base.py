"""Mobility primitives.

A mobility model answers one question — *where is this person at time
t?* — plus the lifetime of their visit.  :class:`PathMobility` covers
every pattern in the reproduction as piecewise-linear motion over time
knots; the venue-specific constructors in the sibling modules just build
different knot sequences.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import List, Protocol, Sequence, Tuple

from repro.geo.point import Point


class MobilityModel(Protocol):
    """What the radio medium and lifecycle code need from mobility."""

    t_enter: float
    t_exit: float

    def position_at(self, time: float) -> Point:
        """Location at ``time`` (clamped to the visit's lifetime)."""
        ...


class PathMobility:
    """Piecewise-linear motion through (time, point) knots.

    Knots must be strictly increasing in time; position before the first
    knot is the first point, after the last knot the last point.
    """

    __slots__ = ("_times", "_points", "_max_speed")

    def __init__(self, knots: Sequence[Tuple[float, Point]]):
        if not knots:
            raise ValueError("mobility needs at least one knot")
        times = [t for t, _ in knots]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("knot times must be strictly increasing")
        self._times: List[float] = times
        self._points: List[Point] = [p for _, p in knots]
        self._max_speed: float = -1.0  # computed lazily

    def max_speed(self) -> float:
        """Fastest segment speed (m/s) over the whole path.

        Positions clamp to the end points outside the knot range, so
        this bounds displacement over *any* interval — the guarantee the
        medium's spatial index needs to inflate its query radius safely.
        """
        if self._max_speed < 0.0:
            top = 0.0
            times, points = self._times, self._points
            for i in range(1, len(times)):
                speed = points[i - 1].distance_to(points[i]) / (
                    times[i] - times[i - 1]
                )
                if speed > top:
                    top = speed
            self._max_speed = top
        return self._max_speed

    def knots(self) -> Tuple[Sequence[float], Sequence[Point]]:
        """The knot times and points, for batch evaluation.

        These are the path's own sequences, not copies: read-only.
        """
        return self._times, self._points

    @property
    def t_enter(self) -> float:
        """When the person appears in the scene."""
        return self._times[0]

    @property
    def t_exit(self) -> float:
        """When the person leaves the scene."""
        return self._times[-1]

    def position_at(self, time: float) -> Point:
        """Interpolated location at ``time``."""
        times, points = self._times, self._points
        if time <= times[0]:
            return points[0]
        if time >= times[-1]:
            return points[-1]
        i = bisect_right(times, time)
        t0, t1 = times[i - 1], times[i]
        frac = (time - t0) / (t1 - t0)
        return points[i - 1].towards(points[i], frac)
