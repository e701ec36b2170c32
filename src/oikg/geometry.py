"""Angle arithmetic, trigonometric embeddings, and relative poses.

Conventions used everywhere in this package:

- angles are plain floats in radians; headings live in [0, 2*pi), measured
  counter-clockwise from the +x axis in the horizontal plane
- elevations live in [-pi/2, pi/2], positive upward
- degrees appear only in human-readable output, never in computation
"""

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegeneratePose, InvalidArgument

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class RelativePose:
    """Oriented displacement between two points: heading, elevation, length (m)."""

    heading: float
    elevation: float
    length: float


def _check_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidArgument(f"non-finite angle or coordinate: {v!r}")


def wrap_angle(a: float) -> float:
    """Wrap an angle to the canonical heading range [0, 2*pi).

    Idempotent: wrap_angle(wrap_angle(a)) == wrap_angle(a).
    """
    _check_finite(a)
    r = math.fmod(a, TWO_PI)
    if r < 0.0:
        r += TWO_PI
    # fmod of a tiny negative can round back up to exactly 2*pi
    if r >= TWO_PI:
        r -= TWO_PI
    return r


def angular_distance(a: float, b: float) -> float:
    """Minimum circular displacement between two angles, in [0, pi].

    Computed as |atan2(sin(a-b), cos(a-b))|, which equals
    min over integers k of |a - b + 2*k*pi|.
    """
    _check_finite(a, b)
    d = a - b
    return abs(math.atan2(math.sin(d), math.cos(d)))


def trig_embed(heading: float, elevation: float) -> tuple[float, float, float, float]:
    """Return (sin h, cos h, sin e, cos e) for a heading/elevation pair."""
    _check_finite(heading, elevation)
    return (math.sin(heading), math.cos(heading), math.sin(elevation), math.cos(elevation))


def relative_pose(frm: Sequence[float], to: Sequence[float]) -> RelativePose:
    """Pose of ``to`` as seen from ``frm`` (both (x, y, z) in meters).

    heading = atan2(dy, dx) wrapped to [0, 2*pi);
    elevation = atan2(dz, hypot(dx, dy)) in [-pi/2, pi/2];
    length = Euclidean distance.  Raises DegeneratePose on coincident points.
    """
    dx = float(to[0]) - float(frm[0])
    dy = float(to[1]) - float(frm[1])
    dz = float(to[2]) - float(frm[2])
    _check_finite(dx, dy, dz)
    length = math.sqrt(dx * dx + dy * dy + dz * dz)
    if length == 0.0:
        raise DegeneratePose(f"coincident points {tuple(frm)!r}")
    heading = wrap_angle(math.atan2(dy, dx))
    elevation = math.atan2(dz, math.hypot(dx, dy))
    return RelativePose(heading=heading, elevation=elevation, length=length)


def nearest_view(candidate_heading: float, view_headings: Sequence[float]) -> tuple[int, float]:
    """Index and distance of the view heading closest to a candidate heading.

    Ties break to the lowest index so results are deterministic.
    """
    if len(view_headings) == 0:
        raise InvalidArgument("nearest_view needs at least one view heading")
    best_i = 0
    best_d = angular_distance(candidate_heading, view_headings[0])
    for i in range(1, len(view_headings)):
        d = angular_distance(candidate_heading, view_headings[i])
        if d < best_d:
            best_i, best_d = i, d
    return best_i, best_d
