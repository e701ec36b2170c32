"""Angle arithmetic, trigonometric embeddings, and relative poses.

Conventions used everywhere in this package:

- angles are plain floats in radians; headings live in [0, 2*pi), measured
  counter-clockwise from the +x axis in the horizontal plane
- elevations live in [-pi/2, pi/2], positive upward
- degrees appear only in human-readable output, never in computation
"""

import functools
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
    if not (math.isfinite(a) and math.isfinite(b)):
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


@functools.cache
def grid_columns(n: int) -> tuple[float, ...]:
    """Headings of a uniform n-column grid, column j at j * (2*pi / n).

    These are the floats ``np.arange(n) * (2*pi / n)`` holds, as Python
    floats.
    """
    if n < 1:
        raise InvalidArgument(f"a heading grid needs >= 1 column, got {n}")
    step = TWO_PI / n
    return tuple(j * step for j in range(n))


def bracketing_columns(heading: float, n: int) -> list[tuple[float, int]]:
    """(distance, column) for the columns of ``grid_columns(n)`` that
    bracket a heading.

    The bracket is column floor(heading / bin) mod n and the next one, a
    single column when n == 1.  Every other column is at least a full bin
    from the heading, so it can neither be the nearest nor lie within half a
    bin.  Each distance is ``angular_distance(heading, column)``, the call a
    scan of every column would make for that column.
    """
    if not math.isfinite(heading):
        _check_finite(heading)
    columns = grid_columns(n)
    j = math.floor(heading / (TWO_PI / n)) % n
    near = (j, (j + 1) % n) if n > 1 else (j,)
    return [(angular_distance(heading, columns[i]), i) for i in near]


def nearest_column(heading: float, n: int) -> tuple[int, float]:
    """Column of ``grid_columns(n)`` nearest a heading, and its distance.

    Ties break to the lowest column, as in a scan of all columns in order.
    """
    d, j = min(bracketing_columns(heading, n))
    return j, d
