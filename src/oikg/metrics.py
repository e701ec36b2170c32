"""Navigation evaluation: trajectory length, error, success, and warping
similarity.

All distances between nodes are shortest-route (geodesic) lengths.
Success is inclusive at exactly the 3-meter boundary.
"""

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .errors import InvalidArgument
from .navgraph import NavGraph, check_route, path_length

SUCCESS_RADIUS = 3.0


@dataclass(frozen=True)
class EpisodeResult:
    """An executed route and its reference route in one environment."""
    env: NavGraph
    executed_path: tuple
    gt_path: tuple

    def __post_init__(self):
        object.__setattr__(self, "executed_path", tuple(int(n) for n in self.executed_path))
        object.__setattr__(self, "gt_path", tuple(int(n) for n in self.gt_path))
        check_route(self.env, self.executed_path, "executed")
        check_route(self.env, self.gt_path, "gt")

    @property
    def goal(self) -> int:
        return self.gt_path[-1]

    @property
    def final(self) -> int:
        return self.executed_path[-1]


@dataclass(frozen=True)
class MetricRow:
    tl: float
    ne: float
    sr: float
    spl: float
    ndtw: float
    sdtw: float


def trajectory_length(r: EpisodeResult) -> float:
    return path_length(r.env, r.executed_path)


def navigation_error(r: EpisodeResult) -> float:
    """Distance from the final node to the goal."""
    return r.env.geodesic(r.final, r.goal)


def success(r: EpisodeResult) -> float:
    return 1.0 if navigation_error(r) <= SUCCESS_RADIUS else 0.0


def spl(r: EpisodeResult) -> float:
    """Success weighted by route efficiency: SR * l / max(l, p)."""
    sr = success(r)
    l = r.env.geodesic(r.executed_path[0], r.goal)
    if l == 0.0:
        return sr
    p = trajectory_length(r)
    return sr * l / max(l, p)


def dtw_cost(r: EpisodeResult) -> float:
    """Minimum summed geodesic distance over monotone alignments of the two
    paths (moves: advance either index or both).  The dynamic program runs
    row by row over Python floats: each cell is its distance plus the least
    of its predecessors' costs (up, left, diagonal), one add."""
    gt, inf = r.gt_path, math.inf
    dists = map(r.env._dist_from, r.executed_path)
    prev = list(itertools.accumulate(map(next(dists).get, gt, itertools.repeat(inf))))
    for dist in dists:
        diag = prev[0]
        left = dist.get(gt[0], inf) + diag
        cost = [left]
        for target, up in zip(gt[1:], prev[1:]):
            left = dist.get(target, inf) + min(up, left, diag)
            diag = up
            cost.append(left)
        prev = cost
    return prev[-1]


def ndtw(r: EpisodeResult) -> float:
    """exp(-DTW / (|reference| * d_th)), with d_th the success radius."""
    return math.exp(-dtw_cost(r) / (len(r.gt_path) * SUCCESS_RADIUS))


def evaluate(r: EpisodeResult) -> MetricRow:
    """Every metric of one episode, TL, NE, SR and the start-goal geodesic
    each computed once as its own function computes it; sDTW is SR * nDTW."""
    tl = path_length(r.env, r.executed_path)
    ne = r.env.geodesic(r.final, r.goal)
    sr = 1.0 if ne <= SUCCESS_RADIUS else 0.0
    l = r.env.geodesic(r.executed_path[0], r.goal)
    nd = ndtw(r)
    return MetricRow(tl=tl, ne=ne, sr=sr, spl=sr if l == 0.0 else sr * l / max(l, tl),
                     ndtw=nd, sdtw=sr * nd)


def aggregate(rows) -> dict:
    """Arithmetic means plus the conventional x100 2-decimal rendering; one
    ``(6, rows)`` sum along its rows makes each field's ``np.mean`` sum."""
    rows = list(rows)
    if not rows:
        raise InvalidArgument("no rows to aggregate")
    fields = ("tl", "ne", "sr", "spl", "ndtw", "sdtw")
    sums = np.array([[getattr(row, f) for row in rows] for f in fields]).sum(axis=1)
    mean = dict(zip(fields, (sums / len(rows)).tolist()))
    out = {"count": len(rows), "TL": mean["tl"], "NE": mean["ne"],
           "SR": mean["sr"], "SPL": mean["spl"], "nDTW": mean["ndtw"],
           "sDTW": mean["sdtw"]}
    out["display"] = {k: f"{mean[f] * 100.0:.2f}"
                      for k, f in (("SR", "sr"), ("SPL", "spl"),
                                   ("nDTW", "ndtw"), ("sDTW", "sdtw"))}
    return out


# ------------------------------------------------------------- file formats


def write_results_csv(path, results: dict, comment: str) -> None:
    """results: episode_id -> MetricRow, written in sorted id order."""
    write_csv(path, ["episode_id", "TL", "NE", "SR", "SPL", "nDTW", "sDTW"],
              ([ep_id] + [repr(float(v)) for v in
                          (row.tl, row.ne, row.sr, row.spl, row.ndtw, row.sdtw)]
               for ep_id, row in sorted(results.items())),
              comment=comment)
