"""Navigation evaluation: trajectory length, error, success, and warping
similarity.

All distances between nodes are shortest-route (geodesic) lengths.
Success is inclusive at exactly the 3-meter boundary.
"""

import math
from dataclasses import dataclass

import numpy as np

from .artifacts import write_csv
from .errors import InvalidArgument
from .navgraph import NavGraph, path_length

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
        for label, path in (("executed", self.executed_path), ("gt", self.gt_path)):
            if not path:
                raise InvalidArgument(f"{label} path is empty")
            for n in path:
                if n not in self.env.nodes:
                    raise InvalidArgument(f"{label} path references unknown node {n}")
            for u, v in zip(path, path[1:]):
                if not self.env.has_edge(u, v):
                    raise InvalidArgument(f"{label} path hop {u}->{v} is not an edge")

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
    paths (moves: advance either index or both)."""
    p, q = r.executed_path, r.gt_path
    n, m = len(p), len(q)
    d = np.empty((n, m))
    for i in range(n):
        row = r.env._dist_from(p[i])
        for j in range(m):
            d[i, j] = row[q[j]]
    cost = np.full((n, m), math.inf)
    cost[0, 0] = d[0, 0]
    for i in range(n):
        for j in range(m):
            if i == j == 0:
                continue
            best = math.inf
            if i > 0:
                best = cost[i - 1, j]
            if j > 0:
                best = min(best, cost[i, j - 1])
            if i > 0 and j > 0:
                best = min(best, cost[i - 1, j - 1])
            cost[i, j] = d[i, j] + best
    return float(cost[n - 1, m - 1])


def ndtw(r: EpisodeResult) -> float:
    """exp(-DTW / (|reference| * d_th)), with d_th the success radius."""
    return math.exp(-dtw_cost(r) / (len(r.gt_path) * SUCCESS_RADIUS))


def evaluate(r: EpisodeResult) -> MetricRow:
    """Every metric of one episode; sDTW is SR * nDTW."""
    sr = success(r)
    nd = ndtw(r)
    return MetricRow(tl=trajectory_length(r),
                     ne=navigation_error(r),
                     sr=sr,
                     spl=spl(r),
                     ndtw=nd,
                     sdtw=sr * nd)


def aggregate(rows) -> dict:
    """Arithmetic means plus the conventional x100 2-decimal rendering."""
    rows = list(rows)
    if not rows:
        raise InvalidArgument("no rows to aggregate")
    mean = {f: float(np.mean([getattr(row, f) for row in rows]))
            for f in ("tl", "ne", "sr", "spl", "ndtw", "sdtw")}
    out = {"count": len(rows), "TL": mean["tl"], "NE": mean["ne"],
           "SR": mean["sr"], "SPL": mean["spl"], "nDTW": mean["ndtw"],
           "sDTW": mean["sdtw"]}
    out["display"] = {k: f"{mean[f] * 100.0:.2f}"
                      for k, f in (("SR", "sr"), ("SPL", "spl"),
                                   ("nDTW", "ndtw"), ("sDTW", "sdtw"))}
    return out


# ------------------------------------------------------------- file formats


def write_results_csv(path, results: dict, comment: str | None = None) -> None:
    """results: episode_id -> MetricRow, written in sorted id order."""
    write_csv(path, ["episode_id", "TL", "NE", "SR", "SPL", "nDTW", "sDTW"],
              ([ep_id] + [repr(float(v)) for v in
                          (row.tl, row.ne, row.sr, row.spl, row.ndtw, row.sdtw)]
               for ep_id, row in sorted(results.items())),
              comment=comment)
