"""Evaluation metrics against brute-force oracles and hand-computed cases."""

import itertools
import math

import numpy as np
import pytest

from oikg.artifacts import write_json
from oikg.errors import InvalidArgument
from oikg.metrics import (EpisodeResult, MetricRow, aggregate, dtw_cost, evaluate,
                          navigation_error, ndtw, spl, success,
                          trajectory_length, write_results_csv)
from oikg.navgraph import NavNode, build_graph
from oikg.rng import substream


def graph_from(points, pairs):
    """Bidirectional graph from id -> xyz points and undirected pairs."""
    nodes = [NavNode(i, tuple(map(float, p)), 0, (0,)) for i, p in points]
    edges = [e for u, v in pairs for e in ((u, v), (v, u))]
    return build_graph(nodes, edges)


def chain_graph(gaps):
    """Nodes on the x axis separated by the given gap lengths, bidirectional."""
    points = [(i, (sum(gaps[:i]), 0.0, 0.0)) for i in range(len(gaps) + 1)]
    return graph_from(points, [(i, i + 1) for i in range(len(gaps))])


def enumerate_dtw(r):
    """Minimum alignment cost by exhaustive enumeration of monotone warpings."""
    p, q = r.executed_path, r.gt_path
    n, m = len(p), len(q)

    def d(i, j):
        return r.env.geodesic(p[i], q[j])

    best = [math.inf]

    def walk(i, j, acc):
        acc += d(i, j)
        if i == n - 1 and j == m - 1:
            best[0] = min(best[0], acc)
            return
        if i + 1 < n:
            walk(i + 1, j, acc)
        if j + 1 < m:
            walk(i, j + 1, acc)
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, acc)

    walk(0, 0, 0.0)
    return best[0]


@pytest.fixture()
def square():
    # unit square plus a far-away pendant node
    points = [(0, (0.0, 0.0, 0.0)), (1, (1.0, 0.0, 0.0)), (2, (1.0, 1.0, 0.0)),
              (3, (0.0, 1.0, 0.0)), (4, (9.0, 1.0, 0.0))]
    return graph_from(points, [(0, 1), (1, 2), (2, 3), (3, 0), (2, 4)])


def random_walk(graph, rng, max_len=6):
    ids = graph.node_ids()
    node = int(ids[rng.integers(len(ids))])
    path = [node]
    for _ in range(int(rng.integers(0, max_len - 1))):
        nbrs = graph.neighbors(path[-1])
        if not nbrs:
            break
        path.append(int(nbrs[rng.integers(len(nbrs))]))
    return tuple(path)


def test_result_validation(square):
    with pytest.raises(InvalidArgument):
        EpisodeResult(square, (), (0,))
    with pytest.raises(InvalidArgument):
        EpisodeResult(square, (0,), ())
    with pytest.raises(InvalidArgument):
        EpisodeResult(square, (0, 7), (0,))
    with pytest.raises(InvalidArgument):
        EpisodeResult(square, (0, 2), (0,))  # not an edge


def test_trajectory_length(square):
    r = EpisodeResult(square, (0, 1, 2, 3), (0, 3))
    assert trajectory_length(r) == pytest.approx(3.0, abs=1e-12)
    assert trajectory_length(EpisodeResult(square, (2,), (2,))) == 0.0


def test_navigation_error_geodesic_vs_euclidean(square):
    # finish at 0; goal is the pendant node 4
    r = EpisodeResult(square, (1, 0), (1, 2, 4))
    assert navigation_error(r) == pytest.approx(2.0 + 8.0, abs=1e-12)


def test_success_boundary_inclusive():
    g = chain_graph([1.5, 1.5])
    r = EpisodeResult(g, (0,), (0, 1, 2))
    assert navigation_error(r) == 3.0
    assert success(r) == 1.0
    g2 = chain_graph([1.5, 1.5001])
    assert success(EpisodeResult(g2, (0,), (0, 1, 2))) == 0.0


def test_success_euclidean_switch_changes_outcome(square):
    # U-shaped corridor: goal is 10m along edges but 2m straight-line
    points = [(0, (0.0, 0.0, 0.0)), (1, (4.0, 0.0, 0.0)),
              (2, (4.0, 2.0, 0.0)), (3, (0.0, 2.0, 0.0))]
    g = graph_from(points, [(0, 1), (1, 2), (2, 3)])
    r = EpisodeResult(g, (0,), (0, 1, 2, 3))  # goal 3: geodesic 10, euclid 2
    assert success(r) == 0.0


def test_spl_perfect_and_failed():
    g = chain_graph([2.0, 2.0])
    perfect = EpisodeResult(g, (0, 1, 2), (0, 1, 2))
    assert spl(perfect) == 1.0
    lost = EpisodeResult(g, (2, 1, 0), (0, 1, 2))
    assert spl(lost) == 0.0  # failure zeroes the ratio


def test_spl_fixture_point_eight():
    # shortest 10, executed 12.5 via a 1.25m side trip -> exactly 0.8
    points = [(0, (0.0, 0.0, 0.0)), (1, (5.0, 0.0, 0.0)),
              (2, (10.0, 0.0, 0.0)), (3, (5.0, 1.25, 0.0))]
    g = graph_from(points, [(0, 1), (1, 2), (1, 3)])
    r = EpisodeResult(g, (0, 1, 3, 1, 2), (0, 1, 2))
    assert trajectory_length(r) == 12.5
    assert abs(spl(r) - 0.8) <= 1e-12


def test_spl_degenerate_start_on_goal():
    g = chain_graph([2.0])
    stay = EpisodeResult(g, (0,), (0,))
    assert spl(stay) == 1.0
    wander = EpisodeResult(g, (0, 1, 0), (0,))
    assert spl(wander) == 1.0  # l = 0 collapses to SR


def test_ndtw_identical_is_one(square):
    r = EpisodeResult(square, (0, 1, 2), (0, 1, 2))
    assert ndtw(r) == 1.0


def test_ndtw_hand_case():
    # P = [a], Q = [a, b], geodesic(a, b) = 3 -> exp(-3 / (2 * 3))
    g = chain_graph([3.0])
    r = EpisodeResult(g, (0,), (0, 1))
    assert dtw_cost(r) == 3.0
    assert ndtw(r) == pytest.approx(math.exp(-0.5), abs=1e-12)


def test_ndtw_dp_matches_enumeration(square):
    rng = substream(77, "ndtw-fuzz")
    for _ in range(150):
        r = EpisodeResult(square, random_walk(square, rng),
                          random_walk(square, rng))
        assert dtw_cost(r) == pytest.approx(enumerate_dtw(r), abs=1e-9)


def cell_dtw(r):
    """The dynamic program as a numpy table filled cell by cell, the form
    ``dtw_cost`` replaced: its exact oracle."""
    p, q = r.executed_path, r.gt_path
    d = np.array([[r.env.geodesic(a, b) for b in q] for a in p])
    cost = np.full(d.shape, math.inf)
    for i, j in itertools.product(range(len(p)), range(len(q))):
        if i == j == 0:
            cost[0, 0] = d[0, 0]
            continue
        best = math.inf
        if i > 0:
            best = cost[i - 1, j]
        if j > 0:
            best = min(best, cost[i, j - 1])
        if i > 0 and j > 0:
            best = min(best, cost[i - 1, j - 1])
        cost[i, j] = d[i, j] + best
    return float(cost[-1, -1])


def test_dtw_cost_matches_cell_table_bitwise():
    """On irregular edge lengths, including an unreachable component, the
    Python-float program gives the numpy table's cost to the bit."""
    rng = substream(80, "dtw-bitwise")
    points = [(i, tuple(rng.uniform(0.0, 7.0, size=3))) for i in range(9)]
    g = graph_from(points, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5),
                            (5, 2), (6, 7), (7, 8)])
    for _ in range(300):
        r = EpisodeResult(g, random_walk(g, rng, max_len=9),
                          random_walk(g, rng, max_len=9))
        assert dtw_cost(r) == cell_dtw(r)


def test_ndtw_range(square):
    rng = substream(78, "ndtw-range")
    for _ in range(50):
        r = EpisodeResult(square, random_walk(square, rng),
                          random_walk(square, rng))
        assert 0.0 < ndtw(r) <= 1.0


def test_sdtw_product_and_invariants(square):
    rng = substream(79, "sdtw-fuzz")
    for _ in range(100):
        r = EpisodeResult(square, random_walk(square, rng),
                          random_walk(square, rng))
        row = evaluate(r)
        assert row.sdtw == row.sr * row.ndtw
        assert row.sdtw <= row.ndtw
        assert row.spl <= row.sr
        assert row.sr in (0.0, 1.0)
        assert evaluate(r).sdtw == success(r) * ndtw(r)


def test_evaluate_row_consistency(square):
    r = EpisodeResult(square, (0, 1, 2), (0, 1, 2, 4))
    row = evaluate(r)
    assert row.tl == trajectory_length(r)
    assert row.ne == navigation_error(r)
    assert row.sr == success(r)
    assert row.spl == spl(r)
    assert row.ndtw == ndtw(r)


def test_evaluate_equals_each_metric_function():
    """On irregular edge lengths with an unreachable component, every field
    of ``evaluate``'s row is its own function's value to the bit (NaN where
    SPL meets an infinite start-goal distance)."""
    rng = substream(81, "evaluate-fields")
    points = [(i, tuple(rng.uniform(0.0, 7.0, size=3))) for i in range(9)]
    g = graph_from(points, [(0, 1), (1, 2), (2, 3), (3, 0), (1, 4), (4, 5),
                            (5, 2), (6, 7), (7, 8)])
    for _ in range(300):
        r = EpisodeResult(g, random_walk(g, rng, max_len=9), random_walk(g, rng, max_len=9))
        row = evaluate(r)
        np.testing.assert_array_equal(
            [row.tl, row.ne, row.sr, row.spl, row.ndtw, row.sdtw],
            [trajectory_length(r), navigation_error(r), success(r), spl(r), ndtw(r),
             success(r) * ndtw(r)])


def test_aggregate_means_equal_numpy_mean_per_field():
    """Each mean equals ``np.mean`` of its field's column to the bit, at row
    counts on both sides of numpy's pairwise-summation block edges."""
    rng = substream(82, "aggregate-mean")
    fields = ("tl", "ne", "sr", "spl", "ndtw", "sdtw")
    columns = {f: rng.standard_normal(20000) * 10.0 ** rng.uniform(-3, 3, size=20000)
               for f in fields}
    columns["sr"] = np.floor(rng.uniform(0.0, 2.0, size=20000))
    rows = [MetricRow(*values) for values in zip(*(columns[f].tolist() for f in fields))]
    keys = dict(zip(fields, ("TL", "NE", "SR", "SPL", "nDTW", "sDTW")))
    for count in (1, 2, 7, 8, 9, 127, 128, 129, 8191, 8192, 8193, 20000):
        out = aggregate(rows[:count])
        assert out["count"] == count
        for f in fields:
            assert out[keys[f]] == float(np.mean([getattr(row, f) for row in rows[:count]])), \
                (count, f)


def test_aggregate_means(square):
    hit = evaluate(EpisodeResult(square, (0, 1, 2), (0, 1, 2)))
    miss = evaluate(EpisodeResult(square, (2, 4), (2, 1, 0)))
    out = aggregate([hit, miss])
    assert out["count"] == 2
    assert out["SR"] == 0.5
    assert out["display"]["SR"] == "50.00"
    assert out["TL"] == pytest.approx((hit.tl + miss.tl) / 2, abs=1e-12)
    assert out["nDTW"] == pytest.approx((hit.ndtw + miss.ndtw) / 2, abs=1e-12)
    assert float(out["display"]["nDTW"]) == pytest.approx(
        out["nDTW"] * 100, abs=0.005)
    with pytest.raises(InvalidArgument):
        aggregate([])


def test_file_outputs_deterministic(square, tmp_path):
    rows = {"ep3": evaluate(EpisodeResult(square, (0, 1), (0, 1, 2))),
            "ep1": evaluate(EpisodeResult(square, (2, 4), (2, 4)))}
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_results_csv(a, rows, comment="config_hash=0123")
    write_results_csv(b, rows, comment="config_hash=0123")
    assert a.read_bytes() == b.read_bytes()
    text = a.read_text()
    lines = text.strip().split("\n")
    assert lines[:2] == ["# config_hash=0123", "episode_id,TL,NE,SR,SPL,nDTW,sDTW"]
    assert lines[2].startswith("ep1,") and lines[3].startswith("ep3,")

    s1, s2 = tmp_path / "s1.json", tmp_path / "s2.json"
    summary = aggregate(rows.values())
    write_json(s1, summary)
    write_json(s2, summary)
    assert s1.read_bytes() == s2.read_bytes()
    assert s1.read_text().endswith("\n")
