"""Routing, exploration-state, and environment-file checks.

Shortest paths are validated against exhaustive simple-path enumeration on
small random graphs, and the frontier is validated against a from-scratch
recomputation oracle during random walks.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oikg.errors import IllegalAction, InvalidArgument, SchemaError
from oikg.navgraph import (
    STOP,
    NavGraph,
    NavNode,
    PathGraph,
    action_slot,
    build_graph,
    check_route,
    graph_from_dict,
    graph_to_dict,
    load_environment,
    path_length,
    save_environment,
    slot_action,
)


def make_nodes(positions, rooms=None, objects=None):
    rooms = rooms or [0] * len(positions)
    objects = objects or [()] * len(positions)
    return [NavNode(i, tuple(map(float, p)), rooms[i], tuple(objects[i]))
            for i, p in enumerate(positions)]


def bidirectional(pairs):
    out = []
    for u, v in pairs:
        out.append((u, v))
        out.append((v, u))
    return out


@pytest.fixture
def diamond():
    # two equal-length routes 0-1-3 and 0-2-3
    nodes = make_nodes([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0)])
    return build_graph(nodes, bidirectional([(0, 1), (0, 2), (1, 3), (2, 3)]))


@pytest.fixture
def fork():
    # 0-1, 0-2, 1-3
    nodes = make_nodes([(0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0)])
    return build_graph(nodes, bidirectional([(0, 1), (0, 2), (1, 3)]))


def random_graph(rng, n):
    positions = rng.uniform(-5, 5, size=(n, 3))
    nodes = make_nodes(positions)
    pairs = set()
    order = list(rng.permutation(n))
    for a, b in zip(order, order[1:]):  # random spanning tree keeps it connected
        pairs.add((min(a, b), max(a, b)))
    for _ in range(n):
        a, b = rng.integers(0, n, size=2)
        if a != b:
            pairs.add((min(int(a), int(b)), max(int(a), int(b))))
    return build_graph(nodes, bidirectional(sorted(pairs)))


def all_simple_paths(graph, src, dst):
    out = []

    def dfs(path, seen):
        u = path[-1]
        if u == dst:
            out.append(list(path))
            return
        for v in graph.neighbors(u):
            if v not in seen:
                path.append(v)
                seen.add(v)
                dfs(path, seen)
                seen.remove(v)
                path.pop()

    dfs([src], {src})
    return out


def brute_shortest(graph, src, dst):
    if src == dst:
        return [src]
    paths = all_simple_paths(graph, src, dst)
    if not paths:
        return None
    return min(paths, key=lambda p: (path_length(graph, p), p))


# ----------------------------------------------------------------- routing


def test_shortest_path_matches_enumeration():
    rng = np.random.default_rng(1234)
    for trial in range(30):
        g = random_graph(rng, int(rng.integers(3, 8)))
        ids = g.node_ids()
        for _ in range(6):
            src, dst = rng.choice(ids, size=2)
            got = g.shortest_path(int(src), int(dst))
            want = brute_shortest(g, int(src), int(dst))
            assert got == want, f"trial {trial}: {src}->{dst}"


def test_tie_break_prefers_smaller_id_sequence(diamond):
    assert diamond.shortest_path(0, 3) == [0, 1, 3]
    assert diamond.shortest_path(3, 0) == [3, 1, 0]


def test_shortest_path_trivial_and_unreachable():
    nodes = make_nodes([(0, 0, 0), (1, 0, 0), (5, 5, 5)])
    g = build_graph(nodes, bidirectional([(0, 1)]))
    assert g.shortest_path(0, 0) == [0]
    assert g.shortest_path(0, 2) is None
    assert g.geodesic(0, 2) == math.inf
    assert g.geodesic(0, 0) == 0.0
    assert abs(g.geodesic(0, 1) - 1.0) < 1e-12


def test_geodesic_matches_path_and_is_symmetric_when_bidirectional():
    rng = np.random.default_rng(77)
    for _ in range(10):
        g = random_graph(rng, 7)
        for src in g.node_ids():
            for dst in g.node_ids():
                d = g.geodesic(src, dst)
                assert abs(d - g.geodesic(dst, src)) < 1e-9
                path = g.shortest_path(src, dst)
                assert abs(path_length(g, path) - d) < 1e-9


def test_one_way_edge_is_directional():
    nodes = make_nodes([(0, 0, 0), (1, 0, 0)])
    g = build_graph(nodes, [(0, 1)])
    assert g.shortest_path(0, 1) == [0, 1]
    assert g.shortest_path(1, 0) is None
    assert g.geodesic(1, 0) == math.inf


def test_restricted_path_ignores_outside_nodes(diamond):
    assert diamond.shortest_path(0, 3, allowed={0, 2, 3}) == [0, 2, 3]
    assert diamond.shortest_path(0, 3, allowed={0, 3}) is None


def test_path_length_and_bad_hop(fork):
    assert abs(path_length(fork, [0, 1, 3]) - 2.0) < 1e-12
    assert path_length(fork, [2]) == 0.0
    with pytest.raises(InvalidArgument):
        path_length(fork, [0, 3])
    with pytest.raises(InvalidArgument):
        path_length(fork, [])


@pytest.mark.parametrize("route, message", [
    ((), "gt path is empty"),
    ((0, 1, 9), "gt path references unknown node 9"),
    ((0, 1, 2), "gt path hop 1->2 is not an edge"),
    ((0, 3), "gt path hop 0->3 is not an edge"),
    ((2, 0, 1, 3), None),
    ((3,), None),
], ids=["empty", "unknown_node", "non_edge_hop", "non_edge_two_hops_away",
        "valid", "valid_single_node"])
def test_check_route(fork, route, message):
    if message is None:
        assert check_route(fork, route, "gt") is None
    else:
        with pytest.raises(InvalidArgument, match=f"^{message}$"):
            check_route(fork, route, "gt")


def test_slot_action_and_action_slot_are_inverses():
    """Over every slot of a random frontier: the frontier nodes in order,
    then STOP in the slot after them."""
    rng = np.random.default_rng(16)
    for _ in range(50):
        order = sorted(int(n) for n in rng.choice(100, size=int(rng.integers(0, 8)),
                                                  replace=False))
        actions = [slot_action(order, slot) for slot in range(len(order) + 1)]
        assert actions == order + [STOP]
        assert [action_slot(order, a) for a in actions] == list(range(len(order) + 1))


# ------------------------------------------------------------- construction


def test_build_rejects_bad_input():
    nodes = make_nodes([(0, 0, 0), (1, 0, 0)])
    with pytest.raises(InvalidArgument):
        build_graph(nodes + [NavNode(0, (2.0, 0.0, 0.0), 0, ())], [])
    with pytest.raises(InvalidArgument):
        build_graph(nodes, [(0, 5)])
    with pytest.raises(InvalidArgument):
        build_graph(nodes, [(0, 0)])
    with pytest.raises(InvalidArgument):
        build_graph(nodes, [(0, 1), (0, 1)])
    with pytest.raises(InvalidArgument):
        build_graph([NavNode(0, (0.0, math.nan, 0.0), 0, ())], [])
    # coincident connected nodes have no edge direction
    twins = [NavNode(0, (0.0, 0.0, 0.0), 0, ()), NavNode(1, (0.0, 0.0, 0.0), 0, ())]
    with pytest.raises(InvalidArgument):
        build_graph(twins, [(0, 1)])


def test_edge_pose_geometry(fork):
    pose = fork.edge_pose(0, 1)
    assert abs(pose.length - 1.0) < 1e-12
    assert abs(pose.heading - 0.0) < 1e-12
    with pytest.raises(InvalidArgument):
        fork.edge_pose(1, 2)


# ---------------------------------------------------------------- frontier


def global_frontier_oracle(graph, visited):
    out = set()
    for u in visited:
        out |= set(graph.neighbors(u))
    return sorted(out - set(visited))


def test_frontier_expansion_global(fork):
    pg = PathGraph(fork, start=0)
    assert pg.frontier() == [1, 2]
    assert pg.frontier() == [1, 2]
    pg.advance(1)
    assert pg.frontier() == [2, 3]  # 2 stays reachable via 0


def test_jump_to_non_adjacent_frontier_routes_through_visited(fork):
    pg = PathGraph(fork, start=0)
    pg.advance(1)
    segment = pg.advance(2)  # no edge 1-2: expect pass-through at 0
    assert segment == [0, 2]
    assert pg.route == [0, 1, 0, 2]
    assert pg.visited == {0, 1, 2}
    assert pg.current == 2
    for u, v in zip(pg.route, pg.route[1:]):
        assert fork.has_edge(u, v)


def test_stop_and_illegal_moves(fork):
    pg = PathGraph(fork, start=0)
    with pytest.raises(IllegalAction):
        pg.advance(3)  # not on frontier yet
    pg.advance(STOP)
    assert pg.terminal
    assert pg.frontier() == []
    with pytest.raises(IllegalAction):
        pg.advance(1)


def test_frontier_fuzz_matches_oracle():
    rng = np.random.default_rng(2024)
    for trial in range(25):
        g = random_graph(rng, int(rng.integers(4, 10)))
        start = int(rng.choice(g.node_ids()))
        pg = PathGraph(g, start=start)
        for _ in range(12):
            frontier = pg.frontier()
            assert frontier == global_frontier_oracle(g, pg.visited)
            assert pg.current == pg.route[-1]
            assert set(pg.route) == pg.visited
            for u, v in zip(pg.route, pg.route[1:]):
                assert g.has_edge(u, v)
            if not frontier:
                break
            pg.advance(int(rng.choice(frontier)))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 16), n=st.integers(2, 9),
       moves=st.lists(st.integers(-1, 63), max_size=14))
def test_frontier_properties(seed, n, moves):
    """On any connected graph and any walk of frontier moves ending in STOP
    (-1):
    the frontier is sorted, unvisited, and exactly the unvisited neighbours
    of the visited set; once the walk is terminal it is empty and every
    move is illegal."""
    g = random_graph(np.random.default_rng(seed), n)
    pg = PathGraph(g, start=seed % n)
    for m in moves + [-1]:
        frontier = pg.frontier()
        assert frontier == sorted(set(frontier))
        assert not set(frontier) & set(pg.visited)
        assert set(frontier) == {c for u in pg.visited for c in g.neighbors(u)} - set(pg.visited)
        if m < 0 or not frontier:
            pg.advance(STOP)
            break
        pg.advance(frontier[m % len(frontier)])
    assert pg.terminal and pg.frontier() == []
    for target in (STOP, *g.node_ids()):
        with pytest.raises(IllegalAction):
            pg.advance(target)


# ------------------------------------------------------------- file formats


def test_environment_round_trip_byte_identical(tmp_path):
    rng = np.random.default_rng(9)
    g = random_graph(rng, 8)
    p1 = tmp_path / "env1.json"
    p2 = tmp_path / "env2.json"
    save_environment(p1, g)
    loaded = load_environment(p1)
    save_environment(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()
    assert loaded.node_ids() == g.node_ids()
    assert set(loaded.poses) == set(g.poses)
    for i in g.node_ids():
        assert loaded.nodes[i] == g.nodes[i]


def test_environment_schema_errors(tmp_path):
    with pytest.raises(SchemaError):
        graph_from_dict({"nodes": []})
    with pytest.raises(SchemaError):
        graph_from_dict({"nodes": [{"id": 0}], "edges": []})
    ok_nodes = [{"id": 0, "pos": [0, 0, 0], "room": 0, "objects": []},
                {"id": 1, "pos": [1, 0, 0], "room": 0, "objects": []}]
    with pytest.raises(SchemaError):
        graph_from_dict({"nodes": ok_nodes, "edges": [[0, 1], [1, 0]]})  # dup connection
    with pytest.raises(SchemaError):
        graph_from_dict({"nodes": ok_nodes, "edges": [[0, 7]]})
    with pytest.raises(SchemaError):
        graph_from_dict({"nodes": ok_nodes, "edges": [[0]]})
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(SchemaError):
        load_environment(bad)


def test_save_requires_reverse_edges(tmp_path):
    nodes = make_nodes([(0, 0, 0), (1, 0, 0)])
    g = build_graph(nodes, [(0, 1)])
    with pytest.raises(InvalidArgument):
        graph_to_dict(g)
