"""Generator determinism, observation semantics, and instruction invariants."""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oikg import synthenv as se
from oikg.artifacts import read_json, write_json
from oikg.errors import GenerationFailure, InvalidArgument, SchemaError
from oikg.geometry import TWO_PI, angular_distance
from oikg.navgraph import NavNode, build_graph, graph_to_dict, path_length


FLAT_12 = se.ViewGrid(n_headings=12, elevations=(0.0,))


def canonical(graph) -> str:
    return json.dumps(graph_to_dict(graph), sort_keys=True)


@pytest.fixture
def env():
    return se.generate_environment(
        se.EnvParams(node_count=25, connection_radius=3.5, extent=10.0, seed=7))


# ------------------------------------------------------------------- vocab


def test_vocab_layout():
    table = se.vocab_table()
    assert len(table) == se.VOCAB_SIZE == 3 + 8 + 8 + 40
    assert [row["id"] for row in table] == list(range(se.VOCAB_SIZE))
    words = [row["word"] for row in table]
    assert len(set(words)) == len(words)
    assert sum(row["class"] == "room" for row in table) == 8
    assert sum(row["class"] == "object" for row in table) == 8
    assert table[se.PAD]["word"] == "<pad>"
    assert table[se.BOS]["word"] == "<bos>"
    assert table[se.EOS]["word"] == "<eos>"
    assert se.token_class(se.ROOM_BASE) == "room"
    assert se.token_class(se.OBJECT_BASE + 7) == "object"
    assert se.word_token("kitchen") == se.ROOM_BASE
    with pytest.raises(InvalidArgument):
        se.word_token("xyzzy")


# -------------------------------------------------------------------- grid


def test_view_grid_default_36():
    grid = se.ViewGrid()
    assert grid.k == 36
    headings, elevations = grid.angles()
    assert headings.shape == elevations.shape == (36,)
    expect = [i * math.pi / 6 for i in range(12)]
    np.testing.assert_allclose(sorted(set(headings)), expect, atol=1e-12)
    np.testing.assert_allclose(sorted(set(elevations)),
                               [-math.pi / 6, 0.0, math.pi / 6], atol=1e-12)
    # heading-major: each heading appears once per elevation, consecutively
    np.testing.assert_allclose(headings[:3], [0.0] * 3, atol=1e-12)
    np.testing.assert_allclose(elevations[:3],
                               [-math.pi / 6, 0.0, math.pi / 6], atol=1e-12)


def test_view_grid_fast_12():
    assert FLAT_12.k == 12
    _, elevations = FLAT_12.angles()
    np.testing.assert_array_equal(elevations, np.zeros(12))
    with pytest.raises(InvalidArgument):
        se.ViewGrid(n_headings=0)


@pytest.mark.parametrize("n_headings", [True, 2.5, 0, -3])
def test_view_grid_rejects_bad_heading_count(n_headings):
    with pytest.raises(InvalidArgument):
        se.ViewGrid(n_headings, (0.0,))


@pytest.mark.parametrize("elevation", [math.nan, math.inf, -math.inf])
def test_view_grid_rejects_non_finite_elevation(elevation):
    with pytest.raises(InvalidArgument):
        se.ViewGrid(4, (0.0, elevation))


@pytest.mark.parametrize("elevation", [4.0, -1.6, math.nextafter(math.pi / 2, 2.0)])
def test_view_grid_rejects_elevation_out_of_range(elevation):
    with pytest.raises(InvalidArgument):
        se.ViewGrid(4, (elevation,))
    se.ViewGrid(4, (-math.pi / 2, math.pi / 2))  # the range's ends are views


@pytest.mark.parametrize("elevations", [(0.0, 0.0), (0.0, -0.0), (0.5, -0.5, 0.5)])
def test_view_grid_rejects_repeated_elevation(elevations):
    with pytest.raises(InvalidArgument):
        se.ViewGrid(4, elevations)


def test_view_grid_presets_construct():
    from oikg.model import TINY_CONFIG, ModelConfig
    assert ModelConfig().view_grid.k == 36 and TINY_CONFIG.view_grid.k == 4


# ------------------------------------------------------------ environments


def union_find_connected(graph) -> bool:
    ids = graph.node_ids()
    parent = {i: i for i in ids}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for (u, v) in graph.poses:
        parent[find(u)] = find(v)
    return len({find(i) for i in ids}) == 1


def test_environment_connected_and_geometric(env):
    assert union_find_connected(env)
    p = 3.5
    ids = env.node_ids()
    for i in ids:
        for j in ids:
            if i >= j:
                continue
            d = float(np.linalg.norm(np.subtract(env.nodes[i].pos, env.nodes[j].pos)))
            assert env.has_edge(i, j) == (d <= p)
    for i in ids:
        node = env.nodes[i]
        assert 0 <= node.room < se.ROOM_COUNT
        assert 1 <= len(node.objects) <= 3
        assert all(0 <= o < se.OBJECT_COUNT for o in node.objects)
        assert 0.0 <= node.pos[0] <= 10.0 and 0.0 <= node.pos[1] <= 10.0
        assert 0.0 <= node.pos[2] <= 3.0


def test_environment_deterministic():
    p = se.EnvParams(node_count=30, connection_radius=3.0, extent=10.0, seed=7)
    assert canonical(se.generate_environment(p)) == canonical(se.generate_environment(p))
    p2 = se.EnvParams(node_count=30, connection_radius=3.0, extent=10.0, seed=8)
    assert canonical(se.generate_environment(p)) != canonical(se.generate_environment(p2))


def test_environment_two_nodes_huge_radius_complete():
    g = se.generate_environment(
        se.EnvParams(node_count=2, connection_radius=1e6, extent=5.0, seed=1))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)


def test_environment_param_validation_and_failure():
    with pytest.raises(InvalidArgument):
        se.generate_environment(se.EnvParams(node_count=1, connection_radius=1, extent=1))
    for bad in ({"connection_radius": 0}, {"connection_radius": math.nan},
                {"extent": math.inf}, {"extent": -1.0}, {"sigma": math.nan},
                {"sigma": math.inf}, {"sigma": -0.1}):
        with pytest.raises(InvalidArgument):
            se.generate_environment(se.EnvParams(**{
                "node_count": 5, "connection_radius": 1, "extent": 1, **bad}))
    with pytest.raises(InvalidArgument, match="feature dim"):
        se.generate_environment(se.EnvParams(node_count=5, connection_radius=1, extent=1,
                                             feature_dim=se.ROOM_COUNT))
    with pytest.raises(GenerationFailure):
        se.generate_environment(
            se.EnvParams(node_count=40, connection_radius=0.01, extent=100.0, seed=0))


# ------------------------------------------------------------ observations


@pytest.fixture
def cross_graph():
    # node 0 at origin; neighbors east (heading 0) and north (heading pi/2)
    nodes = [NavNode(0, (0.0, 0.0, 0.0), 2, (1,)),
             NavNode(1, (1.0, 0.0, 0.0), 3, (2,)),
             NavNode(2, (0.0, 1.0, 0.0), 4, (3,))]
    edges = [(0, 1), (1, 0), (0, 2), (2, 0)]
    return build_graph(nodes, edges)


def test_observation_zero_noise_exact_views(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    obs = se.render_observation(cross_graph, 0, lat, sigma=0.0, grid=FLAT_12)
    assert obs.shape == (12, 12)

    def expected_neighbor(nbr):
        onehot = np.zeros(se.ROOM_COUNT)
        onehot[cross_graph.nodes[nbr].room] = 1.0
        return np.concatenate([lat.node[nbr], onehot])

    background = np.concatenate([lat.background, np.zeros(se.ROOM_COUNT)])
    np.testing.assert_allclose(obs[0], expected_neighbor(1), atol=0)
    np.testing.assert_allclose(obs[3], expected_neighbor(2), atol=0)  # pi/2
    for k in range(12):
        if k not in (0, 3):
            np.testing.assert_allclose(obs[k], background, atol=0)


def test_observation_elevation_rows_share_column(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    obs = se.render_observation(cross_graph, 0, lat, sigma=0.0, grid=se.ViewGrid())
    vis = obs.reshape(12, 3, 12)  # heading-major columns
    for h in range(12):
        np.testing.assert_array_equal(vis[h, 0], vis[h, 1])
        np.testing.assert_array_equal(vis[h, 1], vis[h, 2])


def test_observation_noise_deterministic_and_scaled(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    grid = se.ViewGrid()
    a = se.render_observation(cross_graph, 0, lat, sigma=0.1, grid=grid)
    b = se.render_observation(cross_graph, 0, lat, sigma=0.1, grid=grid)
    np.testing.assert_array_equal(a, b)
    clean = se.render_observation(cross_graph, 0, lat, sigma=0.0, grid=grid)
    noise = a - clean
    assert 0.03 < float(np.std(noise)) < 0.3
    # the same panorama shape regardless of noise
    assert a.shape == clean.shape == (grid.k, 12)
    other = se.render_observation(cross_graph, 1, lat, sigma=0.1, grid=grid)
    assert not np.array_equal(a - clean,
                              other - se.render_observation(
                                  cross_graph, 1, lat, sigma=0.0, grid=grid))


def test_observation_nearest_in_bin_rule(env):
    lat = se.make_latents(env, feature_dim=16, seed=3)
    half_bin = math.pi / 12
    for node in env.node_ids()[:6]:
        obs = se.render_observation(env, node, lat, sigma=0.0, grid=FLAT_12)
        headings, _ = FLAT_12.angles()
        edges = [(nbr, env.edge_pose(node, nbr).heading) for nbr in env.neighbors(node)]
        background = np.concatenate([lat.background, np.zeros(se.ROOM_COUNT)])
        for k in range(12):
            scored = sorted((angular_distance(a, headings[k]), nbr)
                            for nbr, a in edges)
            if scored and scored[0][0] <= half_bin + 1e-12:
                nbr = scored[0][1]
                onehot = np.zeros(se.ROOM_COUNT)
                onehot[env.nodes[nbr].room] = 1.0
                expect = np.concatenate([lat.node[nbr], onehot])
            else:
                expect = background
            np.testing.assert_allclose(obs[k], expect, atol=0)


def oracle_render_visual(graph, node, latents, grid):
    """Noise-free panorama by a per-view scan over every edge."""
    headings, _ = grid.angles()
    half_bin = math.pi / grid.n_headings
    edges = [(nbr, graph.edge_pose(node, nbr).heading) for nbr in graph.neighbors(node)]
    rows = []
    for k in range(grid.k):
        scored = sorted((angular_distance(a, headings[k]), nbr) for nbr, a in edges)
        if scored and scored[0][0] <= half_bin + 1e-12:
            nbr = scored[0][1]
            onehot = np.zeros(se.ROOM_COUNT)
            onehot[graph.nodes[nbr].room] = 1.0
            rows.append(np.concatenate([latents.node[nbr], onehot]))
        else:
            rows.append(np.concatenate([latents.background, np.zeros(se.ROOM_COUNT)]))
    return np.stack(rows)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_render_matches_per_view_scan(data):
    """Random star graphs on grids of 1-24 headings and 1-3 elevations:
    edges at random headings, on columns, exactly half a bin from one, a
    float either side of that, and repeated headings (ties go to the lower
    neighbour id).  The bracket lookup renders the scan's panorama."""
    n = data.draw(st.integers(1, 24), label="n")
    elevations = tuple(data.draw(st.lists(
        st.floats(-1.5, 1.5), min_size=1, max_size=3, unique=True), label="elevations"))
    grid = se.ViewGrid(n, elevations)
    step = TWO_PI / n
    cols = st.integers(0, n - 1)
    half = cols.map(lambda j: j * step + step / 2)
    heading = st.one_of(
        st.floats(0.0, TWO_PI, exclude_max=True), cols.map(lambda j: j * step),
        half, half.map(lambda h: math.nextafter(h, 0.0)),
        half.map(lambda h: math.nextafter(h, TWO_PI)))
    headings = data.draw(st.lists(heading, min_size=1, max_size=8), label="headings")
    headings += data.draw(st.lists(st.sampled_from(headings), max_size=2), label="repeats")
    nodes = [NavNode(0, (0.0, 0.0, 0.0), 0, (0,))] + [
        NavNode(i + 1, (math.cos(h) * (1 + i), math.sin(h) * (1 + i), 0.0), i % se.ROOM_COUNT, (0,))
        for i, h in enumerate(headings)]
    graph = build_graph(nodes, [e for i in range(len(headings))
                                for e in ((0, i + 1), (i + 1, 0))])
    for i, h in enumerate(headings):  # pin each edge to its exact heading
        graph.poses[(0, i + 1)] = dataclasses.replace(graph.poses[(0, i + 1)], heading=h)
    lat = se.make_latents(graph, feature_dim=12, seed=data.draw(st.integers(0, 99)))
    obs = se.render_observation(graph, 0, lat, sigma=0.0, grid=grid)
    np.testing.assert_array_equal(obs, oracle_render_visual(graph, 0, lat, grid))


def test_observation_errors(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=0)
    with pytest.raises(InvalidArgument):
        se.render_observation(cross_graph, 99, lat, sigma=0.1, grid=se.ViewGrid())
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="sigma"):
            se.render_observation(cross_graph, 0, lat, sigma=sigma, grid=se.ViewGrid())
    with pytest.raises(InvalidArgument):
        se.make_latents(cross_graph, feature_dim=8, seed=0)


# ------------------------------------------------------------ instructions


def test_instruction_two_room_path(cross_graph):
    instr = se.generate_instruction(cross_graph, [0, 1], seed=0)
    assert sum(instr.location_mask) == 2  # rooms 2 then 3, no dedup
    assert sum(instr.object_mask) == 1
    assert instr.tokens[0] == se.BOS and instr.tokens[-1] == se.EOS
    assert "bedroom" in instr.text and "bathroom" in instr.text  # rooms 2, 3
    # masks flag exactly the room/object class tokens
    for t, lm, om in zip(instr.tokens, instr.location_mask, instr.object_mask):
        assert lm == (se.token_class(t) == "room")
        assert om == (se.token_class(t) == "object")
        assert not (lm and om)


def test_instruction_dedups_consecutive_rooms():
    nodes = [NavNode(0, (0.0, 0.0, 0.0), 1, (0,)),
             NavNode(1, (1.0, 0.0, 0.0), 1, (0,)),
             NavNode(2, (2.0, 0.0, 0.0), 5, (4,))]
    g = build_graph(nodes, [(0, 1), (1, 0), (1, 2), (2, 1)])
    instr = se.generate_instruction(g, [0, 1, 2], seed=0)
    assert sum(instr.location_mask) == 2  # rooms 1,1,5 -> two mentions


def test_instruction_degenerate_path_keeps_both_cue_types(cross_graph):
    instr = se.generate_instruction(cross_graph, [2], seed=0)
    assert sum(instr.object_mask) >= 1
    assert sum(instr.location_mask) >= 1
    assert instr.text.endswith(se.OBJECT_WORDS[3])


def test_instruction_deterministic_and_errors(cross_graph):
    a = se.generate_instruction(cross_graph, [0, 1], seed=4)
    b = se.generate_instruction(cross_graph, [0, 1], seed=4)
    assert a == b
    with pytest.raises(InvalidArgument):
        se.generate_instruction(cross_graph, [], seed=0)
    with pytest.raises(InvalidArgument):
        se.generate_instruction(cross_graph, [1, 2], seed=0)  # not an edge
    bare = build_graph([NavNode(0, (0.0, 0.0, 0.0), 0, ())], [])
    with pytest.raises(GenerationFailure):
        se.generate_instruction(bare, [0], seed=0)


# ---------------------------------------------------------------- episodes


def test_episode_shortest_matches_geodesic(env):
    for seed in range(5):
        ep = se.make_episode(env, seed=seed, mode="shortest")
        hops = len(ep.gt_path) - 1
        assert 3 <= hops <= 12
        assert ep.start == ep.gt_path[0]
        d = env.geodesic(ep.gt_path[0], ep.gt_path[-1])
        assert abs(path_length(env, ep.gt_path) - d) < 1e-9
        for u, v in zip(ep.gt_path, ep.gt_path[1:]):
            assert env.has_edge(u, v)


def test_episode_detour_properties(env):
    found_longer = False
    for seed in range(8):
        ep = se.make_episode(env, seed=seed, mode="detour")
        path = ep.gt_path
        assert len(set(path)) == len(path)  # simple: usable as supervision
        d = env.geodesic(path[0], path[-1])
        assert path_length(env, path) >= d - 1e-9
        if path_length(env, path) > d + 1e-9:
            found_longer = True
        for u, v in zip(path, path[1:]):
            assert env.has_edge(u, v)
    assert found_longer


def test_episode_deterministic_and_failure(env):
    assert se.make_episode(env, seed=3) == se.make_episode(env, seed=3)
    with pytest.raises(InvalidArgument):
        se.make_episode(env, seed=0, mode="weird")
    tiny = se.generate_environment(
        se.EnvParams(node_count=2, connection_radius=1e6, extent=4.0, seed=0))
    with pytest.raises(GenerationFailure):
        se.make_episode(tiny, seed=0)  # never 3 edges apart


# ------------------------------------------------------------- file formats


def test_episode_round_trip_byte_identical(tmp_path, env):
    ep = se.make_episode(env, seed=11)
    p1 = tmp_path / "ep1.json"
    p2 = tmp_path / "ep2.json"
    write_json(p1, se.episode_to_dict(ep))
    loaded = se.episode_from_dict(read_json(p1))
    assert loaded == ep
    write_json(p2, se.episode_to_dict(loaded))
    assert p1.read_bytes() == p2.read_bytes()


def test_episode_schema_errors(tmp_path, env):
    ep = se.make_episode(env, seed=11)
    good = se.episode_to_dict(ep)
    bad = dict(good)
    bad["loc_mask"] = bad["loc_mask"][:-1]
    with pytest.raises(SchemaError):
        se.episode_from_dict(bad)
    bad = dict(good)
    bad["tokens"] = [se.VOCAB_SIZE + 5] + list(good["tokens"])[1:]
    with pytest.raises(SchemaError):
        se.episode_from_dict(bad)
    bad = dict(good)
    bad["obj_mask"] = list(good["loc_mask"])
    with pytest.raises(SchemaError):
        se.episode_from_dict(bad)
    bad = dict(good)
    bad["start"] = good["gt_path"][-1] + 1000
    with pytest.raises(SchemaError):
        se.episode_from_dict(bad)
    with pytest.raises(SchemaError):
        se.episode_from_dict({"start": 0})


def test_vocab_export(tmp_path):
    p = tmp_path / "vocab.json"
    se.save_vocab(p)
    rows = json.loads(p.read_text())
    assert rows == se.vocab_table()
    assert {r["class"] for r in rows} == {"room", "object", "other"}
