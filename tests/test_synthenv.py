"""Generator determinism, observation semantics, and instruction invariants."""

import dataclasses
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oikg import synthenv as se
from oikg.artifacts import read_json, write_json
from oikg.errors import GenerationFailure, InvalidArgument, SchemaError
from oikg.geometry import TWO_PI, angular_distance
from oikg.navgraph import NavNode, build_graph, graph_to_dict, path_length
from oikg.rng import substream


FLAT_12 = se.ViewGrid(n_headings=12, elevations=(0.0,))


def canonical(graph) -> str:
    return json.dumps(graph_to_dict(graph), sort_keys=True)


def view_row(graph, seed, width, nbr=None):
    """What a view shows, drawn here from the latent streams: neighbour
    ``nbr``'s latent then its room one-hot, or (None) the background
    latent then zeros."""
    free = width - se.ROOM_COUNT
    tag = "background" if nbr is None else nbr
    onehot = np.zeros(se.ROOM_COUNT)
    if nbr is not None:
        onehot[graph.nodes[nbr].room] = 1.0
    return np.concatenate([substream(seed, "latent", tag).standard_normal(free), onehot])


@pytest.fixture
def env():
    return se.generate_environment(
        se.EnvParams(node_count=25, connection_radius=3.5, extent=10.0, seed=7))


@pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 64 + 7])
def test_substream_rejects_a_root_seed_outside_64_bits(seed):
    """A root seed is never folded into [0, 2**64), where it would share
    the stream of another seed."""
    with pytest.raises(InvalidArgument, match="outside"):
        substream(seed, "latent", 0)
    ends = [substream(s, "latent", 0).standard_normal(4) for s in (0, 2 ** 64 - 1)]
    assert not np.array_equal(*ends)


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
    for bad in (-1, se.VOCAB_SIZE):   # no wrap-around into the table
        with pytest.raises(InvalidArgument):
            se.token_class(bad)
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


WIDE_EXTENT = 10.0 * math.sqrt(100 / 30)   # the 30-node density at 100 nodes


class AttemptSpy:
    """Stands in for ``synthenv.substream``, counting the layout attempts."""

    def __init__(self, real=substream):
        self.real, self.attempts = real, 0

    def __call__(self, seed, *tags):
        self.attempts += tags[0] == "env"
        return self.real(seed, *tags)


@pytest.mark.parametrize("params,attempts", [
    ((25, 3.5, 10.0, 7), 1),
    ((14, 4.0, 11.0, 11), 4),            # overfit_tiny's world
    ((30, 3.5, 10.0, 0), 1),             # a train_full world
    ((100, 3.5, WIDE_EXTENT, 1), 3),     # an eval_wide world, two retries
], ids=["seed7-25", "overfit_tiny", "train_full", "eval_wide_retry"])
def test_environment_connected_and_geometric(monkeypatch, params, attempts):
    n, radius, extent, seed = params
    spy = AttemptSpy()
    monkeypatch.setattr(se, "substream", spy)
    env = se.generate_environment(se.EnvParams(
        node_count=n, connection_radius=radius, extent=extent, seed=seed))
    assert spy.attempts == attempts
    assert union_find_connected(env)
    ids = env.node_ids()
    assert ids == list(range(n))
    for i in ids:
        for j in ids:
            if i >= j:
                continue
            d = float(np.linalg.norm(np.subtract(env.nodes[i].pos, env.nodes[j].pos)))
            assert env.has_edge(i, j) == (d <= radius)
    for i in ids:
        node = env.nodes[i]
        assert 0 <= node.room < se.ROOM_COUNT
        assert 1 <= len(node.objects) <= 3
        assert all(0 <= o < se.OBJECT_COUNT for o in node.objects)
        assert 0.0 <= node.pos[0] <= extent and 0.0 <= node.pos[1] <= extent
        assert 0.0 <= node.pos[2] <= 3.0


def test_edge_kept_at_its_exact_distance_and_dropped_just_below():
    # Positions depend only on the seed and the attempt.  With the radius at
    # the largest pair distance d the first layout is complete; one float
    # below d it loses that one edge and stays connected, so both radii
    # build the same layout.  The pair chosen is one whose exact distance
    # squares below its numpy sum of squares: a screen against radius**2
    # with no margin, or a strict one, would drop it at radius d.
    for seed in range(100):
        g = se.generate_environment(se.EnvParams(
            node_count=6, connection_radius=1e6, extent=10.0, seed=seed))
        diff = {(i, j): np.subtract(g.nodes[i].pos, g.nodes[j].pos)
                for i in range(6) for j in range(i + 1, 6)}
        dist = {ij: float(np.linalg.norm(v)) for ij, v in diff.items()}
        far = max(dist, key=dist.get)
        d = dist[far]
        if d * d < np.square(diff[far]).sum():
            break
    else:
        pytest.fail("no layout whose farthest pair squares below its sum of squares")

    def layout(radius):
        return se.generate_environment(se.EnvParams(
            node_count=6, connection_radius=radius, extent=10.0, seed=seed))

    at, below = layout(d), layout(math.nextafter(d, 0.0))
    assert [at.nodes[i].pos for i in range(6)] == [g.nodes[i].pos for i in range(6)]
    assert [below.nodes[i].pos for i in range(6)] == [g.nodes[i].pos for i in range(6)]
    assert len(at.poses) == 6 * 5 and at.has_edge(*far)
    assert len(below.poses) == 6 * 5 - 2 and not below.has_edge(*far)


def test_coincident_nodes_force_a_retry(monkeypatch):
    # Attempt 0's stream is made to draw node 1 onto node 0; the layout is
    # otherwise connected, so only the coincident-node check rejects it,
    # and generation returns the world attempt 1 would build first.
    p = se.EnvParams(node_count=14, connection_radius=4.0, extent=11.0, seed=0)

    class Coincident:
        def __init__(self, rng):
            self.rng, self.draws = rng, 0

        def uniform(self, *args, **kwargs):
            out = self.rng.uniform(*args, **kwargs)
            if self.draws < 3:   # the x, y and z columns of the layout
                out[1] = out[0]
            self.draws += 1
            return out

        def __getattr__(self, name):
            return getattr(self.rng, name)

    def degenerate_first(seed, *tags):
        rng = substream(seed, *tags)
        return Coincident(rng) if tags == ("env", 0) else rng

    def skip_first(seed, *tags):
        if tags[0] == "env":
            tags = ("env", tags[1] + 1)
        return substream(seed, *tags)

    layout = Coincident(substream(p.seed, "env", 0))
    pos = np.column_stack([layout.uniform(0.0, p.extent, size=14),
                           layout.uniform(0.0, p.extent, size=14),
                           layout.uniform(0.0, 3.0, size=14)])
    assert (pos[0] == pos[1]).all()
    near = np.linalg.norm(pos[:, None] - pos[None], axis=2) <= p.connection_radius
    seen, stack = {0}, [0]
    while stack:
        for v in np.flatnonzero(near[stack.pop()]).tolist():
            if v not in seen:
                seen.add(v)
                stack.append(v)
    assert len(seen) == 14

    spy = AttemptSpy(degenerate_first)
    monkeypatch.setattr(se, "substream", spy)
    retried = se.generate_environment(p)
    assert spy.attempts == 2
    monkeypatch.setattr(se, "substream", skip_first)
    assert canonical(retried) == canonical(se.generate_environment(p))


def test_generation_norms_only_the_pairs_the_screen_keeps(monkeypatch):
    # A one-attempt 100-node world: one exact norm per kept pair, which
    # here is one per undirected edge, and one for the room assignment;
    # a norm per node pair would make 4,950.
    calls = []
    real = np.linalg.norm

    def counting(*args, **kwargs):
        calls.append(kwargs.get("axis"))
        return real(*args, **kwargs)

    spy = AttemptSpy()
    monkeypatch.setattr(se, "substream", spy)
    monkeypatch.setattr(np.linalg, "norm", counting)
    g = se.generate_environment(se.EnvParams(
        node_count=100, connection_radius=3.5, extent=WIDE_EXTENT, seed=0))
    assert spy.attempts == 1
    assert len(calls) == len(g.poses) // 2 + 1 < 100 * 99 // 2
    assert calls.count(None) == len(g.poses) // 2


def test_environment_deterministic():
    p = se.EnvParams(node_count=30, connection_radius=3.0, extent=10.0, seed=7)
    assert canonical(se.generate_environment(p)) == canonical(se.generate_environment(p))
    p2 = se.EnvParams(node_count=30, connection_radius=3.0, extent=10.0, seed=8)
    assert canonical(se.generate_environment(p)) != canonical(se.generate_environment(p2))


def test_environment_two_nodes_huge_radius_complete():
    g = se.generate_environment(
        se.EnvParams(node_count=2, connection_radius=1e6, extent=5.0, seed=1))
    assert g.has_edge(0, 1) and g.has_edge(1, 0)
    # a radius whose square overflows screens against inf
    g = se.generate_environment(
        se.EnvParams(node_count=2, connection_radius=1e300, extent=5.0, seed=1))
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


@pytest.mark.parametrize("room", [-1, se.ROOM_COUNT, 99])
def test_latents_reject_a_room_outside_the_one_hot(room):
    """A room indexes the panorama's room one-hot, so one outside it is
    rejected before any render could misplace it (-1) or fail on it."""
    nodes = [NavNode(0, (0.0, 0.0, 0.0), 2, (1,)), NavNode(7, (1.0, 0.0, 0.0), room, (2,))]
    graph = build_graph(nodes, [(0, 7), (7, 0)])
    with pytest.raises(InvalidArgument, match=f"node 7: room {room} "):
        se.make_latents(graph, feature_dim=12, seed=0)


def test_observation_zero_noise_exact_views(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    obs = se.render_observation(se.EnvBundle(cross_graph, lat, 0.0), 0, FLAT_12)
    assert obs.shape == (12, 12)
    background = view_row(cross_graph, 5, 12)
    np.testing.assert_allclose(obs[0], view_row(cross_graph, 5, 12, 1), atol=0)
    np.testing.assert_allclose(obs[3], view_row(cross_graph, 5, 12, 2), atol=0)  # pi/2
    for k in range(12):
        if k not in (0, 3):
            np.testing.assert_allclose(obs[k], background, atol=0)


def test_observation_elevation_rows_share_column(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    obs = se.render_observation(se.EnvBundle(cross_graph, lat, 0.0), 0, se.ViewGrid())
    vis = obs.reshape(12, 3, 12)  # heading-major columns
    for h in range(12):
        np.testing.assert_array_equal(vis[h, 0], vis[h, 1])
        np.testing.assert_array_equal(vis[h, 1], vis[h, 2])


def test_observation_noise_deterministic_and_scaled(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    grid = se.ViewGrid()
    noisy, flat = se.EnvBundle(cross_graph, lat, 0.1), se.EnvBundle(cross_graph, lat, 0.0)
    a = se.render_observation(noisy, 0, grid)
    b = se.render_observation(se.EnvBundle(cross_graph, lat, 0.1), 0, grid)
    np.testing.assert_array_equal(a, b)
    clean = se.render_observation(flat, 0, grid)
    noise = a - clean
    assert 0.03 < float(np.std(noise)) < 0.3
    # the same panorama shape regardless of noise
    assert a.shape == clean.shape == (grid.k, 12)
    other = se.render_observation(noisy, 1, grid)
    assert not np.array_equal(a - clean,
                              other - se.render_observation(flat, 1, grid))


def test_observation_nearest_in_bin_rule(env):
    lat = se.make_latents(env, feature_dim=16, seed=3)
    bundle = se.EnvBundle(env, lat, 0.0)
    half_bin = math.pi / 12
    for node in env.node_ids()[:6]:
        obs = se.render_observation(bundle, node, FLAT_12)
        headings, _ = FLAT_12.angles()
        edges = [(nbr, env.edge_pose(node, nbr).heading) for nbr in env.neighbors(node)]
        background = view_row(env, 3, 16)
        for k in range(12):
            scored = sorted((angular_distance(a, headings[k]), nbr)
                            for nbr, a in edges)
            if scored and scored[0][0] <= half_bin + 1e-12:
                expect = view_row(env, 3, 16, scored[0][1])
            else:
                expect = background
            np.testing.assert_allclose(obs[k], expect, atol=0)


def oracle_render_visual(graph, node, latents, grid):
    """Noise-free panorama by a per-view scan over every edge, its rows
    drawn from the latent streams of the table's seed."""
    width = latents.rows.shape[1]
    headings, _ = grid.angles()
    half_bin = math.pi / grid.n_headings
    edges = [(nbr, graph.edge_pose(node, nbr).heading) for nbr in graph.neighbors(node)]
    rows = []
    for k in range(grid.k):
        scored = sorted((angular_distance(a, headings[k]), nbr) for nbr, a in edges)
        nbr = scored[0][1] if scored and scored[0][0] <= half_bin + 1e-12 else None
        rows.append(view_row(graph, latents.seed, width, nbr))
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
    obs = se.render_observation(se.EnvBundle(graph, lat, 0.0), 0, grid)
    np.testing.assert_array_equal(obs, oracle_render_visual(graph, 0, lat, grid))


def noisy_oracle(graph, node, latents, sigma, grid):
    """The scan oracle's panorama plus its own draw of the node's noise."""
    visual = oracle_render_visual(graph, node, latents, grid)
    if sigma == 0:
        return visual
    noise = substream(latents.seed, "obs-noise", node, grid.k).standard_normal(
        (grid.k, latents.rows.shape[1]))
    return visual + sigma * noise


# pairs of equal k whose elevations differ, which share a noise term
EQUAL_K_GRIDS = (se.ViewGrid(), se.ViewGrid(12, (-0.2, 0.0, 0.2)),
                 FLAT_12, se.ViewGrid(4, (-0.5, 0.0, 0.5)))


@pytest.mark.parametrize("renumbered", [False, True])
@pytest.mark.parametrize("sigma", [0.0, 0.1])
def test_memo_renders_equal_a_fresh_bundles(env, sigma, renumbered):
    """One bundle renders every node twice on each of four grids, two pairs
    of equal k but different elevations: each read of its memo equals a
    fresh bundle's render, and the scan oracle plus the node's own noise.
    The renumbered world has non-contiguous ids, inserted in reverse
    order, so a memo row is not its node's id."""
    if renumbered:
        env = build_graph([NavNode(3 * n.id + 1, n.pos, n.room, n.objects)
                           for n in reversed(env.nodes.values())],
                          [(3 * u + 1, 3 * v + 1) for u, v in env.poses])
    lat = se.make_latents(env, feature_dim=16, seed=3)
    memo = se.EnvBundle(env, lat, sigma)
    for grid in EQUAL_K_GRIDS:
        for node in env.node_ids():
            fresh = se.render_observation(se.EnvBundle(env, lat, sigma), node, grid)
            np.testing.assert_array_equal(fresh, noisy_oracle(env, node, lat, sigma, grid))
            for _ in range(2):
                np.testing.assert_array_equal(se.render_observation(memo, node, grid), fresh)


def test_memo_arrays_are_read_only(cross_graph):
    """The latent rows and the memo's noise cannot be written; a rendered
    panorama is the caller's own array, and writing to it leaves both as
    they were."""
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    bundle, grid = se.EnvBundle(cross_graph, lat, 0.1), se.ViewGrid()
    obs = se.render_observation(bundle, 0, grid)
    obs[:] = 7.0
    for memo in (lat.rows, se.noise_term(bundle, 0, grid.k)):
        with pytest.raises(ValueError, match="read-only"):
            memo[0, 0] = 0.0
    np.testing.assert_array_equal(se.render_observation(bundle, 0, grid),
                                  noisy_oracle(cross_graph, 0, lat, 0.1, grid))


def test_pickled_bundle_arrives_with_an_empty_memo(cross_graph):
    """A pickled bundle, as a ``--jobs`` worker receives it, leaves its memo
    behind, keeps its latent rows read-only and renders the same arrays as
    the original, whose memo was filled."""
    lat = se.make_latents(cross_graph, feature_dim=12, seed=5)
    bundle, grid = se.EnvBundle(cross_graph, lat, 0.1), se.ViewGrid()
    want = [se.render_observation(bundle, n, grid) for n in cross_graph.node_ids()]
    assert len(bundle._draws) == len(want)   # one noise term per node
    copy = pickle.loads(pickle.dumps(bundle))
    assert copy._draws == {} and copy.sigma == bundle.sigma
    assert not copy.latents.rows.flags.writeable
    for n, w in zip(cross_graph.node_ids(), want, strict=True):
        np.testing.assert_array_equal(se.render_observation(copy, n, grid), w)


def test_bundles_compare_and_hash_by_identity(cross_graph):
    """Two bundles over one graph with equal latent tables are distinct
    keys: comparing them raises nothing (an array field compared by value
    would), and each hashes, so a map can key a world by its bundle."""
    a, b = (se.EnvBundle(cross_graph, se.make_latents(cross_graph, feature_dim=12, seed=5))
            for _ in range(2))
    assert a != b and a == a and a.latents != b.latents and len({a, b, a}) == 2


def test_observation_errors(cross_graph):
    lat = se.make_latents(cross_graph, feature_dim=12, seed=0)
    with pytest.raises(InvalidArgument):
        se.render_observation(se.EnvBundle(cross_graph, lat, 0.1), 99, se.ViewGrid())
    for sigma in (-1.0, math.nan, math.inf):
        with pytest.raises(InvalidArgument, match="sigma"):
            se.EnvBundle(cross_graph, lat, sigma)
    with pytest.raises(InvalidArgument):
        se.make_latents(cross_graph, feature_dim=8, seed=0)


# ------------------------------------------------------------ instructions


def cue_tokens(tokens, cls: str) -> list:
    return [t for t in tokens if se.token_class(t) == cls]


def test_instruction_two_room_path(cross_graph):
    tokens = se.generate_instruction(cross_graph, [0, 1], seed=0)
    assert tokens[0] == se.BOS and tokens[-1] == se.EOS
    # rooms 2 then 3, no dedup
    assert cue_tokens(tokens, "room") == [se.word_token("bedroom"),
                                          se.word_token("bathroom")]
    assert len(cue_tokens(tokens, "object")) == 1


def test_instruction_dedups_consecutive_rooms():
    nodes = [NavNode(0, (0.0, 0.0, 0.0), 1, (0,)),
             NavNode(1, (1.0, 0.0, 0.0), 1, (0,)),
             NavNode(2, (2.0, 0.0, 0.0), 5, (4,))]
    g = build_graph(nodes, [(0, 1), (1, 0), (1, 2), (2, 1)])
    tokens = se.generate_instruction(g, [0, 1, 2], seed=0)
    # rooms 1,1,5 -> two mentions
    assert cue_tokens(tokens, "room") == [se.ROOM_BASE + 1, se.ROOM_BASE + 5]


def test_instruction_degenerate_path_keeps_both_cue_types(cross_graph):
    tokens = se.generate_instruction(cross_graph, [2], seed=0)
    assert cue_tokens(tokens, "room")
    assert tokens[-2:] == (se.word_token(se.OBJECT_WORDS[3]), se.EOS)


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
    assert good.keys() == {"gt_path", "tokens"}
    bad = dict(good)
    bad["tokens"] = [se.VOCAB_SIZE + 5] + list(good["tokens"])[1:]
    with pytest.raises(SchemaError):
        se.episode_from_dict(bad)
    bad = dict(good, tokens=[])
    with pytest.raises(SchemaError, match="tokens must be non-empty"):
        se.episode_from_dict(bad)
    # a key of the older format: the first unknown key, sorted, is named
    bad = dict(good, text="walk", start=good["gt_path"][0], loc_mask=[])
    with pytest.raises(SchemaError, match="unknown key 'loc_mask'.*gen"):
        se.episode_from_dict(bad)
    bad = dict(good)
    bad["gt_path"] = good["gt_path"] + [good["gt_path"][-2]]   # back along the last hop
    with pytest.raises(SchemaError, match="revisits"):
        se.episode_from_dict(bad)
    with pytest.raises(SchemaError):
        se.episode_from_dict({"gt_path": [0]})


def test_vocab_export(tmp_path):
    p = tmp_path / "vocab.json"
    se.save_vocab(p)
    rows = json.loads(p.read_text())
    assert rows == se.vocab_table()
    assert {r["class"] for r in rows} == {"room", "object", "other"}
