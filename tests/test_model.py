"""Pipeline-stage contracts: shapes, bypasses, equivariance, gradients."""

import collections
import gc
import itertools
import math
import pickle
import weakref
from dataclasses import replace

import numpy as np
import pytest

from tape_ops import (cue_masks, matmul, mlp, mul, oracle_add_row,
                      oracle_decouple_observation, oracle_extract_key_detail,
                      oracle_mean, oracle_residual_stack, reshape, tsum)
from test_geometry import nearest_view
from test_metrics import graph_from
from test_nn import record_calls, same_bits

from oikg import model, nn, training
from oikg import synthenv as se
from oikg.errors import InvalidArgument, InvalidState, NumericFailure, ShapeError
from oikg.geometry import relative_pose, trig_embed
from oikg.navgraph import STOP, NavNode, PathGraph, build_graph, graph_from_dict

TINY = model.TINY_CONFIG


def tiny_graph():
    nodes = [NavNode(0, (0.0, 0.0, 0.0), 0, (0,)),
             NavNode(1, (2.0, 0.0, 0.0), 1, (1,)),
             NavNode(2, (0.0, 2.0, 0.0), 2, (2,)),
             NavNode(3, (2.0, 2.0, 0.0), 3, (3,))]
    pairs = [(0, 1), (0, 2), (1, 3), (2, 3)]
    return build_graph(nodes, [e for (u, v) in pairs for e in ((u, v), (v, u))])


@pytest.fixture
def setup():
    graph = tiny_graph()
    latents = se.make_latents(graph, feature_dim=TINY.vis_dim, seed=3)
    tokens = se.generate_instruction(graph, [0, 1, 3], seed=0)
    params = model.build_params(TINY, seed=0)
    return graph, latents, tokens, params


def env_of(graph, latents, sigma=0.1):
    """The world ``forward_step`` renders its panoramas from."""
    return se.EnvBundle(graph, latents, sigma)


def random_obs(rng, cfg):
    """A random visual array in the shape of a panorama on ``cfg``'s grid."""
    return rng.normal(size=(cfg.view_grid.k, cfg.vis_dim))


def record_param_reads(monkeypatch) -> list:
    """Names read from any ParamStore from now on, seen from outside the
    program by wrapping ``ParamStore.__getitem__``."""
    reads = []
    getitem = nn.ParamStore.__getitem__

    def spy(store, name):
        reads.append(name)
        return getitem(store, name)

    monkeypatch.setattr(nn.ParamStore, "__getitem__", spy)
    return reads


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(InvalidArgument):
        model.ModelConfig(dim=0)
    with pytest.raises(InvalidArgument):
        model.ModelConfig(dim=33)  # 33 % model.HEADS != 0
    with pytest.raises(InvalidArgument):
        model.ModelConfig(layers=0)
    with pytest.raises(InvalidArgument):
        model.ModelConfig(view_grid=se.ViewGrid(4, ()))
    assert model.ModelConfig().view_grid == se.ViewGrid()
    assert model.ModelConfig().view_grid.k == 36
    assert TINY.view_grid.k == 4


def flag_label(cfg: model.ModelConfig) -> str:
    """Four-letter stage mask, dash for a disabled stage (e.g. 'MG--')."""
    return "".join(ch if on else "-" for ch, on in (
        ("M", cfg.decouple), ("G", cfg.geo_embed),
        ("L", cfg.loc_detail), ("O", cfg.obj_detail)))


def test_flag_labels():
    assert flag_label(model.ModelConfig()) == "MGLO"
    off = model.ModelConfig(decouple=False, geo_embed=False,
                            loc_detail=False, obj_detail=False)
    assert flag_label(off) == "----"
    assert flag_label(model.ModelConfig(geo_embed=False, loc_detail=False,
                                        obj_detail=False)) == "M---"


# ------------------------------------------------------------- observation


def test_decouple_shapes_and_mismatch():
    cfg = model.ModelConfig()
    params = model.build_params(cfg, seed=0)
    rng = np.random.default_rng(0)
    out = model.decouple_observation(random_obs(rng, cfg), params, cfg)
    assert out.shape == (36, 32)
    with pytest.raises(ShapeError):
        model.decouple_observation(random_obs(rng, TINY), params, cfg)


def test_decouple_zero_visual_weights_isolate_angles(setup):
    _, _, _, params = setup
    params["obs.vis.w"].data[:] = 0.0
    rng = np.random.default_rng(1)
    a = random_obs(rng, TINY)
    b = rng.normal(size=a.shape)
    out_a = model.decouple_observation(a, params, TINY)
    out_b = model.decouple_observation(b, params, TINY)
    np.testing.assert_array_equal(out_a.data, out_b.data)


def test_angular_block_built_once_per_grid(monkeypatch):
    """The trig embedding of the views is computed once per grid, read-only,
    and equal to the per-view stack it replaced."""
    cfg = replace(TINY, view_grid=se.ViewGrid(5, (0.25, -0.75)))
    params = model.build_params(cfg, seed=0)
    rng = np.random.default_rng(4)
    calls = record_calls(monkeypatch, model, "trig_embed")
    obs = random_obs(rng, cfg)
    first = model.decouple_observation(obs, params, cfg)
    assert len(calls) == cfg.view_grid.k
    again = model.decouple_observation(random_obs(rng, cfg), params, cfg)
    assert len(calls) == cfg.view_grid.k and again.shape == first.shape
    block = model._grid_views(cfg.view_grid)
    assert not block.flags.writeable
    want = np.stack([np.asarray(trig_embed(h, e))
                     for h, e in zip(*cfg.view_grid.angles())])
    np.testing.assert_array_equal(block, want)
    # a grid stores a zero elevation as +0.0, so grids equal by value have
    # bit-equal angles and share one block
    grid = se.ViewGrid(3, (-0.0,))
    assert grid == se.ViewGrid(3, (0.0,))
    assert math.copysign(1.0, grid.elevations[0]) == 1.0
    assert model._grid_views(grid) is model._grid_views(se.ViewGrid(3, (0.0,)))
    assert math.copysign(1.0, model._grid_views(grid)[0, 2]) == 1.0


PRESETS = {"tiny": TINY, "full": model.ModelConfig()}


def check_decouple_against_oracle(cfg, frozen=()):
    """The panorama node against the ``linear``/``concat``/MLP chain: the
    rows, which gradients exist, and their bits match.  The rows feed two
    consumers, as a panorama shared by two steps does, and one ``obs.*``
    weight is also read elsewhere, its term entering the loss first.  The
    parameters named in ``frozen`` are untracked."""
    rng = np.random.default_rng(26)
    params = model.build_params(cfg, seed=1)
    for name in frozen:
        params[name].requires_grad = False
    obs = random_obs(rng, cfg)
    w_other = nn.Tensor(rng.normal(size=(cfg.dim, 3)), requires_grad=True)
    c = [nn.Tensor(rng.normal(size=(cfg.view_grid.k, n))) for n in (cfg.dim, 3)]
    shared = params["obs.ang.w" if cfg.decouple else "obs.coupled.w"]
    c_shared = nn.Tensor(rng.normal(size=shared.shape))
    leaves = [w_other] + [params[name] for name in params.names()]
    runs = []
    for op in (model.decouple_observation, oracle_decouple_observation):
        for t in leaves:
            t.grad = None
        f_o = op(obs, params, cfg)
        loss = nn.add(tsum(mul(shared, c_shared)),
                      nn.add(tsum(mul(f_o, c[0])), tsum(mul(nn.linear(f_o, w_other), c[1]))))
        nn.backward(loss)
        runs.append((f_o, [None if t.grad is None else t.grad.copy() for t in leaves]))
    (f_o, grads), (ref, ref_grads) = runs
    assert same_bits(f_o.data, ref.data) and f_o.requires_grad == ref.requires_grad
    assert len([p for p in f_o._parents if p.requires_grad]) == (
        (8 if cfg.decouple else 2) - len(frozen))
    for i, (a, b) in enumerate(zip(grads, ref_grads)):
        assert (a is None) == (b is None) and (a is None or same_bits(a, b)), f"leaf {i}"


@pytest.mark.parametrize("decouple", [True, False])
@pytest.mark.parametrize("preset", ["tiny", "full"])
def test_decouple_observation_matches_oracle_bitwise(preset, decouple):
    check_decouple_against_oracle(replace(PRESETS[preset], decouple=decouple))


def frozen_subsets(names, with_all):
    """(id, names) for each subset of ``names`` to leave untracked: one
    name, two, all but one, and, with ``with_all``, all of them."""
    short = [n.split(".", 1)[1] for n in names]
    subsets = [(s, (n,)) for s, n in zip(short, names)]
    subsets += [(f"{sa}+{sb}", (a, b)) for (sa, a), (sb, b)
                in itertools.combinations(zip(short, names), 2)]
    subsets += [(f"all-but-{s}", tuple(m for m in names if m != n))
                for s, n in zip(short, names)]
    return subsets + [("all", tuple(names))] * with_all


OBS_FROZEN = frozen_subsets(
    [f"obs.{n}" for n in ("ang.w", "ang.b", "vis.w", "vis.b",
                          "fuse.w1", "fuse.b1", "fuse.w2", "fuse.b2")], with_all=True)
KD_FROZEN = frozen_subsets(
    [f"kd.{n}" for n in ("loc.w", "loc.b", "obj.w", "obj.b", "fuse.w", "fuse.b")]
    + ["enh.wv"], with_all=False)


@pytest.mark.parametrize("frozen", [f for _, f in OBS_FROZEN],
                         ids=[i for i, _ in OBS_FROZEN])
@pytest.mark.parametrize("preset", ["tiny", "full"])
def test_decouple_observation_frozen_weights_match_oracle(preset, frozen):
    """A weight left untracked gets no gradient from the panorama node, as
    from the chain, and every other value and gradient keeps its bits."""
    check_decouple_against_oracle(PRESETS[preset], frozen)


def test_coupled_baseline_differs_from_decoupled():
    coupled_cfg = model.ModelConfig(
        **{**TINY.__dict__, "decouple": False})
    params_on = model.build_params(TINY, seed=0)
    params_off = model.build_params(coupled_cfg, seed=0)
    rng = np.random.default_rng(2)
    obs = random_obs(rng, TINY)
    out_on = model.decouple_observation(obs, params_on, TINY)
    out_off = model.decouple_observation(obs, params_off, coupled_cfg)
    assert out_on.shape == out_off.shape
    assert not np.allclose(out_on.data, out_off.data)


def memo_slot(owner, name):
    """The (key, value) of ``owner``'s slot ``name`` in the model's memo map
    (``model._MEMOS``), or None."""
    return model._MEMOS.get(owner, {}).get(name)


def frozen_memo(params):
    """The untaped memo of ``params`` (its slot "frozen", ``model._frozen``):
    {"panorama": ..., "ogi": ..., "rows": ...}, or None."""
    slot = memo_slot(params, "frozen")
    return None if slot is None else slot[1]


# The untaped memo: the store's slot "frozen", keyed by the configuration
# and the bytes of every parameter.  Its panorama entries hold one
# read-only embedding per distinct visual.


def memo_world_data(cfg):
    """Six episodes in a fresh noisy 14-node world whose panoramas fit
    ``cfg``; every memo of the world is empty."""
    g = se.generate_environment(se.EnvParams(node_count=14, connection_radius=4.0,
                                             extent=11.0, feature_dim=cfg.vis_dim, seed=5))
    env = se.EnvBundle(g, se.make_latents(g, cfg.vis_dim, seed=5), sigma=0.1)
    return [(env, se.make_episode(g, seed=s)) for s in range(6)]


def untaped_scores(data, params, cfg) -> list:
    """Every step's scores of an untaped greedy walk over each episode."""
    with nn.no_tape():
        return [s.logits for env, ep in data
                for s in training.rollout(env, ep, 8, training.greedy_policy,
                                          params, cfg).steps]


def same_scores(got, want) -> bool:
    return len(got) == len(want) and all(map(same_bits, got, want))


def store_copy(params, cfg):
    """A fresh store holding ``params``' values: its memo slot is empty."""
    fresh = model.build_params(cfg, seed=99)
    fresh.load_state({name: params[name].data.copy() for name in params.names()})
    return fresh


@pytest.mark.parametrize("change", ["obs.ang.b", "obs.vis.w", "obs.fuse.w1", "obs.fuse.b2",
                                    "obs.coupled.w", "obs.coupled.b", "graph.edge.w",
                                    "ogi.l0.attn.wq", "sel.mlp.w1", "load_state"])
def test_untaped_walk_after_a_parameter_change_equals_fresh_store(change):
    """After one parameter is edited in place, one no memo entry reads
    (``sel.mlp.w1``) included, or another state is loaded, an untaped walk
    equals the same walk on a fresh store and the taped walk: the memo's
    key holds the bytes of every parameter, so the next walk drops the old
    slot, panorama, candidate-row and OGI entries alike."""
    cfg = replace(TINY, decouple=not change.startswith("obs.coupled"))
    data = memo_world_data(cfg)
    params = model.build_params(cfg, seed=0)
    before = untaped_scores(data, params, cfg)
    old_key, old_memo = memo_slot(params, "frozen")
    assert len(old_memo["panorama"]) > 1 and len(old_memo["ogi"]) > 1
    assert data[0][0].graph in old_memo["rows"]
    if change == "load_state":
        other = model.build_params(cfg, seed=1)
        params.load_state({n: other[n].data for n in other.names()})
    else:
        params[change].data.flat[1] += 0.25
    got = untaped_scores(data, params, cfg)
    key, memo = memo_slot(params, "frozen")
    assert key != old_key and memo is not old_memo
    assert not same_scores(got, before)
    assert same_scores(got, untaped_scores(memo_world_data(cfg), store_copy(params, cfg), cfg))
    taped = [s.logits for env, ep in data for s in training.rollout(
        env, ep, 8, training.greedy_policy, params, cfg).steps]
    assert same_scores(got, taped)


@pytest.mark.parametrize("decouple", [True, False], ids=["decoupled", "coupled"])
def test_embedding_memo_keys_grids_that_share_k_apart(decouple):
    """Two grids with k = 4 views give panoramas of one shape but different
    angular blocks; the memo keys the configuration, so an untaped call
    under each, by turns on one store and one visual, gives that
    configuration's taped rows."""
    cfgs = [replace(TINY, decouple=decouple, view_grid=grid)
            for grid in (se.ViewGrid(4, (0.0,)), se.ViewGrid(2, (0.0, 0.5)))]
    assert cfgs[0].view_grid.k == cfgs[1].view_grid.k == 4
    params = model.build_params(cfgs[0], seed=2)
    obs = random_obs(np.random.default_rng(8), cfgs[0])
    taped = [model.decouple_observation(obs, params, cfg).data for cfg in cfgs]
    assert not np.array_equal(*taped)
    for cfg, want in zip(cfgs + cfgs, taped + taped):
        with nn.no_tape():
            got = model.decouple_observation(obs, params, cfg)
        assert same_bits(got.data, want)
        assert memo_slot(params, "frozen")[0][0] == cfg


def test_taped_decouple_neither_reads_nor_fills_the_memo():
    """A taped call leaves the memo empty; with the memo's entry for the
    same visual and key set to NaN rows, a taped call still gives the
    oracle's rows and gradients and writes nothing, while an untaped call
    reads the NaN entry."""
    params = model.build_params(TINY, seed=3)
    obs = random_obs(np.random.default_rng(9), TINY)
    want = oracle_decouple_observation(obs, params, TINY)
    taped = model.decouple_observation(obs, params, TINY)
    assert memo_slot(params, "frozen") is None and taped.requires_grad
    with nn.no_tape():
        model.decouple_observation(obs, params, TINY)
    key, memo = memo_slot(params, "frozen")
    entries = memo["panorama"]
    (seen,) = entries
    entries[seen] = np.full(want.shape, np.nan)
    grads = []
    for run in (model.decouple_observation(obs, params, TINY), want):
        assert same_bits(run.data, want.data)
        params.zero_grad()
        nn.backward(tsum(run))
        grads.append({n: params[n].grad.copy() for n in params.names()
                      if params[n].grad is not None})
    got, ref = grads
    assert sorted(got) == sorted(ref) == sorted(model._OBS_NAMES[True])
    assert all(same_bits(got[n], ref[n]) for n in ref)
    assert memo_slot(params, "frozen")[0] is key and list(entries) == [seen]
    assert np.isnan(entries[seen]).all()
    with nn.no_tape():
        assert np.isnan(model.decouple_observation(obs, params, TINY).data).all()


def test_checkpoints_loaded_by_turns_into_one_store_equal_each_alone():
    """Two parameter sets loaded by turns into one store give, each time,
    the untaped scores each gives alone in a store of its own on a fresh
    world: each load changes the key, so the slot of the other set drops.
    (Sets in two stores by turns: ``test_training``'s
    ``test_alternating_checkpoints_on_one_world_equal_each_alone``.)"""
    a, b = (model.build_params(TINY, seed=s) for s in (0, 1))
    alone = [untaped_scores(memo_world_data(TINY), p, TINY) for p in (a, b)]
    assert not same_scores(*alone)
    data, shared = memo_world_data(TINY), model.build_params(TINY, seed=7)
    states = [{n: p[n].data.copy() for n in p.names()} for p in (a, b)]
    for state, want in zip(states * 2, alone * 2):
        shared.load_state(state)
        assert same_scores(untaped_scores(data, shared, TINY), want)


def test_embedding_memo_entries_are_read_only():
    """An untaped call returns the memo's entry itself, read-only, and a
    second call on an equal visual reads the same array."""
    params = model.build_params(TINY, seed=4)
    obs = random_obs(np.random.default_rng(10), TINY)
    with nn.no_tape():
        first = model.decouple_observation(obs, params, TINY)
        again = model.decouple_observation(obs.copy(), params, TINY)
    (entry,) = frozen_memo(params)["panorama"].values()
    assert first.data is entry and again.data is entry
    assert not entry.flags.writeable and not first.requires_grad
    with pytest.raises(ValueError):
        first.data[0, 0] = 0.0
    assert same_bits(entry, model.decouple_observation(obs, params, TINY).data)


# -------------------------------------------------------------- candidates


# The per-candidate composition build_candidates replaced, kept as its
# oracle: a positional linear, an edge linear and their sum per candidate,
# each a matmul node and an add node, then one node stacking the rows.


def oracle_stack_rows(rows):
    def backward(g):
        for i, r in enumerate(rows):
            if r.requires_grad:
                r.accumulate_grad(g[i])

    return nn.tape_node(np.stack([r.data for r in rows], axis=0), rows, backward)


def oracle_geometric_pe(candidate_heading, view_headings, params, cfg):
    if not cfg.geo_embed:
        return nn.Tensor(np.zeros(cfg.dim))
    idx, dist = nearest_view(candidate_heading, view_headings)
    off = candidate_heading - view_headings[idx]
    feats = nn.Tensor(np.array([dist, math.sin(off), math.cos(off)]))
    return nn.add(matmul(feats, params["graph.pe.w"]), params["graph.pe.b"])


def oracle_candidate_features(heading, elevation, pe, params):
    trig = nn.Tensor(np.asarray(trig_embed(heading, elevation)))
    base = nn.add(matmul(trig, params["graph.edge.w"]), params["graph.edge.b"])
    return nn.add(base, pe)


def oracle_build_candidates(pg, params, cfg):
    graph = pg.graph
    view_headings, _ = cfg.view_grid.angles()
    order = pg.frontier()
    rows = []
    for c in order:
        if graph.has_edge(pg.current, c):
            pose = graph.edge_pose(pg.current, c)
        else:
            pose = relative_pose(graph.nodes[pg.current].pos, graph.nodes[c].pos)
        pe = oracle_geometric_pe(pose.heading, view_headings, params, cfg)
        rows.append(oracle_candidate_features(pose.heading, pose.elevation, pe, params))
    stop = params["graph.stop"]
    rows.append(reshape(stop, (stop.shape[1],)))
    return oracle_stack_rows(rows), order


def star_graph():
    """Node 0 with neighbours at headings 0 (node 1), pi/2 (node 2) and
    pi/4 (node 3)."""
    return graph_from([(0, (0.0, 0.0, 0.0)), (1, (2.0, 0.0, 0.0)),
                       (2, (0.0, 2.0, 0.0)), (3, (1.0, 1.0, 0.0))],
                      [(0, 1), (0, 2), (0, 3)])


def star_rows(params, cfg):
    f_g, order = model.build_candidates(PathGraph(star_graph(), start=0), params, cfg)
    assert order == [1, 2, 3]
    return f_g.data


def scripted_pe_params(params):
    # zero edge term; read the 3-dim positional input back out through the
    # first three output dims
    for name in ("graph.edge.w", "graph.edge.b", "graph.pe.w", "graph.pe.b"):
        params[name].data[:] = 0.0
    params["graph.pe.w"].data[0, 0] = 1.0
    params["graph.pe.w"].data[1, 1] = 1.0
    params["graph.pe.w"].data[2, 2] = 1.0


def test_geometric_pe_aligned_view(setup):
    *_, params = setup
    scripted_pe_params(params)
    rows = star_rows(params, TINY)  # TINY views: 0, pi/2, pi, 3pi/2
    np.testing.assert_allclose(rows[0, :3], [0.0, 0.0, 1.0], atol=1e-12)
    np.testing.assert_allclose(rows[1, :3], [0.0, 0.0, 1.0], atol=1e-12)


def test_geometric_pe_between_views_ties_low_index(setup):
    *_, params = setup
    scripted_pe_params(params)
    rows = star_rows(params, TINY)
    np.testing.assert_allclose(
        rows[2, :3], [math.pi / 4, math.sin(math.pi / 4), math.cos(math.pi / 4)],
        atol=1e-12)


def test_geometric_pe_off_is_exact_zero(monkeypatch):
    cfg = model.ModelConfig(**{**TINY.__dict__, "geo_embed": False})
    params = model.build_params(cfg, seed=0)
    assert "graph.pe.w" not in params and "graph.pe.b" not in params
    params["graph.edge.w"].data[:] = 0.0
    params["graph.edge.b"].data[:] = 0.0
    views = record_calls(monkeypatch, model, "nearest_column")
    rows = star_rows(params, cfg)
    np.testing.assert_array_equal(rows[:-1], np.zeros((3, cfg.dim)))
    assert views == []  # the positional stage never ran


def test_candidate_features_zero_angles():
    cfg = model.ModelConfig(**{**TINY.__dict__, "geo_embed": False})
    params = model.build_params(cfg, seed=0)
    rows = star_rows(params, cfg)  # node 1 lies at heading 0, elevation 0
    expect = np.array([0.0, 1.0, 0.0, 1.0]) @ params["graph.edge.w"].data \
        + params["graph.edge.b"].data
    np.testing.assert_array_equal(rows[0], expect)


def test_candidate_features_pe_additivity(setup):
    *_, params = setup
    rng = np.random.default_rng(3)
    params["graph.pe.w"].data[:] = rng.normal(size=params["graph.pe.w"].shape)
    params["graph.pe.b"].data[:] = rng.normal(size=params["graph.pe.b"].shape)
    off_cfg = model.ModelConfig(**{**TINY.__dict__, "geo_embed": False})
    views, _ = TINY.view_grid.angles()
    pe = np.stack([oracle_geometric_pe(h, views, params, TINY).data
                   for h in (0.0, math.pi / 2, math.pi / 4)])
    with_pe = star_rows(params, TINY)
    without = star_rows(params, off_cfg)
    np.testing.assert_allclose(with_pe[:-1] - without[:-1], pe, atol=1e-12)
    np.testing.assert_array_equal(with_pe[-1], without[-1])
    # with a zeroed edge path the addition is exact to the bit
    params["graph.edge.w"].data[:] = 0.0
    params["graph.edge.b"].data[:] = 0.0
    np.testing.assert_array_equal(star_rows(params, TINY)[:-1], pe)


def two_node_graph():
    return graph_from([(0, (0.0, 0.0, 0.0)), (1, (1.0, 2.0, 0.5))], [(0, 1)])


def candidate_walk(build, graph, start, moves, params, cfg):
    """(rows per step, parameter gradients) of ``build`` along a walk, under
    a loss that sums fixed random weightings of every step's rows."""
    rng = np.random.default_rng(13)
    weights = [rng.normal(size=(len(graph.nodes) + 1, cfg.dim))
               for _ in range(len(moves) + 1)]
    params.zero_grad()
    pg = PathGraph(graph, start=start)
    rows, total = [], None
    for t in range(len(moves) + 1):
        f_g, order = build(pg, params, cfg)
        assert order == pg.frontier()
        n = f_g.shape[0]
        term = tsum(mul(f_g, nn.Tensor(weights[t][:n])))
        total = term if total is None else nn.add(total, term)
        rows.append(f_g.data)
        if t < len(moves):
            pg.advance(moves[t])
    nn.backward(total)
    return rows, {n: params[n].grad.copy() for n in params.names()
                  if params[n].grad is not None}


@pytest.mark.parametrize("geo_embed", [True, False])
@pytest.mark.parametrize("walk", ["adjacent-and-not", "empty-frontier"])
def test_build_candidates_matches_oracle_bitwise(geo_embed, walk):
    """Rows and every parameter gradient equal the per-candidate tape's to
    the bit, over a loss that sums the rows of every step of a walk."""
    cfg = model.ModelConfig(**{**TINY.__dict__, "geo_embed": geo_embed})
    graph, moves = ((tiny_graph(), [1, 3, 2]) if walk == "adjacent-and-not"
                    else (two_node_graph(), [1]))
    params = model.build_params(cfg, seed=5)
    rows, grads = candidate_walk(model.build_candidates, graph, 0, moves, params, cfg)
    want_rows, want_grads = candidate_walk(oracle_build_candidates, graph, 0, moves,
                                           params, cfg)
    shapes = [r.shape[0] for r in rows]
    if walk == "adjacent-and-not":
        assert shapes == [3, 3, 2, 1]  # frontier {2, 3} at node 1: 2 is not adjacent
    else:
        assert shapes == [2, 1]        # STOP only once every node is visited
    for got, want in zip(rows, want_rows):
        np.testing.assert_array_equal(got, want)
    assert sorted(grads) == sorted(want_grads)
    assert {"graph.edge.w", "graph.stop"} <= set(grads)
    assert ("graph.pe.w" in grads) == geo_embed
    for name, g in grads.items():
        np.testing.assert_array_equal(g, want_grads[name], err_msg=name)


@pytest.mark.parametrize("geo_embed", [True, False])
def test_empty_frontier_adds_no_candidate_gradient(geo_embed):
    """With every node visited the rows are STOP alone: the backward adds
    into ``graph.stop`` only, and the edge and positional parameters keep
    ``grad is None``, as the per-row loop left them."""
    cfg = replace(TINY, geo_embed=geo_embed)
    params = model.build_params(cfg, seed=5)
    pg = PathGraph(two_node_graph(), start=0)
    pg.advance(1)
    f_g, order = model.build_candidates(pg, params, cfg)
    assert order == [] and f_g.shape == (1, cfg.dim)
    nn.backward(tsum(mul(f_g, nn.Tensor(np.full((1, cfg.dim), 0.5)))))
    np.testing.assert_array_equal(params["graph.stop"].grad, np.full((1, cfg.dim), 0.5))
    names = [n for n in params.names() if n.startswith(("graph.edge.", "graph.pe."))]
    assert len(names) == (4 if geo_embed else 2)
    assert all(params[n].grad is None for n in names)


def test_build_candidates_matches_oracle_on_full_grid():
    """On the default 12 x 3 grid, with candidates at random headings, on
    columns and at midpoints, the bracket lookup gives the rows of the
    oracle's scan over all 36 views, bit for bit."""
    cfg = model.ModelConfig()
    step = 2 * math.pi / cfg.view_grid.n_headings
    rng = np.random.default_rng(29)
    headings = [*rng.uniform(0.0, 2 * math.pi, size=40),
                *(j * step for j in range(12)), *((j + 0.5) * step for j in range(12))]
    star = graph_from([(0, (0.0, 0.0, 0.0))] + [
        (i + 1, (math.cos(h), math.sin(h), 0.1 * (i % 3 - 1)))
        for i, h in enumerate(headings)],
        [(0, i + 1) for i in range(len(headings))])
    params = model.build_params(cfg, seed=1)
    got, order = model.build_candidates(PathGraph(star, start=0), params, cfg)
    want, want_order = oracle_build_candidates(PathGraph(star, start=0), params, cfg)
    assert order == want_order and len(order) == len(headings)
    np.testing.assert_array_equal(got.data, want.data)


def scattered_ids_graph():
    """A square with a diagonal-free walk, on node ids that are neither
    contiguous nor listed in order: 17, 1000, 3, 42."""
    return graph_from_dict({
        "nodes": [{"id": i, "pos": pos, "room": 0, "objects": []} for i, pos in (
            (17, [0.0, 2.0, 0.0]), (1000, [0.0, 0.0, 0.0]),
            (3, [2.0, 0.0, 0.0]), (42, [2.0, 2.0, 0.5]))],
        "edges": [[1000, 3], [1000, 17], [3, 42], [17, 42]]})


MEMO_WORLDS = {  # graph, start, moves; each walk reaches a non-adjacent candidate
    "tiny": (tiny_graph, 0, [1, 3, 2]),
    "scattered-ids": (scattered_ids_graph, 1000, [3, 17, 42]),
}
FULL_GRID_TINY = replace(TINY, view_grid=model.ModelConfig().view_grid)  # 12 headings


@pytest.mark.parametrize("world", sorted(MEMO_WORLDS))
@pytest.mark.parametrize("cfg", [TINY, FULL_GRID_TINY,
                                 replace(TINY, geo_embed=False)],
                         ids=["4-headings", "12-headings", "geo-off"])
@pytest.mark.parametrize("filled_by", ["same", "other-heading-count", "geo-flipped"])
def test_build_candidates_memo_hits_match_fresh_graph_bitwise(world, cfg, filled_by):
    """A walk on a graph whose candidate memo another walk filled first
    gives the rows and every parameter gradient of the same walk on a fresh
    graph, and of the per-candidate oracle, bit for bit.  The first walk
    ran the same configuration, the other heading count (4 against 12), or
    the opposite ``geo_embed``: a memo first filled with geo_embed off must
    still fill the view offsets once they are asked for."""
    make, start, moves = MEMO_WORLDS[world]
    first = {"same": cfg,
             "other-heading-count": FULL_GRID_TINY if cfg.view_grid == TINY.view_grid
             else TINY,
             "geo-flipped": replace(cfg, geo_embed=not cfg.geo_embed)}[filled_by]
    warm = make()
    candidate_walk(model.build_candidates, warm, start, moves,
                   model.build_params(first, seed=4), first)
    assert memo_slot(warm, ("inputs", first.view_grid.n_headings))
    params = model.build_params(cfg, seed=5)
    got = candidate_walk(model.build_candidates, warm, start, moves, params, cfg)
    for build, graph in ((model.build_candidates, make()),
                         (oracle_build_candidates, make())):
        want = candidate_walk(build, graph, start, moves, params, cfg)
        for r, w in zip(got[0], want[0], strict=True):
            np.testing.assert_array_equal(r, w)
        assert sorted(got[1]) == sorted(want[1])
        for name, g in got[1].items():
            np.testing.assert_array_equal(g, want[1][name], err_msg=name)


def test_pickled_graph_drops_its_caches():
    """A pickled graph, as ``--jobs`` workers receive it, arrives with empty
    route and candidate caches, and its candidate rows equal the
    original's, whose memo was filled."""
    graph = tiny_graph()
    params = model.build_params(TINY, seed=5)
    rows, grads = candidate_walk(model.build_candidates, graph, 0, [1, 3, 2],
                                 params, TINY)
    graph.geodesic(0, 3)
    inputs = ("inputs", TINY.view_grid.n_headings)
    assert graph._dist_cache and memo_slot(graph, inputs)
    copy = pickle.loads(pickle.dumps(graph))
    assert copy._dist_cache == {} and memo_slot(copy, inputs) is None
    assert copy.nodes == graph.nodes and copy.poses == graph.poses
    assert copy.adjacency == graph.adjacency and copy.index == graph.index
    got_rows, got_grads = candidate_walk(model.build_candidates, copy, 0, [1, 3, 2],
                                         params, TINY)
    for r, w in zip(got_rows, rows, strict=True):
        np.testing.assert_array_equal(r, w)
    for name, g in grads.items():
        np.testing.assert_array_equal(got_grads[name], g, err_msg=name)


def test_candidate_memo_is_one_table_per_heading_count():
    """After every ordered pair of a 100-node world has been queried under
    two heading counts, the memo holds one (V, V, 7) table and its (V, V)
    fill level per count and nothing else, the routing cache stays empty,
    and every row equals its direct computation with the scan over all
    views."""
    g = se.generate_environment(se.EnvParams(
        node_count=100, connection_radius=3.5, extent=10.0 * math.sqrt(100 / 30),
        seed=7))
    ids = g.node_ids()
    before = set(vars(g))
    for n in (4, 12):
        views = se.ViewGrid(n, (0.0,)).angles()[0]
        for u in ids:
            others = [v for v in ids if v != u]
            got = model.candidate_inputs(g, u, others, n, True)
            for v, row in zip(others, got, strict=True):
                pose = (g.edge_pose(u, v) if g.has_edge(u, v)
                        else relative_pose(g.nodes[u].pos, g.nodes[v].pos))
                j, dist = nearest_view(pose.heading, views)
                off = pose.heading - views[j]
                want = [*trig_embed(pose.heading, pose.elevation),
                        dist, math.sin(off), math.cos(off)]
                assert row.tolist() == want
    assert set(vars(g)) == before and g._dist_cache == {}
    assert sorted(model._MEMOS[g]) == [("inputs", 4), ("inputs", 12)]
    memos = [memo_slot(g, ("inputs", n))[1] for n in (4, 12)]
    for table, level in memos:
        assert table.shape == (100, 100, 7) and table.dtype == np.float64
        assert level.shape == (100, 100) and level.dtype == np.int8
        np.testing.assert_array_equal(level, 2 - 2 * np.eye(100, dtype=np.int8))
    assert sum(a.nbytes for memo in memos for a in memo) == 2 * 100 * 100 * (7 * 8 + 1)


def row_memo_hits(graph, pg, params, cfg) -> list:
    """Per frontier node of ``pg``, whether the untaped memo of ``params``
    under ``cfg`` holds its row in ``graph``'s table."""
    slot = memo_slot(params, "frozen")
    table = None if slot is None or slot[0][0] != cfg else slot[1]["rows"].get(graph)
    if table is None:
        return [False] * len(pg.frontier())
    u = graph.index[pg.current]
    return [bool(table[1][u, graph.index[c]]) for c in pg.frontier()]


@pytest.mark.parametrize("geo_embed", [True, False], ids=["geo-on", "geo-off"])
def test_memo_rows_equal_taped_and_oracle_rows(geo_embed):
    """Untaped candidate rows, read from the world's table in the untaped
    memo on frontiers that mix memo hits and misses, equal the taped rows
    bit for bit and the per-candidate oracle's, under two heading counts
    taking turns on one graph (each turn a new memo key)."""
    g = se.generate_environment(se.EnvParams(node_count=30, connection_radius=3.5,
                                             extent=10.0, seed=7))
    cfgs = [replace(cfg, geo_embed=geo_embed) for cfg in (TINY, FULL_GRID_TINY)]
    params = model.build_params(cfgs[0], seed=5)
    for cfg in cfgs + cfgs:
        mixed = 0
        for start, pick in itertools.product(g.node_ids()[:5], (0, -1)):
            pg = PathGraph(g, start=start)
            for _ in range(6):
                hits = row_memo_hits(g, pg, params, cfg)
                mixed += any(hits) and not all(hits)
                with nn.no_tape():
                    got, order = model.build_candidates(pg, params, cfg)
                taped, _ = model.build_candidates(pg, params, cfg)
                oracle, _ = oracle_build_candidates(pg, params, cfg)
                assert not got.requires_grad and taped.requires_grad
                assert same_bits(got.data, taped.data)
                np.testing.assert_array_equal(got.data, oracle.data)
                if not order:
                    break
                pg.advance(order[pick])
        assert mixed > 0, cfg
        key, memo = memo_slot(params, "frozen")
        assert key[0] == cfg and g in memo["rows"]


def test_taped_walk_neither_reads_nor_fills_the_row_memo():
    """A taped walk leaves the untaped memo empty; with a row table of NaN
    rows under the walk's own key, it still gives the oracle's rows and
    every gradient of a fresh graph, and writes nothing into the table."""
    params = model.build_params(TINY, seed=5)
    g = tiny_graph()
    candidate_walk(model.build_candidates, g, 0, [1, 3, 2], params, TINY)
    assert memo_slot(params, "frozen") is None
    with nn.no_tape():
        for start in g.node_ids():
            model.build_candidates(PathGraph(g, start=start), params, TINY)
    key, memo = memo_slot(params, "frozen")
    table, filled = memo["rows"][g]
    table[...] = np.nan
    before = filled.copy()
    got = candidate_walk(model.build_candidates, g, 0, [1, 3, 2], params, TINY)
    want = candidate_walk(oracle_build_candidates, tiny_graph(), 0, [1, 3, 2],
                          params, TINY)
    assert memo_slot(params, "frozen")[0] is key and np.isnan(table).all()
    np.testing.assert_array_equal(filled, before)
    for r, w in zip(got[0], want[0], strict=True):
        np.testing.assert_array_equal(r, w)
    for name, grad in want[1].items():
        np.testing.assert_array_equal(got[1][name], grad, err_msg=name)


def test_pickled_graph_carries_no_row_memo():
    """The row memo, like the graph's other caches, stays behind when the
    graph is pickled: the copy has neither a slot nor a row table; its
    rows equal the original's."""
    params = model.build_params(TINY, seed=5)
    g = tiny_graph()
    with nn.no_tape():
        rows, _ = model.build_candidates(PathGraph(g, start=0), params, TINY)
    tables = frozen_memo(params)["rows"]
    assert g in tables and model._MEMOS[g]
    copy = pickle.loads(pickle.dumps(g))
    assert copy not in tables and copy not in model._MEMOS
    with nn.no_tape():
        again, _ = model.build_candidates(PathGraph(copy, start=0), params, TINY)
    assert same_bits(again.data, rows.data) and copy in tables


def test_memos_live_in_the_memo_map_and_go_with_their_owners():
    """Taped and untaped walks in every flag setting, on one world with one
    store, leave the graph equal to a fresh graph, its distance cache aside,
    and the store holding only a fresh store's attributes: every memo is a
    slot of ``model._MEMOS``.  The store holds one parameter-keyed slot,
    the untaped memo, and the world only its ``("inputs", n)`` slots.  Once
    the world is collected, its row table goes from the store's memo; once
    the store is too, the map holds no entry for either."""
    cfgs = [replace(TINY, decouple=d, geo_embed=g, loc_detail=loc, obj_detail=obj)
            for d, g, loc, obj in FLAG_COMBINATIONS]
    spec = dict(pair for cfg in cfgs for pair in model.param_spec(cfg))
    store, data = nn.init_params(spec.items(), seed=0), memo_world_data(TINY)
    for cfg in cfgs:
        untaped_scores(data, store, cfg)
        for env, ep in data[:2]:
            training.rollout(env, ep, 8, training.greedy_policy, store, cfg)
    graph = data[0][0].graph
    memo = frozen_memo(store)
    assert graph in memo["rows"] and memo["panorama"] and memo["ogi"]
    assert [name for name, (key, _) in model._MEMOS[store].items()
            if key is not None] == ["frozen"]
    assert all(name[:1] == ("inputs",) for name in model._MEMOS[graph])
    fresh = vars(memo_world_data(TINY)[0][0].graph)
    assert vars(graph) == {**fresh, "_dist_cache": graph._dist_cache}
    assert set(vars(store)) == set(vars(model.build_params(TINY, seed=0)))
    owners = [weakref.ref(graph), weakref.ref(store)]
    gc.collect()
    entries = len(model._MEMOS)
    del data, env, graph
    gc.collect()
    assert owners[0]() is None and len(memo["rows"]) == 0
    assert len(model._MEMOS) == entries - 1
    del store
    gc.collect()
    assert [owner() for owner in owners] == [None, None]
    assert len(model._MEMOS) == entries - 2


# The untaped memo's OGI entries: per panorama, {candidate-matrix bytes:
# output}.


def oracle_ogi(f_g, f_o, params, cfg):
    """``model.observation_graph_interaction`` node per op: the unfused
    residual block of each layer, its weights read by name."""
    blocks = [([params[f"ogi.l{i}.attn.{w}"] for w in ("wq", "wk", "wv", "wo")],
               [(params[f"ogi.l{i}.mlp.w1"], params[f"ogi.l{i}.mlp.b1"]),
                (params[f"ogi.l{i}.mlp.w2"], params[f"ogi.l{i}.mlp.b2"])])
              for i in range(cfg.layers)]
    return oracle_residual_stack(f_g, f_o, blocks, model.HEADS)


def ogi_calls(params, f_o):
    """The untaped memo's OGI entries {f_g bytes: output} for the panorama
    rows ``f_o``, or None."""
    memo = frozen_memo(params)
    return None if memo is None else memo["ogi"].get((f_o.shape, f_o.data.tobytes()))


def ogi_walk_steps(graph, env, params, cfg, picks=(0, -1)):
    """Per step of walks from every node of ``graph``, each step taking
    the first or the last frontier node until the frontier is empty: the
    untaped, taped and oracle OGI outputs, and the step's kind, read before
    the untaped call: "hit" or "miss", with "-stop" when the frontier is
    empty (STOP alone, a one-row ``f_g``)."""
    out = []
    for start, pick in itertools.product(graph.node_ids(), picks):
        pg = PathGraph(graph, start=start)
        while True:
            visual = se.render_observation(env, pg.current, cfg.view_grid)
            with nn.no_tape():
                f_g, order = model.build_candidates(pg, params, cfg)
                f_o = model.decouple_observation(visual, params, cfg)
                calls = ogi_calls(params, f_o)
                hit = calls is not None and f_g.data.tobytes() in calls
                got = model.observation_graph_interaction(f_g, f_o, params, cfg)
            assert got.data is ogi_calls(params, f_o)[f_g.data.tobytes()]
            t_g, _ = model.build_candidates(pg, params, cfg)
            t_o = model.decouple_observation(visual, params, cfg)
            taped = model.observation_graph_interaction(t_g, t_o, params, cfg)
            kind = ("hit" if hit else "miss") + ("-stop" if not order else "")
            out.append((kind, got, taped, oracle_ogi(t_g, t_o, params, cfg)))
            if not order:
                break
            pg.advance(order[pick])
    return out


def ogi_world(cfg):
    """A fresh noisy 12-node world whose panoramas fit ``cfg``."""
    g = se.generate_environment(se.EnvParams(node_count=12, connection_radius=4.0,
                                             extent=9.0, feature_dim=cfg.vis_dim, seed=6))
    return g, se.EnvBundle(g, se.make_latents(g, cfg.vis_dim, seed=6), sigma=0.1)


@pytest.mark.parametrize("cfg", [TINY, FULL_GRID_TINY], ids=["4-views", "36-views"])
def test_ogi_memo_outputs_equal_taped_and_oracle_outputs(cfg):
    """Untaped OGI outputs, stored in the untaped memo by a first walk
    and read from it by the same walk repeated, equal the taped outputs and
    the unfused oracle's bit for bit, on multi-row and STOP-only steps; each
    read is the read-only array the miss stored."""
    params = model.build_params(cfg, seed=5)
    kinds = collections.Counter()
    worlds = (ogi_world(cfg), (tiny_graph(), env_of(
        tiny_graph(), se.make_latents(tiny_graph(), cfg.vis_dim, seed=3))))
    for _ in range(2):
        for graph, env in worlds:
            for kind, got, taped, oracle in ogi_walk_steps(graph, env, params, cfg):
                kinds[kind] += 1
                assert not got.requires_grad and taped.requires_grad
                assert not got.data.flags.writeable
                assert same_bits(got.data, taped.data) and same_bits(got.data, oracle.data)
    assert min(kinds[k] for k in ("hit", "miss", "hit-stop", "miss-stop")) > 0, kinds
    assert memo_slot(params, "frozen")[0][0] == cfg


def test_taped_walk_neither_reads_nor_fills_the_ogi_memo():
    """A taped walk leaves the untaped memo empty; with every stored OGI
    output set to NaN under the walk's own key, it still gives the oracle's
    outputs and every gradient, and writes nothing into the memo, while an
    untaped call reads the NaN output."""
    params = model.build_params(TINY, seed=5)
    graph, env = ogi_world(TINY)

    def walk(ogi):
        params.zero_grad()
        pg, outs, total = PathGraph(graph, start=graph.node_ids()[0]), [], None
        for _ in range(5):
            f_g, order = model.build_candidates(pg, params, TINY)
            f_o = model.decouple_observation(
                se.render_observation(env, pg.current, TINY.view_grid), params, TINY)
            h = ogi(f_g, f_o, params, TINY)
            outs.append(h.data)
            total = tsum(h) if total is None else nn.add(total, tsum(h))
            pg.advance(order[-1])
        nn.backward(total)
        return outs, {n: params[n].grad.copy() for n in params.names()
                      if params[n].grad is not None}

    walk(model.observation_graph_interaction)
    assert memo_slot(params, "frozen") is None
    untaped_scores([(env, se.make_episode(graph, seed=s)) for s in range(4)], params, TINY)
    key, memo = memo_slot(params, "frozen")
    panoramas = memo["ogi"]
    for calls in panoramas.values():
        for query, out in calls.items():
            calls[query] = np.full_like(out, np.nan)
    poisoned = {seen: dict(calls) for seen, calls in panoramas.items()}
    got, want = walk(model.observation_graph_interaction), walk(oracle_ogi)
    assert memo_slot(params, "frozen")[0] is key
    assert {seen: list(calls) for seen, calls in panoramas.items()} == {
        seen: list(calls) for seen, calls in poisoned.items()}
    assert all(out is poisoned[seen][q] for seen, calls in panoramas.items()
               for q, out in calls.items())
    for r, w in zip(got[0], want[0], strict=True):
        assert same_bits(r, w)
    assert sorted(got[1]) == sorted(want[1])
    for name, grad in want[1].items():
        assert same_bits(got[1][name], grad), name
    seen, calls = next(iter(panoramas.items()))
    f_o = nn.Tensor(np.frombuffer(seen[1]).reshape(seen[0]))
    f_g = nn.Tensor(np.frombuffer(next(iter(calls))).reshape(-1, TINY.dim))
    with nn.no_tape():
        assert np.isnan(model.observation_graph_interaction(f_g, f_o, params, TINY).data).all()


def test_untaped_walk_builds_each_memo_key_once_per_cache(monkeypatch):
    """Inside ``forward_step`` the untaped memo is looked up once per
    ``EpisodeCache``: a warm walk of several steps reads every parameter
    once, for the memo's key, and besides only what the walk reads itself:
    the STOP row every step, the instruction's and key detail's weights once
    per episode.  A direct call of a stage function looks the memo up, so
    reads every parameter, on every call.  No walk's cache stays in force
    after a step, one that raised included."""
    data = memo_world_data(TINY)
    params = model.build_params(TINY, seed=0)
    untaped_scores(data, params, TINY)   # block weights looked up, every memo filled
    env, ep = data[0]
    reads = record_param_reads(monkeypatch)
    cache = model.EpisodeCache()
    with nn.no_tape():
        rec = training.rollout(env, ep, 8, training.greedy_policy, params, TINY, cache)
    assert len(rec.steps) > 2 and model._WALK is None
    assert cache.frozen is frozen_memo(params)
    per_episode = ["txt.embed", "enh.wv"] + [n for n in params.names() if n.startswith("kd.")]
    assert collections.Counter(reads) == collections.Counter(
        params.names() + per_episode + ["graph.stop"] * len(rec.steps))

    pg = PathGraph(env.graph, start=ep.start)
    with nn.no_tape():
        f_o = model.decouple_observation(se.render_observation(env, pg.current, TINY.view_grid),
                                         params, TINY)
        f_g, _ = model.build_candidates(pg, params, TINY)
        reads.clear()
        for _ in range(2):
            model.observation_graph_interaction(f_g, f_o, params, TINY)
    assert collections.Counter(reads) == collections.Counter(params.names() * 2)

    def broken(*args):
        raise InvalidState("no render")

    monkeypatch.setattr(model, "render_observation", broken)
    with nn.no_tape(), pytest.raises(InvalidState):
        model.forward_step(pg, env, ep.tokens, params, TINY, model.EpisodeCache())
    assert model._WALK is None


def test_forward_step_after_load_state_equals_fresh_store(setup):
    """Block weights are looked up once per store, as the store's Tensors:
    after ``load_state`` a step reads the loaded values, equal to a step on
    a fresh store loaded with the same state."""
    graph, latents, tokens, params = setup

    def step(store):
        feats, _ = model.forward_step(PathGraph(graph, start=0), env_of(graph, latents),
                                      tokens, store, TINY, model.EpisodeCache())
        return feats.scores.data

    before = step(params)
    other = model.build_params(TINY, seed=9)
    state = {name: other[name].data.copy() for name in other.names()}
    params.load_state(state)
    fresh = model.build_params(TINY, seed=0)
    fresh.load_state(state)
    got = step(params)
    assert same_bits(got, step(fresh)) and same_bits(got, step(other))
    assert not np.array_equal(got, before)


def test_stop_slot_is_learned_embedding(setup):
    graph, _, _, params = setup
    pg = PathGraph(graph, start=0)
    f_g, order = model.build_candidates(pg, params, TINY)
    assert order == [1, 2]
    assert f_g.shape == (3, TINY.dim)
    np.testing.assert_array_equal(f_g.data[-1], params["graph.stop"].data[0])


# ------------------------------------------------------- attention stages


def test_ogi_singleton_observation_rows_share_attention(setup):
    *_, params = setup
    for name in ("ogi.l0.mlp.w1", "ogi.l0.mlp.w2"):
        params[name].data[:] = 0.0
    rng = np.random.default_rng(4)
    f_g = nn.Tensor(rng.normal(size=(3, TINY.dim)))
    f_o = nn.Tensor(rng.normal(size=(1, TINY.dim)))
    out = model.observation_graph_interaction(f_g, f_o, params, TINY)
    delta = out.data - f_g.data  # attention contribution only (mlp zeroed)
    np.testing.assert_allclose(delta[0], delta[1], atol=1e-12)
    np.testing.assert_allclose(delta[1], delta[2], atol=1e-12)


def test_ogi_zero_output_projection_leaves_mlp_path(setup):
    *_, params = setup
    params["ogi.l0.attn.wo"].data[:] = 0.0
    rng = np.random.default_rng(5)
    f_g = nn.Tensor(rng.normal(size=(3, TINY.dim)))
    f_o = nn.Tensor(rng.normal(size=(2, TINY.dim)))
    out = model.observation_graph_interaction(f_g, f_o, params, TINY)
    expect = nn.add(f_g, mlp(f_g, [(params["ogi.l0.mlp.w1"], params["ogi.l0.mlp.b1"]),
                                   (params["ogi.l0.mlp.w2"], params["ogi.l0.mlp.b2"])]))
    np.testing.assert_array_equal(out.data, expect.data)


def test_encode_instruction_position_sensitivity(setup):
    *_, params = setup
    room, obj = se.ROOM_BASE, se.OBJECT_BASE + 1
    fa = model.encode_instruction((se.BOS, room, obj, se.EOS), params, TINY)
    fb = model.encode_instruction((se.BOS, obj, room, se.EOS), params, TINY)
    assert fa.shape == (4, TINY.dim)
    assert not np.allclose(fa.data[1], fb.data[1])
    single = model.encode_instruction((se.BOS,), params, TINY)
    assert single.shape == (1, TINY.dim)
    with pytest.raises(InvalidArgument):
        model.encode_instruction((se.VOCAB_SIZE + 3,), params, TINY)


def test_sinusoid_table_shape_and_range():
    t = model.sinusoid_table(7, 8)
    assert t.shape == (7, 8)
    assert np.all(np.abs(t) <= 1.0)
    np.testing.assert_allclose(t[0, 0::2], 0.0, atol=1e-12)  # sin(0)
    np.testing.assert_allclose(t[0, 1::2], 1.0, atol=1e-12)  # cos(0)


# -------------------------------------------------------------- key detail


def test_key_detail_masked_means(setup):
    """The location cue is the mean of the room tokens' rows, the object
    cue that of the object tokens' rows."""
    *_, params = setup
    rng = np.random.default_rng(6)
    f_i = nn.Tensor(rng.normal(size=(5, TINY.dim)))
    tokens = (se.BOS, se.ROOM_BASE, se.OBJECT_BASE, se.ROOM_BASE + 2, se.EOS)
    out, _ = model.extract_key_detail(f_i, tokens, params, TINY)
    f_loc = (f_i.data[1] + f_i.data[3]) / 2.0
    f_obj = f_i.data[2]
    e_loc = f_loc @ params["kd.loc.w"].data + params["kd.loc.b"].data
    e_obj = f_obj @ params["kd.obj.w"].data + params["kd.obj.b"].data
    expect = np.concatenate([e_loc, e_obj]) @ params["kd.fuse.w"].data \
        + params["kd.fuse.b"].data
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_key_detail_location_only_object_block_is_bias(setup):
    *_, params = setup
    cfg = model.ModelConfig(**{**TINY.__dict__, "obj_detail": False})
    rng = np.random.default_rng(7)
    f_i = nn.Tensor(rng.normal(size=(4, TINY.dim)))
    tokens = (se.BOS, se.ROOM_BASE + 1, se.ROOM_BASE + 4, se.OBJECT_BASE)
    out, _ = model.extract_key_detail(f_i, tokens, params, cfg)
    f_loc = f_i.data[1:3].mean(axis=0)
    e_loc = f_loc @ params["kd.loc.w"].data + params["kd.loc.b"].data
    e_obj = params["kd.obj.b"].data  # zero pooled block leaves only the bias
    expect = np.concatenate([e_loc, e_obj]) @ params["kd.fuse.w"].data \
        + params["kd.fuse.b"].data
    np.testing.assert_allclose(out, expect, atol=1e-12)


def test_key_detail_empty_mask_degrades_to_zero_block(setup):
    *_, params = setup
    rng = np.random.default_rng(8)
    f_i = nn.Tensor(rng.normal(size=(3, TINY.dim)))
    tokens = (se.BOS, se.FILLER_BASE, se.EOS)   # neither a room nor an object
    out, row = model.extract_key_detail(f_i, tokens, params, TINY)
    assert np.all(np.isfinite(out)) and np.all(np.isfinite(row.data))


def detail_config(detail: str, base=TINY) -> model.ModelConfig:
    """``base`` with the detail flags of a two-letter mask such as 'L-'."""
    return replace(base, loc_detail=detail[0] == "L", obj_detail=detail[1] == "O")


# per cue set: six token ids, rooms at 1, 3 and 4 and objects at 0 and 5
# where present, special or filler words elsewhere
CUE_TOKENS = {
    "both": (se.OBJECT_BASE + 1, se.ROOM_BASE, se.FILLER_BASE + 2,
             se.ROOM_BASE + 3, se.ROOM_BASE + 7, se.OBJECT_BASE + 5),
    "loc empty": (se.OBJECT_BASE + 1, se.FILLER_BASE + 4, se.FILLER_BASE + 2,
                  se.FILLER_BASE + 9, se.EOS, se.OBJECT_BASE + 5),
    "both empty": (se.BOS, se.FILLER_BASE + 4, se.FILLER_BASE + 2,
                   se.FILLER_BASE + 9, se.FILLER_BASE, se.EOS),
}


def check_key_detail_against_oracle(detail, cues, f_i_use, add_rows,
                                    base=TINY, frozen=()):
    """The fused key detail of the tokens ``CUE_TOKENS[cues]`` against the
    node chain it replaces, ``oracle_extract_key_detail`` of their
    ``cue_masks``, over one step, or two when its row is replayed (the
    cached key detail of a later step) where the chain is built again.  With ``add_rows`` each step adds its row into its own
    candidate rows, ``add_row`` against ``oracle_add_row``.  The key detail
    arrays, every output and every leaf gradient match bit for bit.  f_i is
    an inner tensor; another consumer, a ``linear``, may read it too, with
    its term entering the loss before or after the key detail's.  The
    configuration is ``base`` with the detail flags; the parameters named
    in ``frozen`` are untracked."""
    cfg = detail_config(detail, base)
    rng = np.random.default_rng(21)
    params = model.build_params(cfg, seed=1)
    for name in params.names():
        params[name].data = rng.normal(size=params[name].shape)
    for name in frozen:
        params[name].requires_grad = False
    tracked = f_i_use != "untracked"
    x0 = nn.Tensor(rng.normal(size=(6, cfg.dim)), requires_grad=tracked)
    w_in = nn.Tensor(rng.normal(size=(cfg.dim, cfg.dim)), requires_grad=tracked)
    w_other = nn.Tensor(rng.normal(size=(cfg.dim, 3)), requires_grad=True)
    w_c = nn.Tensor(rng.normal(size=(cfg.dim, cfg.dim)), requires_grad=True)
    steps = 2 if add_rows or f_i_use == "replayed" else 1
    sizes = (3, 4) if add_rows else (1,) * steps   # candidate rows per step
    rows = [nn.Tensor(rng.normal(size=(n, cfg.dim)), requires_grad=True) for n in sizes]
    c = [nn.Tensor(rng.normal(size=(n, cfg.dim))) for n in sizes]
    c_other = nn.Tensor(rng.normal(size=(6, 3)))
    tokens = CUE_TOKENS[cues]
    leaves = [x0, w_in, w_other, w_c, *rows] + [params[name] for name in params.names()]
    runs = []
    for fused in (True, False):
        for t in leaves:
            t.grad = None
        f_i = nn.linear(x0, w_in)
        f_ks, outs, node = [], [], None
        for r in rows:
            if fused and node is not None:
                row = nn.replay(node)
            else:
                f_k, row = (model.extract_key_detail(f_i, tokens, params, cfg) if fused
                            else oracle_extract_key_detail(f_i, *cue_masks(tokens),
                                                           params, cfg))
                f_ks.append(f_k)
                node = row
            if add_rows:
                row = (model.add_row if fused else oracle_add_row)(nn.linear(r, w_c), row)
            outs.append(row)
        terms = [tsum(mul(out, ci)) for out, ci in zip(outs, c)]
        other = tsum(mul(nn.linear(f_i, w_other), c_other))
        if f_i_use == "also read before":
            terms.insert(0, other)
        elif f_i_use == "also read after":
            terms.append(other)
        loss = terms[0]
        for term in terms[1:]:
            loss = nn.add(loss, term)
        nn.backward(loss)
        runs.append((f_ks[0], [(o.data.copy(), o.requires_grad) for o in outs],
                     [None if t.grad is None else t.grad.copy() for t in leaves]))
        if fused:   # one node over f_i, kd.* and enh.wv
            assert len(f_ks) == 1 and not f_ks[0].flags.writeable
            reads = (("L" in detail and cues == "both")
                     or ("O" in detail and cues != "both empty"))
            kd = (("loc.w",) * ("L" in detail) + ("loc.b",)
                  + ("obj.w",) * ("O" in detail) + ("obj.b", "fuse.w", "fuse.b"))
            assert node._parents == (f_i,) * reads + tuple(
                params[f"kd.{n}"] for n in kd) + (params["enh.wv"],)
    (f_k, outs, grads), (ref_f_k, ref_outs, ref_grads) = runs
    assert same_bits(f_k, ref_f_k)
    for (a, a_live), (b, b_live) in zip(outs, ref_outs):
        assert same_bits(a, b) and a_live == b_live
    for i, (a, b) in enumerate(zip(grads, ref_grads)):
        assert (a is None) == (b is None), f"leaf {i}: gradient presence differs"
        assert a is None or same_bits(a, b), f"leaf {i}: gradient differs"


@pytest.mark.parametrize("detail", ["LO", "L-", "-O"])
@pytest.mark.parametrize("cues", ["both", "loc empty", "both empty"])
@pytest.mark.parametrize("f_i_use", ["tracked", "untracked", "also read before",
                                     "also read after", "replayed"])
def test_key_detail_matches_oracle_bitwise(detail, cues, f_i_use):
    """The key detail and its alignment row against the node chain."""
    check_key_detail_against_oracle(detail, cues, f_i_use, add_rows=False)


@pytest.mark.parametrize("detail", ["LO", "L-", "-O"])
@pytest.mark.parametrize("cues", ["both", "both empty"])
@pytest.mark.parametrize("f_i_use", ["tracked", "untracked", "also read before",
                                     "also read after"])
def test_alignment_row_matches_oracle_bitwise(detail, cues, f_i_use):
    """Two steps of the key-detail injection: the fused node, replayed for
    the second step, and one ``add_row`` node per step, against the chain
    each step built."""
    check_key_detail_against_oracle(detail, cues, f_i_use, add_rows=True)


@pytest.mark.parametrize("frozen", [f for _, f in KD_FROZEN],
                         ids=[i for i, _ in KD_FROZEN])
@pytest.mark.parametrize("f_i_use", ["tracked", "untracked"])
@pytest.mark.parametrize("preset", ["tiny", "full"])
def test_key_detail_frozen_weights_match_oracle(preset, f_i_use, frozen):
    """A ``kd.*`` weight or ``enh.wv`` left untracked gets no gradient from
    the key-detail node, as from the chain, and every other value and
    gradient keeps its bits."""
    check_key_detail_against_oracle("LO", "both", f_i_use, add_rows=False,
                                    base=PRESETS[preset], frozen=frozen)


def record_tracked_nodes(monkeypatch) -> list:
    """Every tracked tensor built through ``nn.tape_node`` from now on."""
    built = []
    tape_node = nn.tape_node

    def spy(*args):
        out = tape_node(*args)
        if out.requires_grad:
            built.append(out)
        return out

    monkeypatch.setattr(nn, "tape_node", spy)
    return built


def test_first_step_builds_10_tape_nodes(setup, monkeypatch):
    """An episode's first TINY step builds 10 tracked tensors: the panorama
    and the candidate rows; one node for each attention stack (the
    observation-graph and cross-modal decoders, the instruction encoder and
    the scoring head); the token embedding and its position add; one node
    for the key detail with its alignment row; and the node adding the row
    into the candidate rows.  Counted the same way, it built 18 while each
    residual block kept K and V nodes of its own, and 19 while the
    alignment row took over a key-detail node of its own."""
    graph, latents, tokens, params = setup
    built = record_tracked_nodes(monkeypatch)
    detail = record_calls(monkeypatch, model, "extract_key_detail")
    cache = model.EpisodeCache()
    model.forward_step(PathGraph(graph, start=0), env_of(graph, latents),
                       tokens, params, TINY, cache)
    assert len(built) == 10 and len(detail) == 1
    assert sum(t is cache.align for t in built) == 1


def test_cached_step_builds_6_tape_nodes(setup, monkeypatch):
    """With the instruction, the panorama and the key detail cached, a TINY
    step builds 6 tracked tensors: the candidate rows; one node for each of
    the observation-graph stack, the cross-modal stack and the scoring
    head; the replayed alignment row and the node adding it into the
    candidate rows.  Counted the same way, a step built 12 while each
    residual block kept K and V nodes of its own, and 24 before the
    residual blocks, the alignment row and its add became one node each.
    Neither the key detail nor its row is computed again."""
    graph, latents, tokens, params = setup
    cache = model.EpisodeCache()
    pg = PathGraph(graph, start=0)
    env = env_of(graph, latents)
    model.forward_step(pg, env, tokens, params, TINY, cache)
    key_detail = cache.key_detail
    built = record_tracked_nodes(monkeypatch)
    detail = record_calls(monkeypatch, model, "extract_key_detail")
    blocks = record_calls(monkeypatch, nn, "residual_stack")
    added = record_calls(monkeypatch, model, "add_row")
    model.forward_step(pg, env, tokens, params, TINY, cache)
    assert len(built) == 6 and detail == []
    assert len(blocks) == 3 and len(added) == 1
    assert all(out in built for _, out in blocks)
    assert cache.key_detail is key_detail
    with pytest.raises(ValueError):
        cache.key_detail[0] = 1.0
    [((_, row), _)] = added
    assert row is not cache.align and row.data is cache.align.data
    reads = any(map(any, cue_masks(tokens)))
    assert row._parents == cache.align._parents == (cache.instr,) * reads + tuple(
        params[n] for n in ("kd.loc.w", "kd.loc.b", "kd.obj.w", "kd.obj.b",
                            "kd.fuse.w", "kd.fuse.b", "enh.wv"))
    assert row._backward is cache.align._backward
    with nn.no_tape():
        model.forward_step(pg, env, tokens, params, TINY, cache)
    assert cache.key_detail is key_detail and added[-1][0][1] is cache.align


# ----------------------------------------------------------------- scoring


def test_enhance_residual_identity_and_single_key(setup, monkeypatch):
    *_, params = setup
    rng = np.random.default_rng(9)
    f_c = nn.Tensor(rng.normal(size=(3, TINY.dim)))
    f_i = nn.Tensor(rng.normal(size=(4, TINY.dim)))
    tokens = (se.ROOM_BASE, se.OBJECT_BASE + 1, se.ROOM_BASE + 1, se.EOS)
    f_k, row = model.extract_key_detail(f_i, tokens, params, TINY)
    blocks = record_calls(monkeypatch, nn, "residual_stack")
    scores = model.enhance_and_score(f_c, row, params, TINY)
    assert scores.shape == (3,)
    # single key row: weights are exactly 1, so each row the scoring
    # attention sees has gained the same f_k W_v row
    [((f_e, *_), _)] = blocks
    align_row = f_k @ params["enh.wv"].data
    np.testing.assert_array_equal(f_e.data, f_c.data + np.tile(align_row, (3, 1)))
    with pytest.raises(ShapeError):   # the row must be (1, dim)
        model.add_row(nn.Tensor(np.zeros((3, TINY.dim))), nn.Tensor(np.zeros(TINY.dim)))


def test_enhance_bypass_is_bitwise(setup, monkeypatch):
    *_, params = setup
    rng = np.random.default_rng(10)
    f_c = nn.Tensor(rng.normal(size=(4, TINY.dim)))
    reads = record_param_reads(monkeypatch)
    blocks = record_calls(monkeypatch, nn, "residual_stack")
    scores = model.enhance_and_score(f_c, None, params, TINY)
    [((f_e, *_), _)] = blocks
    assert f_e is f_c  # scoring sees the cross-modal rows, untouched
    assert "enh.wv" not in reads and reads  # scoring ran, alignment did not
    assert scores.shape == (4,)


def test_candidate_order_equivariance(setup):
    *_, params = setup
    rng = np.random.default_rng(11)
    n = 5
    f_g = rng.normal(size=(n, TINY.dim))
    f_o = nn.Tensor(rng.normal(size=(TINY.view_grid.k, TINY.dim)))
    f_i = nn.Tensor(rng.normal(size=(6, TINY.dim)))
    row = nn.linear(nn.Tensor(rng.normal(size=(1, TINY.dim))), params["enh.wv"])
    perm = rng.permutation(n)

    def run(rows):
        g_enh = model.observation_graph_interaction(nn.Tensor(rows), f_o, params, TINY)
        f_c = model.cross_modal_fusion(g_enh, f_i, params, TINY)
        return model.enhance_and_score(f_c, row, params, TINY).data

    base = run(f_g)
    shuffled = run(f_g[perm])
    # permutation changes summation order inside self-attention, so bitwise
    # equality is not guaranteed; agreement must still be at rounding level
    np.testing.assert_allclose(shuffled, base[perm], rtol=1e-10, atol=1e-12)


def test_select_action_rules():
    with pytest.raises(InvalidState):
        model.select_action(np.array([]), [], 0)
    assert model.select_action(np.array([0.5]), [], 0) == STOP
    assert model.select_action(np.array([0.1, 3.0, 0.2]), [4, 7], 0) == 7
    # exact tie between nodes 3 and 5: lowest id wins
    assert model.select_action(np.array([1.0, 1.0, 0.0]), [3, 5], 0) == 3
    # node ties with STOP: STOP loses
    assert model.select_action(np.array([2.0, 2.0]), [9], 0) == 9
    with pytest.raises(ShapeError):
        model.select_action(np.array([1.0, 2.0]), [1, 2, 3], 0)
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(NumericFailure, match="at node 6"):
            model.select_action(np.array([0.1, bad, 0.2]), [4, 7], 6)


def test_select_action_affine_invariance():
    rng = np.random.default_rng(12)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        scores = rng.normal(size=n + 1)
        order = sorted(rng.choice(100, size=n, replace=False).tolist())
        a = float(rng.uniform(0.1, 10.0))
        b = float(rng.normal())
        assert model.select_action(scores, order, 0) == \
            model.select_action(a * scores + b, order, 0)


# ---------------------------------------------------------------- pipeline


def test_forward_step_shapes_and_determinism(setup):
    graph, latents, tokens, params = setup
    pg = PathGraph(graph, start=0)
    env = env_of(graph, latents)
    cache = model.EpisodeCache()
    feats, action = model.forward_step(pg, env, tokens, params, TINY, cache)
    assert feats.scores.shape == (len(pg.frontier()) + 1,)
    assert cache.key_detail.shape == (TINY.dim,)
    feats2, action2 = model.forward_step(pg, env, tokens, params, TINY,
                                         model.EpisodeCache())
    np.testing.assert_array_equal(feats.scores.data, feats2.scores.data)
    assert action == action2 and (action in pg.frontier() or action == STOP)


FLAG_COMBINATIONS = list(itertools.product((True, False), repeat=4))


@pytest.mark.parametrize("flags", FLAG_COMBINATIONS,
                         ids=["".join(c if on else "-" for c, on in zip("MGLO", f))
                              for f in FLAG_COMBINATIONS])
@pytest.mark.parametrize("preset", ["tiny", "full"])
def test_forward_step_reads_exactly_its_parameters(monkeypatch, preset, flags):
    """A step reads every declared parameter and nothing else, so each
    disabled stage is bypassed (its parameters are never read) and no
    declared parameter is dead.  With both detail flags off the enhancement
    hands the cross-modal rows through untouched."""
    decouple, geo_embed, loc_detail, obj_detail = flags
    cfg = replace(TINY if preset == "tiny" else model.ModelConfig(),
                  decouple=decouple, geo_embed=geo_embed,
                  loc_detail=loc_detail, obj_detail=obj_detail)
    params = model.build_params(cfg, seed=0)
    graph = tiny_graph()
    tokens = se.generate_instruction(graph, [0, 1, 3], seed=0)
    env = env_of(graph, se.make_latents(graph, feature_dim=cfg.vis_dim, seed=3))
    pg = PathGraph(graph, start=0)
    assert pg.frontier()  # so the candidate rows read their parameters
    reads = record_param_reads(monkeypatch)
    enhance = record_calls(monkeypatch, model, "enhance_and_score")
    blocks = record_calls(monkeypatch, nn, "residual_stack")
    cache = model.EpisodeCache()
    feats, _ = model.forward_step(pg, env, tokens, params, cfg, cache)
    assert set(reads) == {name for name, _ in model.param_spec(cfg)}
    [((f_c, row, *_), scores)] = enhance
    assert scores is feats.scores
    if loc_detail or obj_detail:
        assert cache.key_detail.shape == (cfg.dim,) and row.shape == (1, cfg.dim)
    else:
        # the step's last residual stack is the scoring head; it sees the
        # cross-modal rows, untouched
        [*_, ((f_e, *_), _)] = blocks
        assert cache.key_detail is None and row is None and f_e is f_c


@pytest.fixture(scope="module")
def learning_data():
    """Two episodes of a 10-node world per visual width, each instruction
    naming both a location and an object, so either cue pools some token."""
    data = {}
    for vis_dim in {TINY.vis_dim, model.ModelConfig().vis_dim}:
        graph = se.generate_environment(se.EnvParams(
            node_count=10, connection_radius=4.0, extent=8.0,
            feature_dim=vis_dim, seed=2))
        env = training.EnvBundle(graph, se.make_latents(graph, vis_dim, seed=2), sigma=0.1)
        eps = [se.make_episode(graph, seed=i) for i in range(2)]
        assert all(all(map(any, cue_masks(ep.tokens))) for ep in eps)
        data[vis_dim] = [(env, ep) for ep in eps]
    return data


@pytest.mark.parametrize("flags", FLAG_COMBINATIONS,
                         ids=["".join(c if on else "-" for c, on in zip("MGLO", f))
                              for f in FLAG_COMBINATIONS])
@pytest.mark.parametrize("preset", ["tiny", "full"])
def test_every_declared_parameter_learns(monkeypatch, learning_data, preset, flags):
    """One training iteration gives every parameter that ``param_spec``
    declares a nonzero gradient, so none of them is dead weight: a
    disabled detail cue declares no ``kd.<cue>.w`` for a zero block to
    multiply.

    ``sel.mlp.b2``, the scoring head's last bias, is the one known
    exception.  It shifts every score alike, which softmax and
    cross-entropy ignore, so its gradient is rounding noise, at most 1e-12
    (ROADMAP, open item on the shift-invariant score bias)."""
    decouple, geo_embed, loc_detail, obj_detail = flags
    cfg = replace(TINY if preset == "tiny" else model.ModelConfig(),
                  decouple=decouple, geo_embed=geo_embed,
                  loc_detail=loc_detail, obj_detail=obj_detail)
    grads = {}

    def record(store, lr):
        grads.update((n, store[n].grad) for n in store.names())

    monkeypatch.setattr(nn, "optimizer_step", record)
    params = model.build_params(cfg, seed=0)
    training.train(learning_data[cfg.vis_dim], params,
                   training.TrainConfig(t_max=15, iterations=1, batch_size=2), cfg)
    assert set(grads) == {name for name, _ in model.param_spec(cfg)}
    assert np.max(np.abs(grads.pop("sel.mlp.b2"))) <= 1e-12
    dead = [n for n, g in grads.items() if g is None or not np.any(g)]
    assert dead == []


def test_forward_step_cache_matches_uncached(setup):
    """Steps sharing one cache score as steps that each get a fresh one."""
    graph, latents, tokens, params = setup
    cache = model.EpisodeCache()

    def rollout(use_cache):
        pg = PathGraph(graph, start=0)
        outs = []
        for node in [0, 1]:
            feats, _ = model.forward_step(pg, env_of(graph, latents), tokens, params, TINY,
                                          cache=cache if use_cache else model.EpisodeCache())
            outs.append(feats.scores.data.copy())
            pg.advance(node + 1)  # 0->1 then jump/step
        return outs

    cached = rollout(True)
    plain = rollout(False)
    for a, b in zip(cached, plain):
        np.testing.assert_array_equal(a, b)


def frozen_gradient_fixture():
    """Fixture frozen after a full elementwise sweep passed with 30x margin.

    Truly-zero gradients (shift-invariant final bias, dead hidden units) put
    finite differences at the mercy of one-ulp rounding, so the seeds were
    chosen once such that every parameter entry clears the tolerance, and
    determinism keeps it that way.
    """
    graph = tiny_graph()
    latents = se.make_latents(graph, feature_dim=TINY.vis_dim, seed=3)
    tokens = se.generate_instruction(graph, [0, 1, 3], seed=0)
    params = model.build_params(TINY, seed=3)
    return graph, latents, tokens, params


def test_forward_step_golden_scores():
    """Regression pin: values recorded once from the finite-difference-verified
    pipeline on the frozen fixture."""
    graph, latents, tokens, params = frozen_gradient_fixture()
    pg = PathGraph(graph, start=0)
    feats, action = model.forward_step(pg, env_of(graph, latents), tokens, params, TINY,
                                       model.EpisodeCache())
    assert pg.frontier() == [1, 2]
    assert action == STOP
    np.testing.assert_allclose(
        feats.scores.data,
        [-1.513538389221952, -1.4609536211086347, -1.1197381687730026],
        rtol=0, atol=1e-12)


def test_forward_gradients_sampled_finite_difference():
    graph, latents, tokens, params = frozen_gradient_fixture()

    def make_loss():
        pg = PathGraph(graph, start=0)
        feats, _ = model.forward_step(pg, env_of(graph, latents), tokens, params, TINY,
                                      model.EpisodeCache())
        target = pg.frontier().index(1)  # ground-truth next hop
        return nn.cross_entropy(feats.scores, target)

    loss = make_loss()
    nn.backward(loss)
    grads = {n: (params[n].grad.copy() if params[n].grad is not None
                 else np.zeros_like(params[n].data)) for n in params.names()}
    h = 1e-4
    for name in params.names():
        flat = params[name].data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for idx in sorted({0, flat.size // 2, flat.size - 1}):
            orig = flat[idx]
            flat[idx] = orig + h
            lp = float(make_loss().data)
            flat[idx] = orig - h
            lm = float(make_loss().data)
            flat[idx] = orig
            numeric = (lp - lm) / (2 * h)
            err = abs(numeric - gflat[idx]) / max(abs(numeric), abs(gflat[idx]), 1e-8)
            assert err <= 1e-4, f"{name}[{idx}]: analytic {gflat[idx]}, numeric {numeric}"


class PerStepKeyDetail(model.EpisodeCache):
    """A cache that never holds the key detail or its alignment row, so
    every step rebuilds them, and ignores the map of panoramas shared by the
    episodes of an iteration, so each episode embeds its own (the oracle's
    embedding is a chain of nodes, which a replay of its last node would
    not run once per episode)."""

    key_detail = property(lambda self: None, lambda self, value: None)
    align = property(lambda self: None, lambda self, value: None)
    panoramas = property(lambda self: None, lambda self, value: None)


TRAIN_CASES = [pytest.param(geo, detail, True, id=f"{geo}-{detail}")
               for detail in ("LO", "L-", "-O") for geo in (True, False)] + [
    pytest.param(True, "--", True, id="True---"),
    pytest.param(True, "LO", False, id="True-LO-coupled"),
    pytest.param(False, "--", False, id="False----coupled")]


@pytest.mark.parametrize("geo_embed, detail, decouple", TRAIN_CASES)
def test_fused_ops_train_iteration_matches_oracles_bitwise(monkeypatch, geo_embed,
                                                           detail, decouple):
    """One iteration of the full model in the benchmark's ``train_full``
    setup (a 30-node detour world, two episodes, 30 steps), run with the
    fused nodes (residual stacks, panoramas shared by the iteration's
    episodes, key detail and alignment row once per episode, loss means),
    and again with the node-per-op oracles patched in, each episode
    embedding its own panoramas and the key detail and its row rebuilt on
    every step, the tape of a per-step pipeline.  Losses, every gradient,
    the Adam moments and the updated parameters match bit for bit.  Two
    decoder layers share each k=v tensor, so a stack that reorders those
    gradient sums fails here; so does a key detail whose steps reach f_i
    and ``kd.*`` out of order, or a shared panorama whose episodes reach the
    ``obs.*`` parameters out of order."""
    cfg = replace(model.ModelConfig(), geo_embed=geo_embed, decouple=decouple,
                  loc_detail=detail[0] == "L", obj_detail=detail[1] == "O")
    graph = se.generate_environment(se.EnvParams(
        node_count=30, connection_radius=3.5, extent=10.0,
        feature_dim=cfg.vis_dim, sigma=0.1, seed=4))
    env = training.EnvBundle(graph, se.make_latents(graph, cfg.vis_dim, seed=5), sigma=0.1)
    data = [(env, se.make_episode(graph, seed=i, mode="detour")) for i in range(4)]
    train_cfg = training.TrainConfig(lam=0.2, t_max=30, lr=1e-3, iterations=1, batch_size=2)
    step = nn.optimizer_step

    def run():
        grads = {}

        def record_then_step(store, lr):
            grads.update((n, store[n].grad.copy()) for n in store.names())
            step(store, lr)

        monkeypatch.setattr(nn, "optimizer_step", record_then_step)
        details = record_calls(monkeypatch, model, "extract_key_detail")
        steps = record_calls(monkeypatch, training, "forward_step")
        params = model.build_params(cfg, seed=0)
        log = training.train(data, params, train_cfg, cfg)
        state = {n: (params[n].data, params._m[n], params._v[n]) for n in params.names()}
        return log, grads, state, len(details), len(steps)

    fused = run()
    per_episode = train_cfg.batch_size if detail != "--" else 0
    assert fused[3] == per_episode
    monkeypatch.setattr(nn, "residual_stack", oracle_residual_stack)
    monkeypatch.setattr(nn, "mean", oracle_mean)
    monkeypatch.setattr(model, "decouple_observation", oracle_decouple_observation)
    monkeypatch.setattr(model, "extract_key_detail",
                        lambda f_i, tokens, params, cfg: oracle_extract_key_detail(
                            f_i, *cue_masks(tokens), params, cfg))
    monkeypatch.setattr(model, "add_row", oracle_add_row)
    monkeypatch.setattr(training, "EpisodeCache", PerStepKeyDetail)
    oracle = run()
    assert oracle[3] == (oracle[4] if detail != "--" else 0) and oracle[4] == fused[4]
    assert fused[0] == oracle[0]
    assert fused[1].keys() == oracle[1].keys() == fused[2].keys()
    for name in fused[1]:
        assert fused[1][name].tobytes() == oracle[1][name].tobytes(), f"{name} gradient"
        for a, b in zip(fused[2][name], oracle[2][name]):
            assert a.tobytes() == b.tobytes(), f"{name} state"


def test_train_iteration_embeds_each_panorama_once(monkeypatch):
    """A training iteration renders and embeds each (bundle, node) once:
    the first episode to visit it keeps the embedding node in the map its
    caches share, and the cache of every other episode that visits it
    holds a replay, a distinct node with the same data, parents and
    backward.  Equal node ids of two worlds stay apart.  The next iteration,
    under new parameter values, has a new map and renders again."""
    graph_b, env_b = ogi_world(TINY)
    data = memo_world_data(TINY)[:2] + [(env_b, se.make_episode(graph_b, seed=1))]
    renders = record_calls(monkeypatch, model, "render_observation")
    caches, seen = [], []   # this iteration's caches; per iteration, what backward saw

    class Recorded(model.EpisodeCache):
        def __init__(self, panoramas=None):
            super().__init__(panoramas)
            caches.append(self)

    def backward(loss):
        held = collections.defaultdict(list)   # (bundle, node): (node, backward, first)
        for c in caches:
            for n, t in c.obs.items():
                [(env, first)] = [(env, nodes[n]) for env, nodes in c.panoramas.items()
                                  if n in nodes and nodes[n].data is t.data]
                held[env, n].append((t, t._backward, first))
        seen.append(([(env, n) for (env, n, _), _ in renders], held,
                     {id(c.panoramas) for c in caches}))
        renders.clear()
        caches.clear()
        return nn_backward(loss)

    nn_backward = nn.backward
    monkeypatch.setattr(training, "EpisodeCache", Recorded)
    monkeypatch.setattr(nn, "backward", backward)
    training.train(data, model.build_params(TINY, seed=0),
                   training.TrainConfig(t_max=8, iterations=2, batch_size=4), TINY)
    assert len(seen) == 2
    for rendered, held, maps in seen:
        assert len(maps) == 1
        assert len(set(rendered)) == len(rendered) and set(rendered) == set(held)
        assert any(len(nodes) > 1 for nodes in held.values())
        for nodes in held.values():
            [(first, first_backward, _)] = [h for h in nodes if h[0] is h[2]]
            for node, backward_fn, owner in nodes:
                assert owner is first and backward_fn is first_backward
                assert node._parents == first._parents
    assert seen[0][2] != seen[1][2] and set(seen[0][0]) & set(seen[1][0])
    ids = collections.defaultdict(set)   # the first batch draws both worlds
    for env, n in seen[0][0]:
        ids[env].add(n)
    assert len(ids) == 2 and set.intersection(*ids.values())
