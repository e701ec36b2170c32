"""Instruction-guided candidate scoring over a growing navigation graph.

Pipeline per decision step: embed the panorama (angular and visual blocks
separately, unless decoupling is disabled), build one geometric feature row
per frontier candidate plus a learned STOP row, let candidates attend over
the panorama, fuse with the encoded instruction, inject pooled room/object
cues through a single-key attention with residual, then self-attend across
candidates and score each row with an MLP.

Single-key alignment needs no query/key projection: a softmax over one key
row is exactly 1.0, so the attended value is f_c + 1 * (f_k W_v) for every
candidate row whatever the query, and projection weights for the query and
key would never receive gradient.  Only W_v (``enh.wv``) is learned, and
the key detail and its row f_k W_v are one tape node, built once per
episode; likewise the two panorama blocks and their fuse MLP.

Four independent flags (decouple, geo_embed, loc_detail, obj_detail) switch
stages off; disabled stages are bypassed entirely and read no weight, never
zeroed weights (a disabled detail cue keeps only its bias): a configuration
reads exactly the parameters ``param_spec`` declares for it, and each learns.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InvalidArgument, InvalidState, ShapeError
from .geometry import grid_columns, nearest_column, relative_pose, trig_embed
from .navgraph import NavGraph, PathGraph, slot_action
from .synthenv import (VOCAB_SIZE, EnvBundle, Instruction, ViewGrid,
                       render_observation)


HEADS = 2  # attention heads of every residual block


@dataclass(frozen=True)
class ModelConfig:
    """Widths, view grid, and stage flags.

    The attention stack threads one width, dim, through graph, text,
    cross-modal and key-detail features, split over ``HEADS`` heads; the
    visual width is free.
    """
    view_grid: ViewGrid = ViewGrid()
    vis_dim: int = 32
    dim: int = 32
    layers: int = 2
    decouple: bool = True
    geo_embed: bool = True
    loc_detail: bool = True
    obj_detail: bool = True

    def __post_init__(self):
        if min(self.vis_dim, self.dim, self.layers) < 1:
            raise InvalidArgument("all dims/counts must be positive")
        if self.dim % HEADS:
            raise InvalidArgument(f"dim {self.dim} not divisible by {HEADS} heads")


TINY_CONFIG = ModelConfig(view_grid=ViewGrid(4, (0.0,)), vis_dim=10, dim=8, layers=1)


@dataclass
class StepFeatures:
    """The output of one decision step that rollouts keep; the episode's key
    detail stays in its ``EpisodeCache``."""
    scores: nn.Tensor   # (N_c,): frontier ids in order, then STOP


# -------------------------------------------------------------- parameters


def _block_spec(prefix: str, dim: int) -> list:
    return [
        (f"{prefix}.attn.wq", (dim, dim)),
        (f"{prefix}.attn.wk", (dim, dim)),
        (f"{prefix}.attn.wv", (dim, dim)),
        (f"{prefix}.attn.wo", (dim, dim)),
        (f"{prefix}.mlp.w1", (dim, 2 * dim)),
        (f"{prefix}.mlp.b1", (2 * dim,)),
        (f"{prefix}.mlp.w2", (2 * dim, dim)),
        (f"{prefix}.mlp.b2", (dim,)),
    ]


def param_spec(cfg: ModelConfig) -> list:
    """(name, shape) pairs for every parameter the configured pipeline uses."""
    d = cfg.dim
    spec: list = []
    if cfg.decouple:
        spec += [
            ("obs.ang.w", (4, d)), ("obs.ang.b", (d,)),
            ("obs.vis.w", (cfg.vis_dim, d)), ("obs.vis.b", (d,)),
            ("obs.fuse.w1", (2 * d, 2 * d)), ("obs.fuse.b1", (2 * d,)),
            ("obs.fuse.w2", (2 * d, d)), ("obs.fuse.b2", (d,)),
        ]
    else:
        spec += [("obs.coupled.w", (4 + cfg.vis_dim, d)), ("obs.coupled.b", (d,))]

    spec += [("graph.edge.w", (4, d)), ("graph.edge.b", (d,)),
             ("graph.stop", (1, d))]
    if cfg.geo_embed:
        spec += [("graph.pe.w", (3, d)), ("graph.pe.b", (d,))]

    for i in range(cfg.layers):
        spec += _block_spec(f"ogi.l{i}", d)

    spec += [("txt.embed", (VOCAB_SIZE, d))]
    for i in range(cfg.layers):
        spec += _block_spec(f"txt.l{i}", d)

    if cfg.loc_detail or cfg.obj_detail:
        for on, cue in ((cfg.loc_detail, "loc"), (cfg.obj_detail, "obj")):
            if on:
                spec.append((f"kd.{cue}.w", (d, d)))
            spec.append((f"kd.{cue}.b", (d,)))
        spec += [("kd.fuse.w", (2 * d, d)), ("kd.fuse.b", (d,)),
                 ("enh.wv", (d, d))]

    for i in range(cfg.layers):
        spec += _block_spec(f"cmf.l{i}", d)

    spec += _block_spec("sel", d)[:4]  # self-attention only
    spec += [("sel.mlp.w1", (d, d)), ("sel.mlp.b1", (d,)),
             ("sel.mlp.w2", (d, 1)), ("sel.mlp.b2", (1,))]
    return spec


def build_params(cfg: ModelConfig, seed: int) -> nn.ParamStore:
    return nn.init_params(param_spec(cfg), seed)


def _block_weights(prefix: str, params: nn.ParamStore) -> tuple[tuple, list]:
    """The (wq, wk, wv, wo) attention weights and the MLP layers of a block."""
    attn = tuple(params[f"{prefix}.attn.{w}"] for w in ("wq", "wk", "wv", "wo"))
    return attn, [(params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]),
                  (params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"])]


def _decoder_block(h: nn.Tensor, kv: nn.Tensor, prefix: str,
                   params: nn.ParamStore) -> nn.Tensor:
    return nn.residual_block(h, kv, *_block_weights(prefix, params), HEADS)


# ------------------------------------------------------------- observation


@functools.cache
def _grid_views(grid: ViewGrid) -> np.ndarray:
    """A view grid's read-only angular block, whose row i is ``trig_embed``
    of view i; computed once per grid.  Equal grids have bit-equal angles
    (``ViewGrid`` stores a zero elevation as +0.0), so they share a block."""
    headings, elevations = grid.angles()
    block = np.stack([np.asarray(trig_embed(h, e))
                      for h, e in zip(headings, elevations)])
    block.flags.writeable = False
    return block


def decouple_observation(visual: np.ndarray, params: nn.ParamStore,
                         cfg: ModelConfig) -> nn.Tensor:
    """Refined panorama rows of ``visual``, a panorama rendered on
    ``cfg.view_grid`` with ``cfg.vis_dim`` columns (else ``ShapeError``);
    the grid's angular block (``_grid_views``) and the visual block are
    embedded separately.  With decoupling off, one linear projection of the
    raw concatenated [angular, visual] rows is used instead.

    Decoupled, the rows are one ``nn._joined_chain`` node over the eight
    ``obs.*`` parameters, since both blocks are constants: bitwise equal to
    the ``linear`` per block, their ``concat`` and the fuse MLP it replaces.
    """
    want = (cfg.view_grid.k, cfg.vis_dim)
    if visual.shape != want:
        raise ShapeError(f"panorama shape {visual.shape} != {want}")
    ang = _grid_views(cfg.view_grid)
    vis = nn._as_f64(visual)
    if not cfg.decouple:
        return nn.linear(nn.Tensor(np.concatenate([ang, vis], axis=-1)),
                         params["obs.coupled.w"], params["obs.coupled.b"])
    branches = [(ang, False, params["obs.ang.w"], params["obs.ang.b"]),
                (vis, False, params["obs.vis.w"], params["obs.vis.b"])]
    layers = [(params["obs.fuse.w1"], params["obs.fuse.b1"]),
              (params["obs.fuse.w2"], params["obs.fuse.b2"])]
    return nn.tape_node(*nn._joined_chain(branches, layers))


# -------------------------------------------------------------- candidates


def candidate_inputs(graph: NavGraph, node: int, order, n: int,
                     geo_embed: bool) -> np.ndarray:
    """The model inputs of the candidates ``order`` seen from ``node``, one
    row each: t_i, then, with ``geo_embed``, p_i; ``(len(order), 7)`` or
    ``(len(order), 4)``.

    A candidate adjacent to ``node`` takes its edge direction, one attached
    elsewhere the straight-line direction to it.  t_i is the trig
    embedding of that direction and p_i = [distance, sin(offset),
    cos(offset)] its offset to the nearest view, looked up among the two
    heading columns of an n-column grid that bracket it.  Both depend on
    the world alone, so they are computed once per world, on a row's first
    query, into ``graph.candidate_memo(n)``, and read from it after: the
    same ``math`` floats every time, never recomputed in another form.
    p_i is filled only once a ``geo_embed`` query asks for it, so with
    ``geo_embed`` off the positional lookup never runs.
    """
    table, level = graph.candidate_memo(n)
    u = graph.index[node]
    cols = [graph.index[c] for c in order]
    need = 2 if geo_embed else 1
    filled = level[u]
    for c, j in zip(order, cols):
        if filled[j] >= need:
            continue
        if graph.has_edge(node, c):
            pose = graph.edge_pose(node, c)
        else:
            pose = relative_pose(graph.nodes[node].pos, graph.nodes[c].pos)
        entry = table[u, j]
        if filled[j] == 0:
            entry[:4] = trig_embed(pose.heading, pose.elevation)
        if geo_embed:
            k, dist = nearest_column(pose.heading, n)
            off = pose.heading - grid_columns(n)[k]
            entry[4:] = dist, math.sin(off), math.cos(off)
        filled[j] = need
    return table[u][cols, :7 if geo_embed else 4]


def build_candidates(pg: PathGraph, params: nn.ParamStore,
                     cfg: ModelConfig) -> tuple[nn.Tensor, list]:
    """One feature row per frontier node (sorted by id) plus the STOP row.

    Row i is (t_i W_edge + b_edge) + (p_i W_pe + b_pe), with t_i and p_i
    the candidate's direction and view offset on ``cfg.view_grid``, read
    from the world's memo (``candidate_inputs``); no panorama is read.
    With geo_embed off the positional term is an exact zero that touches
    no parameter.  The last row is the learned STOP embedding.

    All rows are one tape node.  Each row is its own vector-matrix product,
    not a row of one batched product, whose last bits can differ; backward
    adds each row's terms into the parameters row by row, in row order, so
    forward values and gradients are bitwise those of one linear node per
    term and row.
    """
    order = pg.frontier()
    inputs = candidate_inputs(pg.graph, pg.current, order,
                              cfg.view_grid.n_headings, cfg.geo_embed)
    w_e, b_e = params["graph.edge.w"], params["graph.edge.b"]
    stop = params["graph.stop"]
    parents = (w_e, b_e, stop)
    if cfg.geo_embed:
        w_p, b_p = params["graph.pe.w"], params["graph.pe.b"]
        parents += (w_p, b_p)
    rows = []
    for x in inputs:
        row = x[:4] @ w_e.data + b_e.data
        if cfg.geo_embed:
            rows.append(row + (x[4:] @ w_p.data + b_p.data))
        else:
            rows.append(row + 0.0)
    rows.append(stop.data.reshape(stop.shape[1]))

    def backward(g):
        for i, x in enumerate(inputs):
            nn._affine_backward(x[:4], w_e, b_e, g[i], False)
            if cfg.geo_embed:
                nn._affine_backward(x[4:], w_p, b_p, g[i], False)
        stop.accumulate_grad(g[-1].reshape(stop.shape))

    return nn.tape_node(np.stack(rows), parents, backward), order


def observation_graph_interaction(f_g: nn.Tensor, f_o: nn.Tensor,
                                  params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    """Candidates attend over panorama rows through the decoder stack."""
    h = f_g
    for i in range(cfg.layers):
        h = _decoder_block(h, f_o, f"ogi.l{i}", params)
    return h


# ------------------------------------------------------------- instruction


def sinusoid_table(m: int, dim: int) -> np.ndarray:
    """Fixed position signal: sin on even columns, cos on odd."""
    pos = np.arange(m)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def encode_instruction(ins: Instruction, params: nn.ParamStore,
                       cfg: ModelConfig) -> nn.Tensor:
    h = nn.embedding(list(ins.tokens), params["txt.embed"])
    h = nn.add(h, nn.Tensor(sinusoid_table(len(ins.tokens), cfg.dim)))
    for i in range(cfg.layers):
        h = _decoder_block(h, h, f"txt.l{i}", params)
    return h


def _selector(mask, tokens: int) -> np.ndarray | None:
    """The (1, tokens) row whose product with the token rows is the mean of
    the masked rows, or None when the mask selects no token."""
    idx = np.asarray(mask, dtype=bool)
    if idx.shape != (tokens,):
        raise ShapeError(f"mask length {idx.shape} != token count {tokens}")
    n = int(idx.sum())
    if n == 0:
        return None
    sel = np.zeros((1, tokens))
    sel[0, idx] = 1.0 / n
    return sel


def extract_key_detail(f_i: nn.Tensor, loc_mask, obj_mask, params: nn.ParamStore,
                       cfg: ModelConfig) -> tuple[np.ndarray, nn.Tensor]:
    """Pooled location/object cues, each projected then fused to the key
    detail f_k, and its single-key attention value, the row f_k W_v.

    An empty mask zeroes that cue's pooled block.  A disabled flag leaves
    the cue only its projection bias, ``0.0 + b``, the value a zero block
    times its weight plus the bias gave, matching the ablation contract;
    that weight is not declared, so it is not read.

    Returns f_k's read-only (d,) array and the (1, d) row, one tape node
    bitwise equal to the chain it fuses (``oracle_extract_key_detail`` in
    the tests): per enabled cue the masked mean ``reshape(matmul(sel,
    f_i))`` and a ``linear``, per disabled cue the bias, then ``concat``,
    the fuse ``linear``, the reshape of f_k to a row and its product with
    ``enh.wv``.  Its parents are f_i, when a cue reads
    it, the ``kd.*`` parameters and ``enh.wv``.  The backward replays the
    chain's arrays in the order the walk ran its nodes: the row product,
    the fuse projection, then the whole location branch, then the whole
    object branch, each branch ending with ``sel.T @ g`` into f_i.  No
    other consumer of f_i can run in between, so f_i receives its terms
    where the chain gave them.
    """
    tokens, d = f_i.shape
    sels, branches = [], []   # per cue: selector (None: zero block); (x, x live, w, b)
    for on, mask, cue in ((cfg.loc_detail, loc_mask, "loc"),
                          (cfg.obj_detail, obj_mask, "obj")):
        sel = _selector(mask, tokens) if on else None
        x = np.zeros(d) if sel is None else (sel @ f_i.data).reshape(d)
        w = params[f"kd.{cue}.w"] if on else None
        sels.append(sel)
        branches.append((x, sel is not None and f_i.requires_grad, w, params[f"kd.{cue}.b"]))
    f_k, weights, chain_backward = nn._joined_chain(
        branches, [(params["kd.fuse.w"], params["kd.fuse.b"])])
    wv = params["enh.wv"]
    k_row = f_k.reshape(1, f_k.shape[0])
    parents = ((f_i,) if any(sel is not None for sel in sels) else ()) + weights

    def backward(g):
        g_k = nn._affine_backward(k_row, wv, None, g, True)
        for sel, g_x in zip(sels, chain_backward(nn._grad_copy(g_k.reshape(f_k.shape)))):
            if g_x is not None:
                f_i.accumulate_grad(sel.T @ nn._grad_copy(g_x.reshape(1, d)))

    row = nn.tape_node(nn._affine(k_row, wv, None), parents + (wv,), backward)
    f_k.flags.writeable = False
    return f_k, row


def cross_modal_fusion(g_enh: nn.Tensor, f_i: nn.Tensor,
                       params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    h = g_enh
    for i in range(cfg.layers):
        h = _decoder_block(h, f_i, f"cmf.l{i}", params)
    return h


# ----------------------------------------------------------------- scoring


def add_row(f_c: nn.Tensor, row: nn.Tensor) -> nn.Tensor:
    """Every candidate row plus the (1, d) alignment row: one tape node,
    bitwise equal to ``add(f_c, matmul(ones((N_c, 1)), row))``.  With one
    key the attention weights are exactly 1.0, so each row gains the same
    row; the backward sums the rows' gradients as ``ones.T @ g``."""
    if row.shape != (1, f_c.shape[1]):
        raise ShapeError(f"alignment row {row.shape} != (1, {f_c.shape[1]})")
    ones = np.ones((f_c.shape[0], 1))   # the single key's attention weights

    def backward(g):
        if f_c.requires_grad:
            f_c.accumulate_grad(g)
        if row.requires_grad:
            row.accumulate_grad(ones.T @ nn._grad_copy(g))

    return nn.tape_node(f_c.data + ones @ row.data, (f_c, row), backward)


def enhance_and_score(f_c: nn.Tensor, row: nn.Tensor | None,
                      params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    """Inject the key-detail alignment row into each candidate, then score.

    The key detail enters as a single key/value attention row added
    residually; with one key the attention weights are exactly 1.0, so the
    aligned row is f_k W_v, ``extract_key_detail``'s row, for every
    candidate.  With both detail flags off (``row`` None) the injection is
    skipped and the cross-modal rows pass through untouched.  Scoring
    always runs: candidate self-attention with residual, then a per-row MLP,
    one score per row.
    """
    f_e = f_c if row is None else add_row(f_c, row)
    return nn.residual_block(f_e, f_e, *_block_weights("sel", params), HEADS,
                             score=True)


def select_action(scores: np.ndarray, frontier_order) -> int:
    """The action of the highest score in the array ``scores``, one slot per
    frontier node then STOP (``navgraph.slot_action``); ordering makes ties
    favor the lowest node id and give STOP lowest priority."""
    if scores.size == 0:
        raise InvalidState("no candidate scores")
    if scores.shape != (len(frontier_order) + 1,):
        raise ShapeError(
            f"{scores.shape[0]} scores for {len(frontier_order)} frontier nodes + STOP")
    return slot_action(frontier_order, int(np.argmax(scores)))


# ---------------------------------------------------------------- pipeline


class EpisodeCache:
    """Reuses, inside one autograd graph, the encodings that stay fixed for
    an episode: the instruction encoding, each node's panorama embedding
    (so each node is rendered once per episode), and the key detail with
    its alignment row.

    One cache serves one episode, its teacher and student rollouts alike,
    and is dropped with it: the encoded tensors belong to the loss graph
    they were built in.  ``key_detail`` is the episode's read-only key
    detail array, the one copy (None when both detail flags are off), and
    ``align`` the first step's alignment row node; later steps replay it.
    """

    def __init__(self):
        self.instr: nn.Tensor | None = None
        self.obs: dict[int, nn.Tensor] = {}
        self.key_detail: np.ndarray | None = None
        self.align: nn.Tensor | None = None


def forward_step(pg: PathGraph, env: EnvBundle, ins: Instruction,
                 params: nn.ParamStore, cfg: ModelConfig,
                 cache: EpisodeCache) -> tuple[StepFeatures, int]:
    """Run the full pipeline for one decision step at ``pg.current``, whose
    panorama is rendered from ``env`` on ``cfg.view_grid`` and embedded on
    its first visit per cache; later visits reuse the embedding.

    ``cache`` is shared by the episode's steps: the first computes the key
    detail, kept in ``cache.key_detail``, and its alignment row, as one
    node.  Every later step gets ``nn.replay`` of that node: a new node with
    its data, parents and backward, so each step's gradient still reaches
    f_i, ``enh.wv`` and the ``kd.*`` parameters on its own, at the step's
    place in the backward walk, as a per-step rebuild gave it.  One tracked
    tensor shared by the steps would sum their gradients first and change
    the last bits.
    """
    f_o = cache.obs.get(pg.current)
    if f_o is None:
        visual = render_observation(env.graph, pg.current, env.latents,
                                    env.sigma, cfg.view_grid)
        f_o = cache.obs[pg.current] = decouple_observation(visual, params, cfg)

    f_g, order = build_candidates(pg, params, cfg)
    g_enh = observation_graph_interaction(f_g, f_o, params, cfg)

    f_i = cache.instr
    if f_i is None:
        f_i = cache.instr = encode_instruction(ins, params, cfg)

    row = None
    if cfg.loc_detail or cfg.obj_detail:
        if cache.align is not None:
            row = nn.replay(cache.align)
        else:
            cache.key_detail, row = extract_key_detail(
                f_i, ins.location_mask, ins.object_mask, params, cfg)
            cache.align = row
    f_c = cross_modal_fusion(g_enh, f_i, params, cfg)
    scores = enhance_and_score(f_c, row, params, cfg)
    return StepFeatures(scores=scores), select_action(scores.data, order)
