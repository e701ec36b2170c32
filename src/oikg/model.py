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
key would never receive gradient.  Only W_v (``enh.wv``) is learned.

Four independent flags (decouple, geo_embed, loc_detail, obj_detail) switch
stages off; disabled stages are bypassed entirely, never approximated with
zeroed weights, which keeps ablations exact: a configuration reads exactly
the parameters ``param_spec`` declares for it.
"""

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InvalidArgument, InvalidState, ShapeError
from .geometry import grid_columns, nearest_column, relative_pose, trig_embed
from .navgraph import STOP, PathGraph
from .synthenv import VOCAB_SIZE, Instruction, Observation, ViewGrid


@dataclass(frozen=True)
class ModelConfig:
    """Widths, view grid, and stage flags.

    The attention stack threads one width, dim, through graph, text, and
    cross-modal features; visual and key-detail widths are free.
    """
    view_grid: ViewGrid = ViewGrid()
    vis_dim: int = 32
    dim: int = 32
    key_dim: int = 32
    heads: int = 2
    layers: int = 2
    decouple: bool = True
    geo_embed: bool = True
    loc_detail: bool = True
    obj_detail: bool = True

    def __post_init__(self):
        if min(self.vis_dim, self.dim, self.key_dim, self.heads, self.layers) < 1:
            raise InvalidArgument("all dims/counts must be positive")
        if self.dim % self.heads:
            raise InvalidArgument(f"dim {self.dim} not divisible by heads {self.heads}")

    def flag_label(self) -> str:
        """Four-letter stage mask, dash for a disabled stage (e.g. 'MG--')."""
        return "".join(ch if on else "-" for ch, on in (
            ("M", self.decouple), ("G", self.geo_embed),
            ("L", self.loc_detail), ("O", self.obj_detail)))


TINY_CONFIG = ModelConfig(view_grid=ViewGrid(4, (0.0,)), vis_dim=10, dim=8,
                          key_dim=8, heads=2, layers=1)


@dataclass
class StepFeatures:
    """The outputs of one decision step that rollouts keep."""
    key_detail: nn.Tensor | None    # (key_dim,) or None when both detail flags off
    scores: nn.Tensor               # (N_c,): frontier ids in order, then STOP


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
        spec += [
            ("kd.loc.w", (d, cfg.key_dim)), ("kd.loc.b", (cfg.key_dim,)),
            ("kd.obj.w", (d, cfg.key_dim)), ("kd.obj.b", (cfg.key_dim,)),
            ("kd.fuse.w", (2 * cfg.key_dim, cfg.key_dim)), ("kd.fuse.b", (cfg.key_dim,)),
            ("enh.wv", (cfg.key_dim, d)),
        ]

    for i in range(cfg.layers):
        spec += _block_spec(f"cmf.l{i}", d)

    spec += _block_spec("sel", d)[:4]  # self-attention only
    spec += [("sel.mlp.w1", (d, d)), ("sel.mlp.b1", (d,)),
             ("sel.mlp.w2", (d, 1)), ("sel.mlp.b2", (1,))]
    return spec


def build_params(cfg: ModelConfig, seed: int) -> nn.ParamStore:
    return nn.init_params(param_spec(cfg), seed)


def _decoder_block(h: nn.Tensor, kv: nn.Tensor, prefix: str,
                   params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    a = nn.attention(h, kv, kv,
                     params[f"{prefix}.attn.wq"], params[f"{prefix}.attn.wk"],
                     params[f"{prefix}.attn.wv"], params[f"{prefix}.attn.wo"],
                     cfg.heads)
    h = nn.add(h, a)
    m = nn.mlp(h, [(params[f"{prefix}.mlp.w1"], params[f"{prefix}.mlp.b1"]),
                   (params[f"{prefix}.mlp.w2"], params[f"{prefix}.mlp.b2"])])
    return nn.add(h, m)


# ------------------------------------------------------------- observation


@functools.cache
def _grid_views(grid: ViewGrid, elevation_bits: bytes) -> tuple[bytes, bytes, np.ndarray]:
    """The bytes of a view grid's per-view headings and elevations, and its
    read-only angular block, whose row i is ``trig_embed`` of view i;
    computed once per grid.  ``elevation_bits`` keys the cache on the
    elevations' bits: grids whose elevations differ only in the sign of a
    zero are equal and hash alike, but their blocks differ."""
    headings, elevations = grid.angles()
    block = np.stack([np.asarray(trig_embed(h, e))
                      for h, e in zip(headings, elevations)])
    block.flags.writeable = False
    return headings.tobytes(), elevations.tobytes(), block


def _check_view_grid(obs: Observation, grid: ViewGrid) -> np.ndarray:
    """The grid's angular block, once the view angles of ``obs`` are
    known to be the grid's, bit for bit."""
    headings, elevations, block = _grid_views(
        grid, np.array(grid.elevations).tobytes())
    if obs.headings.tobytes() != headings or obs.elevations.tobytes() != elevations:
        raise ShapeError(f"panorama at node {obs.node} is not on the model's "
                         f"{grid.n_headings}-heading x {len(grid.elevations)}"
                         "-elevation view grid")
    return block


def decouple_observation(obs: Observation, params: nn.ParamStore,
                         cfg: ModelConfig) -> nn.Tensor:
    """Refined panorama rows; angular and visual blocks embedded separately.

    With decoupling off, one linear projection of the raw concatenated
    [angular, visual] rows is used instead (the coupled baseline).
    """
    want = (cfg.view_grid.k, cfg.vis_dim)
    if obs.visual.shape != want:
        raise ShapeError(f"panorama shape {obs.visual.shape} != {want}")
    ang_t = nn.Tensor(_check_view_grid(obs, cfg.view_grid))
    vis_t = nn.Tensor(obs.visual)
    if not cfg.decouple:
        return nn.linear(nn.concat([ang_t, vis_t], axis=-1),
                         params["obs.coupled.w"], params["obs.coupled.b"])
    e_a = nn.linear(ang_t, params["obs.ang.w"], params["obs.ang.b"])
    e_v = nn.linear(vis_t, params["obs.vis.w"], params["obs.vis.b"])
    return nn.mlp(nn.concat([e_a, e_v], axis=-1),
                  [(params["obs.fuse.w1"], params["obs.fuse.b1"]),
                   (params["obs.fuse.w2"], params["obs.fuse.b2"])])


# -------------------------------------------------------------- candidates


def build_candidates(pg: PathGraph, obs: Observation, params: nn.ParamStore,
                     cfg: ModelConfig) -> tuple[nn.Tensor, list]:
    """One feature row per frontier node (sorted by id) plus the STOP row.

    A frontier node adjacent to the current node uses its edge direction;
    one attached elsewhere uses the straight-line direction to it.  Row i is
    (t_i W_edge + b_edge) + (p_i W_pe + b_pe): t_i is the trig embedding of
    that direction and p_i = [distance, sin(offset), cos(offset)] its offset
    to the nearest panorama view, looked up among the two heading columns of
    ``cfg.view_grid`` that bracket it; ``obs`` must lie on that grid.  With
    geo_embed off the positional term is an exact zero that touches no
    parameter.  The last row is the learned STOP embedding.

    All rows are one tape node.  Each row is its own vector-matrix product,
    not a row of one batched product, whose last bits can differ; backward
    adds each row's terms into the parameters row by row, in row order, so
    forward values and gradients are bitwise those of one linear node per
    term and row.
    """
    _check_view_grid(obs, cfg.view_grid)
    n = cfg.view_grid.n_headings
    graph = pg.graph
    order = pg.frontier()
    w_e, b_e = params["graph.edge.w"], params["graph.edge.b"]
    stop = params["graph.stop"]
    parents = (w_e, b_e, stop)
    if cfg.geo_embed:
        w_p, b_p = params["graph.pe.w"], params["graph.pe.b"]
        parents += (w_p, b_p)
    edge_in, pe_in, rows = [], [], []
    for c in order:
        if graph.has_edge(pg.current, c):
            pose = graph.edge_pose(pg.current, c)
        else:
            pose = relative_pose(graph.nodes[pg.current].pos, graph.nodes[c].pos)
        t = np.asarray(trig_embed(pose.heading, pose.elevation))
        edge_in.append(t)
        row = t @ w_e.data + b_e.data
        if cfg.geo_embed:
            j, dist = nearest_column(pose.heading, n)
            off = pose.heading - grid_columns(n)[j]
            f = np.array([dist, math.sin(off), math.cos(off)])
            pe_in.append(f)
            rows.append(row + (f @ w_p.data + b_p.data))
        else:
            rows.append(row + 0.0)
    rows.append(stop.data.reshape(stop.shape[1]))

    def backward(g):
        for i, t in enumerate(edge_in):
            b_e.accumulate_grad(g[i])
            w_e.accumulate_grad(np.outer(t, g[i]))
            if pe_in:
                b_p.accumulate_grad(g[i])
                w_p.accumulate_grad(np.outer(pe_in[i], g[i]))
        stop.accumulate_grad(g[-1].reshape(stop.shape))

    return nn.tape_node(np.stack(rows), parents, backward), order


def observation_graph_interaction(f_g: nn.Tensor, f_o: nn.Tensor,
                                  params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    """Candidates attend over panorama rows through the decoder stack."""
    h = f_g
    for i in range(cfg.layers):
        h = _decoder_block(h, f_o, f"ogi.l{i}", params, cfg)
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
        h = _decoder_block(h, h, f"txt.l{i}", params, cfg)
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


def extract_key_detail(f_i: nn.Tensor, loc_mask, obj_mask,
                       params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    """Pooled location/object cues, each projected then fused to one vector.

    A disabled flag (or an empty mask) zeroes that cue's pooled block; the
    projection bias still passes through, matching the ablation contract.

    One tape node, bitwise equal to the eight-node chain it fuses
    (``oracle_key_detail`` in the tests): per cue the masked mean
    ``reshape(matmul(sel, f_i))`` and a ``linear``, then ``concat`` and the
    fuse ``linear``.  Its parents are f_i, when a cue reads it, and the six
    ``kd.*`` parameters.  The backward replays the chain's arrays in the
    order the walk ran its nodes: the fuse projection, then the whole
    location branch, then the whole object branch, each branch ending with
    ``sel.T @ g`` into f_i.  No other consumer of f_i can run in between,
    so f_i receives its terms where the chain gave them.
    """
    tokens, d = f_i.shape
    f_w, f_b = params["kd.fuse.w"], params["kd.fuse.b"]
    branches = []   # per cue: selector (None: zero block), pooled row, w, b, x live
    embedded = []
    for on, mask, cue in ((cfg.loc_detail, loc_mask, "loc"),
                          (cfg.obj_detail, obj_mask, "obj")):
        sel = _selector(mask, tokens) if on else None
        x = np.zeros(d) if sel is None else (sel @ f_i.data).reshape(d)
        w, b = params[f"kd.{cue}.w"], params[f"kd.{cue}.b"]
        nn._check_linear(x.shape, w, b)
        embedded.append(x @ w.data + b.data)
        branches.append((sel, x, w, b, sel is not None and f_i.requires_grad))
    c = np.concatenate(embedded, axis=-1)
    nn._check_linear(c.shape, f_w, f_b)
    out = c @ f_w.data + f_b.data
    e_live = [x_live or w.requires_grad or b.requires_grad
              for _, _, w, b, x_live in branches]
    k = embedded[0].shape[0]

    def backward(g):
        if f_b.requires_grad:
            f_b.accumulate_grad(g)
        g_c = nn._grad_copy(f_w.data @ g) if any(e_live) else None
        if f_w.requires_grad:
            f_w.accumulate_grad(np.outer(c, g))
        if g_c is None:
            return
        for (sel, x, w, b, x_live), live, part in zip(
                branches, e_live, (slice(0, k), slice(k, None))):
            if not live:
                continue
            g_e = nn._grad_copy(g_c[part])
            if b.requires_grad:
                b.accumulate_grad(g_e)
            g_x = nn._grad_copy(w.data @ g_e) if x_live else None
            if w.requires_grad:
                w.accumulate_grad(np.outer(x, g_e))
            if g_x is not None:
                f_i.accumulate_grad(sel.T @ nn._grad_copy(g_x.reshape(1, d)))

    reads_f_i = any(sel is not None for sel, *_ in branches)
    parents = ((f_i,) if reads_f_i else ()) + tuple(
        t for _, _, w, b, _ in branches for t in (w, b)) + (f_w, f_b)
    return nn.tape_node(out, parents, backward)


def cross_modal_fusion(g_enh: nn.Tensor, f_i: nn.Tensor,
                       params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    h = g_enh
    for i in range(cfg.layers):
        h = _decoder_block(h, f_i, f"cmf.l{i}", params, cfg)
    return h


# ----------------------------------------------------------------- scoring


def enhance_and_score(f_c: nn.Tensor, f_k: nn.Tensor | None,
                      params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    """Inject the key-detail row into each candidate, then score.

    The key detail enters as a single key/value attention row added
    residually; with one key the attention weights are exactly 1.0, so the
    aligned row is f_k W_v for every candidate.  With both detail flags off
    the injection is skipped and the cross-modal rows pass through
    untouched.  Scoring always runs: candidate self-attention with residual,
    then a per-row MLP.
    """
    if f_k is None:
        f_e = f_c
    else:
        k_row = nn.reshape(f_k, (1, f_k.shape[0]))
        weights = nn.Tensor(np.ones((f_c.shape[0], 1)))           # single key: all ones
        align = nn.matmul(weights, nn.matmul(k_row, params["enh.wv"]))
        f_e = nn.add(f_c, align)

    att = nn.attention(f_e, f_e, f_e,
                       params["sel.attn.wq"], params["sel.attn.wk"],
                       params["sel.attn.wv"], params["sel.attn.wo"], cfg.heads)
    h = nn.add(f_e, att)
    scores = nn.mlp(h, [(params["sel.mlp.w1"], params["sel.mlp.b1"]),
                        (params["sel.mlp.w2"], params["sel.mlp.b2"])])
    return nn.reshape(scores, (scores.shape[0],))


def select_action(scores, frontier_order) -> int:
    """Highest-scoring candidate; ordering makes ties favor the lowest node
    id and give STOP (the last slot) lowest priority."""
    data = scores.data if isinstance(scores, nn.Tensor) else np.asarray(scores)
    if data.size == 0:
        raise InvalidState("no candidate scores")
    if data.shape != (len(frontier_order) + 1,):
        raise ShapeError(
            f"{data.shape[0]} scores for {len(frontier_order)} frontier nodes + STOP")
    best = int(np.argmax(data))
    return frontier_order[best] if best < len(frontier_order) else STOP


# ---------------------------------------------------------------- pipeline


class EpisodeCache:
    """Reuses, inside one autograd graph, the encodings that stay fixed for
    an episode: the instruction encoding, each node's panorama embedding and
    the key detail; and keeps the rendered panoramas of the episode's nodes.

    One cache serves one episode, its teacher and student rollouts alike,
    and is dropped with it: the encoded tensors belong to the loss graph
    they were built in.  ``key_detail`` is the first step's node, its data
    read-only, since every later step's ``StepRecord.key_detail`` shares it.
    """

    def __init__(self):
        self.instr: nn.Tensor | None = None
        self.obs: dict[int, nn.Tensor] = {}
        self.views: dict[int, Observation] = {}
        self.key_detail: nn.Tensor | None = None


def forward_step(pg: PathGraph, obs: Observation, ins: Instruction,
                 params: nn.ParamStore, cfg: ModelConfig,
                 cache: EpisodeCache | None = None) -> tuple[StepFeatures, int]:
    """Run the full pipeline for one decision step.

    Without a cache the step gets one of its own.  With a cache shared by
    the episode's steps, the key detail is computed once.  Every later
    step gets ``nn.replay`` of the cached node: a new node with its data,
    parents and backward, so each step's gradient still reaches f_i and the
    ``kd.*`` parameters on its own, at the step's place in the backward
    walk, as a per-step rebuild gave it.  One tracked tensor shared by the
    steps would sum their gradients first and change the last bits.
    """
    cache = cache if cache is not None else EpisodeCache()
    f_o = cache.obs.get(obs.node)
    if f_o is None:
        f_o = cache.obs[obs.node] = decouple_observation(obs, params, cfg)

    f_g, order = build_candidates(pg, obs, params, cfg)
    g_enh = observation_graph_interaction(f_g, f_o, params, cfg)

    f_i = cache.instr
    if f_i is None:
        f_i = cache.instr = encode_instruction(ins, params, cfg)

    f_k = None
    if cfg.loc_detail or cfg.obj_detail:
        if cache.key_detail is not None:
            f_k = nn.replay(cache.key_detail)
        else:
            f_k = extract_key_detail(f_i, ins.location_mask, ins.object_mask,
                                     params, cfg)
            f_k.data.flags.writeable = False
            cache.key_detail = f_k
    f_c = cross_modal_fusion(g_enh, f_i, params, cfg)
    scores = enhance_and_score(f_c, f_k, params, cfg)
    return StepFeatures(key_detail=f_k, scores=scores), select_action(scores, order)
