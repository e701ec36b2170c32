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
import weakref
from dataclasses import dataclass

import numpy as np

from . import nn
from .errors import InvalidArgument, InvalidState, NumericFailure, ShapeError
from .geometry import grid_columns, nearest_column, relative_pose, trig_embed
from .navgraph import NavGraph, PathGraph, slot_action
from .synthenv import (VOCAB_SIZE, EnvBundle, ViewGrid, render_observation,
                       token_class)


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


# The forward's memos, by the object each depends on, a store or a world:
# owner -> {name: (key, value)}.  Held weakly, so they go with their owner,
# and never on it, so a pickled copy carries none.
_MEMOS: "weakref.WeakKeyDictionary[object, dict]" = weakref.WeakKeyDictionary()


def _memo(owner, name, key, make):
    """The value of ``owner``'s memo slot ``name``: ``make()``, made on first
    use or once ``key`` differs from the one it was made under."""
    slots = _MEMOS.get(owner)
    if slots is None:
        slots = _MEMOS[owner] = {}
    slot = slots.get(name)
    if slot is None or slot[0] != key:
        slot = slots[name] = (key, make())
    return slot[1]


def _stack(h: nn.Tensor, kv: nn.Tensor | None, stage: str, params: nn.ParamStore,
           layers: int | None = None, score: bool = False) -> nn.Tensor:
    """``nn.residual_stack`` over kv (None: self-attention) of the blocks
    ``stage.l0``, ``stage.l1``, ... of a ``layers``-deep stage, or of the one
    block ``stage``.  Their (wq, wk, wv, wo) attention weights and MLP
    layers are looked up once per store (slot ``(stage, layers)``): the
    Tensors, so loaded or stepped values show."""
    blocks = _memo(params, (stage, layers), None, lambda: tuple(
        (tuple(params[f"{p}.attn.{w}"] for w in ("wq", "wk", "wv", "wo")),
         ((params[f"{p}.mlp.w1"], params[f"{p}.mlp.b1"]),
          (params[f"{p}.mlp.w2"], params[f"{p}.mlp.b2"])))
        for p in ([stage] if layers is None else [f"{stage}.l{i}" for i in range(layers)])))
    return nn.residual_stack(h, kv, blocks, HEADS, score)


# inside forward_step: the step's EpisodeCache, which keeps its walk's slot
_WALK: "EpisodeCache | None" = None


def _frozen(params: nn.ParamStore, cfg: ModelConfig) -> dict:
    """The untaped forward's memo of ``params`` under ``cfg``, the store's
    slot ``"frozen"``: ``"panorama"`` {visual bytes: rows}, ``"ogi"``
    {(f_o shape, f_o bytes): {f_g bytes: output}} and ``"rows"``, a weak
    map {NavGraph: (candidate-row table, fill flags)}.  Its key is ``cfg``
    and the exact bytes of every parameter in the store, so a load, a step
    or an in-place edit of any value drops it.  No parameter changes during
    the walk an ``EpisodeCache`` serves, so inside ``forward_step`` it is
    looked up once per cache and kept in ``cache.frozen``; any other caller
    looks it up on every call.  A taped call never reads it."""
    cache = _WALK
    if cache is not None and cache.frozen is not None:
        return cache.frozen
    key = (cfg,) + tuple(params[name].data.tobytes() for name in params.params)
    frozen = _memo(params, "frozen", key, lambda: {
        "panorama": {}, "ogi": {}, "rows": weakref.WeakKeyDictionary()})
    if cache is not None:
        cache.frozen = frozen
    return frozen


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


# the parameters the panorama rows read, decoupled or not, in reading order
_OBS_NAMES = {True: ("obs.ang.w", "obs.ang.b", "obs.vis.w", "obs.vis.b", "obs.fuse.w1",
                     "obs.fuse.b1", "obs.fuse.w2", "obs.fuse.b2"),
              False: ("obs.coupled.w", "obs.coupled.b")}


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

    Under ``nn.no_tape()`` the rows are a pure function of the visual's
    bytes, ``cfg`` (its grid gives the angular block) and the parameters,
    so they come from the ``"panorama"`` entries of the untaped memo
    (``_frozen``), by the visual's bytes; each entry is the read-only rows
    a miss computed.  A taped call neither reads nor fills it.
    """
    want = (cfg.view_grid.k, cfg.vis_dim)
    if visual.shape != want:
        raise ShapeError(f"panorama shape {visual.shape} != {want}")
    vis = nn._as_f64(visual)
    if nn._TAPE_ON:
        return _embed_observation(vis, params, cfg)
    embedded = _frozen(params, cfg)["panorama"]
    seen = vis.tobytes()
    rows = embedded.get(seen)
    if rows is None:
        rows = embedded[seen] = _embed_observation(vis, params, cfg).data
        rows.flags.writeable = False
    return nn.Tensor(rows)


def _embed_observation(vis: np.ndarray, params: nn.ParamStore,
                       cfg: ModelConfig) -> nn.Tensor:
    ang = _grid_views(cfg.view_grid)
    w = [params[k] for k in _OBS_NAMES[cfg.decouple]]
    if not cfg.decouple:
        return nn.linear(nn.Tensor(np.concatenate([ang, vis], axis=-1)), *w)
    branches = [(ang, False, *w[0:2]), (vis, False, *w[2:4])]
    return nn.tape_node(*nn._joined_chain(branches, [tuple(w[4:6]), tuple(w[6:8])]))


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
    query, and read after from the world's memo slot ``("inputs", n)``:
    the same ``math`` floats every time, never recomputed in another form.
    p_i is filled only once a ``geo_embed`` query asks for it, so with
    ``geo_embed`` off the positional lookup never runs.  The slot holds a
    ``(V, V, 7)`` float table and a ``(V, V)`` fill level (0 empty, 1 t_i,
    2 also p_i), indexed by ``graph.index`` of node and candidate: at most
    V * V * 57 bytes per heading count.
    """
    v = len(graph.nodes)
    table, level = _memo(graph, ("inputs", n), None, lambda: (
        np.empty((v, v, 7)), np.zeros((v, v), dtype=np.int8)))
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


def _candidate_rows(inputs: np.ndarray, params: nn.ParamStore,
                    cfg: ModelConfig) -> tuple[np.ndarray, list]:
    """The candidate rows of ``inputs`` (``candidate_inputs``), and each
    term's (x, w, b): row i is (t_i W_edge + b_edge) + (p_i W_pe + b_pe),
    the positional term an exact zero with geo_embed off.  Each term is a
    stacked ``(N, 1, K) @ W``, N vector-matrix products as ``x @ W`` makes
    them (a plain ``(N, K) @ W`` rounds differently), so a row's value does
    not depend on which rows share its batch."""
    terms = [(inputs[:, :4], params["graph.edge.w"], params["graph.edge.b"])]
    if cfg.geo_embed:
        terms.append((inputs[:, 4:], params["graph.pe.w"], params["graph.pe.b"]))
    edge, *pos = [np.matmul(x[:, None, :], w.data)[:, 0] + b.data for x, w, b in terms]
    return edge + (pos[0] if pos else 0.0), terms


def _memo_rows(pg: PathGraph, order, params: nn.ParamStore,
               cfg: ModelConfig) -> np.ndarray:
    """The rows of the candidates ``order`` seen from ``pg.current``, read
    from the world's entry in the untaped memo's ``"rows"`` (``_frozen``),
    a ``(V, V, dim)`` table and its ``(V, V)`` fill flags, held weakly so
    it dies with its world; missing rows are computed by
    ``_candidate_rows`` and kept."""
    graph = pg.graph
    tables = _frozen(params, cfg)["rows"]
    memo = tables.get(graph)
    if memo is None:
        v, width = len(graph.nodes), params["graph.edge.w"].shape[1]
        memo = tables[graph] = np.empty((v, v, width)), np.zeros((v, v), dtype=bool)
    table, filled = memo
    u = graph.index[pg.current]
    cols = np.array([graph.index[c] for c in order], dtype=np.intp)
    rows, done = table[u], filled[u]
    hit = done[cols]
    if not hit.all():
        miss = np.flatnonzero(~hit)
        inputs = candidate_inputs(graph, pg.current, [order[i] for i in miss],
                                  cfg.view_grid.n_headings, cfg.geo_embed)
        rows[cols[miss]] = _candidate_rows(inputs, params, cfg)[0]
        done[cols[miss]] = True
    return rows.take(cols, axis=0)


def build_candidates(pg: PathGraph, params: nn.ParamStore,
                     cfg: ModelConfig) -> tuple[nn.Tensor, list]:
    """One feature row per frontier node (sorted by id) plus the STOP row.

    Row i is (t_i W_edge + b_edge) + (p_i W_pe + b_pe), with t_i and p_i
    the candidate's direction and view offset on ``cfg.view_grid``, read
    from the world's memo (``candidate_inputs``); no panorama is read.
    With geo_embed off the positional term is an exact zero that touches
    no parameter.  The last row is the learned STOP embedding.

    One tape node, bitwise a linear node per term and row
    (``_candidate_rows``); the backward adds each row's terms in row order
    (``Tensor.accumulate_rows``).  Under ``nn.no_tape()`` the parameters
    stay fixed for the walk, so the rows come from the world's table in
    the untaped memo (``_memo_rows``), the very floats ``_candidate_rows``
    gave; a taped walk neither reads nor fills it.
    """
    order = pg.frontier()
    stop = params["graph.stop"]
    if not nn._TAPE_ON:
        rows = _memo_rows(pg, order, params, cfg)
        return nn.Tensor(np.concatenate([rows, stop.data])), order
    inputs = candidate_inputs(pg.graph, pg.current, order,
                              cfg.view_grid.n_headings, cfg.geo_embed)
    rows, terms = _candidate_rows(inputs, params, cfg)

    def backward(g):
        for x, w, b in terms:
            if b.requires_grad:
                b.accumulate_rows(g[:-1])
            if w.requires_grad:
                w.accumulate_rows(x[:, :, None] * g[:-1, None, :])
        stop.accumulate_grad(g[-1].reshape(stop.shape))

    parents = (stop,) + tuple(t for _, w, b in terms for t in (w, b))
    return nn.tape_node(np.concatenate([rows, stop.data]), parents, backward), order


def observation_graph_interaction(f_g: nn.Tensor, f_o: nn.Tensor,
                                  params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    """Candidates attend over panorama rows through the decoder stack.

    Under ``nn.no_tape()`` the output is a pure function of ``f_o``, ``f_g``
    and the parameters, so it comes from the ``"ogi"`` entries of the
    untaped memo (``_frozen``): per panorama, by ``f_o``'s shape and bytes,
    {``f_g`` bytes: output}; each entry is the read-only output the same
    call computed, so a hit is bitwise what the stack would give.  A greedy
    walk repeated under unchanged parameters hits on every call.  A taped
    call neither reads nor fills it.
    """
    if nn._TAPE_ON:
        return _stack(f_g, f_o, "ogi", params, cfg.layers)
    panoramas = _frozen(params, cfg)["ogi"]
    seen = (f_o.data.shape, f_o.data.tobytes())
    calls = panoramas.get(seen)
    if calls is None:
        calls = panoramas[seen] = {}
    query = f_g.data.tobytes()
    out = calls.get(query)
    if out is None:
        out = calls[query] = _stack(f_g, f_o, "ogi", params, cfg.layers).data
        out.flags.writeable = False
    return nn.Tensor(out)


# ------------------------------------------------------------- instruction


def sinusoid_table(m: int, dim: int) -> np.ndarray:
    """Fixed position signal: sin on even columns, cos on odd."""
    pos = np.arange(m)[:, None]
    i = np.arange(dim)[None, :]
    angle = pos / np.power(10000.0, (2 * (i // 2)) / dim)
    table = np.where(i % 2 == 0, np.sin(angle), np.cos(angle))
    return table


def encode_instruction(tokens, params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    h = nn.embedding(list(tokens), params["txt.embed"])
    h = nn.add(h, nn.Tensor(sinusoid_table(len(tokens), cfg.dim)))
    return _stack(h, None, "txt", params, cfg.layers)


def _selector(tokens, cls: str) -> np.ndarray | None:
    """The (1, len(tokens)) row whose product with the token rows is the
    mean of the rows of the tokens of class ``cls`` (``token_class``), or
    None when no token has that class."""
    idx = np.array([token_class(t) == cls for t in tokens], dtype=bool)
    n = int(idx.sum())
    if n == 0:
        return None
    sel = np.zeros((1, len(tokens)))
    sel[0, idx] = 1.0 / n
    return sel


def extract_key_detail(f_i: nn.Tensor, tokens, params: nn.ParamStore,
                       cfg: ModelConfig) -> tuple[np.ndarray, nn.Tensor]:
    """Pooled location/object cues, each projected then fused to the key
    detail f_k, and its single-key attention value, the row f_k W_v.

    ``f_i`` holds one row per id of ``tokens``.  The location cue pools the
    rows of the room tokens, the object cue those of the object tokens
    (``synthenv.TOKEN_CLASSES``); a cue no token carries zeroes its pooled
    block.  A disabled flag leaves the cue only its projection bias, the
    value a zero block times its weight plus the bias gave, matching the
    ablation contract; that weight is not declared, so it is not read.

    Returns f_k's read-only (d,) array and the (1, d) row, one tape node
    bitwise equal to the chain it fuses (``oracle_extract_key_detail`` in
    the tests): per enabled cue the mean ``reshape(matmul(sel,
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
    d = f_i.shape[1]
    sels, branches = [], []   # per cue: selector (None: zero block); (x, x live, w, b)
    for on, cls, cue in ((cfg.loc_detail, "room", "loc"),
                         (cfg.obj_detail, "object", "obj")):
        sel = _selector(tokens, cls) if on else None
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
        for sel, g_x in zip(sels, chain_backward(g_k.reshape(f_k.shape))):
            if g_x is not None:
                f_i.accumulate_grad(sel.T @ g_x.reshape(1, d))

    row = nn.tape_node(nn._affine(k_row, wv, None), parents + (wv,), backward)
    f_k.flags.writeable = False
    return f_k, row


def cross_modal_fusion(g_enh: nn.Tensor, f_i: nn.Tensor,
                       params: nn.ParamStore, cfg: ModelConfig) -> nn.Tensor:
    return _stack(g_enh, f_i, "cmf", params, cfg.layers)


# ----------------------------------------------------------------- scoring


def add_row(f_c: nn.Tensor, row: nn.Tensor) -> nn.Tensor:
    """Every candidate row plus the (1, d) alignment row: one tape node,
    bitwise equal to ``add(f_c, matmul(ones((N_c, 1)), row))``.  With one
    key the attention weights are exactly 1.0, so the forward broadcasts
    the row onto each candidate; the backward sums the rows' gradients as
    that product's gradient, ``ones.T @ g``, which ``g.sum(axis=0)`` does
    not equal bitwise."""
    if row.shape != (1, f_c.shape[1]):
        raise ShapeError(f"alignment row {row.shape} != (1, {f_c.shape[1]})")

    def backward(g):
        if f_c.requires_grad:
            f_c.accumulate_grad(g)
        if row.requires_grad:   # the single key's attention weights, all ones
            row.accumulate_grad(np.ones((g.shape[0], 1)).T @ g)

    return nn.tape_node(f_c.data + row.data, (f_c, row), backward)


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
    return _stack(f_e, None, "sel", params, score=True)


def select_action(scores: np.ndarray, frontier_order, node: int) -> int:
    """The action of the highest score in the array ``scores``, one slot per
    frontier node then STOP (``navgraph.slot_action``); ordering makes ties
    favor the lowest node id and give STOP lowest priority.  A non-finite
    score raises NumericFailure naming ``node``, the walk's current node,
    so every walk, greedy or sampled, fails at the step that made it."""
    if scores.size == 0:
        raise InvalidState("no candidate scores")
    if scores.shape != (len(frontier_order) + 1,):
        raise ShapeError(
            f"{scores.shape[0]} scores for {len(frontier_order)} frontier nodes + STOP")
    if not np.isfinite(scores).all():
        raise NumericFailure(f"non-finite action scores at node {node}")
    return slot_action(frontier_order, int(np.argmax(scores)))


# ---------------------------------------------------------------- pipeline


class EpisodeCache:
    """Reuses, inside one autograd graph, the encodings that stay fixed for
    an episode: the instruction encoding, each node's panorama embedding
    (so each node is rendered at most once per episode), and the key detail
    with its alignment row.

    One cache serves one episode, its teacher and student rollouts alike,
    and is dropped with it: the encoded tensors belong to the loss graph
    they were built in.  ``key_detail`` is the episode's read-only key
    detail array, the one copy (None when both detail flags are off),
    ``align`` the first step's alignment row node, which later steps
    replay, and ``frozen`` the untaped memo of the walk's parameters
    (``_frozen``), looked up on first use.
    ``panoramas``, when given, is a map {bundle: {node: embedding node}}
    that the caches of one graph share (``train`` keeps one per iteration,
    since it must die with its parameter values); a bundle compares by
    identity.
    """

    def __init__(self, panoramas: dict | None = None):
        self.instr: nn.Tensor | None = None
        self.obs: dict[int, nn.Tensor] = {}
        self.key_detail: np.ndarray | None = None
        self.align: nn.Tensor | None = None
        self.frozen: dict | None = None
        self.panoramas = panoramas


def _panorama(env: EnvBundle, node: int, params: nn.ParamStore, cfg: ModelConfig,
              shared: dict | None) -> nn.Tensor:
    """``nn.replay`` of ``node``'s embedding in the ``shared`` map, or the
    panorama rendered and embedded, and kept in the map if one is given."""
    seen = None if shared is None else shared.setdefault(env, {})
    if seen and node in seen:
        return nn.replay(seen[node])
    # positional: the benchmark tracer reads the bundle and node as args
    f_o = decouple_observation(render_observation(env, node, cfg.view_grid), params, cfg)
    if seen is not None:
        seen[node] = f_o
    return f_o


def forward_step(pg: PathGraph, env: EnvBundle, tokens,
                 params: nn.ParamStore, cfg: ModelConfig,
                 cache: EpisodeCache) -> tuple[StepFeatures, int]:
    """Run the full pipeline for one decision step at ``pg.current`` of an
    episode whose instruction is the token ids ``tokens``.  The node's
    panorama is rendered from ``env`` on ``cfg.view_grid`` and embedded on
    its first visit per cache (untaped, the embedding comes from the
    untaped memo, ``decouple_observation``); later visits reuse it.  A
    (bundle, node) that another cache of a shared map (``cache.panoramas``)
    embedded first is ``nn.replay`` of that node: bitwise the cache's own
    embedding, since the node's parents are leaves (the ``obs.*``
    parameters, a constant), so each replay's backward runs with its own
    episode's gradient.  A chain of nodes must never be shared so.

    ``cache`` is shared by the episode's steps: the first computes the key
    detail, kept in ``cache.key_detail``, and its alignment row, as one
    node.  Every later step gets ``nn.replay`` of that node: a new node with
    its data, parents and backward, so each step's gradient still reaches
    f_i, ``enh.wv`` and the ``kd.*`` parameters on its own, at the step's
    place in the backward walk, as a per-step rebuild gave it.  One tracked
    tensor shared by the steps would sum their gradients first and change
    the last bits.  An untaped walk looks up its memo once per cache, not
    once per step (``_frozen``).
    """
    global _WALK
    outer, _WALK = _WALK, cache
    try:
        f_o = cache.obs.get(pg.current)
        if f_o is None:
            f_o = cache.obs[pg.current] = _panorama(env, pg.current, params, cfg,
                                                    cache.panoramas)

        f_g, order = build_candidates(pg, params, cfg)
        g_enh = observation_graph_interaction(f_g, f_o, params, cfg)

        f_i = cache.instr
        if f_i is None:
            f_i = cache.instr = encode_instruction(tokens, params, cfg)

        row = None
        if cfg.loc_detail or cfg.obj_detail:
            if cache.align is not None:
                row = nn.replay(cache.align)
            else:
                cache.key_detail, row = extract_key_detail(f_i, tokens, params, cfg)
                cache.align = row
        f_c = cross_modal_fusion(g_enh, f_i, params, cfg)
        scores = enhance_and_score(f_c, row, params, cfg)
        return StepFeatures(scores=scores), select_action(scores.data, order,
                                                          pg.current)
    finally:
        _WALK = outer
