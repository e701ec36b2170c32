"""Tape ops that only tests use.  They build their nodes through
``nn.tape_node`` like the library's own ops, and test_nn checks their
gradients by finite differences.

- ``sub``, ``mul`` and ``tsum`` build test losses; ``sub``, ``mul`` and
  ``bias_add`` broadcast, summing the gradient back over broadcast axes
  (``unbroadcast``), where ``nn.add`` takes equal shapes only.
- ``matmul``, ``reshape``, ``relu``, ``softmax``, ``transpose`` and
  ``concat`` are the parts of the node-per-op compositions that the
  library's fused nodes replace.  The fused ops must match them bitwise,
  values and every gradient:
  - ``oracle_mlp`` and ``oracle_attention``, what the MLP chain and the
    attention core compute; ``mlp`` (one node) and ``attention`` (three)
    run those two implementations as ops of their own;
  - ``oracle_residual_block``, ``nn.residual_block`` (decoder block and
    scoring head);
  - ``oracle_decouple_observation``, ``model.decouple_observation``;
  - ``oracle_extract_key_detail``, ``model.extract_key_detail``: the
    chain ``oracle_key_detail`` (with its part ``_masked_mean``) and
    ``oracle_alignment_row``;
  - ``oracle_add_row``, ``model.add_row``;
  - ``oracle_mean``, ``nn.mean``.
"""

from typing import Sequence

import numpy as np

from oikg import model, nn
from oikg.errors import InvalidArgument, ShapeError


def unbroadcast(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum g over axes that were broadcast to reach its shape."""
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for ax, n in enumerate(shape):
        if n == 1 and g.shape[ax] != 1:
            g = g.sum(axis=ax, keepdims=True)
    return g


def sub(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(unbroadcast(-g, b.shape))

    return nn.tape_node(a.data - b.data, (a, b), backward)


def mul(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(unbroadcast(g * a.data, b.shape))

    return nn.tape_node(a.data * b.data, (a, b), backward)


def bias_add(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    """a + b with b broadcast: the add that ``nn.linear`` fuses."""
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(unbroadcast(g, b.shape))

    return nn.tape_node(a.data + b.data, (a, b), backward)


def tsum(a: nn.Tensor) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full(a.shape, float(g)))

    return nn.tape_node(a.data.sum(), (a,), backward)


def matmul(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    """Matrix product for 1D@2D, 2D@2D, and batch-matched 3D@3D operands."""
    an, bn = a.data.ndim, b.data.ndim
    if (an, bn) not in ((1, 2), (2, 2), (3, 3)):
        raise ShapeError(f"unsupported matmul ranks {an}@{bn}")
    if a.shape[-1] != b.shape[-2] or (an == 3 and a.shape[0] != b.shape[0]):
        raise ShapeError(f"matmul shape mismatch {a.shape} @ {b.shape}")

    def backward(g):
        if an == 1:
            if a.requires_grad:
                a.accumulate_grad(b.data @ g)
            if b.requires_grad:
                b.accumulate_grad(np.outer(a.data, g))
        elif an == 2:
            if a.requires_grad:
                a.accumulate_grad(g @ b.data.T)
            if b.requires_grad:
                b.accumulate_grad(a.data.T @ g)
        else:
            if a.requires_grad:
                a.accumulate_grad(g @ b.data.transpose(0, 2, 1))
            if b.requires_grad:
                b.accumulate_grad(a.data.transpose(0, 2, 1) @ g)

    return nn.tape_node(a.data @ b.data, (a, b), backward)


def reshape(a: nn.Tensor, shape) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.reshape(a.shape))

    return nn.tape_node(a.data.reshape(shape), (a,), backward)


def relu(a: nn.Tensor) -> nn.Tensor:
    mask = a.data > 0.0

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * mask)

    return nn.tape_node(np.maximum(a.data, 0.0), (a,), backward)


def transpose(a: nn.Tensor, axes: Sequence[int]) -> nn.Tensor:
    axes = tuple(axes)
    inv = tuple(np.argsort(axes))

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g.transpose(inv))

    return nn.tape_node(a.data.transpose(axes), (a,), backward)


def concat(parts: Sequence[nn.Tensor], axis: int = -1) -> nn.Tensor:
    if not parts:
        raise InvalidArgument("concat needs at least one tensor")
    sizes = [p.shape[axis] for p in parts]
    offsets = np.cumsum([0] + sizes)

    def backward(g):
        for p, lo, hi in zip(parts, offsets[:-1], offsets[1:]):
            if p.requires_grad:
                idx = [slice(None)] * g.ndim
                idx[axis] = slice(lo, hi)
                p.accumulate_grad(g[tuple(idx)])

    return nn.tape_node(np.concatenate([p.data for p in parts], axis=axis), parts, backward)


def softmax(a: nn.Tensor, axis: int = -1) -> nn.Tensor:
    """Numerically stable softmax: rows sum to 1, invariant to per-row shifts."""
    z = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=axis, keepdims=True)

    def backward(g):
        if a.requires_grad:
            dot = (g * p).sum(axis=axis, keepdims=True)
            a.accumulate_grad((g - dot) * p)

    return nn.tape_node(p, (a,), backward)


# ------------------------------------------- the library's parts as ops


def mlp(x: nn.Tensor, layers) -> nn.Tensor:
    """The library's MLP chain as one node over (x, each w and b)."""
    out, chain_backward = nn._mlp_chain(x.data, layers)

    def backward(g):
        g_x = chain_backward(g)
        if x.requires_grad:
            x.accumulate_grad(g_x)

    parents = (x,) + tuple(t for layer in layers for t in layer)
    return nn.tape_node(out, parents, backward)


def attention(q, k, v, wq, wk, wv, wo, heads: int) -> nn.Tensor:
    """The library's attention core as three nodes: ``linear(k, wk)``,
    ``linear(v, wv)`` and one core node with parents (q, K, V, wq, wo)."""
    nn._check_attention(q.shape, k.shape, (wq, wk, wv, wo), heads)
    if v.shape != k.shape:
        raise ShapeError(f"attention value shape {v.shape} != key shape {k.shape}")
    k_proj, v_proj = nn.linear(k, wk), nn.linear(v, wv)
    out, backward = nn._attention_core(q, k_proj, v_proj, wq, wo, heads)
    return nn.tape_node(out, (q, k_proj, v_proj, wq, wo), backward)


# ------------------------------------------------------------ oracles


def oracle_mlp(x: nn.Tensor, layers) -> nn.Tensor:
    """The MLP chain as a chain of ``linear`` and ``relu`` nodes."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = nn.linear(h, w, b)
        if i + 1 < len(layers):
            h = relu(h)
    return h


def oracle_attention(q, k, v, wq, wk, wv, wo, heads: int) -> nn.Tensor:
    """Attention as 17 nodes: four projections, reshapes and transposes
    around two head-batched matmuls, a scale and a softmax."""
    n, dm = q.shape
    m = k.shape[0]
    dh = dm // heads

    def split(t: nn.Tensor, rows: int) -> nn.Tensor:
        # (rows, dm) -> (heads, rows, dh)
        return transpose(reshape(t, (rows, heads, dh)), (1, 0, 2))

    qh = split(nn.linear(q, wq), n)
    kh = split(nn.linear(k, wk), m)
    vh = split(nn.linear(v, wv), m)
    scores = nn.scale(matmul(qh, transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(dh))
    weights = softmax(scores, axis=-1)
    mixed = matmul(weights, vh)
    merged = reshape(transpose(mixed, (1, 0, 2)), (n, dm))
    return nn.linear(merged, wo)


def oracle_residual_block(h, kv, attn, layers, heads: int, score: bool = False) -> nn.Tensor:
    """``nn.residual_block`` node per op: attention, add, MLP, then add (a
    decoder block) or reshape to one score per row (a scoring head)."""
    h1 = nn.add(h, oracle_attention(h, kv, kv, *attn, heads))
    m = oracle_mlp(h1, layers)
    return reshape(m, (m.shape[0],)) if score else nn.add(h1, m)


def oracle_decouple_observation(visual, params, cfg) -> nn.Tensor:
    """``model.decouple_observation`` node per op: a ``linear`` per block,
    their ``concat`` and the fuse MLP; or, decoupling off, the ``concat``
    of the raw blocks and one ``linear``."""
    ang_t = nn.Tensor(model._grid_views(cfg.view_grid))
    vis_t = nn.Tensor(visual)
    if not cfg.decouple:
        return nn.linear(concat([ang_t, vis_t], axis=-1),
                         params["obs.coupled.w"], params["obs.coupled.b"])
    e_a = nn.linear(ang_t, params["obs.ang.w"], params["obs.ang.b"])
    e_v = nn.linear(vis_t, params["obs.vis.w"], params["obs.vis.b"])
    return oracle_mlp(concat([e_a, e_v], axis=-1),
                      [(params["obs.fuse.w1"], params["obs.fuse.b1"]),
                       (params["obs.fuse.w2"], params["obs.fuse.b2"])])


def _masked_mean(f_i: nn.Tensor, mask) -> nn.Tensor:
    """Arithmetic mean of the masked rows (constant selector, so grads flow)."""
    idx = np.asarray(mask, dtype=bool)
    if idx.shape != (f_i.shape[0],):
        raise ShapeError(f"mask length {idx.shape} != token count {f_i.shape[0]}")
    n = int(idx.sum())
    if n == 0:
        return nn.Tensor(np.zeros(f_i.shape[1]))
    sel = np.zeros((1, f_i.shape[0]))
    sel[0, idx] = 1.0 / n
    return reshape(matmul(nn.Tensor(sel), f_i), (f_i.shape[1],))


def oracle_key_detail(f_i, loc_mask, obj_mask, params, cfg) -> nn.Tensor:
    """``model.extract_key_detail`` as a node chain: per enabled cue a
    masked mean (``matmul`` and ``reshape``) and a ``linear``, per disabled
    cue its bias added to an untracked zero block, then ``concat`` and the
    fuse ``linear``."""
    blocks = []
    for on, mask, cue in ((cfg.loc_detail, loc_mask, "loc"),
                          (cfg.obj_detail, obj_mask, "obj")):
        b = params[f"kd.{cue}.b"]
        blocks.append(nn.linear(_masked_mean(f_i, mask), params[f"kd.{cue}.w"], b)
                      if on else nn.add(nn.Tensor(np.zeros(cfg.dim)), b))
    return nn.linear(concat(blocks, axis=-1),
                     params["kd.fuse.w"], params["kd.fuse.b"])


def oracle_alignment_row(f_k, params) -> nn.Tensor:
    """The key detail's alignment row as the ``reshape`` of f_k to a row
    and its ``matmul`` with ``enh.wv``; f_k keeps its own node."""
    return matmul(reshape(f_k, (1, f_k.shape[0])), params["enh.wv"])


def oracle_extract_key_detail(f_i, loc_mask, obj_mask, params, cfg):
    """``model.extract_key_detail`` as a node chain: f_k's array and the
    row ``oracle_alignment_row(oracle_key_detail(...))``."""
    f_k = oracle_key_detail(f_i, loc_mask, obj_mask, params, cfg)
    return f_k.data, oracle_alignment_row(f_k, params)


def oracle_add_row(f_c, row) -> nn.Tensor:
    """``model.add_row`` as the single key's all-ones weights times the row,
    then an ``add``."""
    weights = nn.Tensor(np.ones((f_c.shape[0], 1)))
    return nn.add(f_c, matmul(weights, row))


def oracle_mean(terms) -> nn.Tensor:
    """``nn.mean`` as a left-to-right chain of ``add`` nodes and a ``scale``."""
    total = terms[0]
    for t in terms[1:]:
        total = nn.add(total, t)
    return nn.scale(total, 1.0 / len(terms))
