"""Tape ops that only tests use.  They build their nodes through
``nn.tape_node`` like the library's own ops, and test_nn checks their
gradients by finite differences.

- ``sub``, ``mul`` and ``tsum`` build test losses.
- ``relu``, ``softmax`` and ``transpose`` are the parts of
  ``oracle_mlp`` and ``oracle_attention``: the node-per-op compositions
  that ``nn.mlp`` and ``nn.attention`` fuse.  ``_masked_mean`` is the part
  of ``oracle_key_detail``, the chain ``model.extract_key_detail`` fuses.
  The fused ops must match them bitwise, values and every gradient.
"""

from typing import Sequence

import numpy as np

from oikg import nn
from oikg.errors import ShapeError


def sub(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(nn._unbroadcast(g, a.shape))
        if b.requires_grad:
            b.accumulate_grad(nn._unbroadcast(-g, b.shape))

    return nn.tape_node(a.data - b.data, (a, b), backward)


def mul(a: nn.Tensor, b: nn.Tensor) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(nn._unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            b.accumulate_grad(nn._unbroadcast(g * a.data, b.shape))

    return nn.tape_node(a.data * b.data, (a, b), backward)


def tsum(a: nn.Tensor) -> nn.Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(np.full(a.shape, float(g)))

    return nn.tape_node(a.data.sum(), (a,), backward)


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


def oracle_mlp(x: nn.Tensor, layers) -> nn.Tensor:
    """``nn.mlp`` as a chain of ``linear`` and ``relu`` nodes."""
    h = x
    for i, (w, b) in enumerate(layers):
        h = nn.linear(h, w, b)
        if i + 1 < len(layers):
            h = relu(h)
    return h


def oracle_attention(q, k, v, wq, wk, wv, wo, heads: int) -> nn.Tensor:
    """``nn.attention`` as 17 nodes: four projections, reshapes and
    transposes around two head-batched matmuls, a scale and a softmax."""
    n, dm = q.shape
    m = k.shape[0]
    dh = dm // heads

    def split(t: nn.Tensor, rows: int) -> nn.Tensor:
        # (rows, dm) -> (heads, rows, dh)
        return transpose(nn.reshape(t, (rows, heads, dh)), (1, 0, 2))

    qh = split(nn.linear(q, wq), n)
    kh = split(nn.linear(k, wk), m)
    vh = split(nn.linear(v, wv), m)
    scores = nn.scale(nn.matmul(qh, transpose(kh, (0, 2, 1))), 1.0 / np.sqrt(dh))
    weights = softmax(scores, axis=-1)
    mixed = nn.matmul(weights, vh)
    merged = nn.reshape(transpose(mixed, (1, 0, 2)), (n, dm))
    return nn.linear(merged, wo)


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
    return nn.reshape(nn.matmul(nn.Tensor(sel), f_i), (f_i.shape[1],))


def oracle_key_detail(f_i, loc_mask, obj_mask, params, cfg) -> nn.Tensor:
    """``model.extract_key_detail`` as eight nodes: per cue a masked mean
    (``matmul`` and ``reshape``) and a ``linear``, then ``concat`` and the
    fuse ``linear``.  A disabled cue is an untracked zero block."""
    f_loc = (_masked_mean(f_i, loc_mask) if cfg.loc_detail
             else nn.Tensor(np.zeros(cfg.dim)))
    f_obj = (_masked_mean(f_i, obj_mask) if cfg.obj_detail
             else nn.Tensor(np.zeros(cfg.dim)))
    e_loc = nn.linear(f_loc, params["kd.loc.w"], params["kd.loc.b"])
    e_obj = nn.linear(f_obj, params["kd.obj.w"], params["kd.obj.b"])
    return nn.linear(nn.concat([e_loc, e_obj], axis=-1),
                     params["kd.fuse.w"], params["kd.fuse.b"])
