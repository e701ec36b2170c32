"""Minimal dense-tensor numerics with reverse-mode gradients.

Everything is 64-bit float and deterministic: same inputs give bitwise
identical outputs.  The engine is a flat tape of ``Tensor`` nodes, vectors
and matrices; each op records a closure that routes the output gradient
back into its parents.  Inside ``no_tape()`` ops record nothing: their
outputs are untracked values, bitwise the same as with the tape on.

A closure saves only the arrays its backward reads, each once.  ``backward``
frees each node's gradient and closure as its walk passes the node, so a
graph is single-use: a second walk through any of its nodes raises.
"""

import itertools
import math
from contextlib import contextmanager
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    IncompatibleCheckpoint,
    InvalidArgument,
    InvalidState,
    NumericFailure,
    ShapeError,
)
from .rng import substream

_TAPE_ON = True

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8   # optimizer_step's moments
_EPOCHS = itertools.count(1)  # one stamp per backward pass marks visited nodes
_F64 = np.dtype(np.float64)   # the dtype of every native float64 array


def _released(g):
    raise InvalidState("backward already ran through this node; rebuild the loss first")


def _as_f64(data) -> np.ndarray:
    if type(data) is np.ndarray and data.dtype is _F64 and data.flags.c_contiguous:
        return data   # what np.asarray returns for it, without the call
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keep 0-d scalars 0-d
    return arr


class Tensor:
    """Shape-tagged float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_epoch")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _as_f64(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._epoch = 0

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        """Add g, of exactly the data's shape, into ``grad``; any other
        shape raises ``ShapeError`` instead of broadcasting."""
        if g.shape != self.data.shape:
            raise ShapeError(f"gradient shape {g.shape} != tensor shape {self.data.shape}")
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def accumulate_rows(self, terms: np.ndarray) -> None:
        """``accumulate_grad`` of terms[0], terms[1], ... in order, bitwise:
        one reduce over axis 0 from the gradient so far, or from -0.0, the
        exact additive identity.  numpy sums one-element slices pairwise
        instead, so those raise."""
        if self.data.size == 1:
            raise ShapeError("an ordered reduce needs rows wider than one element")
        if not len(terms):
            return
        if self.grad is None:
            self.grad = np.add.reduce(terms, axis=0, initial=-0.0)
        else:
            self.grad = np.add.reduce(np.concatenate([self.grad[None], terms]), axis=0)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


@contextmanager
def no_tape():
    """Ops inside the scope build no graph, so nothing can backpropagate
    through their outputs; the previous setting returns on exit."""
    global _TAPE_ON
    prev = _TAPE_ON
    _TAPE_ON = False
    try:
        yield
    finally:
        _TAPE_ON = prev


def tape_node(data, parents, backward) -> Tensor:
    """The output of one op: tracked, with ``backward(g)`` routing the output
    gradient into its tracked parents, when the tape is on and any parent is
    tracked; otherwise a plain value.  Ops outside this module build their
    tape nodes through it too."""
    if _TAPE_ON:
        for p in parents:
            if p.requires_grad:
                return Tensor(data, True, tuple(parents), backward)
    return Tensor(data)


def replay(node: Tensor) -> Tensor:
    """A new node with ``node``'s data, parents and backward, so a value
    computed once serves several consumers that each keep their own
    gradient: the walk runs the backward once per node, each time with that
    node's gradient, where a shared node would sum the gradients first.  An
    untracked ``node``, or any node inside ``no_tape()``, is returned as it
    is, since nothing backpropagates through it."""
    if not (_TAPE_ON and node.requires_grad):
        return node
    return tape_node(node.data, node._parents, node._backward)


# ---------------------------------------------------------------- basic ops


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum of two tensors of one shape; any other pair raises
    ``ShapeError`` instead of broadcasting."""
    if a.shape != b.shape:
        raise ShapeError(f"add shape mismatch {a.shape} + {b.shape}")

    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g)
        if b.requires_grad:
            b.accumulate_grad(g)

    return tape_node(a.data + b.data, (a, b), backward)


def scale(a: Tensor, s: float) -> Tensor:
    def backward(g):
        if a.requires_grad:
            a.accumulate_grad(g * s)

    return tape_node(a.data * s, (a,), backward)


def embedding(ids: Sequence[int], table: Tensor) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]."""
    idx = np.asarray(ids, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError("embedding ids must be a 1-D sequence")
    if idx.size and (idx.min() < 0 or idx.max() >= table.shape[0]):
        raise InvalidArgument(f"token id out of vocabulary (size {table.shape[0]})")

    def backward(g):
        if table.requires_grad:
            dT = np.zeros_like(table.data)
            np.add.at(dT, idx, g)
            table.accumulate_grad(dT)

    return tape_node(table.data[idx], (table,), backward)


def _check_linear(x_shape: tuple, w: Tensor, b: Tensor | None) -> None:
    if len(x_shape) not in (1, 2):
        raise ShapeError(f"linear input must be 1-D or 2-D, got {x_shape}")
    w_shape = w.data.shape
    if len(w_shape) != 2:
        raise ShapeError(f"linear weight must be 2-D, got {w_shape}")
    if x_shape[-1] != w_shape[0]:
        raise ShapeError(f"linear shape mismatch {x_shape} @ {w_shape}")
    if b is not None and b.data.shape != (w_shape[1],):
        raise ShapeError(f"bias shape {b.shape} != ({w_shape[1]},)")


def _affine(x: np.ndarray, w: Tensor | None, b: Tensor | None) -> np.ndarray:
    """x @ w + b, checked, for 1-D or 2-D x: the forward of every fused
    linear map.  Without b there is no bias; without w there is no input,
    and the block is b's own array, which the caller must copy before the
    tape keeps it (``_joined_chain`` concatenates it)."""
    if w is None:
        return b.data
    _check_linear(x.shape, w, b)
    out = x @ w.data
    return out if b is None else out + b.data


def _affine_backward(x: np.ndarray, w: Tensor | None, b: Tensor | None,
                     g: np.ndarray, x_live: bool) -> np.ndarray | None:
    """The one gradient of ``_affine``, in the order of ``linear``'s node:
    the bias term, then x's gradient (returned, None unless ``x_live``),
    then the weight term."""
    vector = g.ndim == 1
    if b is not None and b.requires_grad:
        b.accumulate_grad(g if vector else np.add.reduce(g, axis=0))
    g_x = (w.data @ g if vector else g @ w.data.T) if x_live else None
    if w is not None and w.requires_grad:
        w.accumulate_grad(np.outer(x, g) if vector else x.T @ g)
    return g_x


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """y = x @ w + b for 1-D or 2-D x, the bias broadcast over rows; one
    tape node, bitwise equal to ``add(matmul(x, w), b)``."""
    def backward(g):
        g_x = _affine_backward(x.data, w, b, g, x.requires_grad)
        if g_x is not None:
            x.accumulate_grad(g_x)

    return tape_node(_affine(x.data, w, b), (x, w) if b is None else (x, w, b), backward)


def _mlp_forward(x: np.ndarray, layers: Sequence[tuple[Tensor, Tensor]]) -> tuple:
    """The one implementation of an MLP's arithmetic: linear layers with
    ReLU between them, the last layer linear, each layer checked.  Returns
    each layer's input, after the ReLU below it, and the output."""
    if not layers:
        raise InvalidArgument("mlp needs at least one layer")
    ins, h = [], x
    for i, (w, b) in enumerate(layers):
        ins.append(np.maximum(h, 0.0) if i else h)
        h = _affine(ins[-1], w, b)
    return ins, h


def _mlp_backward(ins: list, layers: Sequence[tuple[Tensor, Tensor]],
                  g: np.ndarray) -> np.ndarray:
    """The gradient of ``_mlp_forward``, whose layer inputs are ``ins``:
    adds into each tracked bias and weight, last layer first, and returns
    the gradient of x, after the first layer's weight term.

    With the forward, bitwise equal to the chain of ``linear`` and ReLU
    nodes (``oracle_mlp`` in the tests): the forward makes the chain's numpy
    calls, and this replays its arrays in the chain's order.  Every layer's
    weight is a parameter, so the whole chain runs; a ReLU passes the
    gradient where the next layer's input, ``max(h, 0)``, is positive.
    """
    for i in reversed(range(len(layers))):
        g = _affine_backward(ins[i], *layers[i], g, True)
        if i:
            g = g * (ins[i] > 0.0)   # through the ReLU below
    return g


def _joined_chain(branches: Sequence[tuple], layers: Sequence[tuple[Tensor, Tensor]]):
    """Blocks embedded apart, joined, then an MLP chain: each branch
    ``(x, x_live, w, b)`` is ``_affine(x, w, b)``, the blocks are
    concatenated on the last axis and run through the MLP.  Returns
    the output, the weights and biases it reads, in order, and
    ``backward(g)``, which runs the chain, then each branch in order, and
    returns the list of the branches' x gradients (None where x is not
    live: a constant block).

    Bitwise equal to a ``linear`` node per branch (a bias add for a branch
    without w), a ``concat`` node and the chain's nodes, whose backward the
    walk runs in that order: the chain, then the first branch, then the
    next.
    """
    embedded = [_affine(x, w, b) for x, _, w, b in branches]
    offsets = list(itertools.accumulate((e.shape[-1] for e in embedded), initial=0))
    ins, out = _mlp_forward(np.concatenate(embedded, axis=-1), layers)

    def backward(g):
        g_c = _mlp_backward(ins, layers, g)
        return [_affine_backward(x, w, b, g_c[..., lo:hi], x_live)
                for (x, x_live, w, b), lo, hi in zip(branches, offsets[:-1], offsets[1:])]

    weights = tuple(t for *_, w, b in branches for t in (w, b) if t is not None)
    return out, weights + tuple(t for layer in layers for t in layer), backward


def _head_major(k: np.ndarray, v: np.ndarray, heads: int) -> tuple:
    """K's (heads, dh, m) and V's (heads, m, dh) copies for the attention core."""
    m, dm = k.shape
    return (np.ascontiguousarray(k.reshape(m, heads, dm // heads).transpose(1, 2, 0)),
            np.ascontiguousarray(v.reshape(m, heads, dm // heads).transpose(1, 0, 2)))


def _attention_forward(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                       wq: np.ndarray, wo: np.ndarray, heads: int) -> tuple:
    """The one implementation of multi-head scaled dot-product attention's
    arithmetic after the K and V projections k and v: per head
    softmax(QWq K^T / sqrt(dm/h)) V, heads concatenated and projected by
    wo.  Returns the head-major queries, the weights, the merged heads and
    the (n, dm) output."""
    n, dm = q.shape
    dh = dm // heads
    # (rows, dm) -> (heads, rows, dh), laid out as a transpose node's data;
    # K goes straight to its (heads, dh, m) transpose, the same copy
    qh = np.ascontiguousarray((q @ wq).reshape(n, heads, dh).transpose(1, 0, 2))
    kt, vh = _head_major(k, v, heads)
    scores = (qh @ kt) * (1.0 / math.sqrt(dh))
    z = scores - np.maximum.reduce(scores, axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / np.add.reduce(e, axis=-1, keepdims=True)  # (heads, n, m), rows sum to 1
    merged = np.ascontiguousarray((p @ vh).transpose(1, 0, 2)).reshape(n, dm)
    return qh, p, merged, merged @ wo


def _attention_backward(x: np.ndarray, k: np.ndarray, v: np.ndarray, fwd: tuple,
                        wq: Tensor, wo: Tensor, heads: int, g: np.ndarray,
                        live: tuple) -> tuple:
    """The gradient of ``_attention_forward(x, k, v, ...)``, whose queries,
    weights and merged heads are ``fwd``: adds into wo, then wq, and returns
    the gradients of x (the query's term), K and V, each None where its
    flag in ``live`` is false.  With the forward, bitwise equal to the
    17-node composition of projections, reshapes, transposes, matmuls,
    scale and softmax (``oracle_attention`` in the tests), on the same
    memory layouts; K's and V's gradients come back C-contiguous, as a
    node's ``accumulate_grad`` copy held them."""
    qh, p, merged = fwd
    n, dm = x.shape
    m = k.shape[0]
    dh = dm // heads
    kt, vh = _head_major(k, v, heads)
    g_merged = g @ wo.data.T
    if wo.requires_grad:
        wo.accumulate_grad(merged.T @ g)
    g_mixed = g_merged.reshape(n, heads, dh).transpose(1, 0, 2)
    g_p = g_mixed @ vh.transpose(0, 2, 1)
    dot = np.add.reduce(g_p * p, axis=-1, keepdims=True)
    g_scores = (g_p - dot) * p * (1.0 / math.sqrt(dh))
    g_q = (g_scores @ kt.transpose(0, 2, 1)).transpose(1, 0, 2).reshape(n, dm)
    x_live, k_live, v_live = live
    g_x = g_q @ wq.data.T if x_live else None
    if wq.requires_grad:
        wq.accumulate_grad(x.T @ g_q)
    g_k = np.ascontiguousarray((qh.transpose(0, 2, 1) @ g_scores)
                               .transpose(2, 0, 1).reshape(m, dm)) if k_live else None
    g_v = np.ascontiguousarray((p.transpose(0, 2, 1) @ g_mixed)
                               .transpose(1, 0, 2).reshape(m, dm)) if v_live else None
    return g_x, g_k, g_v


def _check_attention(q_shape: tuple, kv_shape: tuple, attn, heads: int) -> None:
    n, dm = q_shape
    if len(kv_shape) != 2 or kv_shape[1] != dm:
        raise ShapeError(f"attention key/value shape {kv_shape} != (m, {dm})")
    if dm % heads != 0:
        raise ShapeError(f"model dim {dm} not divisible by {heads} heads")
    wq, wk, wv, wo = attn
    square, wo_shape = (dm, dm), wo.data.shape
    if (wq.data.shape != square or wk.data.shape != square or wv.data.shape != square
            or len(wo_shape) != 2 or wo_shape[0] != dm):
        raise ShapeError(f"attention weights {wq.shape}/{wk.shape}/{wv.shape}/{wo.shape} "
                         f"do not fit width {dm}")


def _block_out(h1: np.ndarray, m: np.ndarray, score: bool) -> np.ndarray:
    """A residual block's output from h1 and its MLP output m: h1 + m, or a
    scoring head's one score per row."""
    if not score:
        if m.shape != h1.shape:
            raise ShapeError(f"a block's MLP output {m.shape} != its input {h1.shape}")
        return h1 + m
    if m.shape[1] != 1:
        raise ShapeError(f"a scoring head's last layer must be 1 wide, got {m.shape[1]}")
    return m.reshape(m.shape[0])


def residual_stack(h: Tensor, kv: Tensor | None, blocks: Sequence[tuple],
                   heads: int, score: bool = False) -> Tensor:
    """Residual attention + MLP blocks as one tape node.  Block l maps its
    input x (h, then the block before's output) to h1 = x + attention(x, s,
    s), then h1 + mlp(h1), with s = ``kv``, or x itself when ``kv`` is None
    (self-attention).  ``blocks`` holds per block ((wq, wk, wv, wo), the
    MLP's (w, b) pairs).  With ``score`` the last block is a scoring head:
    mlp(h1), one wide, flattened to one score per row.

    Bitwise equal to the tape of per-block K and V ``linear`` nodes and
    block nodes (``oracle_residual_block`` in the tests) whenever h's
    ancestry does not read kv, as in the model (ogi's h is the candidate
    rows, cmf's the ogi output).  The backward runs the blocks last to
    first, each in that tape's order: the second add, the MLP, the first
    add's term into the block input, the attention core (wo, the query's
    term, wq).  K's terms (wk, then the input) and V's follow at once in
    self-attention; in cross-attention they wait until every block has run,
    then go in block order, since the tape reached block l's K and V nodes
    only after the query's ancestry.  h and kv take each term through
    ``accumulate_grad``; a block input inside the stack sums its terms in a
    copy of the first.  The parents are (h, kv, weights), so the walk
    reaches kv before h, as it did through the last block's V node.  Under
    ``no_tape()`` the same forwards run, with every check, and no node or
    closure is built.
    """
    if not blocks:
        raise InvalidArgument("a residual stack needs at least one block")
    taped, last = _TAPE_ON, len(blocks) - 1
    x, saved = h.data, []
    for i, (attn, layers) in enumerate(blocks):
        src = x if kv is None else kv.data
        _check_attention(x.shape, src.shape, attn, heads)
        wq, wk, wv, wo = attn
        k, v = src @ wk.data, src @ wv.data
        *fwd, a = _attention_forward(x, k, v, wq.data, wo.data, heads)
        h1 = x + a
        ins, m = _mlp_forward(h1, layers)
        if taped:
            saved.append((x, k, v, fwd, ins))
        x = _block_out(h1, m, score and i == last)
    if not taped:
        return Tensor(x)

    def backward(g):
        deferred = []   # cross-attention: per block, last first, K's and V's terms
        for i in reversed(range(len(blocks))):
            (wq, wk, wv, wo), layers = blocks[i]
            x, k, v, fwd, ins = saved[i]
            head = score and i == last
            g_in = _mlp_backward(ins, layers, g.reshape(-1, 1) if head else g)
            g_h1 = g_in if head else g + g_in   # second add's term + MLP's
            x_live = i > 0 or h.requires_grad
            src_live = x_live if kv is None else kv.requires_grad
            g_q, g_k, g_v = _attention_backward(
                x, k, v, fwd, wq, wo, heads, g_h1,
                (x_live, src_live or wk.requires_grad, src_live or wv.requires_grad))
            terms = [g_h1, g_q]
            proj = [(w, g_s) for w, g_s in ((wk, g_k), (wv, g_v)) if g_s is not None]
            if kv is None:
                terms += [_affine_backward(x, w, None, g_s, x_live) for w, g_s in proj]
            else:
                deferred.append(proj)
            if i:
                g = terms[0].copy()
                for t in terms[1:]:
                    g += t
            elif h.requires_grad:
                for t in terms:
                    h.accumulate_grad(t)
        for proj in reversed(deferred):
            for w, g_s in proj:
                g_x = _affine_backward(kv.data, w, None, g_s, kv.requires_grad)
                if g_x is not None:
                    kv.accumulate_grad(g_x)

    weights = tuple(t for attn, layers in blocks
                    for t in (*attn, *(t for layer in layers for t in layer)))
    return tape_node(x, (h,) + ((kv,) if kv is not None else ()) + weights, backward)


def mean(terms: Sequence[Tensor]) -> Tensor:
    """The mean of same-shape tensors: their left-to-right sum times 1/n.

    One tape node, bitwise equal to the chain of ``add`` nodes and the
    ``scale`` it fuses (``oracle_mean`` in the tests).  The chain's nodes
    run back to back in the backward walk, and each passes on the gradient
    the scale gave the sum, so every term receives that one array.
    """
    if not terms:
        raise InvalidArgument("mean needs at least one tensor")
    if any(t.shape != terms[0].shape for t in terms):
        raise ShapeError(f"mean of shapes {[t.shape for t in terms]}")
    s = 1.0 / len(terms)
    total = terms[0].data
    for t in terms[1:]:
        total = total + t.data

    def backward(g):
        g = g * s
        for t in terms:
            if t.requires_grad:
                t.accumulate_grad(g)

    return tape_node(total * s, tuple(terms), backward)


def cross_entropy(logits: Tensor, target: int) -> Tensor:
    """-log softmax(logits)[target] for a 1-D logit vector."""
    if logits.data.ndim != 1:
        raise ShapeError(f"cross_entropy expects 1-D logits, got {logits.shape}")
    m = logits.shape[0]
    if not 0 <= int(target) < m:
        raise InvalidArgument(f"target {target} out of range for {m} logits")
    z = logits.data - np.maximum.reduce(logits.data, axis=None)
    lse = np.log(np.add.reduce(np.exp(z), axis=None))
    loss = lse - z[int(target)]
    p = np.exp(z - lse)

    def backward(g):
        if logits.requires_grad:
            d = p.copy()
            d[int(target)] -= 1.0
            logits.accumulate_grad(d * float(g))

    return tape_node(loss, (logits,), backward)


# ------------------------------------------------------------- autodiff core


def backward(loss: Tensor) -> None:
    """Populate .grad on every tracked leaf (parameter, or input with no
    backward) reachable from a scalar loss.  Each node the walk passes is
    freed: its ``grad`` and its closure, with every array saved, go, while
    ``data`` and ``_parents`` stay.  So a graph is single-use: a walk that
    reaches a freed node, from any loss, raises ``InvalidState`` first."""
    if loss.data.ndim != 0:
        raise InvalidArgument(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise InvalidState("loss does not belong to a tracked graph")

    epoch = next(_EPOCHS)
    order: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if node._epoch == epoch:
            continue
        if node._backward is _released:
            _released(None)
        node._epoch = epoch
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p._epoch != epoch:
                stack.append((p, False))

    loss.accumulate_grad(np.array(1.0))
    for node in reversed(order):
        if node._backward is not None:
            if node.grad is not None:
                node._backward(node.grad)
            node.grad, node._backward = None, _released


# ------------------------------------------------------------ parameter store


class ParamStore:
    """Named parameters plus per-parameter adaptive-moment optimizer state."""

    def __init__(self):
        self.params: dict[str, Tensor] = {}
        self._m: dict[str, np.ndarray] = {}
        self._v: dict[str, np.ndarray] = {}
        self._t = 0   # optimizer steps taken; every parameter takes each one

    def add(self, name: str, data: np.ndarray) -> Tensor:
        if name in self.params:
            raise InvalidArgument(f"duplicate parameter name {name!r}")
        t = Tensor(data, requires_grad=True)
        self.params[name] = t
        self._m[name] = np.zeros_like(t.data)
        self._v[name] = np.zeros_like(t.data)
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self.params[name]

    def __contains__(self, name: str) -> bool:
        return name in self.params

    def names(self) -> list[str]:
        return sorted(self.params)

    def zero_grad(self) -> None:
        for t in self.params.values():
            t.grad = None

    def global_grad_norm(self) -> float:
        total = 0.0
        for t in self.params.values():
            if t.grad is not None:
                total += float(np.add.reduce(t.grad * t.grad, axis=None))
        return math.sqrt(total)

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        """Set every parameter to a C-contiguous float64 copy of its array
        in ``state``: the store never shares memory with the caller's
        arrays, so a step on it moves neither them nor another store that
        loaded the same dict."""
        if set(state) != set(self.params):
            missing = set(self.params) - set(state)
            extra = set(state) - set(self.params)
            raise IncompatibleCheckpoint(
                f"parameter name mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, arr in state.items():
            if arr.shape != self.params[name].shape:
                raise IncompatibleCheckpoint(
                    f"shape mismatch for {name!r}: checkpoint {arr.shape} vs config {self.params[name].shape}")
            self.params[name].data = np.array(arr, dtype=np.float64, order="C")


def init_params(spec: Iterable[tuple[str, tuple]], seed: int) -> ParamStore:
    """Build a store from (name, shape) pairs.

    Matrices get uniform values in +-sqrt(6/(fan_in+fan_out)); vectors and
    scalars (biases, learned embedding rows) start at zero.  Each parameter
    draws from its own named substream, so a given name always receives the
    same values for a given seed regardless of what else is in the spec.
    """
    store = ParamStore()
    for name, shape in spec:
        shape = tuple(int(s) for s in shape)
        if len(shape) >= 2:
            bound = np.sqrt(6.0 / (shape[0] + shape[1]))
            data = substream(seed, "init", name).uniform(-bound, bound, size=shape)
        else:
            data = np.zeros(shape)
        store.add(name, data)
    return store


def clip_global_norm(store: ParamStore, max_norm: float) -> float:
    """Scale all gradients so their global norm is at most max_norm; returns the pre-clip norm.

    A non-finite norm raises NumericFailure before any gradient is scaled.
    """
    norm = store.global_grad_norm()
    if not np.isfinite(norm):
        raise NumericFailure(f"non-finite gradient norm {norm}")
    if norm > max_norm:
        factor = max_norm / norm
        for t in store.params.values():
            if t.grad is not None:
                t.grad *= factor
    return norm


def optimizer_step(store: ParamStore, lr: float) -> None:
    """Adaptive-moment update with bias correction; gradients are zeroed after."""
    store._t += 1
    t = store._t
    for name in store.names():
        p = store.params[name]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m = store._m[name]
        v = store._v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        p.data -= lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    store.zero_grad()
