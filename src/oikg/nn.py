"""Minimal dense-tensor numerics with reverse-mode gradients.

Everything is 64-bit float and deterministic: same inputs give bitwise
identical outputs.  The engine is a flat tape of ``Tensor`` nodes; each op
records a closure that routes the output gradient back into its parents.
Shapes are limited to what the model needs: vectors and matrices, with a
bias broadcast over rows inside the affine kernel (``_affine``, behind
``linear`` and the fused nodes) and nowhere else.  Inside
``no_tape()`` ops record nothing: their outputs are untracked values, bitwise
the same as with the tape on.
"""

import itertools
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


def _as_f64(data) -> np.ndarray:
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)  # keep 0-d scalars 0-d
    return arr


class Tensor:
    """Shape-tagged float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward", "_done", "_epoch")

    def __init__(self, data, requires_grad: bool = False, _parents=(), _backward=None):
        self.data = _as_f64(data)
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._parents = _parents
        self._backward = _backward
        self._done = False
        self._epoch = 0

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def accumulate_grad(self, g: np.ndarray) -> None:
        if self.grad is None:
            # the values and layout of zeros_like(data) += g, in one allocation
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

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
    tracked = _TAPE_ON and any(p.requires_grad for p in parents)
    return Tensor(data, requires_grad=tracked,
                  _parents=tuple(parents) if tracked else (),
                  _backward=backward if tracked else None)


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
    if w.data.ndim != 2:
        raise ShapeError(f"linear weight must be 2-D, got {w.shape}")
    if x_shape[-1] != w.shape[0]:
        raise ShapeError(f"linear shape mismatch {x_shape} @ {w.shape}")
    if b is not None and b.shape != (w.shape[1],):
        raise ShapeError(f"bias shape {b.shape} != ({w.shape[1]},)")


def _affine(x: np.ndarray, w: Tensor | None, b: Tensor | None) -> np.ndarray:
    """x @ w + b, checked, for 1-D or 2-D x: the forward of every fused
    linear map.  Without b there is no bias; without w there is no input,
    and the block is the bias alone, ``0.0 + b``."""
    if w is None:
        return 0.0 + b.data
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
        b.accumulate_grad(g if vector else g.sum(axis=0))
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


def _grad_copy(g: np.ndarray) -> np.ndarray:
    """The gradient an inner node of a fused op's node-per-op composition
    would hold: the values and C layout of ``zeros_like(data); grad += g``."""
    return np.add(g, 0.0, order="C")


def _mlp_chain(x: np.ndarray, layers: Sequence[tuple[Tensor, Tensor]]):
    """The one implementation of an MLP: linear layers with ReLU between
    them, the last layer linear.  Returns the output and ``backward(g)``,
    which adds into each tracked bias and weight, last layer first, and
    returns the gradient of x.

    Fused nodes run it, bitwise equal to the chain of ``linear`` and ReLU
    nodes (``oracle_mlp`` in the tests): the forward makes the chain's numpy
    calls, and the backward replays its arrays, adding into each bias and
    weight in the chain's order.  Every layer's weight is a parameter, so
    the backward runs the whole chain; a ReLU passes the gradient where the
    next layer's input, ``max(h, 0)``, is positive, which is where h is.
    x's gradient comes back for the caller to route, after the first
    layer's weight term.
    """
    if not layers:
        raise InvalidArgument("mlp needs at least one layer")
    ins, h = [], x   # per layer: its input, after the ReLU below it
    for i, (w, b) in enumerate(layers):
        ins.append(np.maximum(h, 0.0) if i else h)
        h = _affine(ins[-1], w, b)

    def backward(g):
        for i in reversed(range(len(layers))):
            g = _affine_backward(ins[i], *layers[i], g, True)
            if i:
                g = _grad_copy(g * (ins[i] > 0.0))   # through the ReLU below
        return g

    return h, backward


def _joined_chain(branches: Sequence[tuple], layers: Sequence[tuple[Tensor, Tensor]]):
    """Blocks embedded apart, joined, then an MLP chain: each branch
    ``(x, x_live, w, b)`` is ``_affine(x, w, b)``, the blocks are
    concatenated on the last axis and run through ``_mlp_chain``.  Returns
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
    out, chain_backward = _mlp_chain(np.concatenate(embedded, axis=-1), layers)

    def backward(g):
        g_c = _grad_copy(chain_backward(g))
        return [_affine_backward(x, w, b, _grad_copy(g_c[..., lo:hi]), x_live)
                for (x, x_live, w, b), lo, hi in zip(branches, offsets[:-1], offsets[1:])]

    weights = tuple(t for *_, w, b in branches for t in (w, b) if t is not None)
    return out, weights + tuple(t for layer in layers for t in layer), backward


def _attention_core(q: Tensor, k_proj: Tensor, v_proj: Tensor,
                    wq: Tensor, wo: Tensor, heads: int):
    """The one implementation of multi-head scaled dot-product attention
    after the K and V projections: per head softmax(QWq K^T / sqrt(dm/h)) V,
    heads concatenated and projected by wo.  Returns the (n, dm) output and
    ``backward(g)``, which adds into wo, q, wq, K and V in that order.

    Bitwise equal to the 17-node composition of projections, reshapes,
    transposes, matmuls, scale and softmax (``oracle_attention`` in the
    tests): it makes the composition's numpy calls on the same memory
    layouts, and its backward replays the composition's arrays in its order.
    """
    n, dm = q.shape
    m = k_proj.shape[0]
    dh = dm // heads
    s = 1.0 / np.sqrt(dh)

    def split(a: np.ndarray, rows: int) -> np.ndarray:
        # (rows, dm) -> (heads, rows, dh), laid out as a transpose node's data
        return np.ascontiguousarray(a.reshape(rows, heads, dh).transpose(1, 0, 2))

    qh = split(q.data @ wq.data, n)
    kh = split(k_proj.data, m)
    vh = split(v_proj.data, m)
    kt = np.ascontiguousarray(kh.transpose(0, 2, 1))
    scores = (qh @ kt) * s
    z = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(z)
    p = e / e.sum(axis=-1, keepdims=True)  # (heads, n, m), rows sum to 1
    merged = np.ascontiguousarray((p @ vh).transpose(1, 0, 2)).reshape(n, dm)

    def backward(g):
        g_merged = g @ wo.data.T
        if wo.requires_grad:
            wo.accumulate_grad(merged.T @ g)
        g_mixed = _grad_copy(g_merged.reshape(n, heads, dh).transpose(1, 0, 2))
        g_p = _grad_copy(g_mixed @ vh.transpose(0, 2, 1))
        dot = (g_p * p).sum(axis=-1, keepdims=True)
        g_scores = _grad_copy(_grad_copy((g_p - dot) * p) * s)
        g_qh = g_scores @ kt.transpose(0, 2, 1)
        g_q = _grad_copy(g_qh.transpose(1, 0, 2)).reshape(n, dm)
        if q.requires_grad:
            q.accumulate_grad(g_q @ wq.data.T)
        if wq.requires_grad:
            wq.accumulate_grad(q.data.T @ g_q)
        if k_proj.requires_grad:
            g_kt = qh.transpose(0, 2, 1) @ g_scores
            k_proj.accumulate_grad(g_kt.transpose(2, 0, 1).reshape(m, dm))
        if v_proj.requires_grad:
            g_vh = p.transpose(0, 2, 1) @ g_mixed
            v_proj.accumulate_grad(g_vh.transpose(1, 0, 2).reshape(m, dm))

    return merged @ wo.data, backward


def _check_attention(q_shape: tuple, kv_shape: tuple, attn, heads: int) -> None:
    n, dm = q_shape
    if len(kv_shape) != 2 or kv_shape[1] != dm:
        raise ShapeError(f"attention key/value shape {kv_shape} != (m, {dm})")
    if dm % heads != 0:
        raise ShapeError(f"model dim {dm} not divisible by {heads} heads")
    wq, wk, wv, wo = attn
    if (any(w.shape != (dm, dm) for w in (wq, wk, wv))
            or wo.data.ndim != 2 or wo.shape[0] != dm):
        raise ShapeError(f"attention weights {wq.shape}/{wk.shape}/{wv.shape}/{wo.shape} "
                         f"do not fit width {dm}")


def residual_block(h: Tensor, kv: Tensor, attn: Sequence[Tensor],
                   layers: Sequence[tuple[Tensor, Tensor]], heads: int,
                   score: bool = False) -> Tensor:
    """A residual attention + MLP block: h1 = h + attention(h, kv, kv), then
    h1 + mlp(h1).  ``attn`` is (wq, wk, wv, wo), ``layers`` the MLP's (w, b)
    pairs.  With ``score`` the block is a scoring head: mlp(h1), whose last
    layer is one wide, flattened to one score per row, with no second add.

    Three tape nodes, bitwise equal to the composition they fuse
    (``oracle_residual_block`` in the tests): the K and V projections stay
    ``linear`` nodes, and one block node with parents (h, K, V, wq, wo, MLP
    weights) covers the Q projection, the attention core, the first add,
    the MLP and the second add (or the final reshape).  Its backward runs
    the composition's steps in the tape's order: the second add, the MLP,
    the first add, the attention core.  So h receives the first add's term,
    then the query's.  h1's gradient is the second add's term (none in a
    scoring head) plus the MLP's, one expression for both.  Every step
    runs, since wq, wo and the MLP weights are parameters; only the adds
    into an input or weight wait on its ``requires_grad``.  K and V keep
    their own nodes because a decoder stack feeds one k=v tensor to every
    layer, and the tape adds a layer's K and V terms into it only after the
    query's ancestry, earlier layers included, has run; a block node would
    add them before.
    """
    _check_attention(h.shape, kv.shape, attn, heads)
    wq, wk, wv, wo = attn
    k_proj, v_proj = linear(kv, wk), linear(kv, wv)
    a, core_backward = _attention_core(h, k_proj, v_proj, wq, wo, heads)
    h1 = h.data + a
    m, mlp_backward = _mlp_chain(h1, layers)
    if score:
        if m.shape[1] != 1:
            raise ShapeError(f"a scoring head's last layer must be 1 wide, got {m.shape[1]}")
        out = m.reshape(m.shape[0])
    else:
        out = h1 + m

    def backward(g):
        g_in = mlp_backward(_grad_copy(g.reshape(m.shape) if score else g))
        g_h1 = (0.0 if score else _grad_copy(g)) + g_in   # second add's term + MLP's
        if h.requires_grad:
            h.accumulate_grad(g_h1)
        core_backward(_grad_copy(g_h1))

    parents = (h, k_proj, v_proj, wq, wo) + tuple(t for layer in layers for t in layer)
    return tape_node(out, parents, backward)


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
        if len(terms) > 1:
            g = _grad_copy(g)   # as the chain's sum node holds it
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
    z = logits.data - logits.data.max()
    lse = np.log(np.exp(z).sum())
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
    """Populate .grad on every tracked tensor reachable from a scalar loss."""
    if loss.data.ndim != 0:
        raise InvalidArgument(f"backward expects a scalar loss, got shape {loss.shape}")
    if not loss.requires_grad:
        raise InvalidState("loss does not belong to a tracked graph")
    if loss._done:
        raise InvalidState("backward already ran on this graph; rebuild the loss first")
    loss._done = True

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
        node._epoch = epoch
        stack.append((node, True))
        for p in node._parents:
            if p.requires_grad and p._epoch != epoch:
                stack.append((p, False))

    loss.accumulate_grad(np.array(1.0))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            node._backward(node.grad)


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
                total += float(np.sum(t.grad * t.grad))
        return float(np.sqrt(total))

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        if set(state) != set(self.params):
            missing = set(self.params) - set(state)
            extra = set(state) - set(self.params)
            raise IncompatibleCheckpoint(
                f"parameter name mismatch (missing {sorted(missing)}, extra {sorted(extra)})")
        for name, arr in state.items():
            if arr.shape != self.params[name].shape:
                raise IncompatibleCheckpoint(
                    f"shape mismatch for {name!r}: checkpoint {arr.shape} vs config {self.params[name].shape}")
            self.params[name].data = _as_f64(arr)


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
