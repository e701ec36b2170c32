"""Gradient, optimizer, and checkpoint checks for the tensor engine.

Every differentiable op is validated against central finite differences:
relative error <= 1e-4 with step h = 1e-4, denominator max(|a|,|b|,1e-8).
"""

import contextlib
import itertools
import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tape_ops import (attention, bias_add, concat, matmul, mlp, mul, oracle_attention,
                      oracle_mean, oracle_mlp, oracle_residual_stack, relu, reshape,
                      softmax, sub, transpose, tsum)

from oikg import artifacts, nn
from oikg.errors import (
    IncompatibleCheckpoint,
    InvalidArgument,
    InvalidState,
    NumericFailure,
    SchemaError,
    ShapeError,
)
from oikg.model import HEADS, TINY_CONFIG, ModelConfig

FD_H = 1e-4
FD_TOL = 1e-4


def rel_err(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-8)


def check_grads(make_loss, tensors, h=FD_H, tol=FD_TOL):
    """Compare analytic grads of a rebuilt-loss closure to central differences."""
    loss = make_loss()
    nn.backward(loss)
    analytic = []
    for t in tensors:
        assert t.grad is not None, "tracked tensor received no gradient"
        analytic.append(t.grad.copy())
    for t, g in zip(tensors, analytic):
        flat = t.data.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(make_loss().data)
            flat[i] = orig - h
            lm = float(make_loss().data)
            flat[i] = orig
            numeric = (lp - lm) / (2.0 * h)
            assert rel_err(numeric, gflat[i]) <= tol, (
                f"grad mismatch at flat index {i}: analytic {gflat[i]}, numeric {numeric}")


def rand_tensor(rng, shape, requires_grad=True):
    return nn.Tensor(rng.normal(size=shape), requires_grad=requires_grad)


def record_calls(monkeypatch, owner, name) -> list:
    """(args, result) of every call made to ``owner.name`` from now on."""
    calls = []
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append((args, result))
        return result

    monkeypatch.setattr(owner, name, spy)
    return calls


# ----------------------------------------------------------- forward values


def test_softmax_known_values():
    t = softmax(nn.Tensor([0.0, math.log(3.0)]))
    np.testing.assert_allclose(t.data, [0.25, 0.75], atol=1e-12)


def test_softmax_rows_sum_to_one_and_shift_invariant():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(5, 7)) * 10.0
    p = softmax(nn.Tensor(x)).data
    np.testing.assert_allclose(p.sum(axis=-1), np.ones(5), atol=1e-12)
    shifted = softmax(nn.Tensor(x + 123.456)).data
    np.testing.assert_allclose(p, shifted, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    p = softmax(nn.Tensor([1e4, 0.0, -1e4])).data
    assert np.all(np.isfinite(p))
    np.testing.assert_allclose(p.sum(), 1.0, atol=1e-12)


def test_cross_entropy_uniform_and_known_case():
    assert rel_err(float(nn.cross_entropy(nn.Tensor([0.0] * 4), 2).data), math.log(4.0)) < 1e-12
    loss = nn.cross_entropy(nn.Tensor([0.0, math.log(3.0)]), 1)
    assert rel_err(float(loss.data), -math.log(0.75)) < 1e-12


def test_cross_entropy_large_margin_vanishes():
    # target logit 50 above the rest: loss is effectively zero
    assert float(nn.cross_entropy(nn.Tensor([0.0, 50.0, 0.0]), 1).data) < 1e-20


def test_linear_identity_zero_and_hand_case():
    x = nn.Tensor([[1.0, 2.0]])
    eye = nn.Tensor(np.eye(2))
    zero_b = nn.Tensor(np.zeros(2))
    np.testing.assert_array_equal(nn.linear(x, eye, zero_b).data, x.data)
    b = nn.Tensor([1.0, 1.0])
    np.testing.assert_array_equal(
        nn.linear(nn.Tensor(np.zeros((3, 2))), eye, b).data, np.tile(b.data, (3, 1)))
    np.testing.assert_array_equal(nn.linear(x, eye, b).data, [[2.0, 3.0]])


def test_mlp_single_layer_and_relu_kill():
    x = nn.Tensor([[1.0, -1.0]])
    w = nn.Tensor([[2.0, 0.0], [0.0, 2.0]])
    b = nn.Tensor([0.5, 0.5])
    np.testing.assert_array_equal(mlp(x, [(w, b)]).data,
                                  nn.linear(x, w, b).data)
    # strongly negative pre-activations: hidden dies, output = final bias
    w1 = nn.Tensor(-100.0 * np.ones((2, 3)))
    b1 = nn.Tensor(np.zeros(3))
    w2 = nn.Tensor(np.ones((3, 1)))
    b2 = nn.Tensor([7.0])
    out = mlp(nn.Tensor([[1.0, 1.0]]), [(w1, b1), (w2, b2)])
    np.testing.assert_array_equal(out.data, [[7.0]])
    # 2-2-1 hand case: relu([1,-1]@[[1,0],[0,1]]) = [1,0]; [1,0]@[[2],[3]]+1 = 3
    out = mlp(nn.Tensor([[1.0, -1.0]]),
              [(nn.Tensor(np.eye(2)), nn.Tensor(np.zeros(2))),
               (nn.Tensor([[2.0], [3.0]]), nn.Tensor([1.0]))])
    np.testing.assert_array_equal(out.data, [[3.0]])


def test_attention_singleton_key_and_identical_keys():
    rng = np.random.default_rng(21)
    q = nn.Tensor(rng.normal(size=(3, 4)))
    wq, wk, wv, wo = (nn.Tensor(rng.normal(size=(4, 4))) for _ in range(4))
    # one key/value row: weights are 1, output = (v wv) wo per query row
    v1 = nn.Tensor(rng.normal(size=(1, 4)))
    out = attention(q, v1, v1, wq, wk, wv, wo, heads=2)
    expect = np.tile((v1.data @ wv.data) @ wo.data, (3, 1))
    np.testing.assert_allclose(out.data, expect, atol=1e-12)
    # identical key rows: uniform weights, output = mean of value rows, projected
    k2 = nn.Tensor(np.tile(rng.normal(size=(1, 4)), (2, 1)))
    v2 = nn.Tensor(rng.normal(size=(2, 4)))
    out2 = attention(q, k2, v2, wq, wk, wv, wo, heads=2)
    expect2 = np.tile((v2.data @ wv.data).mean(axis=0) @ wo.data, (3, 1))
    np.testing.assert_allclose(out2.data, expect2, atol=1e-12)


def test_cross_entropy_rejects_bad_target():
    with pytest.raises(InvalidArgument):
        nn.cross_entropy(nn.Tensor([0.0, 1.0]), 2)
    with pytest.raises(ShapeError):
        nn.cross_entropy(nn.Tensor([[0.0, 1.0]]), 0)


def test_matmul_shape_errors():
    a = nn.Tensor(np.zeros((2, 3)))
    with pytest.raises(ShapeError):
        matmul(a, nn.Tensor(np.zeros((4, 2))))
    with pytest.raises(ShapeError):
        matmul(a, nn.Tensor(np.zeros(3)))


def test_linear_shape_errors():
    x = nn.Tensor(np.zeros((2, 3)))
    w = nn.Tensor(np.zeros((3, 4)))
    with pytest.raises(ShapeError):
        nn.linear(nn.Tensor(np.zeros((2, 5))), w)
    with pytest.raises(ShapeError):
        nn.linear(x, w, nn.Tensor(np.zeros(5)))
    with pytest.raises(ShapeError):
        nn.linear(nn.Tensor(np.zeros((2, 2, 3))), w)


def test_embedding_lookup_and_bounds():
    table = nn.Tensor(np.arange(12.0).reshape(4, 3))
    out = nn.embedding([2, 0, 2], table)
    np.testing.assert_array_equal(out.data, table.data[[2, 0, 2]])
    with pytest.raises(InvalidArgument):
        nn.embedding([4], table)


# --------------------------------------------------------------- gradients


def test_backward_requires_scalar_tracked_fresh_graph():
    w = nn.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(InvalidArgument):
        nn.backward(relu(w))
    with pytest.raises(InvalidState):
        nn.backward(tsum(nn.Tensor([1.0, 2.0])))  # constants only
    loss = tsum(mul(w, w))
    nn.backward(loss)
    np.testing.assert_allclose(w.grad, [2.0, 4.0], atol=1e-12)
    with pytest.raises(InvalidState):
        nn.backward(loss)


def test_backward_through_a_freed_shared_node_raises_before_writing():
    """Two losses on one add node: the first walk frees the node, so the
    second raises where it would have run on the node's stale gradient
    ([-0.762, 0.762] where a fresh graph gives [0.119, -0.119]), and leaves
    every leaf's gradient as it was.  A replay of the freed node fails the
    same way."""
    w = nn.Tensor([1.0, 2.0], requires_grad=True)
    x = nn.Tensor([0.0, 1.0], requires_grad=True)
    h = nn.add(w, x)
    first, second = nn.cross_entropy(h, 0), nn.cross_entropy(h, 1)
    nn.backward(first)
    x_grad = x.grad.copy()
    w.grad = None
    for loss in (second, nn.cross_entropy(nn.replay(h), 1)):
        with pytest.raises(InvalidState):
            nn.backward(loss)
        assert w.grad is None and np.array_equal(x.grad, x_grad)
        assert loss.grad is None
    fresh = nn.Tensor([1.0, 2.0], requires_grad=True)
    nn.backward(nn.cross_entropy(nn.add(fresh, nn.Tensor([0.0, 1.0])), 1))
    np.testing.assert_allclose(fresh.grad, [0.119, -0.119], atol=1e-3)


def test_no_tape_values_match_and_nothing_is_recorded():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (2, 3))
    w = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (4,))

    def forward():
        return softmax(relu(nn.linear(x, w, b)))

    taped = forward()
    with nn.no_tape():
        plain = forward()
        loss = tsum(plain)
    np.testing.assert_array_equal(plain.data, taped.data)
    assert taped.requires_grad and taped._parents
    assert not plain.requires_grad and plain._parents == ()
    with pytest.raises(InvalidState):
        nn.backward(loss)
    assert nn.linear(x, w, b).requires_grad  # the tape is back on after the scope


def test_no_tape_restores_after_exception_and_nesting():
    w = nn.Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ShapeError):
        with nn.no_tape():
            nn.linear(w, w)
    assert relu(w).requires_grad
    with nn.no_tape():
        with nn.no_tape():
            pass
        assert not relu(w).requires_grad  # an inner scope leaves it off
    loss = tsum(mul(w, w))
    nn.backward(loss)
    np.testing.assert_array_equal(w.grad, [2.0, 4.0])


def test_grad_accumulates_across_reuse():
    w = nn.Tensor([3.0], requires_grad=True)
    loss = tsum(nn.add(mul(w, w), w))  # w^2 + w -> 2w + 1
    nn.backward(loss)
    np.testing.assert_allclose(w.grad, [7.0], atol=1e-12)


def test_accumulate_grad_rejects_wrong_shape():
    """A gradient of any other shape than the tensor's raises instead of
    broadcasting, on the first write and on a later one, and leaves grad as
    it was."""
    t = nn.Tensor(np.zeros((3, 4)), requires_grad=True)
    for bad in (np.ones(4), np.array(1.0), np.ones((4, 3)), np.ones((1, 4))):
        with pytest.raises(ShapeError):
            t.accumulate_grad(bad)
        assert t.grad is None
    t.accumulate_grad(np.ones((3, 4)))
    for bad in (np.ones(4), np.array(1.0)):
        with pytest.raises(ShapeError):
            t.accumulate_grad(bad)
    assert same_bits(t.grad, np.ones((3, 4)))


def test_first_accumulate_grad_is_a_c_contiguous_copy():
    """The first write is a plain copy of g: a new C-contiguous array, not
    g, that keeps g's bits, -0.0 included, as ``accumulate_rows``'s reduce
    from -0.0 keeps them."""
    g = np.full((4, 3), -0.0).T   # F-ordered
    g[0, ::2] = [1.5, -2.25]
    t = nn.Tensor(np.ones((3, 4)), requires_grad=True)
    t.accumulate_grad(g)
    assert t.grad.flags["C_CONTIGUOUS"]
    assert not np.shares_memory(t.grad, g)
    assert same_bits(t.grad, g)


def old_as_f64(data) -> np.ndarray:
    """``nn._as_f64`` as it was before its fast path: every input through
    ``np.asarray``, then a C-contiguous copy unless 0-d."""
    arr = np.asarray(data, dtype=np.float64)
    if arr.ndim > 0 and not arr.flags["C_CONTIGUOUS"]:
        arr = np.ascontiguousarray(arr)
    return arr


class Subclassed(np.ndarray):
    pass


def test_tensor_keeps_c_contiguous_float64_and_converts_the_rest_as_before():
    """A C-contiguous float64 ndarray, 0-d included, is kept as it is, the
    object ``np.asarray`` returns for it.  An F-ordered, strided, integer,
    big-endian, subclass or list input converts exactly as ``np.asarray``
    with a C-contiguous copy made it: same type, bits, layout and memory
    sharing."""
    base = np.arange(12.0).reshape(3, 4)
    for kept in (base, np.array(2.5), np.zeros(0), base[1]):
        assert nn.Tensor(kept).data is kept is old_as_f64(kept)
    inputs = [np.asfortranarray(base), base[:, ::2], base.astype(np.int64),
              base.astype(">f8"), base.view(Subclassed), np.float64(1.5), 3,
              [[1.0, -0.0], [2.0, 3.0]], np.array(7, dtype=np.int32)]
    for x in inputs:
        got, want = nn.Tensor(x).data, old_as_f64(x)
        assert type(got) is type(want) is np.ndarray, type(x)
        assert got.dtype == want.dtype == np.float64 and same_bits(got, want)
        assert got.flags["C_CONTIGUOUS"] == want.flags["C_CONTIGUOUS"]
        if isinstance(x, np.ndarray):
            assert np.shares_memory(got, x) == np.shares_memory(want, x), type(x)


def test_tensor_data_is_c_contiguous():
    """A tensor keeps a C-contiguous copy of non-contiguous data, so every
    numpy call reads the layout the tape's nodes give; 0-d data stays 0-d."""
    base = np.arange(24.0).reshape(4, 6)
    for view in (base.T, base[:, ::2], base[::-1]):
        t = nn.Tensor(view)
        assert t.data.flags["C_CONTIGUOUS"] and np.array_equal(t.data, view)
        assert not np.shares_memory(t.data, base)
    assert nn.Tensor(2.5).data.shape == ()


def test_fd_add_mul_scale_sub():
    rng = np.random.default_rng(1)
    a = rand_tensor(rng, (3, 4))
    b = rand_tensor(rng, (3, 4))
    c = nn.Tensor(rng.normal(size=(3, 4)))

    def make_loss():
        out = sub(nn.scale(mul(a, b), 1.7), a)
        return tsum(mul(out, c))

    check_grads(make_loss, [a, b])


def test_fd_bias_broadcast():
    rng = np.random.default_rng(2)
    x = rand_tensor(rng, (4, 3))
    b = rand_tensor(rng, (3,))
    c = nn.Tensor(rng.normal(size=(4, 3)))
    check_grads(lambda: tsum(mul(bias_add(x, b), c)), [x, b])


def test_fd_matmul_all_ranks():
    rng = np.random.default_rng(3)
    v = rand_tensor(rng, (3,))
    a = rand_tensor(rng, (3, 4))
    bm1 = rand_tensor(rng, (2, 3, 4))
    bm2 = rand_tensor(rng, (2, 4, 5))
    cv = nn.Tensor(rng.normal(size=(4,)))
    cb = nn.Tensor(rng.normal(size=(2, 3, 5)))
    check_grads(lambda: tsum(mul(matmul(v, a), cv)), [v, a])
    check_grads(lambda: tsum(mul(matmul(bm1, bm2), cb)), [bm1, bm2])


@pytest.mark.parametrize("x_shape", [(3,), (4, 3)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_fd_linear(x_shape, with_bias):
    rng = np.random.default_rng(8)
    x = rand_tensor(rng, x_shape)
    w = rand_tensor(rng, (3, 5))
    b = rand_tensor(rng, (5,)) if with_bias else None
    c = nn.Tensor(rng.normal(size=x_shape[:-1] + (5,)))
    check_grads(lambda: tsum(mul(nn.linear(x, w, b), c)),
                [x, w] + ([b] if with_bias else []))


@pytest.mark.parametrize("x_shape", [(3,), (4, 3)])
@pytest.mark.parametrize("with_bias", [True, False])
def test_linear_is_bitwise_matmul_then_add(x_shape, with_bias):
    """The fused node computes the arrays of the matmul + add pair it replaces."""
    rng = np.random.default_rng(9)
    x = rand_tensor(rng, x_shape)
    w = rand_tensor(rng, (3, 5))
    b = rand_tensor(rng, (5,)) if with_bias else None
    c = nn.Tensor(rng.normal(size=x_shape[:-1] + (5,)))
    leaves = [x, w] + ([b] if with_bias else [])

    def run(fused):
        y = nn.linear(x, w, b) if fused else matmul(x, w)
        if b is not None and not fused:
            y = bias_add(y, b)
        # x feeds the loss twice, so the order of its gradient terms counts
        loss = nn.add(tsum(mul(y, c)), tsum(mul(x, x)))
        for t in leaves:
            t.grad = None
        nn.backward(loss)
        return y.data, [t.grad.copy() for t in leaves]

    y_fused, g_fused = run(True)
    y_pair, g_pair = run(False)
    np.testing.assert_array_equal(y_fused, y_pair)
    for a, b_ in zip(g_fused, g_pair):
        np.testing.assert_array_equal(a, b_)


def test_fd_relu_softmax_mean():
    rng = np.random.default_rng(4)
    x = rand_tensor(rng, (3, 5))
    c = nn.Tensor(rng.normal(size=(3, 5)))

    def make_loss():
        return tsum(mul(softmax(relu(x)), c))

    check_grads(make_loss, [x])


def test_fd_concat_stack_reshape_transpose():
    rng = np.random.default_rng(5)
    r1 = rand_tensor(rng, (4,))
    r2 = rand_tensor(rng, (4,))
    r3 = rand_tensor(rng, (4,))
    c = nn.Tensor(rng.normal(size=(2, 12)))

    def make_loss():
        m = concat([reshape(r, (1, 4)) for r in (r1, r2, r3)],
                      axis=0)                               # (3, 4)
        m2 = concat([m, nn.scale(m, 0.5)], axis=-1)      # (3, 8)
        m3 = reshape(transpose(m2, (1, 0)), (2, 12))  # (2, 12)
        return tsum(mul(m3, c))

    check_grads(make_loss, [r1, r2, r3])


def test_fd_embedding_with_repeats():
    rng = np.random.default_rng(6)
    table = rand_tensor(rng, (5, 3))
    c = nn.Tensor(rng.normal(size=(4, 3)))
    check_grads(lambda: tsum(mul(nn.embedding([1, 3, 1, 0], table), c)), [table])


def test_fd_mlp():
    rng = np.random.default_rng(7)
    x = rand_tensor(rng, (3, 4))
    w1, b1 = rand_tensor(rng, (4, 6)), rand_tensor(rng, (6,))
    w2, b2 = rand_tensor(rng, (6, 2)), rand_tensor(rng, (2,))
    c = nn.Tensor(rng.normal(size=(3, 2)))

    def make_loss():
        return tsum(mul(mlp(x, [(w1, b1), (w2, b2)]), c))

    check_grads(make_loss, [x, w1, b1, w2, b2])


def test_fd_attention_multihead():
    rng = np.random.default_rng(9)
    q = rand_tensor(rng, (3, 8))
    k = rand_tensor(rng, (4, 8))
    v = rand_tensor(rng, (4, 8))
    wq, wk, wv, wo = (rand_tensor(rng, (8, 8)) for _ in range(4))
    c = nn.Tensor(rng.normal(size=(3, 8)))

    def make_loss():
        out = attention(q, k, v, wq, wk, wv, wo, heads=2)
        return tsum(mul(out, c))

    check_grads(make_loss, [q, k, v, wq, wk, wv, wo])


def test_fd_cross_entropy_chain():
    rng = np.random.default_rng(10)
    x = rand_tensor(rng, (5,))
    w = rand_tensor(rng, (5, 4))
    b = rand_tensor(rng, (4,))
    check_grads(lambda: nn.cross_entropy(nn.linear(x, w, b), 2), [x, w, b])


def test_attention_head_count_must_divide():
    rng = np.random.default_rng(11)
    t = rand_tensor(rng, (2, 6))
    ws = [rand_tensor(rng, (6, 6)) for _ in range(4)]
    with pytest.raises(ShapeError):
        attention(t, t, t, *ws, heads=4)
    with pytest.raises(ShapeError):
        attention(t, t, t, ws[0], ws[1], rand_tensor(rng, (6, 4)), ws[3], heads=2)


# ------------------------------------------------- fused ops vs their oracles


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and bytes: stricter than ``np.array_equal``, which takes
    -0.0 for 0.0."""
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def inner_nodes(root: nn.Tensor) -> int:
    """Distinct tensors with parents reachable from root, root included."""
    seen, stack = {id(root)}, [root]
    count = 0
    while stack:
        node = stack.pop()
        count += bool(node._parents)
        for p in node._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return count


def fused_vs_oracle(build, leaves,
                    ops=((attention, mlp), (oracle_attention, oracle_mlp))):
    """Build a loss with ``build(*fused_ops)``, once with the fused ops and
    once with the oracles (by default ``attention`` and ``mlp`` against
    theirs), and run backward on each; every output value and every leaf
    gradient must match bit for bit."""
    runs = []
    for ops in ops:
        for t in leaves:
            t.grad = None
        outs, loss = build(*ops)
        nn.backward(loss)
        runs.append(([o.data.copy() for o in outs],
                     [None if t.grad is None else t.grad.copy() for t in leaves]))
    (outs, grads), (ref_outs, ref_grads) = runs
    for i, (a, b) in enumerate(zip(outs, ref_outs)):
        assert same_bits(a, b), f"output {i} differs"
    for i, (a, b) in enumerate(zip(grads, ref_grads)):
        assert (a is None) == (b is None), f"leaf {i}: gradient presence differs"
        assert a is None or same_bits(a, b), f"leaf {i}: gradient differs"


@pytest.mark.parametrize("heads", [1, 2])
@pytest.mark.parametrize("sharing", ["q|kv", "qkv", "q|k|v"])
def test_attention_matches_oracle_bitwise(heads, sharing):
    rng = np.random.default_rng(12)
    x0 = rand_tensor(rng, (3, 4))
    w_in = rand_tensor(rng, (4, 4))
    src = [rand_tensor(rng, (5, 4)) for _ in range(2)]
    ws = [rand_tensor(rng, (4, 4)) for _ in range(4)]
    c = nn.Tensor(rng.normal(size=(3, 4)))

    def build(attention, _):
        q = nn.linear(x0, w_in)   # a tracked inner tensor, read again below
        if sharing == "qkv":
            k = v = q
        elif sharing == "q|kv":
            k = v = src[0]
        else:
            k, v = src
        out = attention(q, k, v, *ws, heads=heads)
        h = nn.add(q, out)
        loss = nn.add(tsum(mul(h, c)), tsum(mul(k, v)))
        return [out], loss

    fused_vs_oracle(build, [x0, w_in, *src, *ws])


@pytest.mark.parametrize("tracked", ["weights", "query", "key", "value"])
def test_attention_partial_tracking_matches_oracle(tracked):
    """Only some inputs tracked: the fused op routes gradient exactly where
    the composition did and nowhere else."""
    rng = np.random.default_rng(13)
    q, k, v = (rand_tensor(rng, (r, 4), requires_grad=tracked == name)
               for r, name in ((2, "query"), (3, "key"), (3, "value")))
    ws = [rand_tensor(rng, (4, 4), requires_grad=tracked == "weights") for _ in range(4)]
    c = nn.Tensor(rng.normal(size=(2, 4)))

    def build(attention, _):
        out = attention(q, k, v, *ws, heads=2)
        return [out], tsum(mul(out, c))

    fused_vs_oracle(build, [q, k, v, *ws])


def test_decoder_stack_sharing_kv_matches_oracle_bitwise():
    """Two decoder layers read one k=v tensor.  The tape adds layer 0's K
    and V terms into it before layer 1's, because layer 1's query ancestry
    (layer 0) runs before layer 1's K and V projections; a fused op that
    reorders those sums changes the gradient's last bits."""
    rng = np.random.default_rng(14)
    dm = 8
    x0 = rand_tensor(rng, (3, dm))
    src = rand_tensor(rng, (6, dm))
    w_src = rand_tensor(rng, (dm, dm))
    layers = [([rand_tensor(rng, (dm, dm)) for _ in range(4)],
               [(rand_tensor(rng, (dm, 2 * dm)), rand_tensor(rng, (2 * dm,))),
                (rand_tensor(rng, (2 * dm, dm)), rand_tensor(rng, (dm,)))])
              for _ in range(2)]
    c = nn.Tensor(rng.normal(size=(3, dm)))
    leaves = [x0, src, w_src] + [t for ws, mlp_layers in layers
                                 for t in ws + [p for wb in mlp_layers for p in wb]]

    def build(attention, mlp):
        kv = nn.linear(src, w_src)
        h, outs = x0, []
        for ws, mlp_layers in layers:
            h = nn.add(h, attention(h, kv, kv, *ws, heads=2))
            h = nn.add(h, mlp(h, mlp_layers))
            outs.append(h)
        return outs, tsum(mul(h, c))

    fused_vs_oracle(build, leaves)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("x_shape", [(4,), (3, 4)])
def test_mlp_matches_oracle_bitwise(depth, x_shape):
    rng = np.random.default_rng(15)
    x0 = rand_tensor(rng, x_shape)
    widths = [4, 6, 5, 3][:depth + 1]
    layers = [(rand_tensor(rng, (a, b)), rand_tensor(rng, (b,)))
              for a, b in zip(widths, widths[1:])]
    c = nn.Tensor(rng.normal(size=x_shape[:-1] + (widths[-1],)))
    leaves = [x0] + [t for wb in layers for t in wb]

    def build(_, mlp):
        x = nn.scale(x0, 1.5)   # a tracked inner tensor, read again below
        out = mlp(x, layers)
        return [out], nn.add(tsum(mul(out, c)), tsum(mul(x, x)))

    fused_vs_oracle(build, leaves)


def test_mlp_untracked_first_layer_matches_oracle():
    """Gradient stops below the first layer with a tracked parameter."""
    rng = np.random.default_rng(16)
    x = rand_tensor(rng, (3, 4), requires_grad=False)
    layers = [(rand_tensor(rng, (4, 5), requires_grad=False),
               rand_tensor(rng, (5,), requires_grad=False)),
              (rand_tensor(rng, (5, 2)), rand_tensor(rng, (2,)))]
    c = nn.Tensor(rng.normal(size=(3, 2)))

    def build(_, mlp):
        out = mlp(x, layers)
        return [out], tsum(mul(out, c))

    fused_vs_oracle(build, [x] + [t for wb in layers for t in wb])


STACKS = ((nn.residual_stack,), (oracle_residual_stack,))


def block_params(rng, dm, layers, out_width=None, tracked=True):
    """Per block: the (wq, wk, wv, wo) weights and a two-layer MLP, the last
    block's ``out_width`` wide (default dm)."""
    def t(*shape):
        return rand_tensor(rng, shape, requires_grad=tracked)
    return [((t(dm, dm), t(dm, dm), t(dm, dm), t(dm, dm)),
             [(t(dm, 2 * dm), t(2 * dm)), (t(2 * dm, width), t(width))])
            for width in [dm] * (layers - 1) + [out_width or dm]]


def block_leaves(blocks):
    return [t for attn, mlp_layers in blocks
            for t in list(attn) + [p for wb in mlp_layers for p in wb]]


# The residual_block tests keep their names and ids from the block-per-node
# form; each now runs nn.residual_stack against a loop of oracle blocks.


@pytest.mark.parametrize("kv_read", ["first", "last"])
@pytest.mark.parametrize("heads", [1, 2])
def test_residual_block_stack_sharing_kv_matches_oracle_bitwise(heads, kv_read):
    """A cross-attention stack of one or two blocks reads one k=v tensor,
    which a third consumer reads too, its term entering the loss before or
    after the stack's.  The tape adds block 0's K and V terms into it
    before block 1's, since block 1's query ancestry (block 0) runs before
    block 1's K and V projections; and each block input receives the first
    residual add's term before the query's.  The stack input's ancestry
    does not read kv."""
    rng = np.random.default_rng(14)
    dm = 8
    x0, src = rand_tensor(rng, (3, dm)), rand_tensor(rng, (6, dm))
    w_in, w_src = rand_tensor(rng, (dm, dm)), rand_tensor(rng, (dm, dm))
    c, c_kv = nn.Tensor(rng.normal(size=(3, dm))), nn.Tensor(rng.normal(size=(6, dm)))
    for depth in (1, 2):
        blocks = block_params(rng, dm, depth)

        def build(stack):
            kv = nn.linear(src, w_src)
            h = stack(nn.linear(x0, w_in), kv, nn.StackWeights(blocks, heads))
            terms = [tsum(mul(h, c)), tsum(mul(kv, c_kv))]
            if kv_read == "first":
                terms.reverse()
            return [h], nn.add(*terms)

        fused_vs_oracle(build, [x0, src, w_in, w_src] + block_leaves(blocks), STACKS)


@pytest.mark.parametrize("score", [False, True], ids=["self-attention", "head"])
def test_residual_block_with_q_k_v_one_tensor_matches_oracle_bitwise(score):
    """kv None: each block of a one- or two-block stack attends over its own
    input, as in the instruction encoder's stack and the scoring head, so a
    block input receives four terms in the tape's order: the first add's,
    the query's, K's and V's.  The stack input is also read elsewhere."""
    rng = np.random.default_rng(18)
    dm = 8
    x0, w_in = rand_tensor(rng, (4, dm)), rand_tensor(rng, (dm, dm))
    c = nn.Tensor(rng.normal(size=(4,) if score else (4, dm)))
    for depth in (1, 2):
        blocks = block_params(rng, dm, depth, out_width=1 if score else None)

        def build(stack):
            x = nn.linear(x0, w_in)
            h = stack(x, None, nn.StackWeights(blocks, 2, score))
            return [h], nn.add(tsum(mul(h, c)), tsum(mul(x, x)))

        fused_vs_oracle(build, [x0, w_in] + block_leaves(blocks), STACKS)


@pytest.mark.parametrize("score", [False, True], ids=["block", "head"])
@pytest.mark.parametrize("tracked", ["input", "key", "attention", "mlp"])
def test_residual_block_partial_tracking_matches_oracle(tracked, score):
    """Only some inputs of a two-block stack tracked, with kv given or None
    (no key then), the weights tracked in both blocks or in one: the stack
    node routes gradient exactly where the composition did and nowhere
    else."""
    rng = np.random.default_rng(19)
    h = rand_tensor(rng, (3, 4), requires_grad=tracked == "input")
    kv = rand_tensor(rng, (5, 4), requires_grad=tracked == "key")
    blocks = block_params(rng, 4, 2, out_width=1 if score else None)
    c = nn.Tensor(rng.normal(size=(3,) if score else (3, 4)))
    weights = tracked in ("attention", "mlp")
    for src, which in itertools.product([kv] if tracked == "key" else [kv, None],
                                        (None, 0, 1) if weights else (None,)):
        for i, (attn, mlp_layers) in enumerate(blocks):
            on = which in (None, i)
            for t in attn:
                t.requires_grad = tracked == "attention" and on
            for t in (p for wb in mlp_layers for p in wb):
                t.requires_grad = tracked == "mlp" and on

        def build(stack):
            out = stack(h, src, nn.StackWeights(blocks, 2, score))
            return [out], tsum(mul(out, c))

        fused_vs_oracle(build, [h, kv] + block_leaves(blocks), STACKS)


@pytest.mark.parametrize("score", [False, True])
def test_fd_residual_block(score):
    """Finite differences of a two-block cross-attention stack and a
    one-block self-attention stack, or a one-block scoring head over kv or
    itself.  A two-block self-attention stack at these random weights has
    gradients near 1e-7, below what central differences resolve at the
    relative tolerance; the oracle tests check it bitwise."""
    rng = np.random.default_rng(20)
    h, kv = rand_tensor(rng, (3, 4)), rand_tensor(rng, (2, 4))
    c = nn.Tensor(rng.normal(size=(3,) if score else (3, 4)))
    for src, depth in ((kv, 1 if score else 2), (None, 1)):
        blocks = block_params(rng, 4, depth, out_width=1 if score else None)

        def make_loss():
            return tsum(mul(nn.residual_stack(h, src, nn.StackWeights(blocks, 2, score)), c))

        h.grad = kv.grad = None
        check_grads(make_loss, ([h] if src is None else [h, kv]) + block_leaves(blocks))


@pytest.mark.parametrize("rows", [1, 5])
@pytest.mark.parametrize("cfg", [TINY_CONFIG, ModelConfig()], ids=["tiny", "default"])
def test_untaped_residual_block_builds_no_node_and_equals_taped(monkeypatch, cfg, rows):
    """A taped stack builds one node and calls no ``linear``; under
    ``no_tape()`` it builds none and its data is the taped stack's, bit for
    bit: a two-block cross-attention stack, a two-block self-attention
    stack over its output, then the scoring head, at the model's widths."""
    rng = np.random.default_rng(24)
    dm = cfg.dim
    h0, kv = rand_tensor(rng, (rows, dm)), rand_tensor(rng, (6, dm))
    decoder = nn.StackWeights(block_params(rng, dm, 2), HEADS)
    encoder = nn.StackWeights(block_params(rng, dm, 2), HEADS)
    head = nn.StackWeights(block_params(rng, dm, 1, out_width=1), HEADS, score=True)

    def run():
        outs = [nn.residual_stack(h0, kv, decoder)]
        outs.append(nn.residual_stack(outs[-1], None, encoder))
        return outs + [nn.residual_stack(outs[-1], None, head)]

    linears = record_calls(monkeypatch, nn, "linear")
    nodes = record_calls(monkeypatch, nn, "tape_node")
    taped = run()
    assert linears == [] and [out for _, out in nodes] == taped
    nodes.clear()
    with nn.no_tape():
        plain = run()
    assert linears == [] and nodes == []
    assert plain[-1].shape == (rows,)
    for a, b in zip(plain, taped, strict=True):
        assert b.requires_grad and not a.requires_grad and a._parents == ()
        assert same_bits(a.data, b.data)


@pytest.mark.parametrize("taped", [True, False], ids=["taped", "untaped"])
def test_residual_block_shape_errors(taped):
    """A part that does not fit raises, in whichever block of a two-block
    stack it sits: a weight, the head count or an empty part where the
    weights are bundled (``nn.StackWeights``, the stack's only weight
    argument), the widths of h and kv at the call."""
    rng = np.random.default_rng(21)
    blocks = block_params(rng, 4, 2)
    h, kv = rand_tensor(rng, (3, 4)), rand_tensor(rng, (2, 4))
    with contextlib.nullcontext() if taped else nn.no_tape():
        fits = nn.StackWeights(blocks, 2)
        with pytest.raises(ShapeError):
            nn.residual_stack(h, rand_tensor(rng, (2, 6)), fits)
        with pytest.raises(ShapeError):   # the stack input's width
            nn.residual_stack(rand_tensor(rng, (3, 6)), kv, fits)
        with pytest.raises(InvalidArgument):   # weights that were never checked
            nn.residual_stack(h, kv, blocks)
        with pytest.raises(InvalidArgument):   # kept keys: untaped cross-attention only
            nn.residual_stack(h, kv if taped else None, fits, keys=[])
        for at in (0, 1):
            (wq, wk, wv, wo), ((w1, b1), (w2, b2)) = blocks[at]

            def bundle(attn=None, layers=None, heads=2, score=False):
                parts = list(blocks)
                parts[at] = (attn or blocks[at][0], blocks[at][1] if layers is None else layers)
                return nn.StackWeights(parts, heads, score)

            with pytest.raises(ShapeError):
                bundle(heads=3)
            with pytest.raises(ShapeError):   # an attention weight that does not fit
                bundle(attn=(wq, wk, rand_tensor(rng, (4, 3)), wo))
            with pytest.raises(ShapeError):   # a one-column wo would broadcast into h1
                bundle(attn=(wq, wk, wv, rand_tensor(rng, (4, 1))))
            with pytest.raises(ShapeError):   # an MLP weight that does not fit
                bundle(layers=[(w1, b1), (rand_tensor(rng, (7, 4)), b2)])
            with pytest.raises(ShapeError):   # an MLP bias that does not fit
                bundle(layers=[(w1, rand_tensor(rng, (5,))), (w2, b2)])
            with pytest.raises(ShapeError):   # a decoder block keeps its width
                bundle(layers=[(w1, b1), (rand_tensor(rng, (8, 1)), rand_tensor(rng, (1,)))])
            with pytest.raises(ShapeError):   # a scoring head needs one output column
                bundle(score=True)
            with pytest.raises(InvalidArgument):
                bundle(layers=[])
    with pytest.raises(InvalidArgument):
        nn.StackWeights([], 2)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_mean_matches_oracle_bitwise(n):
    """Scalar terms of unlike magnitudes, so the order of the sum shows,
    one of them read twice, each also read elsewhere: the mean and every
    gradient match the add chain and scale bit for bit."""
    rng = np.random.default_rng(22)
    xs = [rand_tensor(rng, (3,)) for _ in range(n)]
    scales = (1.0, 1e16, -1e16, 3.0)
    c = nn.Tensor(rng.normal(size=3))

    def build(mean):
        terms = [nn.scale(tsum(mul(x, x)), s) for x, s in zip(xs, scales)]
        terms.append(terms[0])
        out = mean(terms)
        return [out], nn.add(nn.scale(out, 0.7), mul(terms[-1], tsum(mul(xs[0], c))))

    fused_vs_oracle(build, xs, ((nn.mean,), (oracle_mean,)))
    with pytest.raises(ShapeError):
        nn.mean([xs[0], tsum(xs[0])])
    with pytest.raises(InvalidArgument):
        nn.mean([])


def test_add_rejects_shape_mismatch():
    rng = np.random.default_rng(23)
    with pytest.raises(ShapeError):
        nn.add(rand_tensor(rng, (3, 4)), rand_tensor(rng, (1, 4)))
    with pytest.raises(ShapeError):
        nn.add(rand_tensor(rng, (4,)), rand_tensor(rng, (3, 4)))


# numpy kernels whose rounding the bitwise rule depends on: a numpy release
# that routes them through another kernel fails here, before a loss drifts


@pytest.mark.parametrize("k, lo", [(4, 0), (3, 4)], ids=["edge", "pos"])
@pytest.mark.parametrize("d", [8, 32])
def test_stacked_vector_matrix_product_is_per_row_product(k, lo, d):
    """``np.matmul(X[:, None, :], W)[:, 0]`` is row i's ``X[i] @ W`` to the
    bit, for 0-40 rows read as ``model.candidate_inputs`` reads them from a
    ``(V, V, 7)`` memo: a gathered copy and strided views of the table."""
    rng = np.random.default_rng(41 + d + k)
    v = 41
    table = rng.normal(size=(v, v, 7)) * 10.0 ** rng.integers(-3, 4, size=(v, v, 7))
    w = rng.normal(size=(k, d))
    for n in range(41):
        u = int(rng.integers(v))
        cols = rng.permutation(v)[:n]
        for x in (table[u][cols, :7][:, lo:lo + k], table[u, :n, lo:lo + k],
                  table[:n, u, lo:lo + k]):
            got = np.matmul(x[:, None, :], w)[:, 0]
            want = np.array([row @ w for row in x]).reshape(n, d)
            assert same_bits(got, want), (n, x.strides)


# the (K, D) weights of the model's products but the 1-wide scoring layer,
# at the tiny (dim 8, 10 visual features) and the full (dim 32, 32) widths
ROW_WEIGHTS = sorted({(k, d) for dim, vis in ((8, 10), (32, 32)) for k, d in (
    (4, dim), (3, dim), (vis, dim), (4 + vis, dim), (dim, dim), (dim, 2 * dim),
    (2 * dim, dim), (2 * dim, 2 * dim))})


def check_rows_shared(product, x, axis, rng):
    """Row i of ``product(x)``, taken along ``axis``, equals the same row of
    ``product`` over any other batch of two or more of x's rows, bit for
    bit: random sub-batches in any order, duplicated rows, and slices."""
    m = x.shape[axis]
    full = product(x)
    batches = [rng.choice(m, size=int(rng.integers(2, m + 1)), replace=bool(rng.integers(2)))
               for _ in range(40)]
    batches += [np.array([i, i]) for i in range(0, m, 7)]
    batches += [np.arange(lo, m) for lo in range(0, m - 1, 9)]
    for rows in batches:
        got = product(np.ascontiguousarray(x.take(rows, axis=axis)))
        assert same_bits(got, full.take(rows, axis=axis)), (x.shape, rows)


@pytest.mark.parametrize("k, d", ROW_WEIGHTS)
def test_matrix_product_row_is_the_same_in_every_batch_of_two_or_more(k, d):
    """Each row of an ``(N, K) @ W`` product, N >= 2, is the same in every
    product it shares with at least one other row: what any cut that
    computes a subset of a batch's rows, or shares rows between batches,
    would rely on.  It is pinned at the model's shapes only: a one-row
    product rounds otherwise, and so, on OpenBLAS 0.3.31, do products whose
    output width is 1, 2 or 3 mod 8 over an inner width of 16 or more, such
    as the scoring layer's ``(N, 32) @ (32, 1)``."""
    rng = np.random.default_rng(47 + k * 67 + d)
    x = rng.normal(size=(61, k)) * 10.0 ** rng.integers(-3, 4, size=(61, k))
    w = rng.normal(size=(k, d))
    check_rows_shared(lambda a: a @ w, x, 0, rng)


@pytest.mark.parametrize("dh", [4, 16], ids=["tiny", "full"])
@pytest.mark.parametrize("m", [4, 12, 36])
def test_stacked_attention_product_row_is_the_same_in_every_batch_of_two_or_more(dh, m):
    """The attention core's stacked products, scores ``(heads, n, dh) @
    (heads, dh, m)`` and values ``(heads, n, m) @ (heads, m, dh)``, give
    query row i the same floats in every batch of two or more queries, at
    the heads' widths of the tiny and the full model over 4, 12 and 36
    keys (the presets' panoramas have 4 and 36 views)."""
    rng = np.random.default_rng(53 + dh * 41 + m)
    kt = rng.normal(size=(2, dh, m))
    vh = rng.normal(size=(2, m, dh))
    qh = rng.normal(size=(2, 61, dh)) * 10.0 ** rng.integers(-3, 4, size=(2, 61, dh))
    p = rng.random(size=(2, 61, m))
    check_rows_shared(lambda a: a @ kt, qh, 1, rng)
    check_rows_shared(lambda a: a @ vh, p, 1, rng)


@pytest.mark.parametrize("shape", [(8,), (32,), (4, 8), (3, 32), (2,)])
@pytest.mark.parametrize("start", ["no-grad", "grad"])
def test_accumulate_rows_is_accumulate_grad_loop(shape, start):
    """``Tensor.accumulate_rows`` equals ``accumulate_grad`` of each slice
    in order, bit for bit, on terms of unlike magnitudes (so the order of
    the sum shows) and with -0.0 slices; no terms leave ``grad`` as it was."""
    rng = np.random.default_rng(43)
    for n in range(41):
        terms = rng.normal(size=(n, *shape)) * 10.0 ** rng.integers(
            -12, 13, size=(n, *shape))
        terms[::5] = -0.0
        got, want = (nn.Tensor(np.zeros(shape), requires_grad=True) for _ in range(2))
        if start == "grad":
            got.grad = rng.normal(size=shape)
            want.grad = got.grad.copy()
        for t in terms:
            want.accumulate_grad(t)
        got.accumulate_rows(terms)
        if want.grad is None:
            assert n == 0 and got.grad is None
        else:
            assert same_bits(got.grad, want.grad), n


def test_accumulate_rows_rejects_one_element_slices():
    """Over one-element slices numpy's reduce sums pairwise, not in order."""
    for shape in [(1,), (1, 1), ()]:
        t = nn.Tensor(np.zeros(shape), requires_grad=True)
        with pytest.raises(ShapeError):
            t.accumulate_rows(np.ones((20, *shape)))


def test_fused_ops_node_counts_and_no_tape():
    rng = np.random.default_rng(17)
    q, kv = rand_tensor(rng, (2, 4)), rand_tensor(rng, (3, 4))
    ws = [rand_tensor(rng, (4, 4)) for _ in range(4)]
    layers = [(rand_tensor(rng, (4, 6)), rand_tensor(rng, (6,))),
              (rand_tensor(rng, (6, 4)), rand_tensor(rng, (4,)))]
    head_layers = [layers[0], (rand_tensor(rng, (6, 1)), rand_tensor(rng, (1,)))]
    att = attention(q, kv, kv, *ws, heads=2)
    assert inner_nodes(att) == 3
    assert inner_nodes(oracle_attention(q, kv, kv, *ws, heads=2)) == 17
    assert att._parents == (q, att._parents[1], att._parents[2], ws[0], ws[3])
    assert att._parents[1]._parents == (kv, ws[1]) and att._parents[2]._parents == (kv, ws[2])
    out = mlp(q, layers)
    assert inner_nodes(out) == 1
    assert inner_nodes(oracle_mlp(q, layers)) == 3
    weights = [t for wb in layers for t in wb]
    one, two = nn.StackWeights([(ws, layers)], 2), nn.StackWeights([(ws, layers)] * 2, 2)
    scoring = nn.StackWeights([(ws, head_layers)], 2, score=True)
    stack = nn.residual_stack(q, kv, one)
    assert inner_nodes(stack) == 1
    assert inner_nodes(oracle_residual_stack(q, kv, one)) == 22
    assert stack._parents == (q, kv, *ws, *weights)
    deep = nn.residual_stack(q, kv, two)
    assert inner_nodes(deep) == 1 and deep._parents == (q, kv) + (*ws, *weights) * 2
    assert inner_nodes(oracle_residual_stack(q, kv, two)) == 44
    head = nn.residual_stack(q, None, scoring)
    assert head.shape == (2,) and inner_nodes(head) == 1
    assert head._parents == (q, *ws, *(t for wb in head_layers for t in wb))
    assert inner_nodes(oracle_residual_stack(q, None, scoring)) == 22
    terms = [tsum(q), tsum(kv), tsum(q)]
    mean = nn.mean(terms)
    assert mean._parents == tuple(terms) and inner_nodes(mean) == 3 + 1
    assert inner_nodes(oracle_mean(terms)) == 3 + 3
    with nn.no_tape():
        plain = [attention(q, kv, kv, *ws, heads=2), mlp(q, layers),
                 nn.residual_stack(q, kv, one), nn.residual_stack(q, kv, two),
                 nn.residual_stack(q, None, scoring),
                 nn.mean(terms)]
    for a, b in zip(plain, (att, out, stack, deep, head, mean), strict=True):
        assert not a.requires_grad and a._parents == () and same_bits(a.data, b.data)


# ------------------------------------------------------- parameters/optimizer


def test_init_params_bounds_and_bias_zero():
    store = nn.init_params([("w", (2, 8)), ("b", (8,))], seed=123)
    bound = math.sqrt(6.0 / (2 + 8))
    w = store["w"].data
    assert np.all(np.abs(w) <= bound)
    assert np.max(np.abs(w)) > 0.2 * bound
    np.testing.assert_array_equal(store["b"].data, np.zeros(8))


def test_init_params_per_name_reproducible():
    a = nn.init_params([("w", (3, 3)), ("x", (2, 2))], seed=5)
    b = nn.init_params([("x", (2, 2)), ("y", (4, 4)), ("w", (3, 3))], seed=5)
    np.testing.assert_array_equal(a["w"].data, b["w"].data)
    np.testing.assert_array_equal(a["x"].data, b["x"].data)
    c = nn.init_params([("w", (3, 3))], seed=6)
    assert not np.array_equal(a["w"].data, c["w"].data)


def test_duplicate_param_name_rejected():
    with pytest.raises(InvalidArgument):
        nn.init_params([("w", (2, 2)), ("w", (2, 2))], seed=0)


def test_optimizer_first_step_closed_form():
    store = nn.init_params([("w", (1,))], seed=0)
    store["w"].data[:] = 2.0
    store["w"].grad = np.array([3.0])
    nn.optimizer_step(store, lr=0.1)
    # first step with fresh moments moves by ~lr * sign(grad)
    assert abs(store["w"].data[0] - 1.9) < 1e-6
    assert store["w"].grad is None


def test_optimizer_zero_grad_leaves_params():
    store = nn.init_params([("w", (3, 3))], seed=1)
    before = store["w"].data.copy()
    store["w"].grad = np.zeros((3, 3))
    nn.optimizer_step(store, lr=0.5)
    np.testing.assert_array_equal(store["w"].data, before)


def test_optimizer_deterministic():
    def run():
        store = nn.init_params([("w", (4, 4))], seed=2)
        for step in range(5):
            loss = tsum(mul(store["w"], store["w"]))
            nn.backward(loss)
            nn.optimizer_step(store, lr=0.01)
        return store["w"].data.copy()

    np.testing.assert_array_equal(run(), run())


def test_clip_global_norm():
    store = nn.init_params([("a", (2,)), ("b", (2,))], seed=3)
    store["a"].grad = np.array([3.0, 0.0])
    store["b"].grad = np.array([0.0, 4.0])
    norm = nn.clip_global_norm(store, 2.5)
    assert abs(norm - 5.0) < 1e-12
    assert abs(store.global_grad_norm() - 2.5) < 1e-12
    # already under the limit: untouched
    norm2 = nn.clip_global_norm(store, 100.0)
    assert abs(norm2 - 2.5) < 1e-12
    assert abs(store.global_grad_norm() - 2.5) < 1e-12


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_clip_global_norm_non_finite_raises_before_scaling(bad):
    store = nn.init_params([("a", (2,)), ("b", (2,))], seed=3)
    store["a"].grad = np.array([3.0, 0.0])
    store["b"].grad = np.array([0.0, bad])
    with pytest.raises(NumericFailure):
        nn.clip_global_norm(store, 2.5)
    np.testing.assert_array_equal(store["a"].grad, [3.0, 0.0])
    np.testing.assert_array_equal(store["b"].grad, [0.0, bad])


# --------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_byte_exact(tmp_path):
    store = nn.init_params([("m.w", (3, 5)), ("m.b", (5,)), ("scalar", ())], seed=7)
    store["scalar"].data = np.array(1.5)
    p1 = tmp_path / "a.ckpt"
    p2 = tmp_path / "b.ckpt"
    artifacts.save_checkpoint(p1, store, {"tag": "x"})
    header, state = artifacts.load_checkpoint(p1, {"tag": str})
    assert header == {"tag": "x", "blocks": [[n, list(store[n].data.shape)]
                                             for n in ("m.b", "m.w", "scalar")]}
    assert set(state) == {"m.w", "m.b", "scalar"}
    for name in state:
        np.testing.assert_array_equal(state[name], store[name].data)

    other = nn.init_params([("m.w", (3, 5)), ("m.b", (5,)), ("scalar", ())], seed=99)
    other.load_state(state)
    artifacts.save_checkpoint(p2, other, {"tag": "x"})
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().startswith(b"OIKG0002")


def test_checkpoint_bad_magic_and_truncation(tmp_path):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(SchemaError):
        artifacts.load_checkpoint(p, {})
    p.write_bytes(b"OIKG0001" + b"\x00" * 16)   # the older per-block format
    with pytest.raises(SchemaError, match="retrain"):
        artifacts.load_checkpoint(p, {})
    good = tmp_path / "good.ckpt"
    artifacts.save_checkpoint(good, nn.init_params([("w", (2, 2))], seed=0), {"n": 1})
    with pytest.raises(SchemaError, match="'n' has a value of the wrong type"):
        artifacts.load_checkpoint(good, {"n": str})
    with pytest.raises(SchemaError, match="missing key 'm'"):
        artifacts.load_checkpoint(good, {"m": int})
    trunc = tmp_path / "trunc.ckpt"
    trunc.write_bytes(good.read_bytes()[:-5])
    with pytest.raises(SchemaError):
        artifacts.load_checkpoint(trunc, {})


def raw_checkpoint(table, payload: bytes | None = None, head: bytes | None = None) -> bytes:
    """A checkpoint written by hand: the header holding ``table`` (or the
    raw ``head`` bytes), then ``payload`` (zeros filling the table if not
    given)."""
    if head is None:
        head = json.dumps({"blocks": table}).encode("utf-8")
    if payload is None:
        payload = b"\0" * sum(8 * math.prod(dims) for _, dims in table)
    return artifacts.CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + payload


@pytest.mark.parametrize("blob", [
    raw_checkpoint([], head=b'{"blocks": [["\xff\xfe", [1]]]}'),
    # the product wraps negative in int64; Python ints see a huge block
    raw_checkpoint([["w", [2 ** 32 - 1, 2 ** 32 - 1]]], payload=b"\0" * 8),
    raw_checkpoint([["w", [1]], ["w", [1]]]),
    raw_checkpoint([["w", [1] * 33]]),
    # read as a count, -1 would step back into the header for the next block
    raw_checkpoint([["a", [-1]], ["b", [2]]], payload=b"\0" * 8),
    raw_checkpoint([["w", [1], "extra"]], payload=b"\0" * 8),
    raw_checkpoint([["w", [True]]], payload=b"\0" * 8),
    raw_checkpoint([["w", [1]]], payload=b"\0" * 16),
], ids=["non_utf8_name", "dims_overflow_int64", "duplicate_name",
        "too_many_dims", "negative_dim", "not_a_pair", "bool_dim", "extra_byte"])
def test_checkpoint_malformed_blocks_raise_schema_error(tmp_path, blob):
    p = tmp_path / "bad.ckpt"
    p.write_bytes(blob)
    with pytest.raises(SchemaError):
        artifacts.load_checkpoint(p, {})


def test_checkpoint_table_of_32_dims_loads(tmp_path):
    p = tmp_path / "deep.ckpt"
    p.write_bytes(raw_checkpoint([["w", [1] * 32]]))
    _, state = artifacts.load_checkpoint(p, {})
    assert state["w"].shape == (1,) * 32


PROP_SPEC = [("m.w", (2, 3)), ("m.b", (3,)), ("s", ())]


@pytest.fixture(scope="module")
def valid_ckpt(tmp_path_factory):
    """(scratch dir, bytes of a valid checkpoint of PROP_SPEC)."""
    d = tmp_path_factory.mktemp("ckpt_props")
    artifacts.save_checkpoint(d / "valid.ckpt", nn.init_params(PROP_SPEC, seed=7),
                              {"config_hash": "0123456789abcdef"})
    return d, (d / "valid.ckpt").read_bytes()


def _load_bytes(d, blob: bytes):
    p = d / "probe.ckpt"
    p.write_bytes(blob)
    return artifacts.load_checkpoint(p, {"config_hash": str})


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_checkpoint_strict_prefix_never_loads_whole(valid_ckpt, data):
    d, blob = valid_ckpt
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    with pytest.raises(SchemaError):
        _load_bytes(d, blob[:cut])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_checkpoint_single_byte_overwrite_loads_or_schema_error(valid_ckpt,
                                                                data):
    d, blob = valid_ckpt
    pos = data.draw(st.integers(0, len(blob) - 1), label="pos")
    changed = bytearray(blob)
    changed[pos] = data.draw(st.integers(0, 255), label="value")
    try:
        _load_bytes(d, bytes(changed))
    except SchemaError:
        pass


def test_load_state_copies_the_callers_arrays():
    """Two stores loaded from one dict share no memory with it or with each
    other: a step on one leaves the other store and the dict as they were."""
    spec = [("sel.mlp.w1", (4, 3)), ("sel.mlp.b1", (3,))]
    state = {name: nn.init_params(spec, seed=5)[name].data.copy() for name, _ in spec}
    before = {name: arr.copy() for name, arr in state.items()}
    a, b = nn.init_params(spec, seed=0), nn.init_params(spec, seed=1)
    a.load_state(state)
    b.load_state(state)
    for name in state:
        assert not np.shares_memory(a[name].data, state[name])
        assert not np.shares_memory(a[name].data, b[name].data)
    for name in state:
        a[name].grad = np.ones_like(a[name].data)
    nn.optimizer_step(a, lr=0.1)
    assert not np.array_equal(a["sel.mlp.w1"].data, before["sel.mlp.w1"])
    for name in state:
        assert same_bits(b[name].data, before[name]) and same_bits(state[name], before[name])


def test_load_state_mismatch_errors(tmp_path):
    store = nn.init_params([("w", (2, 2))], seed=0)
    with pytest.raises(IncompatibleCheckpoint):
        store.load_state({"w": np.zeros((3, 3))})
    with pytest.raises(IncompatibleCheckpoint):
        store.load_state({"other": np.zeros((2, 2))})
    with pytest.raises(IncompatibleCheckpoint):
        store.load_state({"w": np.zeros((2, 2)), "extra": np.zeros(1)})
