"""Tape ops that only test losses use: elementwise difference and product,
and the sum of all entries.  They build their nodes through ``nn.tape_node``
like the library's own ops, and test_nn checks their gradients by finite
differences."""

import numpy as np

from oikg import nn


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
