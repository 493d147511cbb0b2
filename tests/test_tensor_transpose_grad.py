"""Transposes lend their gradient buffer to their input instead of copying it.

``Tensor.transpose``'s backward hands its input a transposed *view* of the
output's gradient and marks both sides of the loan read-only (a later
contribution to either copies on write).  These tests pin that the aliasing
is invisible:

* every leaf gradient is byte-equal (values *and* memory layout) to the
  copying transpose it replaced, on three graphs where a transpose's buffer
  could leak: a parameter used through two transposes, a transpose of a
  transpose, and one transposed input feeding both a matmul and an add;
* a backward never changes the gradients of tensors outside its graph, and a
  second backward over a retained graph accumulates exactly as the copying
  transpose did;
* the world-batched ``Linear`` weight gradient is the adopted view itself.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import layers as L
from repro.nn.batched import replica_views
from repro.tensorlib import Tensor


def _copying_transpose(t: Tensor, *axes) -> Tensor:
    """The transpose as it was before adoption: backward makes a layout-keeping copy."""
    inverse = np.argsort(axes)

    def backward(grad: np.ndarray) -> None:
        t._accumulate(np.array(grad.transpose(inverse), copy=True), own=True)

    return Tensor._attach(t.data.transpose(axes), (t,), backward)


def _adopting_transpose(t: Tensor, *axes) -> Tensor:
    return t.transpose(*axes)


def _weighted_sum(out: Tensor, rng: np.random.Generator) -> Tensor:
    weights = rng.standard_normal(out.shape)
    weights.flat[0] = -0.0
    return (out * Tensor(weights)).sum()


def _shared_weight(tr, leaves, rng):
    """``x @ W.T + y @ W.T``: one parameter reached through two transposes."""
    x, y, w = leaves["x"], leaves["y"], leaves["w"]
    first, second = tr(w, 1, 0), tr(w, 1, 0)
    loss = _weighted_sum(x.matmul(first) + y.matmul(second), rng)
    return loss, {"first": first, "second": second}


def _double_transpose(tr, leaves, rng):
    """A world-batched ``(world, out, in)`` weight transposed three times over."""
    x, w = leaves["x3"], leaves["w3"]
    inner = tr(w, 0, 2, 1)  # (2, 3, 4)
    outer = tr(inner, 0, 2, 1)  # (2, 4, 3)
    last = tr(outer, 0, 2, 1)  # (2, 3, 4)
    loss = _weighted_sum(x.matmul(last), rng)
    return loss, {"inner": inner, "outer": outer, "last": last}


def _transposed_input_twice(tr, leaves, rng):
    """``x.T`` feeding both a matmul and an add."""
    x, a = leaves["u"], leaves["a"]
    xt = tr(x, 1, 0)  # (4, 3)
    loss = _weighted_sum(xt.matmul(a) + xt, rng)
    return loss, {"xt": xt}


GRAPHS = [_shared_weight, _double_transpose, _transposed_input_twice]

LEAF_SHAPES = {
    "x": (5, 3), "y": (5, 3), "w": (4, 3),
    "x3": (2, 5, 3), "w3": (2, 4, 3),
    "u": (3, 4), "a": (3, 3),
}


def _leaves(seed: int):
    rng = np.random.default_rng(seed)
    return {
        name: Tensor(rng.standard_normal(shape), requires_grad=True)
        for name, shape in LEAF_SHAPES.items()
    }


def _build(graph, tr, seed, leaves=None):
    """``(loss, leaves, the graph's transposes)``; fresh leaves unless given."""
    leaves = _leaves(seed) if leaves is None else leaves
    loss, transposes = graph(tr, leaves, np.random.default_rng(seed + 100))
    return loss, leaves, transposes


def _assert_same_gradient(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    assert actual.strides == expected.strides
    assert actual.tobytes() == expected.tobytes()


def _used(leaves):
    """The leaves a backward reached."""
    return {name: leaf for name, leaf in leaves.items() if leaf.grad is not None}


@pytest.mark.parametrize("graph", GRAPHS, ids=lambda g: g.__name__.strip("_"))
class TestTransposeAdoption:
    def test_leaf_gradients_match_copying_transpose(self, graph):
        loss, leaves, _ = _build(graph, _adopting_transpose, seed=3)
        reference_loss, reference_leaves, _ = _build(graph, _copying_transpose, seed=3)
        loss.backward()
        reference_loss.backward()
        used = _used(leaves)
        assert set(used) == set(_used(reference_leaves)) and len(used) >= 2
        for name, leaf in used.items():
            _assert_same_gradient(leaf.grad, reference_leaves[name].grad)

    def test_transposes_lend_their_buffers(self, graph):
        loss, _, transposes = _build(graph, _adopting_transpose, seed=4)
        loss.backward()
        lent = 0
        for t in transposes.values():
            (parent,) = t._parents
            # A loan leaves both sides read-only.  An input that already had
            # a gradient borrows nothing, and one that borrowed copies on its
            # next contribution, so not every pair still shares memory.
            if np.shares_memory(parent.grad, t.grad):
                assert not parent.grad.flags.writeable
            lent += not t.grad.flags.writeable
        assert lent >= 1

    @pytest.mark.parametrize("other", GRAPHS, ids=lambda g: g.__name__.strip("_"))
    def test_backward_leaves_other_graphs_unchanged(self, graph, other):
        # Two graphs over the same leaves, with the leaves' gradients rebound
        # in between (what ``zero_grad`` does): the second backward must not
        # reach the first graph's gradients through a lent buffer.
        loss, leaves, transposes = _build(graph, _adopting_transpose, seed=5)
        loss.backward()
        before = {name: np.array(t.grad, copy=True) for name, t in transposes.items()}
        for leaf in leaves.values():
            leaf.grad = None
        second, _, _ = _build(other, _adopting_transpose, seed=6, leaves=leaves)
        second.backward()
        for name, t in transposes.items():
            _assert_same_gradient(t.grad, before[name])

    def test_second_backward_over_retained_graph(self, graph):
        loss, leaves, _ = _build(graph, _adopting_transpose, seed=7)
        reference_loss, reference_leaves, _ = _build(graph, _copying_transpose, seed=7)
        for _ in range(2):
            loss.backward()
            reference_loss.backward()
        for name, leaf in _used(leaves).items():
            _assert_same_gradient(leaf.grad, reference_leaves[name].grad)


def test_batched_linear_weight_gradient_is_the_adopted_view():
    rng = np.random.default_rng(0)
    layer = L.Linear(6, 4, rng=rng)
    world = 3
    images = rng.standard_normal((world, 2, 6))
    with replica_views(layer, world) as views:
        out = layer(Tensor(images))
        (out * Tensor(rng.standard_normal(out.shape))).sum().backward()
        grad = views["weight"].grad
    assert grad.shape == (world, 4, 6)
    # The GEMM writes (world, in, out); the stack is its transposed view,
    # not a C-contiguous copy.
    assert not grad.flags.c_contiguous
    assert grad.base is not None
    assert not grad.flags.writeable
