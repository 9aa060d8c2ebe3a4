"""Finite-difference checks for every primitive in the autodiff engine."""

from itertools import combinations

import numpy as np
import pytest
from scipy import sparse

from topodecode import autodiff as ad
from topodecode.complexes import SimplicialComplex, incidence_matrix
from topodecode.model import FactoredHalf


def fd_check(build_loss, leaves, eps=1e-6, tol=1e-6):
    """Compare reverse-mode grads of a scalar graph against central
    differences for every element of every leaf."""
    for leaf in leaves:
        leaf.grad = None
    loss = build_loss()
    ad.backward(loss)
    for leaf in leaves:
        grad = np.atleast_1d(leaf.grad)
        flat = np.atleast_1d(leaf.value).reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = float(build_loss().value)
            flat[i] = orig - eps
            down = float(build_loss().value)
            flat[i] = orig
            fd = (up - down) / (2 * eps)
            g = grad.reshape(-1)[i]
            assert abs(g - fd) <= tol * max(1.0, abs(fd)), (g, fd)


def test_add_broadcast_and_matmul():
    rng = np.random.default_rng(0)
    w = ad.var(rng.normal(size=(3, 4)))
    x = ad.var(rng.normal(size=(4, 5)))
    b = ad.var(rng.normal(size=(3, 1)))
    t = rng.normal(size=(3, 5))
    fd_check(lambda: ad.mse(ad.add(ad.matmul(w, x), b), t), [w, x, b])


def test_spmm_and_scale():
    rng = np.random.default_rng(1)
    m = sparse.random(6, 6, density=0.4, random_state=2, format="csr")
    x = ad.var(rng.normal(size=(6, 3)))
    s = ad.var(0.7)
    t = rng.normal(size=(6, 3))
    fd_check(lambda: ad.mse(ad.scale(s, ad.spmm(m, x)), t), [x, s])


@pytest.mark.parametrize("k, lower", [(1, True), (2, True), (1, False)])
def test_spmm_through_factored_half(k, lower):
    """Gradients through a FactoredHalf, applied twice as in a degree-2
    filter, match central differences."""
    rng = np.random.default_rng(4)
    S = SimplicialComplex(
        4, {1: list(combinations(range(4), 2)), 2: [(0, 1, 2), (0, 1, 3), (1, 2, 3)]}
    )
    op = FactoredHalf(incidence_matrix(S, k if lower else k + 1), lower)
    n = S.n_simplices(k)
    x = ad.var(rng.normal(size=(n, 3)))
    s = ad.var(0.7)
    t = rng.normal(size=(n, 3))
    fd_check(lambda: ad.mse(ad.scale(s, ad.spmm(op, ad.relu(ad.spmm(op, x)))), t), [x, s])


def test_activations():
    rng = np.random.default_rng(2)
    x = ad.var(rng.normal(size=(4, 3)) + 0.1)
    t = rng.normal(size=(4, 3))
    fd_check(lambda: ad.mse(ad.relu(x), t), [x])
    fd_check(lambda: ad.mse(ad.tanh(x), t), [x])


def test_take_cols_repeated_and_permuted():
    rng = np.random.default_rng(3)
    x = ad.var(rng.normal(size=(3, 5)))
    idx = np.array([4, 0, 2, 0, 4, 4, 1])  # column 3 unused
    t = rng.normal(size=(3, 7))
    assert np.array_equal(ad.take_cols(x, idx).value, x.value[:, idx])
    fd_check(lambda: ad.mse(ad.take_cols(x, idx), t), [x])


def test_no_grad_records_nothing_until_the_block_ends():
    rng = np.random.default_rng(6)
    w = ad.var(rng.normal(size=(3, 4)))
    x = ad.var(rng.normal(size=(4, 2)))

    def build():
        return ad.tanh(ad.matmul(w, x))

    recorded = build()
    with ad.no_grad():
        free = build()
    assert recorded._parents
    assert free._parents == () and free._vjp is None
    assert np.array_equal(free.value, recorded.value)

    with pytest.raises(RuntimeError):
        with ad.no_grad():
            raise RuntimeError("inside the block")
    loss = ad.mse(build(), np.zeros((3, 2)))
    assert loss._parents
    ad.backward(loss)
    assert w.grad is not None and np.any(w.grad != 0.0)


def test_add_n_and_mask():
    rng = np.random.default_rng(4)
    xs = [ad.var(rng.normal(size=(3, 3))) for _ in range(3)]
    mask = (rng.random((3, 3)) > 0.3) / 0.7
    t = rng.normal(size=(3, 3))
    fd_check(lambda: ad.mse(ad.mul_mask(ad.add_n(xs), mask), t), xs)


def test_shared_subexpression_accumulates():
    # loss = (x + x)^2 so dloss/dx = 8x; both paths must contribute
    x = ad.var(np.array([[1.5]]))
    loss = ad.mse(ad.add(x, x), np.array([[0.0]]))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 8.0 * 1.5)


def test_backward_is_deterministic():
    rng = np.random.default_rng(5)
    w = ad.var(rng.normal(size=(4, 4)))
    x = ad.var(rng.normal(size=(4, 2)))
    t = rng.normal(size=(4, 2))

    def run():
        w.grad = None
        x.grad = None
        loss = ad.mse(ad.tanh(ad.matmul(w, x)), t)
        ad.backward(loss)
        return np.array(w.grad, copy=True)

    g1, g2 = run(), run()
    assert np.array_equal(g1, g2)
