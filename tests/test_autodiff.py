"""Finite-difference checks for every primitive in the autodiff engine."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import sparse

import oracle
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


def test_relu_lincomb_over_constant_and_var_terms():
    """A filter over constant terms, a Var and a sparse product of it: the
    ReLU of the sum in term order, constant terms left out of the graph,
    and its gradients equal to central differences."""
    rng = np.random.default_rng(1)
    m = sparse.random(6, 6, density=0.4, random_state=2, format="csr")
    x = ad.var(rng.normal(size=(6, 3)))
    ws = [ad.var(w) for w in (0.7, -1.3, 0.4, 2.1)]
    c0, c1 = rng.normal(size=(2, 6, 3))
    t = rng.normal(size=(6, 3))

    def build():
        return ad.relu_lincomb(ws, [c0, x, ad.spmm(m, x), c1])

    out = build()
    want = ws[0].value * c0
    for w, term in zip(ws[1:], (x.value, m @ x.value, c1)):
        want += w.value * term
    want = np.maximum(want, 0.0)
    assert np.any(want == 0.0) and np.any(want > 0.0)
    assert out.value.tobytes() == want.tobytes()
    assert out._parents[:5] == (*ws, x) and len(out._parents) == 6
    assert ad.relu_lincomb(ws[:2], [c0, c1])._parents == tuple(ws[:2])
    fd_check(lambda: ad.mse(build(), t), [x, *ws])


_SPECIAL = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, np.nan])
_ENTRIES = st.one_of(_SPECIAL, st.floats(-8.0, 8.0))


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_relu_lincomb_bitwise_equals_relu_of_weighted_sum(data):
    """Value and gradients, bit for bit, of a weighted sum followed by a
    ReLU as two steps, on sums that are exactly 0.0 or -0.0, negative or
    NaN, over any mix of constant and Var terms."""
    n_terms = data.draw(st.integers(1, 4))
    shape = data.draw(st.tuples(st.integers(1, 4), st.integers(1, 4)))
    ws = [ad.var(data.draw(_ENTRIES)) for _ in range(n_terms)]
    terms = [data.draw(hnp.arrays(np.float64, shape, elements=_ENTRIES)) for _ in range(n_terms)]
    args = [ad.var(t) if data.draw(st.booleans()) else t for t in terms]
    g = data.draw(hnp.arrays(np.float64, shape, elements=st.floats(-8.0, 8.0)))
    want, dws, dts = oracle.relu_lincomb([w.value for w in ws], terms, g)
    out = ad.relu_lincomb(ws, args)
    assert out.value.tobytes() == want.tobytes()
    ad.backward(ad.mul_mask(out, g))
    for w, dw in zip(ws, dws):
        assert np.asarray(w.grad).tobytes() == np.asarray(dw).tobytes()
    for arg, dt in zip(args, dts):
        if isinstance(arg, ad.Var):
            assert arg.grad.tobytes() == dt.tobytes()


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
    ws = [ad.var(0.7), ad.var(-0.4)]
    t = rng.normal(size=(n, 3))
    fd_check(
        lambda: ad.mse(ad.relu_lincomb(ws, [x, ad.spmm(op, ad.relu(ad.spmm(op, x)))]), t),
        [x, *ws],
    )


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


def test_shared_gradient_arrays_are_not_added_into():
    """``add`` hands one gradient array to both parents; a second
    contribution to one of them must not change the other's."""
    rng = np.random.default_rng(10)
    x = ad.var(rng.normal(size=(3, 2)))
    y = ad.var(rng.normal(size=(3, 2)))
    t = rng.normal(size=(3, 2))

    def build():
        a = ad.tanh(x)
        return ad.mse(ad.add(ad.add_n([a, ad.relu(y)]), a), t)

    fd_check(build, [x, y])


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


def test_backward_consumes_graph_and_leaves_keep_grads():
    """After the walk, interior nodes hold no gradient, parents or VJP;
    leaves, including one read twice, keep theirs."""
    rng = np.random.default_rng(7)
    w = ad.var(rng.normal(size=(3, 4)))
    x = ad.var(rng.normal(size=(4, 2)))
    hidden = ad.tanh(ad.matmul(w, x))
    both = ad.add_n([hidden, ad.relu(ad.matmul(w, x))])
    loss = ad.mse(both, np.zeros((3, 2)))
    ad.backward(loss)
    for node in (hidden, both, loss):
        assert node.grad is None and node._parents == () and node._vjp is None
    assert w.grad.shape == (3, 4) and x.grad.shape == (4, 2)
    assert np.any(w.grad != 0.0) and np.any(x.grad != 0.0)


def test_backward_peak_memory_does_not_grow_with_chain_length():
    """On a chain of same-sized tanh nodes the walk's traced peak is a few
    node sizes: each interior gradient and value is freed once its VJP
    has run, instead of all of them living until the walk ends."""
    import tracemalloc

    node_bytes = 8 * 20_000
    x = ad.var(np.linspace(-1.0, 1.0, node_bytes // 8).reshape(100, -1))
    peaks = []
    for n in (10, 40):
        h = x
        for _ in range(n):
            h = ad.tanh(h)
        loss = ad.mse(h, np.zeros(h.shape))
        del h
        x.grad = None
        tracemalloc.start()
        try:
            ad.backward(loss)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) < 6 * node_bytes, peaks


BLOCK_SHAPES = [(3, 2), (0, 4), (2, 1), (1, 3)]


def test_block_matmul_matches_finite_differences():
    """Blocks of unequal width, one of them empty (no k-simplices), as for
    a complex with no triangles."""
    rng = np.random.default_rng(8)
    w = ad.var(rng.normal(size=(4, 6)))
    xs = [ad.var(rng.normal(size=shape)) for shape in BLOCK_SHAPES]
    t = rng.normal(size=(4, 10))
    out = ad.block_matmul(w, xs)
    assert out.shape == (4, 10)
    fd_check(lambda: ad.mse(ad.block_matmul(w, xs), t), [w, *xs])
    with pytest.raises(ValueError, match="blocks have 5 rows in all, w has 6 columns"):
        ad.block_matmul(w, xs[:3])


def test_block_matmul_bitwise_equals_gather_and_products():
    """Per-bin gathers from the one projection node give the values and
    gradients, bit for bit, of gathers from a column gather of each block
    of ``w`` times its block. With OpenBLAS on x86-64, a C-ordered block
    of these sizes gives other bits than the gather's F-ordered copy."""
    rng = np.random.default_rng(9)
    shapes = [(48, 300), (876, 97), (0, 1), (30, 50)]
    w = ad.var(rng.normal(size=(64, sum(n for n, _ in shapes))))
    xs = [ad.var(rng.normal(size=shape)) for shape in shapes]
    reads = [rng.integers(c, size=40) for _, c in shapes]
    g = rng.normal(size=(64, 40))
    rows = np.cumsum([0] + [n for n, _ in shapes])
    cols = np.cumsum([0] + [c for _, c in shapes])

    def run(gather):
        for leaf in (w, *xs):
            leaf.grad = None
        per_bin = ad.add_n([gather(k) for k in range(len(xs))])
        ad.backward(ad.mul_mask(per_bin, g))
        return [per_bin.value, w.grad] + [x.grad for x in xs]

    blocks = [
        ad.matmul(ad.take_cols(w, np.arange(rows[k], rows[k + 1])), x) for k, x in enumerate(xs)
    ]
    composed = run(lambda k: ad.take_cols(blocks[k], reads[k]))
    fused = ad.block_matmul(w, xs)
    assert fused.value.tobytes() == np.concatenate([b.value for b in blocks], axis=1).tobytes()
    got = run(lambda k: ad.take_cols(fused, reads[k] + cols[k]))
    for a, b in zip(got, composed):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
