import numpy as np
import pytest

from oracle import (
    ScLayer,
    SimplicialFilter,
    apply_filter,
    flatten,
    param_count,
    sc_forward_final,
    sc_forward_first,
    sc_forward_intermediate,
    sc_stack,
)
from topodecode.complexes import build_complex, hodge_laplacian
from topodecode.config import TrainConfig
from topodecode.model import ScrnnModel


def const_filter(k, top, w0=0.0, lower=0.0, upper=0.0, degree=1):
    return SimplicialFilter(
        k=k,
        degree=degree,
        w0=w0,
        w_lower=np.full(0 if k == 0 else degree, lower, dtype=np.float64),
        w_upper=np.full(0 if k == top else degree, upper, dtype=np.float64),
    )


def simplex_model(K, F=1, D=1, L=1, seed=0):
    """An SCRNN with seeded random filters on the full simplex over K+1
    vertices, whose top dimension is K."""
    S = build_complex(np.ones((K + 1, 1), dtype=np.int8), K)
    cfg = TrainConfig(sc_layers=L, n_filters=F, degree=D, hidden_size=2, seed=seed)
    return ScrnnModel(S, cfg)


def identity_layer(top, n_filters=1):
    return ScLayer(
        filters=[
            {k: const_filter(k, top, w0=1.0) for k in range(top + 1)}
            for _ in range(n_filters)
        ]
    )


class TestApplyFilter:
    def test_identity(self, triangle_laps):
        x = np.array([[1.0], [2.0], [-1.0]])
        out = apply_filter(const_filter(1, 2, w0=1.0), triangle_laps[1], x)
        np.testing.assert_array_equal(out, x)

    def test_lower_gram_on_edges(self, triangle_laps):
        x = np.array([[1.0], [0.0], [0.0]])
        out = apply_filter(const_filter(1, 2, lower=1.0), triangle_laps[1], x)
        np.testing.assert_allclose(out.ravel(), [2.0, 1.0, -1.0])
        full = np.eye(3)
        got = apply_filter(const_filter(1, 2, lower=1.0), triangle_laps[1], full)
        np.testing.assert_allclose(got, [[2, 1, -1], [1, 2, 1], [-1, 1, 2]])

    def test_zero_cochain(self, triangle_laps):
        out = apply_filter(
            const_filter(1, 2, w0=0.3, lower=0.7, upper=-0.2),
            triangle_laps[1],
            np.zeros((3, 1)),
        )
        assert not np.any(out)

    def test_dimension_mismatch(self, triangle_laps):
        with pytest.raises(ValueError):
            apply_filter(const_filter(1, 2, w0=1.0), triangle_laps[0], np.zeros((3, 1)))
        with pytest.raises(ValueError):
            apply_filter(const_filter(0, 2, w0=1.0), triangle_laps[0], np.zeros((5, 1)))

    def test_linearity(self, triangle_laps):
        rng = np.random.default_rng(2)
        filt = SimplicialFilter(
            k=1,
            degree=2,
            w0=0.5,
            w_lower=rng.normal(size=2),
            w_upper=rng.normal(size=2),
        )
        x, y = rng.normal(size=(3, 1)), rng.normal(size=(3, 1))
        a, b = 0.73, -1.4
        left = apply_filter(filt, triangle_laps[1], a * x + b * y)
        right = a * apply_filter(filt, triangle_laps[1], x) + b * apply_filter(
            filt, triangle_laps[1], y
        )
        np.testing.assert_allclose(left, right, rtol=1e-10)

    def test_locality_one_hop(self):
        # degree-1 output support stays within face/coface adjacency, i.e.
        # the union pattern of the lower and upper halves (entries of the
        # summed Laplacian may cancel)
        rng = np.random.default_rng(4)
        m = (rng.random((9, 40)) < 0.3).astype(np.int8)
        S = build_complex(m, 2)
        lap = hodge_laplacian(S, 1)
        n1 = S.n_simplices(1)
        pattern = (
            (lap.lower.toarray() != 0)
            | (lap.upper.toarray() != 0)
            | np.eye(n1, dtype=bool)
        )
        filt = SimplicialFilter(
            k=1, degree=1, w0=0.9, w_lower=np.array([0.7]), w_upper=np.array([-0.3])
        )
        for j in range(min(n1, 6)):
            x = np.zeros((n1, 1))
            x[j] = 1.0
            out = apply_filter(filt, lap, x).ravel()
            assert np.all(pattern[:, j] | (out == 0.0))


class TestLayerDynamics:
    def test_first_layer_zero_input(self, triangle_laps):
        layer = identity_layer(2, n_filters=3)
        chains = {k: np.zeros((triangle_laps[k].lower.shape[0], 1)) for k in range(3)}
        feats = sc_forward_first(layer, triangle_laps, chains)
        assert len(feats) == 3
        assert all(not np.any(f[k]) for f in feats for k in f)

    def test_first_layer_identity(self, triangle_laps):
        layer = identity_layer(2)
        chains = {
            0: np.array([[1.0], [2.0], [3.0]]),
            1: np.array([[1.0], [0.0], [1.0]]),
            2: np.array([[1.0]]),
        }
        feats = sc_forward_first(layer, triangle_laps, chains, activation="identity")
        for k in range(3):
            np.testing.assert_array_equal(feats[0][k], chains[k])

    def test_two_filters_two_outputs(self, triangle_laps):
        layer = identity_layer(2, n_filters=2)
        chains = {k: np.ones((triangle_laps[k].lower.shape[0], 1)) for k in range(3)}
        feats = sc_forward_first(layer, triangle_laps, chains)
        assert len(feats) == 2

    def test_intermediate_single_filter_degenerate(self, triangle_laps):
        layer = identity_layer(2)
        feats = [{k: np.ones((triangle_laps[k].lower.shape[0], 1)) for k in range(3)}]
        out = sc_forward_intermediate(layer, triangle_laps, feats, "identity")
        assert len(out) == 1
        for k in range(3):
            np.testing.assert_array_equal(out[0][k], feats[0][k])

    def test_intermediate_zero_features(self, triangle_laps):
        layer = identity_layer(2, n_filters=2)
        feats = [
            {k: np.zeros((triangle_laps[k].lower.shape[0], 1)) for k in range(3)}
            for _ in range(2)
        ]
        out = sc_forward_intermediate(layer, triangle_laps, feats)
        assert all(not np.any(f[k]) for f in out for k in f)

    def test_intermediate_identity_filters_double(self, triangle_laps):
        # two identity filters applied to the same feature and summed
        layer = identity_layer(2, n_filters=2)
        feats = [
            {k: np.full((triangle_laps[k].lower.shape[0], 1), float(g + 1))
             for k in range(3)}
            for g in range(2)
        ]
        out = sc_forward_intermediate(layer, triangle_laps, feats, "identity")
        for g in range(2):
            for k in range(3):
                np.testing.assert_array_equal(out[g][k], 2.0 * feats[g][k])

    def test_final_single_filter(self, triangle_laps):
        layer = identity_layer(2)
        feats = [{k: np.ones((triangle_laps[k].lower.shape[0], 1)) for k in range(3)}]
        out = sc_forward_final(layer, triangle_laps, feats, activation="identity")
        for k in range(3):
            np.testing.assert_array_equal(out[k], feats[0][k])

    def test_final_collapses_columns(self, triangle_laps):
        layer = identity_layer(2)
        feats = [
            {
                0: np.array([[1.0, 2.0, 3.0], [0.0, 1.0, 0.0], [1.0, 1.0, 1.0]]),
                1: np.ones((3, 1)),
                2: np.ones((1, 1)),
            }
        ]
        out = sc_forward_final(layer, triangle_laps, feats, n_col=3, activation="identity")
        np.testing.assert_array_equal(out[0].ravel(), [6.0, 1.0, 3.0])

    def test_final_zero(self, triangle_laps):
        layer = identity_layer(2, n_filters=2)
        feats = [
            {k: np.zeros((triangle_laps[k].lower.shape[0], 1)) for k in range(3)}
            for _ in range(2)
        ]
        out = sc_forward_final(layer, triangle_laps, feats)
        assert all(not np.any(out[k]) for k in out)

    def test_every_layer_emits_f_features(self, triangle_laps):
        for n_filters in (1, 2, 3):
            stack = sc_stack(simplex_model(2, F=n_filters, L=3))
            chains = {
                k: np.ones((triangle_laps[k].lower.shape[0], 1)) for k in range(3)
            }
            feats = sc_forward_first(stack.layers[0], triangle_laps, chains)
            assert len(feats) == n_filters
            for layer in stack.layers[1:]:
                feats = sc_forward_intermediate(layer, triangle_laps, feats)
                assert len(feats) == n_filters


class TestFlatten:
    def test_triangle_length(self):
        outputs = {0: np.zeros(3), 1: np.zeros(3), 2: np.zeros(1)}
        assert flatten(outputs).shape == (7,)

    def test_ordering(self):
        outputs = {0: np.array([1.0, 2.0]), 1: np.array([3.0]), 2: np.array([4.0])}
        np.testing.assert_array_equal(flatten(outputs), [1, 2, 3, 4])

    def test_empty_dimension_contributes_nothing(self):
        outputs = {0: np.array([1.0, 2.0]), 1: np.zeros(0), 2: np.array([5.0])}
        np.testing.assert_array_equal(flatten(outputs), [1, 2, 5])


class TestParamCount:
    def test_worked_cases(self):
        assert param_count(2, 1, 2, 2) == 28
        assert param_count(1, 1, 1, 1) == 4
        assert param_count(3, 2, 2, 1) == 33

    def test_matches_enumeration_everywhere(self):
        for F in (1, 2, 3):
            for D in (1, 2):
                for K in (1, 2, 3):
                    for L in (1, 2, 3):
                        model = simplex_model(K, F, D, L)
                        n_sc = sum(name.startswith("sc.") for name in model.params)
                        assert n_sc == param_count(F, D, K, L)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            param_count(0, 1, 1, 1)

    def test_boundary_dimensions_have_d_plus_one(self):
        params = simplex_model(3, D=2, seed=1).params
        n_weights = [
            sum(name.startswith(f"sc.l0.f0.k{k}.") for name in params) for k in range(4)
        ]
        assert n_weights == [3, 5, 5, 3]
