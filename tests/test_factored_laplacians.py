"""The Laplacian halves a ScrnnModel applies: assembled or through their
incidence factor, the same operator either way."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import face_closed_complexes
from topodecode.complexes import coactivity_matrix, complex_laplacians, incidence_matrix
from topodecode.config import TrainConfig
from topodecode.model import FactoredHalf, PreparedData, ScrnnModel, prepare
from topodecode.synth import GridSimConfig, simulate_grid


def small_cfg(degree=1, **kw):
    return TrainConfig(hidden_size=2, sc_layers=1, n_filters=1, degree=degree, **kw)


def factors(S, k):
    """``(B_k, B_{k+1})``, None where the half has no factor."""
    return (
        incidence_matrix(S, k) if k else None,
        incidence_matrix(S, k + 1) if k < S.dim else None,
    )


def factor_every_half(model):
    """Replace every half that has a factor by its FactoredHalf."""
    for k, halves in model.laps.items():
        model.laps[k] = tuple(
            half if b is None else FactoredHalf(b, lower)
            for half, b, lower in zip(halves, factors(model.complex, k), (True, False))
        )


class TestFactoredHalf:
    @given(face_closed_complexes())
    @settings(max_examples=120, deadline=None)
    def test_operator_equals_assembled_half(self, complex_and_bits):
        """Every half the model holds, and the FactoredHalf of every half
        that has a factor, applies the assembled half, and so does its
        ``.T``; the FactoredHalf's ``.T`` is the operator itself. The model
        factors a half exactly when 2 nnz(B) + n_mid < nnz(half)."""
        S, _ = complex_and_bits
        model = ScrnnModel(S, small_cfg())
        for k, lap in complex_laplacians(S).items():
            eye = np.eye(S.n_simplices(k))
            halves = zip((lap.lower, lap.upper), model.laps[k], factors(S, k), (True, False))
            for half, held, b, lower in halves:
                want = half.toarray()
                assert np.array_equal(held @ eye, want)
                assert np.array_equal(held.T @ eye, want)
                cheaper = b is not None and (
                    2 * b.nnz + (b.shape[0] if lower else b.shape[1]) < half.nnz
                )
                assert isinstance(held, FactoredHalf) == cheaper
                if b is not None:
                    op = FactoredHalf(b, lower)
                    assert op.T is op
                    assert np.array_equal(op @ eye, want)

    @given(face_closed_complexes(), st.integers(1, 3), st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_input_terms_bitwise_equal_to_assembled_products(self, complex_and_bits, degree, seed):
        """Counts and 0/1 coactivities are integers, and so are the factors,
        so the input terms through factored halves carry the same bits as
        the products with the assembled halves."""
        S, bits = complex_and_bits
        counts = np.random.default_rng(seed).integers(0, 6, size=bits.shape) * bits
        n_bins = bits.shape[1]
        laps = complex_laplacians(S)
        for force in (False, True):
            prep = PreparedData(
                kind="hd", counts=counts, bits=bits, label_values=np.zeros(n_bins),
                targets=np.zeros((2, n_bins)), n_test=0, seq_len=1, n_col=1,
                train_starts=np.arange(n_bins), test_starts=np.arange(0), complex=S,
            )
            model = ScrnnModel(S, small_cfg(degree))
            if force:
                factor_every_half(model)
            terms, pattern_of_bin = model._input_terms(prep)
            for k in range(S.dim + 1):
                x = counts if k == 0 else coactivity_matrix(S, bits, k)
                want = [x.astype(np.float64)]
                for half, present in ((laps[k].lower, k >= 1), (laps[k].upper, k < S.dim)):
                    power = want[0]
                    for _ in range(degree if present else 0):
                        power = half.astype(np.float64) @ power
                        want.append(power)
                want = np.stack(want)
                got = terms[k] if k == 0 else terms[k][:, :, pattern_of_bin]
                assert got.shape == want.shape and got.dtype == want.dtype
                assert got.tobytes() == want.tobytes(), (force, k)


def test_grid_session_factors_the_lower_halves():
    """On a grid session with a dense complex the rule factors the lower
    halves at k = 1 and 2 and keeps every upper half assembled: k = 1 upper
    has more nonzeros in its factor's two passes than in the half."""
    cfg = TrainConfig(kind="grid", hidden_size=2, p=0.5)
    prep = prepare(simulate_grid(GridSimConfig(duration=60.0, seed=3)), cfg)
    assert prep.complex.dim == 2 and prep.complex.n_simplices(2) > 1000
    model = ScrnnModel(prep.complex, cfg)
    factored = {k: tuple(isinstance(h, FactoredHalf) for h in halves)
                for k, halves in model.laps.items()}
    assert factored == {0: (False, False), 1: (True, False), 2: (True, False)}
