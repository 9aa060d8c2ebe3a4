import math

import numpy as np
import pytest

from oracle import ElmanLayer, RnnStack, cell_step, rnn_forward, rnn_stack
from topodecode import autodiff as ad
from topodecode.config import TrainConfig
from topodecode.model import PreparedData, RnnModel


def random_stack(input_size, hidden, n_layers, seed=0):
    """The seeded Elman stack of an RNN decoder, as plain arrays."""
    cfg = TrainConfig(arch="rnn", hidden_size=hidden, nn_layers=n_layers, seed=seed)
    return rnn_stack(RnnModel(input_size, cfg))


def zero_layer(input_size, hidden, activation="tanh"):
    return ElmanLayer(
        w_h=np.zeros((hidden, input_size)),
        w_c=np.zeros((hidden, hidden)),
        b_h=np.zeros(hidden),
        b_c=np.zeros(hidden),
        activation=activation,
    )


class TestCellStep:
    def test_all_zero(self):
        h = cell_step(zero_layer(3, 4), np.ones(3), np.zeros(4))
        np.testing.assert_array_equal(h, np.zeros(4))

    def test_scalar_tanh(self):
        layer = ElmanLayer(
            w_h=np.array([[1.0]]),
            w_c=np.zeros((1, 1)),
            b_h=np.zeros(1),
            b_c=np.zeros(1),
        )
        h = cell_step(layer, np.array([1.0]), np.zeros(1))
        assert abs(h[0] - math.tanh(1.0)) < 1e-12
        assert round(h[0], 5) == 0.76159

    def test_pure_memory(self):
        layer = ElmanLayer(
            w_h=np.zeros((3, 2)),
            w_c=np.eye(3),
            b_h=np.zeros(3),
            b_c=np.zeros(3),
            activation="identity",
        )
        h_prev = np.array([0.1, -2.0, 5.0])
        np.testing.assert_array_equal(cell_step(layer, np.zeros(2), h_prev), h_prev)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            cell_step(zero_layer(3, 4), np.ones(2), np.zeros(4))
        with pytest.raises(ValueError):
            cell_step(zero_layer(3, 4), np.ones(3), np.zeros(5))


class TestForward:
    def test_length_one_equals_cell_plus_head(self):
        stack = random_stack(4, 3, 1)
        z = np.array([0.5, -1.0, 0.25, 2.0])
        y = rnn_forward(stack, [z])
        h = cell_step(stack.layers[0], z, np.zeros(3))
        np.testing.assert_allclose(y, stack.w_out @ h + stack.b_out)

    def test_zero_network_outputs_zero(self):
        stack = RnnStack(
            layers=[zero_layer(4, 3)],
            w_out=np.zeros((2, 3)),
            b_out=np.zeros(2),
        )
        y = rnn_forward(stack, [np.ones(4)] * 3)
        np.testing.assert_array_equal(y, np.zeros(2))

    def test_sequence_length_five(self):
        stack = random_stack(6, 5, 2, seed=3)
        y = rnn_forward(stack, [np.random.default_rng(t).normal(size=6) for t in range(5)])
        assert y.shape == (2,)
        assert np.all(np.isfinite(y))

    def test_empty_sequence(self):
        stack = random_stack(3, 3, 1)
        with pytest.raises(ValueError):
            rnn_forward(stack, [])

    def test_inconsistent_lengths(self):
        stack = random_stack(3, 3, 1)
        with pytest.raises(ValueError):
            rnn_forward(stack, [np.zeros(3), np.zeros(4)])

    def test_output_dimension_two(self):
        for n_layers in (1, 2, 3):
            stack = random_stack(5, 4, n_layers, seed=1)
            assert rnn_forward(stack, [np.ones(5)] * 3).shape == (2,)


class TestGradients:
    def test_weight_gradients_match_finite_differences(self):
        """Reverse-mode gradients through a 3-step sequence vs central
        differences on the plain forward pass."""
        cfg = TrainConfig(
            kind="hd", arch="rnn", nn_layers=2, hidden_size=3, seq_len=3,
            dropout=0.0, seed=12,
        )
        rng = np.random.default_rng(8)
        counts = rng.integers(0, 4, size=(4, 12))
        targets = rng.normal(size=(2, 12))
        prep = PreparedData(
            kind="hd",
            counts=counts,
            bits=(counts > 0).astype(np.int8),
            label_values=np.zeros(12),
            targets=targets,
            n_test=4,
            seq_len=3,
            n_col=1,
            train_starts=np.arange(4, 10),
            test_starts=np.arange(0, 2),
        )
        model = RnnModel(4, cfg)
        starts = prep.train_starts[:4]
        for p in model.params.values():
            p.grad = None
        loss, _ = model.loss_batch(prep, starts)
        ad.backward(loss)

        eps = 1e-5
        for name, p in model.params.items():
            grad = np.atleast_1d(p.grad)
            flat = p.value.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + eps
                up = float(model.loss_batch(prep, starts)[0].value)
                flat[idx] = orig - eps
                down = float(model.loss_batch(prep, starts)[0].value)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                g = grad.reshape(-1)[idx]
                rel = abs(g - fd) / max(abs(g), abs(fd), 1e-6)
                assert rel < 1e-4, f"{name}[{idx}]: {g} vs {fd}"

    def test_batched_graph_matches_plain_forward(self):
        """The training-path forward agrees with the plain recurrence."""
        cfg = TrainConfig(
            kind="hd", arch="rnn", nn_layers=2, hidden_size=5, seq_len=4,
            dropout=0.0, seed=5,
        )
        rng = np.random.default_rng(11)
        counts = rng.integers(0, 5, size=(6, 16))
        prep = PreparedData(
            kind="hd",
            counts=counts,
            bits=(counts > 0).astype(np.int8),
            label_values=np.zeros(16),
            targets=rng.normal(size=(2, 16)),
            n_test=6,
            seq_len=4,
            n_col=1,
            train_starts=np.arange(6, 13),
            test_starts=np.arange(0, 3),
        )
        model = RnnModel(6, cfg)
        starts = np.array([7, 9, 12])
        batched = model.predict(prep, starts)

        # plain-path oracle, one window at a time
        stack = rnn_stack(model)
        for col, s in enumerate(starts):
            seq = [counts[:, s + t].astype(float) for t in range(4)]
            expect = rnn_forward(stack, seq)
            np.testing.assert_allclose(batched[:, col], expect, rtol=1e-12, atol=1e-12)
