import weakref

import numpy as np
import pytest

import oracle
from topodecode import autodiff as ad
from topodecode.config import TrainConfig, read_config, write_config
from topodecode.model import (
    FfnnModel,
    PreparedData,
    build_model,
    encode_angle,
    param_values,
    prepare,
)
from topodecode.synth import HdSimConfig, simulate_hd
from topodecode.train import (
    Adam,
    SearchSpace,
    TrainingDiverged,
    backward,
    evaluate,
    mse_loss,
    random_search,
    train,
)


def tiny_prep_and_cfg(**cfg_kw):
    base = dict(
        kind="hd", arch="scrnn", epochs=2, batch_size=16, hidden_size=8,
        nn_layers=1, sc_layers=1, n_filters=1, degree=1, k_max=2, seq_len=3,
        dropout=0.0, seed=3,
    )
    base.update(cfg_kw)
    cfg = TrainConfig(**base)
    ds = simulate_hd(HdSimConfig(n_neurons=8, duration=60.0, seed=3))
    return prepare(ds, cfg, arch=cfg.arch), cfg


class TestMseLoss:
    def test_equal_is_zero(self):
        assert mse_loss([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_single_pair(self):
        assert mse_loss([1.0, 0.0], [0.0, 0.0]) == 0.5

    def test_batch_of_two(self):
        pred = np.array([[1.0, 0.0], [0.0, 0.0]])
        target = np.zeros((2, 2))
        assert mse_loss(pred, target) == 0.25

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [1.0, 2.0])


class TestBackward:
    def test_zero_loss_gives_zero_gradients(self):
        cfg = TrainConfig(
            kind="hd", arch="ffnn", nn_layers=1, layer_width=4, seq_len=2,
            dropout=0.0, seed=0,
        )
        counts = np.zeros((3, 8), dtype=np.int64)
        prep = PreparedData(
            kind="hd",
            counts=counts,
            bits=counts.astype(np.int8),
            label_values=np.zeros(8),
            targets=np.zeros((2, 8)),
            n_test=3,
            seq_len=2,
            n_col=1,
            train_starts=np.arange(3, 7),
            test_starts=np.arange(0, 2),
        )
        model = FfnnModel(6, cfg)
        loss, grads = backward(model, prep, prep.train_starts)
        assert loss == 0.0
        assert all(not np.any(g) for g in grads.values())

    def test_single_scalar_weight_matches_chain_rule(self):
        # loss = mean((relu(w x) - t)^2);
        # dloss/dw = 2 * mean((relu(w x) - t) x [w x > 0])
        w = ad.var(0.8)
        x = np.array([[1.0, -2.0, 0.5]])
        t = np.array([[0.3, 0.1, -0.4]])
        loss = ad.mse(ad.relu_lincomb([w], [x]), t)
        ad.backward(loss)
        expect = np.mean(2.0 * (np.maximum(0.8 * x, 0.0) - t) * x * (x > 0.0))
        np.testing.assert_allclose(w.grad, expect, rtol=1e-12)

    @pytest.mark.parametrize(
        "cfg_kw",
        [dict(), dict(n_col=2), dict(sc_layers=3, n_filters=3, degree=2), dict(p=0.9)],
        ids=["default", "n_col2", "summed_filters", "repeated_pattern"],
    )
    def test_scrnn_gradients_match_finite_differences(self, cfg_kw):
        """Covers the backward through the first layer's column gather
        (``n_col``), through the filter-summed weights of deeper layers and,
        with dense binarization, through a gather that reads one nonzero
        k=1 activity pattern for several bins of the batch."""
        prep, cfg = tiny_prep_and_cfg(**cfg_kw)
        model = build_model("scrnn", prep, cfg)
        starts = prep.train_starts[:6]
        if "p" in cfg_kw:
            bins = np.unique(starts[:, None] + np.arange(cfg.seq_len))
            active = oracle.coactivity_matrix(prep.complex, prep.bits[:, bins], 1)
            active = active[:, active.any(axis=0)]
            assert np.unique(active, axis=1).shape[1] < active.shape[1]
        _, grads = backward(model, prep, starts)
        eps = 1e-5
        rng = np.random.default_rng(0)
        for name, p in model.params.items():
            flat = np.atleast_1d(p.value).reshape(-1)
            idxs = rng.choice(flat.size, size=min(4, flat.size), replace=False)
            for idx in idxs:
                orig = flat[idx]
                flat[idx] = orig + eps
                up = float(model.loss_batch(prep, starts)[0].value)
                flat[idx] = orig - eps
                down = float(model.loss_batch(prep, starts)[0].value)
                flat[idx] = orig
                fd = (up - down) / (2 * eps)
                g = np.atleast_1d(grads[name]).reshape(-1)[idx]
                assert abs(g - fd) <= max(1e-4 * max(abs(g), abs(fd)), 1e-6), (
                    f"{name}[{idx}]"
                )


class TestAdam:
    def test_in_place_step_equals_allocating_formula(self):
        """Five steps update 0-d and 2-D parameters in place, bit for bit as
        the allocating formula does on gradients scaled by the clip factor
        (a copy per gradient); gradients may be numpy scalars, as
        ``np.vdot`` returns them for 0-d parameters."""
        rng = np.random.default_rng(11)
        shapes = {"a": (), "b": (3, 4), "c": (1, 1)}
        params = {name: ad.var(rng.normal(size=shape)) for name, shape in shapes.items()}
        arrays = {name: p.value for name, p in params.items()}
        want = {name: p.value.copy() for name, p in params.items()}
        m = {name: np.zeros(shape) for name, shape in shapes.items()}
        v = {name: np.zeros(shape) for name, shape in shapes.items()}
        optimizer = Adam(params, learning_rate=0.01)
        b1, b2, eps, lr = Adam.beta1, Adam.beta2, Adam.eps, 0.01
        for t in range(1, 6):
            grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
            grads["a"] = np.float64(grads["a"])
            if t == 3:
                grads["b"][0] = 0.0
            factor = 0.37 if t % 2 == 0 else 1.0
            optimizer.step(grads, factor)
            for name, g in grads.items():
                g = g * factor
                m[name] = b1 * m[name] + (1.0 - b1) * g
                v[name] = b2 * v[name] + (1.0 - b2) * g * g
                m_hat = m[name] / (1.0 - b1 ** t)
                v_hat = v[name] / (1.0 - b2 ** t)
                want[name] = want[name] - lr * m_hat / (np.sqrt(v_hat) + eps)
            for name, p in params.items():
                assert p.value is arrays[name]
                assert p.value.tobytes() == want[name].tobytes()
                assert optimizer.m[name].tobytes() == m[name].tobytes()
                assert optimizer.v[name].tobytes() == v[name].tobytes()


class TestTrainLoop:
    def test_zero_learning_rate_keeps_weights(self):
        prep, cfg = tiny_prep_and_cfg(learning_rate=0.0, epochs=2)
        model = build_model("scrnn", prep, cfg)
        before = param_values(model)
        model, curve = train(model, prep, cfg)
        after = param_values(model)
        assert all(np.array_equal(before[k], after[k]) for k in before)
        assert len({round(row["train_loss"], 12) for row in curve}) == 1

    def test_zero_epochs_leave_model_untouched(self):
        prep, cfg = tiny_prep_and_cfg(epochs=0)
        model = build_model("scrnn", prep, cfg)
        values = {name: p.value for name, p in model.params.items()}
        before = param_values(model)
        model, curve = train(model, prep, cfg)
        assert curve == []
        for name, p in model.params.items():
            assert p.value is values[name]
            assert p.value.tobytes() == before[name].tobytes()

    def test_one_epoch_one_batch(self):
        prep, cfg = tiny_prep_and_cfg(epochs=1, batch_size=10_000)
        model = build_model("scrnn", prep, cfg)
        before = param_values(model)
        optimizer_steps = []
        original_step = Adam.step

        def counting_step(self, grads, *args):
            optimizer_steps.append(1)
            return original_step(self, grads, *args)

        Adam.step = counting_step
        try:
            model, curve = train(model, prep, cfg)
        finally:
            Adam.step = original_step
        assert sum(optimizer_steps) == 1
        assert len(curve) == 1
        after = param_values(model)
        assert any(not np.array_equal(before[k], after[k]) for k in before)

    def test_no_gradient_outlives_its_step(self, monkeypatch):
        """When any later forward starts, a training step's or validation's,
        nothing holds a gradient array of an earlier step: once Adam has
        used them, the loop drops its gradient dict and releases every
        parameter's ``.grad``."""
        prep, cfg = tiny_prep_and_cfg(epochs=1)
        assert len(prep.train_starts) > cfg.batch_size
        model = build_model("scrnn", prep, cfg)
        refs, alive_at_forward = [], []
        original_step, original_forward = Adam.step, model.forward

        def recording_step(self, grads, *args):
            refs.append([weakref.ref(g) for g in grads.values() if isinstance(g, np.ndarray)])
            return original_step(self, grads, *args)

        def checking_forward(*args, **kwargs):
            if refs:
                alive_at_forward.append(sum(r() is not None for step in refs for r in step))
            return original_forward(*args, **kwargs)

        monkeypatch.setattr(Adam, "step", recording_step)
        monkeypatch.setattr(model, "forward", checking_forward)
        train(model, prep, cfg)
        assert len(refs) > 1 and len(refs[0]) >= 5
        assert len(alive_at_forward) >= len(refs)
        assert not any(alive_at_forward)

    def test_no_parameter_keeps_a_gradient_after_train(self):
        prep, cfg = tiny_prep_and_cfg(epochs=2)
        model = build_model("scrnn", prep, cfg)
        train(model, prep, cfg)
        assert all(p.grad is None for p in model.params.values())

    def test_train_and_predict_retain_freed_memory_before_forward(self, monkeypatch):
        prep, cfg = tiny_prep_and_cfg(epochs=1)
        model = build_model("scrnn", prep, cfg)
        calls = []
        original_forward = model.forward

        def recording_forward(*args, **kwargs):
            calls.append("forward")
            return original_forward(*args, **kwargs)

        monkeypatch.setattr(ad, "retain_freed_memory", lambda: calls.append("retain"))
        monkeypatch.setattr(model, "forward", recording_forward)
        train(model, prep, cfg)
        assert calls[:2] == ["retain", "forward"]
        calls.clear()
        model.predict(prep, prep.test_starts)
        assert calls[:2] == ["retain", "forward"]

    def test_fixture_halves_validation_loss(self):
        cfg = TrainConfig(
            kind="hd", arch="scrnn", epochs=50, batch_size=32, hidden_size=16,
            nn_layers=1, sc_layers=1, n_filters=1, degree=1, k_max=2, seq_len=3,
            dropout=0.0, seed=3, learning_rate=1e-3,
        )
        ds = simulate_hd(HdSimConfig(n_neurons=16, duration=120.0, seed=3))
        prep = prepare(ds, cfg, arch="scrnn")
        model = build_model("scrnn", prep, cfg)
        model, curve = train(model, prep, cfg)
        vals = [row["val_loss"] for row in curve]
        assert min(vals) <= 0.5 * vals[0]

    def test_divergence_aborts_with_diagnostic(self):
        prep, cfg = tiny_prep_and_cfg(epochs=1)
        model = build_model("scrnn", prep, cfg)
        model.params["head.w"].value = np.full_like(
            model.params["head.w"].value, np.nan
        )
        with pytest.raises(TrainingDiverged):
            train(model, prep, cfg)

    def test_seed_determinism_bitwise(self):
        curves = []
        for _ in range(2):
            prep, cfg = tiny_prep_and_cfg(epochs=3, learning_rate=1e-3)
            model = build_model("scrnn", prep, cfg)
            _, curve = train(model, prep, cfg)
            curves.append([(r["train_loss"], r["val_loss"]) for r in curve])
        assert curves[0] == curves[1]

    def test_gradient_clipping_bounds_norm(self):
        from topodecode.train import _clip_global_norm

        grads = {"a": np.full(5, 10.0), "b": np.full((2, 2), -10.0)}
        arrays = dict(grads)
        factor = _clip_global_norm(grads, 5.0)
        total = sum(float(np.sum(np.square(g * factor))) for g in grads.values())
        assert abs(np.sqrt(total) - 5.0) < 1e-9
        assert _clip_global_norm(grads, 30.0) == 1.0
        for name, g in grads.items():
            assert g is arrays[name] and np.all(np.abs(g) == 10.0)

    def test_best_validation_weights_returned(self):
        prep, cfg = tiny_prep_and_cfg(epochs=6, learning_rate=5e-3)
        model = build_model("scrnn", prep, cfg)
        model, curve = train(model, prep, cfg)
        stored = evaluate(model, prep, "test")
        # reported best epoch must equal the final model's validation loss
        from topodecode.train import _validation_loss

        assert abs(
            _validation_loss(model, prep) - min(r["val_loss"] for r in curve)
        ) < 1e-12


class TestValidationLoss:
    @pytest.mark.parametrize("arch", ["scrnn", "ffnn", "rnn"])
    def test_matches_chunked_graph_loss(self, arch):
        from topodecode.train import _validation_loss

        prep, cfg = tiny_prep_and_cfg(arch=arch)
        model = build_model(arch, prep, cfg)
        starts = prep.test_starts
        total = 0.0
        for lo in range(0, len(starts), 64):
            part = starts[lo:lo + 64]
            total += float(model.loss_batch(prep, part)[0].value) * len(part)
        assert abs(_validation_loss(model, prep) - total / len(starts)) < 1e-12


class TestSearch:
    def test_budget_one_returns_sampled_config(self):
        prep, cfg = tiny_prep_and_cfg()
        ds = simulate_hd(HdSimConfig(n_neurons=8, duration=60.0, seed=3))
        space = SearchSpace({"epochs": [1], "batch_size": [16, 32]})
        best, board = random_search(space, 1, 0, ds, cfg)
        assert len(board) == 1
        assert best.epochs == 1
        assert best.batch_size in (16, 32)

    def test_single_candidate_space_is_seed_independent(self):
        ds = simulate_hd(HdSimConfig(n_neurons=8, duration=60.0, seed=3))
        _, cfg = tiny_prep_and_cfg()
        space = SearchSpace({"epochs": [1], "hidden_size": [8]})
        for seed in (0, 99):
            best, _ = random_search(space, 1, seed, ds, cfg)
            assert (best.epochs, best.hidden_size) == (1, 8)

    def test_same_seed_reproduces_leaderboard(self):
        ds = simulate_hd(HdSimConfig(n_neurons=8, duration=60.0, seed=3))
        _, cfg = tiny_prep_and_cfg(epochs=1)
        space = SearchSpace(
            {"epochs": [1], "hidden_size": [4, 8], "learning_rate": [1e-3, 1e-2]}
        )
        boards = []
        for _ in range(2):
            _, board = random_search(space, 2, 7, ds, cfg)
            boards.append([(r["trial"], r["metric"]) for r in board])
        assert boards[0] == boards[1]

    def test_empty_space_rejected(self):
        with pytest.raises(ValueError):
            SearchSpace({})
        with pytest.raises(ValueError):
            SearchSpace({"epochs": []})
        with pytest.raises(ValueError):
            SearchSpace({"epochs": 5})


class TestConfigFile:
    def test_roundtrip(self, tmp_path):
        cfg = TrainConfig(
            kind="grid", arch="gnn", epochs=7, learning_rate=5e-4,
            split=(0.2, 0.8), n_col=2,
        )
        path = tmp_path / "config.txt"
        write_config(cfg, path)
        assert read_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "config.txt"
        path.write_text("mystery = 3\n")
        with pytest.raises(KeyError):
            read_config(path)

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(split=(0.3, 0.8))
        with pytest.raises(ValueError):
            TrainConfig(p=0.0)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)
