import json
import pathlib
import shutil
import zipfile

import numpy as np
import pytest

import oracle
from oracle import cochain_from_bin, flatten, rnn_forward, rnn_stack, sc_stack, sc_stack_forward
from topodecode.complexes import complex_laplacians
from topodecode.config import TrainConfig
from topodecode.model import (
    FfnnModel,
    PreparedData,
    RnnModel,
    ScrnnModel,
    _column_patterns,
    build_model,
    decode_angle,
    decode_angles,
    encode_angle,
    load_checkpoint,
    prepare,
    save_checkpoint,
    scrnn_predict,
)
from topodecode.synth import HdSimConfig, simulate_hd


def small_hd_prep(arch="scrnn", seed=3, duration=60.0, **cfg_kw):
    base = dict(
        kind="hd", arch=arch, hidden_size=8, nn_layers=2, sc_layers=2,
        n_filters=2, degree=1, k_max=2, seq_len=5, dropout=0.0, seed=seed,
    )
    base.update(cfg_kw)
    cfg = TrainConfig(**base)
    ds = simulate_hd(HdSimConfig(n_neurons=10, duration=duration, seed=seed))
    return prepare(ds, cfg, arch=arch), cfg


class TestDecodeAngle:
    def test_east(self):
        assert decode_angle((1.0, 0.0)) == 0.0

    def test_south(self):
        assert decode_angle((0.0, -1.0)) == 270.0

    def test_diagonal(self):
        assert abs(decode_angle((-0.7071, 0.7071)) - 135.0) < 1e-9

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            decode_angle((0.0, 0.0))

    def test_roundtrip_through_encoding(self):
        grid = np.arange(360, dtype=np.float64)
        decoded = decode_angles(encode_angle(grid))
        err = np.abs(np.remainder(decoded - grid + 180.0, 360.0) - 180.0)
        assert err.max() < 1e-9


class TestScrnnForward:
    @pytest.mark.parametrize("sc_layers", [1, 2, 3])
    def test_matches_plain_operator_path(self, sc_layers):
        """Batched forward == per-window composition of the plain
        simplicial-stack and recurrence operators."""
        prep, cfg = small_hd_prep(sc_layers=sc_layers)
        model = ScrnnModel(prep.complex, cfg)
        starts = prep.train_starts[[0, 3, 11]]
        batched = model.predict(prep, starts)

        stack = sc_stack(model)
        rnn = rnn_stack(model)
        laps = complex_laplacians(prep.complex)
        for col, s in enumerate(starts):
            zs = []
            for t in range(cfg.seq_len):
                chains = cochain_from_bin(
                    prep.complex, prep.counts, prep.bits, s + t, cfg.n_col
                )
                outs = sc_stack_forward(
                    stack, laps, {c.k: c.values for c in chains}, cfg.n_col
                )
                zs.append(flatten(outs))
            expect = rnn_forward(rnn, zs)
            np.testing.assert_allclose(batched[:, col], expect, rtol=1e-10, atol=1e-12)

    def test_matches_plain_path_with_n_col(self):
        prep, cfg = small_hd_prep(n_col=3)
        model = ScrnnModel(prep.complex, cfg)
        s = int(prep.train_starts[5])
        got = scrnn_predict(model, prep, s)
        stack, rnn = sc_stack(model), rnn_stack(model)
        laps = complex_laplacians(prep.complex)
        zs = []
        for t in range(cfg.seq_len):
            chains = cochain_from_bin(prep.complex, prep.counts, prep.bits, s + t, 3)
            outs = sc_stack_forward(stack, laps, {c.k: c.values for c in chains}, 3)
            zs.append(flatten(outs))
        np.testing.assert_allclose(got, rnn_forward(rnn, zs), rtol=1e-10, atol=1e-12)

    def test_silent_window_zero_biases_zero_output(self, triangle_complex):
        cfg = TrainConfig(
            kind="hd", arch="scrnn", hidden_size=4, nn_layers=2, sc_layers=2,
            n_filters=2, seq_len=2, dropout=0.0, seed=0,
        )
        counts = np.zeros((3, 10), dtype=np.int64)
        counts[:, 8] = 1  # some activity outside the probed window
        prep = PreparedData(
            kind="hd",
            counts=counts,
            bits=(counts > 0).astype(np.int8),
            label_values=np.zeros(10),
            targets=encode_angle(np.zeros(10)),
            n_test=4,
            seq_len=2,
            n_col=1,
            train_starts=np.arange(4, 9),
            test_starts=np.arange(0, 3),
            complex=triangle_complex,
        )
        model = ScrnnModel(triangle_complex, cfg)
        for name, p in model.params.items():
            if ".b_" in name or name == "head.b":
                p.value = np.zeros_like(p.value)
        out = model.predict(prep, np.array([0]))
        np.testing.assert_array_equal(out, np.zeros((2, 1)))

    def test_seq_len_one_degenerates_to_single_step(self):
        prep, cfg = small_hd_prep(seq_len=1, nn_layers=1)
        model = ScrnnModel(prep.complex, cfg)
        s = int(prep.train_starts[2])
        got = scrnn_predict(model, prep, s)
        stack, rnn = sc_stack(model), rnn_stack(model)
        chains = cochain_from_bin(prep.complex, prep.counts, prep.bits, s, 1)
        laps = complex_laplacians(prep.complex)
        z = flatten(sc_stack_forward(stack, laps, {c.k: c.values for c in chains}, 1))
        expect = rnn_forward(rnn, [z])
        np.testing.assert_allclose(got, expect, rtol=1e-10, atol=1e-12)

    def test_fixed_input_width(self):
        prep, cfg = small_hd_prep()
        model = ScrnnModel(prep.complex, cfg)
        width = model.input_width
        assert width == sum(
            prep.complex.n_simplices(k) for k in range(prep.complex.dim + 1)
        )
        stack = sc_stack(model)
        laps = complex_laplacians(prep.complex)
        for s in (prep.train_starts[0], prep.train_starts[-1]):
            chains = cochain_from_bin(prep.complex, prep.counts, prep.bits, int(s), 1)
            outs = sc_stack_forward(stack, laps, {c.k: c.values for c in chains}, 1)
            assert flatten(outs).size == width

    def test_window_out_of_range(self):
        prep, cfg = small_hd_prep()
        model = ScrnnModel(prep.complex, cfg)
        with pytest.raises(ValueError):
            scrnn_predict(model, prep, prep.n_bins)

    def test_end_to_end_decodable(self):
        prep, cfg = small_hd_prep()
        model = ScrnnModel(prep.complex, cfg)
        y = scrnn_predict(model, prep, int(prep.test_starts[0]))
        assert y.shape == (2,)
        assert np.all(np.isfinite(y))
        angle = decode_angle(y)
        assert 0.0 <= angle < 360.0


class TestWindowStarts:
    @pytest.mark.parametrize("arch", ["scrnn", "gnn", "rnn", "ffnn"])
    def test_no_starts_give_no_columns(self, arch):
        prep, cfg = small_hd_prep(arch=arch)
        out = build_model(arch, prep, cfg).predict(prep, np.array([], dtype=np.int64))
        assert out.shape == (2, 0)

    @pytest.mark.parametrize("arch", ["scrnn", "rnn", "ffnn"])
    @pytest.mark.parametrize("n_col", [1, 2])
    def test_starts_outside_range_rejected(self, arch, n_col):
        """Both ends of ``[0, n_bins - seq_len - n_col + 1]`` decode; one
        step past either end is rejected, also inside a longer list. Only
        the SCRNN reads ``n_col`` count columns per bin."""
        prep, cfg = small_hd_prep(arch=arch, n_col=n_col)
        model = build_model(arch, prep, cfg)
        last = prep.n_bins - cfg.seq_len - (n_col if arch == "scrnn" else 1) + 1
        assert model.predict(prep, [0, last]).shape == (2, 2)
        for bad in (-1, last + 1):
            with pytest.raises(ValueError, match=rf"window start {bad} outside \[0, {last}\]"):
                model.predict(prep, [0, bad, last])
        if arch == "scrnn":
            with pytest.raises(ValueError, match=rf"window start -1 outside \[0, {last}\]"):
                scrnn_predict(model, prep, -1)


def oracle_predict(model, prep, starts):
    """The plain-array oracle's outputs for ``starts``: each bin's cochains
    through the operator stack, then the Elman stack per window."""
    stack, rnn = sc_stack(model), rnn_stack(model)
    laps = complex_laplacians(prep.complex)
    sc_out = {}
    for b in np.unique(starts[:, None] + np.arange(model.seq_len)):
        chains = cochain_from_bin(prep.complex, prep.counts, prep.bits, b, model.n_col)
        outs = sc_stack_forward(stack, laps, {c.k: c.values for c in chains}, model.n_col)
        sc_out[b] = flatten(outs)
    return np.column_stack(
        [rnn_forward(rnn, [sc_out[s + t] for t in range(model.seq_len)]) for s in starts]
    )


class TestGraphFreePredict:
    @pytest.mark.parametrize(
        "arch, cfg_kw",
        [
            ("scrnn", dict(sc_layers=1, n_filters=1)),
            ("scrnn", dict(sc_layers=1, n_filters=3)),
            ("scrnn", dict(sc_layers=3, n_filters=1)),
            ("scrnn", dict(sc_layers=3, n_filters=3, degree=2)),
            ("scrnn", dict(degree=2, nn_layers=1)),
            ("scrnn", dict(n_col=3)),
            ("gnn", dict()),
            ("scrnn", dict(p=0.7)),
            ("scrnn", dict(p=0.7, sc_layers=3, n_filters=3, degree=2)),
            ("scrnn", dict(p=0.7, n_col=2, degree=2)),
            ("gnn", dict(p=0.7, degree=2)),
        ],
    )
    def test_matches_graph_forward(self, arch, cfg_kw):
        """The chunked predict, evaluated without recording, equals one
        recorded graph forward and, within rtol 1e-12, the plain operator
        oracle that filters each bin's own cochains, over more windows than
        one chunk and over silent bins. At p = 0.7 the complex has
        triangles. Outputs that cancel to near zero get the same bound
        relative to the largest output."""
        prep, cfg = small_hd_prep(arch=arch, **cfg_kw)
        model = build_model(arch, prep, cfg)
        starts = np.concatenate([prep.test_starts, prep.train_starts])
        assert len(starts) > 256
        bins = (starts[:, None] + np.arange(cfg.seq_len)).reshape(-1)
        assert not prep.bits[:, bins].any(axis=0).all()
        got = model.predict(prep, starts)
        recorded = model.forward(prep, starts)[0]
        assert recorded._parents
        np.testing.assert_allclose(got, recorded.value, rtol=1e-10, atol=1e-12)

        want = oracle_predict(model, prep, starts)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_pattern_terms_equal_per_bin_powers(self):
        """The terms of the distinct k-coactivity columns, gathered per bin,
        equal the Laplacian powers of each bin's coactivity: for scrnn, for
        gnn, and on a session prepared over a given complex whose activity
        patterns never occurred in the complex's training block. Dense
        binarization gives the scrnn complex triangles, so the k = 1 upper
        powers are covered."""
        for arch, eval_seed in (("scrnn", None), ("gnn", None), ("scrnn", 5)):
            prep, cfg = small_hd_prep(arch=arch, degree=2, p=0.7)
            model = build_model(arch, prep, cfg)
            if eval_seed is not None:
                seen = {prep.bits[:, b].tobytes() for b in range(prep.n_test, prep.n_bins)}
                ds = simulate_hd(HdSimConfig(n_neurons=10, duration=60.0, seed=eval_seed))
                prep = prepare(ds, cfg, arch=arch, complex_=model.complex)
                assert any(col.tobytes() not in seen for col in prep.bits.T)
            every_bin = np.arange(prep.n_bins)
            terms, reads = model._input_terms(prep, every_bin, every_bin)
            top = prep.complex.dim
            assert top == (1 if arch == "gnn" else 2)
            laps = complex_laplacians(prep.complex)
            for k in range(1, top + 1):
                x = oracle.coactivity_matrix(prep.complex, prep.bits, k).astype(np.float64)
                want = [x]
                lap = laps[k]
                for half, present in ((lap.lower, True), (lap.upper, k < top)):
                    power = x
                    for _ in range(cfg.degree if present else 0):
                        power = half.astype(np.float64) @ power
                        want.append(power)
                assert terms[k][0].shape[1] == np.unique(x, axis=1).shape[1] < prep.n_bins
                got = np.stack([term[:, reads[k]] for term in terms[k]])
                assert np.array_equal(got, np.stack(want)), (arch, eval_seed, k)

    @pytest.mark.parametrize("n_neurons", [5, 8, 13, 70])
    def test_column_patterns_match_unique_over_columns(self, n_neurons):
        rng = np.random.default_rng(n_neurons)
        bits = (rng.random((n_neurons, 60)) < 0.3).astype(np.int8)
        bits[:, [3, 17, 40]] = 0
        bits[:, 50:58] = bits[:, [9, 9, 21, 21, 21, 33, 3, 0]]
        _, first, inverse = np.unique(bits, axis=1, return_index=True, return_inverse=True)
        got_first, got_inverse = _column_patterns(bits)
        assert np.array_equal(got_first, first)
        assert np.array_equal(got_inverse, inverse.reshape(-1))

    def test_other_complex_rejected(self):
        prep, cfg = small_hd_prep(seed=3)
        other, _ = small_hd_prep(seed=4)
        assert other.complex != prep.complex
        model = ScrnnModel(prep.complex, cfg)
        model.predict(prep, prep.test_starts[:3])
        with pytest.raises(ValueError, match="complex"):
            ScrnnModel(other.complex, cfg).predict(prep, prep.test_starts[:3])

    @pytest.mark.parametrize("arch", ["ffnn", "rnn"])
    def test_other_neuron_count_rejected(self, arch):
        cfg = TrainConfig(kind="hd", arch=arch, seq_len=5, seed=3)
        twelve = simulate_hd(HdSimConfig(n_neurons=12, duration=60.0, seed=3))
        ten = simulate_hd(HdSimConfig(n_neurons=10, duration=60.0, seed=3))
        model = build_model(arch, prepare(twelve, cfg, arch=arch), cfg)
        prep = prepare(ten, cfg, arch=arch)
        with pytest.raises(ValueError, match="12 neurons.*has 10"):
            model.predict(prep, prep.test_starts[:3])


class TestPrepare:
    def test_checkpoint_complex_neuron_mismatch_named(self):
        cfg = TrainConfig(kind="hd", arch="scrnn", seed=3)
        twelve = simulate_hd(HdSimConfig(n_neurons=12, duration=60.0, seed=3))
        ten = simulate_hd(HdSimConfig(n_neurons=10, duration=60.0, seed=3))
        complex_ = prepare(twelve, cfg).complex
        with pytest.raises(ValueError, match="12 vertices.*10 neurons"):
            prepare(ten, cfg, complex_=complex_)

    def test_builds_complex_through_its_module(self, monkeypatch):
        """``prepare`` looks ``build_complex`` up on ``topodecode.complexes``
        at call time, so a wrapper installed there sees every build."""
        import topodecode.complexes as complexes

        calls = []
        original = complexes.build_complex

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(complexes, "build_complex", counting)
        prep, _ = small_hd_prep()
        assert len(calls) == 1
        assert prep.complex == original(*calls[0])


class TestBaselines:
    def test_gnn_complex_capped_at_one(self):
        prep, cfg = small_hd_prep(arch="gnn")
        model = build_model("gnn", prep, cfg)
        assert model.arch == "gnn"
        assert model.complex.dim <= 1
        assert 2 not in model.complex.simplices

    def test_gnn_matches_scrnn_with_k_max_one(self):
        prep, cfg = small_hd_prep(arch="gnn", seed=9)
        gnn = build_model("gnn", prep, cfg)
        scrnn = ScrnnModel(prep.complex, cfg, arch="scrnn")
        starts = prep.test_starts[:20]
        assert np.array_equal(gnn.predict(prep, starts), scrnn.predict(prep, starts))

    def test_ffnn_table_shapes(self):
        prep, cfg = small_hd_prep(arch="ffnn", nn_layers=2, layer_width=128)
        model = build_model("ffnn", prep, cfg)
        n = prep.counts.shape[0]
        assert model.params["fc.l0.w"].value.shape == (128, n * cfg.seq_len)
        assert model.params["fc.l1.w"].value.shape == (128, 128)
        assert model.params["head.w"].value.shape == (2, 128)

    def test_rnn_hidden_size_shapes(self):
        prep, cfg = small_hd_prep(arch="rnn", hidden_size=200, nn_layers=1)
        model = build_model("rnn", prep, cfg)
        n = prep.counts.shape[0]
        assert model.params["rnn.l0.w_h"].value.shape == (200, n)
        assert model.params["rnn.l0.w_c"].value.shape == (200, 200)

    def test_unknown_kind(self):
        prep, cfg = small_hd_prep(arch="ffnn")
        with pytest.raises(ValueError):
            build_model("cnn", prep, cfg)

    def test_baseline_predictions_finite(self):
        for arch in ("ffnn", "rnn"):
            prep, cfg = small_hd_prep(arch=arch)
            model = build_model(arch, prep, cfg)
            out = model.predict(prep, prep.test_starts[:7])
            assert out.shape == (2, 7)
            assert np.all(np.isfinite(out))


class TestInitialWeights:
    @pytest.mark.parametrize("arch", ["scrnn", "gnn", "ffnn", "rnn"])
    @pytest.mark.parametrize("cfg_kw", [
        dict(sc_layers=1, n_filters=1, degree=1, nn_layers=1),
        dict(sc_layers=3, n_filters=3, degree=2, nn_layers=2),
        dict(sc_layers=1, n_filters=3, degree=2, nn_layers=2),
        dict(sc_layers=3, n_filters=1, degree=1, nn_layers=1, seed=1009),
    ], ids=["small", "large", "wide", "deep"])
    def test_equal_to_vector_draws(self, arch, cfg_kw):
        """A new model's weights are the bits and the name order of one
        draw per filter and per matrix (``oracle.init_params``), which is
        how they were drawn before the parameter tables."""
        prep, cfg = small_hd_prep(arch=arch, p=0.6, **cfg_kw)
        model = build_model(arch, prep, cfg)
        if arch == "scrnn":
            assert model.complex.dim == 2
        want = oracle.init_params(model, cfg)
        assert list(model.params) == list(want)
        for name, value in want.items():
            value = np.asarray(value, dtype=np.float64)
            got = model.params[name].value
            assert got.dtype == np.float64 and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name

    @pytest.mark.parametrize("arch", ["scrnn", "gnn", "ffnn", "rnn"])
    def test_load_checkpoint_draws_nothing(self, tmp_path, arch, monkeypatch):
        prep, cfg = small_hd_prep(arch=arch)
        model = build_model(arch, prep, cfg)
        save_checkpoint(tmp_path, model, cfg)

        def no_generator(*args, **kwargs):
            raise AssertionError("load_checkpoint made a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_generator)
        loaded, _ = load_checkpoint(tmp_path)
        assert list(loaded.params) == list(model.params)


LEGACY_CHECKPOINT = pathlib.Path(__file__).parent / "data" / "legacy_scrnn"


def edit_npz(path, edit):
    """Rewrite ``weights.npz`` after ``edit`` changed its dict of arrays."""
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def drop_prefix(arrays, prefix):
    for name in [n for n in arrays if n.startswith(prefix)]:
        del arrays[name]


def write_legacy_checkpoint(dirpath, model, cfg):
    """Save ``model`` with its weights as an older checkpoint's
    ``weights.json`` in place of ``weights.npz``; returns the JSON text."""
    save_checkpoint(dirpath, model, cfg)
    (dirpath / "weights.npz").unlink()
    text = oracle.weights_json(model)
    (dirpath / "weights.json").write_text(text)
    return text


class TestCheckpoint:
    @pytest.mark.parametrize("arch", ["scrnn", "gnn", "ffnn", "rnn"])
    def test_roundtrip_preserves_predictions(self, tmp_path, arch):
        prep, cfg = small_hd_prep(arch=arch)
        model = build_model(arch, prep, cfg)
        starts = prep.test_starts[:10]
        before = model.predict(prep, starts)
        out = tmp_path / arch
        save_checkpoint(out, model, cfg)
        loaded, cfg_back = load_checkpoint(out)
        assert cfg_back == cfg
        after = loaded.predict(prep, starts)
        np.testing.assert_array_equal(before, after)
        save_checkpoint(tmp_path / "again", loaded, cfg_back)
        weights = (out / "weights.npz").read_bytes()
        assert (tmp_path / "again" / "weights.npz").read_bytes() == weights
        if arch in ("scrnn", "gnn"):
            assert loaded.complex == prep.complex

    @pytest.mark.parametrize("arch, name", [
        pytest.param("ffnn", "fc.l0.w", id="ffnn-0-w-fc.l0.w"),
        pytest.param("rnn", "rnn.l0.w_h", id="rnn-0-w_h-rnn.l0.w_h"),
        pytest.param("scrnn", "head.w", id="scrnn-2-w_out-head.w"),
    ])
    def test_missing_matrix_named(self, tmp_path, arch, name):
        prep, cfg = small_hd_prep(arch=arch)
        save_checkpoint(tmp_path, build_model(arch, prep, cfg), cfg)
        edit_npz(tmp_path / "weights.npz", lambda p: p.pop(name))
        with pytest.raises(ValueError, match=f"no {name} matrix"):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("arch, cfg_kw, edit, message", [
        (
            "scrnn", {},
            lambda p: drop_prefix(p, "sc.l1."),
            r"checkpoint has no parameter sc\.l1\.f0\.k0\.up1$",
        ),
        (
            "rnn", dict(nn_layers=2),
            lambda p: drop_prefix(p, "rnn.l1."),
            r"checkpoint has no parameter rnn\.l1\.b_c$",
        ),
        (
            "rnn", dict(nn_layers=2),
            lambda p: p.update({"rnn.l5.w_c": np.ones((1, 1))}),
            r"checkpoint parameter rnn\.l5\.w_c is not part of the configured model$",
        ),
        (
            "gnn", {},
            lambda p: p.update({"head.w": p["head.w"][:1]}),
            r"checkpoint parameter head\.w has shape \(1, 8\), the config implies \(2, 8\)$",
        ),
        (
            "scrnn", {},
            lambda p: p.update({"head.b": p["head.b"].astype(np.float32)}),
            r"checkpoint parameter head\.b has dtype float32, expected float64$",
        ),
        (
            "ffnn", {},
            lambda p: p.update({"fc.l0.b": p["fc.l0.b"].astype(object)}),
            r"weights\.npz: Object arrays cannot be loaded when allow_pickle=False$",
        ),
        (
            "ffnn", {},
            lambda p: p.update({"fc.l0.w": p["fc.l0.w"].ravel()}),
            r"checkpoint has no fc\.l0\.w matrix$",
        ),
        (
            # 49 columns are no whole number of seq_len = 5 steps.
            "ffnn", {},
            lambda p: p.update({"fc.l0.w": p["fc.l0.w"][:, :49]}),
            r"checkpoint parameter fc\.l0\.w has shape \(128, 49\), "
            r"the config implies \(128, 45\)$",
        ),
        pytest.param(
            # Fewer columns than one neuron's seq_len = 5 steps: rejected
            # before an init bound divides by a zero fan-in, which under
            # -W error would raise its warning in place of this message.
            "ffnn", {},
            lambda p: p.update({"fc.l0.w": p["fc.l0.w"][:, :3]}),
            r"fc\.l0\.w is 3 wide, fewer than one neuron's seq_len = 5 count columns$",
            marks=pytest.mark.filterwarnings("error"),
            id="ffnn-narrower-than-seq_len",
        ),
    ])
    def test_weights_checked_against_config(self, tmp_path, arch, cfg_kw, edit, message):
        """A checkpoint whose weights do not fit its config is rejected at
        load, naming the first offending parameter, not at predict."""
        prep, cfg = small_hd_prep(arch=arch, **cfg_kw)
        save_checkpoint(tmp_path, build_model(arch, prep, cfg), cfg)
        edit_npz(tmp_path / "weights.npz", edit)
        with pytest.raises(ValueError, match=message):
            load_checkpoint(tmp_path)

    @pytest.mark.parametrize("arch", ["scrnn", "gnn", "ffnn", "rnn"])
    def test_weight_bits_survive_roundtrip(self, tmp_path, arch):
        """Every parameter loads back as float64 with the bits it was saved
        with: signed zeros, subnormals, extreme exponents, a NaN with a
        non-default payload and both infinities included."""
        prep, cfg = small_hd_prep(arch=arch, nn_layers=2)
        model = build_model(arch, prep, cfg)
        nan = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
        awkward = np.array([
            -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300,
            nan, np.inf, -np.inf, 0.1, -2.5,
        ])
        for i, name in enumerate(sorted(model.params)):
            p = model.params[name]
            p.value = np.resize(np.roll(awkward, i), p.value.shape)
        save_checkpoint(tmp_path, model, cfg)
        loaded, _ = load_checkpoint(tmp_path)
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            got = loaded.params[name].value
            assert got.dtype == np.float64
            assert got.tobytes() == p.value.tobytes()

    @pytest.mark.parametrize("arch", ["scrnn", "gnn", "ffnn", "rnn"])
    @pytest.mark.parametrize("values", ["drawn", "awkward"])
    def test_weight_bytes_equal_json_dumps(self, tmp_path, arch, values):
        """A ``weights.json`` that is ``json.dumps`` of the entry dicts loads
        back to the same bits, also for signed zeros, subnormals and extreme
        exponents, so the reference writer reproduces its bytes."""
        prep, cfg = small_hd_prep(arch=arch, nn_layers=2)
        model = build_model(arch, prep, cfg)
        if values == "awkward":
            awkward = np.array([
                -0.0, 5e-324, 2.2250738585072014e-308, 1e300, -1e300,
                1e-300, -1e-300, 0.1, 1.0, -2.5,
            ])
            for i, name in enumerate(sorted(model.params)):
                p = model.params[name]
                p.value = np.resize(np.roll(awkward, i), p.value.shape)
        text = write_legacy_checkpoint(tmp_path, model, cfg)
        loaded, _ = load_checkpoint(tmp_path)
        assert oracle.weights_json(loaded) == text
        assert set(loaded.params) == set(model.params)
        for name, p in model.params.items():
            assert loaded.params[name].value.tobytes() == p.value.tobytes()

    def test_non_finite_weights_written_as_json_dumps_does(self, tmp_path):
        """``NaN``, ``Infinity`` and ``-Infinity``, as ``json.dumps`` spells
        them in a ``weights.json``, load back as those values."""
        prep, cfg = small_hd_prep()
        model = build_model("scrnn", prep, cfg)
        model.params["head.b"].value = np.array([[np.nan], [np.inf]])
        model.params["sc.l0.f0.k0.w0"].value = np.array(-np.inf)
        text = write_legacy_checkpoint(tmp_path, model, cfg)
        assert '"term":"w0","value":-Infinity}' in text
        assert '"row":0,"col":0,"value":NaN}' in text
        assert '"row":1,"col":0,"value":Infinity}' in text
        loaded, _ = load_checkpoint(tmp_path)
        assert oracle.weights_json(loaded) == text
        for name in ("head.b", "sc.l0.f0.k0.w0"):
            got, want = loaded.params[name].value, model.params[name].value
            assert got.tobytes() == want.tobytes()

    def test_weight_file_schema(self, tmp_path):
        """``weights.npz`` is an uncompressed archive of one ``.npy`` per
        parameter, named after it, that loads without unpickling."""
        prep, cfg = small_hd_prep()
        model = build_model("scrnn", prep, cfg)
        save_checkpoint(tmp_path, model, cfg)
        assert not (tmp_path / "weights.json").exists()
        with zipfile.ZipFile(tmp_path / "weights.npz") as zf:
            assert sorted(zf.namelist()) == sorted(f"{name}.npy" for name in model.params)
            assert {info.compress_type for info in zf.infolist()} == {zipfile.ZIP_STORED}
        with np.load(tmp_path / "weights.npz", allow_pickle=False) as npz:
            for name, p in model.params.items():
                assert npz[name].dtype == np.float64
                assert npz[name].shape == p.value.shape

    def test_legacy_json_checkpoint_loads(self, tmp_path):
        """A checkpoint written as ``weights.json`` still loads and decodes,
        and re-saves as ``weights.npz`` with the bits of its JSON values."""
        model, cfg = load_checkpoint(LEGACY_CHECKPOINT)
        assert (cfg.arch, model.complex.n_vertices) == ("scrnn", 8)
        ds = simulate_hd(HdSimConfig(n_neurons=8, duration=60.0, seed=5))
        prep = prepare(ds, cfg, arch=cfg.arch, complex_=model.complex)
        assert np.all(np.isfinite(model.predict(prep, prep.test_starts[:20])))

        save_checkpoint(tmp_path, model, cfg)
        payload = json.loads((LEGACY_CHECKPOINT / "weights.json").read_text())
        with np.load(tmp_path / "weights.npz", allow_pickle=False) as npz:
            assert len(npz.files) == len(model.params)
            for e in payload["sc"]:
                name = f"sc.l{e['layer'] - 1}.f{e['filter'] - 1}.k{e['dim']}.{e['term']}"
                assert npz[name].tobytes() == np.float64(e["value"]).tobytes()
            heads = {"w_out": "head.w", "b_out": "head.b"}
            for e in payload["dense"]:
                name = heads.get(e["matrix"], f"rnn.l{e['layer']}.{e['matrix']}")
                cell = npz[name][e["row"], e["col"]]
                assert cell.tobytes() == np.float64(e["value"]).tobytes()

    def test_gnn_needs_complex_capped_at_one(self, tmp_path):
        """A checkpoint whose config names ``gnn`` is refused on a 2-D
        complex, as ``build_model`` refuses it."""
        prep, cfg = small_hd_prep(arch="scrnn", p=0.6)
        assert prep.complex.dim == 2
        save_checkpoint(tmp_path, build_model("scrnn", prep, cfg), cfg)
        config = tmp_path / "config.txt"
        config.write_text(config.read_text().replace("arch = scrnn", "arch = gnn"))
        with pytest.raises(ValueError, match="gnn baseline requires a complex capped at dimension 1"):
            load_checkpoint(tmp_path)

    def test_legacy_arch_must_match_config(self, tmp_path):
        shutil.copytree(LEGACY_CHECKPOINT, tmp_path, dirs_exist_ok=True)
        config = tmp_path / "config.txt"
        config.write_text(config.read_text().replace("arch = scrnn", "arch = gnn"))
        with pytest.raises(ValueError, match="'scrnn'.*'gnn'"):
            load_checkpoint(tmp_path)

    def test_npz_wins_over_json(self, tmp_path):
        """In a directory holding both weight files, ``weights.npz`` is read."""
        shutil.copytree(LEGACY_CHECKPOINT, tmp_path, dirs_exist_ok=True)
        model, cfg = load_checkpoint(tmp_path)
        model.params["head.b"].value = np.array([[0.25], [-0.5]])
        save_checkpoint(tmp_path, model, cfg)
        assert (tmp_path / "weights.json").exists()
        loaded, _ = load_checkpoint(tmp_path)
        assert loaded.params["head.b"].value.tolist() == [[0.25], [-0.5]]
