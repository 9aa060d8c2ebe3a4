"""Decoder models: the simplicial-convolutional recurrent network and the
feedforward / recurrent / graph baselines, behind one predict interface.

All models are parameterized by named ``autodiff.Var`` leaves, drawn from
the config's seed by the model itself, so a single reverse pass yields every
gradient. Each model has one graph forward: it serves training, and
prediction evaluates it under ``autodiff.no_grad``. The SCRNN's k >= 1
inputs depend only on a bin's binarized column, so its forward filters each
distinct activity pattern of a batch once.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import complexes
from .complexes import (
    SimplicialComplex,
    coactivity_matrix,
    complex_from_json,
    complex_laplacians,
    complex_to_json,
    incidence_matrix,
)
from .spikes import SpikeDataset, bin_labels, bin_spikes, binarize_rows

__all__ = [
    "PreparedData",
    "prepare",
    "ScrnnModel",
    "FfnnModel",
    "RnnModel",
    "build_model",
    "scrnn_predict",
    "encode_angle",
    "decode_angle",
    "decode_angles",
    "decode_positions",
    "save_checkpoint",
    "load_checkpoint",
]

ARCHS = ("scrnn", "ffnn", "rnn", "gnn")


@dataclass
class PreparedData:
    """Binned, binarized, and labeled data ready for window-based decoding.

    The SCRNN's k >= 1 inputs are not stored here: ``ScrnnModel`` computes
    the coactivity of each distinct column of ``bits`` with its input terms.
    """

    kind: str
    counts: np.ndarray
    bits: np.ndarray
    label_values: np.ndarray
    targets: np.ndarray
    n_test: int
    seq_len: int
    n_col: int
    train_starts: np.ndarray
    test_starts: np.ndarray
    complex: SimplicialComplex | None = None
    norm: tuple | None = None
    # ScrnnModel input terms keyed by filter degree. Left out of __init__ so
    # that dataclasses.replace starts with an empty cache.
    terms: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]

    def starts(self, split: str) -> np.ndarray:
        if split == "train":
            return self.train_starts
        if split in ("test", "validation"):
            return self.test_starts
        raise ValueError(f"unknown split {split!r}")

    def window_labels(self, starts) -> np.ndarray:
        """Ground-truth label at the last bin of each window."""
        last = np.asarray(starts) + self.seq_len - 1
        return self.label_values[last]


def encode_angle(theta_deg):
    """Angle -> (cos, sin) regression target."""
    rad = np.deg2rad(np.asarray(theta_deg, dtype=np.float64))
    return np.stack([np.cos(rad), np.sin(rad)])


def decode_angle(y) -> float:
    """2-vector -> angle in [0, 360) degrees; rejects the zero vector."""
    y = np.asarray(y, dtype=np.float64)
    if y[0] == 0.0 and y[1] == 0.0:
        raise ValueError("cannot decode an angle from the zero vector")
    return float(np.remainder(np.degrees(np.arctan2(y[1], y[0])), 360.0))


def decode_angles(y2n: np.ndarray) -> np.ndarray:
    """Columns of a (2, n) output matrix -> angles in degrees."""
    if np.any((y2n[0] == 0.0) & (y2n[1] == 0.0)):
        raise ValueError("cannot decode an angle from the zero vector")
    return np.remainder(np.degrees(np.arctan2(y2n[1], y2n[0])), 360.0)


def decode_positions(y2n: np.ndarray, norm) -> np.ndarray:
    """Columns of a (2, n) normalized output -> (n, 2) positions in cm."""
    (x0, xs), (y0, ys) = norm
    return np.column_stack([y2n[0] * xs + x0, y2n[1] * ys + y0])


def prepare(
    dataset: SpikeDataset,
    cfg,
    arch: str = "scrnn",
    complex_: SimplicialComplex | None = None,
) -> PreparedData:
    """Bin, binarize, and label a dataset; build the functional complex from
    the training columns for the simplicial architectures.

    The held-out block is the first ``split[0]`` fraction of bins; training
    windows and the complex use only the remaining columns. Passing
    ``complex_`` (e.g. from a checkpoint) skips the rebuild.
    """
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r}")
    count_matrix = bin_spikes(dataset, cfg.t_bin)
    bits = binarize_rows(count_matrix, cfg.p)
    labels = bin_labels(dataset, cfg.t_bin)
    counts = count_matrix.counts
    n_bins = counts.shape[1]
    n_test = int(round(cfg.split[0] * n_bins))
    seq, n_col = cfg.seq_len, cfg.n_col
    if n_test < seq + n_col - 1 or n_bins - n_test < seq + n_col - 1:
        raise ValueError("split blocks too short for the window length")

    test_starts = np.arange(0, n_test - seq - n_col + 2)
    train_starts = np.arange(n_test, n_bins - seq - n_col + 2)

    norm = None
    if dataset.kind == "hd":
        targets = encode_angle(labels.values)
    else:
        xy = labels.values
        train_bins = xy[n_test:]
        mins = train_bins.min(axis=0)
        spans = np.maximum(train_bins.max(axis=0) - mins, 1e-9)
        norm = ((float(mins[0]), float(spans[0])), (float(mins[1]), float(spans[1])))
        targets = ((xy - mins) / spans).T.copy()

    if arch in ("scrnn", "gnn"):
        if complex_ is None:
            k_max = 1 if arch == "gnn" else cfg.k_max
            # Looked up on the module at call time, so that a wrapper
            # installed there sees every build.
            complex_ = complexes.build_complex(bits.bits, k_max, range(n_test, n_bins))
        elif complex_.n_vertices != counts.shape[0]:
            raise ValueError(
                f"complex has {complex_.n_vertices} vertices but the dataset has "
                f"{counts.shape[0]} neurons"
            )
    else:
        complex_ = None

    return PreparedData(
        kind=dataset.kind,
        counts=counts,
        bits=bits.bits,
        label_values=labels.values,
        targets=targets,
        n_test=n_test,
        seq_len=seq,
        n_col=n_col,
        train_starts=train_starts,
        test_starts=test_starts,
        complex=complex_,
        norm=norm,
    )


def _check_neurons(n_model, prep):
    """Reject data whose neuron count differs from the model's."""
    if prep.counts.shape[0] != n_model:
        raise ValueError(
            f"model was built on {n_model} neurons but the data has "
            f"{prep.counts.shape[0]}"
        )


def _dropout_mask(rng, shape, rate):
    return (rng.random(shape) >= rate) / (1.0 - rate)


def _rnn_forward_var(params, n_layers, seq_inputs, training, dropout, rng):
    """Shared Elman-stack graph builder; ``seq_inputs[t]`` is the first
    layer's input product ``w_h @ z_t``, one column per window."""
    batch = seq_inputs[0].value.shape[1]
    for j in range(n_layers):
        w_h = params[f"rnn.l{j}.w_h"]
        w_c = params[f"rnn.l{j}.w_c"]
        b_h = params[f"rnn.l{j}.b_h"]
        b_c = params[f"rnn.l{j}.b_c"]
        if j:
            seq_inputs = [ad.matmul(w_h, z_t) for z_t in seq_inputs]
        hidden = w_c.value.shape[0]
        h = ad.var(np.zeros((hidden, batch)))
        outputs = []
        for x_t in seq_inputs:
            pre = ad.add(ad.add(x_t, b_h), ad.add(ad.matmul(w_c, h), b_c))
            h = ad.tanh(pre)
            outputs.append(h)
        if training and dropout > 0.0 and j < n_layers - 1:
            outputs = [
                ad.mul_mask(o, _dropout_mask(rng, o.value.shape, dropout))
                for o in outputs
            ]
        seq_inputs = outputs
    return ad.add(ad.matmul(params["head.w"], seq_inputs[-1]), params["head.b"])


def _rnn_params(input_width, cfg, rng) -> dict:
    """The Elman stack's ``rnn.l*`` and the head's ``head.*`` parameters,
    uniform within +-1/sqrt(fan-in) per matrix and +-1/sqrt(H) per bias."""
    hidden = cfg.hidden_size
    bound_h = 1.0 / np.sqrt(hidden)
    params = {}
    in_dim = input_width
    for j in range(cfg.nn_layers):
        bound_in = 1.0 / np.sqrt(in_dim)
        params[f"rnn.l{j}.w_h"] = ad.var(rng.uniform(-bound_in, bound_in, (hidden, in_dim)))
        params[f"rnn.l{j}.w_c"] = ad.var(rng.uniform(-bound_h, bound_h, (hidden, hidden)))
        params[f"rnn.l{j}.b_h"] = ad.var(rng.uniform(-bound_h, bound_h, (hidden, 1)))
        params[f"rnn.l{j}.b_c"] = ad.var(rng.uniform(-bound_h, bound_h, (hidden, 1)))
        in_dim = hidden
    params["head.w"] = ad.var(rng.uniform(-bound_h, bound_h, (2, hidden)))
    params["head.b"] = ad.var(rng.uniform(-bound_h, bound_h, (2, 1)))
    return params


def _column_patterns(bits):
    """The distinct columns of a 0/1 matrix in lexicographic order, as
    ``(first, pattern_of_bin)``: ``first[p]`` is the first column holding
    pattern ``p`` and column ``b`` holds pattern ``pattern_of_bin[b]``, as
    ``np.unique(bits, axis=1, return_index=True, return_inverse=True)``
    gives them.

    Each column is packed into one byte-string key. With 0/1 bits, the
    byte order of two packed columns is their lexicographic order, so one
    1-D ``np.unique`` over the keys replaces the row-by-row comparisons of
    the ``axis=1`` form.
    """
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=0).T.copy()
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, pattern_of_bin = np.unique(keys, return_index=True, return_inverse=True)
    return first, pattern_of_bin.reshape(-1)


class FactoredHalf:
    """A Hodge-Laplacian half applied through its incidence factor ``B``:
    ``B.T @ (B @ x)`` for a lower half (``B = B_k``) and ``B @ (B.T @ x)``
    for an upper one (``B = B_{k+1}``). The half is symmetric, so ``.T``
    is the operator itself."""

    def __init__(self, b, lower):
        b = b.astype(np.float64)
        b_t = b.T.tocsr()
        b = b.tocsr()
        self.inner, self.outer = (b, b_t) if lower else (b_t, b)

    def __matmul__(self, x):
        return self.outer @ (self.inner @ x)

    @property
    def T(self):
        return self


def _half_operator(half, b, lower):
    """The float64 half, or its ``FactoredHalf`` when that does less work:
    ``2 * nnz(B) + n_mid < nnz(half)``, where ``n_mid`` is the length of
    the intermediate cochain. ``b`` is None where the half has no factor
    (k = 0 lower, top-dimension upper)."""
    if b is not None:
        n_mid = b.shape[0] if lower else b.shape[1]
        if 2 * b.nnz + n_mid < half.nnz:
            return FactoredHalf(b, lower)
    return half.astype(np.float64)


class Decoder:
    """What every decoder shares: the config it was built with, its named
    parameters drawn by ``_init_params`` (``load_checkpoint`` replaces
    them), the MSE loss of a batch, and a prediction through the graph
    ``forward`` evaluated without recording."""

    complex = None

    def __init__(self, input_width, cfg):
        self.kind = cfg.kind
        self.input_width = input_width
        self.seq_len = cfg.seq_len
        self.nn_layers = cfg.nn_layers
        self.dropout = cfg.dropout
        self.params = self._init_params(cfg, np.random.default_rng(cfg.seed))

    def loss_batch(self, prep, starts, training=False, rng=None):
        pred, targets = self.forward(prep, starts, training, rng)
        return ad.mse(pred, targets), pred

    def predict(self, prep, starts, chunk=256) -> np.ndarray:
        """Model outputs for a list of window starts, shape (2, n)."""
        starts = np.asarray(starts)
        outputs = []
        with ad.no_grad():
            for lo in range(0, len(starts), chunk):
                pred, _ = self.forward(prep, starts[lo:lo + chunk])
                outputs.append(pred.value)
        return np.concatenate(outputs, axis=1)


class ScrnnModel(Decoder):
    """Simplicial convolution layers feeding a stacked Elman RNN."""

    def __init__(self, complex_, cfg, arch="scrnn"):
        self.arch = arch
        self.complex = complex_
        self.sc_layers = cfg.sc_layers
        self.n_filters = cfg.n_filters
        self.degree = cfg.degree
        self.n_col = cfg.n_col
        # Lower and upper Laplacian half per dimension: a float64 CSR
        # matrix, or a FactoredHalf where the factor is much sparser than
        # the half (the dense lower halves of large complexes).
        self.laps = {}
        for k, lap in complex_laplacians(complex_).items():
            b_low = incidence_matrix(complex_, k) if k else None
            b_up = incidence_matrix(complex_, k + 1) if k < complex_.dim else None
            self.laps[k] = (
                _half_operator(lap.lower, b_low, lower=True),
                _half_operator(lap.upper, b_up, lower=False),
            )
        super().__init__(complex_.total_simplices, cfg)

    def _init_params(self, cfg, rng):
        """Each filter's weights uniform within +-1/sqrt(its term count),
        then the recurrent stack's."""
        params = {}
        for li in range(self.sc_layers):
            for fi in range(self.n_filters):
                for k in range(self.complex.dim + 1):
                    names = self._filter_names(li, fi, k)
                    bound = 1.0 / np.sqrt(len(names))
                    draw = rng.uniform(-bound, bound, size=len(names))
                    params.update(zip(names, map(ad.var, draw)))
        params.update(_rnn_params(self.input_width, cfg, rng))
        return params

    def _filter_names(self, li, fi, k):
        """Weight names in the fixed term order: identity, lower powers,
        upper powers (boundary dimensions omit the absent half)."""
        base = f"sc.l{li}.f{fi}.k{k}"
        names = [f"{base}.w0"]
        if k >= 1:
            names += [f"{base}.low{i}" for i in range(1, self.degree + 1)]
        if k < self.complex.dim:
            names += [f"{base}.up{i}" for i in range(1, self.degree + 1)]
        return names

    def _filter_weights(self, li, fi, k):
        return [self.params[name] for name in self._filter_names(li, fi, k)]

    def _laplacian_powers(self, k, x, product):
        """Yield ``x``, then its lower, then its upper Laplacian powers up to
        the filter degree: the filter terms in their fixed order.
        ``product(lap, x)`` multiplies: ``@`` on arrays, ``ad.spmm`` on Vars."""
        lower, upper = self.laps[k]
        yield x
        for lap, present in ((lower, k >= 1), (upper, k < self.complex.dim)):
            power = x
            for _ in range(self.degree if present else 0):
                power = product(lap, power)
                yield power

    def _stacked_powers(self, k, x):
        """The Laplacian powers of the array ``x`` as one
        ``(n_terms, *x.shape)`` array, filled one power at a time."""
        out = np.empty((len(self._filter_names(0, 0, k)), *x.shape))
        for term, power in zip(out, self._laplacian_powers(k, x, operator.matmul)):
            term[...] = power
        return out

    def _input_terms(self, prep: PreparedData):
        """Laplacian powers of the input cochains; returns
        ``(terms, pattern_of_bin)``.

        ``terms[0]`` holds the powers of the spike counts, one column per
        bin. For k >= 1 the input cochain is the coactivity of the bin's
        binarized column, so it is computed here once per distinct column of
        ``prep.bits``: ``terms[k]`` holds one column per distinct column,
        and bin ``b`` reads column ``pattern_of_bin[b]``. The first layer's
        filters only scale these matrices, so they are computed once per
        dataset and gathered per batch; each column of a sparse product
        depends on the same column of the input alone, so the gathered
        columns equal per-bin products bit for bit.
        """
        if self.complex != prep.complex:
            raise ValueError("the model's complex differs from the prepared data's")
        if self.degree in prep.terms:
            return prep.terms[self.degree]
        first, pattern_of_bin = _column_patterns(prep.bits)
        terms = {0: self._stacked_powers(0, prep.counts.astype(np.float64))}
        for k in range(1, self.complex.dim + 1):
            act = coactivity_matrix(self.complex, prep.bits[:, first], k)
            terms[k] = self._stacked_powers(k, act.astype(np.float64))
        prep.terms[self.degree] = terms, pattern_of_bin
        return terms, pattern_of_bin

    def _sc_forward(self, first_terms):
        """The simplicial stack, one column per column of ``first_terms``;
        returns the output summed over filters per dimension."""
        dims = range(self.complex.dim + 1)
        feats = [
            {
                k: ad.relu(
                    ad.lincomb(
                        self._filter_weights(0, fi, k),
                        first_terms[k].reshape(len(first_terms[k]), -1),
                        first_terms[k].shape[1:],
                    )
                )
                for k in dims
            }
            for fi in range(self.n_filters)
        ]
        for li in range(1, self.sc_layers):
            # All filters of a layer see the same feature, so their sum is
            # one filter with the summed weights.
            weights = {
                k: [
                    ad.add_n(ws)
                    for ws in zip(
                        *(self._filter_weights(li, fi, k) for fi in range(self.n_filters))
                    )
                ]
                for k in dims
            }
            feats = [
                {
                    k: ad.relu(
                        ad.add_n(
                            [
                                ad.scale(w, power)
                                for w, power in zip(
                                    weights[k],
                                    self._laplacian_powers(k, feat[k], ad.spmm),
                                )
                            ]
                        )
                    )
                    for k in dims
                }
                for feat in feats
            ]
        return {k: ad.add_n([feat[k] for feat in feats]) for k in dims}

    def _batch_inputs(self, prep: PreparedData, starts):
        """The first layer's input terms over the batch's distinct columns,
        and where the windows read them; returns ``(terms, positions)``.

        ``terms[0]`` has one column per distinct count column of the batch
        and ``terms[k]``, k >= 1, one per distinct activity pattern.
        ``positions`` is ``(col_pos, pat_pos, bin_pos)``: bin ``i`` of the
        batch's distinct bins reads count columns ``col_pos[i]`` and pattern
        ``pat_pos[i]``, and window ``w`` reads bin ``bin_pos[w, t]`` at step
        ``t``.
        """
        terms, pattern_of_bin = self._input_terms(prep)
        bins, bin_pos = np.unique(
            np.asarray(starts)[:, None] + np.arange(self.seq_len), return_inverse=True
        )
        cols, col_pos = np.unique(
            bins[:, None] + np.arange(self.n_col), return_inverse=True
        )
        pats, pat_pos = np.unique(pattern_of_bin[bins], return_inverse=True)
        # np.take returns a C-contiguous block, which ad.lincomb reshapes
        # without a copy; the fancy index would not.
        first = {k: np.take(terms[k], cols if k == 0 else pats, axis=2) for k in terms}
        positions = (
            col_pos.reshape(len(bins), self.n_col),
            pat_pos.reshape(-1),
            bin_pos.reshape(-1, self.seq_len),
        )
        return first, positions

    def forward(self, prep, starts, training=False, rng=None):
        """Build the graph; returns (prediction Var, targets array).

        The simplicial stack runs once per distinct count column at k=0 and
        once per distinct activity pattern at k >= 1 of the batch. Each
        dimension's output is projected through its column block of
        ``rnn.l0.w_h``, and the projections are gathered per bin, then per
        step, as the first recurrent layer's inputs.
        """
        starts = np.asarray(starts)
        first, (col_pos, pat_pos, bin_pos) = self._batch_inputs(prep, starts)
        outs = self._sc_forward(first)
        w_h = self.params["rnn.l0.w_h"]
        bounds = np.cumsum([0] + [self.complex.n_simplices(k) for k in outs])
        proj = [
            ad.matmul(ad.take_cols(w_h, np.arange(bounds[k], bounds[k + 1])), outs[k])
            for k in outs
        ]
        per_bin = ad.add_n(
            [ad.take_cols(proj[0], col_pos[:, c]) for c in range(self.n_col)]
            + [ad.take_cols(proj[k], pat_pos) for k in range(1, len(proj))]
        )
        steps = [ad.take_cols(per_bin, bin_pos[:, t]) for t in range(self.seq_len)]
        pred = _rnn_forward_var(
            self.params, self.nn_layers, steps, training, self.dropout, rng
        )
        return pred, prep.targets[:, starts + self.seq_len - 1]

    # Kept in the class's own dict: the benchmark's trace hooks
    # (perfbench/tracing.py) look ``ScrnnModel.predict`` up there.
    predict = Decoder.predict


class FfnnModel(Decoder):
    """Fully-connected baseline on the flattened count window."""

    arch = "ffnn"

    def _init_params(self, cfg, rng):
        params = {}
        in_dim = self.input_width
        for j in range(self.nn_layers):
            bound = 1.0 / np.sqrt(in_dim)
            params[f"fc.l{j}.w"] = ad.var(
                rng.uniform(-bound, bound, (cfg.layer_width, in_dim))
            )
            params[f"fc.l{j}.b"] = ad.var(np.zeros((cfg.layer_width, 1)))
            in_dim = cfg.layer_width
        bound = 1.0 / np.sqrt(in_dim)
        params["head.w"] = ad.var(rng.uniform(-bound, bound, (2, in_dim)))
        params["head.b"] = ad.var(np.zeros((2, 1)))
        return params

    def _batch_inputs(self, prep, starts):
        _check_neurons(self.input_width // self.seq_len, prep)
        starts = np.asarray(starts)
        cols = (starts[:, None] + np.arange(self.seq_len)[None, :]).reshape(-1)
        window = prep.counts[:, cols].astype(np.float64)
        n = prep.counts.shape[0]
        x = window.reshape(n, len(starts), self.seq_len)
        x = np.transpose(x, (2, 0, 1)).reshape(self.seq_len * n, len(starts))
        targets = prep.targets[:, starts + self.seq_len - 1]
        return ad.var(x), targets

    def forward(self, prep, starts, training=False, rng=None):
        x, targets = self._batch_inputs(prep, starts)
        for j in range(self.nn_layers):
            x = ad.relu(
                ad.add(ad.matmul(self.params[f"fc.l{j}.w"], x), self.params[f"fc.l{j}.b"])
            )
            if training and self.dropout > 0.0:
                x = ad.mul_mask(x, _dropout_mask(rng, x.value.shape, self.dropout))
        pred = ad.add(ad.matmul(self.params["head.w"], x), self.params["head.b"])
        return pred, targets


class RnnModel(Decoder):
    """Elman baseline on raw per-bin count vectors."""

    arch = "rnn"

    def _init_params(self, cfg, rng):
        return _rnn_params(self.input_width, cfg, rng)

    def forward(self, prep, starts, training=False, rng=None):
        _check_neurons(self.input_width, prep)
        starts = np.asarray(starts)
        w_h = self.params["rnn.l0.w_h"]
        seq_inputs = [
            ad.matmul(w_h, ad.var(prep.counts[:, starts + t].astype(np.float64)))
            for t in range(self.seq_len)
        ]
        targets = prep.targets[:, starts + self.seq_len - 1]
        pred = _rnn_forward_var(
            self.params, self.nn_layers, seq_inputs, training, self.dropout, rng
        )
        return pred, targets


def build_model(arch: str, prep: PreparedData, cfg):
    """Construct a decoder of the requested architecture on prepared data."""
    if arch == "scrnn":
        return ScrnnModel(prep.complex, cfg, arch="scrnn")
    if arch == "gnn":
        if prep.complex is None or prep.complex.dim > 1:
            raise ValueError("gnn baseline requires a complex capped at dimension 1")
        return ScrnnModel(prep.complex, cfg, arch="gnn")
    if arch == "ffnn":
        return FfnnModel(prep.counts.shape[0] * cfg.seq_len, cfg)
    if arch == "rnn":
        return RnnModel(prep.counts.shape[0], cfg)
    raise ValueError(f"unknown architecture {arch!r}")


def scrnn_predict(model: ScrnnModel, prep: PreparedData, start: int) -> np.ndarray:
    """Decode one window of ``seq_len`` consecutive bins starting at
    ``start``; the prediction targets the window's final bin."""
    last_valid = prep.n_bins - model.seq_len - model.n_col + 1
    if not 0 <= start <= last_valid:
        raise ValueError(f"window start {start} outside [0, {last_valid}]")
    return model.predict(prep, np.array([start]))[:, 0]


def predictions_to_labels(pred: np.ndarray, prep: PreparedData):
    """Raw (2, n) outputs -> decoded angles (deg) or positions (cm)."""
    if prep.kind == "hd":
        return decode_angles(pred)
    return decode_positions(pred, prep.norm)


def param_values(model) -> dict[str, np.ndarray]:
    return {name: np.array(p.value, copy=True) for name, p in model.params.items()}


def set_param_values(model, values: dict[str, np.ndarray]) -> None:
    for name, p in model.params.items():
        p.value = np.array(values[name], copy=True)


# How ``repr`` and ``json.dumps`` write the non-finite floats.
_JSON_NON_FINITE = (("nan", "NaN"), ("inf", "Infinity"), ("-inf", "-Infinity"))


def _weights_json(model) -> str:
    """``weights.json``: one entry per SC scalar and per dense matrix cell,
    in sorted parameter order. Each matrix row is formatted through one
    template holding a ``%r`` per cell; the bytes are those of
    ``json.dumps(payload, separators=(",", ":"))`` of the entry dicts, so
    checkpoints do not change."""
    sc, dense = [], []
    for name in sorted(model.params):
        value = model.params[name].value
        if name.startswith("sc."):
            li, fi, kk, term = name.split(".")[1:]
            sc.append(
                f'{{"layer":{int(li[1:]) + 1},"filter":{int(fi[1:]) + 1},'
                f'"dim":{int(kk[1:])},"term":"{term}","value":{float(value)!r}}}'
            )
            continue
        if name.startswith("head."):
            layer = model.nn_layers
            matrix = "w_out" if name.endswith("w") else "b_out"
        else:
            _, li, matrix = name.split(".")
            layer = int(li[1:])
        cells = [f',"col":{c},"value":%r}}' for c in range(value.shape[1])]
        for r, row in enumerate(value.tolist()):
            head = f'{{"layer":{layer},"matrix":"{matrix}","row":{r}'
            dense.append((head + f",{head}".join(cells)) % tuple(row))
    text = (
        f'{{"arch":"{model.arch}","sc":[{",".join(sc)}],'
        f'"dense":[{",".join(dense)}]}}'
    )
    for py, js in _JSON_NON_FINITE:
        text = text.replace(f'"value":{py}}}', f'"value":{js}}}')
    return text


def save_checkpoint(dirpath, model, cfg) -> None:
    """Write complex dump (when present), weight JSON, and a config echo."""
    from .config import write_config

    os.makedirs(dirpath, exist_ok=True)
    if model.complex is not None:
        with open(os.path.join(dirpath, "complex.json"), "w", encoding="utf-8") as fh:
            fh.write(complex_to_json(model.complex))
    with open(os.path.join(dirpath, "weights.json"), "w", encoding="utf-8") as fh:
        fh.write(_weights_json(model))
    write_config(cfg, os.path.join(dirpath, "config.txt"))


def _dense_params_from_entries(entries):
    """Dense parameters by name, one numpy scatter per matrix."""
    grouped: dict[tuple, list] = {}
    for e in entries:
        grouped.setdefault((e["layer"], e["matrix"]), []).append(e)
    params = {}
    for (layer, matrix), cells in sorted(grouped.items()):
        rows, cols, values = (
            np.fromiter((e[key] for e in cells), dtype, len(cells))
            for key, dtype in (("row", np.int64), ("col", np.int64), ("value", np.float64))
        )
        arr = np.zeros((rows.max() + 1, cols.max() + 1))
        arr[rows, cols] = values
        if matrix in ("w_out", "b_out"):
            name = "head.w" if matrix == "w_out" else "head.b"
        else:
            name = f"{'fc' if matrix in ('w', 'b') else 'rnn'}.l{layer}.{matrix}"
        params[name] = ad.var(arr)
    return params


def load_checkpoint(dirpath):
    """Rebuild (model, cfg) from a checkpoint directory."""
    from .config import read_config

    cfg = read_config(os.path.join(dirpath, "config.txt"))
    with open(os.path.join(dirpath, "weights.json"), "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    arch = payload["arch"]
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r} in checkpoint")
    params = {
        f"sc.l{e['layer'] - 1}.f{e['filter'] - 1}.k{e['dim']}.{e['term']}": ad.var(e["value"])
        for e in payload["sc"]
    }
    params.update(_dense_params_from_entries(payload["dense"]))
    first = "fc.l0.w" if arch == "ffnn" else "rnn.l0.w_h"
    for name in ("head.w", "head.b", first):
        if name not in params:
            raise ValueError(f"checkpoint has no {name} matrix")

    if arch in ("scrnn", "gnn"):
        with open(os.path.join(dirpath, "complex.json"), "r", encoding="utf-8") as fh:
            complex_ = complex_from_json(fh.read())
        model = ScrnnModel(complex_, cfg, arch=arch)
    else:
        model_cls = FfnnModel if arch == "ffnn" else RnnModel
        model = model_cls(params[first].value.shape[1], cfg)
    _check_params(model.params, params)
    model.params = params
    return model, cfg


def _check_params(drawn, loaded):
    """Reject loaded weights whose names or shapes differ from those the
    config draws, naming the first offending parameter."""
    for name in sorted(drawn.keys() | loaded.keys()):
        if name not in loaded:
            raise ValueError(f"checkpoint has no parameter {name}")
        if name not in drawn:
            raise ValueError(
                f"checkpoint parameter {name} is not part of the configured model"
            )
        want, got = drawn[name].value.shape, loaded[name].value.shape
        if want != got:
            raise ValueError(
                f"checkpoint parameter {name} has shape {got}, the config implies {want}"
            )
