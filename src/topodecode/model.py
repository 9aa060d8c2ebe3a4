"""Decoder models: the simplicial-convolutional recurrent network and the
feedforward / recurrent / graph baselines, behind one predict interface.

Each architecture lists its named ``autodiff.Var`` leaves in one table,
``param_specs``; a new model draws them from the config's seed, and a loaded
one is checked against it without drawing. A single reverse pass yields every
gradient. Each model has one graph forward: it serves training, and
prediction evaluates it under ``autodiff.no_grad``. Each simplicial
dimension's filters read only that dimension's cochain, so the SCRNN's
forward filters each distinct count column (k = 0) and each distinct
k-coactivity column (k >= 1) of a batch once, and all bins without a
co-active k-simplex share one zero column. Its first layer's input terms
are computed per batch from those distinct columns, so no array the size of
the recording is kept beside the prepared data.
"""

from __future__ import annotations

import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import complexes
from .complexes import (
    SimplicialComplex,
    _column_patterns,
    coactivity_matrix,
    complex_from_json,
    complex_laplacians,
    complex_to_json,
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

# Windows per graph that ``Decoder.predict`` evaluates at once.
PREDICT_CHUNK = 256


@dataclass
class PreparedData:
    """Binned, binarized, and labeled data ready for window-based decoding.

    Nothing derived per model is stored here: ``ScrnnModel`` computes its
    input terms, coactivity included, per batch from ``counts`` and
    ``bits``.
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
    return float(decode_angles(np.asarray(y, dtype=np.float64).reshape(2, 1))[0])


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


# The dense parameters' names: the read-out, Elman layer j's input and
# recurrent matrices and their biases, and dense layer j's matrix and bias.
HEAD = ("head.w", "head.b")


def _rnn_names(j):
    return tuple(f"rnn.l{j}.{m}" for m in ("w_h", "w_c", "b_h", "b_c"))


def _fc_names(j):
    return f"fc.l{j}.w", f"fc.l{j}.b"


def _head(params, x):
    """The linear read-out to the two output coordinates."""
    w, b = (params[name] for name in HEAD)
    return ad.add(ad.matmul(w, x), b)


def _rnn_forward_var(params, n_layers, seq_inputs, training, dropout, rng):
    """Shared Elman-stack graph builder; ``seq_inputs[t]`` is the first
    layer's input product ``w_h @ z_t``, one column per window."""
    batch = seq_inputs[0].value.shape[1]
    for j in range(n_layers):
        w_h, w_c, b_h, b_c = (params[name] for name in _rnn_names(j))
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
    return _head(params, seq_inputs[-1])


def _rnn_specs(input_width, cfg) -> list:
    """The Elman stack's ``rnn.l*`` and the head's rows of a parameter
    table: uniform within +-1/sqrt(fan-in) per input matrix and +-1/sqrt(H)
    otherwise."""
    hidden = cfg.hidden_size
    bound_h = 1.0 / np.sqrt(hidden)
    rows, in_dim = [], input_width
    for j in range(cfg.nn_layers):
        shapes = [(hidden, in_dim), (hidden, hidden), (hidden, 1), (hidden, 1)]
        rows += zip(_rnn_names(j), shapes, [1.0 / np.sqrt(in_dim)] + [bound_h] * 3)
        in_dim = hidden
    return rows + [(HEAD[0], (2, hidden), bound_h), (HEAD[1], (2, 1), bound_h)]


def _draw_params(specs, seed) -> dict:
    """A parameter table's rows drawn in order from one generator seeded
    with ``seed``: uniform within +-bound, or zeros (drawing nothing) where
    the bound is None."""
    rng = np.random.default_rng(seed)
    return {
        name: ad.var(np.zeros(shape) if bound is None else rng.uniform(-bound, bound, shape))
        for name, shape, bound in specs
    }


def _checked_params(specs, params) -> dict:
    """``params`` in table order, once their names, shapes and dtypes match
    the table; otherwise the first mismatching name in sorted order is named."""
    shapes = {name: shape for name, shape, _ in specs}
    for name in sorted(shapes.keys() | params.keys()):
        if name not in params:
            raise ValueError(f"checkpoint has no parameter {name}")
        if name not in shapes:
            raise ValueError(f"checkpoint parameter {name} is not part of the configured model")
        got = params[name].value
        if got.shape != shapes[name]:
            raise ValueError(
                f"checkpoint parameter {name} has shape {got.shape}, "
                f"the config implies {shapes[name]}"
            )
        if got.dtype != np.float64:
            raise ValueError(f"checkpoint parameter {name} has dtype {got.dtype}, expected float64")
    return {name: params[name] for name in shapes}


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
    parameters, the MSE loss of a batch, and a prediction through the graph
    ``forward`` evaluated without recording. ``param_specs(cfg)`` lists one
    ``(name, shape, init bound)`` row per parameter in draw order: a new
    model draws them from ``cfg.seed``, a loaded one checks its ``params``."""

    complex = None
    # Consecutive count columns a bin reads; the SCRNN sets its config's.
    n_col = 1

    def __init__(self, input_width, cfg, params=None):
        self.input_width = input_width
        self.seq_len = cfg.seq_len
        self.nn_layers = cfg.nn_layers
        self.dropout = cfg.dropout
        specs = self.param_specs(cfg)
        if params is None:
            params = _draw_params(specs, cfg.seed)
        self.params = _checked_params(specs, params)

    @property
    def n_neurons(self) -> int:
        """Rows of the count matrix the model reads."""
        return self.input_width

    def loss_batch(self, prep, starts, training=False, rng=None):
        pred, targets = self.forward(prep, starts, training, rng)
        return ad.mse(pred, targets), pred

    def predict(self, prep, starts) -> np.ndarray:
        """Model outputs for a list of window starts, shape (2, n).

        A window reads ``seq_len + n_col - 1`` consecutive bins, so a start
        outside ``[0, n_bins - seq_len - n_col + 1]`` is rejected.

        The first call in a process sets glibc's malloc thresholds for the
        whole process (``autodiff.retain_freed_memory``), so up to 64 MiB of
        freed heap is kept for reuse rather than returned to the OS."""
        ad.retain_freed_memory()
        starts = np.asarray(starts)
        if starts.size == 0:
            return np.zeros((2, 0))
        last_valid = prep.n_bins - self.seq_len - self.n_col + 1
        bad = (starts < 0) | (starts > last_valid)
        if bad.any():
            raise ValueError(f"window start {starts[bad][0]} outside [0, {last_valid}]")
        outputs = []
        with ad.no_grad():
            for lo in range(0, len(starts), PREDICT_CHUNK):
                pred, _ = self.forward(prep, starts[lo:lo + PREDICT_CHUNK])
                outputs.append(pred.value)
        return np.concatenate(outputs, axis=1)


class ScrnnModel(Decoder):
    """Simplicial convolution layers feeding a stacked Elman RNN."""

    def __init__(self, complex_, cfg, arch="scrnn", params=None):
        if arch == "gnn" and (complex_ is None or complex_.dim > 1):
            raise ValueError("gnn baseline requires a complex capped at dimension 1")
        self.arch = arch
        self.complex = complex_
        self.sc_layers = cfg.sc_layers
        self.n_filters = cfg.n_filters
        self.degree = cfg.degree
        self.n_col = cfg.n_col
        # Lower and upper Laplacian half per dimension: a float64 CSR
        # matrix, or a FactoredHalf where the factor is much sparser than
        # the half (the dense lower halves of large complexes).
        laps = complex_laplacians(complex_)
        b = {k: lap.boundary for k, lap in laps.items()}
        self.laps = {
            k: (
                _half_operator(lap.lower, b[k], lower=True),
                _half_operator(lap.upper, b.get(k + 1), lower=False),
            )
            for k, lap in laps.items()
        }
        super().__init__(complex_.total_simplices, cfg, params)

    @property
    def n_neurons(self) -> int:
        return self.complex.n_vertices

    def param_specs(self, cfg) -> list:
        """Each filter's scalar weights, uniform within +-1/sqrt(its term
        count), then the recurrent stack's rows."""
        rows = []
        for li in range(self.sc_layers):
            for fi in range(self.n_filters):
                for k in range(self.complex.dim + 1):
                    names = self._filter_names(li, fi, k)
                    rows += [(name, (), 1.0 / np.sqrt(len(names))) for name in names]
        return rows + _rnn_specs(self.input_width, cfg)

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

    def _input_terms(self, prep: PreparedData, cols, bins):
        """Laplacian powers of the first layer's distinct input cochains,
        and which of them each bin reads; returns ``(terms, reads)``.

        ``terms`` holds per dimension a list of C-contiguous float64 arrays
        in term order. ``terms[0]`` holds the powers of the spike counts,
        one column per entry of ``cols``. For k >= 1 the input cochain of a
        bin is its k-coactivity, and ``terms[k]`` holds one column per
        distinct coactivity column of ``bins``, in lexicographic order, so
        every bin without a co-active k-simplex reads one zero column.
        ``bins[i]`` reads column ``reads[k][i]``. The counts and
        coactivities are integers, and each column of a sparse product
        depends on the same input column alone, so these columns equal
        per-bin products bit for bit.
        """
        if self.complex is not prep.complex and self.complex != prep.complex:
            raise ValueError("the model's complex differs from the prepared data's")
        bits = prep.bits[:, bins]
        inputs, reads = [prep.counts[:, cols]], {}
        for k in range(1, self.complex.dim + 1):
            act = coactivity_matrix(self.complex, bits, k)
            first, reads[k] = _column_patterns(act)
            inputs.append(act[:, first])
        terms = {
            k: list(
                self._laplacian_powers(k, np.ascontiguousarray(x, np.float64), operator.matmul)
            )
            for k, x in enumerate(inputs)
        }
        return terms, reads

    def _sc_forward(self, first_terms):
        """The simplicial stack, one column per column of ``first_terms``;
        returns the output summed over filters per dimension."""
        dims = range(self.complex.dim + 1)
        feats = [
            {k: ad.relu_lincomb(self._filter_weights(0, fi, k), first_terms[k]) for k in dims}
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
                    k: ad.relu_lincomb(
                        weights[k], list(self._laplacian_powers(k, feat[k], ad.spmm))
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
        and ``terms[k]``, k >= 1, one per distinct k-coactivity column of
        its bins (see ``_input_terms``). They are computed per batch, so a
        batch costs memory in its own size, not the recording's.
        ``positions`` is ``(reads, bin_pos)``: bin ``i`` of the batch's
        distinct bins reads count columns ``reads[0][i]`` and column
        ``reads[k][i]`` of ``terms[k]``, and window ``w`` reads bin
        ``bin_pos[w, t]`` at step ``t``.
        """
        bins, bin_pos = np.unique(
            np.asarray(starts)[:, None] + np.arange(self.seq_len), return_inverse=True
        )
        cols, col_pos = np.unique(
            bins[:, None] + np.arange(self.n_col), return_inverse=True
        )
        terms, reads = self._input_terms(prep, cols, bins)
        reads[0] = col_pos.reshape(len(bins), self.n_col)
        return terms, (reads, bin_pos.reshape(-1, self.seq_len))

    def forward(self, prep, starts, training=False, rng=None):
        """Build the graph; returns (prediction Var, targets array).

        The simplicial stack runs once per distinct count column at k=0 and
        once per distinct k-coactivity column at k >= 1 of the batch; a
        dimension's filters read only its own cochain. One projection node
        multiplies each dimension's output by its column block of
        ``rnn.l0.w_h`` and lays the products side by side; each bin gathers
        its columns from that node, each dimension's reads offset by its
        first column, and the bins are gathered per step as the first
        recurrent layer's inputs.
        """
        starts = np.asarray(starts)
        first, (reads, bin_pos) = self._batch_inputs(prep, starts)
        outs = list(self._sc_forward(first).values())
        proj = ad.block_matmul(self.params[_rnn_names(0)[0]], outs)
        offsets = np.cumsum([0] + [out.shape[1] for out in outs])
        per_bin = ad.add_n(
            [ad.take_cols(proj, reads[0][:, c]) for c in range(self.n_col)]
            + [ad.take_cols(proj, reads[k] + offsets[k]) for k in range(1, len(outs))]
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

    @property
    def n_neurons(self) -> int:
        return self.input_width // self.seq_len

    def param_specs(self, cfg) -> list:
        """Matrices uniform within +-1/sqrt(fan-in), biases zero. The first
        matrix reads ``seq_len`` count columns of ``n_neurons`` rows."""
        if self.n_neurons < 1:
            raise ValueError(
                f"{_fc_names(0)[0]} is {self.input_width} wide, fewer than one "
                f"neuron's seq_len = {self.seq_len} count columns"
            )
        rows, in_dim = [], self.n_neurons * self.seq_len
        for j in range(self.nn_layers):
            w, b = _fc_names(j)
            bound = 1.0 / np.sqrt(in_dim)
            rows += [(w, (cfg.layer_width, in_dim), bound), (b, (cfg.layer_width, 1), None)]
            in_dim = cfg.layer_width
        return rows + [(HEAD[0], (2, in_dim), 1.0 / np.sqrt(in_dim)), (HEAD[1], (2, 1), None)]

    def _batch_inputs(self, prep, starts):
        _check_neurons(self.n_neurons, prep)
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
            w, b = (self.params[name] for name in _fc_names(j))
            x = ad.relu(ad.add(ad.matmul(w, x), b))
            if training and self.dropout > 0.0:
                x = ad.mul_mask(x, _dropout_mask(rng, x.value.shape, self.dropout))
        return _head(self.params, x), targets


class RnnModel(Decoder):
    """Elman baseline on raw per-bin count vectors."""

    arch = "rnn"

    def param_specs(self, cfg) -> list:
        return _rnn_specs(self.input_width, cfg)

    def forward(self, prep, starts, training=False, rng=None):
        _check_neurons(self.n_neurons, prep)
        starts = np.asarray(starts)
        w_h = self.params[_rnn_names(0)[0]]
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
    if arch in ("scrnn", "gnn"):
        return ScrnnModel(prep.complex, cfg, arch=arch)
    if arch == "ffnn":
        return FfnnModel(prep.counts.shape[0] * cfg.seq_len, cfg)
    if arch == "rnn":
        return RnnModel(prep.counts.shape[0], cfg)
    raise ValueError(f"unknown architecture {arch!r}")


def scrnn_predict(model: ScrnnModel, prep: PreparedData, start: int) -> np.ndarray:
    """Decode one window of ``seq_len`` consecutive bins starting at
    ``start``; the prediction targets the window's final bin."""
    return model.predict(prep, np.array([start]))[:, 0]


def predictions_to_labels(pred: np.ndarray, prep: PreparedData):
    """Raw (2, n) outputs -> decoded angles (deg) or positions (cm)."""
    if prep.kind == "hd":
        return decode_angles(pred)
    return decode_positions(pred, prep.norm)


def param_values(model) -> dict[str, np.ndarray]:
    return {name: np.array(p.value, copy=True) for name, p in model.params.items()}


def save_checkpoint(dirpath, model, cfg) -> None:
    """Write the complex dump (when present), ``weights.npz`` (one float64
    array per parameter, keyed by name) and a config echo."""
    from .config import write_config

    os.makedirs(dirpath, exist_ok=True)
    if model.complex is not None:
        with open(os.path.join(dirpath, "complex.json"), "w", encoding="utf-8") as fh:
            fh.write(complex_to_json(model.complex))
    # A file handle, since ``np.savez`` appends ``.npz`` to a path lacking it.
    with open(os.path.join(dirpath, "weights.npz"), "wb") as fh:
        np.savez(fh, **{name: p.value for name, p in model.params.items()})
    write_config(cfg, os.path.join(dirpath, "config.txt"))


def _json_params(path, arch):
    """Parameters by name from an older checkpoint's ``weights.json``: one
    entry per SC scalar and per dense matrix cell, scattered per matrix."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if payload["arch"] != arch:
        raise ValueError(
            f"{path} holds a {payload['arch']!r} model but config.txt names {arch!r}"
        )
    params = {
        f"sc.l{e['layer'] - 1}.f{e['filter'] - 1}.k{e['dim']}.{e['term']}": ad.var(e["value"])
        for e in payload["sc"]
    }
    grouped: dict[tuple, list] = {}
    for e in payload["dense"]:
        grouped.setdefault((e["layer"], e["matrix"]), []).append(e)
    heads = dict(zip(("w_out", "b_out"), HEAD))
    for (layer, matrix), cells in grouped.items():
        rows, cols, values = (
            np.fromiter((e[key] for e in cells), dtype, len(cells))
            for key, dtype in (("row", np.int64), ("col", np.int64), ("value", np.float64))
        )
        arr = np.zeros((rows.max() + 1, cols.max() + 1))
        arr[rows, cols] = values
        stack = "fc" if matrix in ("w", "b") else "rnn"
        params[heads.get(matrix, f"{stack}.l{layer}.{matrix}")] = ad.var(arr)
    return params


def load_checkpoint(dirpath):
    """Rebuild (model, cfg) from a checkpoint directory: ``weights.npz``,
    or an older checkpoint's ``weights.json`` when there is no npz."""
    from .config import read_config

    cfg = read_config(os.path.join(dirpath, "config.txt"))
    arch = cfg.arch
    if arch not in ARCHS:
        raise ValueError(f"unknown architecture {arch!r} in checkpoint")
    npz = os.path.join(dirpath, "weights.npz")
    if os.path.exists(npz):
        # Dtypes as stored, for ``_checked_params``; nothing is unpickled.
        try:
            with np.load(npz, allow_pickle=False) as arrays:
                params = {name: ad.Var(arrays[name]) for name in arrays.files}
        except ValueError as exc:
            raise ValueError(f"{npz}: {exc}") from exc
    else:
        params = _json_params(os.path.join(dirpath, "weights.json"), arch)
    first = _fc_names(0)[0] if arch == "ffnn" else _rnn_names(0)[0]
    for name in (*HEAD, first):
        if name not in params or params[name].value.ndim != 2:
            raise ValueError(f"checkpoint has no {name} matrix")

    if arch in ("scrnn", "gnn"):
        with open(os.path.join(dirpath, "complex.json"), "r", encoding="utf-8") as fh:
            complex_ = complex_from_json(fh.read())
        return ScrnnModel(complex_, cfg, arch=arch, params=params), cfg
    model_cls = FfnnModel if arch == "ffnn" else RnnModel
    return model_cls(params[first].value.shape[1], cfg, params), cfg
