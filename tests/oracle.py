"""Independent plain-array reference forward of the SCRNN, for the tests.

The package computes the simplicial filters and the Elman recurrence once,
as an autodiff graph over a batch's distinct activity patterns. This module
computes the same maps the textbook way: one window and one time bin at a
time, each filter as its polynomial in the Laplacian halves, each layer's
filters applied and summed one by one, and the recurrence one step at a
time. It shares no forward code with the package, so agreement between the
two is evidence that the batched graph computes the paper's operators, and
it stays out of the package because no production path needs a second copy.

``sc_stack`` and ``rnn_stack`` read a model's parameters by name into the
plain dataclasses below.

More references live here for the same reason: ``coactivity_matrix``
in its vertex-count form (a sparse membership matrix times the bits);
``init_params``, a new model's initial weights drawn a filter or a matrix
at a time, where the package draws its parameter table row by row;
``weights_json``, the ``json.dumps`` of the entry dicts that older
checkpoints hold as ``weights.json``, which the package still reads;
``relu_lincomb``, a filter's weighted sum and its ReLU as two steps,
where the package makes them one node; and
the simplicial complex built and indexed one simplex at a time, as tuple
lists with a dict per dimension (``build_simplices``, ``faces``,
``incidence_matrix``, ``complex_to_json``), which the package does in
array operations.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import sparse

from topodecode.complexes import HodgeLaplacian

ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "identity": lambda x: x,
}


def _activation(name):
    try:
        return ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


@dataclass
class SimplicialFilter:
    """One filter at dimension k: weight w0 on the identity plus per-power
    weights on the lower and upper Laplacian halves. ``w_lower`` is empty at
    k=0 and ``w_upper`` is empty at the top dimension."""

    k: int
    degree: int
    w0: float
    w_lower: np.ndarray
    w_upper: np.ndarray


@dataclass
class ScLayer:
    """F filters, each defined on every dimension k = 0..K."""

    filters: list[dict[int, SimplicialFilter]]


@dataclass
class ScLayerStack:
    layers: list[ScLayer]
    activation: str = "relu"


def apply_filter(filt: SimplicialFilter, lap: HodgeLaplacian, x: np.ndarray) -> np.ndarray:
    """Evaluate the filter polynomial on a cochain, no activation; matrix
    powers are applied iteratively to the cochain."""
    if lap.k != filt.k:
        raise ValueError(f"filter dimension {filt.k} != Laplacian dimension {lap.k}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.lower.shape[0]:
        raise ValueError(f"cochain has {x.shape[0]} rows, expected {lap.lower.shape[0]}")
    out = filt.w0 * x
    for half, weights in ((lap.lower, filt.w_lower), (lap.upper, filt.w_upper)):
        power = x
        for w in weights:
            power = half @ power
            out = out + w * power
    return out


def sc_forward_first(layer: ScLayer, laps, cochains, activation="relu"):
    """First layer: each filter maps the input cochain of its dimension to
    one feature, giving F features per dimension."""
    act = _activation(activation)
    return [
        {k: act(apply_filter(filters[k], laps[k], cochains[k])) for k in filters}
        for filters in layer.filters
    ]


def sc_forward_intermediate(layer: ScLayer, laps, features, activation="relu"):
    """Intermediate layer: all F filters are applied to each incoming
    feature and summed, keeping exactly F features per dimension."""
    act = _activation(activation)
    out = []
    for feat in features:
        combined = {}
        for k in feat:
            acc = apply_filter(layer.filters[0][k], laps[k], feat[k])
            for filters in layer.filters[1:]:
                acc = acc + apply_filter(filters[k], laps[k], feat[k])
            combined[k] = act(acc)
        out.append(combined)
    return out


def _sum_features(feats, n_col):
    """Sum the F features per dimension; with n_col > 1 the dimension-0
    output is additionally summed across its columns."""
    out = {}
    for k in feats[0]:
        acc = feats[0][k]
        for feat in feats[1:]:
            acc = acc + feat[k]
        if k == 0 and n_col > 1:
            acc = acc.sum(axis=1, keepdims=True)
        out[k] = acc
    return out


def sc_forward_final(layer: ScLayer, laps, features, n_col=1, activation="relu"):
    """Final layer: intermediate dynamics followed by summing the F features
    per dimension."""
    return _sum_features(sc_forward_intermediate(layer, laps, features, activation), n_col)


def sc_stack_forward(stack: ScLayerStack, laps, cochains, n_col=1):
    """Run the full stack: first layer, intermediates, final summation. A
    one-layer stack sums the first layer's features."""
    act = stack.activation
    feats = sc_forward_first(stack.layers[0], laps, cochains, act)
    for layer in stack.layers[1:]:
        feats = sc_forward_intermediate(layer, laps, feats, act)
    return _sum_features(feats, n_col)


def flatten(outputs: dict[int, np.ndarray]) -> np.ndarray:
    """Concatenate the per-dimension outputs in ascending dimension order."""
    return np.concatenate([np.asarray(outputs[k]).reshape(-1) for k in sorted(outputs)])


def param_count(F: int, D: int, K: int, L: int) -> int:
    """Closed-form number of scalar weights in an L-layer, F-filter stack
    over dimensions 0..K: the boundary dimensions carry D+1 weights per
    filter, the others 2D+1."""
    if min(F, D, K, L) < 1:
        raise ValueError("F, D, K, L must all be >= 1")
    return F * (2 * (D + 1) + (K - 1) * (2 * D + 1)) * L


@dataclass
class ElmanLayer:
    """One recurrent cell: h_t = act(w_h z_t + b_h + w_c h_{t-1} + b_c)."""

    w_h: np.ndarray
    w_c: np.ndarray
    b_h: np.ndarray
    b_c: np.ndarray
    activation: str = "tanh"


@dataclass
class RnnStack:
    """Stacked Elman layers with a linear-plus-activation readout."""

    layers: list[ElmanLayer]
    w_out: np.ndarray
    b_out: np.ndarray
    out_activation: str = "identity"


def cell_step(layer: ElmanLayer, z_t: np.ndarray, h_prev: np.ndarray) -> np.ndarray:
    """Advance one hidden state. Start sequences from h_prev = 0."""
    z_t = np.asarray(z_t, dtype=np.float64)
    h_prev = np.asarray(h_prev, dtype=np.float64)
    if z_t.shape[0] != layer.w_h.shape[1]:
        raise ValueError(f"input size {z_t.shape[0]} != {layer.w_h.shape[1]}")
    if h_prev.shape[0] != layer.w_c.shape[0]:
        raise ValueError(f"hidden size {h_prev.shape[0]} != {layer.w_c.shape[0]}")
    act = _activation(layer.activation)
    return act(layer.w_h @ z_t + layer.b_h + layer.w_c @ h_prev + layer.b_c)


def rnn_forward(stack: RnnStack, sequence) -> np.ndarray:
    """Run the stack over a sequence of input vectors and read out from the
    top layer's final hidden state."""
    inputs = [np.asarray(z, dtype=np.float64) for z in sequence]
    if not inputs:
        raise ValueError("empty input sequence")
    lengths = {z.shape[0] for z in inputs}
    if len(lengths) != 1:
        raise ValueError(f"inconsistent vector lengths in sequence: {lengths}")
    for layer in stack.layers:
        h = np.zeros(layer.w_c.shape[0])
        outputs = []
        for z_t in inputs:
            h = cell_step(layer, z_t, h)
            outputs.append(h)
        inputs = outputs
    return _activation(stack.out_activation)(stack.w_out @ h + stack.b_out)


def vertex_membership(S, k: int) -> sparse.csr_matrix:
    """0/1 matrix (N_k x n_vertices) marking which neurons span each simplex."""
    simplices = S.simplices.get(k, [])
    rows = np.repeat(np.arange(len(simplices)), k + 1)
    cols = np.fromiter((v for s in simplices for v in s), dtype=np.int64)
    return sparse.csr_matrix(
        (np.ones(len(cols), dtype=np.int64), (rows, cols)),
        shape=(len(simplices), S.n_vertices),
    )


def coactivity_matrix(S, bits, k: int) -> np.ndarray:
    """The co-activity indicator as a vertex count: a k-simplex is active in
    a bin where all k + 1 of its vertices have bit 1."""
    return (vertex_membership(S, k) @ bits == (k + 1)).astype(np.int8)


def build_simplices(bits, k_max: int) -> dict[int, list[tuple[int, ...]]]:
    """Per dimension k >= 1 with simplices, the sorted tuples of the
    complex ``build_complex`` makes, found one column at a time."""
    bits = np.asarray(bits)
    found: dict[int, set] = {k: set() for k in range(1, k_max + 1)}
    for j in range(bits.shape[1]):
        active = [int(v) for v in np.flatnonzero(bits[:, j])]
        for size in range(2, min(len(active), k_max + 1) + 1):
            found[size - 1].update(combinations(active, size))
    return {k: sorted(v) for k, v in found.items() if v}


def _tuples(S, k):
    return [tuple(s) for s in S.simplices[k].tolist()]


def faces(S, k: int) -> np.ndarray:
    """``faces[k]`` by tuple lookup: the row of each face (vertex j
    removed) of each k-simplex in a dict of the (k-1)-simplices."""
    index = {s: i for i, s in enumerate(_tuples(S, k - 1))}
    rows = [[index[s[:j] + s[j + 1:]] for j in range(k + 1)] for s in _tuples(S, k)]
    return np.array(rows, dtype=np.intp).reshape(-1, k + 1)


def incidence_matrix(S, k: int) -> sparse.csc_matrix:
    """B_k for k >= 1 from per-simplex triples, simplex by simplex and
    face j ascending."""
    index = {s: i for i, s in enumerate(_tuples(S, k - 1))}
    rows, cols, vals = [], [], []
    for col, simplex in enumerate(_tuples(S, k)):
        for j in range(len(simplex)):
            rows.append(index[simplex[:j] + simplex[j + 1:]])
            cols.append(col)
            vals.append((-1) ** j)
    return sparse.csc_matrix(
        (vals, (rows, cols)),
        shape=(S.n_simplices(k - 1), S.n_simplices(k)),
        dtype=np.int64,
    )


def complex_to_json(S) -> str:
    """The ``complex.json`` text from tuple lists."""
    payload = {
        "n_vertices": S.n_vertices,
        "simplices": {str(k): [list(s) for s in _tuples(S, k)] for k in range(1, S.dim + 1)},
    }
    return json.dumps(payload)


@dataclass
class Cochain:
    """Feature matrix over the k-simplices of one time bin (N_k x f)."""

    k: int
    values: np.ndarray


def cochain_from_bin(S, count_matrix, bin_matrix, j: int, n_col: int) -> list[Cochain]:
    """Initial per-dimension features for the window anchored at bin j.

    Dimension 0 carries the raw spike counts of columns ``j .. j+n_col-1``;
    higher dimensions carry a binary co-activity indicator evaluated on
    column j of the binarized matrix.
    """
    counts = np.asarray(getattr(count_matrix, "counts", count_matrix))
    bits = np.asarray(getattr(bin_matrix, "bits", bin_matrix))
    n_bins = counts.shape[1]
    if n_col < 1:
        raise ValueError("n_col must be >= 1")
    if j < 0 or j + n_col > n_bins:
        raise ValueError(f"bin range [{j}, {j + n_col}) outside of {n_bins} bins")
    out = [Cochain(k=0, values=counts[:, j:j + n_col].astype(np.float64))]
    column = bits[:, j]
    for k in range(1, S.dim + 1):
        indicator = (vertex_membership(S, k) @ column == (k + 1)).astype(np.float64)
        out.append(Cochain(k=k, values=indicator.reshape(-1, 1)))
    return out


def _scalars(params, base, term, n):
    return np.array([float(params[f"{base}.{term}{i}"].value) for i in range(1, n + 1)])


def sc_stack(model) -> ScLayerStack:
    """The simplicial filters of an ``ScrnnModel``, read by parameter name."""
    params, degree, top = model.params, model.degree, model.complex.dim
    layers = []
    for li in range(model.sc_layers):
        filters = []
        for fi in range(model.n_filters):
            per_dim = {}
            for k in range(top + 1):
                base = f"sc.l{li}.f{fi}.k{k}"
                per_dim[k] = SimplicialFilter(
                    k=k,
                    degree=degree,
                    w0=float(params[f"{base}.w0"].value),
                    w_lower=_scalars(params, base, "low", degree if k >= 1 else 0),
                    w_upper=_scalars(params, base, "up", degree if k < top else 0),
                )
            filters.append(per_dim)
        layers.append(ScLayer(filters=filters))
    return ScLayerStack(layers=layers)


def rnn_stack(model) -> RnnStack:
    """The Elman stack and head of a model, read by parameter name."""
    params = model.params
    layers = [
        ElmanLayer(
            w_h=params[f"rnn.l{j}.w_h"].value,
            w_c=params[f"rnn.l{j}.w_c"].value,
            b_h=params[f"rnn.l{j}.b_h"].value.reshape(-1),
            b_c=params[f"rnn.l{j}.b_c"].value.reshape(-1),
        )
        for j in range(model.nn_layers)
    ]
    return RnnStack(
        layers=layers,
        w_out=params["head.w"].value,
        b_out=params["head.b"].value.reshape(-1),
    )


def weight_entries(model):
    """``weights.json``'s entry dicts: one per SC scalar, one per dense
    matrix cell, in sorted parameter order."""
    sc_entries, dense_entries = [], []
    for name in sorted(model.params):
        value = model.params[name].value
        if name.startswith("sc."):
            li, fi, kk, term = name.split(".")[1:]
            sc_entries.append(
                {
                    "layer": int(li[1:]) + 1,
                    "filter": int(fi[1:]) + 1,
                    "dim": int(kk[1:]),
                    "term": term,
                    "value": float(value),
                }
            )
        else:
            if name.startswith("rnn.") or name.startswith("fc."):
                layer = int(name.split(".")[1][1:])
                matrix = name.split(".")[2]
            else:  # head
                layer = model.nn_layers
                matrix = "w_out" if name.endswith("w") else "b_out"
            rows, cols = value.shape
            for r in range(rows):
                for c in range(cols):
                    dense_entries.append(
                        {
                            "layer": layer,
                            "matrix": matrix,
                            "row": r,
                            "col": c,
                            "value": float(value[r, c]),
                        }
                    )
    return sc_entries, dense_entries


def weights_json(model) -> str:
    """An older checkpoint's ``weights.json`` for ``model``: ``json.dumps``
    of the entry dicts."""
    sc_entries, dense_entries = weight_entries(model)
    payload = {"arch": model.arch, "sc": sc_entries, "dense": dense_entries}
    return json.dumps(payload, separators=(",", ":"))


def _rnn_init(input_width, cfg, rng) -> dict:
    hidden = cfg.hidden_size
    bound_h = 1.0 / np.sqrt(hidden)
    params = {}
    in_dim = input_width
    for j in range(cfg.nn_layers):
        bound_in = 1.0 / np.sqrt(in_dim)
        params[f"rnn.l{j}.w_h"] = rng.uniform(-bound_in, bound_in, (hidden, in_dim))
        params[f"rnn.l{j}.w_c"] = rng.uniform(-bound_h, bound_h, (hidden, hidden))
        params[f"rnn.l{j}.b_h"] = rng.uniform(-bound_h, bound_h, (hidden, 1))
        params[f"rnn.l{j}.b_c"] = rng.uniform(-bound_h, bound_h, (hidden, 1))
        in_dim = hidden
    params["head.w"] = rng.uniform(-bound_h, bound_h, (2, hidden))
    params["head.b"] = rng.uniform(-bound_h, bound_h, (2, 1))
    return params


def _ffnn_init(input_width, cfg, rng) -> dict:
    params = {}
    in_dim = input_width
    for j in range(cfg.nn_layers):
        bound = 1.0 / np.sqrt(in_dim)
        params[f"fc.l{j}.w"] = rng.uniform(-bound, bound, (cfg.layer_width, in_dim))
        params[f"fc.l{j}.b"] = np.zeros((cfg.layer_width, 1))
        in_dim = cfg.layer_width
    bound = 1.0 / np.sqrt(in_dim)
    params["head.w"] = rng.uniform(-bound, bound, (2, in_dim))
    params["head.b"] = np.zeros((2, 1))
    return params


def init_params(model, cfg) -> dict:
    """The initial weights of a new ``model`` by name, in draw order, from
    one generator seeded with ``cfg.seed``: per filter and dimension one
    draw of all its scalars, uniform within +-1/sqrt(their count); then per
    matrix one draw, uniform within +-1/sqrt(fan-in) for the input matrices
    and +-1/sqrt(H) for the rest of the Elman stack and head. The FFNN's
    biases are zeros and draw nothing."""
    rng = np.random.default_rng(cfg.seed)
    if model.arch == "ffnn":
        return _ffnn_init(model.input_width, cfg, rng)
    if model.arch == "rnn":
        return _rnn_init(model.input_width, cfg, rng)
    params = {}
    top = model.complex.dim
    for li in range(cfg.sc_layers):
        for fi in range(cfg.n_filters):
            for k in range(top + 1):
                base = f"sc.l{li}.f{fi}.k{k}"
                names = [f"{base}.w0"]
                if k >= 1:
                    names += [f"{base}.low{i}" for i in range(1, cfg.degree + 1)]
                if k < top:
                    names += [f"{base}.up{i}" for i in range(1, cfg.degree + 1)]
                bound = 1.0 / np.sqrt(len(names))
                params.update(zip(names, rng.uniform(-bound, bound, size=len(names))))
    params.update(_rnn_init(model.input_width, cfg, rng))
    return params


def relu_lincomb(weights, terms, g):
    """ReLU of ``sum(weights[i] * terms[i])`` and its gradients as two
    nodes compute them: a weighted sum added in term order, then a ReLU
    whose VJP masks ``g`` by the sum being > 0.0. Returns the value, the
    weight gradients (``np.vdot`` of each term with the masked ``g``) and
    each term's gradient (its weight times the masked ``g``)."""
    pre = weights[0] * terms[0]
    for w, t in zip(weights[1:], terms[1:]):
        pre += w * t
    g_pre = g * (pre > 0.0)
    return (
        np.maximum(pre, 0.0),
        [np.vdot(t, g_pre) for t in terms],
        [w * g_pre for w in weights],
    )
