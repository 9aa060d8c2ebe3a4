"""Scalar-weight simplicial filters and the convolutional layer dynamics.

A degree-D filter at dimension k is a polynomial in the lower and upper
Laplacian halves with one scalar weight per term. At the boundary
dimensions one half vanishes (B_0 = 0 below, no cofaces above the top), so
those filters carry D+1 weights instead of 2D+1; a stack of L layers with F
filters per dimension therefore holds exactly
``F * (2*(D+1) + (K-1)*(2*D+1)) * L`` scalars.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .complexes import HodgeLaplacian, SimplicialComplex, hodge_laplacian

__all__ = [
    "SimplicialFilter",
    "ScLayer",
    "ScLayerStack",
    "apply_filter",
    "sc_forward_first",
    "sc_forward_intermediate",
    "sc_forward_final",
    "sc_stack_forward",
    "flatten",
    "param_count",
    "build_sc_stack",
    "count_weights",
]

_PLAIN_ACTIVATIONS = {
    "relu": lambda x: np.maximum(x, 0.0),
    "tanh": np.tanh,
    "identity": lambda x: x,
}


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

    def n_weights(self) -> int:
        return 1 + len(self.w_lower) + len(self.w_upper)

    def weights(self) -> list[float]:
        return [self.w0, *self.w_lower.tolist(), *self.w_upper.tolist()]


@dataclass
class ScLayer:
    """F filters, each defined on every dimension k = 0..K."""

    filters: list[dict[int, SimplicialFilter]]

    @property
    def n_filters(self) -> int:
        return len(self.filters)


@dataclass
class ScLayerStack:
    layers: list[ScLayer]
    activation: str = "relu"

    @property
    def n_layers(self) -> int:
        return len(self.layers)

    @property
    def n_filters(self) -> int:
        return self.layers[0].n_filters


def apply_filter(filt: SimplicialFilter, lap: HodgeLaplacian, x: np.ndarray) -> np.ndarray:
    """Evaluate the filter polynomial on a cochain, no activation.

    Matrix powers are applied iteratively to the cochain so the Laplacian
    powers are never materialized.
    """
    if lap.k != filt.k:
        raise ValueError(f"filter dimension {filt.k} != Laplacian dimension {lap.k}")
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != lap.full.shape[0]:
        raise ValueError(
            f"cochain has {x.shape[0]} rows, expected {lap.full.shape[0]}"
        )
    out = filt.w0 * x
    power = x
    for w in filt.w_lower:
        power = lap.lower @ power
        out = out + w * power
    power = x
    for w in filt.w_upper:
        power = lap.upper @ power
        out = out + w * power
    return out


def _activation(name):
    try:
        return _PLAIN_ACTIVATIONS[name]
    except KeyError:
        raise ValueError(f"unknown activation {name!r}") from None


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
    per dimension; with n_col > 1 the dimension-0 output is additionally
    summed across its columns."""
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
    return np.concatenate(
        [np.asarray(outputs[k]).reshape(-1) for k in sorted(outputs)]
    )


def param_count(F: int, D: int, K: int, L: int) -> int:
    """Closed-form number of scalar weights in an L-layer, F-filter stack."""
    if min(F, D, K, L) < 1:
        raise ValueError("F, D, K, L must all be >= 1")
    return F * (2 * (D + 1) + (K - 1) * (2 * D + 1)) * L


def count_weights(stack: ScLayerStack) -> int:
    """Exhaustive enumeration of stored scalar weights."""
    return sum(
        filt.n_weights()
        for layer in stack.layers
        for filters in layer.filters
        for filt in filters.values()
    )


def _init_filter(k: int, top_dim: int, degree: int, rng) -> SimplicialFilter:
    n_lower = 0 if k == 0 else degree
    n_upper = 0 if k == top_dim else degree
    fan = 1 + n_lower + n_upper
    bound = 1.0 / np.sqrt(fan)
    draw = rng.uniform(-bound, bound, size=fan)
    return SimplicialFilter(
        k=k,
        degree=degree,
        w0=float(draw[0]),
        w_lower=draw[1:1 + n_lower].copy(),
        w_upper=draw[1 + n_lower:].copy(),
    )


def build_sc_stack(
    n_filters: int,
    degree: int,
    top_dim: int,
    n_layers: int,
    rng=None,
    activation: str = "relu",
) -> ScLayerStack:
    """Construct a stack with seeded uniform weights scaled by 1/sqrt(fan)."""
    if rng is None:
        rng = np.random.default_rng(0)
    layers = []
    for _ in range(n_layers):
        filters = [
            {k: _init_filter(k, top_dim, degree, rng) for k in range(top_dim + 1)}
            for _ in range(n_filters)
        ]
        layers.append(ScLayer(filters=filters))
    return ScLayerStack(layers=layers, activation=activation)


def complex_laplacians(S: SimplicialComplex) -> dict[int, HodgeLaplacian]:
    """All Hodge Laplacians of a complex, keyed by dimension."""
    return {k: hodge_laplacian(S, k) for k in range(S.dim + 1)}
