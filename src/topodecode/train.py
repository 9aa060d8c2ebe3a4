"""Loss, reverse-mode gradients, Adam updates, the training loop, and a
seeded random hyperparameter search."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .config import TrainConfig, config_from_dict
from .metrics import ErrorReport, report_grid, report_hd
from .model import PreparedData, build_model, param_values, predictions_to_labels, prepare

__all__ = [
    "TrainConfig",
    "SearchSpace",
    "TrainingDiverged",
    "mse_loss",
    "backward",
    "Adam",
    "train",
    "evaluate",
    "random_search",
    "default_search_space",
]


CLIP_NORM = 5.0  # largest global gradient norm an update applies


class TrainingDiverged(RuntimeError):
    """Raised when the loss becomes non-finite during training."""


def mse_loss(pred, target) -> float:
    """Mean of squared componentwise differences."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    return float(np.mean(diff * diff))


def backward(model, prep: PreparedData, starts, training=False, rng=None):
    """One reverse pass; returns (loss value, gradients keyed like params).
    The gradients are the parameters' ``.grad`` arrays. A pass clears any
    ``.grad`` left from an earlier one before its forward, and ``train``
    releases them as soon as Adam has used them."""
    for p in model.params.values():
        p.grad = None
    loss, _ = model.loss_batch(prep, starts, training=training, rng=rng)
    ad.backward(loss)
    grads = {
        name: (np.zeros_like(p.value) if p.grad is None else p.grad)
        for name, p in model.params.items()
    }
    return float(loss.value), grads


def _clip_global_norm(grads: dict, max_norm: float) -> float:
    """The factor that scales the gradients' global norm down to
    ``max_norm``, or 1.0 when it is within it."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    norm = np.sqrt(total)
    return max_norm / norm if norm > max_norm else 1.0


class Adam:
    """Adaptive moment estimation with bias correction. The moments of all
    parameters sit in flat buffers in sorted name order, and each step
    updates them and the parameters' values in place through two scratch
    buffers of the same length that live for the step only. ``m[name]``
    and ``v[name]`` are views."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.t = 0
        self._names = sorted(params)
        bounds = np.cumsum([0] + [params[name].value.size for name in self._names])
        self._parts = [slice(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:])]
        self._m, self._v = np.zeros((2, bounds[-1]))
        self.m, self.v = (
            {
                name: flat[part].reshape(params[name].value.shape)
                for name, part in zip(self._names, self._parts)
            }
            for flat in (self._m, self._v)
        )

    def step(self, grads: dict, factor: float = 1.0) -> None:
        """One update from ``grads`` scaled by ``factor`` (the clip factor
        of ``_clip_global_norm``)."""
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        m, v = self._m, self._v
        g = np.concatenate([np.ravel(grads[name]) for name in self._names])
        if factor != 1.0:
            g *= factor
        s = np.empty_like(g)
        # In the order of m = b1 * m + (1 - b1) * g,
        # v = b2 * v + (1 - b2) * g * g and
        # p = p - lr * (m / correct1) / (sqrt(v / correct2) + eps).
        m *= b1
        m += np.multiply(g, 1.0 - b1, out=s)
        v *= b2
        np.multiply(g, 1.0 - b2, out=s)
        v += np.multiply(s, g, out=s)
        np.divide(v, 1.0 - b2 ** self.t, out=g)
        np.sqrt(g, out=g)
        g += self.eps
        np.divide(m, 1.0 - b1 ** self.t, out=s)
        s *= self.lr
        s /= g
        for name, part in zip(self._names, self._parts):
            p = self.params[name].value
            p -= s[part].reshape(p.shape)


def _validation_loss(model, prep) -> float:
    """Mean squared error of ``model.predict`` on the validation windows."""
    starts = prep.test_starts
    return mse_loss(model.predict(prep, starts), prep.targets[:, starts + model.seq_len - 1])


def train(model, prep: PreparedData, cfg: TrainConfig):
    """Minibatch Adam over the training windows; keeps the weights from the
    best validation epoch. Returns (model, loss curve rows). No parameter
    keeps a ``.grad`` once a step is done.

    The first call in a process sets glibc's malloc thresholds for the whole
    process (``autodiff.retain_freed_memory``), so up to 64 MiB of freed
    heap is kept for the next step rather than returned to the OS."""
    ad.retain_freed_memory()
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, cfg.learning_rate)
    curve = []
    best_val, best_weights = np.inf, None
    train_starts = prep.train_starts
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(train_starts))
        epoch_loss, n_batches = 0.0, 0
        for lo in range(0, len(order), cfg.batch_size):
            batch = train_starts[order[lo:lo + cfg.batch_size]]
            loss, grads = backward(model, prep, batch, training=True, rng=rng)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"non-finite loss at epoch {epoch}, batch {n_batches} "
                    f"(lr={cfg.learning_rate})"
                )
            optimizer.step(grads, _clip_global_norm(grads, CLIP_NORM))
            # The step's gradients are freed before the next forward.
            del grads
            for p in model.params.values():
                p.grad = None
            epoch_loss += loss
            n_batches += 1
        val_loss = _validation_loss(model, prep)
        if not np.isfinite(val_loss):
            raise TrainingDiverged(f"non-finite validation loss at epoch {epoch}")
        curve.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / max(n_batches, 1),
                "val_loss": val_loss,
            }
        )
        if val_loss < best_val:
            best_val = val_loss
            best_weights = param_values(model)
    if best_weights is not None:
        # ``param_values`` made these copies; nothing else holds them.
        for name, p in model.params.items():
            p.value = best_weights[name]
    return model, curve


def evaluate(model, prep: PreparedData, split: str = "test") -> ErrorReport:
    """Decode a split and score it with the task's error metrics."""
    starts = prep.starts(split)
    pred = model.predict(prep, starts)
    decoded = predictions_to_labels(pred, prep)
    truth = prep.window_labels(starts)
    if prep.kind == "hd":
        return report_hd(decoded, truth)
    return report_grid(decoded, truth)


@dataclass
class SearchSpace:
    """Per-hyperparameter candidate lists for random search."""

    candidates: dict[str, list] = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.candidates, dict):
            raise ValueError("a search space maps config keys to candidate lists")
        if not self.candidates:
            raise ValueError("empty search space")
        for key, values in self.candidates.items():
            if not isinstance(values, list) or not values:
                raise ValueError(f"no candidate list for {key!r}")

    def sample(self, rng) -> dict:
        return {
            key: values[int(rng.integers(len(values)))]
            for key, values in sorted(self.candidates.items())
        }


# Candidate lists used for tuning each architecture, per task.
_SEARCH_HD = {
    "ffnn": {
        "epochs": [25, 50, 100],
        "batch_size": [8, 16, 32],
        "learning_rate": [0.01, 0.001, 0.0001],
        "dropout": [0.2, 0.3, 0.4],
        "nn_layers": [2, 3, 4],
        "layer_width": [64, 128, 256],
    },
    "rnn": {
        "epochs": [25, 50, 100],
        "batch_size": [8, 16, 32, 64],
        "learning_rate": [0.01, 0.001, 0.0001, 0.00001],
        "dropout": [0.2, 0.3, 0.4],
        "nn_layers": [1, 2, 3],
        "hidden_size": [50, 100, 200],
    },
    "scrnn": {
        "epochs": [50, 100],
        "batch_size": [8, 16, 32, 64],
        "learning_rate": [0.001, 0.0001, 0.00001],
        "dropout": [0.2, 0.3, 0.4],
        "nn_layers": [1, 2, 3],
        "hidden_size": [50, 100, 200],
        "degree": [1, 2],
        "sc_layers": [1, 2, 3, 4],
        "n_filters": [1, 3, 5],
    },
}
_SEARCH_GRID = {
    "ffnn": {
        "epochs": [50, 100],
        "batch_size": [8, 16, 32],
        "learning_rate": [0.001, 0.0001, 0.00001],
        "dropout": [0.2, 0.3, 0.4],
        "nn_layers": [2, 3, 4],
        "layer_width": [128, 256, 512],
    },
    "rnn": {
        "epochs": [25, 50, 100],
        "batch_size": [8, 16, 32, 64],
        "learning_rate": [0.001, 0.0001, 0.00001],
        "dropout": [0.2, 0.3, 0.4, 0.5],
        "nn_layers": [1, 2, 3],
        "hidden_size": [100, 200, 400],
    },
    "scrnn": {
        "epochs": [50, 100],
        "batch_size": [8, 16],
        "learning_rate": [0.001, 0.0001, 0.00001],
        "dropout": [0.2, 0.3, 0.4],
        "nn_layers": [1, 2, 3],
        "hidden_size": [50, 100, 200],
        "degree": [1, 2],
        "sc_layers": [1, 2, 3],
        "n_filters": [1, 3, 5],
    },
}


def default_search_space(arch: str, kind: str) -> SearchSpace:
    table = _SEARCH_HD if kind == "hd" else _SEARCH_GRID
    key = "scrnn" if arch in ("scrnn", "gnn") else arch
    return SearchSpace(candidates=dict(table[key]))


def random_search(
    space: SearchSpace,
    budget: int,
    seed: int,
    dataset,
    base_cfg: TrainConfig,
):
    """Train ``budget`` uniformly sampled configs and rank them by the
    validation metric (AAE for angles, AED for positions). Deterministic
    for a fixed seed. Each trial's config is read like a config file's:
    ``base_cfg`` with seed ``seed + trial``, overridden by the sample."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    rng = np.random.default_rng(seed)
    leaderboard = []
    for trial in range(budget):
        cfg = config_from_dict(
            {**asdict(base_cfg), "seed": seed + trial, **space.sample(rng)}
        )
        prep = prepare(dataset, cfg, arch=cfg.arch)
        model = build_model(cfg.arch, prep, cfg)
        model, _ = train(model, prep, cfg)
        report = evaluate(model, prep, split="test")
        metric = report.aae_deg if prep.kind == "hd" else report.aed_cm
        leaderboard.append({"trial": trial, "metric": metric, "config": cfg})
    leaderboard.sort(key=lambda row: (row["metric"], row["trial"]))
    return leaderboard[0]["config"], leaderboard
