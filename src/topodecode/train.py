"""Loss, reverse-mode gradients, Adam updates, the training loop, and a
seeded random hyperparameter search."""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .config import TrainConfig, config_from_dict
from .metrics import ErrorReport, report_grid, report_hd
from .model import PreparedData, build_model, param_values, predictions_to_labels, prepare, set_param_values

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
    """One reverse pass; returns (loss value, gradients keyed like params)."""
    for p in model.params.values():
        p.grad = None
    loss, _ = model.loss_batch(prep, starts, training=training, rng=rng)
    ad.backward(loss)
    grads = {
        name: (np.zeros_like(p.value) if p.grad is None else p.grad)
        for name, p in model.params.items()
    }
    return float(loss.value), grads


def _clip_global_norm(grads: dict, max_norm: float) -> None:
    total = 0.0
    for g in grads.values():
        total += float(np.sum(np.square(g)))
    norm = np.sqrt(total)
    if norm > max_norm:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor


class Adam:
    """Adaptive moment estimation with bias correction."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, params: dict, learning_rate: float):
        self.params = params
        self.lr = learning_rate
        self.t = 0
        self.m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self.v = {name: np.zeros_like(p.value) for name, p in params.items()}

    def step(self, grads: dict) -> None:
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        correct1 = 1.0 - b1 ** self.t
        correct2 = 1.0 - b2 ** self.t
        for name in sorted(self.params):
            g = grads[name]
            self.m[name] = b1 * self.m[name] + (1.0 - b1) * g
            self.v[name] = b2 * self.v[name] + (1.0 - b2) * g * g
            m_hat = self.m[name] / correct1
            v_hat = self.v[name] / correct2
            self.params[name].value = self.params[name].value - self.lr * m_hat / (
                np.sqrt(v_hat) + self.eps
            )


def _validation_loss(model, prep) -> float:
    """Mean squared error of ``model.predict`` on the validation windows."""
    starts = prep.test_starts
    return mse_loss(model.predict(prep, starts), prep.targets[:, starts + model.seq_len - 1])


def train(model, prep: PreparedData, cfg: TrainConfig):
    """Minibatch Adam over the training windows; keeps the weights from the
    best validation epoch. Returns (model, loss curve rows)."""
    rng = np.random.default_rng(cfg.seed)
    optimizer = Adam(model.params, cfg.learning_rate)
    curve = []
    best_val = np.inf
    best_weights = param_values(model)
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
            _clip_global_norm(grads, CLIP_NORM)
            optimizer.step(grads)
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
    set_param_values(model, best_weights)
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
