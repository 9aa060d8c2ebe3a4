"""Angular and positional decoding error metrics."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

__all__ = ["rescale", "mae", "aae", "aed", "ErrorReport", "report_hd", "report_grid"]


def rescale(delta):
    """Shortest-arc magnitude of an angular difference, in [0, 180] degrees."""
    d = np.abs(np.remainder(np.asarray(delta, dtype=np.float64), 360.0))
    return np.minimum(d, 360.0 - d)


def _angular_errors(decoded, true):
    decoded = np.asarray(decoded, dtype=np.float64)
    true = np.asarray(true, dtype=np.float64)
    if decoded.shape != true.shape:
        raise ValueError(f"length mismatch: {decoded.shape} vs {true.shape}")
    if decoded.size == 0:
        raise ValueError("empty series")
    return rescale(decoded - true)


def mae(decoded, true) -> float:
    """Median of ring-rescaled absolute errors; even length averages the
    middle two."""
    return float(np.median(_angular_errors(decoded, true)))


def aae(decoded, true) -> float:
    """Mean of ring-rescaled absolute errors."""
    return float(np.mean(_angular_errors(decoded, true)))


def aed(decoded_xy, true_xy) -> float:
    """Mean per-bin Euclidean distance between trajectories, in cm."""
    return report_grid(decoded_xy, true_xy).aed_cm


@dataclass
class ErrorReport:
    """Per-bin errors plus the summary statistic for one evaluation."""

    kind: str
    errors: np.ndarray
    n_bins: int
    mae_deg: float | None = None
    aae_deg: float | None = None
    aed_cm: float | None = None
    per_bin: dict = field(default_factory=dict)

    def summary(self) -> dict:
        if self.kind == "hd":
            return {"mae_deg": self.mae_deg, "aae_deg": self.aae_deg, "n_bins": self.n_bins}
        return {"aed_cm": self.aed_cm, "n_bins": self.n_bins}

    def to_json(self) -> str:
        return json.dumps(self.summary())

    def to_csv(self, path) -> None:
        """Per-bin rows followed by a summary footer."""
        cols = sorted(self.per_bin)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("bin," + ",".join(cols) + ",error\n")
            for i, err in enumerate(self.errors):
                row = ",".join(f"{self.per_bin[c][i]:.6f}" for c in cols)
                fh.write(f"{i},{row},{err:.6f}\n")
            for key, value in self.summary().items():
                fh.write(f"# {key},{value}\n")


def report_hd(decoded_deg, true_deg) -> ErrorReport:
    errors = _angular_errors(decoded_deg, true_deg)
    return ErrorReport(
        kind="hd",
        errors=errors,
        n_bins=errors.size,
        mae_deg=float(np.median(errors)),
        aae_deg=float(np.mean(errors)),
        per_bin={
            "true_deg": np.asarray(true_deg, dtype=np.float64),
            "decoded_deg": np.asarray(decoded_deg, dtype=np.float64),
        },
    )


def report_grid(decoded_xy, true_xy) -> ErrorReport:
    decoded_xy = np.asarray(decoded_xy, dtype=np.float64)
    true_xy = np.asarray(true_xy, dtype=np.float64)
    if decoded_xy.shape != true_xy.shape:
        raise ValueError(f"shape mismatch: {decoded_xy.shape} vs {true_xy.shape}")
    if decoded_xy.size == 0:
        raise ValueError("empty series")
    errors = np.linalg.norm(decoded_xy - true_xy, axis=-1)
    return ErrorReport(
        kind="grid",
        errors=errors,
        n_bins=errors.size,
        aed_cm=float(np.mean(errors)),
        per_bin={
            "true_x": true_xy[:, 0],
            "true_y": true_xy[:, 1],
            "decoded_x": decoded_xy[:, 0],
            "decoded_y": decoded_xy[:, 1],
        },
    )
