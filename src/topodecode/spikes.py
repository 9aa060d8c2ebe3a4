"""Spike-train ingestion, time binning, row-wise binarization, label binning.

File formats
------------
Spike file: one record per line, ``neuron_id,spike_time_s`` with a
non-negative integer id and decimal seconds, in any order. Label file:
``time_s,angle_deg`` for head-direction data or ``time_s,x_cm,y_cm`` for
position data. Fields are comma-separated, with optional whitespace around
them, and each one must parse as a Python ``float``. Only line 1 may be a
header: it is skipped when none of its fields is a number. Blank and
whitespace-only lines are skipped anywhere. There are no comment lines: a
line starting with ``#`` is malformed.
"""

from __future__ import annotations

import os
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SpikeFileError",
    "ValidationError",
    "SpikeDataset",
    "SpikeCountMatrix",
    "BinaryMatrix",
    "LabelSeries",
    "load_spike_dataset",
    "save_spike_dataset",
    "bin_spikes",
    "binarize_rows",
    "bin_labels",
]


class SpikeFileError(ValueError):
    """Raised when a spike or label file cannot be parsed."""


class ValidationError(ValueError):
    """Raised when parsed data violates a dataset invariant."""


@dataclass
class SpikeDataset:
    """Per-neuron spike times plus a time-stamped ground-truth label stream.

    ``labels`` is a 1-D array of angles in degrees (``kind='hd'``) or an
    ``(n, 2)`` array of xy positions in centimeters (``kind='grid'``), sampled
    at ``label_times``.
    """

    neurons: list[np.ndarray]
    label_times: np.ndarray
    labels: np.ndarray
    kind: str
    t_start: float = 0.0
    t_end: float = 0.0

    def __post_init__(self):
        if self.kind not in ("hd", "grid"):
            raise ValidationError(f"unknown dataset kind: {self.kind!r}")
        if self.label_times.size == 0:
            raise ValidationError("empty label stream")
        if np.any(np.diff(self.label_times) < 0):
            raise ValidationError("label timestamps not sorted ascending")
        for i, times in enumerate(self.neurons):
            if times.size and (times[0] < self.t_start or times[-1] > self.t_end):
                raise ValidationError(
                    f"neuron {i} has spikes outside [{self.t_start}, {self.t_end}]"
                )
            if np.any(np.diff(times) < 0):
                raise ValidationError(f"neuron {i} spike times not sorted ascending")
        if self.kind == "hd":
            self.labels = np.remainder(self.labels, 360.0)

    @property
    def n_neurons(self) -> int:
        return len(self.neurons)

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


@dataclass
class SpikeCountMatrix:
    """Neurons x time-bins spike counts over half-open bins of width t_bin.

    ``discarded`` counts spikes falling in the trailing partial bin (or
    exactly at ``t_end``), which is dropped.
    """

    counts: np.ndarray
    t_bin: float
    t_start: float
    discarded: int = 0

    @property
    def n_bins(self) -> int:
        return self.counts.shape[1]


@dataclass
class BinaryMatrix:
    """Row-wise binarized spike count matrix; p is the retained-mass fraction."""

    bits: np.ndarray
    p: float


@dataclass
class LabelSeries:
    """One ground-truth label per time bin: angle (deg) or xy (cm)."""

    kind: str
    values: np.ndarray

    @property
    def n_bins(self) -> int:
        return self.values.shape[0]


def _split_fields(line: str):
    return [f.strip() for f in line.split(",")]


def _is_header(fields) -> bool:
    """True when no field parses as a number."""
    for f in fields:
        try:
            float(f)
        except ValueError:
            continue
        return False
    return True


def _read_rows(path, n_fields, label):
    """The line parser: every accepted quirk and every error message."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = _split_fields(line)
            if lineno == 1 and _is_header(fields):
                continue
            if len(fields) != n_fields:
                raise SpikeFileError(
                    f"{label} file {path}: line {lineno} has {len(fields)} "
                    f"fields, expected {n_fields}"
                )
            try:
                rows.append([float(f) for f in fields])
            except ValueError as exc:
                raise SpikeFileError(
                    f"{label} file {path}: malformed line {lineno}: {line!r}"
                ) from exc
    return np.asarray(rows, dtype=np.float64).reshape(-1, n_fields)


def _read_table(path, n_fields, label):
    """The file's records as a float64 array of shape (n, n_fields).

    ``np.loadtxt`` parses a well-formed file in one pass, with the same
    float conversion as ``float()``. A file it rejects, warns about or
    reads with another column count (a whitespace-only line, ``1_0``, no
    records, a malformed line) goes through ``_read_rows``, whose line by
    line parse decides what the format accepts and words every error.
    """
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
    header = bool(first) and _is_header(_split_fields(first))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            table = np.loadtxt(
                path, delimiter=",", comments=None, skiprows=int(header),
                ndmin=2, encoding="utf-8",
            )
    except (ValueError, Warning):
        return _read_rows(path, n_fields, label)
    if table.shape[1] != n_fields:
        return _read_rows(path, n_fields, label)
    return table


def load_spike_dataset(path, kind: str) -> SpikeDataset:
    """Load a dataset from ``spikes.csv``/``labels.csv``.

    ``path`` is either a directory containing both files or the spike file
    itself (labels are then taken from ``labels.csv`` next to it). ``kind``
    is ``'hd'``, ``'grid'``, or ``'auto'`` to infer from the label columns.
    """
    if os.path.isdir(path):
        spike_path = os.path.join(path, "spikes.csv")
        label_path = os.path.join(path, "labels.csv")
    else:
        spike_path = path
        label_path = os.path.join(os.path.dirname(path) or ".", "labels.csv")
    if not os.path.exists(spike_path):
        raise SpikeFileError(f"spike file not found: {spike_path}")
    if not os.path.exists(label_path):
        raise SpikeFileError(f"label file not found: {label_path}")

    with open(label_path, "r", encoding="utf-8") as fh:
        first = ""
        for line in fh:
            if line.strip():
                first = line.strip()
                break
    n_label_fields = len(_split_fields(first)) if first else 0
    if n_label_fields not in (2, 3):
        raise SpikeFileError(
            f"label file {label_path}: expected 2 or 3 columns, got {n_label_fields}"
        )
    inferred = "hd" if n_label_fields == 2 else "grid"
    if kind == "auto":
        kind = inferred
    elif kind != inferred:
        raise ValidationError(
            f"label file has {n_label_fields} columns which is {inferred!r} "
            f"data, but kind={kind!r} was requested"
        )

    label_rows = _read_table(label_path, n_label_fields, "label")
    spike_rows = _read_table(spike_path, 2, "spike")

    label_times = label_rows[:, 0]
    labels = label_rows[:, 1] if kind == "hd" else label_rows[:, 1:3]

    t_end = float(label_times[-1]) if label_times.size else 0.0
    if spike_rows.size:
        ids, times = spike_rows[:, 0], spike_rows[:, 1]
        if np.any(ids < 0) or np.any(ids != np.round(ids)):
            raise SpikeFileError(f"spike file {spike_path}: non-integer neuron id")
        if np.any(times < 0):
            raise ValidationError("spike time before t_start=0")
        t_end = max(t_end, float(times.max()))
        # A stable sort by id keeps each neuron's spikes in file order.
        ids = ids.astype(np.int64)
        order = np.argsort(ids, kind="stable")
        neurons = np.split(times[order], np.cumsum(np.bincount(ids))[:-1])
    else:
        neurons = []
    return SpikeDataset(
        neurons=neurons,
        label_times=label_times,
        labels=labels,
        kind=kind,
        t_start=0.0,
        t_end=t_end,
    )


def save_spike_dataset(dataset: SpikeDataset, out_dir) -> tuple[str, str]:
    """Write ``spikes.csv`` and ``labels.csv``; returns the two paths."""
    os.makedirs(out_dir, exist_ok=True)
    spike_path = os.path.join(out_dir, "spikes.csv")
    label_path = os.path.join(out_dir, "labels.csv")
    with open(spike_path, "w", encoding="utf-8") as fh:
        fh.write("neuron_id,spike_time_s\n")
        for i, times in enumerate(dataset.neurons):
            for t in times:
                fh.write(f"{i},{t:.6f}\n")
    with open(label_path, "w", encoding="utf-8") as fh:
        if dataset.kind == "hd":
            fh.write("time_s,angle_deg\n")
            for t, a in zip(dataset.label_times, dataset.labels):
                fh.write(f"{t:.6f},{a:.6f}\n")
        else:
            fh.write("time_s,x_cm,y_cm\n")
            for t, (x, y) in zip(dataset.label_times, dataset.labels):
                fh.write(f"{t:.6f},{x:.6f},{y:.6f}\n")
    return spike_path, label_path


def _bin_index(times: np.ndarray, t_start: float, t_bin: float) -> np.ndarray:
    # Half-open bins [left, right): bin j covers t_start + [j, j+1) * t_bin.
    return np.floor((times - t_start) / t_bin).astype(np.int64)


def bin_spikes(dataset: SpikeDataset, t_bin: float) -> SpikeCountMatrix:
    """Count each neuron's spikes in half-open bins of width ``t_bin``.

    The trailing partial bin is discarded; discarded spikes are tallied on
    the returned matrix.
    """
    if t_bin <= 0:
        raise ValueError(f"t_bin must be positive, got {t_bin}")
    n_bins = int(np.floor(dataset.duration / t_bin))
    if n_bins < 1:
        raise ValueError("recording shorter than a single bin")
    counts = np.zeros((dataset.n_neurons, n_bins), dtype=np.int64)
    discarded = 0
    for i, times in enumerate(dataset.neurons):
        if times.size == 0:
            continue
        idx = _bin_index(times, dataset.t_start, t_bin)
        keep = idx < n_bins
        discarded += int(np.sum(~keep))
        counts[i] = np.bincount(idx[keep], minlength=n_bins)
    return SpikeCountMatrix(
        counts=counts, t_bin=t_bin, t_start=dataset.t_start, discarded=discarded
    )


def binarize_rows(matrix: SpikeCountMatrix, p: float) -> BinaryMatrix:
    """Keep, per row, the minimal set of largest-count bins holding at least
    a fraction ``p`` of the row total; those bins become 1, the rest 0.

    Ties are resolved rank-first: equal counts are taken in ascending bin
    order, so the selection is deterministic and invariant under positive
    row scaling. Rows with zero total stay all zero.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError(f"p must be in (0, 1], got {p}")
    counts = matrix.counts
    bits = np.zeros_like(counts, dtype=np.int8)
    for i in range(counts.shape[0]):
        row = counts[i]
        total = int(row.sum())
        if total == 0:
            continue
        order = np.argsort(-row, kind="stable")
        cum = np.cumsum(row[order])
        m_star = int(np.searchsorted(cum, p * total, side="left")) + 1
        bits[i, order[:m_star]] = 1
    return BinaryMatrix(bits=bits, p=p)


def _wrap_degrees(delta):
    """Map angular differences to the half-open interval [-180, 180)."""
    return np.remainder(np.asarray(delta, dtype=np.float64) + 180.0, 360.0) - 180.0


def _interp_angles(anchor_idx, anchor_deg, n_bins):
    # Unwrap anchors onto the line so np.interp follows the shortest arc.
    unwrapped = np.concatenate(
        [[anchor_deg[0]], anchor_deg[0] + np.cumsum(_wrap_degrees(np.diff(anchor_deg)))]
    )
    filled = np.interp(np.arange(n_bins), anchor_idx, unwrapped)
    return np.remainder(filled, 360.0)


def bin_labels(dataset: SpikeDataset, t_bin: float) -> LabelSeries:
    """Aggregate the label stream per bin: circular mean for angles,
    arithmetic mean for positions. Bins without samples are filled by
    shortest-arc (angles) or linear (positions) interpolation between the
    nearest populated bins; leading/trailing gaps take the nearest value.
    """
    if t_bin <= 0:
        raise ValueError(f"t_bin must be positive, got {t_bin}")
    if dataset.label_times.size == 0:
        raise ValidationError("empty label stream")
    n_bins = int(np.floor(dataset.duration / t_bin))
    idx = _bin_index(dataset.label_times, dataset.t_start, t_bin)
    keep = (idx >= 0) & (idx < n_bins)
    idx = idx[keep]
    per_bin_n = np.bincount(idx, minlength=n_bins)
    have = per_bin_n > 0
    if not np.any(have):
        raise ValidationError("no label samples fall inside the binned span")
    anchor_idx = np.flatnonzero(have)

    if dataset.kind == "hd":
        rad = np.deg2rad(dataset.labels[keep])
        sin_sum = np.bincount(idx, weights=np.sin(rad), minlength=n_bins)
        cos_sum = np.bincount(idx, weights=np.cos(rad), minlength=n_bins)
        mean_deg = np.rad2deg(np.arctan2(sin_sum[have], cos_sum[have]))
        values = _interp_angles(anchor_idx, np.remainder(mean_deg, 360.0), n_bins)
    else:
        xy = dataset.labels[keep]
        values = np.empty((n_bins, 2))
        for c in range(2):
            sums = np.bincount(idx, weights=xy[:, c], minlength=n_bins)
            means = sums[have] / per_bin_n[have]
            values[:, c] = np.interp(np.arange(n_bins), anchor_idx, means)
    return LabelSeries(kind=dataset.kind, values=values)
