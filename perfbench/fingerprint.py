"""Behaviour fingerprint of one benchmark repetition and its comparison.

A fingerprint holds the loss curve, the test error and a summary of the
decoded predictions. Two fingerprints match when they have the same shape
and every number agrees within ``RTOL`` relative (``ATOL`` absolute near
zero). The tolerance lets a change reorder floating-point work, which moves
results in their last digits, while any change in what is computed fails.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

RTOL = 1e-6
ATOL = 1e-9

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def prediction_summary(report) -> dict[str, float]:
    """Order-free statistics of an evaluation's decoded values and errors."""
    errors = np.asarray(report.errors, dtype=np.float64)
    out = {
        "n": float(report.n_bins),
        "error_mean": float(errors.mean()),
        "error_std": float(errors.std()),
        "error_max": float(errors.max()),
    }
    per_bin = report.per_bin
    if "decoded_deg" in per_bin:
        # Angles are summarised on the circle, so a wrap at 360 is harmless.
        rad = np.deg2rad(np.asarray(per_bin["decoded_deg"], dtype=np.float64))
        out["decoded_cos_mean"] = float(np.cos(rad).mean())
        out["decoded_sin_mean"] = float(np.sin(rad).mean())
    else:
        for axis in ("x", "y"):
            values = np.asarray(per_bin[f"decoded_{axis}"], dtype=np.float64)
            out[f"decoded_{axis}_mean"] = float(values.mean())
            out[f"decoded_{axis}_std"] = float(values.std())
    return out


def make_fingerprint(curve, test_error: float, predictions: dict[str, dict]) -> dict:
    return {
        "loss_curve": [[float(r["train_loss"]), float(r["val_loss"])] for r in curve],
        "test_error": float(test_error),
        "predictions": predictions,
    }


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for key in sorted(value):
            yield from _flatten(value[key], f"{prefix}{key}.")
    elif isinstance(value, (list, tuple)):
        for i, item in enumerate(value):
            yield from _flatten(item, f"{prefix}{i}.")
    else:
        yield prefix.rstrip("."), float(value)


def mismatches(got: dict, want: dict, rtol=RTOL, atol=ATOL) -> list[str]:
    """Human-readable differences between two fingerprints; empty if they
    match. A non-finite number never matches."""
    a, b = dict(_flatten(got)), dict(_flatten(want))
    out = [f"{k}: missing" for k in sorted(b.keys() - a.keys())]
    out += [f"{k}: unexpected" for k in sorted(a.keys() - b.keys())]
    for key in sorted(a.keys() & b.keys()):
        x, y = a[key], b[key]
        if not (math.isfinite(x) and abs(x - y) <= atol + rtol * abs(y)):
            out.append(f"{key}: {x!r} != {y!r}")
    return out


def non_finite(fp: dict) -> list[str]:
    return [k for k, v in _flatten(fp) if not math.isfinite(v)]


def load_reference(path=REFERENCE_PATH) -> dict:
    if not os.path.exists(path):
        return {}
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh).get("workloads", {})


def reference_for(workload: str, seed: int, path=REFERENCE_PATH) -> dict | None:
    return load_reference(path).get(workload, {}).get(str(seed))


def write_reference(entries: dict, path=REFERENCE_PATH) -> None:
    """Merge {workload: {seed: fingerprint}} into the reference file."""
    merged = load_reference(path)
    for workload, by_seed in entries.items():
        merged.setdefault(workload, {}).update(by_seed)
    payload = {
        "tolerance": {"rtol": RTOL, "atol": ATOL},
        "workloads": {
            w: {s: merged[w][s] for s in sorted(merged[w], key=int)}
            for w in sorted(merged)
        },
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
