import copy

import numpy as np

import fingerprint as fpm
from topodecode.metrics import report_grid, report_hd


def _fp():
    rng = np.random.default_rng(0)
    truth = rng.uniform(0, 360, 50)
    hd = report_hd(np.remainder(truth + rng.normal(0, 10, 50), 360), truth)
    xy = rng.uniform(0, 150, (50, 2))
    grid = report_grid(xy + rng.normal(0, 5, (50, 2)), xy)
    curve = [{"epoch": 0, "train_loss": 0.04, "val_loss": 0.015}]
    return fpm.make_fingerprint(
        curve, hd.aae_deg,
        {"hd": fpm.prediction_summary(hd), "grid": fpm.prediction_summary(grid)},
    )


def test_identical_fingerprints_match():
    assert fpm.mismatches(_fp(), _fp()) == []


def test_last_digit_differences_pass():
    got = copy.deepcopy(_fp())
    got["predictions"]["grid"]["decoded_x_mean"] *= 1 + 1e-12
    got["loss_curve"][0][1] *= 1 - 1e-11
    assert fpm.mismatches(got, _fp()) == []


def test_perturbed_prediction_fails():
    got = copy.deepcopy(_fp())
    got["predictions"]["hd"]["decoded_cos_mean"] += 1e-3
    diff = fpm.mismatches(got, _fp())
    assert len(diff) == 1 and "decoded_cos_mean" in diff[0]


def test_non_finite_and_shape_changes_fail():
    got = copy.deepcopy(_fp())
    got["loss_curve"][0][0] = float("nan")
    assert fpm.non_finite(got) == ["loss_curve.0.0"]
    assert fpm.mismatches(got, _fp())
    longer = copy.deepcopy(_fp())
    longer["loss_curve"].append([0.01, 0.01])
    assert fpm.mismatches(longer, _fp()) == ["loss_curve.1.0: unexpected", "loss_curve.1.1: unexpected"]


def test_reference_file_round_trip(tmp_path):
    path = str(tmp_path / "reference.json")
    fpm.write_reference({"hd-train": {"3": _fp()}}, path)
    fpm.write_reference({"hd-train": {"1": _fp()}}, path)
    assert fpm.mismatches(fpm.reference_for("hd-train", 3, path), _fp()) == []
    assert sorted(fpm.load_reference(path)["hd-train"]) == ["1", "3"]
    assert fpm.reference_for("hd-train", 2, path) is None
