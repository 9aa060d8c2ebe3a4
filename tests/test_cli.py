import json

import pytest

from topodecode.cli import main
from topodecode.config import config_from_dict

MANIFEST_KEYS = {
    "command", "args", "config", "seed", "inputs", "outputs", "version", "duration_s",
}


def test_simulate_train_eval(tmp_path):
    sim_cfg = tmp_path / "sim.txt"
    sim_cfg.write_text("n_neurons = 10\n")
    train_cfg = tmp_path / "train.txt"
    train_cfg.write_text("epochs = 1\nhidden_size = 8\nsc_layers = 1\n")
    data, ck, ev = tmp_path / "data", tmp_path / "ck", tmp_path / "eval"

    assert main(["simulate", "hd", "--out", str(data), "--duration", "60",
                 "--config", str(sim_cfg)]) == 0
    assert main(["train", "--data", str(data), "--out", str(ck),
                 "--config", str(train_cfg)]) == 0
    assert main(["eval", "--checkpoint", str(ck), "--data", str(data),
                 "--out", str(ev)]) == 0

    for out, command, files in (
        (data, "simulate", []),
        (ck, "train", ["weights.json", "complex.json", "config.txt", "loss_curve.csv"]),
        (ev, "eval", ["report.csv", "summary.json", "plot.svg"]),
    ):
        manifest = json.loads((out / "manifest.json").read_text())
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == command
        for name in files:
            assert (out / name).is_file()
    assert len((ck / "loss_curve.csv").read_text().splitlines()) == 2


def test_simulate_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "sim.txt"
    cfg.write_text("n_neuron = 40\n")
    assert main(["simulate", "hd", "--out", str(tmp_path / "data"),
                 "--config", str(cfg)]) == 1
    assert "n_neuron" in capsys.readouterr().err


@pytest.fixture(scope="module")
def small_hd_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("search")
    sim_cfg = root / "sim.txt"
    sim_cfg.write_text("n_neurons = 10\n")
    data = root / "data"
    assert main(["simulate", "hd", "--out", str(data), "--duration", "60",
                 "--config", str(sim_cfg)]) == 0
    return data


@pytest.mark.parametrize(
    "space, needle",
    [
        ({"epochz": [1]}, "epochz"),
        ({"epochs": ["x"]}, "epochs"),
        ({"epochs": [None]}, "epochs"),
        ([1, 2], "search space"),
        ({"epochs": [2.7]}, "config key 'epochs'"),
        ({"hidden_size": [True]}, "config key 'hidden_size'"),
    ],
    ids=["unknown_key", "bad_value", "null_value", "not_an_object", "fractional_int",
         "boolean_int"],
)
def test_search_rejects_bad_space(small_hd_data, tmp_path, capsys, space, needle):
    space_path = tmp_path / "space.json"
    space_path.write_text(json.dumps(space))
    capsys.readouterr()
    assert main(["search", "--data", str(small_hd_data), "--out", str(tmp_path / "out"),
                 "--space", str(space_path), "--budget", "1"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ")
    assert needle in err[0]


@pytest.mark.parametrize("raw", [2.7, -0.5, True, False, float("nan"), float("inf")])
def test_int_fields_reject_booleans_and_fractions(raw):
    with pytest.raises(ValueError, match=r"config key 'epochs': expected an integer"):
        config_from_dict({"epochs": raw})


def test_int_fields_accept_integral_values():
    cfg = config_from_dict({"epochs": 2.0, "hidden_size": "16", "seed": 3})
    assert (cfg.epochs, cfg.hidden_size, cfg.seed) == (2, 16, 3)
    assert all(type(v) is int for v in (cfg.epochs, cfg.hidden_size, cfg.seed))
