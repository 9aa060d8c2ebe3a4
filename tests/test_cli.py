import json

from topodecode.cli import main

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
