"""Command-line pipeline: simulate data, train decoders, evaluate, search.

Every command writes a ``manifest.json`` next to its outputs recording the
command line, config echo, seed, input/output paths, package version, and
wall-clock duration. Numeric outputs are byte-reproducible for a fixed
seed.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time

import numpy as np

from .config import TrainConfig, read_config, read_kv, write_config
from .model import ARCHS, build_model, load_checkpoint, prepare, save_checkpoint
from .spikes import load_spike_dataset, save_spike_dataset
from .svgplot import line_plot
from .synth import GridSimConfig, HdSimConfig, simulate_grid, simulate_hd
from .train import SearchSpace, default_search_space, evaluate, random_search, train

__all__ = ["main", "cmd_simulate", "cmd_train", "cmd_eval", "cmd_search"]


def _version() -> str:
    try:
        from importlib.metadata import version

        base = version("topodecode")
    except Exception:
        base = "0.1.0"
    try:
        here = os.path.dirname(os.path.abspath(__file__))
        described = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=here,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if described.returncode == 0:
            return f"{base}+{described.stdout.strip()}"
    except Exception:
        pass
    return base


def _write_manifest(out_dir, command, args_echo, config_echo, inputs, outputs, started):
    manifest = {
        "command": command,
        "args": args_echo,
        "config": config_echo,
        "seed": args_echo.get("seed"),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in outputs],
        "version": _version(),
        "duration_s": round(time.time() - started, 3),
    }
    path = os.path.join(out_dir, "manifest.json")
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


# The keys a simulate config file may set, per kind, with their types.
_SIM_KEYS = {
    "hd": {
        "n_neurons": int, "peak_rate": float, "kappa": float,
        "step_std_deg": float, "duration": float, "label_rate": float,
    },
    "grid": {"arena_cm": float, "speed": float, "peak_rate": float, "duration": float},
}


def cmd_simulate(args) -> int:
    started = time.time()
    overrides = read_kv(args.config) if args.config else {}
    types = _SIM_KEYS[args.kind]
    for key in overrides:
        if key not in types:
            raise KeyError(f"unknown {args.kind} simulate key {key!r}")
    values = {"duration": args.duration}
    values.update((key, types[key](raw)) for key, raw in overrides.items())
    os.makedirs(args.out, exist_ok=True)
    if args.kind == "hd":
        cfg = HdSimConfig(seed=args.seed, **values)
        dataset = simulate_hd(cfg)
    else:
        cfg = GridSimConfig(seed=args.seed, **values)
        dataset = simulate_grid(cfg)
    spike_path, label_path = save_spike_dataset(dataset, args.out)
    _write_manifest(
        args.out,
        "simulate",
        {"kind": args.kind, "seed": args.seed, "duration": cfg.duration},
        {k: getattr(cfg, k) for k in ("duration", "peak_rate", "seed")},
        [args.config] if args.config else [],
        [spike_path, label_path],
        started,
    )
    return 0


def _load_train_config(args) -> TrainConfig:
    if args.config:
        cfg = read_config(args.config)
    else:
        cfg = TrainConfig()
    overrides = {}
    if args.arch:
        overrides["arch"] = args.arch
    if args.seed is not None:
        overrides["seed"] = args.seed
    return cfg.replace(**overrides) if overrides else cfg


def cmd_train(args) -> int:
    started = time.time()
    dataset = load_spike_dataset(args.data, kind="auto")
    cfg = _load_train_config(args).replace(kind=dataset.kind)
    os.makedirs(args.out, exist_ok=True)
    prep = prepare(dataset, cfg, arch=cfg.arch)
    model = build_model(cfg.arch, prep, cfg)
    model, curve = train(model, prep, cfg)
    save_checkpoint(args.out, model, cfg)
    curve_path = os.path.join(args.out, "loss_curve.csv")
    with open(curve_path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,val_loss\n")
        for row in curve:
            fh.write(f"{row['epoch']},{row['train_loss']:.8f},{row['val_loss']:.8f}\n")
    outputs = [os.path.join(args.out, "weights.npz"), curve_path]
    _write_manifest(
        args.out,
        "train",
        {"arch": cfg.arch, "seed": cfg.seed, "data": args.data},
        {"epochs": cfg.epochs, "learning_rate": cfg.learning_rate, "kind": cfg.kind},
        [args.data] + ([args.config] if args.config else []),
        outputs,
        started,
    )
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    model, cfg = load_checkpoint(args.checkpoint)
    dataset = load_spike_dataset(args.data, kind="auto")
    if dataset.kind != cfg.kind:
        raise ValueError(
            f"checkpoint was trained on {cfg.kind!r} data but {args.data} "
            f"holds {dataset.kind!r} data"
        )
    # A spike file has no lines for neurons silent to its end, so its
    # highest id can fall short of the model's neuron count.
    silent = model.n_neurons - dataset.n_neurons
    if silent > 0:
        dataset = dataclasses.replace(
            dataset, neurons=dataset.neurons + [np.empty(0)] * silent
        )
    os.makedirs(args.out, exist_ok=True)
    prep = prepare(dataset, cfg, arch=cfg.arch, complex_=model.complex)
    report = evaluate(model, prep, split=args.split)

    csv_path = os.path.join(args.out, "report.csv")
    report.to_csv(csv_path)
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json())
        fh.write("\n")

    svg_path = os.path.join(args.out, "plot.svg")
    bins = np.arange(report.n_bins)
    if prep.kind == "hd":
        series = [
            ("truth", bins, report.per_bin["true_deg"], "#555555"),
            ("decoded", bins, report.per_bin["decoded_deg"], "#d62728"),
        ]
        line_plot(series, svg_path, title="Head direction: truth vs decoded",
                  xlabel="time bin", ylabel="angle (deg)", y_range=(0.0, 360.0))
    else:
        series = [
            ("true x", bins, report.per_bin["true_x"], "#555555"),
            ("decoded x", bins, report.per_bin["decoded_x"], "#d62728"),
            ("true y", bins, report.per_bin["true_y"], "#999999"),
            ("decoded y", bins, report.per_bin["decoded_y"], "#1f77b4"),
        ]
        line_plot(series, svg_path, title="Position: truth vs decoded",
                  xlabel="time bin", ylabel="position (cm)")

    _write_manifest(
        args.out,
        "eval",
        {"checkpoint": args.checkpoint, "data": args.data, "split": args.split,
         "seed": cfg.seed},
        report.summary(),
        [args.checkpoint, args.data],
        [csv_path, summary_path, svg_path],
        started,
    )
    summary = report.summary()
    if any(v is not None and not np.isfinite(v) for v in summary.values()):
        return 1
    return 0


def cmd_search(args) -> int:
    started = time.time()
    dataset = load_spike_dataset(args.data, kind="auto")
    base_cfg = _load_train_config(args).replace(kind=dataset.kind)
    if args.space:
        with open(args.space, "r", encoding="utf-8") as fh:
            space = SearchSpace(candidates=json.load(fh))
    else:
        space = default_search_space(base_cfg.arch, dataset.kind)
    os.makedirs(args.out, exist_ok=True)
    seed = args.seed if args.seed is not None else base_cfg.seed
    best_cfg, leaderboard = random_search(
        space, args.budget, seed, dataset, base_cfg
    )
    board_path = os.path.join(args.out, "leaderboard.csv")
    config_keys = sorted(space.candidates)
    with open(board_path, "w", encoding="utf-8") as fh:
        fh.write("rank,trial,metric," + ",".join(config_keys) + "\n")
        for rank, row in enumerate(leaderboard):
            values = ",".join(str(getattr(row["config"], k)) for k in config_keys)
            fh.write(f"{rank},{row['trial']},{row['metric']:.6f},{values}\n")
    best_path = os.path.join(args.out, "best_config.txt")
    write_config(best_cfg, best_path)
    _write_manifest(
        args.out,
        "search",
        {"budget": args.budget, "seed": seed, "data": args.data,
         "arch": base_cfg.arch},
        {"best_metric": leaderboard[0]["metric"]},
        [args.data] + ([args.space] if args.space else []),
        [board_path, best_path],
        started,
    )
    if not np.isfinite(leaderboard[0]["metric"]):
        return 1
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="topodecode",
        description="Decode behavior from spike trains via simplicial "
        "convolutional recurrent networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a synthetic dataset")
    p_sim.add_argument("kind", choices=["hd", "grid"])
    p_sim.add_argument("--out", required=True)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--duration", type=float, default=600.0)
    p_sim.add_argument("--config", default=None)
    p_sim.set_defaults(func=cmd_simulate)

    p_train = sub.add_parser("train", help="train a decoder")
    p_train.add_argument("--data", required=True)
    p_train.add_argument("--out", required=True)
    p_train.add_argument("--config", default=None)
    p_train.add_argument("--arch", choices=ARCHS, default=None)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--data", required=True)
    p_eval.add_argument("--out", required=True)
    p_eval.add_argument("--split", choices=["test", "train"], default="test")
    p_eval.set_defaults(func=cmd_eval)

    p_search = sub.add_parser("search", help="random hyperparameter search")
    p_search.add_argument("--data", required=True)
    p_search.add_argument("--out", required=True)
    p_search.add_argument("--space", default=None)
    p_search.add_argument("--budget", type=int, default=4)
    p_search.add_argument("--arch", choices=ARCHS, default=None)
    p_search.add_argument("--seed", type=int, default=None)
    p_search.add_argument("--config", default=None)
    p_search.set_defaults(func=cmd_search)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
