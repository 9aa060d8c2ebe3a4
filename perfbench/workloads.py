"""The benchmark workloads and the pipeline each repetition runs.

Every workload writes a seeded synthetic recording as CSV and then drives
the package only through the calls its command line makes:
``load_spike_dataset`` -> ``prepare`` -> ``build_model`` -> ``train`` ->
``save_checkpoint`` / ``load_checkpoint`` -> ``evaluate``. The loop is
closed: one repetition at a time in one process. Repetitions run until the
measuring time is used up.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import resource
import shutil
import statistics
import time
import traceback
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field

import numpy as np

import fingerprint as fpm
from tracing import Hooks, Tracer, rep_layer_metrics, step_times_ms

td_config = importlib.import_module("topodecode.config")
td_model = importlib.import_module("topodecode.model")
td_spikes = importlib.import_module("topodecode.spikes")
td_synth = importlib.import_module("topodecode.synth")
td_train = importlib.import_module("topodecode.train")

DEFAULT_SEED = 0
# Never used while the benchmark was tuned; re-check a claim on it.
HELD_OUT_SEED = 1009

# The recordings come from one fixed session; the seed draws what varies.
SESSION_SEED = 20221210
MODEL_SEED = 0
TRACKING_NOISE_DEG = 2.0
TRACKING_NOISE_CM = 2.0

@dataclass(frozen=True)
class Workload:
    name: str
    kind: str
    duration_s: float
    # Training windows per train() call and validation windows; None keeps
    # every window of the block.
    train_windows: int | None
    val_windows: int | None
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hd-train", "hd", 600.0, 1024, 512,
            "HD, 30 neurons, 600 s: a small complex (30/159/191 simplices), so "
            "graph overhead, RNN matmuls and Adam dominate a step; SC products are minor",
        ),
        Workload(
            "grid-train", "grid", 600.0, 320, 256,
            "grid, 48 neurons, 600 s: a large complex (48/876/1479 simplices), so "
            "sparse SC products, batch gathers and validation dominate",
        ),
    )
}

# End-to-end metrics and their units. test_error is the AAE in degrees on
# HD and the AED in centimetres on grid. Checkpoint IO is gated through
# total_s and reported per layer: on grid-train the fastest save of a run
# still spread by 0.30 of its value over ten runs, beyond any bound allowed.
E2E_UNITS = {
    "setup_s": "s",
    "train_windows_per_s": "windows/s",
    "decode_windows_per_s": "windows/s",
    "total_s": "s",
    "peak_rss_mb": "MB",
    "test_error": "deg-or-cm",
}

LAYER_UNITS = {
    "spikes.load_s": "s",
    "spikes.bin_s": "s",
    "spikes.binarize_s": "s",
    "spikes.bin_labels_s": "s",
    "complexes.build_s": "s",
    "complexes.coactivity_s": "s",
    "filters.complex_laplacians_s": "s",
    "complexes.n_simplices.k0": "count",
    "complexes.n_simplices.k1": "count",
    "complexes.n_simplices.k2": "count",
    "complexes.laplacian_nnz": "count",
    "model.input_terms_s": "s",
    "model.batch_inputs_s": "s",
    "model.rnn_forward_s": "s",
    "autodiff.spmm_fwd_s": "s",
    "autodiff.spmm_bwd_s": "s",
    "autodiff.spmm_calls": "count",
    "autodiff.backward_s": "s",
    "autodiff.nodes_per_step": "count",
    "train.adam_s": "s",
    "train.clip_s": "s",
    "train.validation_s": "s",
    "train.step_ms.p50": "ms",
    "train.step_ms.p95": "ms",
    "train.step_ms.count": "count",
    "model.checkpoint_save_s": "s",
    "model.checkpoint_load_s": "s",
    "model.weights_bytes": "bytes",
    "model.predict_s": "s",
    "model.sc_active_col_fraction": "ratio",
    "model.bin_recompute_factor": "ratio",
    "trace.overhead_ratio": "ratio",
}


def generate(workload: Workload, seed: int, out_dir: str) -> None:
    """Write spikes.csv / labels.csv: one fixed simulated session, with
    tracking noise drawn from ``seed`` on its behavioural labels.

    The spikes are the same for every seed. Spikes redrawn per seed change
    the size of the complex, and with it every initial weight, since the
    package draws the input matrix, whose width is the simplex count,
    before the other weights. The test error of the briefly trained grid
    models then varied from 42 to 69 cm between seeds, and the work per
    window with the complex.
    """
    rng = np.random.default_rng(seed)
    if workload.kind == "hd":
        session = td_synth.simulate_hd(
            td_synth.HdSimConfig(duration=workload.duration_s, seed=SESSION_SEED)
        )
        noise = rng.normal(0.0, TRACKING_NOISE_DEG, session.labels.shape)
        session.labels = np.remainder(session.labels + noise, 360.0)
    else:
        sim = td_synth.GridSimConfig(duration=workload.duration_s, seed=SESSION_SEED)
        session = td_synth.simulate_grid(sim)
        noise = rng.normal(0.0, TRACKING_NOISE_CM, session.labels.shape)
        session.labels = np.clip(session.labels + noise, 0.0, sim.arena_cm)
    td_spikes.save_spike_dataset(session, out_dir)


def train_config(workload: Workload):
    """Default TrainConfig with one epoch per train() call."""
    return td_config.TrainConfig(kind=workload.kind, epochs=1, seed=MODEL_SEED)


def narrow(prep, workload: Workload):
    """The prepared data with the workload's window counts; the complex,
    inputs and labels are those of the whole recording."""
    train = prep.train_starts[:workload.train_windows]
    val = prep.test_starts[:workload.val_windows]
    return dataclasses.replace(prep, train_starts=train, test_starts=val)


def round_trip_errors(saved, cfg, loaded, loaded_cfg) -> list[str]:
    """A checkpoint must give back every parameter bit for bit."""
    errors = []
    if loaded_cfg != cfg:
        errors.append("config differs after load")
    if set(saved.params) != set(loaded.params):
        errors.append("parameter names differ after load")
    for name in sorted(set(saved.params) & set(loaded.params)):
        a = np.asarray(saved.params[name].value)
        b = np.asarray(loaded.params[name].value)
        if a.shape != b.shape or a.dtype != b.dtype or a.tobytes() != b.tobytes():
            errors.append(f"parameter {name} differs after load")
    if saved.complex != loaded.complex:
        errors.append("complex differs after load")
    return errors


@dataclass
class Rep:
    index: int
    traced: bool
    # Phase name -> durations.
    phases: dict = field(default_factory=lambda: defaultdict(list))
    train_windows: int = 0
    decoded_windows: int = 0
    fingerprint: dict | None = None
    errors: list = field(default_factory=list)


class Runner:
    """Runs one workload for one seed inside ``work_dir``."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, trace: bool,
                 reference: dict | None = None):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.trace = trace
        self.tracer = Tracer()
        self.data_dir = os.path.join(work_dir, "data")
        self.cfg = train_config(workload)
        self.missing_hooks: list[str] = []
        # The committed fingerprint for this workload and seed, if any.
        self.reference = reference

    @contextmanager
    def _phase(self, rep: Rep, name: str):
        """Times one phase as a span the benchmark opens itself."""
        sid = self.tracer.begin(f"phase.{name}")
        try:
            yield
        finally:
            rep.phases[name].append(self.tracer.end(sid))

    def _pipeline(self, rep: Rep) -> None:
        wl, cfg = self.workload, self.cfg
        ckpt = os.path.join(self.work_dir, f"ckpt-{rep.index}")
        with self._phase(rep, "setup"):
            dataset = td_spikes.load_spike_dataset(self.data_dir, kind="auto")
            prep = td_model.prepare(dataset, cfg, arch=cfg.arch)
            model = td_model.build_model(cfg.arch, prep, cfg)
        prep = narrow(prep, wl)
        with self._phase(rep, "train"):
            model, curve = td_train.train(model, prep, cfg)
        rep.train_windows = cfg.epochs * len(prep.train_starts)
        with self._phase(rep, "checkpoint_save"):
            td_model.save_checkpoint(ckpt, model, cfg)
        with self._phase(rep, "checkpoint_load"):
            loaded, loaded_cfg = td_model.load_checkpoint(ckpt)
        rep.errors += round_trip_errors(model, cfg, loaded, loaded_cfg)
        test = self._decode(rep, loaded, prep, "test")
        train = self._decode(rep, loaded, prep, "train")
        rep.fingerprint = fpm.make_fingerprint(
            curve, _test_error(test),
            {"test": fpm.prediction_summary(test), "train": fpm.prediction_summary(train)},
        )
        shutil.rmtree(ckpt, ignore_errors=True)

    def _decode(self, rep: Rep, model, prep, split: str):
        with self._phase(rep, "evaluate"):
            report = td_train.evaluate(model, prep, split=split)
        rep.decoded_windows += len(prep.starts(split))
        return report

    def _run_rep(self, rep: Rep) -> None:
        self.tracer.rep = rep.index
        hooks = Hooks(self.tracer) if rep.traced else nullcontext()
        try:
            with hooks:
                if rep.traced:
                    self.missing_hooks = hooks.missing
                with self._phase(rep, "rep"):
                    self._pipeline(rep)
        except Exception:  # a failed repetition is counted, the run goes on
            rep.errors.append(traceback.format_exc(limit=4))

    def run(self, seconds: float, min_reps: int) -> list[Rep]:
        generate(self.workload, self.seed, self.data_dir)
        reps: list[Rep] = []
        started = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - started
            if len(reps) >= min_reps:
                typical = statistics.median(r.phases["rep"][0] for r in reps)
                if elapsed + typical > seconds:
                    break
            # Repetition 0 warms the process up and is not timed. In a traced
            # run every second repetition after it is traced, so the
            # untraced ones between them give the trace overhead.
            rep = Rep(index=len(reps), traced=self.trace and len(reps) % 2 == 1)
            self._run_rep(rep)
            reps.append(rep)
        self._check(reps)
        return reps

    def _check(self, reps: list[Rep]) -> None:
        first = next((r.fingerprint for r in reps if r.fingerprint is not None), None)
        for rep in reps:
            fp = rep.fingerprint
            if fp is None:
                continue
            bad = fpm.non_finite(fp)
            if bad:
                rep.errors.append(f"non-finite values: {bad}")
            diff = fpm.mismatches(fp, first)
            if diff:
                rep.errors.append(f"differs from repetition 0: {diff[:3]}")
            if self.reference is not None:
                diff = fpm.mismatches(fp, self.reference)
                if diff:
                    rep.errors.append(f"differs from the reference: {diff[:3]}")

    def end_to_end(self, reps: list[Rep]) -> dict[str, float]:
        good = [r for r in reps[1:] if not r.errors and not r.traced]
        if not good:
            return {}

        def median(value):
            return statistics.median(value(r) for r in good)

        # Every timing is the median over the run's repetitions, each rate
        # that of a whole repetition's calls. A shared 2-core Xeon VM runs
        # 1.4 to 2 times slower than its best speed for most of the time,
        # with short fast spells whose frequency changes from minute to
        # minute. Over ten 60 s runs of each workload, the fastest single
        # call of a run spread by 0.14 to 0.23 of its value; the medians of
        # the same calls spread by 0.05 to 0.19.
        return {
            "setup_s": median(lambda r: r.phases["setup"][0]),
            "train_windows_per_s": median(lambda r: r.train_windows / r.phases["train"][0]),
            "decode_windows_per_s": median(
                lambda r: r.decoded_windows / sum(r.phases["evaluate"])),
            "total_s": median(lambda r: r.phases["rep"][0]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "test_error": median(lambda r: r.fingerprint["test_error"]),
        }

    def per_layer(self, reps: list[Rep]) -> dict[str, float]:
        traced = [r for r in reps if r.traced and not r.errors]
        plain = [r for r in reps[1:] if not r.traced and not r.errors]
        if not traced:
            return {}
        per_rep = [rep_layer_metrics(self.tracer, r.index, self.missing_hooks) for r in traced]
        out = {
            name: statistics.median(m[name] for m in per_rep)
            for name in per_rep[0]
        }
        if not {"train.grad", "train.clip", "train.adam"} & set(self.missing_hooks):
            steps = [t for r in traced for t in step_times_ms(self.tracer.rep_spans(r.index))]
            out["train.step_ms.count"] = float(len(steps))
            out["train.step_ms.p50"] = float(np.percentile(steps, 50)) if steps else 0.0
            out["train.step_ms.p95"] = float(np.percentile(steps, 95)) if steps else 0.0
        if plain:
            # The median repetition of each kind, as for total_s.
            out["trace.overhead_ratio"] = (
                statistics.median(r.phases["rep"][0] for r in traced)
                / statistics.median(r.phases["rep"][0] for r in plain)
            )
        return out


def _test_error(report) -> float:
    return report.aae_deg if report.kind == "hd" else report.aed_cm
