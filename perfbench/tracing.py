"""Spans, self time and the layer hooks the traced run installs.

A span records a name, a start, an end, its parent span and the repetition
it belongs to. Spans stay in memory until the run ends and are then written
as JSONL. The hooks wrap package functions from outside the package: each
one replaces a module or class attribute with a timing wrapper and puts the
original back on uninstall. A hook whose target no longer exists is
reported as missing and its layer metrics are left out of the result.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder with per-repetition counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.samples: dict = defaultdict(lambda: defaultdict(list))
        self.rep = None
        self._stack: list[int] = []
        self._open: dict[int, tuple[str, float, int | None]] = {}
        self._next_id = 0

    def begin(self, name: str) -> int:
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._open[sid] = (name, time.perf_counter(), parent)
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> float:
        stop = time.perf_counter()
        name, start, parent = self._open.pop(sid)
        self._stack.remove(sid)
        self.spans.append(
            {"id": sid, "name": name, "start": start, "end": stop,
             "parent": parent, "rep": self.rep}
        )
        return stop - start

    def count(self, name: str, amount=1.0) -> None:
        self.counters[self.rep][name] += amount

    def sample(self, name: str, value) -> None:
        self.samples[self.rep][name].append(value)

    def rep_spans(self, rep) -> list[dict]:
        return [s for s in self.spans if s["rep"] == rep]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans, key=lambda s: s["start"]):
                fh.write(json.dumps(s) + "\n")


def _covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, stop in sorted(intervals):
        start, stop = max(start, reach), min(stop, hi)
        if stop > start:
            total += stop - start
            reach = stop
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    return {
        s["id"]: (s["end"] - s["start"])
        - _covered(children[s["id"]], s["start"], s["end"])
        for s in spans
    }


def self_time_by_name(spans: list[dict]) -> dict[str, float]:
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s["name"]] += own[s["id"]]
    return dict(totals)


# ---------------------------------------------------------------------------
# Hooks. The attribute path names the object the package's own callers look
# the function up on, so the wrapper sees every call.
# ---------------------------------------------------------------------------


# The hooks' own counting runs in spans of this name, so that their cost
# is subtracted from the self time of the layer spans around them and left
# out of step times.
BOOKKEEPING = "trace.bookkeeping"


def _timed(tracer: Tracer, name: str, fn):
    def wrapper(*args, **kwargs):
        sid = tracer.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.end(sid)

    return wrapper


def _prepare_hook(tracer, name, fn):
    timed = _timed(tracer, name, fn)

    def wrapper(*args, **kwargs):
        prep = timed(*args, **kwargs)
        cx = getattr(prep, "complex", None)
        if cx is not None:
            for k in range(3):
                tracer.counters[tracer.rep][f"complexes.n_simplices.k{k}"] = cx.n_simplices(k)
        return prep

    return wrapper


def _laplacians_hook(tracer, name, fn):
    timed = _timed(tracer, name, fn)

    def wrapper(*args, **kwargs):
        laps = timed(*args, **kwargs)
        tracer.counters[tracer.rep]["complexes.laplacian_nnz"] = sum(
            lap.lower.nnz + lap.upper.nnz for lap in laps.values()
        )
        return laps

    return wrapper


def _batch_inputs_hook(tracer, name, fn):
    timed = _timed(tracer, name, fn)

    def wrapper(model, prep, starts, *args, **kwargs):
        out = timed(model, prep, starts, *args, **kwargs)
        sid = tracer.begin(BOOKKEEPING)
        # The SC layers compute one column per bin of every window.
        offsets = np.arange(int(getattr(model, "seq_len", 1)))
        bins = (np.asarray(starts)[:, None] + offsets[None, :]).reshape(-1)
        active = np.asarray(prep.bits)[:, bins].sum(axis=0) >= 2
        tracer.count("model.sc_columns", bins.size)
        tracer.count("model.sc_active_columns", int(active.sum()))
        tracer.sample("model.sc_bins", np.unique(bins))
        tracer.end(sid)
        return out

    return wrapper


def _save_hook(tracer, name, fn):
    timed = _timed(tracer, name, fn)

    def wrapper(dirpath, *args, **kwargs):
        out = timed(dirpath, *args, **kwargs)
        weights = os.path.join(dirpath, "weights.json")
        if os.path.exists(weights):
            tracer.counters[tracer.rep]["model.weights_bytes"] = os.path.getsize(weights)
        return out

    return wrapper


def _spmm_hook(tracer, name, fn):
    timed = _timed(tracer, name, fn)

    def wrapper(*args, **kwargs):
        node = timed(*args, **kwargs)
        tracer.count("autodiff.spmm_calls")
        # The backward half runs later, inside autodiff.backward.
        vjp = getattr(node, "_vjp", None)
        if vjp is not None:
            node._vjp = _timed(tracer, "autodiff.spmm_bwd", vjp)
        return node

    return wrapper


def _backward_hook(tracer, name, fn):
    timed = _timed(tracer, name, fn)

    def wrapper(root, *args, **kwargs):
        # Every step builds the same graph, so the first one per repetition
        # is counted; the walk happens outside the timed span.
        if "autodiff.nodes_per_step" not in tracer.counters[tracer.rep]:
            sid = tracer.begin(BOOKKEEPING)
            tracer.counters[tracer.rep]["autodiff.nodes_per_step"] = _graph_size(root)
            tracer.end(sid)
        return timed(root, *args, **kwargs)

    return wrapper


def _graph_size(root) -> int:
    seen, stack = set(), [root]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.extend(getattr(node, "_parents", ()))
    return len(seen)


# (module, attribute path, span name, wrapper factory)
HOOKS = [
    ("topodecode.spikes", "load_spike_dataset", "spikes.load", _timed),
    ("topodecode.model", "bin_spikes", "spikes.bin", _timed),
    ("topodecode.model", "binarize_rows", "spikes.binarize", _timed),
    ("topodecode.model", "bin_labels", "spikes.bin_labels", _timed),
    ("topodecode.complexes", "build_complex", "complexes.build", _timed),
    ("topodecode.model", "coactivity_matrix", "complexes.coactivity", _timed),
    ("topodecode.model", "complex_laplacians", "filters.complex_laplacians", _laplacians_hook),
    ("topodecode.model", "prepare", "model.prepare", _prepare_hook),
    ("topodecode.model", "ScrnnModel._input_terms", "model.input_terms", _timed),
    ("topodecode.model", "ScrnnModel._batch_inputs", "model.batch_inputs", _batch_inputs_hook),
    ("topodecode.model", "_rnn_forward_var", "model.rnn_forward", _timed),
    ("topodecode.model", "ScrnnModel.predict", "model.predict", _timed),
    ("topodecode.model", "save_checkpoint", "model.checkpoint_save", _save_hook),
    ("topodecode.model", "load_checkpoint", "model.checkpoint_load", _timed),
    ("topodecode.autodiff", "spmm", "autodiff.spmm_fwd", _spmm_hook),
    ("topodecode.autodiff", "backward", "autodiff.backward", _backward_hook),
    ("topodecode.train", "backward", "train.grad", _timed),
    ("topodecode.train", "_clip_global_norm", "train.clip", _timed),
    ("topodecode.train", "Adam.step", "train.adam", _timed),
    ("topodecode.train", "_validation_loss", "train.validation", _timed),
]


def _resolve(module_name: str, path: str):
    """(owner, attribute name) of a hook target, or None if it is gone."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(vars(owner).get(attr)):
        return None
    return owner, attr


class Hooks:
    """Installs the layer wrappers; ``missing`` lists the spans whose target
    is gone. Use as a context manager so the originals always come back."""

    def __init__(self, tracer: Tracer, table=HOOKS):
        self.tracer = tracer
        self.table = table
        self.missing: list[str] = []
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.missing = []
        for module_name, path, name, factory in self.table:
            target = _resolve(module_name, path)
            if target is None:
                self.missing.append(name)
                continue
            owner, attr = target
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, factory(self.tracer, name, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced repetition.
# ---------------------------------------------------------------------------

# Layer metric -> the hook span it is read from.
TIME_METRICS = {
    "spikes.load_s": "spikes.load",
    "spikes.bin_s": "spikes.bin",
    "spikes.binarize_s": "spikes.binarize",
    "spikes.bin_labels_s": "spikes.bin_labels",
    "complexes.build_s": "complexes.build",
    "complexes.coactivity_s": "complexes.coactivity",
    "filters.complex_laplacians_s": "filters.complex_laplacians",
    "model.input_terms_s": "model.input_terms",
    "model.batch_inputs_s": "model.batch_inputs",
    "model.rnn_forward_s": "model.rnn_forward",
    "autodiff.spmm_fwd_s": "autodiff.spmm_fwd",
    "autodiff.spmm_bwd_s": "autodiff.spmm_bwd",
    "autodiff.backward_s": "autodiff.backward",
    "train.adam_s": "train.adam",
    "train.clip_s": "train.clip",
    "train.validation_s": "train.validation",
    "model.checkpoint_save_s": "model.checkpoint_save",
    "model.checkpoint_load_s": "model.checkpoint_load",
    "model.predict_s": "model.predict",
}

# Count metric -> the hook that produces it.
COUNT_METRICS = {
    "complexes.n_simplices.k0": "model.prepare",
    "complexes.n_simplices.k1": "model.prepare",
    "complexes.n_simplices.k2": "model.prepare",
    "complexes.laplacian_nnz": "filters.complex_laplacians",
    "autodiff.spmm_calls": "autodiff.spmm_fwd",
    "autodiff.nodes_per_step": "autodiff.backward",
    "model.weights_bytes": "model.checkpoint_save",
}

# The spans expected to take most of train() on grid-train; the report's
# train.hot_self_share is their self time over train() wall time.
HOT_TRAIN_SPANS = (
    "autodiff.spmm_fwd", "autodiff.spmm_bwd", "model.batch_inputs",
    "autodiff.backward", "train.validation",
)


def rep_layer_metrics(tracer: Tracer, rep, missing: list[str]) -> dict[str, float]:
    """Layer metrics of one traced repetition; metrics of missing hooks are
    left out, hooks that never fired read 0."""
    spans = tracer.rep_spans(rep)
    own = self_time_by_name(spans)
    counters = tracer.counters[rep]
    out = {}
    for metric, span in TIME_METRICS.items():
        hook = "autodiff.spmm_fwd" if span == "autodiff.spmm_bwd" else span
        if hook not in missing:
            out[metric] = own.get(span, 0.0)
    for metric, hook in COUNT_METRICS.items():
        if hook not in missing:
            out[metric] = float(counters.get(metric, 0.0))
    if "model.batch_inputs" not in missing:
        columns = counters.get("model.sc_columns", 0.0)
        bins = tracer.samples[rep].get("model.sc_bins", [])
        distinct = np.unique(np.concatenate(bins)).size if bins else 0
        out["model.sc_active_col_fraction"] = (
            counters.get("model.sc_active_columns", 0.0) / columns if columns else 0.0
        )
        out["model.bin_recompute_factor"] = columns / distinct if distinct else 0.0
    trains = [s for s in spans if s["name"] == "phase.train"]
    if trains and not any(h in missing for h in HOT_TRAIN_SPANS):
        own_by_id = self_times(spans)
        hot = sum(
            own_by_id[s["id"]] for s in spans
            if s["name"] in HOT_TRAIN_SPANS
            and any(t["start"] <= s["start"] and s["end"] <= t["end"] for t in trains)
        )
        out["train.hot_self_share"] = hot / sum(t["end"] - t["start"] for t in trains)
    return out


def step_times_ms(spans: list[dict]) -> list[float]:
    """One training step = gradient pass + clip + Adam update, in order,
    less the bookkeeping spans inside them."""
    books = [(s["start"], s["end"]) for s in spans if s["name"] == BOOKKEEPING]

    def cost(s):
        return s["end"] - s["start"] - _covered(books, s["start"], s["end"])

    steps, current = [], None
    for s in sorted(spans, key=lambda s: s["start"]):
        if s["name"] == "train.grad":
            current = cost(s)
        elif s["name"] in ("train.clip", "train.adam") and current is not None:
            current += cost(s)
            if s["name"] == "train.adam":
                steps.append(current * 1e3)
                current = None
    return steps
