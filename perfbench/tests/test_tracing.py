import importlib

import pytest

import tracing
from tracing import Hooks, Tracer, rep_layer_metrics, self_time_by_name, self_times, step_times_ms


def _span(sid, name, start, end, parent=None):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "rep": 0}


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] that overlap on [3, 4],
    # and c [9, 12] that runs past the root's end; a has a child d [2, 3].
    spans = [
        _span(0, "root", 0.0, 10.0),
        _span(1, "a", 1.0, 4.0, parent=0),
        _span(2, "b", 3.0, 6.0, parent=0),
        _span(3, "c", 9.0, 12.0, parent=0),
        _span(4, "d", 2.0, 3.0, parent=1),
    ]
    own = self_times(spans)
    assert own[0] == pytest.approx(10.0 - (5.0 + 1.0))  # [1, 6] and [9, 10]
    assert own[1] == pytest.approx(3.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
    assert own[4] == pytest.approx(1.0)
    by_name = self_time_by_name(spans + [_span(5, "d", 4.0, 4.5, parent=2)])
    assert by_name["d"] == pytest.approx(1.5)
    assert by_name["b"] == pytest.approx(2.5)


def test_tracer_nests_spans_and_keeps_the_repetition():
    tracer = Tracer()
    tracer.rep = 7
    outer_id = tracer.begin("outer")
    tracer.end(tracer.begin("inner"))
    tracer.end(outer_id)
    inner, outer = tracer.spans
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert inner["rep"] == outer["rep"] == 7
    assert outer["start"] <= inner["start"] <= inner["end"] <= outer["end"]


def test_step_time_pairs_gradient_clip_and_adam():
    spans = [
        _span(0, "train.grad", 0.0, 0.010),
        _span(1, "train.clip", 0.010, 0.011),
        _span(2, "train.adam", 0.011, 0.013),
        _span(3, "train.grad", 0.020, 0.025),
        _span(4, "train.clip", 0.025, 0.026),
        _span(5, "train.adam", 0.026, 0.027),
    ]
    assert step_times_ms(spans) == pytest.approx([13.0, 7.0])


def test_bookkeeping_is_left_out_of_steps_and_self_times():
    spans = [
        _span(0, "train.grad", 0.0, 0.010),
        _span(1, tracing.BOOKKEEPING, 0.001, 0.004, parent=0),
        _span(2, "train.clip", 0.010, 0.011),
        _span(3, "train.adam", 0.011, 0.013),
    ]
    assert step_times_ms(spans) == pytest.approx([10.0])
    assert self_time_by_name(spans)["train.grad"] == pytest.approx(0.007)


def test_missing_hook_target_is_reported_not_fatal():
    ad = importlib.import_module("topodecode.autodiff")
    original = ad.backward
    table = [
        ("topodecode.autodiff", "spmm_renamed_away", "autodiff.spmm_fwd", tracing._spmm_hook),
        ("topodecode.model", "NoSuchModel._input_terms", "model.input_terms", tracing._timed),
        ("topodecode.autodiff", "backward", "autodiff.backward", tracing._backward_hook),
    ]
    tracer = Tracer()
    tracer.rep = 0
    with Hooks(tracer, table) as hooks:
        assert hooks.missing == ["autodiff.spmm_fwd", "model.input_terms"]
        assert ad.backward is not original
    assert ad.backward is original
    metrics = rep_layer_metrics(tracer, 0, hooks.missing)
    for absent in ("autodiff.spmm_fwd_s", "autodiff.spmm_bwd_s", "autodiff.spmm_calls",
                   "model.input_terms_s"):
        assert absent not in metrics
    # An installed hook that never fired reads zero.
    assert metrics["autodiff.backward_s"] == 0.0


def test_every_hook_target_exists_in_the_package():
    tracer = Tracer()
    with Hooks(tracer) as hooks:
        assert hooks.missing == []
