import pytest

import tracing
import workloads
from workloads import E2E_UNITS, LAYER_UNITS, Runner, Workload

SHORT_HD = Workload("smoke-hd", "hd", 60.0, None, None, "short smoke run")
SHORT_GRID = Workload("smoke-grid", "grid", 60.0, 64, 32, "short smoke run")


@pytest.mark.parametrize("workload", [SHORT_HD, SHORT_GRID], ids=lambda w: w.name)
def test_short_run_has_no_failures_and_every_metric(workload, tmp_path):
    runner = Runner(workload, seed=3, work_dir=str(tmp_path), trace=True)
    reps = runner.run(seconds=0.0, min_reps=3)
    assert [r.traced for r in reps] == [False, True, False]
    assert [e for r in reps for e in r.errors] == []
    assert set(runner.end_to_end(reps)) == set(E2E_UNITS)
    layer = runner.per_layer(reps)
    assert set(LAYER_UNITS) <= set(layer)
    assert layer["complexes.build_s"] > 0.0
    assert layer["autodiff.nodes_per_step"] > 0
    assert layer["autodiff.spmm_calls"] > 0


def test_untraced_run_installs_no_wrapper(tmp_path, monkeypatch):
    def refuse(self):
        raise AssertionError("hooks installed in an untraced run")

    monkeypatch.setattr(tracing.Hooks, "install", refuse)
    runner = Runner(SHORT_HD, seed=3, work_dir=str(tmp_path), trace=False)
    reps = runner.run(seconds=0.0, min_reps=2)
    assert all(not r.traced and not r.errors for r in reps)


def test_reference_mismatch_and_exceptions_count_as_failures(tmp_path, monkeypatch):
    runner = Runner(SHORT_HD, seed=3, work_dir=str(tmp_path), trace=False)
    reps = runner.run(seconds=0.0, min_reps=1)
    reference = reps[0].fingerprint
    reference["test_error"] *= 1.01
    runner = Runner(SHORT_HD, seed=3, work_dir=str(tmp_path), trace=False,
                    reference=reference)
    reps = runner.run(seconds=0.0, min_reps=1)
    assert any("reference" in e for e in reps[0].errors)

    def diverge(*args, **kwargs):
        raise workloads.td_train.TrainingDiverged("non-finite loss")

    monkeypatch.setattr(workloads.td_train, "train", diverge)
    runner = Runner(SHORT_HD, seed=3, work_dir=str(tmp_path), trace=False)
    reps = runner.run(seconds=0.0, min_reps=2)
    assert len(reps) == 2 and all("TrainingDiverged" in r.errors[0] for r in reps)
    assert runner.end_to_end(reps) == {}
