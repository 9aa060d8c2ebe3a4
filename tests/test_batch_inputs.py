"""The SCRNN's first-layer input terms, computed per batch: what the
windows read through ``positions`` and what one batch costs in memory."""

import dataclasses
import tracemalloc

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracle
from strategies import face_closed_complexes
from topodecode.complexes import complex_laplacians
from topodecode.config import TrainConfig
from topodecode.model import PreparedData, ScrnnModel, prepare
from topodecode.synth import HdSimConfig, simulate_hd


def powers(lap, x, degree, top):
    """``x`` and its lower, then upper, Laplacian powers through the
    assembled float64 halves, as a list in term order."""
    out = [x.astype(np.float64)]
    for half, present in ((lap.lower, lap.k >= 1), (lap.upper, lap.k < top)):
        power = out[0]
        for _ in range(degree if present else 0):
            power = half.astype(np.float64) @ power
            out.append(power)
    return out


@given(
    face_closed_complexes(),
    st.integers(1, 3),
    st.integers(1, 2),
    st.integers(1, 3),
    st.data(),
)
@settings(max_examples=100, deadline=None)
def test_batch_terms_equal_per_bin_powers(complex_and_bits, degree, n_col, seq_len, data):
    """Read through ``positions``, every window step's count columns and
    k-coactivity columns carry the Laplacian powers of that bin's own
    counts and coactivity, bit for bit, over start sets with repeats. The
    batch holds each distinct count column and each distinct k-coactivity
    column once, as C-contiguous float64 arrays."""
    S, bits = complex_and_bits
    n_bins = bits.shape[1]
    last = n_bins - seq_len - n_col + 1
    assume(last >= 0)
    starts = np.array(data.draw(st.lists(st.integers(0, last), min_size=1, max_size=10)))
    seed = data.draw(st.integers(0, 2**32 - 1))
    counts = np.random.default_rng(seed).integers(0, 6, size=bits.shape) * bits
    prep = PreparedData(
        kind="hd", counts=counts, bits=bits, label_values=np.zeros(n_bins),
        targets=np.zeros((2, n_bins)), n_test=0, seq_len=seq_len, n_col=n_col,
        train_starts=np.arange(last + 1), test_starts=np.arange(0), complex=S,
    )
    cfg = TrainConfig(hidden_size=2, sc_layers=1, n_filters=1, degree=degree,
                      seq_len=seq_len, n_col=n_col)
    model = ScrnnModel(S, cfg)
    terms, (reads, bin_pos) = model._batch_inputs(prep, starts)

    laps = complex_laplacians(S)
    coactivity = {k: oracle.coactivity_matrix(S, bits, k) for k in range(1, S.dim + 1)}
    bins = (starts[:, None] + np.arange(seq_len)).reshape(-1)
    cols = (bins[:, None] + np.arange(n_col)).reshape(-1)
    assert sorted(terms) == sorted(reads) == list(range(S.dim + 1))
    assert all(t.dtype == np.float64 and t.flags.c_contiguous for ts in terms.values() for t in ts)
    assert terms[0][0].shape[1] == len(np.unique(cols))
    for k in range(1, S.dim + 1):
        assert terms[k][0].shape[1] == np.unique(coactivity[k][:, bins], axis=1).shape[1]
    for w, start in enumerate(starts):
        for t in range(seq_len):
            b, i = start + t, bin_pos[w, t]
            for c in range(n_col):
                want = powers(laps[0], counts[:, b + c], degree, S.dim)
                got = [term[:, reads[0][i, c]] for term in terms[0]]
                assert [g.tobytes() for g in got] == [p.tobytes() for p in want]
            for k in range(1, S.dim + 1):
                want = powers(laps[k], coactivity[k][:, b], degree, S.dim)
                got = [term[:, reads[k][i]] for term in terms[k]]
                assert [g.tobytes() for g in got] == [p.tobytes() for p in want]


def test_batch_without_coactive_neurons_reads_one_zero_column():
    """A batch in which no bin has two active neurons gives each k >= 1
    dimension a single zero input column, which every bin reads, while the
    counts keep one column per distinct count column; ``predict`` on such
    windows stays finite."""
    cfg = TrainConfig(kind="hd", hidden_size=8, sc_layers=2, degree=2, k_max=2,
                      seq_len=5, p=0.7, seed=3)
    prep = prepare(simulate_hd(HdSimConfig(n_neurons=10, duration=60.0, seed=3)), cfg)
    model = ScrnnModel(prep.complex, cfg)
    assert model.complex.dim == 2
    n, n_bins = prep.bits.shape
    every_bin = np.arange(n_bins)
    bits = np.zeros_like(prep.bits)
    bits[every_bin % n, every_bin] = every_bin % 3 > 0
    lone = dataclasses.replace(prep, bits=bits, counts=prep.counts * bits + bits)
    starts = lone.train_starts[:32]
    terms, (reads, _) = model._batch_inputs(lone, starts)
    assert terms[0][0].shape[1] > 1
    for k in (1, 2):
        assert [t.shape for t in terms[k]] == [(model.complex.n_simplices(k), 1)] * len(terms[k])
        assert not any(t.any() for t in terms[k])
        assert not reads[k].any()
    pred = model.predict(lone, np.concatenate([lone.test_starts, lone.train_starts]))
    assert np.isfinite(pred).all()


def batch_peak_bytes(model, prep, starts):
    """Peak traced allocation of one ``_batch_inputs`` call."""
    tracemalloc.start()
    try:
        model._batch_inputs(prep, starts)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_batch_memory_does_not_grow_with_recording():
    """One 32-window batch allocates about as much on a 240 s session as
    on a 60 s one: the terms cover the batch's columns, not the
    recording's. Both sessions share one complex, so the term rows match."""
    cfg = TrainConfig(kind="hd", hidden_size=8, sc_layers=2, degree=2, k_max=2,
                      seq_len=5, p=0.7, seed=3)
    short = prepare(simulate_hd(HdSimConfig(n_neurons=10, duration=60.0, seed=3)), cfg)
    long = prepare(
        simulate_hd(HdSimConfig(n_neurons=10, duration=240.0, seed=3)), cfg,
        complex_=short.complex,
    )
    model = ScrnnModel(short.complex, cfg)
    peaks = [batch_peak_bytes(model, prep, prep.train_starts[:32]) for prep in (short, long)]
    assert peaks[1] < 1.5 * peaks[0], peaks
