import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topodecode import spikes
from topodecode.spikes import (
    BinaryMatrix,
    SpikeDataset,
    SpikeCountMatrix,
    SpikeFileError,
    ValidationError,
    bin_labels,
    bin_spikes,
    binarize_rows,
    load_spike_dataset,
    save_spike_dataset,
)

from conftest import make_hd_dataset
from topodecode.synth import HdSimConfig, simulate_hd


def matrix(rows):
    return SpikeCountMatrix(counts=np.asarray(rows, dtype=np.int64), t_bin=0.1, t_start=0.0)


class TestLoad:
    def test_two_neuron_file(self, tmp_path):
        (tmp_path / "spikes.csv").write_text(
            "neuron_id,spike_time_s\n0,0.5\n0,1.0\n1,0.25\n"
        )
        (tmp_path / "labels.csv").write_text("time_s,angle_deg\n0.0,10\n1.0,20\n2.0,30\n")
        ds = load_spike_dataset(str(tmp_path), kind="hd")
        assert ds.n_neurons == 2
        assert ds.neurons[0].tolist() == [0.5, 1.0]
        assert ds.neurons[1].tolist() == [0.25]

    def test_negative_spike_time_rejected(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("0,-0.5\n")
        (tmp_path / "labels.csv").write_text("0.0,10\n1.0,20\n")
        with pytest.raises(ValidationError):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_empty_neuron_accepted(self, tmp_path):
        # neuron 1 never fires but still gets a row
        (tmp_path / "spikes.csv").write_text("0,0.5\n2,0.75\n")
        (tmp_path / "labels.csv").write_text("0.0,10\n1.0,20\n")
        ds = load_spike_dataset(str(tmp_path), kind="hd")
        assert ds.n_neurons == 3
        assert ds.neurons[1].size == 0

    def test_malformed_line(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("0,0.5\nnot-a-number,x\n")
        (tmp_path / "labels.csv").write_text("0.0,10\n")
        with pytest.raises(SpikeFileError):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_kind_mismatch(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("0,0.5\n")
        (tmp_path / "labels.csv").write_text("0.0,10,20\n")
        with pytest.raises(ValidationError):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_roundtrip(self, tmp_path):
        ds = make_hd_dataset([[0.11, 0.52], [0.3]], [10.0, 40.0, 80.0, 120.0], 1.0, 4.0)
        save_spike_dataset(ds, tmp_path)
        back = load_spike_dataset(str(tmp_path), kind="auto")
        assert back.kind == "hd"
        assert back.n_neurons == 2
        np.testing.assert_allclose(back.neurons[0], ds.neurons[0], atol=1e-6)


def line_parser_dataset(directory, kind):
    """The dataset as the line parser reads it, split per neuron by id
    comparison: the reference for the loader's fast path."""
    n_label_fields = 2 if kind == "hd" else 3
    label_rows = spikes._read_rows(directory / "labels.csv", n_label_fields, "label")
    rows = spikes._read_rows(directory / "spikes.csv", 2, "spike")
    ids, times = rows[:, 0], rows[:, 1]
    n_neurons = int(ids.max()) + 1 if rows.size else 0
    return SpikeDataset(
        neurons=[times[ids == i] for i in range(n_neurons)],
        label_times=label_rows[:, 0],
        labels=label_rows[:, 1] if kind == "hd" else label_rows[:, 1:3],
        kind=kind,
        t_start=0.0,
        t_end=max([float(label_rows[-1, 0])] + ([float(times.max())] if rows.size else [])),
    )


FLOAT_FORMATS = [repr, "{:.6f}".format]
PADS = ["", " ", "\t "]
BLANKS = ["", "   ", "\t"]


@st.composite
def csv_session(draw):
    """Spike and label file text with the quirks the format allows: an
    optional header, blank and whitespace-only lines, whitespace around
    fields, ``repr`` and ``%.6f`` floats, ids out of order, silent neurons."""
    kind = draw(st.sampled_from(["hd", "grid"]))
    n_neurons = draw(st.integers(1, 6))
    times = st.floats(0.0, 50.0, allow_nan=False)
    ids = draw(st.lists(st.integers(0, n_neurons - 1), max_size=40))
    records = sorted((draw(times), i) for i in ids)

    def lines(rows, header):
        out = []
        if draw(st.booleans()):
            out.append(header)
        for row in rows:
            pad = draw(st.sampled_from(PADS))
            out.append(",".join(f"{pad}{field}{pad}" for field in row))
            if draw(st.integers(0, 5)) == 0:
                out.append(draw(st.sampled_from(BLANKS)))
        return "\n".join(out) + "\n"

    # One format per file for times, since mixing formats can reorder
    # them; label values take one per field.
    time_fmt = draw(st.sampled_from(FLOAT_FORMATS))
    spike_text = lines([(i, time_fmt(t)) for t, i in records], "neuron_id,spike_time_s")
    n_labels = draw(st.integers(1, 10))
    label_times = sorted(draw(st.lists(times, min_size=n_labels, max_size=n_labels)))
    n_values = 1 if kind == "hd" else 2
    values = st.floats(-400.0, 400.0, allow_nan=False)
    label_rows = [
        [time_fmt(t)]
        + [draw(st.sampled_from(FLOAT_FORMATS))(draw(values)) for _ in range(n_values)]
        for t in label_times
    ]
    header = "time_s,angle_deg" if kind == "hd" else "time_s,x_cm,y_cm"
    return kind, spike_text, lines(label_rows, header)


class TestLoadFastPath:
    @given(session=csv_session())
    @settings(max_examples=150, deadline=None)
    def test_equals_line_parser(self, session):
        kind, spike_text, label_text = session
        with tempfile.TemporaryDirectory() as tmp:
            directory = Path(tmp)
            (directory / "spikes.csv").write_text(spike_text)
            (directory / "labels.csv").write_text(label_text)
            got = load_spike_dataset(str(directory), kind=kind)
            want = line_parser_dataset(directory, kind)
        assert len(got.neurons) == len(want.neurons)
        for a, b in zip(got.neurons, want.neurons):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert got.label_times.tobytes() == want.label_times.tobytes()
        assert got.labels.shape == want.labels.shape
        assert got.labels.tobytes() == want.labels.tobytes()
        assert got.t_end == want.t_end

    @pytest.mark.parametrize("line, n_fields", [("# c", 1), ("0,0.5,", 3), ("0,0.5,1", 3)])
    def test_line_parser_errors_kept(self, tmp_path, line, n_fields):
        spike_path = tmp_path / "spikes.csv"
        spike_path.write_text(f"neuron_id,spike_time_s\n0,0.25\n{line}\n1,0.5\n")
        (tmp_path / "labels.csv").write_text("0.0,10\n1.0,20\n")
        message = f"spike file {spike_path}: line 3 has {n_fields} fields, expected 2"
        with pytest.raises(SpikeFileError, match=re.escape(message)):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_malformed_first_record_is_not_a_header(self, tmp_path):
        spike_path = tmp_path / "spikes.csv"
        spike_path.write_text("0,0.5,\n1,0.25\n")
        (tmp_path / "labels.csv").write_text("0.0,10\n1.0,20\n")
        message = f"spike file {spike_path}: line 1 has 3 fields, expected 2"
        with pytest.raises(SpikeFileError, match=re.escape(message)):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_malformed_first_label_is_not_a_header(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("0,0.5\n")
        label_path = tmp_path / "labels.csv"
        label_path.write_text("0.0,1O\n1.0,20\n")
        message = f"label file {label_path}: malformed line 1: '0.0,1O'"
        with pytest.raises(SpikeFileError, match=re.escape(message)):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_quirks_accepted_by_the_line_parser(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("0,1_0\n   \n1, 2.5\n")
        (tmp_path / "labels.csv").write_text("0.0,10\n20.0,20\n")
        ds = load_spike_dataset(str(tmp_path), kind="hd")
        assert [n.tolist() for n in ds.neurons] == [[10.0], [2.5]]

    def test_empty_spike_file_after_header(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("neuron_id,spike_time_s\n")
        (tmp_path / "labels.csv").write_text("time_s,angle_deg\n0.0,10\n1.0,20\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ds = load_spike_dataset(str(tmp_path), kind="hd")
        assert [str(w.message) for w in caught] == []
        assert ds.neurons == []
        assert ds.label_times.tolist() == [0.0, 1.0]

    def test_label_file_without_records_named(self, tmp_path):
        (tmp_path / "spikes.csv").write_text("0,0.5\n")
        (tmp_path / "labels.csv").write_text("time_s,angle_deg\n")
        with pytest.raises(ValidationError, match="empty label stream"):
            load_spike_dataset(str(tmp_path), kind="hd")

    def test_written_files_take_the_fast_path(self, tmp_path, monkeypatch):
        """Files written by ``save_spike_dataset`` never need the line parser,
        which is an order of magnitude slower."""
        ds = simulate_hd(HdSimConfig(n_neurons=6, duration=20.0, seed=2))
        save_spike_dataset(ds, tmp_path)

        def refuse(*args):
            raise AssertionError("fell back to the line parser")

        monkeypatch.setattr(spikes, "_read_rows", refuse)
        back = load_spike_dataset(str(tmp_path), kind="hd")
        assert back.n_neurons == ds.n_neurons
        for a, b in zip(back.neurons, ds.neurons):
            np.testing.assert_allclose(a, b, atol=1e-6)


class TestBinSpikes:
    def test_direct_count(self):
        ds = make_hd_dataset([[0.05, 0.12, 0.31]], [0.0, 0.0, 0.0, 0.0], 0.4)
        out = bin_spikes(ds, 0.1)
        assert out.counts.tolist() == [[1, 1, 0, 1]]

    def test_no_spikes_zero_row(self):
        ds = make_hd_dataset([[]], [0.0, 0.0], 0.4)
        assert bin_spikes(ds, 0.1).counts.tolist() == [[0, 0, 0, 0]]

    def test_interior_edge_goes_right(self):
        # half-open bins: a spike exactly on an interior edge lands right
        ds = make_hd_dataset([[0.1]], [0.0, 0.0], 0.4)
        assert bin_spikes(ds, 0.1).counts.tolist() == [[0, 1, 0, 0]]

    def test_nonpositive_t_bin(self):
        ds = make_hd_dataset([[0.1]], [0.0, 0.0], 0.4)
        with pytest.raises(ValueError):
            bin_spikes(ds, 0.0)

    def test_partial_bin_discarded_and_reported(self):
        ds = make_hd_dataset([[0.05, 0.34, 0.38]], [0.0, 0.0], 0.39)
        out = bin_spikes(ds, 0.1)
        assert out.counts.shape[1] == 3
        assert out.counts.sum() == 1
        assert out.discarded == 2

    def test_column_sums_conserve_totals(self):
        rng = np.random.default_rng(1)
        spikes = [np.sort(rng.uniform(0, 2.0, 40)), np.sort(rng.uniform(0, 2.0, 25))]
        ds = make_hd_dataset(spikes, [0.0] * 21, 2.0)
        out = bin_spikes(ds, 0.1)
        assert out.counts.sum() + out.discarded == 65
        # every column total equals the number of spikes landing in that bin
        all_times = np.concatenate(spikes)
        per_bin = np.bincount(
            np.floor(all_times / 0.1).astype(int), minlength=out.n_bins
        )[: out.n_bins]
        np.testing.assert_array_equal(out.counts.sum(axis=0), per_bin)


class TestBinarize:
    def test_worked_row(self):
        out = binarize_rows(matrix([[5, 3, 1, 1]]), 0.8)
        assert out.bits.tolist() == [[1, 1, 0, 0]]

    def test_single_nonzero_p_one(self):
        assert binarize_rows(matrix([[2, 0]]), 1.0).bits.tolist() == [[1, 0]]

    def test_zero_row_stays_zero(self):
        for p in (0.1, 0.5, 1.0):
            assert binarize_rows(matrix([[0, 0, 0]]), p).bits.tolist() == [[0, 0, 0]]

    def test_p_out_of_range(self):
        for p in (0.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                binarize_rows(matrix([[1, 2]]), p)

    def test_tie_break_prefers_earlier_bin(self):
        out = binarize_rows(matrix([[2, 3, 2, 1]]), 0.6)
        # 3 then the first of the tied 2s
        assert out.bits.tolist() == [[1, 1, 0, 0]]

    @given(
        row=st.lists(st.integers(min_value=0, max_value=50), min_size=1, max_size=30),
        p=st.sampled_from([0.3, 0.5, 0.8, 1.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_minimality_oracle(self, row, p):
        """Brute force over all m: the chosen m* is the smallest prefix of the
        descending sort reaching p * total."""
        out = binarize_rows(matrix([row]), p).bits[0]
        total = sum(row)
        if total == 0:
            assert out.sum() == 0
            return
        m_star = int(out.sum())
        ordered = sorted(row, reverse=True)
        assert sum(ordered[:m_star]) >= p * total
        for m in range(1, m_star):
            assert sum(ordered[:m]) < p * total
        # the selected bins are exactly the m* largest by (count, -index) rank
        selected = np.flatnonzero(out)
        ranks = sorted(range(len(row)), key=lambda i: (-row[i], i))
        assert sorted(ranks[:m_star]) == selected.tolist()

    @given(
        row=st.lists(st.integers(min_value=0, max_value=20), min_size=1, max_size=15),
        c=st.integers(min_value=2, max_value=9),
    )
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, row, c):
        base = binarize_rows(matrix([row]), 0.5).bits
        scaled = binarize_rows(matrix([[v * c for v in row]]), 0.5).bits
        np.testing.assert_array_equal(base, scaled)


class TestBinLabels:
    def test_circular_mean_wraps(self):
        ds = make_hd_dataset([[]], [350.0, 10.0], 0.2, label_rate=10.0)
        out = bin_labels(ds, 0.2)
        assert out.values.shape == (1,)
        assert abs(out.values[0]) < 1e-9 or abs(out.values[0] - 360.0) < 1e-9

    def test_position_mean(self):
        from topodecode.spikes import SpikeDataset

        ds = SpikeDataset(
            neurons=[np.array([])],
            label_times=np.array([0.0, 0.1]),
            labels=np.array([[1.0, 1.0], [3.0, 3.0]]),
            kind="grid",
            t_start=0.0,
            t_end=0.2,
        )
        out = bin_labels(ds, 0.2)
        np.testing.assert_allclose(out.values, [[2.0, 2.0]])

    def test_single_sample_identity(self):
        ds = make_hd_dataset([[]], [42.0, 77.0], 0.2, label_rate=10.0)
        out = bin_labels(ds, 0.1)
        np.testing.assert_allclose(out.values, [42.0, 77.0])

    def test_gap_interpolates_shortest_arc(self):
        # samples at bins 0 and 2; bin 1 interpolates across the wrap
        ds = make_hd_dataset([[]], [350.0, 10.0], 0.75, label_rate=2.0)
        out = bin_labels(ds, 0.25)
        assert out.values.shape == (3,)
        assert abs(out.values[1] - 0.0) < 1e-9 or abs(out.values[1] - 360.0) < 1e-9

    def test_empty_label_stream_rejected(self):
        from topodecode.spikes import SpikeDataset

        with pytest.raises(ValidationError):
            SpikeDataset(
                neurons=[np.array([])],
                label_times=np.array([]),
                labels=np.array([]),
                kind="hd",
                t_start=0.0,
                t_end=1.0,
            )

    def test_no_samples_in_span_rejected(self):
        # labels exist but all fall past the last full bin
        ds = make_hd_dataset([[]], [5.0, 10.0], 13.0, label_rate=0.2)
        ds.label_times = np.array([12.5])
        ds.labels = np.array([10.0])
        with pytest.raises(ValidationError):
            bin_labels(ds, 4.0)
