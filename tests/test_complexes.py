import json
import pathlib
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import sparse

import oracle
from oracle import cochain_from_bin
from strategies import face_closed_complexes
from topodecode.complexes import (
    SimplicialComplex,
    build_complex,
    coactivity_matrix,
    complex_from_json,
    complex_laplacians,
    complex_to_json,
    hodge_laplacian,
    incidence_matrix,
)
from topodecode.spikes import BinaryMatrix, SpikeCountMatrix


def bits(cols):
    """Column-wise activity patterns -> BinaryMatrix."""
    return BinaryMatrix(bits=np.asarray(cols, dtype=np.int8).T, p=1.0)


class TestBuild:
    def test_three_active_makes_filled_triangle(self):
        S = build_complex(bits([[0, 1, 1, 1, 0]]), k_max=2)
        assert S.n_simplices(0) == 5
        assert S.simplices[1].tolist() == [[1, 2], [1, 3], [2, 3]]
        assert S.simplices[2].tolist() == [[1, 2, 3]]

    def test_zero_column_only_vertices(self):
        S = build_complex(bits([[0, 0, 0, 0]]), k_max=2)
        assert S.n_simplices(0) == 4
        assert S.dim == 0

    def test_cap_takes_all_faces(self):
        # 5 co-active neurons capped at dimension 2: every pair and triple
        S = build_complex(bits([[1, 1, 1, 1, 1]]), k_max=2)
        expect_edges = sorted(combinations(range(5), 2))
        expect_tris = sorted(combinations(range(5), 3))
        assert S.simplices[1].tolist() == [list(s) for s in expect_edges]
        assert S.simplices[2].tolist() == [list(s) for s in expect_tris]
        assert len(expect_tris) == 10 and len(expect_edges) == 10

    def test_column_range_restricts(self):
        m = bits([[1, 1, 0], [0, 1, 1]])
        S = build_complex(m, k_max=2, columns=range(1, 2))
        assert S.dim == 1
        assert S.simplices[1].tolist() == [[1, 2]]

    def test_determinism(self):
        rng = np.random.default_rng(5)
        m = (rng.random((10, 40)) < 0.25).astype(np.int8)
        a = build_complex(m, 2)
        b = build_complex(m, 2)
        assert a == b

    def test_out_of_range_column(self):
        with pytest.raises(ValueError):
            build_complex(bits([[1, 0]]), 2, columns=[3])

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_non_2d_matrix_rejected(self, shape):
        with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
            build_complex(np.ones(shape, dtype=np.int8), 2)

    def test_constructor_sorts_and_deduplicates(self):
        S = SimplicialComplex(3, {1: [(1, 2), (0, 1), (1, 2), (0, 2)], 2: [[0, 1, 2]]})
        assert S.simplices[1].tolist() == [[0, 1], [0, 2], [1, 2]]
        assert S.faces[2].tolist() == [[2, 1, 0]]
        assert S == SimplicialComplex(3, {1: np.array([[0, 1], [0, 2], [1, 2]]), 2: [(0, 1, 2)]})


class TestIncidence:
    def test_single_edge_column(self):
        S = SimplicialComplex(2, {1: [(0, 1)]})
        np.testing.assert_array_equal(
            incidence_matrix(S, 1).toarray(), [[-1], [1]]
        )

    def test_triangle_column_signs(self, triangle_complex):
        b2 = incidence_matrix(triangle_complex, 2).toarray()
        np.testing.assert_array_equal(b2.ravel(), [1, -1, 1])

    def test_k0_is_zero_square(self, triangle_complex):
        b0 = incidence_matrix(triangle_complex, 0)
        assert b0.shape == (3, 3)
        assert b0.nnz == 0

    def test_out_of_range(self, triangle_complex):
        with pytest.raises(ValueError):
            incidence_matrix(triangle_complex, 3)

    def test_columns_alternate_signs(self):
        rng = np.random.default_rng(9)
        m = (rng.random((9, 30)) < 0.3).astype(np.int8)
        S = build_complex(m, 2)
        for k in range(1, S.dim + 1):
            b = incidence_matrix(S, k).tocsc()
            for col, simplex in enumerate(S.simplices[k].tolist()):
                entries = b[:, col].toarray().ravel()
                assert np.count_nonzero(entries) == k + 1
                # taking rows in face order j=0..k gives +1,-1,+1,...
                for j in range(k + 1):
                    row = S.faces[k][col, j]
                    assert S.simplices[k - 1][row].tolist() == simplex[:j] + simplex[j + 1:]
                    assert entries[row] == (-1) ** j


class TestLaplacian:
    def test_triangle_l0(self, triangle_complex):
        lap = hodge_laplacian(triangle_complex, 0)
        np.testing.assert_array_equal(
            (lap.lower + lap.upper).toarray(), [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )
        assert lap.lower.nnz == 0

    def test_triangle_l1_parts(self, triangle_complex):
        lap = hodge_laplacian(triangle_complex, 1)
        np.testing.assert_array_equal(
            lap.lower.toarray(), [[2, 1, -1], [1, 2, 1], [-1, 1, 2]]
        )
        np.testing.assert_array_equal(
            lap.upper.toarray(), [[1, -1, 1], [-1, 1, -1], [1, -1, 1]]
        )
        np.testing.assert_array_equal((lap.lower + lap.upper).toarray(), 3 * np.eye(3))

    def test_top_dimension_upper_zero(self, triangle_complex):
        lap = hodge_laplacian(triangle_complex, 2)
        assert lap.upper.nnz == 0
        np.testing.assert_array_equal((lap.lower + lap.upper).toarray(), [[3]])

    def test_boundary_of_boundary_and_psd(self):
        rng = np.random.default_rng(123)
        for _ in range(25):
            n = rng.integers(3, 10)
            cols = rng.integers(5, 25)
            m = (rng.random((n, cols)) < rng.uniform(0.15, 0.5)).astype(np.int8)
            S = build_complex(m, 2)
            for k in range(1, S.dim):
                prod = incidence_matrix(S, k) @ incidence_matrix(S, k + 1)
                assert prod.nnz == 0 or not np.any(prod.toarray())
            for k in range(S.dim + 1):
                lap = hodge_laplacian(S, k)
                full = (lap.lower + lap.upper).toarray()
                np.testing.assert_array_equal(full, full.T)
                assert np.linalg.eigvalsh(full.astype(np.float64)).min() >= -1e-9

    @given(face_closed_complexes())
    @settings(max_examples=150, deadline=None)
    def test_boundary_of_a_boundary_is_zero(self, complex_and_bits):
        """B_k B_{k+1} = 0 on every face-closed complex, as exact integers."""
        S, _ = complex_and_bits
        for k in range(1, S.dim):
            prod = incidence_matrix(S, k) @ incidence_matrix(S, k + 1)
            assert prod.shape == (S.n_simplices(k - 1), S.n_simplices(k + 1))
            assert not np.any(prod.toarray())

    @given(face_closed_complexes())
    @settings(max_examples=100, deadline=None)
    def test_laplacians_keep_their_incidence_matrices(self, complex_and_bits):
        """Each Laplacian carries the B_k its lower half was built from, bit
        for bit the matrix ``incidence_matrix`` builds (None at k = 0)."""
        S, _ = complex_and_bits
        laps = complex_laplacians(S)
        assert laps[0].boundary is None
        for k in range(1, S.dim + 1):
            got, want = laps[k].boundary, incidence_matrix(S, k)
            assert got.format == want.format == "csc"
            for attr in ("indptr", "indices", "data"):
                a, b = getattr(got, attr), getattr(want, attr)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_face_closure_invariant(self):
        rng = np.random.default_rng(3)
        m = (rng.random((8, 40)) < 0.3).astype(np.int8)
        S = build_complex(m, 2)
        for k in range(1, S.dim + 1):
            lower = {tuple(s) for s in S.simplices[k - 1].tolist()}
            for s in map(tuple, S.simplices[k].tolist()):
                for j in range(len(s)):
                    assert s[:j] + s[j + 1:] in lower

    def test_unclosed_complex_rejected(self):
        with pytest.raises(ValueError):
            SimplicialComplex(3, {2: [(0, 1, 2)]})


class TestCochain:
    def _count_matrix(self, cols):
        return SpikeCountMatrix(
            counts=np.asarray(cols, dtype=np.int64).T, t_bin=0.1, t_start=0.0
        )

    def test_silent_bin_all_zero(self, triangle_complex):
        counts = self._count_matrix([[0, 0, 0], [1, 1, 1]])
        b = bits([[0, 0, 0], [1, 1, 1]])
        chains = cochain_from_bin(triangle_complex, counts, b, 0, 1)
        assert all(not np.any(c.values) for c in chains)

    def test_active_triangle_lights_up(self, triangle_complex):
        counts = self._count_matrix([[2, 3, 1]])
        b = bits([[1, 1, 1]])
        chains = cochain_from_bin(triangle_complex, counts, b, 0, 1)
        np.testing.assert_array_equal(chains[0].values.ravel(), [2, 3, 1])
        # brute-force oracle: a simplex is active iff all its vertices are
        column = b.bits[:, 0]
        for c in chains[1:]:
            for i, s in enumerate(triangle_complex.simplices[c.k]):
                expect = 1.0 if all(column[v] for v in s) else 0.0
                assert c.values[i, 0] == expect
        assert chains[2].values[0, 0] == 1.0
        assert chains[1].values.sum() == 3.0

    def test_n_col_three_raw_columns(self, triangle_complex):
        counts = self._count_matrix([[1, 0, 0], [0, 2, 0], [0, 0, 3]])
        b = bits([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        chains = cochain_from_bin(triangle_complex, counts, b, 0, 3)
        assert chains[0].values.shape == (3, 3)
        np.testing.assert_array_equal(chains[0].values, counts.counts[:, 0:3])

    def test_range_overflow(self, triangle_complex):
        counts = self._count_matrix([[1, 1, 1]])
        b = bits([[1, 1, 1]])
        with pytest.raises(ValueError):
            cochain_from_bin(triangle_complex, counts, b, 0, 2)


class TestCoactivity:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_vertex_count_oracle(self, seed):
        """The AND of vertex bit rows equals the membership matmul form on
        random complexes, at every dimension and one past the top, which has
        no simplices, including bins the complex was not built from."""
        rng = np.random.default_rng(seed)
        n, n_bins, k_max = int(rng.integers(1, 10)), 40, int(rng.integers(1, 4))
        m = (rng.random((n, n_bins)) < rng.uniform(0.2, 0.7)).astype(np.int8)
        S = build_complex(m, k_max, range(n_bins // 2))
        for k in range(k_max + 2):
            got = coactivity_matrix(S, m, k)
            want = oracle.coactivity_matrix(S, m, k)
            assert got.dtype == np.int8
            assert got.shape == (S.n_simplices(k), n_bins)
            assert np.array_equal(got, want)

    def test_one_neuron_complex(self):
        S = SimplicialComplex(1, {})
        m = np.array([[0, 1, 1, 0]], dtype=np.int8)
        assert np.array_equal(coactivity_matrix(S, m, 0), m)
        empty = coactivity_matrix(S, m, 1)
        assert empty.shape == (0, 4) and empty.dtype == np.int8
        assert np.array_equal(empty, oracle.coactivity_matrix(S, m, 1))


LEGACY_COMPLEX = pathlib.Path(__file__).parent / "data" / "legacy_scrnn" / "complex.json"


def dump(n_vertices, simplices):
    """A ``complex_to_json``-shaped payload without incidence entries."""
    return {"n_vertices": n_vertices, "simplices": simplices}


class TestExport:
    def test_json_roundtrip(self):
        rng = np.random.default_rng(17)
        m = (rng.random((7, 30)) < 0.3).astype(np.int8)
        S = build_complex(m, 2)
        back = complex_from_json(complex_to_json(S))
        assert back == S

    def test_json_contains_triples(self, triangle_complex):
        payload = json.loads(complex_to_json(triangle_complex))
        assert payload["n_vertices"] == 3
        assert payload["simplices"]["2"] == [[0, 1, 2]]
        assert "incidence" not in payload

    def test_legacy_dump_with_incidence_loads(self):
        """An older dump's incidence block is ignored: it loads to the
        complex its re-dump, which has no such block, loads to."""
        text = LEGACY_COMPLEX.read_text()
        assert "incidence" in json.loads(text)
        S = complex_from_json(text)
        assert complex_from_json(complex_to_json(S)) == S

    @pytest.mark.parametrize(
        "payload, message",
        [
            (dump(3, {"1": [[1, 0]]}), "simplex vertices not strictly ascending: (1, 0)"),
            (dump(3, {"1": [[0, 1, 2]]}), "simplex (0, 1, 2) stored at wrong dimension 1"),
            (dump(3, {"1": [[0, 3]]}), "simplex (0, 3) has out-of-range vertices"),
            (dump(3, {"2": [[0, 1, 2]]}),
             "complex not closed under faces: (0, 1, 2) lacks (1, 2)"),
            (dump(3, {"1": [[0, 1.7]]}), "simplex (0, 1.7) has non-integer vertices"),
            (dump(3, {"1": [[False, True]]}), "simplex (False, True) has non-integer vertices"),
            (dump(3, {"1": [[0, 1], [0, True]]}), "simplex (0, True) has non-integer vertices"),
            (dump(3, {"1": [[0, "1"]]}), "simplex (0, '1') has non-integer vertices"),
            (dump(3, {"1": [[0, 2**64]]}), f"simplex (0, {2**64}) has out-of-range vertices"),
            (dump(2.5, {}), "n_vertices must be an integer, got 2.5"),
            (dump(False, {}), "n_vertices must be an integer, got False"),
            (dump(3, {"1": [5]}), "simplex 5 at dimension 1 is not a list of vertices"),
            (dump(3, {"1": [[0, 1], "01"]}),
             "simplex '01' at dimension 1 is not a list of vertices"),
            (dump(3, {"1": 5}), "complex dump's dimension 1 is not a list of simplices"),
            ({"simplices": {"1": [[0, 1]]}}, "complex dump has no n_vertices"),
            (dump(3, {"x": [[0, 1]]}),
             "complex dump has dimension key 'x', expected an integer >= 1"),
            (dump(3, {"0": [[0]]}),
             "complex dump has dimension key '0', expected an integer >= 1"),
            (dump(3, [[0, 1]]),
             "complex dump's simplices must be an object keyed by dimension, got list"),
            ([3, {"1": [[0, 1]]}], "complex dump must be a JSON object, got list"),
        ],
        ids=[
            "descending", "wrong_dimension", "out_of_range", "missing_faces",
            "float_vertex", "bool_vertices", "bool_among_ints", "str_vertex", "huge_vertex",
            "float_n_vertices", "bool_n_vertices", "bare_number_simplex", "string_simplex",
            "bare_number_dimension", "no_n_vertices", "non_integer_key", "zero_key",
            "list_of_simplices", "top_level_list",
        ],
    )
    def test_invalid_json_complex_rejected(self, payload, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            complex_from_json(json.dumps(payload))


class TestOracle:
    @given(face_closed_complexes())
    @settings(max_examples=150, deadline=None)
    def test_arrays_match_tuple_construction(self, complex_and_bits):
        """The array complex equals the one built and indexed a simplex at
        a time: its simplex rows, its face rows, every incidence matrix bit
        for bit, and the ``complex.json`` text."""
        S, m = complex_and_bits
        want = oracle.build_simplices(m, max(S.dim, 1))
        assert sorted(S.simplices) == [0] + sorted(want)
        assert sorted(S.faces) == sorted(want)
        for k, rows in S.simplices.items():
            assert not rows.flags.writeable
            if k:
                assert [tuple(s) for s in rows.tolist()] == want[k]
                assert S.faces[k].dtype == np.intp and not S.faces[k].flags.writeable
                np.testing.assert_array_equal(S.faces[k], oracle.faces(S, k))
                got, ref = incidence_matrix(S, k), oracle.incidence_matrix(S, k)
                for attr in ("indptr", "indices", "data"):
                    a, b = getattr(got, attr), getattr(ref, attr)
                    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        assert complex_to_json(S) == oracle.complex_to_json(S)
