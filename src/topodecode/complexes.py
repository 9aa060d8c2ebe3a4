"""Functional simplicial complexes built from binarized spike matrices.

Each binarized column with ``n_act`` co-active neurons contributes the
simplex on those neurons (or all its faces of the capped dimension when
``n_act - 1`` exceeds the cap), closed under faces. Simplices are stored
with strictly ascending vertex indices, which fixes the orientation used by
the signed incidence matrices; the j-th face (vertex j removed) carries
sign ``(-1)**j``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy import sparse

__all__ = [
    "SimplicialComplex",
    "HodgeLaplacian",
    "build_complex",
    "incidence_matrix",
    "hodge_laplacian",
    "complex_laplacians",
    "coactivity_matrix",
    "complex_to_json",
    "complex_from_json",
]


class SimplicialComplex:
    """Face-closed collection of simplices with deterministic indexing.

    All ``n_vertices`` neurons appear as 0-simplices even when silent.
    Per dimension, simplices are sorted lexicographically by vertex tuple.
    """

    def __init__(self, n_vertices: int, simplices: dict[int, list[tuple[int, ...]]]):
        if n_vertices < 1:
            raise ValueError("complex needs at least one vertex")
        self.n_vertices = n_vertices
        store: dict[int, list[tuple[int, ...]]] = {
            0: [(i,) for i in range(n_vertices)]
        }
        for k in sorted(simplices):
            if k == 0:
                continue
            uniq = sorted(set(tuple(int(v) for v in s) for s in simplices[k]))
            if not uniq:
                continue
            store[k] = uniq
        self.simplices = store
        self.index: dict[int, dict[tuple[int, ...], int]] = {
            k: {s: i for i, s in enumerate(lst)} for k, lst in store.items()
        }
        self._validate()
        self._incidence: dict[int, sparse.csc_matrix] = {}
        self._vertices: dict[int, np.ndarray] = {}

    def _validate(self):
        for k, lst in self.simplices.items():
            for s in lst:
                if len(s) != k + 1:
                    raise ValueError(f"simplex {s} stored at wrong dimension {k}")
                if any(a >= b for a, b in zip(s, s[1:])):
                    raise ValueError(f"simplex vertices not strictly ascending: {s}")
                if s[0] < 0 or s[-1] >= self.n_vertices:
                    raise ValueError(f"simplex {s} has out-of-range vertices")
                if k >= 1:
                    lower = self.index.get(k - 1, {})
                    for j in range(len(s)):
                        face = s[:j] + s[j + 1:]
                        if face not in lower:
                            raise ValueError(
                                f"complex not closed under faces: {s} lacks {face}"
                            )

    @property
    def dim(self) -> int:
        """Largest dimension with at least one simplex."""
        return max(self.simplices)

    def n_simplices(self, k: int) -> int:
        return len(self.simplices.get(k, ()))

    @property
    def total_simplices(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.n_vertices == other.n_vertices
            and self.simplices == other.simplices
        )


def build_complex(bits, k_max: int, columns=None) -> SimplicialComplex:
    """Build the complex from a binarized matrix (or its ``bits`` array).

    For every column restricted to ``columns`` (an iterable of column
    indices; default all), the active neurons contribute every sub-simplex
    up to dimension ``k_max``; activity sets larger than ``k_max + 1`` are
    represented by all their ``k_max``-dimensional faces.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    matrix = np.asarray(getattr(bits, "bits", bits))
    n_neurons, n_bins = matrix.shape
    if columns is None:
        columns = range(n_bins)
    found: dict[int, set[tuple[int, ...]]] = {k: set() for k in range(1, k_max + 1)}
    for j in columns:
        if not 0 <= j < n_bins:
            raise ValueError(f"column {j} outside matrix with {n_bins} bins")
        active = np.flatnonzero(matrix[:, j])
        n_act = active.size
        if n_act <= 1:
            continue
        active = [int(v) for v in active]
        for size in range(2, min(n_act, k_max + 1) + 1):
            found[size - 1].update(combinations(active, size))
    return SimplicialComplex(
        n_neurons, {k: sorted(v) for k, v in found.items() if v}
    )


def incidence_matrix(S: SimplicialComplex, k: int) -> sparse.csc_matrix:
    """Signed face-of relation between (k-1)- and k-simplices.

    Column j of the result holds the alternating signs ``(-1)**i`` on the
    rows of the i-th faces of the j-th k-simplex. ``k=0`` returns the zero
    matrix of shape (N_0, N_0).
    """
    if not 0 <= k <= S.dim:
        raise ValueError(f"dimension {k} outside [0, {S.dim}]")
    if k in S._incidence:
        return S._incidence[k]
    if k == 0:
        n0 = S.n_vertices
        mat = sparse.csc_matrix((n0, n0), dtype=np.int64)
    else:
        rows, cols, vals = [], [], []
        face_index = S.index[k - 1]
        for col, simplex in enumerate(S.simplices[k]):
            for j in range(len(simplex)):
                face = simplex[:j] + simplex[j + 1:]
                rows.append(face_index[face])
                cols.append(col)
                vals.append((-1) ** j)
        mat = sparse.csc_matrix(
            (vals, (rows, cols)),
            shape=(S.n_simplices(k - 1), S.n_simplices(k)),
            dtype=np.int64,
        )
    S._incidence[k] = mat
    return mat


@dataclass
class HodgeLaplacian:
    """Lower and upper halves of the Laplacian at dimension k, each sparse
    symmetric integer; the Laplacian is their sum."""

    k: int
    lower: sparse.csr_matrix
    upper: sparse.csr_matrix


def hodge_laplacian(S: SimplicialComplex, k: int) -> HodgeLaplacian:
    """Hodge Laplacian at dimension k: B_k^T B_k + B_{k+1} B_{k+1}^T.

    The boundary above the top dimension is treated as zero, as is B_0.
    """
    if not 0 <= k <= S.dim:
        raise ValueError(f"dimension {k} outside [0, {S.dim}]")
    n_k = S.n_simplices(k)
    if k >= 1:
        b_k = incidence_matrix(S, k)
        lower = (b_k.T @ b_k).tocsr()
    else:
        lower = sparse.csr_matrix((n_k, n_k), dtype=np.int64)
    if k < S.dim:
        b_up = incidence_matrix(S, k + 1)
        upper = (b_up @ b_up.T).tocsr()
    else:
        upper = sparse.csr_matrix((n_k, n_k), dtype=np.int64)
    return HodgeLaplacian(k=k, lower=lower, upper=upper)


def complex_laplacians(S: SimplicialComplex) -> dict[int, HodgeLaplacian]:
    """All Hodge Laplacians of a complex, keyed by dimension."""
    return {k: hodge_laplacian(S, k) for k in range(S.dim + 1)}


def coactivity_matrix(S: SimplicialComplex, bits: np.ndarray, k: int) -> np.ndarray:
    """Per-bin indicator (N_k x N_b, int8): 1 where every vertex of the
    k-simplex is active in the bin (nonzero bit = active), else 0. A
    dimension without simplices gives shape ``(0, N_b)``."""
    active = np.asarray(bits) != 0
    vertices = S._vertices.get(k)
    if vertices is None:
        # The (N_k, k+1) vertex array, built from the tuple list once.
        vertices = np.array(S.simplices.get(k, ()), dtype=np.intp).reshape(-1, k + 1)
        vertices.setflags(write=False)
        S._vertices[k] = vertices
    out = active[vertices[:, 0]]
    for j in range(1, k + 1):
        out &= active[vertices[:, j]]
    return out.view(np.int8)


def complex_to_json(S: SimplicialComplex) -> str:
    """Dump simplex lists and signed incidence triples for inspection."""
    payload = {
        "n_vertices": S.n_vertices,
        "simplices": {
            str(k): [list(s) for s in S.simplices[k]]
            for k in sorted(S.simplices)
            if k >= 1
        },
        "incidence": {},
    }
    for k in range(1, S.dim + 1):
        mat = incidence_matrix(S, k).tocoo()
        payload["incidence"][str(k)] = {
            "shape": list(mat.shape),
            "entries": [
                [int(r), int(c), int(v)]
                for r, c, v in zip(mat.row, mat.col, mat.data)
            ],
        }
    return json.dumps(payload)


def complex_from_json(text: str) -> SimplicialComplex:
    payload = json.loads(text)
    simplices = {
        int(k): [tuple(s) for s in lst]
        for k, lst in payload.get("simplices", {}).items()
    }
    return SimplicialComplex(int(payload["n_vertices"]), simplices)
