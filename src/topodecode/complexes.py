"""Functional simplicial complexes built from binarized spike matrices.

Each binarized column with ``n_act`` co-active neurons contributes the
simplex on those neurons (or all its faces of the capped dimension when
``n_act - 1`` exceeds the cap), closed under faces. Simplices are stored
with strictly ascending vertex indices, which fixes the orientation used by
the signed incidence matrices; the j-th face (vertex j removed) carries
sign ``(-1)**j``. A complex is held only as arrays, its simplex rows and
face rows per dimension, built and checked once on construction.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import chain, combinations

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


def _is_integer(kind: type) -> bool:
    return issubclass(kind, (int, np.integer)) and not issubclass(kind, (bool, np.bool_))


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One byte-string key per row of big-endian int64s, whose byte order
    is the rows' lexicographic order (for non-negative entries)."""
    be = np.ascontiguousarray(rows, dtype=">i8")
    return be.view(np.dtype((np.void, be.itemsize * be.shape[1]))).reshape(-1)


def _vertex_rows(k: int, simplices) -> np.ndarray:
    """The k-simplices as an ``(N, k+1)`` intp array; names a simplex that
    is no vertex list, has a wrong vertex count or a vertex that is no
    integer or exceeds intp."""
    if isinstance(simplices, np.ndarray) and simplices.dtype.kind in "iu":
        return simplices.astype(np.intp, copy=False).reshape(len(simplices), k + 1)
    simplices = list(simplices)
    flat = next((s for s in simplices if not isinstance(s, (list, tuple, np.ndarray))), None)
    if flat is not None:
        raise ValueError(f"simplex {flat!r} at dimension {k} is not a list of vertices")
    if not all(map(_is_integer, set(map(type, chain.from_iterable(simplices))))):
        bad = next(s for s in simplices if not all(_is_integer(type(v)) for v in s))
        raise ValueError(f"simplex {tuple(bad)} has non-integer vertices")
    wrong = next((s for s in simplices if len(s) != k + 1), None)
    if wrong is not None:
        raise ValueError(f"simplex {tuple(map(int, wrong))} stored at wrong dimension {k}")
    try:
        return np.array(simplices, dtype=np.intp).reshape(len(simplices), k + 1)
    except OverflowError:
        big = next(s for s in simplices if max(map(abs, s)) > np.iinfo(np.intp).max)
        raise ValueError(f"simplex {tuple(big)} has out-of-range vertices") from None


def _face_rows(rows, lower_keys):
    """``faces[k]`` of the sorted k-simplex rows, each face looked up among
    the sorted (k-1)-simplex keys; rejects the first simplex lacking one."""
    k = rows.shape[1] - 1
    drop = [[c for c in range(k + 1) if c != j] for j in range(k + 1)]
    face_keys = _row_keys(rows[:, drop].reshape(-1, k))
    found = np.searchsorted(lower_keys, face_keys)
    missing = found == len(lower_keys)
    missing[~missing] = lower_keys[found[~missing]] != face_keys[~missing]
    if missing.any():
        i, j = divmod(int(np.argmax(missing)), k + 1)
        s = tuple(map(int, rows[i]))
        raise ValueError(f"complex not closed under faces: {s} lacks {s[:j] + s[j + 1:]}")
    return found.reshape(-1, k + 1)


class SimplicialComplex:
    """Face-closed collection of simplices, held as read-only intp arrays.

    All ``n_vertices`` neurons appear as 0-simplices even when silent.
    ``simplices[k]`` holds one ``(k+1)``-vertex row per k-simplex, sorted
    lexicographically; the row number is the simplex's index. For k >= 1,
    ``faces[k][i, j]`` is the row in ``simplices[k - 1]`` of simplex i's
    face without vertex j. Only dimensions with simplices have keys. Input
    rows may come in any order and repeat; a set that is not a face-closed
    complex on ``n_vertices`` vertices is rejected, naming a simplex.
    """

    def __init__(self, n_vertices: int, simplices: dict):
        if not _is_integer(type(n_vertices)):
            raise ValueError(f"n_vertices must be an integer, got {n_vertices!r}")
        if n_vertices < 1:
            raise ValueError("complex needs at least one vertex")
        self.n_vertices = int(n_vertices)
        self.simplices = {0: np.arange(self.n_vertices, dtype=np.intp).reshape(-1, 1)}
        self.faces = {}
        keys = {0: _row_keys(self.simplices[0])}
        for k in sorted(set(simplices) - {0}):
            rows = _vertex_rows(k, simplices[k])
            if not rows.size:
                continue
            keys[k], first = np.unique(_row_keys(rows), return_index=True)
            rows = self.simplices[k] = rows[first]
            ascending = np.all(rows[:, 1:] > rows[:, :-1], axis=1)
            inside = (rows[:, 0] >= 0) & (rows[:, -1] < self.n_vertices)
            if not ascending.all():
                s = tuple(map(int, rows[np.argmin(ascending)]))
                raise ValueError(f"simplex vertices not strictly ascending: {s}")
            if not inside.all():
                s = tuple(map(int, rows[np.argmin(inside)]))
                raise ValueError(f"simplex {s} has out-of-range vertices")
            self.faces[k] = _face_rows(rows, keys.get(k - 1, _row_keys(np.empty((0, k)))))
        for arr in (*self.simplices.values(), *self.faces.values()):
            arr.setflags(write=False)

    @property
    def dim(self) -> int:
        """Largest dimension with at least one simplex."""
        return max(self.simplices)

    def n_simplices(self, k: int) -> int:
        return len(self.simplices[k]) if k in self.simplices else 0

    @property
    def total_simplices(self) -> int:
        return sum(len(v) for v in self.simplices.values())

    def __eq__(self, other):
        return (
            isinstance(other, SimplicialComplex)
            and self.simplices.keys() == other.simplices.keys()
            and all(np.array_equal(v, other.simplices[k]) for k, v in self.simplices.items())
        )


def _column_patterns(bits):
    """The distinct columns of a 0/1 matrix in lexicographic order, as
    ``(first, pattern_of_bin)``, which ``np.unique(bits, axis=1,
    return_index=True, return_inverse=True)`` also gives. Each column is
    packed into one byte-string key whose byte order is the columns'
    lexicographic order, so one 1-D ``np.unique`` does the work."""
    packed = np.packbits(np.asarray(bits, dtype=bool), axis=0).T.copy()
    keys = packed.view(np.dtype((np.void, packed.shape[1]))).reshape(-1)
    _, first, pattern_of_bin = np.unique(keys, return_index=True, return_inverse=True)
    return first, pattern_of_bin.reshape(-1)


def build_complex(bits, k_max: int, columns=None) -> SimplicialComplex:
    """Build the complex from a binarized matrix (or its ``bits`` array).

    For every column restricted to ``columns`` (an iterable of column
    indices; default all), the active (nonzero) neurons contribute every
    sub-simplex up to dimension ``k_max``; activity sets larger than
    ``k_max + 1`` are represented by all their ``k_max``-dimensional faces.
    Only distinct columns are enumerated, those with the same number of
    active neurons in one gather per simplex size.
    """
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    matrix = np.asarray(getattr(bits, "bits", bits))
    if matrix.ndim != 2:
        raise ValueError(f"activity matrix must be 2-D (neurons x bins), got shape {matrix.shape}")
    n_neurons, n_bins = matrix.shape
    cols = np.arange(n_bins) if columns is None else np.asarray(list(columns))
    if cols.size and cols.dtype.kind not in "iu":
        raise ValueError(f"column indices must be integers, got dtype {cols.dtype}")
    outside = (cols < 0) | (cols >= n_bins)
    if outside.any():
        raise ValueError(f"column {cols[outside][0]} outside matrix with {n_bins} bins")
    seen = matrix[:, cols.astype(np.intp)]
    patterns = seen[:, _column_patterns(seen)[0]].T != 0
    n_act = patterns.sum(axis=1)
    found: dict[int, list[np.ndarray]] = {k: [] for k in range(1, k_max + 1)}
    for n in np.unique(n_act[n_act >= 2]):
        active = np.nonzero(patterns[n_act == n])[1].reshape(-1, n)
        for size in range(2, min(n, k_max + 1) + 1):
            subsets = np.array(list(combinations(range(n), size)), dtype=np.intp)
            found[size - 1].append(active[:, subsets].reshape(-1, size))
    return SimplicialComplex(n_neurons, {k: np.concatenate(v) for k, v in found.items() if v})


def incidence_matrix(S: SimplicialComplex, k: int) -> sparse.csc_matrix:
    """Signed face-of relation between (k-1)- and k-simplices.

    Column i holds ``(-1)**j`` on row ``faces[k][i, j]``. The entries are
    handed to scipy simplex by simplex, face j ascending; that order fixes
    the CSC layout and so the summation order of products with the matrix.
    ``k=0`` returns the zero matrix of shape (N_0, N_0).
    """
    if not 0 <= k <= S.dim:
        raise ValueError(f"dimension {k} outside [0, {S.dim}]")
    if k == 0:
        return sparse.csc_matrix((S.n_vertices, S.n_vertices), dtype=np.int64)
    n_k = S.n_simplices(k)
    signs = np.tile((-1) ** np.arange(k + 1, dtype=np.int64), n_k)
    cols = np.repeat(np.arange(n_k), k + 1)
    shape = (S.n_simplices(k - 1), n_k)
    return sparse.csc_matrix((signs, (S.faces[k].reshape(-1), cols)), shape=shape, dtype=np.int64)


@dataclass
class HodgeLaplacian:
    """Lower and upper halves of the Laplacian at dimension k, each sparse
    symmetric integer; the Laplacian is their sum. ``boundary`` is the
    incidence matrix B_k the lower half was built from (None at k = 0)."""

    k: int
    lower: sparse.csr_matrix
    upper: sparse.csr_matrix
    boundary: sparse.csc_matrix | None = None


def hodge_laplacian(S: SimplicialComplex, k: int) -> HodgeLaplacian:
    """Hodge Laplacian at dimension k: B_k^T B_k + B_{k+1} B_{k+1}^T."""
    if not 0 <= k <= S.dim:
        raise ValueError(f"dimension {k} outside [0, {S.dim}]")
    return complex_laplacians(S)[k]


def complex_laplacians(S: SimplicialComplex) -> dict[int, HodgeLaplacian]:
    """All Hodge Laplacians of a complex, keyed by dimension, from one
    build of each incidence matrix. B_0 and the boundary above the top
    dimension are zero, so their halves are built as zero matrices."""
    b = {k: incidence_matrix(S, k) for k in range(1, S.dim + 1)}
    laps = {}
    for k in range(S.dim + 1):
        zero = sparse.csr_matrix((S.n_simplices(k),) * 2, dtype=np.int64)
        lower = (b[k].T @ b[k]).tocsr() if k in b else zero
        upper = (b[k + 1] @ b[k + 1].T).tocsr() if k + 1 in b else zero.copy()
        laps[k] = HodgeLaplacian(k=k, lower=lower, upper=upper, boundary=b.get(k))
    return laps


def coactivity_matrix(S: SimplicialComplex, bits: np.ndarray, k: int) -> np.ndarray:
    """Per-bin indicator (N_k x N_b, int8): 1 where every vertex of the
    k-simplex is active in the bin (nonzero bit = active), else 0. A
    dimension without simplices gives shape ``(0, N_b)``."""
    active = np.asarray(bits) != 0
    vertices = S.simplices.get(k, np.empty((0, k + 1), dtype=np.intp))
    out = active[vertices[:, 0]]
    for j in range(1, k + 1):
        out &= active[vertices[:, j]]
    return out.view(np.int8)


def complex_to_json(S: SimplicialComplex) -> str:
    """Dump the vertex count and the simplex lists of each dimension >= 1;
    faces and incidence matrices follow from them."""
    return json.dumps({
        "n_vertices": S.n_vertices,
        "simplices": {str(k): S.simplices[k].tolist() for k in range(1, S.dim + 1)},
    })


def complex_from_json(text: str) -> SimplicialComplex:
    """The complex of a ``complex_to_json`` dump, from its simplex lists;
    a dump of any other shape is rejected, naming what is wrong. Any other
    key, such as the ``incidence`` block older dumps hold, is ignored."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError(f"complex dump must be a JSON object, got {type(payload).__name__}")
    if "n_vertices" not in payload:
        raise ValueError("complex dump has no n_vertices")
    lists = payload.get("simplices", {})
    if not isinstance(lists, dict):
        raise ValueError(
            f"complex dump's simplices must be an object keyed by dimension, "
            f"got {type(lists).__name__}"
        )
    simplices = {}
    for key, rows in lists.items():
        if not (key.isdecimal() and int(key) >= 1):
            raise ValueError(f"complex dump has dimension key {key!r}, expected an integer >= 1")
        if not isinstance(rows, list):
            raise ValueError(f"complex dump's dimension {key} is not a list of simplices")
        simplices[int(key)] = rows
    return SimplicialComplex(payload["n_vertices"], simplices)
