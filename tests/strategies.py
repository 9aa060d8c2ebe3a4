"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from topodecode.complexes import build_complex


@st.composite
def activity_columns(draw, max_vertices=7, max_cols=14):
    """A 0/1 int8 matrix of shape (n_vertices, n_cols)."""
    n = draw(st.integers(1, max_vertices))
    n_cols = draw(st.integers(1, max_cols))
    flat = draw(st.lists(st.booleans(), min_size=n * n_cols, max_size=n * n_cols))
    return np.array(flat, dtype=np.int8).reshape(n, n_cols)


@st.composite
def face_closed_complexes(draw, max_vertices=7, max_cols=14):
    """``(complex, bits)``: the complex that ``build_complex`` makes from a
    random activity matrix at a random dimension cap of 1 to 3, and the
    matrix itself."""
    bits = draw(activity_columns(max_vertices, max_cols))
    return build_complex(bits, draw(st.integers(1, 3))), bits
