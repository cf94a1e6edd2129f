"""Property tests for GF(2)[z] matrices: content reduction and generator metrics.

The oracles read the entries one Poly2 at a time, so they share no code
with the mask-grid readers they check.
"""

from functools import reduce

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from sxor.codes import format_matrix, parse_matrix, user_matrix
from sxor.gf2poly import Poly2, gcd
from sxor.polymat import PolyMatrix, cancel_common_factor

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def square_poly_matrices(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, 15)
    return PolyMatrix(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)))


@PROPERTY
@given(square_poly_matrices())
def test_cancel_common_factor_keeps_the_adjugate_identity(a):
    det, adj = a.det_adjugate()
    if not det:
        with pytest.raises(ValueError):
            cancel_common_factor(det, adj)
        return
    det2, adj2 = cancel_common_factor(det, adj)
    assert a @ adj2 == PolyMatrix.identity(a.rows).scale(det2)
    assert reduce(gcd, (e for row in adj2.entries for e in row), det2) == Poly2(1)
    assert adj.scale(det2) == adj2.scale(det)


@st.composite
def user_grids(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.integers(0, 255), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    for j in draw(st.sets(st.integers(0, n - 1))):  # all-zero columns
        for row in grid:
            row[j] = 0
    return grid


@PROPERTY
@given(user_grids())
def test_user_matrix_metrics_and_round_trips(grid):
    mat = user_matrix(grid)
    cols = [[Poly2(row[j]) for row in grid] for j in range(len(grid[0]))]
    over = tuple(max((e.degree() for e in col if e), default=0) for col in cols)
    alpha = sum(max(sum(e.term_count() for e in col) - 1, 0) for col in cols)
    assert mat.column_overheads() == over
    assert tuple(mat.metrics()) == (max(over), sum(over), alpha)

    again = user_matrix(mat.entries)
    assert again == mat and hash(again) == hash(mat)
    assert parse_matrix(format_matrix(mat)) == mat
