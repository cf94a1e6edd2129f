"""Property tests for GF(2^m) exponentiation and the Gauss-Jordan inverse.

The oracle for FieldMatrix.inverse is the polynomial adjugate: it runs on
GF(2)[z] minors and shares no arithmetic with the field's mask helpers.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from sxor.gf2m import DEFAULT_MODULI, FieldCtx
from sxor.polymat import FieldMatrix, Singular

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

CTXS = [FieldCtx(DEFAULT_MODULI[m]) for m in range(1, 9)]
contexts = st.sampled_from(CTXS)


@st.composite
def square_matrices(draw):
    ctx = draw(contexts)
    n = draw(st.integers(1, 5))
    cell = st.integers(0, ctx.order)
    rows = draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n))
    return ctx, FieldMatrix([[ctx.elem(v) for v in row] for row in rows])


@PROPERTY
@given(square_matrices())
def test_inverse_agrees_with_adjugate(case):
    ctx, mat = case
    det, adj = mat.to_poly().det_adjugate()
    det_f = ctx.elem(det)
    if not det_f:
        with pytest.raises(Singular):
            mat.inverse()
        return
    inv = mat.inverse()
    for adj_row, inv_row in zip(adj.entries, inv.entries):
        for a, b in zip(adj_row, inv_row):
            assert ctx.elem(a) == b * det_f
    ident = FieldMatrix.identity(ctx, mat.rows)
    assert mat @ inv == ident
    assert inv @ mat == ident


@PROPERTY
@given(st.data())
def test_pow_matches_repeated_multiplication(data):
    ctx = data.draw(contexts)
    a = ctx.elem(data.draw(st.integers(0, ctx.order)))
    n = data.draw(st.integers(-(1 << ctx.m), 1 << ctx.m))
    if not a and n < 0:
        with pytest.raises(ZeroDivisionError):
            a ** n
        with pytest.raises(ZeroDivisionError):
            a.inverse()
        return
    if a:
        assert a * a.inverse() == ctx.one
    base = a if n >= 0 else a.inverse()
    expected = ctx.one
    for _ in range(abs(n)):
        expected = expected * base
    assert a ** n == expected


@PROPERTY
@given(contexts, st.integers(max_value=-1))
def test_z_pow_of_negative_exponent(ctx, e):
    assert ctx.z_pow(e) == ctx.z_pow(e % ctx.order)
    assert ctx.z_pow(e) * ctx.z_pow(-e) == ctx.one
