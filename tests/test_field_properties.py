"""Property tests for GF(2^m) exponentiation, the Gauss-Jordan inverse and
the closed-form systematic generator.

The oracle for FieldMatrix.inverse is the polynomial adjugate: it runs on
GF(2)[z] minors and shares no arithmetic with the field's mask helpers.
The inverse and the matrix product are in turn the oracle for
build_systematic_sxor, which reads G = V_x**-1 * V off Zech-log tables,
and vandermonde is the oracle for build_sxor, which reads V off the table
of powers of z.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from sxor.codes import build_sxor, build_systematic_sxor
from sxor.gf2m import DEFAULT_MODULI, FieldCtx, FieldElem, is_primitive
from sxor.polymat import FieldMatrix, PolyMatrix, Singular, vandermonde

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
    return ctx, FieldMatrix([[FieldElem(ctx, v) for v in row] for row in rows])


@PROPERTY
@given(square_matrices())
def test_inverse_agrees_with_adjugate(case):
    ctx, mat = case
    det, adj = PolyMatrix(mat._masks).det_adjugate()
    det_f = FieldElem(ctx, divmod(det, ctx.g)[1].mask)
    if not det_f:
        with pytest.raises(Singular):
            mat.inverse()
        return
    inv = mat.inverse()
    for adj_row, inv_row in zip(adj.entries, inv.entries):
        for a, b in zip(adj_row, inv_row):
            assert divmod(a, ctx.g)[1] == (b * det_f).value
    ident = FieldMatrix.identity(ctx, mat.rows)
    assert mat @ inv == ident
    assert inv @ mat == ident


@PROPERTY
@given(st.data())
def test_pow_matches_repeated_multiplication(data):
    ctx = data.draw(contexts)
    a = FieldElem(ctx, data.draw(st.integers(0, ctx.order)))
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


# Every primitive polynomial of degree 1..8 (52 of them), not only the
# built-in ones, so the Zech tables are checked over many fields.
PRIMITIVE = [g for m in range(1, 9) for g in range(1 << m, 2 << m) if is_primitive(g, m)]


def _by_inverse(k, n, g, x):
    v = vandermonde(FieldCtx(g), k, n)
    return (v.columns([j - 1 for j in x]).inverse() @ v)._masks


@settings(PROPERTY, max_examples=100)
@given(st.data())
def test_systematic_closed_form_matches_inverse_times_vandermonde(data):
    g = data.draw(st.sampled_from(PRIMITIVE))
    order = (1 << (g.bit_length() - 1)) - 1
    n = data.draw(st.integers(1, min(order, 40)))
    k = data.draw(st.integers(1, min(n, 32)))
    x = data.draw(st.permutations(range(1, n + 1)))[:k]  # any order: rows follow x
    assert build_systematic_sxor(k, n, g, x)._masks == _by_inverse(k, n, g, x)
    assert build_sxor(k, n, g)._masks == vandermonde(FieldCtx(g), k, n)._masks


def test_systematic_closed_form_matches_inverse_at_m16():
    x = tuple(range(64, 0, -2))
    assert build_systematic_sxor(32, 64, DEFAULT_MODULI[16], x)._masks == \
        _by_inverse(32, 64, DEFAULT_MODULI[16], x)
    assert build_sxor(32, 64, DEFAULT_MODULI[16])._masks == \
        vandermonde(FieldCtx(DEFAULT_MODULI[16]), 32, 64)._masks
