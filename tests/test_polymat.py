"""Tests for field matrices, polynomial matrices and the adjugate identity."""

import random

import pytest

from sxor.gf2m import FieldCtx, FieldElem
from sxor.gf2poly import Poly2
from sxor.polymat import FieldMatrix, PolyMatrix, Singular, cancel_common_factor, vandermonde


CTX8 = FieldCtx(0xB)

# 3x3 columns 4..6 of the fixed zigzag code, as coefficient masks.
ZD_COLS = PolyMatrix([[1, 2, 2],
                      [2, 1, 2],
                      [2, 2, 1]])

# Its content-reduced inverse numerator: diagonal z+1, off-diagonal z.
ZD_B = PolyMatrix([[3, 2, 2],
                   [2, 3, 2],
                   [2, 2, 3]])


def field_masks(mat):
    return [[e.value.mask for e in row] for row in mat.entries]


def poly_masks(mat):
    return [[e.mask for e in row] for row in mat.entries]


def rand_poly_matrix(rng, n, max_deg=3):
    return PolyMatrix([[Poly2(rng.getrandbits(max_deg + 1)) for _ in range(n)]
                       for _ in range(n)])


def test_vandermonde_single_row():
    v = vandermonde(CTX8, 1, 7)
    assert field_masks(v) == [[1] * 7]


def test_vandermonde_3x7():
    v = vandermonde(CTX8, 3, 7)
    assert field_masks(v) == [
        [1, 1, 1, 1, 1, 1, 1],
        [1, 2, 4, 3, 6, 7, 5],
        [1, 4, 6, 5, 2, 3, 7],
    ]


def test_vandermonde_bounds():
    with pytest.raises(ValueError):
        vandermonde(CTX8, 4, 3)
    with pytest.raises(ValueError):
        vandermonde(CTX8, 3, 8)  # only 7 distinct points in GF(8)
    with pytest.raises(ValueError):
        vandermonde(CTX8, 0, 3)


def test_field_matrix_validation():
    with pytest.raises(ValueError):
        FieldMatrix([])
    with pytest.raises(ValueError):
        FieldMatrix([[CTX8.one], [CTX8.one, CTX8.zero]])
    other = FieldCtx(0xD)
    with pytest.raises(ValueError):
        FieldMatrix([[CTX8.one, other.one]])
    with pytest.raises(ValueError):
        FieldMatrix([[1, 2]])  # masks, not field elements
    with pytest.raises(ValueError):
        FieldMatrix([[CTX8.one, 2]])


def test_field_inverse_identity():
    ident = FieldMatrix.identity(CTX8, 3)
    assert ident.inverse() == ident


def test_field_inverse_of_selected_columns():
    # Columns 1, 3, 4 (1-based) of the 3x7 Vandermonde matrix; the inverse
    # in exponent form is (z^5 z^5 1; z^6 z^4 z^3; z^3 1 z).
    v = vandermonde(CTX8, 3, 7)
    vx = v.columns([0, 2, 3])
    inv = vx.inverse()
    assert field_masks(inv) == [[7, 7, 1], [5, 6, 3], [3, 1, 2]]
    expected = [[CTX8.z_pow(5), CTX8.z_pow(5), CTX8.one],
                [CTX8.z_pow(6), CTX8.z_pow(4), CTX8.z_pow(3)],
                [CTX8.z_pow(3), CTX8.one, CTX8.z_pow(1)]]
    assert inv == FieldMatrix(expected)
    assert vx @ inv == FieldMatrix.identity(CTX8, 3)
    assert inv @ vx == FieldMatrix.identity(CTX8, 3)


def test_field_inverse_random_multiply_back():
    ctx16 = FieldCtx(0x13)
    rng = random.Random(16)
    ident = FieldMatrix.identity(ctx16, 4)
    done = 0
    while done < 100:
        m = FieldMatrix([[FieldElem(ctx16, rng.randrange(16)) for _ in range(4)]
                         for _ in range(4)])
        try:
            inv = m.inverse()
        except Singular:
            continue
        done += 1
        assert m @ inv == ident
        assert inv @ m == ident


def test_singular_raises():
    m = FieldMatrix([[CTX8.one, CTX8.one], [CTX8.one, CTX8.one]])
    with pytest.raises(Singular):
        m.inverse()
    with pytest.raises(ValueError):
        vandermonde(CTX8, 2, 3).inverse()  # not square


def test_columns_out_of_range():
    v = vandermonde(CTX8, 2, 4)
    with pytest.raises(ValueError):
        v.columns([0, 4])


def test_poly_matrix_accepts_int_masks():
    assert poly_masks(ZD_COLS) == [[1, 2, 2], [2, 1, 2], [2, 2, 1]]
    with pytest.raises(ValueError):
        PolyMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        PolyMatrix([])


def test_det_adjugate_identity_matrix():
    ident = PolyMatrix.identity(4)
    det, adj = ident.det_adjugate()
    assert det == Poly2(1)
    assert adj == ident


def test_det_adjugate_of_zigzag_columns():
    # The raw pair carries a common z+1 factor: det (z+1)^2, adj (z+1)*B.
    det, adj = ZD_COLS.det_adjugate()
    assert det == Poly2(0b101)
    assert adj == ZD_B.scale(Poly2(0b11))
    assert ZD_COLS @ adj == PolyMatrix.identity(3).scale(det)
    # Content reduction recovers the printed pair det = z+1, adj = B.
    red_det, red_adj = cancel_common_factor(det, adj)
    assert red_det == Poly2(0b11)
    assert red_adj == ZD_B
    assert ZD_COLS @ red_adj == PolyMatrix.identity(3).scale(red_det)


def test_cancel_common_factor_noop_when_coprime():
    m = PolyMatrix([[1, 2], [2, 1]])  # det z^2+1, entries 1 and z
    det, adj = m.det_adjugate()
    assert cancel_common_factor(det, adj) == (det, adj)
    with pytest.raises(ValueError):
        cancel_common_factor(Poly2(0), adj)


def test_adjugate_identity_random():
    rng = random.Random(200)
    for n in (3, 4):
        for _ in range(100):
            m = rand_poly_matrix(rng, n)
            det, adj = m.det_adjugate()
            scaled = PolyMatrix.identity(n).scale(det)
            assert m @ adj == scaled
            assert adj @ m == scaled
            assert m.determinant() == det


def test_determinant_multiplicative():
    rng = random.Random(42)
    for _ in range(50):
        a = rand_poly_matrix(rng, 3)
        b = rand_poly_matrix(rng, 3)
        assert (a @ b).determinant() == a.determinant() * b.determinant()


def test_determinant_needs_square():
    m = PolyMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        m.determinant()
    with pytest.raises(ValueError):
        m.det_adjugate()


def test_adjugate_agrees_with_field_inverse():
    # Reducing adj entry-wise mod g must reproduce inverse * det: the two
    # inversion paths (exact polynomial vs Gauss-Jordan) name one matrix.
    rng = random.Random(77)
    done = 0
    while done < 20:
        m = FieldMatrix([[FieldElem(CTX8, rng.randrange(8)) for _ in range(3)]
                         for _ in range(3)])
        try:
            inv = m.inverse()
        except Singular:
            continue
        done += 1
        det, adj = PolyMatrix(m._masks).det_adjugate()
        det_f = FieldElem(CTX8, divmod(det, CTX8.g)[1].mask)
        assert det_f
        for r in range(3):
            for c in range(3):
                assert divmod(adj.entries[r][c], CTX8.g)[1] == (inv.entries[r][c] * det_f).value


def test_matmul_dimension_checks():
    a = PolyMatrix([[1, 2]])
    b = PolyMatrix([[1, 2]])
    with pytest.raises(ValueError):
        a @ b
    fa = FieldMatrix.identity(CTX8, 2)
    fb = FieldMatrix.identity(FieldCtx(0xD), 2)
    with pytest.raises(ValueError):
        fa @ fb
