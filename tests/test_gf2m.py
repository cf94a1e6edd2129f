"""Tests for GF(2^m) contexts, elements and the primitivity check."""

import random

import pytest

from sxor.gf2m import DEFAULT_MODULI, FieldCtx, FieldElem, default_modulus, is_primitive
from sxor.gf2poly import Poly2


G1 = Poly2(0b1011)  # z^3+z+1
G2 = Poly2(0b1101)  # z^3+z^2+1


def test_is_primitive_examples():
    assert is_primitive(G1, 3)
    assert is_primitive(G2, 3)
    assert not is_primitive(Poly2(0b100), 2)  # g(0) = 0
    assert not is_primitive(Poly2(0b101), 2)  # (z+1)^2, reducible
    # Irreducible but z has order 5, not 15: degree alone is not enough.
    assert not is_primitive(Poly2(0b11111), 4)
    assert not is_primitive(G1, 4)  # degree mismatch
    assert not is_primitive(Poly2(0), 3)
    assert is_primitive(Poly2(0b11), 1)


def test_is_primitive_matches_the_order_walk():
    def walk(g, m):
        # z has order 2^m - 1 mod g, found by multiplying by z step by step.
        if g.bit_length() - 1 != m or not g & 1:
            return False
        t, e = 2 if m > 1 else 1, 1
        while t != 1 and e <= (1 << m) - 1:
            t <<= 1
            if t >> m:
                t ^= g
            e += 1
        return e == (1 << m) - 1

    for m in range(1, 11):
        for g in range(1 << m, 1 << (m + 1)):
            assert is_primitive(g, m) == walk(g, m), f"m={m} g=0x{g:x}"


def test_default_moduli_all_primitive():
    assert sorted(DEFAULT_MODULI) == list(range(1, 17))
    for m, mask in DEFAULT_MODULI.items():
        assert is_primitive(Poly2(mask), m), f"m={m} mask=0x{mask:x}"
    assert default_modulus(3) == G1
    with pytest.raises(ValueError):
        default_modulus(17)
    with pytest.raises(ValueError):
        default_modulus(0)


def test_ctx_validation():
    ctx = FieldCtx(0xB)
    assert ctx.m == 3
    assert ctx.order == 7
    assert ctx.g == G1
    with pytest.raises(ValueError):
        FieldCtx(Poly2(0b101))
    with pytest.raises(ValueError):
        FieldCtx(Poly2(0))
    with pytest.raises(ValueError):
        FieldCtx(G1, m=4)
    # z^17+z^3+1 is primitive, but degrees past 16 are refused before the
    # 2^17-step primitivity walk.
    with pytest.raises(ValueError):
        FieldCtx(0x20009)
    with pytest.raises(ValueError):
        FieldCtx(0x20009, m=17)
    assert FieldCtx(0xB) == FieldCtx(G1)
    assert FieldCtx(0xB) != FieldCtx(0xD)


def test_mul_examples():
    ctx = FieldCtx(0xB)
    z = FieldElem(ctx, 0b10)
    z2 = FieldElem(ctx, 0b100)
    assert (z * z2).value == Poly2(0b11)
    a = FieldElem(ctx, 0b110)
    assert a * ctx.one == a
    zp1 = FieldElem(ctx, 0b011)
    assert (zp1 * zp1).value == Poly2(0b101)
    assert (a * ctx.zero) == ctx.zero


def test_z_pow_examples():
    ctx = FieldCtx(0xB)
    assert ctx.z_pow(0) == ctx.one
    assert ctx.z_pow(1).value == Poly2(0b10)
    assert ctx.z_pow(4).value == Poly2(0b110)
    assert ctx.z_pow(7) == ctx.one
    rng = random.Random(3)
    for _ in range(50):
        e = rng.randrange(10_000)
        assert ctx.z_pow(e) == ctx.z_pow(e % 7)
    assert ctx.z_pow(-1) == ctx.z_pow(6)


def test_z_pow_enumerates_all_nonzero_elements():
    for m in (1, 2, 3, 4):
        ctx = FieldCtx(default_modulus(m))
        seen = {ctx.z_pow(e) for e in range(ctx.order)}
        assert len(seen) == ctx.order
        assert ctx.zero not in seen


def test_inverse_examples():
    ctx = FieldCtx(0xB)
    assert ctx.one.inverse() == ctx.one
    z = FieldElem(ctx, 2)
    assert z.inverse().value == Poly2(0b101)
    for a in ctx.elements():
        if a:
            assert a * a.inverse() == ctx.one
    with pytest.raises(ZeroDivisionError):
        ctx.zero.inverse()


def test_pow():
    ctx = FieldCtx(0xB)
    z = FieldElem(ctx, 2)
    assert z ** 3 == FieldElem(ctx, 0b011)
    assert z ** 0 == ctx.one
    assert z ** -1 == z.inverse()
    assert z ** 7 == ctx.one


def test_field_axioms_exhaustive_small_m():
    for m in (1, 2, 3, 4):
        ctx = FieldCtx(default_modulus(m))
        elems = list(ctx.elements())
        assert len(elems) == 1 << m
        for a in elems:
            assert a + ctx.zero == a
            assert a * ctx.one == a
            assert a + a == ctx.zero
            if a:
                assert a * a.inverse() == ctx.one
        for a in elems:
            for b in elems:
                assert a + b == b + a
                assert a * b == b * a
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


def test_inverses_unique_small_m():
    for m in (1, 2, 3):
        ctx = FieldCtx(default_modulus(m))
        elems = list(ctx.elements())
        for a in elems:
            if a:
                assert sum(1 for x in elems if a * x == ctx.one) == 1


def test_context_mismatch_rejected():
    c1 = FieldCtx(0xB)
    c2 = FieldCtx(0xD)
    with pytest.raises(ValueError):
        c1.one + c2.one
    with pytest.raises(ValueError):
        c1.one * c2.one
    assert c1.one != c2.one


def test_elem_hash_and_bool():
    ctx = FieldCtx(0xB)
    assert len({FieldElem(ctx, 3), FieldElem(ctx, 3), FieldElem(ctx, 0b11)}) == 1
    assert not ctx.zero
    assert ctx.one
