"""Tests for GF(2) polynomial arithmetic and exact low-order division."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from sxor import codec, gf2poly
from sxor.gf2poly import (_CHUNK, _ORDER_BOUND, InconsistentDivision, Poly2, _gcd_masks, exact_div_low,
                          split_shift)

# The division's chunk size while the chunked-division property runs:
# small enough that short operands reach both the chunk stage (past 64
# chunks) and the doubling that runs to the end below it.
CHUNK = 16

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def rand_poly(rng, max_deg):
    return Poly2(rng.getrandbits(max_deg + 1))


def div_low_reference(b, h, out_len):
    # Per-coefficient recursion: s_k = b_k + sum over set taps d of s_(k-d).
    # Quadratic, but an independent oracle for the word-parallel divider.
    s = 0
    for k in range(out_len):
        acc = (b.mask >> k) & 1
        t = h.mask >> 1
        d = 1
        while t:
            if (t & 1) and k - d >= 0:
                acc ^= (s >> (k - d)) & 1
            t >>= 1
            d += 1
        if acc:
            s |= 1 << k
    return Poly2(s)


def test_add_examples():
    assert Poly2(0b11) + Poly2(0b11) == Poly2(0)
    assert Poly2(0b110) + Poly2(0b11) == Poly2(0b101)
    p = Poly2(0b100100)
    assert Poly2(0) + p == p
    assert p - p == Poly2(0)


def test_shift_add_builds_fourth_packet_of_toy_code():
    # s1 bits (1,0,1,0), s2 bits (0,1,1,0), LSB first; c4 = s1 + z*s2 has
    # bits (1,0,0,1,0) once padded to 5 positions.
    s1 = Poly2(0b0101)
    s2 = Poly2(0b0110)
    c4 = s1 + Poly2(s2.mask << 1)
    assert c4 == Poly2(0b1001)
    assert [(c4.mask >> k) & 1 for k in range(5)] == [1, 0, 0, 1, 0]


def test_mul_examples():
    assert Poly2(0b11) * Poly2(0b11) == Poly2(0b101)
    assert Poly2(0b11) * Poly2(0b110) == Poly2(0b1010)
    assert Poly2(0b10010) * Poly2(0) == Poly2(0)
    assert Poly2(0b101) * Poly2(1) == Poly2(0b101)


def test_divmod_examples():
    q, r = divmod(Poly2(0b1011), Poly2(0b11))
    assert q == Poly2(0b110)
    assert r == Poly2(1)
    p = Poly2(0b1001001)
    assert divmod(p, Poly2(1)) == (p, Poly2(0))
    assert divmod(Poly2(0b1000), Poly2(0b1011)) == (Poly2(1), Poly2(0b11))
    with pytest.raises(ZeroDivisionError):
        divmod(p, Poly2(0))


def test_exact_div_examples():
    b = Poly2(0b11) * Poly2(0b1001)
    assert b == Poly2(0b11011)
    assert exact_div_low(b, Poly2(0b11), 4) == Poly2(0b1001)
    assert exact_div_low(Poly2(0), Poly2(0b11), 16) == Poly2(0)
    assert exact_div_low(Poly2(0b101), Poly2(1), 3) == Poly2(0b101)


def test_exact_div_by_one_returns_the_dividend_itself():
    # No copy: a surviving systematic source stays its packet's payload.
    b = Poly2((1 << 70000) | 0b1011)
    assert exact_div_low(b, Poly2(1), 70001) is b
    assert exact_div_low(Poly2(0), Poly2(1), 0) == Poly2(0)
    for out_len in (0, 69999, 70000):
        with pytest.raises(InconsistentDivision):
            exact_div_low(b, Poly2(1), out_len)


def test_exact_div_rejects_bad_input():
    b = Poly2(0b11) * Poly2(0b1001)
    with pytest.raises(InconsistentDivision):
        exact_div_low(b + Poly2(1 << 6), Poly2(0b11), 4)  # not a multiple
    with pytest.raises(InconsistentDivision):
        exact_div_low(b, Poly2(0b11), 2)  # quotient needs 4 bits
    with pytest.raises(ValueError):
        exact_div_low(b, Poly2(0b10), 4)  # constant term 0
    with pytest.raises(ValueError):
        exact_div_low(b, Poly2(0b11), -1)
    with pytest.raises(ZeroDivisionError):
        exact_div_low(b, Poly2(0), 4)


def test_split_examples():
    assert split_shift(Poly2(0b110)) == (1, Poly2(0b11))
    assert split_shift(Poly2(0b11)) == (0, Poly2(0b11))
    assert split_shift(Poly2(0b1000)) == (3, Poly2(1))
    with pytest.raises(ValueError):
        split_shift(Poly2(0))


def test_degree_and_truthiness():
    assert Poly2(0b10001).degree() == 4
    assert Poly2(1).degree() == 0
    with pytest.raises(ValueError):
        Poly2(0).degree()
    assert not Poly2(0)
    assert Poly2(1)


def test_constructor_validation():
    with pytest.raises(ValueError):
        Poly2(-1)
    with pytest.raises(TypeError):
        Poly2("b")
    with pytest.raises(TypeError):
        Poly2(True)


def test_text_round_trip():
    for mask, text in [(0, "0"), (1, "1"), (0b10, "z"), (0b11, "z+1"), (0b111, "z^2+z+1"),
                       (0x201B, "z^13+z^4+z^3+z+1")]:
        assert Poly2(mask).to_text() == text
        assert str(Poly2(mask)) == text


def test_hex_round_trip():
    assert Poly2.from_hex("b") == Poly2(0b1011)
    assert Poly2.from_hex("0xB") == Poly2(0b1011)
    assert Poly2(0b1011).to_hex() == "b"
    assert Poly2(0).to_hex() == "0"
    rng = random.Random(1)
    for _ in range(100):
        p = rand_poly(rng, 40)
        assert Poly2.from_hex(p.to_hex()) == p


def test_parse_errors():
    for bad in ["", "   ", "0x", "zz", "-1", "+b", "-b", "b_1", "0x_1", "0x 1", "0x0x1"]:
        with pytest.raises(ValueError):
            Poly2.from_hex(bad)


def test_ring_axioms_random():
    rng = random.Random(0xC0DE)
    for _ in range(200):
        a, b, c = (rand_poly(rng, 64) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + a == Poly2(0)
        assert a * Poly2(1) == a


def test_divrem_reconstruction_random():
    rng = random.Random(0xD1CE)
    for _ in range(200):
        a = rand_poly(rng, 96)
        shift = rng.randrange(17)
        d = Poly2(rng.getrandbits(shift) | (1 << shift))  # degree exactly shift
        q, r = divmod(a, d)
        assert q * d + r == a
        assert not r or r.degree() < d.degree()


def test_exact_div_inverts_multiplication():
    rng = random.Random(0xFEED)
    for _ in range(120):
        out_len = rng.randrange(1, 129)
        s = Poly2(rng.getrandbits(out_len))
        h = Poly2(1 | (rng.getrandbits(8) << 1))  # h(0) = 1, degree <= 8
        b = h * s
        got = exact_div_low(b, h, out_len)
        assert got == s
        assert got == div_low_reference(b, h, out_len)


def test_exact_div_matches_reference_on_long_streams():
    rng = random.Random(0xBEEF)
    h = Poly2(0b11)
    for _ in range(5):
        s = Poly2(rng.getrandbits(1000))
        b = h * s
        got = exact_div_low(b, h, 1000)
        assert got == s == div_low_reference(b, h, 1000)


def assert_matches_reference(b, h, out_len):
    # exact_div_low returns the reference's s when h * s reproduces b, and
    # raises InconsistentDivision otherwise.
    s = div_low_reference(b, h, out_len)
    if h * s == b:
        assert exact_div_low(b, h, out_len) == s
    else:
        with pytest.raises(InconsistentDivision):
            exact_div_low(b, h, out_len)


def test_exact_div_divisor_at_or_above_output_length():
    # Taps at or above out_len never reach s; only the re-verification sees them.
    rng = random.Random(0xD1)
    for out_len in range(9):
        for _ in range(20):
            h = Poly2(1 | (rng.getrandbits(12) << 1) | (1 << (out_len + rng.randrange(12))))
            s = Poly2(rng.getrandbits(out_len)) if out_len else Poly2(0)
            assert_matches_reference(h * s, h, out_len)
            assert_matches_reference(Poly2((h * s).mask ^ (1 << rng.randrange(out_len + 24))),
                                     h, out_len)


def test_exact_div_tiny_output_lengths():
    rng = random.Random(0xD2)
    for out_len in (0, 1, 2):
        for _ in range(40):
            h = Poly2(1 | (rng.getrandbits(6) << 1))
            assert_matches_reference(Poly2(rng.getrandbits(8)), h, out_len)
            s = Poly2(rng.getrandbits(out_len)) if out_len else Poly2(0)
            assert_matches_reference(h * s, h, out_len)


def test_exact_div_sparse_divisors():
    rng = random.Random(0xD3)
    for _ in range(60):
        degree = rng.randrange(1, 41)
        h = Poly2(1 | (1 << degree) | sum(1 << rng.randrange(1, degree + 1) for _ in range(3)))
        out_len = rng.randrange(0, 200)
        s = Poly2(rng.getrandbits(out_len)) if out_len else Poly2(0)
        b = h * s
        assert_matches_reference(b, h, out_len)
        assert_matches_reference(Poly2(b.mask ^ (1 << rng.randrange(out_len + degree))), h, out_len)


def div_low_bits(b, h, out_len):
    # Per-bit oracle, linear in out_len on a bit list: s_k = b_k + sum over
    # taps d of s_(k-d), then every coefficient of h * s at or above
    # out_len must match b.  None when no s of out_len bits exists.
    taps = [d for d in range(1, h.bit_length()) if h >> d & 1]
    top = max(b.bit_length(), out_len + h.bit_length())
    bits = [c == "1" for c in format(b, f"0{top}b")[::-1]]
    s = []
    for k in range(out_len):
        v = bits[k]
        for d in taps:
            if d > k:
                break
            v ^= s[k - d]
        s.append(v)
    for k in range(out_len, top):
        v = False
        for d in [0, *taps]:
            if 0 <= k - d < out_len:
                v ^= s[k - d]
        if v != bits[k]:
            return None
    return int("".join("1" if v else "0" for v in reversed(s)) or "0", 2)


@st.composite
def chunked_divisions(draw):
    # Output lengths around 0, each multiple of the chunk size up to 4C,
    # where the doubling reaches the chunk size, and 64C to 66C, where the
    # division switches from doubling to the end to whole chunks.
    out_len = max(0, draw(st.sampled_from([0, 1, 2, 3, 4, 64, 65, 66]).map(lambda j: j * CHUNK))
                  + draw(st.integers(-2, 2)))
    shape = draw(st.sampled_from(["tap 1", "higher taps", "taps >= out_len"]))
    if shape == "tap 1":
        taps = [1, *draw(st.lists(st.integers(2, 24), max_size=3))]
    elif shape == "higher taps":  # a first chunk tap of 2 or more, or none at all
        tap = st.integers(2, 4) | st.integers(CHUNK // 2, 2 * CHUNK)
        taps = draw(st.lists(tap, min_size=1, max_size=3))
    else:
        taps = draw(st.lists(st.integers(max(out_len, 1), out_len + CHUNK), min_size=1, max_size=2))
    h = 1
    for d in taps:
        h |= 1 << d
    rng = draw(st.randoms(use_true_random=False))
    b = (Poly2(h) * Poly2(rng.getrandbits(out_len) if out_len else 0)).mask
    if draw(st.booleans()):
        b ^= 1 << draw(st.integers(0, out_len + h.bit_length()))
    return b, h, out_len


def test_exact_div_matches_the_per_bit_oracle(division_paths):
    @PROPERTY
    @given(chunked_divisions())
    def check(case):
        b, h, out_len = case
        want = div_low_bits(b, h, out_len)
        if want is None:
            with pytest.raises(InconsistentDivision):
                exact_div_low(Poly2(b), Poly2(h), out_len)
        else:
            assert exact_div_low(Poly2(b), Poly2(h), out_len).mask == want

    ran = division_paths(CHUNK)
    check()
    assert ran["chunk stage"] and ran["doubled"], ran


@pytest.mark.parametrize("chunks, stage", [(64, False), (65, True)])
def test_division_runs_the_chunk_stage_only_past_64_chunks(division_paths, chunks, stage):
    # At the real chunk size: 64 chunks (2**18 bits) double to the end, 65
    # run the chunk stage.  h * s is reproduced only by s itself.  Each h
    # has an order of z past the bound (889, 465, and a degree past it),
    # so none takes the binomial path.
    ran = division_paths(_CHUNK)
    rng = random.Random(chunks)
    for h in (1 | 1 << 1 | 1 << 10, 1 | 1 << 1 | 1 << 2 | 1 << 10, 1 | 1 << 5 | 1 << 9000):
        s = Poly2(rng.getrandbits(chunks * _CHUNK))
        assert exact_div_low(s * Poly2(h), Poly2(h), chunks * _CHUNK) == s
    assert ran == ({"chunk stage": 3} if stage else {"doubled": 3})


def div_low_naive(b, h, width, carry=0):
    # The low-first recursion, one coefficient at a time, as _div_low's
    # oracle: with x = b + carry, s_k = x_k + sum over taps d of s_(k-d)
    # below width, then the coefficients of h * s + x from z**width up.
    taps = [d for d in range(1, h.bit_length()) if h >> d & 1]
    x = b ^ carry
    top = max(x.bit_length(), width + h.bit_length())
    bits = [c == "1" for c in format(x, f"0{top}b")[::-1]]
    s = []
    for k in range(width):
        v = bits[k]
        for d in taps:
            if d > k:
                break
            v ^= s[k - d]
        s.append(v)
    rest = []
    for k in range(width, top):
        v = bits[k]
        for d in (0, *taps):
            if 0 <= k - d < width:
                v ^= s[k - d]
        rest.append(v)
    return tuple(int("".join("1" if v else "0" for v in reversed(coeffs)) or "0", 2)
                 for coeffs in (s, rest))


@st.composite
def stripe_divisions(draw):
    # Divisors of 1 to 8 taps, with repeated factors, or whose order P is
    # at, just under or just over the bound (1 + z^P, or the all-ones
    # (1 + z^P) / (1 + z) of degree P - 1); widths around 64 chunks and
    # below; carries below z^(deg h); and dividends that are one stripe,
    # a whole product longer than the width, such a product with a
    # garbage bit, or random bits past the width.
    shape = draw(st.sampled_from(["taps", "repeated factor", "order near the bound"]))
    if shape == "taps":
        h = 1 | sum(1 << t for t in draw(st.lists(st.integers(1, 40), min_size=1, max_size=8,
                                                    unique=True)))
    elif shape == "repeated factor":
        f = Poly2(1 | draw(st.integers(1, 63)) << 1)
        h = f * f * Poly2(1 | draw(st.integers(0, 63)) << 1)
        for _ in range(draw(st.integers(0, 2))):
            h = h * f
        h = h.mask
    else:
        period = _ORDER_BOUND + draw(st.integers(-1, 1))
        h = draw(st.sampled_from([1 << period | 1, (1 << period) - 1]))
    width = draw(st.sampled_from([0, 1, 2, 64 * CHUNK - 1, 64 * CHUNK + 1])
                 | st.integers(3, 3 * 64 * CHUNK))
    degree = h.bit_length() - 1
    carry = draw(st.integers(0, (1 << degree) - 1))
    rng = draw(st.randoms(use_true_random=False))
    product = (Poly2(h) * Poly2(rng.getrandbits(width) if width else 0)).mask ^ carry
    form = draw(st.sampled_from(["stripe", "whole", "garbage", "random"]))
    if form == "stripe":
        b = product & ((1 << width) - 1)
    elif form == "whole":
        b = product
    elif form == "garbage":
        b = product ^ 1 << draw(st.integers(width, width + degree + 8))
    else:
        b = rng.getrandbits(width + degree + 8)
    return b, h, width, carry, draw(st.booleans())


def test_div_low_matches_the_naive_recursion(division_paths):
    @PROPERTY
    @given(stripe_divisions())
    def check(case):
        b, h, width, carry, masked = case
        mask = (1 << width) - 1 if masked else 0
        assert gf2poly._div_low(b, h, width, carry, mask) == div_low_naive(b, h, width, carry)

    ran = division_paths(CHUNK)
    check()
    assert ran["binomial"] and ran["chunk stage"] and ran["doubled"], ran


# The divisors test_div_low_at_the_stripe_widths runs at a width, by default WIDE.
WIDE = (0b10101, 0x1FF, 1 | 1 << 1 | 1 << 10)
DIVISORS = {6560: (0b11, 0b101, 0b100101, 0b10010101)}


@pytest.mark.parametrize("width, paths", [(64 * _CHUNK - 1, {"binomial": 2, "doubled": 1}),
                                          (64 * _CHUNK + 1, {"binomial": 2, "chunk stage": 1}),
                                          (codec._STRIPE, {"binomial": 2, "chunk stage": 1}),
                                          (6560, {"binomial": 4})])
def test_div_low_at_the_stripe_widths(division_paths, width, paths):
    # At the real chunk size, around 64 chunks and at the file driver's
    # stripe width: z^4+z^2+1 (P = 6) and the eight taps of the all-ones
    # z^8+...+1 (P = 9) divide through their binomial multiples, and
    # z^10+z+1 (P = 889) by its taps.  At a 4 KiB object's 6,560-bit
    # sources, where a taps round's overhead outweighs its passes, z+1,
    # z^2+1, z^5+z^2+1 and z^7+z^4+z^2+1 divide through theirs.  Each
    # dividend runs past the width, as a last stripe's does, or is one
    # stripe.
    ran = division_paths(_CHUNK)
    rng = random.Random(width)
    for n, h in enumerate(DIVISORS.get(width, WIDE)):
        carry = rng.getrandbits(h.bit_length() - 1)
        b = rng.getrandbits(width + 40 if n % 2 else width)
        assert gf2poly._div_low(b, h, width, carry) == div_low_naive(b, h, width, carry), h
    assert ran == paths


def test_split_reconstruction_random():
    rng = random.Random(0xACE)
    for _ in range(200):
        p = rand_poly(rng, 48)
        if not p:
            continue
        t, h = split_shift(p)
        assert h.mask & 1
        assert Poly2(h.mask << t) == p


def test_gcd():
    a = (Poly2(0b11) * Poly2(0b111)).mask
    b = (Poly2(0b11) * Poly2(0b1011)).mask
    assert _gcd_masks(a, b) == 0b11
    assert _gcd_masks(a, 0) == a
    assert _gcd_masks(0, 0) == 0
    assert _gcd_masks(1 << 5, 1 << 3) == 1 << 3


def test_hash_and_eq():
    assert hash(Poly2(0b11)) == hash(Poly2(0b11))
    assert Poly2(0b11) != Poly2(0)
    assert (Poly2(0b11) == "z+1") is False
    assert len({Poly2(0b11), Poly2(0b11), Poly2(3)}) == 1
