"""Tests for encoding, exact decoding, zigzag decoding and packet files."""

import random
import struct
import time
from dataclasses import replace
from itertools import combinations, product

import pytest

from sxor import codec, zigzag
from sxor.codec import (NotMonomialMatrix, Packet, PacketFormatError, SingularSubmatrix,
                        TrailingBits, ZigzagStuck, _check_headers, _header_spec, encode,
                        encode_xor_count, map_decode, map_kernel, packet_from_bytes,
                        packet_to_bytes, read_packet, write_packet, zigzag_decode,
                        zigzag_schedule)
from sxor.codes import (MAX_K, CodeSpec, build_sxor, build_systematic_sxor, builtin_zd_k3,
                        user_matrix)
from sxor.gf2poly import InconsistentDivision, Poly2
from sxor.polymat import PolyMatrix


G1 = 0xB

# K=2 toy code: packets 1 and 2 are the sources, packet 3 their XOR,
# packet 4 mixes a shifted copy.
TOY = user_matrix([[1, 0, 1, 1],
                   [0, 1, 1, 2]])


def bits_of(packet):
    return [(packet.bits.mask >> k) & 1 for k in range(packet.bit_len)]


def by_index(packets):
    return {p.index: p for p in packets}


def test_encode_toy_example():
    s1, s2 = 0b0101, 0b0110
    packets = encode(TOY, [s1, s2], 4)
    assert [p.index for p in packets] == [1, 2, 3, 4]
    assert packets[0].bits.mask == s1
    assert packets[1].bits.mask == s2
    assert bits_of(packets[2]) == [1, 1, 0, 0]
    assert bits_of(packets[3]) == [1, 0, 0, 1, 0]
    assert [p.bit_len for p in packets] == [4, 4, 4, 5]
    assert all(p.source_len == 4 for p in packets)


def test_encode_zero_sources():
    packets = encode(builtin_zd_k3(), [0, 0, 0], 16)
    assert [p.bits.mask for p in packets] == [0] * 6
    assert [p.bit_len for p in packets] == [16, 16, 16, 17, 17, 17]


def test_encode_identity_code():
    mat = user_matrix([[1]])
    (p,) = encode(mat, [0b1011], 4)
    assert p.bits.mask == 0b1011
    assert p.bit_len == 4


def test_encode_validation():
    with pytest.raises(ValueError):
        encode(TOY, [1], 4)
    with pytest.raises(ValueError):
        encode(TOY, [0b10000, 0], 4)  # source longer than stated
    with pytest.raises(ValueError):
        encode(TOY, [1, 1], 0)


def test_encode_is_linear():
    rng = random.Random(9)
    mat = build_sxor(3, 7, G1)
    for _ in range(20):
        a = [rng.getrandbits(32) for _ in range(3)]
        b = [rng.getrandbits(32) for _ in range(3)]
        pa = encode(mat, a, 32)
        pb = encode(mat, b, 32)
        pab = encode(mat, [x ^ y for x, y in zip(a, b)], 32)
        for j in range(7):
            assert pab[j].bits.mask == pa[j].bits.mask ^ pb[j].bits.mask


def test_packet_length_bound():
    rng = random.Random(10)
    mat = build_sxor(3, 7, G1)
    over = mat.column_overheads()
    for _ in range(10):
        packets = encode(mat, [rng.getrandbits(40) for _ in range(3)], 40)
        for p in packets:
            assert p.bit_len == 40 + over[p.index - 1]
            assert p.bits.mask.bit_length() <= p.bit_len


def test_xor_count_matches_alpha():
    mats = [build_sxor(k, 7, G1) for k in range(2, 7)]
    mats += [build_systematic_sxor(3, 7, G1, x) for x in combinations(range(1, 8), 3)]
    mats += [builtin_zd_k3(), TOY]
    rng = random.Random(11)
    for mat in mats:
        k = mat.spec.k
        _, xors = encode_xor_count(mat, [rng.getrandbits(1) for _ in range(k)], 1)
        assert xors == mat.metrics().alpha
        _, xors = encode_xor_count(mat, [rng.getrandbits(64) for _ in range(k)], 64)
        assert xors == mat.metrics().alpha


def test_encode_matches_per_term_products():
    # Reference: one Poly2 product per entry, summed.  The matrices mix zero
    # entries, an all-zero column and sparse high exponents such as z^0 + z^37.
    rng = random.Random(0xC0B)
    pool = [0, 0, 1, 2, 0b1011, 1 | 1 << 37, 1 << 100, 1 << 37 | 1 << 5 | 1 << 2]
    for _ in range(60):
        k, n = rng.randrange(1, 5), rng.randrange(1, 7)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(k)]
        for row in rows:
            row[-1] = 0
        mat = user_matrix(rows)
        length = rng.choice([1, 9, 64, 300])
        src = [rng.getrandbits(length) for _ in range(k)]
        packets, xors = encode_xor_count(mat, src, length)
        assert xors == mat.metrics().alpha
        for j, p in enumerate(packets):
            want = Poly2(0)
            for i in range(k):
                want += Poly2(rows[i][j]) * Poly2(src[i])
            assert p.bits == want
            assert p.bits.mask.bit_length() <= p.bit_len


def test_map_kernel_of_zigzag_columns():
    kern = map_kernel(builtin_zd_k3(), (4, 5, 6))
    assert kern.det == Poly2(0b11)
    assert kern.combine == PolyMatrix([[3, 2, 2], [2, 3, 2], [2, 2, 3]])
    assert kern.shift == 0
    assert kern.feedback == Poly2(0b11)


def test_map_kernel_validation():
    mat = builtin_zd_k3()
    with pytest.raises(ValueError):
        map_kernel(mat, (1, 2))  # too few
    with pytest.raises(ValueError):
        map_kernel(mat, (1, 1, 2))  # repeated
    with pytest.raises(ValueError):
        map_kernel(mat, (1, 2, 7))  # out of range
    dup = user_matrix([[1, 1], [1, 1]])
    with pytest.raises(SingularSubmatrix):
        map_kernel(dup, (1, 2))


def test_map_decode_round_trip_zd_example():
    rng = random.Random(12)
    mat = builtin_zd_k3()
    for _ in range(20):
        src = [rng.getrandbits(64) for _ in range(3)]
        packets = by_index(encode(mat, src, 64))
        got = map_decode(mat, [packets[4], packets[5], packets[6]])
        assert [s.mask for s in got] == src


def test_map_decode_systematic_copy():
    rng = random.Random(13)
    mat = build_systematic_sxor(3, 7, G1, (1, 3, 4))
    kern = map_kernel(mat, (1, 3, 4))
    assert kern.det == Poly2(1)  # identity submatrix: decode is a copy
    src = [rng.getrandbits(32) for _ in range(3)]
    packets = by_index(encode(mat, src, 32))
    got = map_decode(mat, [packets[j] for j in (1, 3, 4)])
    assert [s.mask for s in got] == src


def test_map_kernel_gives_surviving_sources_unit_columns():
    idx = (1, 2, 3, 4, 5, 6, 7, 9, 10, 11)  # systematic (10, 14) without packet 8
    kern = map_kernel(build_systematic_sxor(10, 14, 0x13, range(1, 11)), idx)
    assert sorted(step.source for step in kern.steps) == list(range(10))
    for step in kern.steps:
        if step.source + 1 in idx:
            unit = tuple(int(p == step.source + 1) for p in idx)
            assert (step.shift, step.feedback, step.column) == (0, Poly2(1), unit)
        else:
            assert step.feedback != Poly2(1)


def test_map_decode_all_subsets():
    rng = random.Random(14)
    mat = build_sxor(3, 7, G1)
    for length in (1, 7, 64):
        for _ in range(100):
            src = [rng.getrandbits(length) for _ in range(3)]
            packets = by_index(encode(mat, src, length))
            for sub in combinations(range(1, 8), 3):
                got = map_decode(mat, [packets[j] for j in sub])
                assert [s.mask for s in got] == src


def test_map_decode_packet_order_irrelevant():
    rng = random.Random(15)
    mat = build_sxor(3, 7, G1)
    src = [rng.getrandbits(24) for _ in range(3)]
    packets = by_index(encode(mat, src, 24))
    fwd = map_decode(mat, [packets[2], packets[5], packets[7]])
    rev = map_decode(mat, [packets[7], packets[2], packets[5]])
    assert fwd == rev
    assert [s.mask for s in fwd] == src


def test_map_decode_validation():
    mat = builtin_zd_k3()
    packets = encode(mat, [1, 2, 3], 8)
    with pytest.raises(ValueError):
        map_decode(mat, packets[:2])
    with pytest.raises(ValueError):
        map_decode(mat, [packets[0], packets[0], packets[1]])
    other = encode(TOY, [1, 2], 8)
    with pytest.raises(ValueError):
        map_decode(mat, [packets[0], packets[1], other[0]])
    short = encode(mat, [1, 2, 3], 4)
    with pytest.raises(ValueError):
        map_decode(mat, [packets[0], packets[1], short[2]])


def test_map_decode_detects_flipped_bit():
    rng = random.Random(16)
    mat = builtin_zd_k3()
    src = [rng.getrandbits(32) for _ in range(3)]
    packets = by_index(encode(mat, src, 32))
    corrupt = replace(packets[4], bits=Poly2(packets[4].bits.mask ^ 1))
    with pytest.raises((InconsistentDivision, TrailingBits)):
        map_decode(mat, [corrupt, packets[5], packets[6]])


def test_map_decode_detects_nonzero_prefix():
    # Packet 1 is z * s1, so its low bit must be zero after combination.
    mat = user_matrix([[2, 0], [0, 1]])
    packets = by_index(encode(mat, [0b1011, 0b0110], 4))
    assert map_decode(mat, [packets[1], packets[2]]) == [Poly2(0b1011), Poly2(0b0110)]
    corrupt = replace(packets[1], bits=Poly2(packets[1].bits.mask | 1))
    with pytest.raises(InconsistentDivision):
        map_decode(mat, [corrupt, packets[2]])


def test_map_decode_rejects_high_bits_on_a_feedback_1_column():
    # det = 1, so both sources decode without a division: s1 = p1 + z^2 p2
    # and s2 = p2.  Packet 1 may carry L + 2 bits, but a set bit at or above
    # z^L in s1 means no length-L sources reproduce it.
    mat = user_matrix([[1, 0], [4, 1]])
    assert [step.feedback for step in map_kernel(mat, (1, 2)).steps] == [Poly2(1), Poly2(1)]
    packets = by_index(encode(mat, [0b1011, 0b0110], 4))
    assert map_decode(mat, [packets[1], packets[2]]) == [Poly2(0b1011), Poly2(0b0110)]
    for bit in (4, 5):
        corrupt = replace(packets[1], bits=Poly2(packets[1].bits.mask ^ (1 << bit)))
        with pytest.raises(InconsistentDivision, match="source 1"):
            map_decode(mat, [corrupt, packets[2]])


def test_map_decode_rejects_overlong_payload():
    mat = builtin_zd_k3()
    packets = by_index(encode(mat, [1, 2, 3], 8))
    fat = replace(packets[4], bit_len=11, bits=Poly2(packets[4].bits.mask | (1 << 10)))
    with pytest.raises(TrailingBits):
        map_decode(mat, [fat, packets[5], packets[6]])


def test_zigzag_schedule_toy_order():
    sched = zigzag_schedule(TOY, (3, 4), 4)
    assert sched == ((0, 0, 4), (1, 0, 3), (0, 1, 4), (1, 1, 3),
                     (0, 2, 4), (1, 2, 3), (0, 3, 4), (1, 3, 3))


def test_zigzag_decode_toy():
    s1, s2 = 0b0101, 0b0110
    packets = by_index(encode(TOY, [s1, s2], 4))
    got = zigzag_decode(TOY, [packets[3], packets[4]])
    assert [s.mask for s in got] == [s1, s2]
    got = zigzag_decode(TOY, [packets[1], packets[2]])
    assert [s.mask for s in got] == [s1, s2]


def test_zigzag_matches_map_on_zd_code():
    rng = random.Random(17)
    mat = builtin_zd_k3()
    for sub in combinations(range(1, 7), 3):
        for _ in range(10):
            src = [rng.getrandbits(64) for _ in range(3)]
            packets = by_index(encode(mat, src, 64))
            chosen = [packets[j] for j in sub]
            zz = zigzag_decode(mat, chosen)
            assert [s.mask for s in zz] == src
            assert zz == map_decode(mat, chosen)


def test_zigzag_solves_two_left_sources_without_the_per_bit_stage(monkeypatch):
    # Each zd3 set with two of the parity packets 4, 5 and 6 peels one
    # source whole and solves the other two with one division; only the
    # all-parity set reaches the per-bit stage.
    def per_bit(*args):
        raise AssertionError("per-bit stage")

    monkeypatch.setattr(zigzag, "_peel_bits", per_bit)
    mat = builtin_zd_k3()
    rng = random.Random(29)
    src = [rng.getrandbits(200) for _ in range(3)]
    packets = by_index(encode(mat, src, 200))
    for sub in combinations(range(1, 7), 3):
        chosen = [packets[j] for j in sub]
        if sub == (4, 5, 6):
            with pytest.raises(AssertionError, match="per-bit stage"):
                zigzag_decode(mat, chosen)
        else:
            assert [s.mask for s in zigzag_decode(mat, chosen)] == src


def test_the_per_bit_stage_holds_at_most_max_peel_bits(monkeypatch):
    # zd3's all-parity set at the limit, and one bit past it: both zigzag
    # functions refuse the longer case naming the length and the limit,
    # before the per-bit stage runs.  Sets solved word-wide ignore it.
    mat = builtin_zd_k3()
    length = 200
    held = 3 * length + sum(mat.column_overheads()[3:])
    rng = random.Random(31)
    src = [rng.getrandbits(length) for _ in range(3)]
    packets = by_index(encode(mat, src, length))
    monkeypatch.setattr(zigzag, "MAX_PEEL_BITS", held)
    assert [s.mask for s in zigzag_decode(mat, [packets[j] for j in (4, 5, 6)])] == src
    assert len(zigzag_schedule(mat, (4, 5, 6), length)) == 3 * length

    def per_bit(*args):
        raise AssertionError("per-bit stage")

    monkeypatch.setattr(zigzag, "_peel_bits", per_bit)
    monkeypatch.setattr(zigzag, "MAX_PEEL_BITS", held - 1)
    message = (f"source length {length}: the per-bit zigzag stage would hold {held} packet "
               f"bits, more than the limit of {held - 1}")
    with pytest.raises(ValueError, match=message):
        zigzag_decode(mat, [packets[j] for j in (4, 5, 6)])
    with pytest.raises(ValueError, match=message):
        zigzag_schedule(mat, (4, 5, 6), length)
    monkeypatch.setattr(zigzag, "MAX_PEEL_BITS", 0)
    for sub in ((1, 2, 3), (1, 4, 5), (3, 5, 6)):
        assert [s.mask for s in zigzag_decode(mat, [packets[j] for j in sub])] == src


def test_zigzag_schedule_holds_at_most_max_schedule_bits(monkeypatch):
    # At the limit the order comes back whole; one source bit past it,
    # ValueError names the length and the limit before any peel is run.
    mat = builtin_zd_k3()
    monkeypatch.setattr(zigzag, "MAX_SCHEDULE_BITS", 3 * 200)
    assert len(zigzag_schedule(mat, (4, 5, 6), 200)) == 600

    def peel(*args):
        raise AssertionError("peeled")

    monkeypatch.setattr(zigzag, "_peel", peel)
    monkeypatch.setattr(zigzag, "MAX_SCHEDULE_BITS", 3 * 200 - 1)
    with pytest.raises(ValueError, match="source length 200: the zigzag schedule would hold 600 "
                                         "source bits, more than the limit of 599"):
        zigzag_schedule(mat, (4, 5, 6), 200)


def test_decoders_reject_the_same_corrupted_parity():
    mat = builtin_zd_k3()
    rng = random.Random(3)
    packets = by_index(encode(mat, [rng.getrandbits(64) for _ in range(3)], 64))
    for bit in (0, 10, 64):  # 64 is packet 5's overhead bit, outside every source window
        bad = replace(packets[5], bits=Poly2(packets[5].bits.mask ^ (1 << bit)))
        for decode in (map_decode, zigzag_decode):
            with pytest.raises(InconsistentDivision):
                decode(mat, [packets[1], packets[4], bad])
    bad = replace(packets[4], bits=Poly2(packets[4].bits.mask ^ 1))
    chosen = [packets[1], packets[2], bad]  # a word-wide set: it runs map_decode's network
    with pytest.raises(InconsistentDivision) as exact:
        map_decode(mat, chosen)
    with pytest.raises(InconsistentDivision) as zigzag:
        zigzag_decode(mat, chosen)
    assert str(zigzag.value) == str(exact.value)


def test_zigzag_requires_monomial_entries():
    mat = build_sxor(3, 7, G1)
    with pytest.raises(NotMonomialMatrix):
        zigzag_schedule(mat, (1, 2, 4), 8)  # column 4 holds z+1
    packets = encode(mat, [1, 2, 3], 8)
    for _ in range(3):  # a refusal is not memoized: it raises on every call
        with pytest.raises(NotMonomialMatrix):
            zigzag_decode(mat, [packets[j - 1] for j in (1, 2, 4)])


def test_zigzag_derives_the_monomial_pattern_once_per_survivor_set(monkeypatch):
    # The cover, the hits and the word-wide verdict are memoized per
    # (matrix, survivors), as kernels are, whichever branch decodes.
    calls = []
    terms = zigzag._monomial_terms
    monkeypatch.setattr(zigzag, "_monomial_terms", lambda *args: calls.append(args) or terms(*args))
    zigzag._pattern.cache_clear()
    mat = builtin_zd_k3()
    rng = random.Random(5)
    for sub in ((1, 4, 5), (4, 5, 6)):  # word-wide, and per-bit
        calls.clear()
        for _ in range(4):
            src = [rng.getrandbits(40) for _ in range(3)]
            packets = by_index(encode(mat, src, 40))
            assert [s.mask for s in zigzag_decode(mat, [packets[j] for j in sub])] == src
        zigzag_schedule(mat, sub, 40)
        assert calls == [(mat, sub)]


def test_zigzag_stuck_on_identical_columns():
    mat = user_matrix([[1, 1], [1, 1]])
    with pytest.raises(ZigzagStuck) as exc:
        zigzag_schedule(mat, (1, 2), 8)
    assert exc.value.resolved == 0
    assert exc.value.needed == 16
    packets = encode(mat, [0b101, 0b110], 8)
    with pytest.raises(ZigzagStuck):
        zigzag_decode(mat, packets[:2])


def test_zigzag_schedule_validation():
    with pytest.raises(ValueError):
        zigzag_schedule(TOY, (3,), 4)
    with pytest.raises(ValueError):
        zigzag_schedule(TOY, (3, 3), 4)
    with pytest.raises(ValueError):
        zigzag_schedule(TOY, (3, 4), 0)
    zd = builtin_zd_k3()
    with pytest.raises(ValueError):
        zigzag_schedule(zd, (0, 1, 2), 4)  # no packet 0
    with pytest.raises(ValueError):
        zigzag_schedule(zd, (1, 2, 7), 4)  # zd3 has six packets


def test_decoders_accept_the_same_survivor_sets():
    zd = builtin_zd_k3()
    checks = (lambda s: map_kernel(zd, s), lambda s: zigzag_schedule(zd, s, 4), zd.submatrix)
    for size in (2, 3, 4):
        for survivors in product(range(8), repeat=size):
            valid = size == len(set(survivors)) == 3 and all(1 <= j <= 6 for j in survivors)
            for check in checks:
                if valid:
                    check(survivors)
                else:
                    with pytest.raises(ValueError):
                        check(survivors)


def test_packet_post_init_validation():
    spec = TOY.spec
    with pytest.raises(ValueError):
        Packet(0, Poly2(1), 4, 4, spec)
    with pytest.raises(ValueError):
        Packet(5, Poly2(1), 4, 4, spec)
    with pytest.raises(ValueError):
        Packet(1, Poly2(1), 0, 4, spec)
    with pytest.raises(ValueError):
        Packet(1, Poly2(1), 4, 3, spec)
    with pytest.raises(ValueError):
        Packet(1, Poly2(0b10000), 4, 4, spec)
    for fields in ({"file_len": -1}, {"crc32": -1}):
        with pytest.raises(ValueError, match="must not be negative"):
            Packet(1, Poly2(1), 4, 4, spec, **fields)


def test_packet_bytes_round_trip():
    rng = random.Random(18)
    mats = [build_sxor(3, 7, G1),
            build_systematic_sxor(3, 7, G1, (1, 3, 4)),
            builtin_zd_k3(),
            TOY]
    for mat in mats:
        k = mat.spec.k
        src = [rng.getrandbits(20) for _ in range(k)]
        for p in encode(mat, src, 20):
            # As the library builds it, and with a file's length and crc32.
            for p in (p, replace(p, file_len=7 * k, crc32=0xFFFFFFFF)):
                blob = packet_to_bytes(p)
                again = packet_from_bytes(blob)
                assert again == p
                assert packet_to_bytes(again) == blob


def test_packet_bytes_is_little_endian_with_magic():
    p = encode(TOY, [0b0101, 0b0110], 4)[3]
    blob = packet_to_bytes(p)
    assert blob[:4] == b"SXP2"
    assert blob[4] == 2  # version
    assert blob[-1] == 0b01001  # 5 payload bits, LSB first
    # An SXP1 packet, whose header ends at payload_bits, is not read.
    sxp1 = b"SXP1" + bytes([1]) + blob[5:-13] + blob[-1:]
    with pytest.raises(PacketFormatError, match="^bad magic b'SXP1'$"):
        packet_from_bytes(sxp1)


def test_packet_bytes_rejections():
    p4 = encode(builtin_zd_k3(), [1, 2, 3], 4)[3]
    blob = packet_to_bytes(p4)
    with pytest.raises(PacketFormatError):
        packet_from_bytes(b"XXXX" + blob[4:])
    with pytest.raises(PacketFormatError):
        packet_from_bytes(blob[:4] + bytes([9]) + blob[5:])  # version
    with pytest.raises(PacketFormatError):
        packet_from_bytes(blob[:5] + bytes([9]) + blob[6:])  # kind code
    with pytest.raises(PacketFormatError):
        packet_from_bytes(blob[:10])  # truncated header
    with pytest.raises(PacketFormatError):
        packet_from_bytes(blob[:-1])  # payload shorter than stated
    with pytest.raises(PacketFormatError):
        packet_from_bytes(blob + b"\0")  # payload longer than stated
    padded = blob[:-1] + bytes([blob[-1] | 0x80])  # pad bit above bit 4
    with pytest.raises(PacketFormatError):
        packet_from_bytes(padded)


def test_packet_bytes_rejects_field_degree_above_16():
    # A header may declare any u8 m; m = 17 with the primitive z^17+z^3+1
    # must be refused before primitivity is tested.
    blob = packet_to_bytes(encode(build_sxor(3, 7, G1), [1, 2, 3], 8)[0])
    assert (blob[5], blob[6]) == (1, 3)  # kind=sxor, m=3
    tampered = blob[:6] + struct.pack("<BI", 17, 0x20009) + blob[11:]
    with pytest.raises(PacketFormatError):
        packet_from_bytes(tampered)


def test_packet_bytes_rejects_k_above_the_limit():
    blob = packet_to_bytes(encode(build_sxor(3, 7, G1), [1, 2, 3], 8)[0])
    # m = 16, g = z^16+z^12+z^3+z+1, K = MAX_K + 1, N = 65535.
    tampered = blob[:6] + struct.pack("<BIHH", 16, 0x1100B, MAX_K + 1, 65535) + blob[15:]
    start = time.perf_counter()
    with pytest.raises(PacketFormatError, match=f"limit of {MAX_K}"):
        packet_from_bytes(tampered)
    assert time.perf_counter() - start < 0.01


def test_packet_bytes_x_only_for_systematic():
    mat = build_systematic_sxor(3, 7, G1, (1, 3, 4))
    blob = packet_to_bytes(encode(mat, [1, 2, 3], 8)[0])
    tampered = blob[:5] + bytes([1]) + blob[6:]  # relabel as the plain kind
    with pytest.raises(PacketFormatError):
        packet_from_bytes(tampered)


def test_packet_to_bytes_rejects_wide_modulus():
    mat = user_matrix([[1, 1]], m=33, g=(1 << 33) | 0b11)
    p = encode(mat, [1], 4)[0]
    with pytest.raises(ValueError):
        packet_to_bytes(p)
    # m is a u8 header field: overflow names the field, not struct.error.
    wide_m = encode(user_matrix([[1, 1]], m=256), [1], 4)[0]
    with pytest.raises(ValueError, match="m=256"):
        packet_to_bytes(wide_m)


def test_packet_headers_name_up_to_65535_packets():
    # N and the packet index are u16 header fields; CodeSpec refuses an N
    # past them, so no such packet is built.
    packet = Packet(65535, Poly2(5), 3, 3, CodeSpec("user", 1, 65535))
    blob = packet_to_bytes(packet)
    assert struct.unpack_from("<HH", blob, 13) == (65535, 65535)
    assert packet_from_bytes(blob) == packet
    with pytest.raises(ValueError, match="^N=65536 exceeds 65535"):
        Packet(65536, Poly2(5), 3, 3, CodeSpec("user", 1, 65536))


def test_packet_to_bytes_rejects_lengths_past_their_u64_fields():
    # L and payload_bits are u64 header fields: overflow names the field,
    # not struct.error.
    spec = TOY.spec
    for packet, field, bits in ((Packet(1, Poly2(1), 2**64, 2**64, spec), "L", 64),
                                (Packet(1, Poly2(1), 4, 2**64, spec), "payload_bits", 64),
                                (Packet(1, Poly2(1), 4, 4, spec, file_len=2**64), "file_len", 64),
                                (Packet(1, Poly2(1), 4, 4, spec, crc32=2**32), "crc32", 32)):
        with pytest.raises(ValueError, match=f"^{field}={2**bits} exceeds {2**bits - 1}, "
                                             f"the limit of its {bits}-bit header field$"):
            packet_to_bytes(packet)


def test_packet_from_bytes_checks_the_header_fields():
    # Parsed packets skip Packet's own checks, so packet_from_bytes makes
    # them: index 0 and N + 1, L = 0, and payload_bits below L, each with a
    # payload of the stated length, fail with the field's message.
    packet = encode(build_sxor(3, 7, G1), [1, 2, 3], 20)[4]
    blob = packet_to_bytes(packet)
    assert packet_from_bytes(blob) == packet
    index, x_len, length, bits = struct.unpack_from("<HHQQ", blob, 15)
    assert (index, x_len) == (5, 0)
    for fields, message in (((0, length, bits), "packet index 0 outside 1..7"),
                            ((8, length, bits), "packet index 8 outside 1..7"),
                            ((5, 0, bits), "source length must be positive"),
                            ((5, length, length - 1),
                             "payload length cannot be shorter than the source length")):
        crafted = (blob[:15] + struct.pack("<HHQQ", fields[0], 0, *fields[1:])
                   + blob[35:47 + (fields[2] + 7) // 8])
        with pytest.raises(PacketFormatError, match=f"^{message}$"):
            packet_from_bytes(crafted)


def test_packet_from_bytes_does_not_rewalk_the_field():
    # Every header re-validates its modulus; at m = 16 that must not cost
    # a 65535-step walk per packet.
    blob = packet_to_bytes(encode(build_sxor(3, 7, 0x1100B), [1, 2, 3], 8)[0])
    start = time.perf_counter()
    for _ in range(20):
        packet_from_bytes(blob)
    assert time.perf_counter() - start < 0.05


def test_parsed_packets_of_one_code_share_one_spec():
    mat = build_systematic_sxor(3, 7, G1, (2, 4, 5))
    blobs = [packet_to_bytes(p) for p in encode(mat, [5, 6, 7], 12)]
    first, second = packet_from_bytes(blobs[0]), packet_from_bytes(blobs[6])
    assert first.spec == second.spec == mat.spec
    assert first.spec is second.spec  # validated once for the code
    assert map_decode(mat, [packet_from_bytes(blobs[i]) for i in (0, 2, 6)]) == list(map(Poly2, (5, 6, 7)))


def test_parsed_packets_compare_their_shared_spec_once(monkeypatch):
    mat = build_systematic_sxor(5, 7, G1, range(1, 6))
    packets = [packet_from_bytes(packet_to_bytes(p)) for p in encode(mat, [1, 2, 3, 4, 5], 12)[2:]]
    other = packet_from_bytes(packet_to_bytes(encode(build_sxor(5, 7, G1), [1, 2, 3, 4, 5], 12)[0]))
    calls = []
    eq = CodeSpec.__eq__
    monkeypatch.setattr(CodeSpec, "__eq__", lambda a, b: calls.append(b) or eq(a, b))
    assert _check_headers(mat, packets) == (12, (3, 4, 5, 6, 7))
    assert len(calls) == 1  # one interned spec, not one compare per packet
    with pytest.raises(ValueError, match="packet 1 belongs to a different code"):
        _check_headers(mat, packets[:4] + [other])


def test_decoders_name_the_packets_that_disagree_on_source_length():
    mat = build_sxor(3, 7, G1)
    short, long = encode(mat, [1, 2, 3], 8), encode(mat, [1, 2, 3], 12)
    for decode in (map_decode, zigzag_decode):
        with pytest.raises(ValueError, match="^the packets disagree on source_len: source_len=8 "
                                             "in packets 1, 3; source_len=12 in packet 2$"):
            decode(mat, [short[0], long[1], short[2]])


def test_invalid_header_specs_fail_alike_on_every_parse():
    # A spec that fails validation is not cached: every parse of the
    # header checks it again and raises the same message.
    sxor_blob = packet_to_bytes(encode(build_sxor(3, 7, G1), [1, 2, 3], 8)[0])
    sys_blob = packet_to_bytes(encode(build_systematic_sxor(3, 7, G1, (1, 3, 4)), [1, 2, 3], 8)[0])
    x_at = struct.calcsize("<4sBBBIHHHH")
    cases = [(sxor_blob[:7] + struct.pack("<I", 0b1001) + sxor_blob[11:],
              "not a primitive polynomial"),  # z^3 + 1
             (sys_blob[:x_at] + struct.pack("<3H", 1, 3, 3) + sys_blob[x_at + 6:],
              "x must be 3 distinct packet indices"),
             (sys_blob[:x_at] + struct.pack("<3H", 1, 3, 8) + sys_blob[x_at + 6:],
              "x must be 3 distinct packet indices")]
    for blob, message in cases:
        cached = _header_spec.cache_info().currsize
        errors = []
        for _ in range(3):
            with pytest.raises(PacketFormatError, match=message) as info:
                packet_from_bytes(blob)
            errors.append(str(info.value))
        assert len(set(errors)) == 1
        assert _header_spec.cache_info().currsize == cached


def test_header_spec_cache_stays_bounded():
    size = _header_spec.cache_info().maxsize
    blob = bytearray(packet_to_bytes(encode(user_matrix([[1, 1]]), [1], 8)[0]))
    for k, n in combinations(range(1, 30), 2):  # 406 codes, each header valid
        struct.pack_into("<HH", blob, 11, k, n)
        assert packet_from_bytes(bytes(blob)).spec == CodeSpec("user", k, n)
    assert _header_spec.cache_info().currsize <= size


def test_packet_to_bytes_matches_the_format():
    # The header laid out field by field as the format comment gives it,
    # for every kind; a second call, served from the header cache, agrees.
    mats = [build_sxor(3, 7, G1), builtin_zd_k3(), TOY,
            *(build_systematic_sxor(3, 7, G1, x) for x in ((1, 2, 3), (2, 4, 5)))]
    for mat in mats:
        spec = mat.spec
        x = spec.x or ()
        for p in encode(mat, range(5, 5 + spec.k), 11):
            p = replace(p, file_len=3 * p.index, crc32=0x10203 * p.index)
            want = (struct.pack("<4sBBBIHHHH", b"SXP2", 2, ("user", "sxor", "systematic", "zd3")
                                .index(spec.kind), spec.m, spec.g.mask, spec.k, spec.n, p.index,
                                len(x))
                    + struct.pack(f"<{len(x)}H", *x)
                    + struct.pack("<QQQI", 11, p.bit_len, 3 * p.index, 0x10203 * p.index)
                    + p.bits.mask.to_bytes((p.bit_len + 7) // 8, "little"))
            assert packet_to_bytes(p) == packet_to_bytes(p) == want, (spec, p.index)


def test_packet_file_io(tmp_path):
    p = encode(builtin_zd_k3(), [9, 5, 3], 8)[4]
    path = tmp_path / "packet.sxp"
    write_packet(p, path)
    assert read_packet(path) == p
    with open(path, "rb") as fh:
        assert packet_from_bytes(fh.read()) == p
