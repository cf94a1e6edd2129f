"""Property tests for the stripe core that encoding and MAP decoding share.

A network run over stripes of 8 to 64 bits must give what one stripe of
the whole stream gives: the same packet payloads on encoding, and on
decoding the same sources or the same error, named by the same source.
Between stripes, a run holds only its carries, no more bits than its
network's entry degrees and feedbacks bound, and the file driver fewer
than 8 bits per output, however many stripes they have run.  The file
driver reads each input byte once, never reads what it writes, and joins
the crc32 of the file from those of its sources.
"""

import io
import zlib

import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace
from itertools import combinations
from random import Random

from hypothesis import given, settings, strategies as st

from sxor import codec
from sxor.codec import (_check_packets, _decode_files, _encode_file, _encoder, _file_crc,
                        _open_packet, encode, map_decode, map_kernel)
from sxor.codes import build_sxor, build_systematic_sxor, builtin_zd_k3, user_matrix
from sxor.gf2poly import InconsistentDivision, Poly2

from conftest import run_striped

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=200)

G3 = 0xB
MATS = [build_sxor(3, 7, G3), build_sxor(4, 7, G3), build_systematic_sxor(4, 7, G3, (1, 2, 3, 4)),
        builtin_zd_k3(), user_matrix([[1, 0, 1, 1], [0, 1, 1, 2]]),
        # Shifts of 70 and 136 bits and a feedback of degree 73: wider than a stripe.
        user_matrix([[1 << 70, 1 << 72 | 1, 1], [0, 1 << 66, 3]])]

# Per matrix, the survivor sets with a step that drops a shift.
SHIFTED = [[idx for idx in combinations(range(1, mat.spec.n + 1), mat.spec.k)
            if any(step.shift for step in map_kernel(mat, idx).steps)] for mat in MATS]


def test_every_matrix_has_sets_with_shifted_steps():
    assert all(SHIFTED)
    assert max(step.shift for idx in SHIFTED[-1] for step in map_kernel(MATS[-1], idx).steps) > 64


def encode_payloads(mat, sources, length, width):
    return run_striped(_encoder(mat), sources, length, width)


def decode(mat, packets, width=None):
    # In stripes of width bits, or by map_decode, in one stripe.
    length, masks, idx = _check_packets(mat, packets)
    try:
        if width is None:
            return [s.mask for s in map_decode(mat, packets)]
        return run_striped(map_kernel(mat, idx).network, [masks[p] for p in idx], length, width)
    except InconsistentDivision as exc:
        return str(exc)


@st.composite
def cases(draw):
    m = draw(st.integers(0, len(MATS) - 1))
    mat = MATS[m]
    k = mat.spec.k
    width = draw(st.integers(8, 64))
    # Mostly several stripes, ending on a partial one; sometimes exact multiples.
    length = draw(st.integers(1, 5 * width) | st.integers(1, 5).map(lambda j: j * width))
    sources = draw(st.lists(st.integers(0, (1 << length) - 1), min_size=k, max_size=k))
    survivors = draw(st.sampled_from(SHIFTED[m]))
    return mat, width, length, sources, survivors


@PROPERTY
@given(cases(), st.data())
def test_striped_runs_match_one_stripe(case, data):
    mat, width, length, sources, survivors = case
    payloads = encode_payloads(mat, sources, length, width)
    packets = encode(mat, sources, length)
    assert payloads == [p.bits.mask for p in packets]

    chosen = [packets[i - 1] for i in survivors]
    assert decode(mat, chosen, width) == decode(mat, chosen) == sources
    if data.draw(st.booleans()):
        i = data.draw(st.integers(0, len(chosen) - 1))
        p = chosen[i]
        bit = data.draw(st.integers(0, p.bit_len - 1))
        chosen[i] = replace(p, bits=Poly2(p.bits.mask ^ 1 << bit))
        assert decode(mat, chosen, width) == decode(mat, chosen)


def carry_bits_bound(net):
    # A map's product carry is below its largest column entry, and a
    # step's division carry below its feedback's degree.
    return (sum(max(col).bit_length() - 1 for col, _, _ in net.maps)
            + sum(step.feedback.mask.bit_length() - 1 for *_, step in net.maps if step))


@pytest.mark.parametrize("m", range(len(MATS)))
def test_run_state_stays_bounded_over_many_stripes(m, monkeypatch):
    # 121 byte-wide stripes, through the shared helper and through the
    # file driver, whose per-output bits are those produced less those
    # written as whole bytes.
    mat, stripes = MATS[m], 121
    length = 8 * stripes
    monkeypatch.setattr(codec, "_STRIPE", 8)
    rng = Random(m)
    sources = [rng.getrandbits(length) for _ in range(mat.spec.k)]
    packets = encode(mat, sources, length)
    payloads = [(p.bits.mask, p.bit_len) for p in packets]
    nets = [("encode", _encoder(mat), [(s, length) for s in sources], payloads)]
    for idx in combinations(range(1, mat.spec.n + 1), mat.spec.k):
        nets.append((idx, map_kernel(mat, idx).network, [payloads[i - 1] for i in idx],
                     [(s, length) for s in sources]))
    for name, net, ins, outs in nets:
        bound = carry_bits_bound(net)
        want = [v for v, _ in outs]

        def between(run):
            assert set(vars(run)) == {"net", "length", "done", "carry", "rest", "mask", "failed"}
            assert run.mask == 0xFF  # the stripe width's mask, not a growing one
            held = sum(c.bit_length() for c in run.carry) + sum(r.bit_length() for r in run.rest)
            assert held <= bound, (name, run.done)

        assert run_striped(net, [v for v, _ in ins], length, 8, between) == want

        files = [v.to_bytes((bits + 7) // 8, "little") for v, bits in ins]
        written = [bytearray() for _ in outs]

        def read(i, at, n):
            if i == 0 and at:  # between stripes: 8 * at bits of each input are in
                for j, x in enumerate(net.outs):
                    assert 0 <= max(8 * at - net.delays[x], 0) - 8 * len(written[j]) < 8, (name, at)
            return files[i][at:at + n]

        def write(j, at, data):
            assert at == len(written[j])
            written[j] += data

        codec._stream(net, length, [len(f) for f in files], [(bits + 7) // 8 for _, bits in outs],
                      read, write)
        assert [int.from_bytes(w, "little") for w in written] == want, name


@PROPERTY
@given(st.binary(min_size=1, max_size=600), st.integers(1, 32))
def test_joined_crc_is_the_crc_of_the_whole(data, k):
    # Cut as _encode_file cuts: K parts of ceil(size / K) bytes, the
    # trailing ones short or empty.
    chunk = -(-len(data) // k)
    crcs = [zlib.crc32(data[i * chunk:(i + 1) * chunk]) for i in range(k)]
    assert _file_crc(crcs, chunk, len(data)) == zlib.crc32(data)


class CountingReader(io.BytesIO):
    name = "object.bin"
    count = 0

    def read(self, size=-1):
        data = super().read(size)
        self.count += len(data)
        return data


class Sink:
    """A file that can only be sought and written."""

    def __init__(self):
        self.data, self.at = bytearray(), 0

    def seek(self, at):
        self.at = at

    def write(self, data):
        self.data.extend(bytes(max(self.at + len(data) - len(self.data), 0)))
        self.data[self.at:self.at + len(data)] = data
        self.at += len(data)


@pytest.mark.parametrize("m", range(len(MATS)))
def test_file_driver_reads_each_byte_once_and_never_reads_its_output(m, tmp_path, monkeypatch):
    # Byte-wide stripes; sizes that leave the last source short, and one
    # smaller than K, which leaves trailing sources empty.
    monkeypatch.setattr(codec, "_STRIPE", 8)
    mat = MATS[m]
    k = mat.spec.k
    for size in (1, k - 1, 7 * k + 1, 50):
        data = Random(size).randbytes(size)
        src = CountingReader(data)
        paths = [str(tmp_path / f"p{j}") for j in range(1, mat.spec.n + 1)]
        assert _encode_file(mat, src, size, paths) == zlib.crc32(data)
        assert src.count == size
        for idx in combinations(range(1, mat.spec.n + 1), k):
            packets = [_open_packet(paths[j - 1]) for j in idx]
            try:
                sink = Sink()
                assert _decode_files(mat, packets, sink, size) == zlib.crc32(data)
            finally:
                for fh, _ in packets:
                    fh.close()
            assert bytes(sink.data) == data, (size, idx)
