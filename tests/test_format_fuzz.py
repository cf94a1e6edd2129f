"""Fuzz tests for the formats read from outside: SXP2 packets, matrix text
and the .sxmeta sidecar's key=value line.

Real packets, matrix files and sidecars are damaged in 1-3 places (or
truncated); the parsers, and ``load_matrix`` reading a matrix from a
file object or from a file's damaged bytes, must either return a value
or raise their own format error, never any other exception, and each
call must finish within a fixed time bound.  ``load_matrix`` must return what
``parse_matrix`` returns on every text within its budget.  Every single
bit flip of a packet parses or raises ``PacketFormatError``.  ``sxor
decode`` never reads the sidecar, so a damaged one changes nothing, and
a flipped payload bit in any survivor exits 1.
"""

import io
import time
import zlib
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from sxor.cli import main
from sxor.codec import (Packet, PacketFormatError, _open_packet, encode, packet_from_bytes,
                        packet_to_bytes)
from sxor.codes import (CodeSpec, GenMatrix, MatrixFormatError, build_sxor, build_systematic_sxor,
                        builtin_zd_k3, format_fields, format_matrix, load_matrix, parse_fields,
                        parse_matrix)
from sxor.matrix_file import _FIELDS_LIMIT, _rows_limit

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# Longest time one parse may take.  Over 1,500 examples each on a 2-vCPU
# Xeon (Python 3.11, with and without -X dev), the worst calls took 2.0 ms
# for a packet, 1.9 ms for a matrix text and 1.5 ms for a sidecar line, so
# the bound leaves 25x headroom.
PARSE_SECONDS = 0.05

MATRICES = [
    build_sxor(3, 7, 0xB),
    build_systematic_sxor(4, 15, 0x13, (1, 3, 5, 7)),
    builtin_zd_k3(),
    build_systematic_sxor(10, 14, 0x13, range(1, 11)),
]
PACKETS = [packet_to_bytes(p) for mat in MATRICES
           for p in encode(mat, [(0x9E3779B97F4A7C15 * (i + 1)) % (1 << 40)
                                 for i in range(mat.spec.k)], 40)]
TEXTS = [format_matrix(mat) for mat in MATRICES]
# Sidecars as encode writes them: 5 bytes per source for the CLI fuzz below.
SIDECARS = [format_fields({"len": 5 * mat.spec.k, **mat.spec.fields(),
                           "crc32": f"{zlib.crc32(bytes(range(i, i + 5 * mat.spec.k))):08x}"})
            + "\n" for i, mat in enumerate(MATRICES)]

# A systematic packet relabelled as kind sxor: its x entries must be refused.
X_ON_SXOR = PACKETS[7][:5] + bytes([1]) + PACKETS[7][6:]
# Packet index 0 and a payload one byte short: a field rule and the
# payload size fail together.
INDEX_0_SHORT = PACKETS[0][:15] + bytes(2) + PACKETS[0][17:-1]


@st.composite
def damaged(draw, originals, unit):
    data = draw(st.sampled_from(originals))
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    edits = draw(st.lists(st.tuples(st.integers(0, len(data) - 1), unit), min_size=1, max_size=3))
    for pos, new in edits:
        data = data[:pos] + new + data[pos + 1:]
    return data


TEXT_UNITS = st.one_of(st.sampled_from(list("0123456789abcdefxKNmg=, \n")), st.characters())


def timed(parse, arg, bound):
    start = time.perf_counter()
    try:
        return parse(arg)
    finally:
        elapsed = time.perf_counter() - start
        assert elapsed < bound, f"{parse.__name__} took {elapsed:.3f} s on {arg!r}"


@PROPERTY
@given(damaged(PACKETS, st.binary(min_size=1, max_size=1)))
@example(X_ON_SXOR)
def test_damaged_packet_parses_or_raises_packet_format_error(data):
    try:
        packet = timed(packet_from_bytes, data, PARSE_SECONDS)
    except PacketFormatError:
        return
    assert isinstance(packet, Packet)


@pytest.fixture(scope="module")
def packet_file(tmp_path_factory):
    return tmp_path_factory.mktemp("packet") / "damaged.sxp"


def test_every_bit_flip_of_a_packet_parses_or_raises_packet_format_error(packet_file):
    # A systematic parity packet with a file's length and crc32: every
    # single-bit flip of its header, payload and pad bits, through both
    # readers.  A flip that still parses changes the packet it returns.
    mat = MATRICES[1]
    clean = packet_to_bytes(replace(encode(mat, [0x5A5A5, 0xC3C3C, 1, 0xFFFFF], 20)[1],
                                    file_len=10, crc32=0xDEADBEEF))
    parsed_count = 0
    for bit in range(8 * len(clean)):
        data = bytearray(clean)
        data[bit // 8] ^= 1 << bit % 8
        packet_file.write_bytes(data)
        try:
            packet = packet_from_bytes(bytes(data))
        except PacketFormatError:
            with pytest.raises(PacketFormatError):
                _open_packet(packet_file)
            continue
        parsed_count += 1
        assert packet_to_bytes(packet) == data
        fh, head = _open_packet(packet_file)
        fh.close()
        assert head[:4] == (packet.index, packet.spec, packet.source_len, packet.bit_len)
    assert 0 < parsed_count < 8 * len(clean)


@PROPERTY
@given(damaged(PACKETS, st.binary(min_size=1, max_size=1)))
@example(X_ON_SXOR)
@example(INDEX_0_SHORT)
def test_packet_file_and_bytes_readers_agree(packet_file, data):
    # _open_packet on a file accepts exactly the blobs packet_from_bytes
    # accepts, with the same header, and refuses the rest with the same
    # message after the file's path.
    packet_file.write_bytes(data)
    try:
        packet = packet_from_bytes(data)
    except PacketFormatError as exc:
        with pytest.raises(PacketFormatError) as opened:
            _open_packet(packet_file)
        assert str(opened.value) == f"{packet_file}: {exc}"
        return
    fh, head = _open_packet(packet_file)
    with fh:
        assert int.from_bytes(fh.read(), "little") == packet.bits.mask
    assert head[:4] == (packet.index, packet.spec, packet.source_len, packet.bit_len)


def load_text(text):
    return load_matrix(io.StringIO(text))


def parsed(parse, text):
    try:
        return timed(parse, text, PARSE_SECONDS)
    except MatrixFormatError:
        return None


def agrees_with_parse_matrix(text, loaded):
    # load_matrix returns what parse_matrix returns on the same text
    # unless the text is past its budget, where it may refuse.
    mat = parsed(parse_matrix, text)
    if mat is None:
        return loaded is None
    assert isinstance(mat, GenMatrix)
    header, _, rows = text.partition("\n")
    if len(header) < _FIELDS_LIMIT and len(rows) <= _rows_limit(mat.spec.k, mat.spec.n):
        return loaded == mat
    return loaded in (None, mat)


@PROPERTY
@given(damaged(TEXTS, TEXT_UNITS))
@example(TEXTS[0].replace("\n", "\x1c", 2))  # a line end only splitlines() sees
@example(TEXTS[0].replace(",", ",0000", 1) + "\n" * 1000)  # past the budget
def test_damaged_matrix_text_parses_or_raises_matrix_format_error(text):
    assert agrees_with_parse_matrix(text, parsed(load_text, text))


@pytest.fixture(scope="module")
def matrix_file(tmp_path_factory):
    return tmp_path_factory.mktemp("matrix") / "damaged.sxorgen"


@PROPERTY
@given(damaged([text.encode("ascii") for text in TEXTS], st.binary(min_size=1, max_size=1)))
@example(TEXTS[0].encode("ascii").replace(b"1,", b"\xff,", 1))  # a byte no ASCII text holds
def test_damaged_matrix_file_loads_or_raises_matrix_format_error(matrix_file, data):
    # A file's bytes over 0x7f read as the lone surrogates U+DC80..U+DCFF,
    # which parse_matrix refuses too, naming the byte and its line.
    matrix_file.write_bytes(data)
    loaded = parsed(load_matrix, matrix_file)
    assert agrees_with_parse_matrix(data.decode("ascii", "surrogateescape"), loaded)


def parse_sidecar(text):
    return parse_fields(text.split(), ("len", "crc32"))


@PROPERTY
@given(damaged(SIDECARS, TEXT_UNITS))
def test_damaged_sidecar_line_parses_or_raises_matrix_format_error(text):
    try:
        spec, extra = timed(parse_sidecar, text, PARSE_SECONDS)
    except MatrixFormatError:
        return
    assert isinstance(spec, CodeSpec)
    assert set(extra) <= {"len", "crc32"}


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    # One directory per code: a 5-byte-per-source file, its first K packets
    # (with the file's length and crc32, beside the sidecar) and its bytes.
    cases = []
    for i, mat in enumerate(MATRICES):
        out = tmp_path_factory.mktemp(f"code{i}")
        data = bytes(range(i, i + 5 * mat.spec.k))
        packets = encode(mat, [int.from_bytes(data[5 * r:5 * r + 5], "little")
                               for r in range(mat.spec.k)], 40)
        paths = []
        for p in packets[:mat.spec.k]:
            paths.append(out / f"data.bin.p{p.index}.sxp")
            paths[-1].write_bytes(packet_to_bytes(replace(p, file_len=len(data),
                                                          crc32=zlib.crc32(data))))
        assert (out / "data.bin.sxmeta").write_text(SIDECARS[i]) == len(SIDECARS[i])
        cases.append((out, [str(p) for p in paths], data))
    return cases


@PROPERTY
@given(st.data())
def test_decode_next_to_a_damaged_sidecar_exits_cleanly(encoded, data):
    i = data.draw(st.integers(0, len(MATRICES) - 1))
    out, packets, original = encoded[i]
    text = data.draw(damaged([SIDECARS[i]], TEXT_UNITS))
    (out / "data.bin.sxmeta").write_bytes(text.encode("utf-8", "surrogatepass"))
    restored = out / "restored.bin"
    restored.unlink(missing_ok=True)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = main(["decode", *packets, "--out", str(restored)])
    assert code == 0, err.getvalue()  # the headers hold the length and crc32
    assert restored.read_bytes() == original


@pytest.fixture(scope="module")
def cli_encoded(tmp_path_factory):
    # A 200-byte file, `sxor encode`d with each code below: its directory,
    # K, N and bytes.
    cases = []
    for kind, k, n in (("systematic", 10, 14), ("sxor", 4, 7)):
        out = tmp_path_factory.mktemp(kind)
        src = out / "data.bin"
        src.write_bytes(bytes(range(7, 207)))
        with redirect_stdout(io.StringIO()):
            assert main(["encode", "--kind", kind, "--k", str(k), "--n", str(n), str(src),
                         "--out-dir", str(out)]) == 0
        (out / "data.bin.sxmeta").unlink()  # decode never reads it
        cases.append((out, k, n, src.read_bytes()))
    return cases


@PROPERTY
@given(st.data())
def test_a_flipped_payload_bit_never_decodes_to_other_bytes(cli_encoded, data):
    # One payload bit flipped in any survivor: a division or the headers'
    # crc32 catches it, so decode exits 1 and leaves no --out.
    out, k, n, _ = data.draw(st.sampled_from(cli_encoded))
    survivors = data.draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
    target = out / f"data.bin.p{data.draw(st.sampled_from(survivors))}.sxp"
    fh, head = _open_packet(target)
    fh.close()
    bit = data.draw(st.integers(0, head.bit_len - 1))
    clean = target.read_bytes()
    damaged = bytearray(clean)
    damaged[head.offset + bit // 8] ^= 1 << bit % 8
    restored = out / "restored.bin"
    restored.unlink(missing_ok=True)
    err = io.StringIO()
    target.write_bytes(damaged)
    try:
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(["decode", *(str(out / f"data.bin.p{j}.sxp") for j in survivors),
                         "--out", str(restored)])
    finally:
        target.write_bytes(clean)
    assert code == 1, err.getvalue()
    assert not restored.exists()
