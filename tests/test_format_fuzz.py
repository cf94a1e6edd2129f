"""Fuzz tests for the formats read from outside: SXP1 packets, matrix text
and the .sxmeta sidecar's key=value line.

Real packets, matrix files and sidecars are damaged in 1-3 places (or
truncated); the parsers, and ``load_matrix`` reading a matrix from a
file object, must either return a value or raise their own format
error, never any other exception, and each call must finish
within a fixed time bound.  ``load_matrix`` must return what
``parse_matrix`` returns on every text within its budget.  ``sxor decode`` next to a damaged sidecar
must exit 0, 1 or 2 without a traceback.
"""

import io
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from sxor.cli import main
from sxor.codec import Packet, PacketFormatError, encode, packet_from_bytes, packet_to_bytes
from sxor.codes import (_FIELDS_LIMIT, CodeSpec, GenMatrix, MatrixFormatError, _rows_limit,
                        build_sxor, build_systematic_sxor, builtin_zd_k3, format_fields,
                        format_matrix, load_matrix, parse_fields, parse_matrix)

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
SIDECARS = [format_fields({"len": 5 * mat.spec.k, **mat.spec.fields()}) + "\n"
            for mat in MATRICES]

# A systematic packet relabelled as kind sxor: its x entries must be refused.
X_ON_SXOR = PACKETS[7][:5] + bytes([1]) + PACKETS[7][6:]


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


def load_text(text):
    return load_matrix(io.StringIO(text))


def parsed(parse, text):
    try:
        return timed(parse, text, PARSE_SECONDS)
    except MatrixFormatError:
        return None


@PROPERTY
@given(damaged(TEXTS, TEXT_UNITS))
@example(TEXTS[0].replace("\n", "\x1c", 2))  # a line end only splitlines() sees
@example(TEXTS[0].replace(",", ",0000", 1) + "\n" * 1000)  # past the budget
def test_damaged_matrix_text_parses_or_raises_matrix_format_error(text):
    # Both parsers read every text: load_matrix returns what parse_matrix
    # returns unless the text is past its budget, where it may refuse.
    mat, loaded = parsed(parse_matrix, text), parsed(load_text, text)
    if mat is None:
        assert loaded is None
        return
    assert isinstance(mat, GenMatrix)
    header, _, rows = text.partition("\n")
    if len(header) < _FIELDS_LIMIT and len(rows) <= _rows_limit(mat.spec.k, mat.spec.n):
        assert loaded == mat
    else:
        assert loaded in (None, mat)


def parse_sidecar(text):
    return parse_fields(text.split(), ("len",))


@PROPERTY
@given(damaged(SIDECARS, TEXT_UNITS))
def test_damaged_sidecar_line_parses_or_raises_matrix_format_error(text):
    try:
        spec, extra = timed(parse_sidecar, text, PARSE_SECONDS)
    except MatrixFormatError:
        return
    assert isinstance(spec, CodeSpec)
    assert set(extra) <= {"len"}


@pytest.fixture(scope="module")
def encoded(tmp_path_factory):
    # One directory per code: a 5-byte-per-source file, its first K packets
    # (the sidecar is found next to the first) and its original bytes.
    cases = []
    for i, mat in enumerate(MATRICES):
        out = tmp_path_factory.mktemp(f"code{i}")
        data = bytes(range(i, i + 5 * mat.spec.k))
        packets = encode(mat, [int.from_bytes(data[5 * r:5 * r + 5], "little")
                               for r in range(mat.spec.k)], 40)
        paths = []
        for p in packets[:mat.spec.k]:
            paths.append(out / f"data.bin.p{p.index}.sxp")
            paths[-1].write_bytes(packet_to_bytes(p))
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
    assert code in (0, 1, 2), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == 0:  # only a shorter len still decodes: a prefix of the original
        assert original.startswith(restored.read_bytes())
