"""Fuzz tests for the two formats read from outside: SXP1 packets and matrix text.

Real packets and matrix files are damaged in 1-3 places (or truncated);
the parsers must either return a value or raise their own format error,
never any other exception.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from sxor.codec import Packet, PacketFormatError, encode, packet_from_bytes, packet_to_bytes
from sxor.codes import (GenMatrix, MatrixFormatError, build_sxor, build_systematic_sxor,
                        builtin_zd_k3, format_matrix, parse_matrix)

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

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


@PROPERTY
@given(damaged(PACKETS, st.binary(min_size=1, max_size=1)))
@example(X_ON_SXOR)
def test_damaged_packet_parses_or_raises_packet_format_error(data):
    try:
        packet = packet_from_bytes(data)
    except PacketFormatError:
        return
    assert isinstance(packet, Packet)


@PROPERTY
@given(damaged(TEXTS, TEXT_UNITS))
def test_damaged_matrix_text_parses_or_raises_matrix_format_error(text):
    try:
        mat = parse_matrix(text)
    except MatrixFormatError:
        return
    assert isinstance(mat, GenMatrix)
