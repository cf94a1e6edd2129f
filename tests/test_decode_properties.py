"""Property tests for MAP decoding by the kernel's successive-elimination plan.

The oracle is the decoder that divides every source by the kernel's one
common determinant: it reads only ``combine``, ``shift`` and ``feedback``
of :class:`~sxor.codec.MapKernel`, not the plan's ``steps``.
"""

import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace

from hypothesis import given, settings, strategies as st

from sxor.codec import _check_packets, encode, map_decode, map_kernel
from sxor.codes import build_sxor, build_systematic_sxor, builtin_zd_k3
from sxor.gf2poly import InconsistentDivision, Poly2, exact_div_low

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

# The division's chunk size while the decode properties run: small
# enough that short sources reach both the chunk stage (past 64 chunks)
# and the doubling that runs to the end below it.
CHUNK = 16

# The bound on the feedbacks' order while the decode properties run: low
# enough that some feedbacks of these codes take the binomial path and
# others, at long lengths, the chunk stage.
ORDER_BOUND = 4

G3 = 0xB
MATS = [build_sxor(3, 7, G3), build_sxor(4, 7, G3), build_systematic_sxor(4, 7, G3, (1, 2, 3, 4)),
        build_systematic_sxor(6, 15, 0x13, range(1, 7)), builtin_zd_k3()]


def global_kernel_decode(mat, packets):
    length, masks, idx = _check_packets(mat, packets)
    kern = map_kernel(mat, idx)
    sources = []
    for c in range(mat.spec.k):
        b = Poly2(0)
        for r, p in enumerate(idx):
            b += kern.combine.entries[r][c] * Poly2(masks[p])
        if b.mask & ((1 << kern.shift) - 1):
            raise InconsistentDivision(f"source {c + 1}: set bits below z^{kern.shift}")
        sources.append(exact_div_low(Poly2(b.mask >> kern.shift), kern.feedback, length))
    return sources


@st.composite
def decode_cases(draw):
    mat = draw(st.sampled_from(MATS))
    k, n = mat.spec.k, mat.spec.n
    # Lengths of one to three chunks double past the chunk size; lengths
    # past 64 chunks run the division's chunk stage.
    length = draw(st.integers(1, 48) | st.integers(CHUNK + 1, 3 * CHUNK)
                  | st.integers(64 * CHUNK + 1, 66 * CHUNK))
    sources = draw(st.lists(st.integers(0, (1 << length) - 1), min_size=k, max_size=k))
    survivors = draw(st.lists(st.integers(1, n), min_size=k, max_size=k, unique=True))
    packets = [p for p in encode(mat, sources, length) if p.index in survivors]
    flipped = draw(st.booleans())
    if flipped:
        i = draw(st.integers(0, k - 1))
        p = packets[i]
        bit = draw(st.integers(0, p.bit_len - 1))
        packets[i] = replace(p, bits=Poly2(p.bits.mask ^ (1 << bit)))
    return mat, sources, packets, flipped


def outcome(decode, mat, packets):
    try:
        return [s.mask for s in decode(mat, packets)]
    except ValueError as exc:
        return type(exc)


def test_map_decode_matches_the_global_kernel_decoder(division_paths):
    @PROPERTY
    @given(decode_cases())
    def check(case):
        mat, sources, packets, flipped = case
        got = outcome(map_decode, mat, packets)
        assert got == outcome(global_kernel_decode, mat, packets)
        if not flipped:
            assert got == sources

    ran = division_paths(CHUNK, ORDER_BOUND)
    check()
    assert ran["binomial"] and ran["chunk stage"] and ran["doubled"], ran
