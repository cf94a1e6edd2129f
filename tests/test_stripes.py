"""Property tests for the stripe core that encoding and MAP decoding share.

A network run over stripes of 8 to 64 bits must give what one stripe of
the whole stream gives: the same packet payloads on encoding, and on
decoding the same sources or the same error, named by the same source.
"""

import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace
from itertools import combinations

from hypothesis import given, settings, strategies as st

from sxor.codec import _Run, _check_packets, _encoder, encode, map_decode, map_kernel
from sxor.codes import build_sxor, build_systematic_sxor, builtin_zd_k3, user_matrix
from sxor.gf2poly import InconsistentDivision, Poly2

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


def run_striped(network, values, length, width):
    # A network run over width-bit stripes of the length-bit sources, as
    # the CLI runs its files.
    net, outs = network
    run = _Run(net, length)
    stripes = (length - 1) // width
    for t in range(stripes):
        run.push([v >> (t * width) & ((1 << width) - 1) for v in values], width)
    run.push([v >> (stripes * width) for v in values], 0, final=True)
    return [run.take(q) for q in outs]


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
