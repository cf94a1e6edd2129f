"""Tests for the successive-elimination plan of :class:`~sxor.codec.MapKernel`.

The reference is the one-shot kernel: every source divided by its own
column of the survivor set's adjugate, in lowest terms, over the
payloads themselves.  The plan must never divide by more taps, and must
accept and reject exactly the packets the one-shot decoder does.
"""

from dataclasses import replace
from functools import reduce
from itertools import combinations

from sxor import codec
from sxor.codec import _Run, _check_packets, _combine, encode, map_decode, map_kernel
from sxor.codes import build_sxor, build_systematic_sxor, builtin_zd_k3, user_matrix
from sxor.gf2poly import (InconsistentDivision, Poly2, _divmod_masks, _gcd_masks, exact_div_low,
                          split_shift)
from sxor.polymat import PolyMatrix


def one_shot_columns(mat, idx):
    """(shift, feedback, column) per source, from column c of adj and det over their gcd."""
    det, adj = mat.submatrix(idx).det_adjugate()
    columns = []
    for col in zip(*adj._masks):
        g = reduce(_gcd_masks, col, det.mask)
        shift, feedback = split_shift(Poly2(_divmod_masks(det.mask, g)[0]))
        columns.append((shift, feedback, tuple(_divmod_masks(e, g)[0] for e in col)))
    return columns


def one_shot_decode(mat, packets):
    length, masks, idx = _check_packets(mat, packets)
    payloads = [masks[p] for p in idx]
    sources = []
    for shift, feedback, col in one_shot_columns(mat, idx):
        b = _combine(col, payloads)
        if b & ((1 << shift) - 1):
            raise InconsistentDivision("set bits below the shift")
        sources.append(exact_div_low(Poly2(b >> shift), feedback, length))
    return sources


def striped_decode(mat, packets, width=3):
    # map_decode's network, run over 3-bit stripes of the 8-bit sources.
    length, masks, idx = _check_packets(mat, packets)
    net, outs = map_kernel(mat, idx).network
    run = _Run(net, length)
    stripes = (length - 1) // width
    payloads = [masks[p] for p in idx]
    try:
        for t in range(stripes):
            run.push([v >> (t * width) & ((1 << width) - 1) for v in payloads], width)
        run.push([v >> (stripes * width) for v in payloads], 0, final=True)
    except InconsistentDivision:
        return InconsistentDivision
    return [run.take(q) for q in outs]


def taps(feedback):
    return feedback.term_count() - 1


def test_the_plan_never_divides_by_more_taps_than_one_shot_columns():
    totals = {}
    for name, mat in (("sxor 4/7", build_sxor(4, 7, 0xB)),
                      ("systematic 5/7", build_systematic_sxor(5, 7, 0xB, range(1, 6))),
                      ("zd3", builtin_zd_k3()),
                      ("sxor 5/15", build_sxor(5, 15, 0x13))):
        one_shot = plan = 0
        for idx in combinations(range(1, mat.spec.n + 1), mat.spec.k):
            a = sum(taps(feedback) for _, feedback, _ in one_shot_columns(mat, idx))
            b = sum(taps(step.feedback) for step in map_kernel(mat, idx).steps)
            assert b <= a, (name, idx)
            one_shot, plan = one_shot + a, plan + b
        totals[name] = (one_shot, plan)
    assert totals == {"sxor 4/7": (266, 79), "systematic 5/7": (20, 15), "zd3": (21, 11),
                      "sxor 5/15": (45500, 14807)}


def test_every_bit_flip_is_rejected_exactly_when_one_shot_rejects_it():
    # Every equation is dropped by some step, and the plan keeps no check of
    # its own at the end: its divisions alone must catch every flip that the
    # one-shot divisions catch, in one stripe or in several.
    mat = build_sxor(4, 7, 0xB)
    sources = [0x5A, 0x3C, 0xF0, 0x99]
    packets = {p.index: p for p in encode(mat, sources, 8)}
    rejected = 0
    for idx in combinations(range(1, 8), 4):
        for p in idx:
            for bit in range(packets[p].bit_len):
                flipped = replace(packets[p], bits=Poly2(packets[p].bits.mask ^ 1 << bit))
                chosen = [flipped if q == p else packets[q] for q in idx]
                try:
                    want = [s.mask for s in one_shot_decode(mat, chosen)]
                except InconsistentDivision:
                    want = InconsistentDivision
                try:
                    got = [s.mask for s in map_decode(mat, chosen)]
                except InconsistentDivision:
                    got = InconsistentDivision
                assert got == want, (idx, p, bit)
                assert striped_decode(mat, chosen) == want, (idx, p, bit)
                rejected += got is InconsistentDivision
    assert rejected > 0


def test_ties_go_to_the_lowest_source_and_equation():
    # c1 = s1 + z s2 and c2 = z s1 + s2: both sources divide by z^2 + 1 over
    # both packets.  Source 1 goes first, and dropping equation 1 (a tie
    # with equation 2) leaves s2 verbatim in residual 2, once z s1 is
    # cancelled from it.
    kern = map_kernel(user_matrix([[1, 2], [2, 1]]), (1, 2))
    assert [tuple(s) for s in kern.steps] == [
        (0, 0, Poly2(0b101), (1, 2), ()),
        (1, 0, Poly2(1), (0, 1), ((1, (2,), (0,)),))]


def test_two_decodes_of_one_set_eliminate_once(monkeypatch):
    calls = []
    original = PolyMatrix.det_adjugate

    def counted(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(PolyMatrix, "det_adjugate", counted)
    codec._map_kernel.cache_clear()
    mat = build_sxor(5, 15, 0x13)
    packets = encode(mat, [1, 2, 3, 4, 5], 16)
    for _ in range(2):
        assert [s.mask for s in map_decode(mat, packets[-5:])] == [1, 2, 3, 4, 5]
    assert len(calls) == 1
