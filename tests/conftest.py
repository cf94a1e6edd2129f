"""Fixtures and helpers shared by the test modules."""

from collections import Counter

import pytest

from sxor import codec, gf2poly


def run_striped(net, values, length, width, between=None):
    """The whole outputs of a stripe-core network run over ``width``-bit stripes of ``values``.

    The inputs are fed as ``codec._stream`` feeds its files, but at any
    width, and each output is joined from its stripes: a stripe's bits
    start where the output's bits before the stripe end, its delay
    dropped.  ``between(run)`` is called after every stripe but the
    last.  A failed division raises as ``codec._Run.push`` raises it.
    """
    run = codec._Run(net, length)
    stripes = (length - 1) // width
    got = [0] * len(net.outs)
    for t in range(stripes + 1):
        final = t == stripes
        outs = run.push([v >> t * width if final else v >> t * width & ((1 << width) - 1)
                         for v in values], width, final)
        for j, x in enumerate(net.outs):
            got[j] |= outs[j] << max(t * width - net.delays[x], 0)
        if between and not final:
            between(run)
    return got


@pytest.fixture
def division_paths(monkeypatch):
    """Run exact divisions at a given chunk size, counting the path each takes past it.

    Call the fixture with the chunk size, a power of two, to get a
    Counter.  ``"chunk stage"`` counts the divisions that end on
    ``gf2poly._chunk_recurrence``; ``"doubled"`` counts those that still
    had taps at the chunk size and doubled to the end instead.
    """
    ran = Counter()
    div_low, chunk_recurrence = gf2poly._div_low, gf2poly._chunk_recurrence

    def counted_chunks(*args):
        ran["chunk stage"] += 1
        return chunk_recurrence(*args)

    def start(chunk):
        def counted_div(b, h, width, carry=0):
            before = ran["chunk stage"]
            result = div_low(b, h, width, carry)
            taps = h ^ 1
            if ran["chunk stage"] == before and taps and (taps & -taps).bit_length() - 1 < width / chunk:
                ran["doubled"] += 1
            return result

        monkeypatch.setattr(gf2poly, "_CHUNK", chunk)
        monkeypatch.setattr(gf2poly, "_chunk_recurrence", counted_chunks)
        monkeypatch.setattr(gf2poly, "_div_low", counted_div)
        return ran

    return start
