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

    Call the fixture with the chunk size, a power of two, and optionally
    a bound on the divisors' order in place of ``gf2poly._ORDER_BOUND``,
    to get a Counter.  ``"binomial"`` counts the divisions that run
    through the divisor's binomial multiple (``gf2poly._binomial_pays``
    said so); ``"chunk stage"`` counts those that end on
    ``gf2poly._chunk_recurrence``; ``"doubled"`` counts those on the taps
    path that still had taps at the chunk size and doubled to the end
    instead.
    """
    ran = Counter()
    div_low, chunk_recurrence = gf2poly._div_low, gf2poly._chunk_recurrence
    binomial_pays = gf2poly._binomial_pays

    def counted_chunks(*args):
        ran["chunk stage"] += 1
        return chunk_recurrence(*args)

    def counted_pays(*args):
        paid = binomial_pays(*args)
        ran["binomial"] += paid
        return paid

    def start(chunk, bound=gf2poly._ORDER_BOUND):
        def counted_div(b, h, width, carry=0, mask=0):
            before = ran["chunk stage"] + ran["binomial"]
            result = div_low(b, h, width, carry, mask)
            taps = h ^ 1
            if (ran["chunk stage"] + ran["binomial"] == before and taps
                    and (taps & -taps).bit_length() - 1 < width / chunk):
                ran["doubled"] += 1
            return result

        monkeypatch.setattr(gf2poly, "_CHUNK", chunk)
        monkeypatch.setattr(gf2poly, "_chunk_recurrence", counted_chunks)
        monkeypatch.setattr(gf2poly, "_binomial_pays", counted_pays)
        monkeypatch.setattr(gf2poly, "_div_low", counted_div)
        monkeypatch.setattr(gf2poly, "_ORDER_BOUND", bound)
        gf2poly._binomial.cache_clear()  # its orders were found under the old bound
        return ran

    yield start
    gf2poly._binomial.cache_clear()
