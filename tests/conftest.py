"""Fixtures shared by the test modules."""

from collections import Counter

import pytest

from sxor import gf2poly


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
