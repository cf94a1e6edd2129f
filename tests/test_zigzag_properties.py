"""Property tests for zigzag elimination on random monomial matrices.

The oracle is a direct one-bit-at-a-time elimination on whole-int state
(each resolved bit rewrites a big int, so it is quadratic in L), in the
same lowest-position-first order with ties broken by packet order.
"""

import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace
from heapq import heappop, heappush

from hypothesis import given, settings, strategies as st

from sxor.codec import SingularSubmatrix, ZigzagStuck, encode, map_decode, zigzag_decode, zigzag_schedule
from sxor.codes import user_matrix
from sxor.gf2poly import InconsistentDivision, Poly2

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


def quadratic_schedule(mat, idx, length):
    k = mat.spec.k
    over = mat.column_overheads()
    shift = [[mat._masks[row][p - 1].bit_length() - 1 if mat._masks[row][p - 1] else None
              for row in range(k)] for p in idx]
    counts = []
    for pi, p in enumerate(idx):
        col = [0] * (length + over[p - 1])
        for t in shift[pi]:
            if t is not None:
                for pos in range(t, t + length):
                    col[pos] += 1
        counts.append(col)
    heap = [(pos, pi) for pi in range(k) for pos, c in enumerate(counts[pi]) if c == 1]
    heap.sort()
    resolved = [0] * k
    schedule = []
    while heap:
        pos, pi = heappop(heap)
        if counts[pi][pos] != 1:
            continue
        row, bit = next((row, pos - t) for row, t in enumerate(shift[pi])
                        if t is not None and 0 <= pos - t < length
                        and not (resolved[row] >> (pos - t)) & 1)
        schedule.append((row, bit, idx[pi]))
        resolved[row] |= 1 << bit
        for qi in range(k):
            tq = shift[qi][row]
            if tq is not None:
                counts[qi][bit + tq] -= 1
                if counts[qi][bit + tq] == 1:
                    heappush(heap, (bit + tq, qi))
    if len(schedule) != k * length:
        raise ZigzagStuck(len(schedule), k * length)
    return tuple(schedule)


@st.composite
def monomial_cases(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k, k + 3))
    rows = draw(st.lists(st.lists(st.sampled_from([0, 1, 2, 4, 8]), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    survivors = tuple(sorted(draw(st.permutations(range(1, n + 1)))[:k]))
    length = draw(st.integers(1, 40))
    sources = [draw(st.integers(0, (1 << length) - 1)) for _ in range(k)]
    return user_matrix(rows), survivors, length, sources


def outcome(fn, *args):
    try:
        return fn(*args)
    except ZigzagStuck as exc:
        return ("stuck", exc.resolved, exc.needed)
    except InconsistentDivision:
        return "inconsistent"


@PROPERTY
@given(monomial_cases(), st.data())
def test_zigzag_matches_the_quadratic_elimination(case, data):
    mat, survivors, length, sources = case
    expected = outcome(quadratic_schedule, mat, survivors, length)
    assert outcome(zigzag_schedule, mat, survivors, length) == expected
    packets = encode(mat, sources, length)
    chosen = [packets[j - 1] for j in survivors]
    if expected[0] == "stuck":
        assert outcome(zigzag_decode, mat, chosen) == expected
        return
    assert [s.mask for s in zigzag_decode(mat, chosen)] == sources
    # Then one flipped payload bit: both decoders reject it, or both solve it alike.
    flip = data.draw(st.integers(0, len(chosen) - 1))
    bit = data.draw(st.integers(0, chosen[flip].bit_len - 1))
    flipped = list(chosen)
    flipped[flip] = replace(chosen[flip], bits=Poly2(chosen[flip].bits.mask ^ (1 << bit)))
    for payloads in (chosen, flipped):
        try:
            exact = outcome(map_decode, mat, payloads)
        except SingularSubmatrix:
            continue  # zigzag can still separate short sources when det(A_I) = 0
        assert outcome(zigzag_decode, mat, payloads) == exact
