"""Property tests for zigzag elimination on random monomial matrices.

The oracle is a direct one-bit-at-a-time elimination on whole-int state
(each resolved bit rewrites a big int, so it is quadratic in L), in the
same lowest-position-first order with ties broken by packet order.
"""

import pytest

pytest.importorskip("hypothesis")

from dataclasses import replace
from heapq import heappop, heappush
from itertools import combinations, product
from unittest import mock

from hypothesis import given, settings, strategies as st

from sxor import codec, zigzag
from sxor.codec import SingularSubmatrix, ZigzagStuck, encode, map_decode, zigzag_decode, zigzag_schedule
from sxor.codes import builtin_zd_k3, user_matrix
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


def test_two_source_peel_completes_when_the_determinant_is_nonzero():
    # P = z^a s1 + z^b s2 and Q = z^c s1 + z^d s2: whenever a + d != b + c the
    # per-bit peel finishes at every length, which is what lets zigzag_decode
    # solve such a pair with one exact division instead.
    for a, b, c, d in product(range(5), repeat=4):
        if a + d == b + c:
            continue
        mat = user_matrix([[1 << a, 1 << c], [1 << b, 1 << d]])
        for length in range(1, 13):
            assert len(zigzag_schedule(mat, (1, 2), length)) == 2 * length


@st.composite
def flipped_cases(draw):
    # K = 2..4 monomial codes, sources of up to a few hundred bits, and
    # survivors carrying 0-3 flipped payload bits, drawn from a seeded
    # random.Random: its spread-out shifts reach two sources left after the
    # whole-source peel, with a + d != b + c or not, far more often than
    # shrink-friendly draws.
    rng = draw(st.randoms(use_true_random=False))
    k = rng.randint(2, 4)
    n = rng.randint(k, k + 2)
    rows = [[rng.choice([0, 1, 2, 4, 8, 16, 32]) for _ in range(n)] for _ in range(k)]
    survivors = tuple(sorted(rng.sample(range(1, n + 1), k)))
    length = rng.randint(1, 300)
    sources = [rng.getrandbits(length) for _ in range(k)]
    # Half the flips land in a packet's lowest bits, below most sources' shifts.
    flips = [(rng.randrange(k), rng.randrange(rng.choice([16, 1 << 16])))
             for _ in range(rng.choice([0, 0, 1, 2, 3]))]
    return user_matrix(rows), survivors, length, sources, flips


def decoded(decode, mat, packets):
    # The sources, or the error's type, message and progress.
    try:
        return [s.mask for s in decode(mat, packets)]
    except (ZigzagStuck, InconsistentDivision) as exc:
        return type(exc), str(exc), getattr(exc, "resolved", None)


def unworded(result):
    return result if isinstance(result, list) else (result[0], result[2])


@settings(PROPERTY, max_examples=500)
@given(flipped_cases())
def test_word_wide_sets_decode_as_the_per_bit_peel(case):
    mat, survivors, length, sources, flips = case
    packets = encode(mat, sources, length)
    chosen = [packets[j - 1] for j in survivors]
    for pi, bit in flips:
        bits = chosen[pi].bits.mask ^ (1 << bit % chosen[pi].bit_len)
        chosen[pi] = replace(chosen[pi], bits=Poly2(bits))
    got = decoded(zigzag_decode, mat, chosen)
    pattern = zigzag._pattern  # memoized: patching _word_wide alone would miss a warm entry
    with mock.patch.object(zigzag, "_pattern", lambda *args: (*pattern(*args)[:2], False)):
        per_bit = decoded(zigzag_decode, mat, chosen)
    assert unworded(got) == unworded(per_bit)
    if zigzag._word_wide(zigzag._monomial_terms(mat, survivors)[0], mat.spec.k):
        codec.map_kernel(mat, survivors)
        assert len(zigzag_schedule(mat, survivors, length)) == mat.spec.k * length
        assert got == decoded(map_decode, mat, chosen)


def test_small_scope_zigzag_agrees_with_map_and_the_oracle():
    # Every 2 x 2 matrix of entries 0, 1, z, z^2 and every zd3 set, each
    # with every source tuple at L = 1, 2: zigzag_decode returns the
    # sources or stalls where the quadratic elimination does, and matches
    # map_decode wherever det(A_I) != 0.
    cases = [(user_matrix([[a, b], [c, d]]), (1, 2)) for a, b, c, d in product((0, 1, 2, 4), repeat=4)]
    cases += [(builtin_zd_k3(), s) for s in combinations(range(1, 7), 3)]
    for mat, survivors in cases:
        for length in (1, 2):
            expected = outcome(quadratic_schedule, mat, survivors, length)
            for sources in product(range(1 << length), repeat=mat.spec.k):
                packets = encode(mat, sources, length)
                chosen = [packets[j - 1] for j in survivors]
                got = outcome(zigzag_decode, mat, chosen)
                if expected[0] == "stuck":
                    assert got == expected
                else:
                    assert [s.mask for s in got] == list(sources)
                try:
                    assert got == map_decode(mat, chosen)
                except SingularSubmatrix:
                    pass


def test_equal_shift_sums_stay_per_bit():
    # a + d = b + c: det(A_I) = 0.  Sources short enough to sit on
    # separated supports still peel bit by bit, where map_decode cannot.
    mat = user_matrix([[1 << 8, 1 << 16], [1, 1 << 8]])
    sources = [0xa5, 0x3c]
    packets = encode(mat, sources, 8)
    assert [s.mask for s in zigzag_decode(mat, packets)] == sources
    with pytest.raises(SingularSubmatrix):
        map_decode(mat, packets)
    # One bit longer, the supports overlap: stuck where the per-bit peel stops.
    packets = encode(mat, [0x1a5, 0x13c], 9)
    with pytest.raises(ZigzagStuck) as exc:
        zigzag_decode(mat, packets)
    assert (exc.value.resolved, exc.value.needed) == (16, 18)
    with pytest.raises(ZigzagStuck) as order:
        zigzag_schedule(mat, (1, 2), 9)
    assert order.value.resolved == 16
