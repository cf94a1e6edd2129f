"""Zigzag decoding of monomial survivor sets, loaded on first use.

Zigzag decoding applies only when A_I is monomial (every entry 0 or a
single power of z).  It is the per-bit peel of ZigZag decoding
(Gollakota and Katabi, SIGCOMM 2008) over packets held one byte per bit:
read off an "exposed" packet bit covered by exactly one unresolved
source bit and cancel that bit from every packet carrying it, always
taking the lowest exposed position first (ties broken by packet order),
the textbook left-to-right elimination.  Every survivor's residual (its
payload with the recovered sources cancelled) must end at zero.  Sets
whose determinant the matrix alone proves nonzero skip it and run the
MAP network of :mod:`sxor.codec` instead, word-wide: peel whole sources
off the monomial pattern while some survivor carries exactly one
unresolved source; when none is left, or two on the two survivors left,
P = z**a s1 + z**b s2 and Q = z**c s1 + z**d s2 with a + d != b + c,
A_I is triangular up to order but for that 2 x 2 block, so det(A_I) is
nonzero.  There the per-bit peel would complete too, and both decoders
accept exactly the payloads that length-L sources reproduce, so the
choice changes no decoded source, only a rejection's message.

``sxor encode`` and ``sxor decode`` never import this module:
:mod:`sxor.codec` and the root package serve its public names, and
``MAX_PEEL_BITS`` and ``MAX_SCHEDULE_BITS``, through PEP 562
``__getattr__``, which loads it on first use.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Sequence

from .codec import NotMonomialMatrix, Packet, ZigzagStuck, _check_packets, _run, map_kernel
from .codes import GenMatrix
from .gf2poly import InconsistentDivision, Poly2

__all__ = ["zigzag_schedule", "zigzag_decode"]


def _monomial_terms(mat: GenMatrix, idx: tuple[int, ...]):
    # cover[pi] lists (row, t) for every nonzero entry z**t of survivor
    # idx[pi]; hits[row] lists (pi, t) for every survivor holding source row.
    cover = []
    for p in idx:
        col = []
        for row in range(mat.spec.k):
            e = mat._masks[row][p - 1]
            if not e:
                continue
            if e.bit_count() != 1:
                raise NotMonomialMatrix(
                    f"entry for source {row + 1} in packet {p} is {Poly2(e)}, not a monomial")
            col.append((row, e.bit_length() - 1))
        cover.append(tuple(col))
    hits = [[] for _ in range(mat.spec.k)]
    for pi, col in enumerate(cover):
        for row, t in col:
            hits[row].append((pi, t))
    return tuple(cover), tuple(map(tuple, hits))


@lru_cache(maxsize=256)
def _pattern(mat: GenMatrix, idx: tuple[int, ...]):
    # _monomial_terms of the survivors idx and the _word_wide verdict on
    # them, derived once per (matrix, survivors) as _map_kernel is.  A
    # matrix that is not monomial there raises, and is not cached, so it
    # raises again on every call.
    cover, hits = _monomial_terms(mat, idx)
    return cover, hits, _word_wide(cover, mat.spec.k)


_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")

# Most packet bits the per-bit zigzag peel may hold, summed over the
# survivors: about a 128 KiB zd3 object.  At the limit, zd3's all-parity
# set (4, 5, 6) took zigzag_decode 1.2 s and 4.1 MiB over the process
# (about 4 bytes per packet bit).
MAX_PEEL_BITS = 1 << 20
# Most source bits, K * L, whose order zigzag_schedule may return: it
# holds a tuple per source bit, about 176 bytes each while the order is
# built.  At the limit, zd3's set (4, 5, 6) (L = 21845) and an 8 x 8
# monomial matrix (L = 8192) each raised a fresh process's peak RSS
# (ru_maxrss) by 11.0 MiB, where 2**20 packet bits of (4, 5, 6) took 182 MiB.
MAX_SCHEDULE_BITS = 1 << 16


def _bit_buffers(mat: GenMatrix, idx: tuple[int, ...], length: int, work: Sequence[int]) -> list[bytearray]:
    # Byte k of each buffer is bit k of its survivor's payload, refused
    # before any is made when they would pass MAX_PEEL_BITS.
    sizes = [length + mat.column_overheads()[p - 1] for p in idx]
    if sum(sizes) > MAX_PEEL_BITS:
        raise ValueError(f"source length {length}: the per-bit zigzag stage would hold {sum(sizes)} "
                         f"packet bits, more than the limit of {MAX_PEEL_BITS}")
    return [bytearray(format(w, f"0{n}b")[::-1], "ascii").translate(_TO_BITS)
            for w, n in zip(work, sizes)]


def _peel_bits(cover, hits, length: int, bufs: list[bytearray], trace: list | None):
    """Per-bit zigzag elimination of every source.

    ``bufs[pi]`` holds survivor pi's payload, one byte per bit; each
    recovered bit is read off its exposing packet and XORed out of every
    packet that carries it, so ``bufs`` ends as the residual of the whole
    elimination.  The lowest exposed bit position is always taken first,
    ties broken by packet order; ``trace`` (when given) receives (row,
    bit, pi) in that order.  Returns the number of bits recovered and,
    per source, its bit values.
    """
    k = len(bufs)
    # load[pi][pos] = k * n + (sum of their rows) for the n unresolved
    # source bits mapped to that packet bit, so the bit is exposed exactly
    # when k <= load < 2 * k, and load - k is then the row exposed there.
    # Built from difference arrays, one interval per entry.  n <= k <= MAX_K
    # = 32, so a load, and a difference, is at most 32 * 32 + 496 = 1520 in
    # size, and both arrays hold it in 16 bits.
    shift = [dict(col) for col in cover]
    loads = []
    heap = []
    for pi, col in enumerate(cover):
        diff = array("h", bytes(2 * len(bufs[pi]) + 2))
        for row, t in col:
            diff[t] += k + row
            diff[t + length] -= k + row
        diff.pop()
        load = array("H", accumulate(diff))
        loads.append(load)
        heap.extend(pos * k + pi for pos, n in enumerate(load) if k <= n < 2 * k)
    heapify(heap)  # keys pos * k + pi order by position, then packet

    # Per row, what resolving one of its bits touches in each survivor
    # carrying it: the residual, the load, and the offset turning the bit
    # position into that packet bit's heap key.
    touch = [tuple((bufs[qi], loads[qi], tq, tq * k + qi) for qi, tq in hits[row])
             for row in range(k)]
    values = [bytearray(length) for _ in range(k)]
    done = 0
    while heap:
        pos, pi = divmod(heappop(heap), k)
        row = loads[pi][pos] - k
        if not 0 <= row < k:
            continue  # stale entry; the bit was emptied since
        bit = pos - shift[pi][row]
        done += 1
        if trace is not None:
            trace.append((row, bit, pi))
        value = values[row][bit] = bufs[pi][pos]
        step = k + row
        for buf, load, tq, off in touch[row]:
            qpos = bit + tq
            buf[qpos] ^= value
            n = load[qpos] = load[qpos] - step
            if k <= n < 2 * k:
                heappush(heap, bit * k + off)
    return done, values


def _peel(mat: GenMatrix, idx: tuple[int, ...], length: int, payloads: Sequence[int],
          trace: list | None) -> tuple[list[bytearray], list[bytearray]]:
    # The per-bit peel of the survivors idx, for zigzag_schedule and
    # zigzag_decode: each source's bits and each survivor's residual.
    k = mat.spec.k
    cover, hits, _ = _pattern(mat, idx)
    bufs = _bit_buffers(mat, idx, length, payloads)
    done, values = _peel_bits(cover, hits, length, bufs, trace)
    if done != k * length:
        raise ZigzagStuck(done, k * length)
    return values, bufs


def zigzag_schedule(mat: GenMatrix, survivors: Sequence[int], length: int) -> tuple[tuple[int, int, int], ...]:
    """Elimination order for zigzag decoding, as (source_row, bit, packet) triples.

    source_row is 0-based, bit is the 0-based source bit position, packet
    is the 1-based packet whose exposed bit reveals it.  The schedule
    contains each of the K * length source bits exactly once on success;
    :class:`ZigzagStuck` reports how far elimination got otherwise.
    ``survivors`` must pass :meth:`GenMatrix.check_survivors`, and their
    entries must all be monomials (:class:`NotMonomialMatrix`).  K *
    length may be at most ``MAX_SCHEDULE_BITS``, and their packets may
    hold at most ``MAX_PEEL_BITS`` bits together, else ``ValueError``
    before the order is built.
    """
    k = mat.spec.k
    idx = mat.check_survivors(survivors)
    if length < 1:
        raise ValueError("source length must be positive")
    if k * length > MAX_SCHEDULE_BITS:
        raise ValueError(f"source length {length}: the zigzag schedule would hold {k * length} "
                         f"source bits, more than the limit of {MAX_SCHEDULE_BITS}")
    trace: list[tuple[int, int, int]] = []
    _peel(mat, idx, length, [0] * k, trace)  # zero payloads: only the order counts
    return tuple((row, bit, idx[pi]) for row, bit, pi in trace)


def _word_wide(cover, k: int) -> bool:
    """Whether the monomial pattern ``cover`` alone proves det(A_I) nonzero.

    Peels whole sources, no payload: while some survivor carries exactly
    one source not yet peeled, that source is.  True when none is left,
    or two on the two survivors left, P = z**a s1 + z**b s2 and
    Q = z**c s1 + z**d s2, with a + d != b + c: ordered by the peel, A_I
    is triangular with monomials on its diagonal but for that 2 x 2
    block, whose determinant z**(a+d) + z**(b+c) is then nonzero.
    """
    live = set(range(k))
    peeled = True
    while peeled:
        peeled = False
        for col in cover:
            left = [row for row, _ in col if row in live]
            if len(left) == 1:
                live.remove(left[0])
                peeled = True
    if len(live) != 2:
        return not live
    r1, r2 = live
    both = [dict(col) for col in cover if live <= {row for row, _ in col}]
    return len(both) == 2 and both[0][r1] + both[1][r2] != both[0][r2] + both[1][r1]


def zigzag_decode(mat: GenMatrix, packets: Sequence[Packet]) -> list[Poly2]:
    """Recover the sources by zigzag elimination (monomial survivors only).

    Sets whose determinant :func:`_word_wide` proves nonzero from the
    matrix alone run the :func:`~sxor.codec.map_decode` network, word-wide; the rest
    go through the per-bit elimination of :func:`zigzag_schedule` (see
    the module docstring).  Both accept exactly the payloads that some
    length-L sources reproduce, and return the same sources, so where
    :func:`~sxor.codec.map_decode` also applies the two agree.  Other payloads raise
    :class:`~sxor.gf2poly.InconsistentDivision`: on a word-wide set with
    :func:`~sxor.codec.map_decode`'s message, which names a source, and otherwise
    naming the first survivor whose residual did not end at zero.

    Memory: the per-bit peel holds about 4-5 bytes per packet bit.  Of
    zd3's 20 sets, only the all-parity one (4, 5, 6) reaches it.  A
    decode that reaches it with more than ``MAX_PEEL_BITS`` packet bits
    over its survivors raises ``ValueError`` before it holds them, as
    :func:`zigzag_schedule` does; word-wide sets, like
    :func:`~sxor.codec.map_decode`, have no such limit.
    """
    length, masks, idx = _check_packets(mat, packets)
    payloads = [masks[p] for p in idx]
    if _pattern(mat, idx)[2]:
        return [Poly2(s) for s in _run(map_kernel(mat, idx).network, payloads, length)]
    values, residuals = _peel(mat, idx, length, payloads, None)
    for p, buf in zip(idx, residuals):
        if 1 in buf:
            raise InconsistentDivision(f"packet {p}: payload does not match the recovered sources")
    return [Poly2(int(bits.translate(_TO_DIGITS)[::-1], 2)) for bits in values]
