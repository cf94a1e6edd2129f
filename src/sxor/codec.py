"""Bit-level packet codec: encoding, exact MAP decoding, zigzag decoding.

Sources and encoded packets are bit streams held as GF(2)[z] polynomials
(bit k = coefficient of z**k), so "shift by t and XOR" is exactly
"multiply by z**t and add".  Encoding packet j computes
c_j = sum_i a_(i,j)(z) * s_i(z); a column whose largest entry degree is
l_j yields a packet of L + l_j bits for L-bit sources.  Such sums, here
and in the MAP combine step, run by Horner's rule: one shift per
distinct exponent of the column, not one per term.

MAP decoding of survivors I with square submatrix A_I uses the adjugate
identity: b = c_I * adj(A_I) equals det(A_I) * s entry-wise, so a source
falls out of one exact division by det, or by the smaller factor its
column of the adjugate in lowest terms (the column and det divided by
their gcd) leaves.  Decoding is successive elimination, the
exact-division form of the zigzag peel: recover the source whose
division has the fewest taps, cancel it from the payloads still to be
read, and solve the smaller system left.  That system's determinant is
a cofactor of the last one, and its adjugate follows from a rank-one
(Desnanot-Jacobi) update, with no second elimination.  A source whose
packet survived verbatim is that payload itself.  Each division runs
low coefficients first and is re-verified by multiplication, which is
what turns packet corruption into a raised error instead of silent
garbage; a division by 1 returns the dividend itself once no bit sits
at or above z**L.

Encoding and MAP decoding run on one stripe core: a network of these
combines, shift drops and divisions over bit streams.  Every output bit
depends only on input bits at or below it, so the network can run on
stripes of its streams, each map carrying across stripes only its
product's carry, its division's state and the few bits by which a
dropped shift sets its inputs apart.  The library runs one stripe of the
whole stream; ``sxor encode`` and ``sxor decode`` stream their files in
2**19-bit stripes, so their memory does not grow with the file.

Zigzag decoding applies only when A_I is monomial (every entry 0 or a
single power of z) and runs in time linear in L.  While some survivor
carries exactly one unresolved source, that whole source is read off it
with one shift and cancelled from every survivor with one big-int XOR
each.  The sources left are peeled bit by bit over packets held one byte
per bit: read off an "exposed" packet bit covered by exactly one
unresolved source bit and cancel that bit from every packet carrying it,
always taking the lowest exposed position first (ties broken by packet
order), the textbook left-to-right elimination.  Peeling is confluent,
so where the stages hand over changes neither the sources nor how far a
stuck elimination gets.  Every survivor's residual (its payload with the
recovered sources cancelled) must end at zero.

The binary packet format is little-endian and self-describing: it embeds
the CodeSpec so a decoder can rebuild the generator matrix from headers
alone for the constructed kinds.
"""

from __future__ import annotations

import io
import os
import struct
from array import array
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from operator import or_
from typing import BinaryIO, NamedTuple, Sequence, Union

from .codes import KINDS, KIND_CODES, CodeSpec, GenMatrix
from .gf2m import PolyLike, _as_poly
from .gf2poly import (InconsistentDivision, Poly2, _div_low, _divmod_masks, _exponents, _gcd_masks,
                      exact_div_low, split_shift)
from .polymat import PolyMatrix, cancel_common_factor

__all__ = [
    "Packet",
    "MapKernel",
    "SingularSubmatrix",
    "TrailingBits",
    "NotMonomialMatrix",
    "ZigzagStuck",
    "PacketFormatError",
    "encode",
    "encode_xor_count",
    "map_kernel",
    "map_decode",
    "zigzag_schedule",
    "zigzag_decode",
    "packet_to_bytes",
    "packet_from_bytes",
    "write_packet",
    "read_packet",
]


class SingularSubmatrix(ValueError):
    """The chosen survivor columns are linearly dependent."""


class TrailingBits(ValueError):
    """A payload carries set bits beyond the length its column permits."""


class NotMonomialMatrix(ValueError):
    """Zigzag decoding needs every survivor entry to be 0 or a single z**t."""


class ZigzagStuck(RuntimeError):
    """Zigzag elimination ran out of exposed bits before finishing.

    ``resolved`` and ``needed`` report progress in source bits.
    """

    def __init__(self, resolved: int, needed: int):
        super().__init__(f"zigzag stuck after {resolved} of {needed} source bits")
        self.resolved = resolved
        self.needed = needed


class PacketFormatError(ValueError):
    """Malformed binary packet."""


@dataclass(frozen=True)
class Packet:
    """One encoded packet.

    ``bits`` is the payload polynomial, ``source_len`` the source length L
    it was encoded for, and ``bit_len`` the formal payload length
    L + l_index; high zero coefficients are significant on the wire, so
    bit_len is carried explicitly rather than recovered from bits.
    """

    index: int
    bits: Poly2
    source_len: int
    bit_len: int
    spec: CodeSpec

    def __post_init__(self):
        _check_fields(self.index, self.source_len, self.bit_len, self.spec)
        if self.bits.mask.bit_length() > self.bit_len:
            raise ValueError(_PAD_BITS)


_PAD_BITS = "payload has set bits beyond its stated length"


def _check_fields(index: int, source_len: int, bit_len: int, spec: CodeSpec) -> None:
    # A packet's rules for its header fields, for Packet and _open_packet.
    if not 1 <= index <= spec.n:
        raise ValueError(f"packet index {index} outside 1..{spec.n}")
    if source_len < 1:
        raise ValueError("source length must be positive")
    if bit_len < source_len:
        raise ValueError("payload length cannot be shorter than the source length")


def _coerce_sources(sources: Sequence[PolyLike], k: int, length: int) -> list[int]:
    srcs = [_as_poly(s).mask for s in sources]
    if len(srcs) != k:
        raise ValueError(f"expected {k} sources, got {len(srcs)}")
    if length < 1:
        raise ValueError("source length must be positive")
    for i, s in enumerate(srcs):
        if s.bit_length() > length:
            raise ValueError(f"source {i + 1} exceeds the stated length of {length} bits")
    return srcs


def _combine(col: Sequence[int], streams: Sequence[int]) -> int:
    """sum_i col[i](z) * streams[i], by Horner's rule over col's exponents.

    Highest exponent first: XOR in the streams carrying it, then shift by
    the gap to the next, so z**37 + 1 costs two shifts, not 38.  A column
    whose only term is z**0 returns its stream itself.
    """
    exps = reduce(or_, col, 0)
    if not exps:
        return 0
    acc = None
    while True:
        t = exps.bit_length() - 1
        for e, x in zip(col, streams):
            if e >> t & 1:
                acc = x if acc is None else acc ^ x
        exps ^= 1 << t
        if not exps:
            return acc << t if t else acc  # x << 0 copies x
        acc <<= t - exps.bit_length() + 1


def encode_xor_count(mat: GenMatrix, sources: Sequence[PolyLike], length: int) -> tuple[list[Packet], int]:
    """Encode and also report the number of packet-level XOR operations.

    Each column combines one shifted source stream per matrix term; the
    count charges one XOR per term beyond the first, independent of L,
    matching the alpha metric exactly.
    """
    srcs = _coerce_sources(sources, mat.spec.k, length)
    over = mat.column_overheads()
    packets = [Packet(j + 1, Poly2(c), length, length + over[j], mat.spec)
               for j, c in enumerate(_run(_encoder(mat), srcs, length))]
    return packets, mat.metrics().alpha


def encode(mat: GenMatrix, sources: Sequence[PolyLike], length: int) -> list[Packet]:
    """Encode K sources of ``length`` bits into N packets (all of them).

    Erasures are modelled downstream by simply dropping packets; any K
    survivors decode for the constructed kinds.
    """
    return encode_xor_count(mat, sources, length)[0]


# -- the stripe core -----------------------------------------------------------


class _Network:
    """A fixed network of maps over numbered streams; a :class:`_Run` runs it.

    Streams 0..inputs-1 are the inputs, and each map added makes the next
    stream: the Horner combine sum_i col[i](z) * in_i, which for a decode
    step's map (``step`` set) then drops the step's shift of low bits,
    which must be zero, and divides exactly by its feedback.  A map reads
    each input through a queue of its own, as a dropped shift sets
    streams some bits apart, and takes per stripe as many bits as all its
    queues hold.  Maps run in the order they were added.
    """

    def __init__(self, inputs: int):
        self.readers = [[] for _ in range(inputs)]  # per stream: the queues reading it
        self.maps = []  # per map: (column, queues it reads, queues reading it, step)
        self.queues = 0

    def read(self, stream: int) -> int:
        self.readers[stream].append(self.queues)
        self.queues += 1
        return self.queues - 1

    def add(self, col, streams, step: DecodeStep | None = None) -> int:
        reads = [self.read(x) for x in streams]
        self.readers.append([])
        self.maps.append((tuple(col), reads, self.readers[-1], step))
        return len(self.readers) - 1


class _Run:
    """One pass of streams through a :class:`_Network`, fed stripe by stripe.

    Per queue, the bits its map has not read yet, lowest first.  Per map,
    its product's carry and, for a decode step, [shift bits still to
    drop, source bits still to come, the division's carry].  Every stripe
    but the last is divided by :func:`~sxor.gf2poly._div_low`; the last
    holds every bit from z**length up and is one
    :func:`~sxor.gf2poly.exact_div_low`.  A failed step's message is kept
    and the run goes on, so that it reports its first failed step, as a
    one-stripe run does.
    """

    def __init__(self, net: _Network, length: int = 0):
        self.net = net
        self.length = length
        self.value = [0] * net.queues
        self.bits = [0] * net.queues
        self.carry = [0] * len(net.maps)
        self.solve = {m: [step.shift, length, 0] for m, (*_, step) in enumerate(net.maps) if step}
        self.failed = {}  # message per failed map

    def put(self, q: int, value: int, bits: int) -> None:
        if self.bits[q]:
            self.value[q] |= value << self.bits[q]
        else:
            self.value[q] = value
        self.bits[q] += bits

    def take(self, q: int, bits: int | None = None) -> int:
        # The lowest ``bits`` bits of queue q, or all it holds.
        value = self.value[q]
        if bits is None or bits == self.bits[q]:
            self.value[q] = self.bits[q] = 0
            return value
        self.value[q] >>= bits
        self.bits[q] -= bits
        return value & ((1 << bits) - 1)

    def push(self, chunks: Sequence[int], bits: int, final: bool = False) -> None:
        """Feed the next ``bits`` bits of each input stream, or with ``final`` all the rest.

        The stripes before the final one must hold only bits below
        z**length of the sources.  After the final stripe, raises
        :class:`InconsistentDivision` for the first decode step that
        failed.
        """
        carry, put, take = self.carry, self.put, self.take
        for v, queues in zip(chunks, self.net.readers):
            for q in queues:
                put(q, v, bits)
        for m, (col, reads, outs, step) in enumerate(self.net.maps):
            n = 0 if final else min(self.bits[q] for q in reads)
            if not (n or final):
                continue
            xs = [take(q, n or None) for q in reads]
            acc = _combine(col, xs)
            if carry[m]:
                acc ^= carry[m]
                carry[m] = 0
            if not final and acc.bit_length() > n:
                acc, carry[m] = acc & ((1 << n) - 1), acc >> n
            if step:
                acc, n = self._solve(m, step, acc, n, final)
            for q in outs:
                put(q, acc, n)
        if final and self.failed:
            raise InconsistentDivision(self.failed[min(self.failed)])

    def _solve(self, m: int, step: DecodeStep, b: int, n: int, final: bool) -> tuple[int, int]:
        state = self.solve[m]
        drop, left, rest = state
        if drop:
            d = drop if final else min(drop, n)
            if b & ((1 << d) - 1):
                self.failed.setdefault(m, f"source {step.source + 1}: combined stream has set "
                                          f"bits below z^{step.shift}")
            b >>= d
            state[0] = drop - d
            n -= d
        if final:
            if rest:
                b ^= rest
            try:
                return exact_div_low(Poly2(b), step.feedback, left).mask, 0
            except InconsistentDivision:
                self.failed.setdefault(m, f"source {step.source + 1}: combined stream is not its "
                                          f"feedback times any source of {self.length} bits")
                return 0, 0
        s = 0
        if n:
            s, state[2] = _div_low(b, step.feedback.mask, n, rest)
            state[1] = left - n
        return s, n


@lru_cache(maxsize=256)
def _encoder(mat: GenMatrix) -> tuple[_Network, list[int]]:
    # One map per packet over the sources its column holds (source 1 times
    # 0 for an all-zero column); a column that is 1 for one source reads
    # that source.  The queues read the payloads.
    net = _Network(mat.spec.k)
    outs = []
    for col in zip(*mat._masks):
        rows = [i for i, e in enumerate(col) if e] or [0]
        if len(rows) == 1 and col[rows[0]] == 1:
            outs.append(net.read(rows[0]))
        else:
            outs.append(net.read(net.add((col[i] for i in rows), rows)))
    return net, outs


def _decoder(steps: Sequence[DecodeStep]) -> tuple[_Network, list[int]]:
    # A kernel's plan as a network over the K payloads, in survivor order:
    # each residual update is a new stream, and each step's map reads the
    # residuals of its column.  A step whose column is 1 on one untouched
    # payload, with shift 0 and feedback 1, reads that payload: then the
    # payload's generator column is 1 for that source alone, so it has no
    # overhead and holds no bit at or above z**L for the division by 1 to
    # catch.  The queues read the sources.
    k = len(steps)
    net = _Network(k)
    res = list(range(k))
    src = [0] * k
    for step in steps:
        for r, coeffs, which in step.update:
            res[r] = net.add((1, *coeffs), [res[r], *(src[i] for i in which)])
        rows = [r for r, e in enumerate(step.column) if e]
        r = rows[0]
        if (rows == [r] and res[r] == r and step.column[r] == 1 and not step.shift
                and step.feedback.mask == 1):
            src[step.source] = r
        else:
            src[step.source] = net.add((step.column[r] for r in rows), (res[r] for r in rows),
                                       step)
    return net, [net.read(x) for x in src]


def _run(network: tuple[_Network, list[int]], values: Sequence[int], length: int) -> list[int]:
    # Whole in-memory streams through a network, as one stripe.
    net, outs = network
    run = _Run(net, length)
    run.push(values, 0, final=True)
    return [run.take(q) for q in outs]


class DecodeStep(NamedTuple):
    """One step of a :class:`MapKernel` plan; positions are 0-based.

    Before the step, each ``update`` entry ``(r, coefficients, sources)``
    brings residual r (payload r less the sources already cancelled from
    it) up to date: those recovered sources, times their generator
    entries for packet r, are cancelled in one Horner combine.  Then
    ``column`` combined over the residuals is z**shift * feedback *
    s_source, so the source is that stream less ``shift`` known-zero low
    bits, divided exactly by ``feedback``.
    """

    source: int
    shift: int
    feedback: Poly2
    column: tuple[int, ...]
    update: tuple[tuple[int, tuple[int, ...], tuple[int, ...]], ...]


@dataclass(frozen=True)
class MapKernel:
    """Precomputed exact-decoding data for one survivor set.

    ``combine`` is the (content-reduced) adjugate B and ``det`` the
    matching determinant d = z**shift * feedback with feedback(0) = 1:
    c_I * B = d * s.  ``steps`` is the plan :func:`map_decode` runs, one
    :class:`DecodeStep` per source, and ``network`` the same plan as the
    stripe core's network, built once with the kernel, with the queues
    that read the sources.

    A step's column is column ``source``, in lowest terms, of the
    adjugate of some system seen while planning: the survivor set less
    the sources recovered before it and as many equations.  Steps whose
    column is the whole set's read the payloads untouched, so they run
    first.  A later step's column solves for its source once every source
    recovered so far is cancelled from the residuals it reads, so a
    residual is brought up to date only when such a step reads it.  No
    residual needs a check at the end: step j's column meets the
    generator row of every source recovered after it in zero, so the K
    columns are independent, and when every step's division is exact,
    every payload is reproduced.
    """

    det: Poly2
    combine: PolyMatrix
    shift: int
    feedback: Poly2
    steps: tuple[DecodeStep, ...]
    network: tuple[_Network, list[int]] = field(repr=False, compare=False)


def _plan(det: int, adj: tuple) -> list[tuple[int, int, int, tuple[int, ...], bool]]:
    """Successive elimination order: (source, shift, feedback, column, first) per step.

    ``det`` and ``adj`` are the survivor submatrix's unreduced
    determinant and adjugate (rows are packets).  Each source keeps
    the lowest-terms column with the fewest taps over the systems seen so
    far, the earliest on a tie; ``first`` says it is one of the whole
    set's.  Each round takes the source c whose column has the fewest
    taps (on a tie, reads the fewest packets) and drops the equation p
    whose cofactor adj[p][c] has the fewest taps: that cofactor is the
    determinant of the system left, and its adjugate follows from the
    Desnanot-Jacobi identity
    adj'[q][e] = (adj[p][c] adj[q][e] + adj[p][e] adj[q][c]) / det,
    an exact division.  Remaining ties go to the lowest index.
    """
    k = len(adj)
    sources, packets = list(range(k)), list(range(k))
    b = [list(row) for row in adj]
    best = [None] * k  # (taps, packets read, shift, feedback, column, first) per source
    order = []
    while True:
        for c in sources:
            g = det
            for p in packets:
                if g == 1:
                    break
                g = _gcd_masks(g, b[p][c])
            f = _divmod_masks(det, g)[0]
            shift = (f & -f).bit_length() - 1
            f >>= shift
            taps = f.bit_count() - 1
            if best[c] is None or taps < best[c][0]:
                col = [0] * k
                for p in packets:
                    col[p] = _divmod_masks(b[p][c], g)[0] if g != 1 else b[p][c]
                best[c] = (taps, len(packets) - col.count(0), shift, f, tuple(col), best[c] is None)
        c = min(sources, key=lambda c: best[c][:2])
        order.append((c, *best[c][2:]))
        sources.remove(c)
        if not sources:
            return order
        p = min((p for p in packets if b[p][c]), key=lambda p: b[p][c].bit_count())
        packets.remove(p)
        pivot, row = b[p][c], b[p]
        pivot_exps = _exponents(pivot)
        for q in packets:
            bq = b[q]
            f_exps = _exponents(bq[c])
            for e in sources:
                x, y, num = bq[e], row[e], 0
                for t in pivot_exps:
                    num ^= x << t
                for t in f_exps:
                    num ^= y << t
                bq[e] = _divmod_masks(num, det)[0]
        det = pivot


@lru_cache(maxsize=256)
def _map_kernel(mat: GenMatrix, survivors: tuple[int, ...]) -> MapKernel:
    sub = mat.submatrix(survivors)
    det, adj = sub.det_adjugate()
    if not det:
        raise SingularSubmatrix(f"packets {survivors} cannot determine the sources")
    a = sub._masks
    k = len(a)
    plan = _plan(det.mask, adj._masks)
    # A column of the whole set's adjugate solves over the untouched
    # payloads, so those steps run first and cancel nothing.  Every later
    # step reads residuals with every source recovered so far cancelled.
    plan = [step for step in plan if step[4]] + [step for step in plan if not step[4]]
    pending = [[] for _ in range(k)]  # per residual: recovered sources not yet cancelled
    updates = []
    for c, _, _, col, first in plan:
        update = ()
        if not first:
            update = tuple((r, tuple(a[i][r] for i in due), tuple(due))
                           for r, due in enumerate(pending) if col[r] and due)
            pending = [[] if col[r] else due for r, due in enumerate(pending)]
        for r in range(k):
            if a[c][r]:
                pending[r].append(c)
        updates.append(update)
    steps = tuple(DecodeStep(c, shift, Poly2(f), col, update)
                  for (c, shift, f, col, _), update in zip(plan, updates))
    det, adj = cancel_common_factor(det, adj)
    shift, feedback = split_shift(det)
    return MapKernel(det, adj, shift, feedback, steps, _decoder(steps))


def map_kernel(mat: GenMatrix, survivors: Sequence[int]) -> MapKernel:
    """Kernel for decoding the given survivor set.

    ``survivors`` must pass :meth:`GenMatrix.check_survivors`.  Kernels
    are memoized per (matrix, survivor set); the packet-length work in
    :func:`map_decode` reuses them across calls.
    """
    return _map_kernel(mat, mat.check_survivors(survivors))


def _check_headers(mat: GenMatrix, packets) -> tuple[int, tuple[int, ...]]:
    # Shared decoder-side validation of packet headers (anything with
    # index, spec, source_len and bit_len); returns (L, sorted survivor
    # indices).
    for p in packets:
        if p.spec != mat.spec:
            raise ValueError(f"packet {p.index} belongs to a different code")
    idx = mat.check_survivors(p.index for p in packets)
    lengths = {p.source_len for p in packets}
    if len(lengths) != 1:
        raise ValueError(f"packets disagree on source length: {sorted(lengths)}")
    length = lengths.pop()
    over = mat.column_overheads()
    for p in packets:
        allowed = length + over[p.index - 1]
        if p.bit_len > allowed:  # the payload stays within bit_len
            raise TrailingBits(
                f"packet {p.index} carries more than {allowed} bits")
    return length, idx


def _check_packets(mat: GenMatrix, packets: Sequence[Packet]) -> tuple[int, dict[int, int], tuple[int, ...]]:
    # _check_headers, plus the payload masks by index.
    length, idx = _check_headers(mat, packets)
    return length, {p.index: p.bits.mask for p in packets}, idx


def map_decode(mat: GenMatrix, packets: Sequence[Packet]) -> list[Poly2]:
    """Exactly recover all K sources from any K consistent packets.

    Runs the kernel's ``steps`` over residuals that start as the payloads:
    each step brings the residuals it reads up to date, combines its
    column over them, drops ``shift`` known-zero low bits and divides
    exactly by ``feedback``; a division by 1 returns the combined stream
    itself (for a surviving systematic packet, the payload).  The steps
    run as the stripe core's network over one stripe of the whole
    payloads: ``sxor decode`` runs the same network over its files in
    stripes, and gets the same sources or the same error.

    Raises :class:`SingularSubmatrix` for dependent survivor columns,
    :class:`TrailingBits` for over-long payloads, and
    :class:`~sxor.gf2poly.InconsistentDivision` when no length-L sources
    can reproduce the payloads, naming the source of the first step
    whose division failed: every division is re-checked, and together
    they accept exactly the payloads that some length-L sources
    reproduce.  Corruption that
    still solves to valid sources (e.g. a bit flip on a packet that
    carries a source verbatim, as systematic identity columns do) is
    indistinguishable from clean data given only K packets; guard
    integrity with an outer checksum when that matters.
    """
    length, masks, idx = _check_packets(mat, packets)
    return [Poly2(s) for s in _run(map_kernel(mat, idx).network, [masks[p] for p in idx], length)]


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


_TO_BITS = bytes.maketrans(b"01", b"\0\1")
_TO_DIGITS = bytes.maketrans(b"\0\1", b"01")


def _mask_to_bits(mask: int, width: int) -> bytearray:
    # Byte k of the result is bit k of mask.
    return bytearray(format(mask, f"0{width}b")[::-1], "ascii").translate(_TO_BITS)


def _bits_to_mask(bits: bytearray) -> int:
    return int(bits.translate(_TO_DIGITS)[::-1], 2)


def _peel_bits(cover, hits, length: int, rows, bufs: list[bytearray], trace: list | None):
    """Per-bit zigzag elimination of the unresolved source ``rows``.

    ``bufs[pi]`` holds survivor pi's residual, one byte per bit, with
    every other source already cancelled; each recovered bit is read off
    its exposing packet and XORed out of every packet that carries it, so
    ``bufs`` ends as the residual of the whole elimination.  The lowest
    exposed bit position is always taken first, ties broken by packet
    order; ``trace`` (when given) receives (row, bit, pi) in that order.
    Returns the number of bits recovered and, per row in ``rows``, its
    bit values (None for the other rows).
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
            if row in rows:
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
    values = [bytearray(length) if row in rows else None for row in range(k)]
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


def zigzag_schedule(mat: GenMatrix, survivors: Sequence[int], length: int) -> tuple[tuple[int, int, int], ...]:
    """Elimination order for zigzag decoding, as (source_row, bit, packet) triples.

    source_row is 0-based, bit is the 0-based source bit position, packet
    is the 1-based packet whose exposed bit reveals it.  The schedule
    contains each of the K * length source bits exactly once on success;
    :class:`ZigzagStuck` reports how far elimination got otherwise.
    ``survivors`` must pass :meth:`GenMatrix.check_survivors`, and their
    entries must all be monomials (:class:`NotMonomialMatrix`).
    """
    k = mat.spec.k
    idx = mat.check_survivors(survivors)
    if length < 1:
        raise ValueError("source length must be positive")
    over = mat.column_overheads()
    cover, hits = _monomial_terms(mat, idx)
    trace: list[tuple[int, int, int]] = []
    bufs = [bytearray(length + over[p - 1]) for p in idx]  # zero payloads: only the order counts
    done, _ = _peel_bits(cover, hits, length, range(k), bufs, trace)
    if done != k * length:
        raise ZigzagStuck(done, k * length)
    return tuple((row, bit, idx[pi]) for row, bit, pi in trace)


def zigzag_decode(mat: GenMatrix, packets: Sequence[Packet]) -> list[Poly2]:
    """Recover the sources by zigzag elimination (monomial survivors only).

    Sources that some survivor carries alone are peeled whole, word-wide;
    the rest go through the per-bit elimination of :func:`zigzag_schedule`
    (see the module docstring).  Every survivor's residual must end at
    zero, else :class:`InconsistentDivision` names the packet, so where
    :func:`map_decode` also applies, both accept the same inputs and
    return bit-identical sources.

    Memory: the per-bit stage peaks at about 5 bytes per packet bit (the
    all-parity zd3 set of a 3 MiB object: 137 MiB peak RSS, 113 MiB over
    the process before it), so a 16 MiB object needs about 0.6 GB.  No
    bound limits the packet length; a caller that takes packets from
    outside bounds it itself, or decodes with :func:`map_decode`.
    """
    length, masks, idx = _check_packets(mat, packets)
    k = mat.spec.k
    cover, hits = _monomial_terms(mat, idx)
    work = [masks[p] for p in idx]
    sources = [0] * k
    live = set(range(k))
    full = (1 << length) - 1
    peeled = True
    while peeled:
        peeled = False
        for pi, col in enumerate(cover):
            left = [(row, t) for row, t in col if row in live]
            if len(left) == 1:
                (row, t), = left
                s = sources[row] = (work[pi] >> t) & full
                for qi, tq in hits[row]:
                    work[qi] ^= s << tq
                live.remove(row)
                peeled = True

    residuals = work
    if live:
        over = mat.column_overheads()
        bufs = [_mask_to_bits(w, length + over[p - 1]) for p, w in zip(idx, work)]
        done, values = _peel_bits(cover, hits, length, live, bufs, None)
        if done != len(live) * length:
            raise ZigzagStuck((k - len(live)) * length + done, k * length)
        for row in live:
            sources[row] = _bits_to_mask(values[row])
        residuals = [1 in buf for buf in bufs]
    for p, rest in zip(idx, residuals):
        if rest:
            raise InconsistentDivision(
                f"packet {p}: payload does not match the recovered sources")
    return [Poly2(s) for s in sources]


# -- binary packet format ----------------------------------------------------
#
# Little-endian throughout:
#   magic "SXP1" | version u8 = 1 | kind u8 | m u8 | g u32 | K u16 | N u16
#   | packet_index u16 | x_len u16 | x u16 * x_len | L u64 | payload_bits u64
#   | payload bytes (LSB-first, ceil(payload_bits / 8) bytes, pad bits zero)
# x_len is K for systematic codes and 0 otherwise.

_MAGIC = b"SXP1"
_VERSION = 1
_HEAD = struct.Struct("<4sBBBIHHHH")
_LENS = struct.Struct("<QQ")


class _Header(NamedTuple):
    """A packet's header fields and where its payload starts."""

    index: int
    spec: CodeSpec
    source_len: int
    bit_len: int
    offset: int


def _header_bytes(spec: CodeSpec, index: int, source_len: int, bit_len: int) -> bytes:
    for field, value, bits in (("m", spec.m, 8), ("g", spec.g.mask, 32), ("N", spec.n, 16)):
        if value >> bits:
            raise ValueError(f"{field}={value} exceeds {(1 << bits) - 1}, "
                             f"the limit of its {bits}-bit header field")
    x = spec.x if spec.x is not None else ()
    head = _HEAD.pack(_MAGIC, _VERSION, KIND_CODES[spec.kind], spec.m, spec.g.mask,
                      spec.k, spec.n, index, len(x))
    xs = struct.pack(f"<{len(x)}H", *x) if x else b""
    return head + xs + _LENS.pack(source_len, bit_len)


def _parse_header(data: bytes) -> _Header:
    # The header at the start of data; Packet and _open_packet check the
    # index and lengths.
    if len(data) < _HEAD.size:
        raise PacketFormatError("truncated header")
    magic, version, kind_code, m, g, k, n, index, x_len = _HEAD.unpack_from(data, 0)
    if magic != _MAGIC:
        raise PacketFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise PacketFormatError(f"unsupported version {version}")
    if kind_code >= len(KINDS):
        raise PacketFormatError(f"unknown kind code {kind_code}")
    off = _HEAD.size
    x = None
    if x_len:
        if len(data) < off + 2 * x_len:
            raise PacketFormatError("truncated x positions")
        x = struct.unpack_from(f"<{x_len}H", data, off)
        off += 2 * x_len
    if len(data) < off + _LENS.size:
        raise PacketFormatError("truncated length fields")
    source_len, bit_len = _LENS.unpack_from(data, off)
    try:
        spec = CodeSpec(KINDS[kind_code], k, n, m, Poly2(g), x)
    except ValueError as exc:
        raise PacketFormatError(str(exc)) from None
    return _Header(index, spec, source_len, bit_len, off + _LENS.size)


def packet_to_bytes(packet: Packet) -> bytes:
    head = _header_bytes(packet.spec, packet.index, packet.source_len, packet.bit_len)
    return head + packet.bits.mask.to_bytes((packet.bit_len + 7) // 8, "little")


def packet_from_bytes(data: bytes) -> Packet:
    head = _parse_header(data)
    nbytes = (head.bit_len + 7) // 8
    if len(data) != head.offset + nbytes:
        raise PacketFormatError(f"payload is {len(data) - head.offset} bytes, expected {nbytes}")
    try:
        return Packet(head.index, Poly2(int.from_bytes(data[head.offset:], "little")),
                      head.source_len, head.bit_len, head.spec)
    except ValueError as exc:
        raise PacketFormatError(str(exc)) from None


PathOrFile = Union[str, os.PathLike, io.IOBase]


def write_packet(packet: Packet, dest: PathOrFile) -> None:
    """Write the binary form to a path or binary file object."""
    blob = packet_to_bytes(packet)
    if hasattr(dest, "write"):
        dest.write(blob)
    else:
        with open(dest, "wb") as fh:
            fh.write(blob)


def read_packet(src: PathOrFile) -> Packet:
    """Read the binary form from a path or binary file object."""
    if hasattr(src, "read"):
        return packet_from_bytes(src.read())
    with open(src, "rb") as fh:
        return packet_from_bytes(fh.read())


def _open_packet(path: PathOrFile) -> tuple[BinaryIO, _Header]:
    """Open a packet file at its payload, checked as :func:`packet_from_bytes` checks it."""
    fh = open(path, "rb")
    try:
        data = fh.read(_HEAD.size)
        if len(data) == _HEAD.size:
            data += fh.read(2 * _HEAD.unpack(data)[-1] + _LENS.size)
        head = _parse_header(data)
        try:
            _check_fields(head.index, head.source_len, head.bit_len, head.spec)
        except ValueError as exc:
            raise PacketFormatError(str(exc)) from None
        nbytes = (head.bit_len + 7) // 8
        size = os.fstat(fh.fileno()).st_size
        if size != head.offset + nbytes:
            raise PacketFormatError(f"payload is {size - head.offset} bytes, expected {nbytes}")
        if head.bit_len % 8:
            fh.seek(-1, os.SEEK_END)
            if fh.read(1)[0] >> head.bit_len % 8:
                raise PacketFormatError(_PAD_BITS)
            fh.seek(head.offset)
        return fh, head
    except BaseException:
        fh.close()
        raise
