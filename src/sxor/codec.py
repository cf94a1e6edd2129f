"""Bit-level packet codec: encoding, exact MAP decoding, zigzag decoding.

Sources and encoded packets are bit streams held as GF(2)[z] polynomials
(bit k = coefficient of z**k), so "shift by t and XOR" is exactly
"multiply by z**t and add".  Encoding packet j computes
c_j = sum_i a_(i,j)(z) * s_i(z); a column whose largest entry degree is
l_j yields a packet of L + l_j bits for L-bit sources.

MAP decoding of survivors I with square submatrix A_I uses the adjugate
identity: b = c_I * adj(A_I) equals det(A_I) * s entry-wise, so a source
falls out of one exact division by det.  Each source uses its own column
of the adjugate in lowest terms (the column and det divided by their
gcd), so a source whose packet survived verbatim is a copy, and a parity
source divides by the smallest polynomial that works for it.  The
division runs low coefficients first and is re-verified by
multiplication, which is what turns packet corruption into a raised
error instead of silent garbage.

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
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import heapify, heappop, heappush
from itertools import accumulate
from typing import Sequence, Union

from .codes import KINDS, KIND_CODES, CodeSpec, GenMatrix
from .gf2m import PolyLike, _as_poly
from .gf2poly import (InconsistentDivision, Poly2, _divmod_masks, _gcd_masks, _mul_masks,
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
        if not 1 <= self.index <= self.spec.n:
            raise ValueError(f"packet index {self.index} outside 1..{self.spec.n}")
        if self.source_len < 1:
            raise ValueError("source length must be positive")
        if self.bit_len < self.source_len:
            raise ValueError("payload length cannot be shorter than the source length")
        if self.bits.mask.bit_length() > self.bit_len:
            raise ValueError("payload has set bits beyond its stated length")


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


def encode_xor_count(mat: GenMatrix, sources: Sequence[PolyLike], length: int) -> tuple[list[Packet], int]:
    """Encode and also report the number of packet-level XOR operations.

    Each column combines one shifted source stream per matrix term; the
    count charges one XOR per term beyond the first, independent of L,
    matching the alpha metric exactly.
    """
    srcs = _coerce_sources(sources, mat.spec.k, length)
    over = mat.column_overheads()
    packets = []
    xors = 0
    for j, col in enumerate(zip(*mat._masks)):
        acc = 0
        terms = 0
        for i, e in enumerate(col):
            while e:
                low = e & -e
                contrib = srcs[i] << (low.bit_length() - 1)
                if terms:
                    acc ^= contrib
                    xors += 1
                else:
                    acc = contrib
                terms += 1
                e ^= low
        packets.append(Packet(j + 1, Poly2(acc), length, length + over[j], mat.spec))
    return packets, xors


def encode(mat: GenMatrix, sources: Sequence[PolyLike], length: int) -> list[Packet]:
    """Encode K sources of ``length`` bits into N packets (all of them).

    Erasures are modelled downstream by simply dropping packets; any K
    survivors decode for the constructed kinds.
    """
    return encode_xor_count(mat, sources, length)[0]


@dataclass(frozen=True)
class MapKernel:
    """Precomputed exact-decoding data for one survivor set.

    ``combine`` is the (content-reduced) adjugate B and ``det`` the
    matching determinant d = z**shift * feedback with feedback(0) = 1:
    c_I * B = d * s.  ``columns`` holds what :func:`map_decode` uses:
    for each source c, (shift_c, feedback_c, column masks) from column c
    of B and d divided by their gcd g_c.  Then c_I * (B_c / g_c) =
    z**shift_c * feedback_c * s_c, so source c is recovered by dropping
    ``shift_c`` known-zero low bits and one exact division by
    ``feedback_c``.  A source whose packet survived verbatim gets a unit
    column and feedback 1.
    """

    det: Poly2
    combine: PolyMatrix
    shift: int
    feedback: Poly2
    columns: tuple[tuple[int, Poly2, tuple[int, ...]], ...]


@lru_cache(maxsize=256)
def _map_kernel(mat: GenMatrix, survivors: tuple[int, ...]) -> MapKernel:
    sub = mat.submatrix(survivors)
    det, adj = sub.det_adjugate()
    if not det:
        raise SingularSubmatrix(f"packets {survivors} cannot determine the sources")
    det, adj = cancel_common_factor(det, adj)
    columns = []
    for col in zip(*adj._masks):
        # g divides det and every entry, so det | c_I * col exactly when
        # det / g | c_I * (col / g), with the same quotient.
        g = reduce(_gcd_masks, col, det.mask)
        shift_c, feedback_c = split_shift(Poly2(_divmod_masks(det.mask, g)[0]))
        columns.append((shift_c, feedback_c, tuple(_divmod_masks(e, g)[0] for e in col)))
    shift, feedback = split_shift(det)
    return MapKernel(det, adj, shift, feedback, tuple(columns))


def map_kernel(mat: GenMatrix, survivors: Sequence[int]) -> MapKernel:
    """Kernel for decoding the given survivor set.

    ``survivors`` must pass :meth:`GenMatrix.check_survivors`.  Kernels
    are memoized per (matrix, survivor set); the packet-length work in
    :func:`map_decode` reuses them across calls.
    """
    return _map_kernel(mat, mat.check_survivors(survivors))


def _check_packets(mat: GenMatrix, packets: Sequence[Packet]) -> tuple[int, dict[int, int], tuple[int, ...]]:
    # Shared decoder-side validation; returns (L, payload masks by index,
    # sorted survivor indices).
    for p in packets:
        if p.spec != mat.spec:
            raise ValueError(f"packet {p.index} belongs to a different code")
    idx = mat.check_survivors(p.index for p in packets)
    lengths = {p.source_len for p in packets}
    if len(lengths) != 1:
        raise ValueError(f"packets disagree on source length: {sorted(lengths)}")
    length = lengths.pop()
    over = mat.column_overheads()
    masks = {}
    for p in packets:
        allowed = length + over[p.index - 1]
        if p.bit_len > allowed or p.bits.mask.bit_length() > allowed:
            raise TrailingBits(
                f"packet {p.index} carries more than {allowed} bits")
        masks[p.index] = p.bits.mask
    return length, masks, idx


def map_decode(mat: GenMatrix, packets: Sequence[Packet]) -> list[Poly2]:
    """Exactly recover all K sources from any K consistent packets.

    Raises :class:`SingularSubmatrix` for dependent survivor columns,
    :class:`TrailingBits` for over-long payloads, and
    :class:`~sxor.gf2poly.InconsistentDivision` when no length-L sources
    can reproduce the payloads: every recovered source is re-checked by
    multiplication before being returned.  Corruption that still solves
    to valid sources (e.g. a bit flip on a packet that carries a source
    verbatim, as systematic identity columns do) is indistinguishable
    from clean data given only K packets; guard integrity with an outer
    checksum when that matters.
    """
    length, masks, idx = _check_packets(mat, packets)
    sources = []
    for c, (shift, feedback, col) in enumerate(map_kernel(mat, idx).columns):
        b = 0
        for p, e in zip(idx, col):
            if e:
                b ^= _mul_masks(e, masks[p])
        if b & ((1 << shift) - 1):
            raise InconsistentDivision(
                f"source {c + 1}: combined stream has set bits below z^{shift}")
        sources.append(exact_div_low(Poly2(b >> shift), feedback, length))
    return sources


@lru_cache(maxsize=256)
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
    # Built from difference arrays, one interval per entry.
    shift = [dict(col) for col in cover]
    loads = []
    heap = []
    for pi, col in enumerate(cover):
        diff = [0] * (len(bufs[pi]) + 1)
        for row, t in col:
            if row in rows:
                diff[t] += k + row
                diff[t + length] -= k + row
        load = array("q", accumulate(diff[:-1]))
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


def packet_to_bytes(packet: Packet) -> bytes:
    s = packet.spec
    for field, value, bits in (("m", s.m, 8), ("g", s.g.mask, 32), ("K", s.k, 16), ("N", s.n, 16)):
        if value >> bits:
            raise ValueError(f"{field}={value} exceeds {(1 << bits) - 1}, "
                             f"the limit of its {bits}-bit header field")
    x = s.x if s.x is not None else ()
    head = _HEAD.pack(_MAGIC, _VERSION, KIND_CODES[s.kind], s.m, s.g.mask,
                      s.k, s.n, packet.index, len(x))
    xs = struct.pack(f"<{len(x)}H", *x) if x else b""
    lens = _LENS.pack(packet.source_len, packet.bit_len)
    nbytes = (packet.bit_len + 7) // 8
    payload = packet.bits.mask.to_bytes(nbytes, "little")
    return head + xs + lens + payload


def packet_from_bytes(data: bytes) -> Packet:
    if len(data) < _HEAD.size:
        raise PacketFormatError("truncated header")
    magic, version, kind_code, m, g, k, n, index, x_len = _HEAD.unpack_from(data, 0)
    if magic != _MAGIC:
        raise PacketFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise PacketFormatError(f"unsupported version {version}")
    if kind_code >= len(KINDS):
        raise PacketFormatError(f"unknown kind code {kind_code}")
    kind = KINDS[kind_code]
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
    off += _LENS.size
    nbytes = (bit_len + 7) // 8
    if len(data) != off + nbytes:
        raise PacketFormatError(f"payload is {len(data) - off} bytes, expected {nbytes}")
    mask = int.from_bytes(data[off:], "little")
    if mask >> bit_len:
        raise PacketFormatError("nonzero pad bits past the stated payload length")
    try:
        spec = CodeSpec(kind, k, n, m, Poly2(g), x)
        return Packet(index, Poly2(mask), source_len, bit_len, spec)
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
