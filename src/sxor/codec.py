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
single power of z): repeatedly pick an "exposed" packet bit covered by
exactly one unresolved source bit, read it off, and cancel that source
bit from every packet.  The schedule always picks the lowest exposed bit
position first (ties broken by packet order), which makes runs
reproducible and matches the textbook left-to-right elimination.

The binary packet format is little-endian and self-describing: it embeds
the CodeSpec so a decoder can rebuild the generator matrix from headers
alone for the constructed kinds.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass
from functools import lru_cache, reduce
from heapq import heappush, heappop
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
def _monomial_shifts(mat: GenMatrix, idx: tuple[int, ...]) -> tuple[tuple[int | None, ...], ...]:
    # shift[pi][row] is the exponent of the monomial entry for source row
    # in survivor idx[pi], or None for a zero entry.
    shift = []
    for p in idx:
        col = []
        for row in range(mat.spec.k):
            e = mat._masks[row][p - 1]
            if not e:
                col.append(None)
            elif e.bit_count() != 1:
                raise NotMonomialMatrix(
                    f"entry for source {row + 1} in packet {p} is {Poly2(e)}, not a monomial")
            else:
                col.append(e.bit_length() - 1)
        shift.append(tuple(col))
    return tuple(shift)


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
    shift = _monomial_shifts(mat, idx)

    # counts[pi][pos] = number of unresolved source bits mapped to that
    # packet bit; built with a difference array, one interval per entry.
    counts: list[list[int]] = []
    for pi, p in enumerate(idx):
        width = length + over[p - 1]
        diff = [0] * (width + 1)
        for row in range(k):
            t = shift[pi][row]
            if t is not None:
                diff[t] += 1
                diff[t + length] -= 1
        col_counts = []
        run = 0
        for pos in range(width):
            run += diff[pos]
            col_counts.append(run)
        counts.append(col_counts)

    heap: list[tuple[int, int]] = []
    for pi in range(k):
        for pos, c in enumerate(counts[pi]):
            if c == 1:
                heappush(heap, (pos, pi))

    resolved = [0] * k  # per-source bitmask of recovered bits
    done = 0
    schedule = []
    while heap:
        pos, pi = heappop(heap)
        if counts[pi][pos] != 1:
            continue  # stale entry; the bit was covered again or emptied
        for row in range(k):
            t = shift[pi][row]
            if t is not None and 0 <= pos - t < length and not (resolved[row] >> (pos - t)) & 1:
                bit = pos - t
                break
        else:
            raise AssertionError("exposure count out of sync")
        schedule.append((row, bit, idx[pi]))
        resolved[row] |= 1 << bit
        done += 1
        for qi in range(k):
            tq = shift[qi][row]
            if tq is not None:
                qpos = bit + tq
                counts[qi][qpos] -= 1
                if counts[qi][qpos] == 1:
                    heappush(heap, (qpos, qi))
    if done != k * length:
        raise ZigzagStuck(done, k * length)
    return tuple(schedule)


def zigzag_decode(mat: GenMatrix, packets: Sequence[Packet]) -> list[Poly2]:
    """Recover the sources by zigzag elimination (monomial survivors only).

    Produces bit-identical results to :func:`map_decode` whenever both
    apply; the schedule never needs more than one XOR per recovered bit.
    """
    length, masks, idx = _check_packets(mat, packets)
    sched = zigzag_schedule(mat, idx, length)
    shift = _monomial_shifts(mat, idx)
    k = mat.spec.k
    column = {p: pi for pi, p in enumerate(idx)}
    work = [masks[p] for p in idx]
    out = [0] * k
    for row, bit, p in sched:
        pi = column[p]
        if (work[pi] >> (bit + shift[pi][row])) & 1:
            out[row] |= 1 << bit
            for qi in range(k):
                t = shift[qi][row]
                if t is not None:
                    work[qi] ^= 1 << (bit + t)
    return [Poly2(s) for s in out]


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
        if kind != "systematic":
            raise PacketFormatError(f"x entries are not valid for kind {kind!r}")
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
