"""Bit-level packet codec: encoding, exact MAP decoding, the packet format.

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
low coefficients first, through the feedback's binomial multiple
1 + z**P when z has a small order P modulo the feedback (so a quotient
costs a short multiplication and one shift-XOR per doubling of P), and
its last stripe is re-verified by multiplication, which is what turns
packet corruption into a raised error instead of silent garbage; a
division by 1 returns the dividend itself once no bit sits at or above
z**L.

Encoding and MAP decoding run on one stripe core: a network of these
combines and divisions over bit streams.  Every output bit depends only
on input bits at or below it, so the network can run on stripes of its
streams, each map carrying across stripes only its product's carry and
its division's carry.  No stream drops a step's shift: it keeps those
zero bits as a delay, a map over streams of unequal delays raises its
column entries to line them up, and only the outputs drop theirs.  The
library runs one stripe of the whole stream.  The file driver here,
``_stream`` under ``_encode_file`` and ``_decode_files``, runs the files
of ``sxor encode`` and ``sxor decode`` in 2**19-bit stripes.  Between
stripes the run holds only its carries, and the driver, per output, the
fewer than 8 bits past its last whole byte written, so their memory
does not grow with the file.

The binary packet format is little-endian.  Its header embeds the
CodeSpec, so a decoder can rebuild the generator matrix from headers
alone for the constructed kinds, and the byte length and crc32 of the
file ``sxor encode`` split, so any K packets of a file restore it with
nothing beside them.

The zigzag decoder, ``zigzag_schedule`` and ``zigzag_decode`` with
their limits ``MAX_PEEL_BITS`` and ``MAX_SCHEDULE_BITS``, lives in
:mod:`sxor.zigzag`, which loads on first use: this module serves those
names through PEP 562 ``__getattr__``, so ``sxor encode`` and ``sxor
decode`` never compile it.
"""

from __future__ import annotations

import importlib
import io
import os
import struct
import zlib
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from operator import or_
from typing import BinaryIO, Callable, NamedTuple, Sequence, Union

from .codes import KINDS, KIND_CODES, CodeSpec, GenMatrix
from .gf2m import PolyLike, _as_poly, _mulmod, _powmod
from .gf2poly import (InconsistentDivision, Poly2, _div_low, _divmod_masks, _exponents, _gcd_masks,
                      exact_div_low, split_shift)
from .polymat import PolyMatrix, _bareiss_step, cancel_common_factor

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
    "packet_to_bytes",
    "packet_from_bytes",
    "write_packet",
    "read_packet",
]

# The names of sxor.zigzag served here; __getattr__ loads it on first use.
_ZIGZAG = ("zigzag_schedule", "zigzag_decode", "MAX_PEEL_BITS", "MAX_SCHEDULE_BITS")


def __getattr__(name: str):
    # PEP 562: called only for names not bound here.
    if name in _ZIGZAG:
        return getattr(importlib.import_module(".zigzag", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
    ``file_len`` and ``crc32`` are the byte length and ``zlib.crc32`` of
    the file ``sxor encode`` split; 0 and 0, as :func:`encode` builds
    them, mean the packet holds no file.

    ``Packet(...)`` and ``dataclasses.replace`` check every field.  The
    packets :func:`encode` builds, and those :func:`packet_from_bytes`
    parses once it has checked their header and pad bits, skip the
    second check.
    """

    index: int
    bits: Poly2
    source_len: int
    bit_len: int
    spec: CodeSpec
    file_len: int = 0
    crc32: int = 0

    def __post_init__(self):
        _check_fields(self.index, self.source_len, self.bit_len, self.spec)
        if self.bits.mask.bit_length() > self.bit_len:
            raise ValueError(_PAD_BITS)
        if self.file_len < 0 or self.crc32 < 0:
            raise ValueError("file length and crc32 must not be negative")

    @classmethod
    def _of(cls, index: int, bits: Poly2, source_len: int, bit_len: int, spec: CodeSpec,
            file_len: int = 0, crc32: int = 0) -> "Packet":
        # A packet whose fields the codec built itself or has just checked.
        packet = cls.__new__(cls)
        packet.__dict__.update(index=index, bits=bits, source_len=source_len, bit_len=bit_len, spec=spec,
                               file_len=file_len, crc32=crc32)
        return packet


_PAD_BITS = "payload has set bits beyond its stated length"


def _check_fields(index: int, source_len: int, bit_len: int, spec: CodeSpec,
                  error: type[ValueError] = ValueError) -> None:
    # A packet's rules for its header fields, for Packet, packet_from_bytes
    # and _open_packet; a broken rule raises ``error``.
    if not 1 <= index <= spec.n:
        raise error(f"packet index {index} outside 1..{spec.n}")
    if source_len < 1:
        raise error("source length must be positive")
    if bit_len < source_len:
        raise error("payload length cannot be shorter than the source length")


def _horner(col: Sequence[int], streams: Sequence[int]) -> tuple[tuple[int, int], ...]:
    """sum_i col[i](z) * streams[i] as Horner's rule over col's exponents, for :func:`_combine`.

    Highest exponent first: one (stream, shift) pair per stream carrying
    it, to be XORed in, and after the last of them the shift down to the
    next exponent, or to z**0 after the lowest; every other shift is 0.
    So z**37 + 1 costs two shifts, not 38, and an all-zero column has no
    pairs.
    """
    exps = _exponents(reduce(or_, col, 0))[::-1]
    plan = []
    for t, low in zip(exps, exps[1:] + [0]):
        plan += [(x, 0) for e, x in zip(col, streams) if e >> t & 1]
        plan[-1] = (plan[-1][0], t - low)
    return tuple(plan)


def _combine(plan: Sequence[tuple[int, int]], streams: Sequence[int]) -> int:
    # A plan of _horner over the streams it names.  A plan of one stream
    # at shift 0 returns that stream itself: x << 0 and x ^ 0 copy x.
    acc = None
    for x, shift in plan:
        acc = streams[x] if acc is None else acc ^ streams[x]
        if shift:
            acc <<= shift
    return 0 if acc is None else acc


def encode_xor_count(mat: GenMatrix, sources: Sequence[PolyLike], length: int) -> tuple[list[Packet], int]:
    """Encode and also report the number of packet-level XOR operations.

    Each column combines one shifted source stream per matrix term; the
    count charges one XOR per term beyond the first, independent of L,
    matching the alpha metric exactly.
    """
    srcs = [s if type(s) is int and s >= 0 else _as_poly(s).mask for s in sources]
    if len(srcs) != mat.spec.k:
        raise ValueError(f"expected {mat.spec.k} sources, got {len(srcs)}")
    if length < 1:
        raise ValueError("source length must be positive")
    for i, s in enumerate(srcs):
        if s.bit_length() > length:
            raise ValueError(f"source {i + 1} exceeds the stated length of {length} bits")
    # The packets are built trusted: their fields and payload widths follow from these checks.
    over = mat.column_overheads()
    packets = [Packet._of(j + 1, Poly2(c), length, length + over[j], mat.spec)
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
    stream: the Horner combine sum_i col[i](z) * in_i (its plan of shifts
    and XORs is made once, by :func:`_horner`), which for a decode
    step's map (``step`` set) must hold only zero bits below its delay and
    is then divided exactly by the step's feedback.  No stream is cut:
    each keeps its ``delay``, the zero bits it starts with, which is 0 for
    an input and for a map the largest delay of its inputs, plus a step's
    shift.  A map raises each column entry by the amount its input's delay
    falls short of that largest one, so every stream of a stripe spans the
    same bits.  Only the ``outs``, the streams a run hands back, drop
    their delay.  Maps run in the order they were added.  ``read`` holds
    the streams some map reads: an input outside it only passes through
    to the outputs that are that input as fed.
    """

    def __init__(self, inputs: int):
        self.delays = [0] * inputs  # per stream
        self.maps = []  # per map: (column, its Horner plan over the streams read, step)
        self.outs = []
        self.read = set()

    def add(self, col, streams, step: DecodeStep | None = None) -> int:
        streams = tuple(streams)
        self.read.update(streams)
        delays = [self.delays[x] for x in streams]
        delay = max(delays)
        col = tuple(e << delay - d for e, d in zip(col, delays))
        self.maps.append((col, _horner(col, streams), step))
        self.delays.append(delay + step.shift if step else delay)
        return len(self.delays) - 1


class _Run:
    """One pass of streams through a :class:`_Network`, fed stripe by stripe.

    Per map, its product's carry and, for a decode step, its division's
    carry: a run keeps nothing else between stripes, and hands each
    stripe's outputs back.  Every stripe but the last is divided by
    :func:`~sxor.gf2poly._div_low`; the last holds every bit from the
    stripe's start up and is one :func:`~sxor.gf2poly.exact_div_low`.  The
    all-ones mask of the stripe width is built once, at the first stripe
    that is not the last, and serves every map and division.  A failed
    step's message is kept and the run goes on, so that it reports its
    first failed step, as a one-stripe run does.
    """

    def __init__(self, net: _Network, length: int = 0):
        self.net = net
        self.length = length
        self.done = 0  # bits of each stream fed so far
        self.carry = [0] * len(net.maps)
        self.rest = [0] * len(net.maps)
        self.mask = 0  # all ones below z**bits, for stripes of ``bits`` bits
        self.failed = {}  # message per failed map

    def push(self, chunks: Sequence[int], bits: int, final: bool = False) -> list[int]:
        """Feed the next ``bits`` bits of each input stream, or with ``final`` all the rest.

        Returns each output's bits of the stripe, lowest first, less the
        part of its delay that falls in the stripe.  The stripes before
        the final one must hold only bits below z**length of the sources.
        An input that no map reads may be fed as None, and is then
        returned as None for the outputs that are that input.  The final
        stripe raises :class:`InconsistentDivision` for the first decode
        step that failed.
        """
        net, carry, done = self.net, self.carry, self.done
        if not final and self.mask.bit_length() != bits:
            self.mask = (1 << bits) - 1
        mask = self.mask
        streams = list(chunks)
        k = len(streams)
        for m, (_, plan, step) in enumerate(net.maps):
            acc = _combine(plan, streams)
            if done and carry[m]:  # only a stripe after the first has a carry in
                acc ^= carry[m]
                carry[m] = 0
            if not final and acc.bit_length() > bits:
                acc, carry[m] = acc & mask, acc >> bits
            if step:
                acc = self._solve(m, step, net.delays[k + m] - done, acc, bits, final)
            streams.append(acc)
        self.done += bits
        if final and self.failed:
            raise InconsistentDivision(self.failed[min(self.failed)])
        # Before the final stripe every stream holds at most ``bits`` bits,
        # so a delay past the stripe's end leaves 0.
        delays = net.delays
        return [streams[x] >> delays[x] - done if delays[x] > done else streams[x] for x in net.outs]

    def _solve(self, m: int, step: DecodeStep, low: int, b: int, bits: int, final: bool) -> int:
        # Step m's quotient over this stripe.  ``low`` is the step's delay
        # less the bits fed before the stripe: that many of its lowest bits
        # must be zero, and the quotient has length + low bits still to come.
        if low > 0 and b & ((1 << (low if final else min(low, bits))) - 1):
            self.failed.setdefault(m, f"source {step.source + 1}: combined stream has set "
                                      f"bits below z^{step.shift}")
        rest = self.rest[m]
        if not final:
            s, self.rest[m] = _div_low(b, step.feedback.mask, bits, rest, self.mask)
            return s
        try:
            return exact_div_low(Poly2(b ^ rest if rest else b), step.feedback, self.length + low).mask
        except InconsistentDivision:
            self.failed.setdefault(m, f"source {step.source + 1}: combined stream is not its "
                                      f"feedback times any source of {self.length} bits")
            return 0


@lru_cache(maxsize=256)
def _encoder(mat: GenMatrix) -> _Network:
    # One map per packet over the sources its column holds (source 1 times
    # 0 for an all-zero column); a column that is 1 for one source outputs
    # that source.  The outputs are the payloads.
    net = _Network(mat.spec.k)
    for col in zip(*mat._masks):
        rows = [i for i, e in enumerate(col) if e] or [0]
        if len(rows) == 1 and col[rows[0]] == 1:
            net.outs.append(rows[0])
        else:
            net.outs.append(net.add((col[i] for i in rows), rows))
    return net


def _decoder(steps: Sequence[DecodeStep]) -> _Network:
    # A kernel's plan as a network over the K payloads, in survivor order:
    # each residual update is a new stream, and each step's map reads the
    # residuals of its column.  A step whose column is 1 on one untouched
    # payload, with shift 0 and feedback 1, outputs that payload: then the
    # payload's generator column is 1 for that source alone, so it has no
    # overhead and holds no bit at or above z**L for the division by 1 to
    # catch.  The outputs are the sources.
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
    net.outs = src
    return net


def _run(net: _Network, values: Sequence[int], length: int) -> list[int]:
    # Whole in-memory streams through a network, as one stripe, whose
    # outputs are then whole.
    return _Run(net, length).push(values, 0, final=True)


# Bits per stripe of each stream that _stream runs through the stripe
# core (64 KiB).  On CLI decodes of 16 MiB files, 2**18..2**20 were
# within noise of each other and 2**21 up to 1.2x slower; peak RSS rose
# with the width (CHANGES.md).
_STRIPE = 1 << 19


def _stream(net: _Network, length: int, in_sizes: Sequence[int], out_sizes: Sequence[int],
            read: Callable[[int, int, int], bytes],
            write: Callable[[int, int, bytes], None]) -> None:
    """Run byte streams through a network, ``_STRIPE`` bits of each input at a time.

    Input i holds ``in_sizes[i]`` bytes, and ``read(i, at, n)`` returns
    its n bytes from byte ``at`` on; output j holds ``out_sizes[j]``
    bytes, and ``write(j, at, data)`` takes its bytes from byte ``at``
    on.  ``length``, the sources' length in bits, is a whole number of
    bytes.  An output that is an input is written as the bytes read, and
    an input that no map reads is never made an int.  Between stripes
    the run holds its carries, and the driver, per output, the fewer
    than 8 bits past its last whole byte written.  A failed division is
    raised after the last stripe's reads, before its writes.
    """
    run = _Run(net, length)
    k, stripe = len(in_sizes), _STRIPE // 8
    stripes = (length - 1) // _STRIPE
    held = [0] * len(net.outs)  # per output: its bits past the last whole byte written
    for t in range(stripes + 1):
        final, at = t == stripes, t * stripe
        pieces = [read(i, at, size - at if final else stripe) for i, size in enumerate(in_sizes)]
        outs = run.push([int.from_bytes(data, "little") if i in net.read else None
                         for i, data in enumerate(pieces)], _STRIPE, final)
        for j, x in enumerate(net.outs):
            if x < k:  # an input, as read
                write(j, at, pieces[x])
            else:
                start = max(8 * at - net.delays[x], 0)  # the output's bits before the stripe
                end = 8 * out_sizes[j] if final else max(8 * at + _STRIPE - net.delays[x], 0)
                data = (outs[j] << start % 8 | held[j] if start % 8 else outs[j]).to_bytes(
                    (end + 7) // 8 - start // 8, "little")
                if end % 8:
                    data, held[j] = data[:-1], data[-1]
                write(j, start // 8, data)
            outs[j] = None  # each int goes once it is written, not at the next stripe


def _encode_file(mat: GenMatrix, src: BinaryIO, size: int, dests: Sequence[str]) -> int:
    """Encode the first ``size`` bytes of ``src`` into one packet per file path in ``dests``.

    The bytes split into K sources of ceil(size / K) bytes, the last
    zero-padded.  A packet whose column is 1 for one source is that
    source's bytes as read; a source that no other column holds is never
    made an int.  Each path gets its header, with ``size`` as its file
    length and 0 as its crc32, then each stripe's bytes through an
    ``open(path, "ab")`` of its own, and last the crc32 written over that
    0, so only ``src`` stays open.  ``src`` is read once, and must still
    hold ``size`` bytes: a shorter read raises ``ValueError``.  Returns
    ``zlib.crc32`` of the ``size`` bytes, taken as they are read.
    """
    k = mat.spec.k
    chunk = -(-size // k)
    over = mat.column_overheads()
    for j, (path, w) in enumerate(zip(dests, over), 1):
        with open(path, "wb") as fh:
            fh.write(_header_bytes(mat.spec, j, 8 * chunk, 8 * chunk + w, size, 0))
    crcs = [0] * k

    def read(i: int, at: int, n: int) -> bytes:
        at += i * chunk
        src.seek(at)
        data = _read(src, min(n, max(size - at, 0)), f"input file {src.name}", ValueError)
        crcs[i] = zlib.crc32(data, crcs[i])
        return data.ljust(n, b"\0")

    def write(j: int, at: int, data: bytes) -> None:
        with open(dests[j], "ab") as fh:
            fh.write(data)

    _stream(_encoder(mat), 8 * chunk, [chunk] * k, [chunk + (w + 7) // 8 for w in over], read,
            write)
    crc = _file_crc(crcs, chunk, size)
    at = len(_header_prefix(mat.spec, 1)) + _LENS.size - 4  # the crc32 field ends the header
    for path in dests:
        with open(path, "r+b") as fh:
            fh.seek(at)
            fh.write(crc.to_bytes(4, "little"))
    return crc


def _decode_files(mat: GenMatrix, packets: Sequence[tuple], dest: BinaryIO, size: int) -> int:
    """Decode the (file, header) pairs of :func:`_open_packet` into ``dest``'s first ``size`` bytes.

    The same checks, kernel and stripe core as :func:`map_decode`;
    source c fills bytes c * L/8 up to (c + 1) * L/8 of the output, as far
    as ``size`` reaches, and L must be whole bytes.  A source whose
    packet survived verbatim is copied as read, and a payload that no
    step reads is never made an int.  Each payload is read
    to exactly the length its header states, and a file that has since
    become shorter raises :class:`PacketFormatError` naming
    the packet.  Bytes are written as stripes complete, and a decode
    error is raised only after the last one.  ``dest`` is only sought
    and written, never read.  Returns ``zlib.crc32`` of the ``size``
    bytes, taken as they are written.
    """
    length, idx = _check_headers(mat, [head for _, head in packets])
    files = sorted(packets, key=lambda packet: packet[1].index)  # in survivor order
    chunk = length // 8
    crcs = [0] * mat.spec.k

    def read(r: int, at: int, n: int) -> bytes:
        fh, head = files[r]
        return _read(fh, n, f"packet {head.index} ({fh.name})", PacketFormatError)

    def write(c: int, at: int, data: bytes) -> None:
        at += c * chunk
        if at < size:
            data = data[:size - at]
            dest.seek(at)
            dest.write(data)
            crcs[c] = zlib.crc32(data, crcs[c])

    _stream(map_kernel(mat, idx).network, length, [(head.bit_len + 7) // 8 for _, head in files],
            [chunk] * mat.spec.k, read, write)
    return _file_crc(crcs, chunk, size)


# The CRC-32 polynomial of zlib.crc32, z**32 + z**26 + ... + 1.
_CRC32_POLY = 0x104C11DB7


def _file_crc(crcs: Sequence[int], chunk: int, size: int) -> int:
    # zlib.crc32 of a file's first size bytes from the crc32 of each
    # chunk-byte part of it, in file order.  For parts A and B,
    # crc32(A + B) is crc32(A) times z**(8 len(B)) mod the polynomial, plus
    # crc32(B): the initial and final inversions cancel.  zlib keeps its
    # register bit-reversed (bit 0 holds z**31), so the product runs on the
    # reversed values.
    def flip(crc: int) -> int:
        return int(f"{crc:032b}"[::-1], 2)

    total = 0
    for i, crc in enumerate(crcs):
        n = min(chunk, max(size - i * chunk, 0))
        total = flip(_mulmod(flip(total), _powmod(2, 8 * n, _CRC32_POLY, 32), _CRC32_POLY, 32)) ^ crc
    return total


def _read(fh: BinaryIO, size: int, what: str, error: type[ValueError]) -> bytes:
    # The next ``size`` bytes of fh.  A file shorter than it was when opened
    # and checked raises ``error``, naming ``what``.
    data = fh.read(size)
    if len(data) != size:
        raise error(f"{what} ended early: read {len(data)} of {size} bytes at offset "
                    f"{fh.tell() - len(data)}")
    return data


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
    stripe core's network, built once with the kernel, whose outputs are
    the sources.

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
    network: _Network = field(repr=False, compare=False)


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
        _bareiss_step([b[q] for q in packets], b[p], c, sources, det)
        det = b[p][c]


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
    # indices).  Parsed packets of one code share one interned spec, not
    # the matrix's own, so each distinct spec object is compared once.
    same = {id(mat.spec)}
    for p in packets:
        if id(p.spec) not in same:
            if p.spec != mat.spec:
                raise ValueError(f"packet {p.index} belongs to a different code")
            same.add(id(p.spec))
    idx = mat.check_survivors([p.index for p in packets])
    length = _agreed(packets, "source_len")
    over = mat.column_overheads()
    for p in packets:
        if p.bit_len > length + over[p.index - 1]:  # the payload stays within bit_len
            raise TrailingBits(f"packet {p.index} carries more than {length + over[p.index - 1]} bits")
    return length, idx


def _agreed(packets, name: str, show: Callable[[object], str] | None = None):
    # The value of field ``name`` that every packet (or header) states.
    # Packets that differ fail, named by index under each value as show
    # renders it, by default name=value.
    values = {getattr(p, name) for p in packets}
    if len(values) == 1:
        return values.pop()
    seen = {}
    for p in packets:
        seen.setdefault(getattr(p, name), []).append(str(p.index))
    show = show or (lambda value: f"{name}={value}")
    raise ValueError(f"the packets disagree on {name}: " + "; ".join(
        f"{show(value)} in packet{'s' * (len(idx) > 1)} {', '.join(idx)}"
        for value, idx in seen.items()))


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


# -- binary packet format ----------------------------------------------------
#
# Little-endian throughout:
#   magic "SXP2" | version u8 = 2 | kind u8 | m u8 | g u32 | K u16 | N u16
#   | packet_index u16 | x_len u16 | x u16 * x_len | L u64 | payload_bits u64
#   | file_len u64 | crc32 u32
#   | payload bytes (LSB-first, ceil(payload_bits / 8) bytes, pad bits zero)
# x_len is K for systematic codes and 0 otherwise.  file_len and crc32 are
# the byte length and zlib.crc32 of the file sxor encode split, the same
# in each of its packets; the library's packets hold 0 in both.

_MAGIC = b"SXP2"
_VERSION = 2
_HEAD = struct.Struct("<4sBBBIHHHH")
_LENS = struct.Struct("<QQQI")


class _Header(NamedTuple):
    """A packet's header fields and where its payload starts."""

    index: int
    spec: CodeSpec
    source_len: int
    bit_len: int
    file_len: int
    crc32: int
    offset: int


def _too_wide(field: str, value: int, bits: int) -> ValueError:
    return ValueError(f"{field}={value} exceeds {(1 << bits) - 1}, the limit of its {bits}-bit header field")


def _header_bytes(spec: CodeSpec, index: int, source_len: int, bit_len: int, file_len: int,
                  crc32: int) -> bytes:
    head = _header_prefix(spec, index)
    if (source_len | bit_len | file_len) >> 64 or crc32 >> 32:  # none is negative: Packet checks them
        raise _too_wide(*next(f for f in (("L", source_len, 64), ("payload_bits", bit_len, 64),
                                          ("file_len", file_len, 64), ("crc32", crc32, 32))
                              if f[1] >> f[2]))
    return head + _LENS.pack(source_len, bit_len, file_len, crc32)


@lru_cache(maxsize=256)
def _header_prefix(spec: CodeSpec, index: int) -> bytes:
    # The header up to the length fields, packed once per (code, packet).
    # CodeSpec keeps K, N and so the index and x within their u16 fields.
    for field, value, bits in (("m", spec.m, 8), ("g", spec.g.mask, 32)):
        if value >> bits:
            raise _too_wide(field, value, bits)
    x = spec.x if spec.x is not None else ()
    head = _HEAD.pack(_MAGIC, _VERSION, KIND_CODES[spec.kind], spec.m, spec.g.mask,
                      spec.k, spec.n, index, len(x))
    return head + struct.pack(f"<{len(x)}H", *x)


@lru_cache(maxsize=64)
def _header_spec(kind_code: int, k: int, n: int, m: int, g: int, x: bytes) -> CodeSpec:
    # The validated spec of a header's raw code fields, x as its u16
    # bytes, built once per code: every packet of one code shares it.  A
    # spec that fails validation is not cached, so it fails alike on
    # every parse.
    try:
        return CodeSpec(KINDS[kind_code], k, n, m, Poly2(g),
                        struct.unpack(f"<{len(x) // 2}H", x) if x else None)
    except ValueError as exc:
        raise PacketFormatError(str(exc)) from None


def _parse_header(data: bytes) -> tuple[int, CodeSpec, int, int, int, int, int]:
    # The fields of the header at the start of data, in _Header's order;
    # packet_from_bytes and _open_packet check the index and lengths.
    if len(data) < _HEAD.size:
        raise PacketFormatError("truncated header")
    magic, version, kind_code, m, g, k, n, index, x_len = _HEAD.unpack_from(data, 0)
    if magic != _MAGIC:
        raise PacketFormatError(f"bad magic {magic!r}")
    if version != _VERSION:
        raise PacketFormatError(f"unsupported version {version}")
    if kind_code >= len(KINDS):
        raise PacketFormatError(f"unknown kind code {kind_code}")
    off = _HEAD.size + 2 * x_len
    if len(data) < off:
        raise PacketFormatError("truncated x positions")
    if len(data) < off + _LENS.size:
        raise PacketFormatError("truncated length fields")
    return (index, _header_spec(kind_code, k, n, m, g, bytes(data[_HEAD.size:off])),
            *_LENS.unpack_from(data, off), off + _LENS.size)


def packet_to_bytes(packet: Packet) -> bytes:
    head = _header_bytes(packet.spec, packet.index, packet.source_len, packet.bit_len,
                         packet.file_len, packet.crc32)
    return head + packet.bits.mask.to_bytes((packet.bit_len + 7) // 8, "little")


def _check_payload(size: int, last_byte: Callable[[], int], index: int, spec: CodeSpec,
                   source_len: int, bit_len: int, offset: int) -> None:
    # The payload rules of both packet readers, for a packet of ``size``
    # bytes with the header fields of _parse_header, in this order: the
    # payload's size, the header's fields, then the pad bits of the
    # payload's last byte, which ``last_byte()`` reads.
    nbytes = (bit_len + 7) // 8
    if size != offset + nbytes:
        raise PacketFormatError(f"payload is {size - offset} bytes, expected {nbytes}")
    _check_fields(index, source_len, bit_len, spec, PacketFormatError)
    if bit_len % 8 and last_byte() >> bit_len % 8:
        raise PacketFormatError(_PAD_BITS)


def packet_from_bytes(data: bytes) -> Packet:
    index, spec, source_len, bit_len, file_len, crc32, offset = _parse_header(data)
    _check_payload(len(data), lambda: data[-1], index, spec, source_len, bit_len, offset)
    return Packet._of(index, Poly2(int.from_bytes(data[offset:], "little")), source_len, bit_len, spec,
                      file_len, crc32)


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
    """Open a packet file at its payload, checked as :func:`packet_from_bytes` checks it.

    A check that fails raises :class:`PacketFormatError` with the path
    before :func:`packet_from_bytes`'s message.
    """
    fh = open(path, "rb")

    def last_byte() -> int:
        fh.seek(-1, os.SEEK_END)
        return fh.read(1)[0]

    try:
        data = fh.read(_HEAD.size)
        if len(data) == _HEAD.size:
            data += fh.read(2 * _HEAD.unpack(data)[-1] + _LENS.size)
        head = _Header(*_parse_header(data))
        _check_payload(os.fstat(fh.fileno()).st_size, last_byte, *head[:4], head.offset)
        fh.seek(head.offset)
        return fh, head
    except PacketFormatError as exc:
        fh.close()
        raise PacketFormatError(f"{path}: {exc}") from None
    except BaseException:
        fh.close()
        raise
