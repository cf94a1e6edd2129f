"""Polynomial arithmetic over GF(2).

A polynomial is stored as a nonnegative Python int used as a coefficient
mask: bit k holds the coefficient of z**k, so the constant term sits in
bit 0 and the zero polynomial is the int 0.  Addition and subtraction are
both XOR, and Python's arbitrary-precision ints make every bulk operation
word-parallel, which is what keeps packet-sized operands (megabits) cheap
without any external dependency.

:class:`Poly2` wraps a mask with addition, multiplication and divmod.  It
reads a bare hex mask such as ``"b"`` (least significant bit = constant
term) and renders that form or a sum of terms such as ``"z^3+z+1"``, the
form error messages use.  Shifts and gcds are mask helpers
(``mask << t``, :func:`_gcd_masks`).

The module-level helpers cover the operations that do not belong to a
single ring element: :func:`exact_div_low` recovers s from b = h*s working
from the lowest-order coefficient up, and :func:`split_shift` factors out
the largest power of z.  Exact division is the workhorse of the exact
decoder.  It is the last stripe of :func:`_div_low`, which divides one
stripe of a longer dividend and carries the product's high bits into the
next.  When z has a small order P modulo h, as it has for the
feedbacks of small codes, :func:`_div_low` divides by the binomial
multiple 1 + z**P of h: one multiplication by the sparse (1 + z**P) / h,
then one shift-XOR per doubling of P.  Other divisors run on the taps of
h, kept as a short list of exponents so that only the shifted copies of
s are megabit-sized, and end on fixed-size chunks when s is wider than
64 of them.
"""

from __future__ import annotations

from functools import lru_cache

__all__ = [
    "Poly2",
    "InconsistentDivision",
    "exact_div_low",
    "split_shift",
]


# Tap stride at which _div_low's taps path stops doubling and runs its
# chunk stage, on operands of more than 64 chunks (2**18 bits); narrower
# operands double to the end.  Only divisors of large order, or whose
# binomial multiple costs more passes, take that path.  Measured on a
# 2-vCPU Xeon with Python 3.11.7 (see CHANGES.md), over 2**9..2**14: at
# 13.4 Mbit 2**12 was the best or within 12% of it for taps z, z + z^2
# and z + z^3, and 2**9 1.6-2.6x slower; at the CLI's 2**19-bit stripes
# 2**11 and 2**12 were within 7% of each other for two and three taps.
# Doubling to the end beat the chunk stage by 1.0-1.7x from 6,560 to
# 104,856 bits (library objects of 4-64 KiB) and was 0.98-1.6x as fast at
# 2**19 bits, but the stripes keep the chunk stage, which won by 1.5x at
# 13.4 Mbit with two taps.
_CHUNK = 1 << 12

# Whole-operand passes that _binomial_pays charges the chunk stage.  At
# 2**19 and 2**20 bits a chunk stage took as long as 20-21 shift-XOR
# passes over the operand, for one to eight taps (CHANGES.md).
_CHUNK_PASSES = 20

# Operand bits whose pass _binomial_pays charges each round of the taps
# path for its Python overhead (the round's loop and its tap-list
# comprehension), so a round costs _ROUND_BITS / width passes more than
# its shift-XORs.  On a 2-vCPU Xeon with Python 3.11.7, least of 15, a
# one-tap round cost 0.3-0.8 us more than a binomial doubling from
# 6,560 to 104,864 bits (CHANGES.md), the pass of 4-5 kbit.  At 6,560
# bits z + 1, z^2 + 1, z^5 + z^2 + 1 and z^7 + z^4 + z^2 + 1 divide
# faster through their binomial multiples, which the passes alone
# missed; at 2**19 bits a round's charge is under 0.01 pass and changes
# no choice.
_ROUND_BITS = 1 << 12

# Largest order of z modulo a divisor that _binomial searches for.  A
# search past it costs about 25 us per divisor, once per process.  At
# 2**19 bits no divisor of order 255 with up to five taps gained from its
# binomial multiple, whose u has about P/2 terms, while orders up to 127
# did (CHANGES.md).
_ORDER_BOUND = 256


class InconsistentDivision(ValueError):
    """Exact division cannot reproduce the dividend.

    Raised when :func:`exact_div_low` is handed a dividend that is not a
    multiple of the divisor within the stated output length, which in the
    decoding pipeline means corrupted packets or a wrong generator matrix.
    """


def _mul_masks(a: int, b: int) -> int:
    # Carry-less schoolbook product: XOR one shifted copy of b per set bit
    # of a.  Iterate over the shorter operand: bit_length() is O(1), where
    # bit_count() would read every word of a megabit packet.
    if a.bit_length() > b.bit_length():
        a, b = b, a
    out = 0
    while a:
        low = a & -a
        out ^= b << (low.bit_length() - 1)
        a ^= low
    return out


def _divmod_masks(a: int, d: int) -> tuple[int, int]:
    # Long division; d must be nonzero.
    dd = d.bit_length() - 1
    q = 0
    while a.bit_length() - 1 >= dd:
        shift = a.bit_length() - 1 - dd
        q |= 1 << shift
        a ^= d << shift
    return q, a


def _exponents(mask: int) -> list[int]:
    # The exponents of mask's terms, lowest first.
    return [t for t, bit in enumerate(format(mask, "b")[::-1]) if bit == "1"]


def _gcd_masks(x: int, y: int) -> int:
    # Euclid on coefficient masks; _gcd_masks(x, 0) is x.
    while y:
        x, y = y, _divmod_masks(x, y)[1]
    return x


class Poly2:
    """Immutable polynomial over GF(2) backed by an int coefficient mask.

    Instances are hashable and compare by value.  The mask is exposed as
    the ``mask`` attribute; treat it as read-only.
    """

    __slots__ = ("mask",)

    def __init__(self, mask: int = 0):
        if type(mask) is not int and (not isinstance(mask, int) or isinstance(mask, bool)):
            raise TypeError(f"coefficient mask must be an int, not {type(mask).__name__}")
        if mask < 0:
            raise ValueError("coefficient mask must be nonnegative")
        self.mask = mask

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_hex(cls, text: str) -> "Poly2":
        """Parse a bare hex coefficient mask (``"b"`` -> z^3+z+1): hex
        digits after an optional ``0x``, with no sign or underscore."""
        s = text.strip()
        if s.lower().startswith("0x"):
            s = s[2:]
        if not s:
            raise ValueError("empty hex mask")
        if s.strip("0123456789abcdefABCDEF"):
            raise ValueError(f"bad hex mask {text!r}")
        return cls(int(s, 16))

    # -- basic queries ---------------------------------------------------

    def degree(self) -> int:
        """Degree of the polynomial; raises ValueError for the zero polynomial.

        The zero polynomial has no finite degree and no sentinel is used;
        callers that can meet zero must test truthiness first.
        """
        if not self.mask:
            raise ValueError("zero polynomial has no degree")
        return self.mask.bit_length() - 1

    def __bool__(self) -> bool:
        return bool(self.mask)

    # -- ring operators --------------------------------------------------

    def __add__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        return Poly2(self.mask ^ other.mask)

    __sub__ = __add__  # characteristic 2: subtraction is addition

    def __mul__(self, other: "Poly2") -> "Poly2":
        if not isinstance(other, Poly2):
            return NotImplemented
        return Poly2(_mul_masks(self.mask, other.mask))

    def __divmod__(self, other: "Poly2") -> tuple["Poly2", "Poly2"]:
        if not isinstance(other, Poly2):
            return NotImplemented
        if not other.mask:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod_masks(self.mask, other.mask)
        return Poly2(q), Poly2(r)

    # -- comparisons and rendering ----------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly2):
            return self.mask == other.mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("Poly2", self.mask))

    def to_text(self) -> str:
        """Render as a sum of terms, highest degree first (``"z^3+z+1"``)."""
        if not self.mask:
            return "0"
        terms = []
        for k in range(self.mask.bit_length() - 1, -1, -1):
            if (self.mask >> k) & 1:
                terms.append("1" if k == 0 else "z" if k == 1 else f"z^{k}")
        return "+".join(terms)

    def to_hex(self) -> str:
        """Render as a bare lowercase hex mask (``"b"`` for z^3+z+1)."""
        return format(self.mask, "x")

    def __str__(self) -> str:
        return self.to_text()

    def __repr__(self) -> str:
        return f"Poly2(0x{self.mask:x})"


def exact_div_low(b: Poly2, h: Poly2, out_len: int) -> Poly2:
    """Solve b = h * s for s, recovering coefficients lowest order first.

    h must have constant term 1, which makes s unique: the constant
    coefficient of s is read off directly and every later coefficient
    follows from one XOR of already-known ones (an LFSR run in reverse).
    s is confined to ``out_len`` coefficient bits; afterwards h * s must
    reproduce b exactly, so trailing garbage in b or an s that would need
    more bits both raise :class:`InconsistentDivision`.

    This is the last stripe of :func:`_div_low`, whose bits at and above
    ``out_len`` are the product's carry: the decoder's stripe core runs
    the earlier stripes of a long division through :func:`_div_low` and
    hands the last one, with the carry cancelled from it, to this
    function, which forms h * s in full to compare it with b.  For h = 1
    the result is b itself, not a copy.
    """
    if not h.mask:
        raise ZeroDivisionError("exact division by zero polynomial")
    if not h.mask & 1:
        raise ValueError("divisor must have constant term 1")
    if out_len < 0:
        raise ValueError("output length must be nonnegative")
    if h.mask == 1 and b.mask.bit_length() <= out_len:
        return b  # s = b; an over-long b falls through to the check below
    s = _div_low(b.mask, h.mask, out_len)[0]
    if _mul_masks(h.mask, s) != b.mask:
        raise InconsistentDivision(
            f"{b.mask.bit_length()}-bit dividend is not divisor * s for any s "
            f"of {out_len} coefficient bits"
        )
    return Poly2(s)


def _div_low(b: int, h: int, width: int, carry: int = 0, mask: int = 0) -> tuple[int, int]:
    """One stripe of a low-first division: s and (h * s + carry - b) / z**width.

    s is the ``width``-bit solution of h * s + carry = b mod z**width,
    with b the stripe's dividend bits and ``carry`` the bits that the
    product of h with the earlier stripes' quotient leaves at and above
    the stripe's start (fewer than deg h of them).  When b holds no more
    than ``width`` bits, the second value is the carry into the next
    stripe; when it holds all the dividend's remaining bits, the division
    is exact just when that value is 0.  Only the quotient's top deg h
    bits reach the product's bits at and above z**width, so the carry is
    formed from them alone; :func:`exact_div_low` forms h * s in full.
    ``mask``, when given, is the all-ones mask of ``width`` bits, so that
    a caller dividing stripe after stripe builds it once.

    The per-coefficient recursion is collapsed into rounds of sparse
    shift-XORs, on one of two paths:

    - *Binomial*: when z has a small order P modulo h (see
      :func:`_binomial`), h times the sparse u = (1 + z**P) / h is a
      binomial, so 1/h = u * (1 + z**P)(1 + z**2P)(1 + z**4P)...: one
      multiplication by u, then one shift-XOR per doubling of the stride
      from P past ``width``, each cut back to ``width`` bits.
    - *Taps*: the characteristic-2 identity 1/h = (1+e)(1+e^2)(1+e^4)...
      with e = h + 1.  The taps of e are kept as a list of exponents
      below ``width``; squaring e multiplies each by 2 (z**t -> z**2t),
      so a round touches no large int beyond the shifted copies of s.
      The doubling runs until no tap is left below ``width`` on operands
      of at most 64 chunks, and otherwise stops at the chunk size C =
      2**r: then s = s_r + e(z**C) * s, which runs on C-bit chunks as
      chunk[j] ^= chunk[j - t] per tap t of e, lowest first, so log2(C)
      rounds, not log2(width), touch the whole operand.

    :func:`_binomial_pays` picks the path by its count of whole-operand
    passes, with a charge per round of the taps path.  Either result is
    bit-identical to the naive recursion.
    """
    if h == 1 and b.bit_length() <= width:
        return b, 0  # carry is 0 too: h = 1 leaves none
    # Without the caller's mask, an all-ones mask of width bits is as large
    # as s: each is built where it is used, so that none lives through the
    # taps path's rounds.
    x = b ^ carry if carry else b
    taps = [t for t in _exponents(h ^ 1) if t < width]
    period, u = _binomial(h)
    if period and _binomial_pays(period, u, taps, width):
        mask = mask or (1 << width) - 1
        s = _mul_masks(u, x) & mask  # x's bits past width reach none below it
        while period < width:
            s ^= (s << period) & mask
            period *= 2
    else:
        s = x & (mask or (1 << width) - 1) if x.bit_length() > width else x
        stride = 1
        # Bits past width never reach lower ones: they are cut once, below.
        while taps and (stride < _CHUNK or width <= 64 * _CHUNK):
            acc = s
            for t in taps:
                acc ^= s << (t * stride)
            s, acc = acc, None  # acc must not keep the last round's s alive
            stride *= 2
            taps = [t for t in taps if t * stride < width]
        s &= mask or (1 << width) - 1
        if taps:
            s = _chunk_recurrence(s, taps, width)
    # s solves the low width bits, so they cancel; of h * s, only h times
    # the top deg h bits of s reaches z**width.
    top = max(width - h.bit_length() + 1, 0)
    return s, (_mul_masks(h, s >> top) >> (width - top)) ^ (x >> width)


@lru_cache(maxsize=256)
def _binomial(h: int) -> tuple[int, int]:
    """(P, u) with h * u = 1 + z**P for the least P up to ``_ORDER_BOUND``, else (0, 0).

    P is the order of z modulo h, found by stepping z**p mod h; a divisor
    of degree past the bound has no P within it, and is not searched.
    """
    degree = h.bit_length() - 1
    if 0 < degree <= _ORDER_BOUND:
        r = 1
        for p in range(1, _ORDER_BOUND + 1):
            r <<= 1
            if r >> degree:
                r ^= h
            if r == 1:
                return p, _divmod_masks(1 << p | 1, h)[0]
    return 0, 0


def _binomial_pays(period: int, u: int, taps: list[int], width: int) -> bool:
    # Whether the binomial path makes no more whole-operand passes than the
    # taps path: |u| plus one per doubling of P, against one per tap per
    # round it stays below width, capped at log2(_CHUNK) rounds and
    # followed by _CHUNK_PASSES when the chunk stage runs, plus each
    # round's _ROUND_BITS.
    rounds = [((width - 1) // t).bit_length() for t in taps]
    chunked = 0
    if width > 64 * _CHUNK:
        cap = _CHUNK.bit_length() - 1
        chunked = _CHUNK_PASSES if any(r > cap for r in rounds) else 0
        rounds = [min(r, cap) for r in rounds]
    overhead = max(rounds, default=0) * _ROUND_BITS / max(width, 1)
    return u.bit_count() + ((width - 1) // period).bit_length() <= sum(rounds) + chunked + overhead


def _chunk_recurrence(s: int, taps: list[int], out_len: int) -> int:
    # x = s + sum_t z**(t * _CHUNK) * x mod z**out_len, chunk by chunk; only
    # the last chunk can gain bits at or above out_len.
    # The chunks are written back into the bytes they came from and dropped
    # before the result is built: besides s, at most two copies are alive.
    width = _CHUNK // 8
    data = bytearray(s.to_bytes(-(-out_len // _CHUNK) * width, "little"))
    chunks = [int.from_bytes(data[i:i + width], "little") for i in range(0, len(data), width)]
    for j in range(taps[0], len(chunks)):
        x = chunks[j]
        for t in taps:
            if t > j:
                break
            x ^= chunks[j - t]
        chunks[j] = x
    chunks[-1] &= (1 << (out_len - (len(chunks) - 1) * _CHUNK)) - 1
    for j, x in enumerate(chunks):
        data[j * width:(j + 1) * width] = x.to_bytes(width, "little")
    del chunks
    return int.from_bytes(data, "little")


def split_shift(p: Poly2) -> tuple[int, Poly2]:
    """Split p as (t, h) with p = z**t * h and h(0) = 1.

    t is the number of trailing zero coefficients.  Rejects the zero
    polynomial, which has no such factorization.
    """
    if not p.mask:
        raise ValueError("cannot split the zero polynomial")
    t = (p.mask & -p.mask).bit_length() - 1
    return t, Poly2(p.mask >> t)

