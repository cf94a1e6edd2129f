"""Polynomial arithmetic over GF(2).

A polynomial is stored as a nonnegative Python int used as a coefficient
mask: bit k holds the coefficient of z**k, so the constant term sits in
bit 0 and the zero polynomial is the int 0.  Addition and subtraction are
both XOR, and Python's arbitrary-precision ints make every bulk operation
word-parallel, which is what keeps packet-sized operands (megabits) cheap
without any external dependency.

:class:`Poly2` wraps a mask and overloads the ring operators.  Shifting by
``<<`` and ``>>`` multiplies and floor-divides by powers of z.  Two text
forms are supported and round-trip losslessly: a human-readable sum of
terms such as ``"z^3+z+1"`` and a bare hex mask such as ``"b"`` for the
same polynomial (least significant bit = constant term).

The module-level helpers cover the operations that do not belong to a
single ring element: :func:`exact_div_low` recovers s from b = h*s working
from the lowest-order coefficient up (the workhorse of the exact decoder;
it keeps the taps of h as a short list of exponents, so only the shifted
copies of s are megabit-sized, and ends on fixed-size chunks; it is the
last stripe of :func:`_div_low`, which divides one stripe of a longer
dividend and carries the product's high bits into the next),
:func:`split_shift` factors out the largest power of z, and :func:`gcd`
is the Euclidean algorithm.
"""

from __future__ import annotations

__all__ = [
    "Poly2",
    "InconsistentDivision",
    "exact_div_low",
    "split_shift",
    "gcd",
]


# Tap stride at which exact_div_low stops doubling.  At 13.4 Mbit (2-vCPU
# Xeon, Python 3.11.7) 2**11..2**13 were within 8% of the best, and 2**9
# and 2**18 1.3-1.5x slower (see CHANGES.md).
_CHUNK = 1 << 12


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
        if not isinstance(mask, int) or isinstance(mask, bool):
            raise TypeError(f"coefficient mask must be an int, not {type(mask).__name__}")
        if mask < 0:
            raise ValueError("coefficient mask must be nonnegative")
        self.mask = mask

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_text(cls, text: str) -> "Poly2":
        """Parse a sum of terms like ``"z^3+z+1"`` (whitespace ignored).

        Accepted terms are ``0``, ``1``, ``z`` and ``z^<k>`` with k >= 0.
        Repeated terms cancel, as addition over GF(2) demands.
        """
        compact = "".join(text.split())
        if not compact:
            raise ValueError("empty polynomial text")
        mask = 0
        for term in compact.split("+"):
            if term == "0":
                continue
            if term == "1":
                mask ^= 1
            elif term == "z":
                mask ^= 2
            elif term.startswith("z^"):
                try:
                    k = int(term[2:], 10)
                except ValueError:
                    raise ValueError(f"bad polynomial term {term!r}") from None
                if k < 0:
                    raise ValueError(f"bad polynomial term {term!r}")
                mask ^= 1 << k
            else:
                raise ValueError(f"bad polynomial term {term!r}")
        return cls(mask)

    @classmethod
    def from_hex(cls, text: str) -> "Poly2":
        """Parse a bare hex coefficient mask (``"b"`` -> z^3+z+1)."""
        s = text.strip()
        if s.lower().startswith("0x"):
            s = s[2:]
        if not s:
            raise ValueError("empty hex mask")
        try:
            mask = int(s, 16)
        except ValueError:
            raise ValueError(f"bad hex mask {text!r}") from None
        return cls(mask)

    # -- basic queries ---------------------------------------------------

    def degree(self) -> int:
        """Degree of the polynomial; raises ValueError for the zero polynomial.

        The zero polynomial has no finite degree and no sentinel is used;
        callers that can meet zero must test truthiness first.
        """
        if not self.mask:
            raise ValueError("zero polynomial has no degree")
        return self.mask.bit_length() - 1

    def coeff(self, k: int) -> int:
        """Coefficient of z**k as 0 or 1."""
        if k < 0:
            raise ValueError("negative exponent")
        return (self.mask >> k) & 1

    def term_count(self) -> int:
        """Number of nonzero terms (popcount of the mask)."""
        return self.mask.bit_count()

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

    def __lshift__(self, k: int) -> "Poly2":
        """Multiply by z**k."""
        if k < 0:
            raise ValueError("negative shift")
        return Poly2(self.mask << k)

    def __rshift__(self, k: int) -> "Poly2":
        """Floor-divide by z**k (low coefficients are dropped)."""
        if k < 0:
            raise ValueError("negative shift")
        return Poly2(self.mask >> k)

    def __divmod__(self, other: "Poly2") -> tuple["Poly2", "Poly2"]:
        if not isinstance(other, Poly2):
            return NotImplemented
        if not other.mask:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _divmod_masks(self.mask, other.mask)
        return Poly2(q), Poly2(r)

    def __floordiv__(self, other: "Poly2") -> "Poly2":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly2") -> "Poly2":
        return divmod(self, other)[1]

    def __pow__(self, n: int) -> "Poly2":
        if not isinstance(n, int) or n < 0:
            raise ValueError("exponent must be a nonnegative int")
        result = Poly2(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

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
    function.  For h = 1 the result is b itself, not a copy.
    """
    if not h.mask:
        raise ZeroDivisionError("exact division by zero polynomial")
    if not h.mask & 1:
        raise ValueError("divisor must have constant term 1")
    if out_len < 0:
        raise ValueError("output length must be nonnegative")
    if h.mask == 1 and b.mask.bit_length() <= out_len:
        return b  # s = b; an over-long b falls through to the check below
    s, rest = _div_low(b.mask, h.mask, out_len)
    if rest:
        raise InconsistentDivision(
            f"{b.mask.bit_length()}-bit dividend is not divisor * s for any s "
            f"of {out_len} coefficient bits"
        )
    return Poly2(s)


def _div_low(b: int, h: int, width: int, carry: int = 0) -> tuple[int, int]:
    """One stripe of a low-first division: s and (h * s + carry - b) / z**width.

    s is the ``width``-bit solution of h * s + carry = b mod z**width,
    with b the stripe's dividend bits and ``carry`` the bits that the
    product of h with the earlier stripes' quotient leaves at and above
    the stripe's start (fewer than deg h of them).  When b holds no more
    than ``width`` bits, the second value is the carry into the next
    stripe; when it holds all the dividend's remaining bits, the division
    is exact just when that value is 0.  So the product h * s, formed
    again, is what re-verifies the division.

    The per-coefficient recursion is collapsed into rounds of sparse
    shift-XORs using the characteristic-2 identity
    1/h = (1+e)(1+e^2)(1+e^4)... with e = h + 1, so megabit operands stay
    fast.  The taps of e are kept as a list of exponents below
    ``width``; squaring e multiplies each by 2 (z**t -> z**2t), so a
    round touches no large int beyond the shifted copies of s.  The
    doubling stops at the chunk size C = 2**r: then s = s_r + e(z**C) * s,
    which runs on C-bit chunks as chunk[j] ^= chunk[j - t] per tap t of
    e, lowest first, so log2(C) rounds, not log2(width), touch the whole
    operand.  The result is bit-identical to the naive recursion.
    """
    if h == 1 and b.bit_length() <= width:
        return b, 0  # carry is 0 too: h = 1 leaves none
    s = b ^ carry if carry else b
    if s.bit_length() > width:
        # The all-ones mask of width bits is as large as s: build it where
        # it is used, so that it does not live through the rounds.
        s &= (1 << width) - 1
    taps = [t for t in _exponents(h ^ 1) if t < width]
    stride = 1
    while taps and stride < _CHUNK:  # bits past width never reach lower ones: cut once
        acc = s
        for t in taps:
            acc ^= s << (t * stride)
        s, acc = acc, None  # acc must not keep the last round's s alive
        stride *= 2
        taps = [t for t in taps if t * stride < width]
    s &= (1 << width) - 1
    if taps:
        s = _chunk_recurrence(s, taps, width)
    prod = _mul_masks(h, s)
    if carry:
        prod ^= carry
    if prod == b:
        return s, 0
    return s, (prod ^ b) >> width  # s solves the low width bits: they cancel


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


def gcd(a: Poly2, b: Poly2) -> Poly2:
    """Greatest common divisor by the Euclidean algorithm.

    Over GF(2) every nonzero polynomial is monic, so no normalization step
    is needed.  gcd(0, 0) is 0 by convention.
    """
    return Poly2(_gcd_masks(a.mask, b.mask))
