"""GF(2**m) arithmetic modulo a primitive polynomial.

A :class:`FieldCtx` pins the field: the extension degree m and a primitive
modulus g(z) of degree m.  Primitivity (z generates the full multiplicative
group of 2**m - 1 elements) is what guarantees the Vandermonde points
z^0, z^1, ..., z^(N-1) are pairwise distinct for N <= 2**m - 1, so it is
validated at construction time rather than trusted.  m <= 16 covers any
u16 N and bounds that check.  The arithmetic is two int-mask helpers,
:func:`_mulmod` and :func:`_powmod`; :class:`FieldElem` here and
:class:`~sxor.polymat.FieldMatrix` are the API over them.

Because z is primitive, every nonzero element is a power of z, and a sum
of two powers is z**p + z**q = z**(p + Z(q - p)), where Z(k) = log_z(1 +
z**k) is Zech's logarithm (Huber, *Some comments on Zech's logarithms*,
IEEE Trans. IT 36(4), 1990).  :func:`_zech_tables` holds z**i, Z(k) and log_z
per field, so products and quotients of such sums are additions of
exponents; the systematic construction and the MDS check in
:mod:`sxor.codes` run on them.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from typing import Iterator, Union

from .gf2poly import Poly2, _divmod_masks, _mul_masks

__all__ = ["FieldCtx", "FieldElem", "is_primitive", "default_modulus", "DEFAULT_MODULI"]

# One primitive polynomial per degree, by coefficient mask.  Each entry is
# checked by is_primitive in the test suite, so a typo here cannot survive.
DEFAULT_MODULI: dict[int, int] = {
    1: 0x3,       # z + 1
    2: 0x7,       # z^2 + z + 1
    3: 0xB,       # z^3 + z + 1
    4: 0x13,      # z^4 + z + 1
    5: 0x25,      # z^5 + z^2 + 1
    6: 0x43,      # z^6 + z + 1
    7: 0x83,      # z^7 + z + 1
    8: 0x11D,     # z^8 + z^4 + z^3 + z^2 + 1
    9: 0x211,     # z^9 + z^4 + 1
    10: 0x409,    # z^10 + z^3 + 1
    11: 0x805,    # z^11 + z^2 + 1
    12: 0x1053,   # z^12 + z^6 + z^4 + z + 1
    13: 0x201B,   # z^13 + z^4 + z^3 + z + 1
    14: 0x4443,   # z^14 + z^10 + z^6 + z + 1
    15: 0x8003,   # z^15 + z + 1
    16: 0x1100B,  # z^16 + z^12 + z^3 + z + 1
}

PolyLike = Union[Poly2, int]


def _as_poly(p: PolyLike) -> Poly2:
    return p if isinstance(p, Poly2) else Poly2(p)


def default_modulus(m: int) -> Poly2:
    """Built-in primitive modulus of degree m (1 <= m <= 16)."""
    try:
        return Poly2(DEFAULT_MODULI[m])
    except KeyError:
        raise ValueError(f"no built-in modulus of degree {m}") from None


def is_primitive(g: PolyLike, m: int) -> bool:
    """True when g is a primitive polynomial of degree m.

    The check is direct: g must have degree m and constant term 1 (else z
    is not even invertible), and z must have multiplicative order exactly
    2**m - 1 modulo g: z**(2**m - 1) = 1 and z**((2**m - 1) / p) != 1 for
    every prime p dividing 2**m - 1.  Results are memoised per (g, m) in a
    bounded cache, because every packet header names its modulus.
    """
    g = _as_poly(g)
    if m < 1 or not g.mask or g.degree() != m or not g.mask & 1:
        return False
    return _z_has_full_order(g.mask, m)


@lru_cache(maxsize=256)
def _z_has_full_order(g: int, m: int) -> bool:
    full = (1 << m) - 1
    z = _divmod_masks(2, g)[1]  # z reduced mod g (1 when m = 1)
    return (_powmod(z, full, g, m) == 1
            and all(_powmod(z, full // p, g, m) != 1 for p in _prime_factors(full)))


def _prime_factors(n: int) -> list[int]:
    # Distinct prime factors by trial division; n = 2**m - 1 with m <= 16
    # needs at most 256 trial divisors.
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        out.append(n)
    return out


def _mulmod(a: int, b: int, g: int, m: int) -> int:
    p = _mul_masks(a, b)
    while p.bit_length() > m:
        p ^= g << (p.bit_length() - 1 - m)
    return p


def _powmod(a: int, e: int, g: int, m: int) -> int:
    # a**e mod g for e >= 0, by square-and-multiply.
    acc = 1
    while e:
        if e & 1:
            acc = _mulmod(acc, a, g, m)
        a = _mulmod(a, a, g, m)
        e >>= 1
    return acc


@lru_cache(maxsize=16)
def _zech_tables(g: int, m: int) -> tuple[array, array, array]:
    # (exp, zech, log) for the field of the primitive modulus g of degree
    # m: exp[i] = z**i and zech[k] = Z(k) = log_z(1 + z**k) for i, k <
    # 2**m - 1, and log[v] = log_z(v) for 0 < v < 2**m.  zech[0] and
    # log[0] would be log 0, which does not exist; they hold 0.  Unsigned
    # 16-bit items fit every m <= 16, where the three tables take 384 KiB
    # and about 35 ms to build (README).  Every caller shares the cached
    # arrays, so none may write to them.
    order = (1 << m) - 1
    exp = array("H", bytes(2 * order))
    log = array("H", bytes(2 << m))
    v = 1
    for i in range(order):
        exp[i] = v
        log[v] = i
        v <<= 1
        if v >> m:
            v ^= g
    return exp, array("H", (log[e ^ 1] for e in exp)), log


class FieldCtx:
    """A validated GF(2**m) context.

    Construction raises ValueError unless 1 <= m <= 16 and g is primitive
    of degree m, so a live context is proof the field is well-formed.
    Contexts compare and hash by (m, g); elements refuse to mix across
    unequal contexts.
    """

    __slots__ = ("m", "g")

    def __init__(self, g: PolyLike, m: int | None = None):
        g = _as_poly(g)
        if m is None:
            if not g.mask:
                raise ValueError("zero polynomial cannot be a field modulus")
            m = g.degree()
        if not 1 <= m <= 16:  # before is_primitive factors 2**m - 1
            raise ValueError(f"field degree m={m} is outside 1..16")
        if not is_primitive(g, m):
            raise ValueError(f"{g} is not a primitive polynomial of degree {m}")
        self.m = m
        self.g = g

    @property
    def order(self) -> int:
        """Size of the multiplicative group, 2**m - 1."""
        return (1 << self.m) - 1

    @property
    def zero(self) -> "FieldElem":
        return FieldElem(self, 0)

    @property
    def one(self) -> "FieldElem":
        return FieldElem(self, 1)

    def z_pow(self, e: int) -> "FieldElem":
        """The element z**e, with e taken mod 2**m - 1 (e may be negative)."""
        z = _divmod_masks(2, self.g.mask)[1]  # z reduced mod g (1 when m = 1)
        return FieldElem(self, _powmod(z, e % self.order, self.g.mask, self.m))

    def elements(self) -> Iterator["FieldElem"]:
        """All 2**m field elements, in mask order starting from zero."""
        for v in range(1 << self.m):
            yield FieldElem(self, v)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldCtx):
            return self.m == other.m and self.g == other.g
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("FieldCtx", self.m, self.g.mask))

    def __repr__(self) -> str:
        return f"FieldCtx(g=0x{self.g.mask:x}, m={self.m})"


class FieldElem:
    """An element of a :class:`FieldCtx`, stored reduced (degree < m)."""

    __slots__ = ("ctx", "_mask")

    def __init__(self, ctx: FieldCtx, mask: int):
        self.ctx = ctx
        self._mask = mask

    @property
    def value(self) -> Poly2:
        """The reduced polynomial representative."""
        return Poly2(self._mask)

    def _check(self, other: "FieldElem") -> None:
        if self.ctx != other.ctx:
            raise ValueError("field context mismatch")

    def __add__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return FieldElem(self.ctx, self._mask ^ other._mask)

    __sub__ = __add__

    def __mul__(self, other: "FieldElem") -> "FieldElem":
        if not isinstance(other, FieldElem):
            return NotImplemented
        self._check(other)
        return FieldElem(self.ctx, _mulmod(self._mask, other._mask, self.ctx.g.mask, self.ctx.m))

    def __pow__(self, n: int) -> "FieldElem":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            # A nonzero a has a**order = 1, so a**n = a**(n mod order).
            if not self._mask:
                raise ZeroDivisionError("zero field element has no inverse")
            n %= self.ctx.order
        return FieldElem(self.ctx, _powmod(self._mask, n, self.ctx.g.mask, self.ctx.m))

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse via a**(2**m - 2); zero is rejected."""
        return self ** -1

    def __bool__(self) -> bool:
        return bool(self._mask)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldElem):
            return self.ctx == other.ctx and self._mask == other._mask
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("FieldElem", self.ctx.m, self.ctx.g.mask, self._mask))

    def __repr__(self) -> str:
        return f"FieldElem({self.value}, m={self.ctx.m})"
