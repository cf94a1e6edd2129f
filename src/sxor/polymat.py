"""Matrices over GF(2**m) and over the polynomial ring GF(2)[z].

Both store a tuple-of-tuples of int masks (``_masks``) and are APIs over
it, with one product (:func:`_matmul_masks`, given the ring's multiply)
and one shape check (:func:`_check_shape`); ``entries`` wraps the masks
as :class:`~sxor.gf2m.FieldElem` or :class:`~sxor.gf2poly.Poly2` on
request.  :class:`FieldMatrix` adds a Gauss-Jordan inverse; with the
product it is the reference the closed-form systematic generators of
:mod:`sxor.codes` are tested against.  :class:`PolyMatrix` adds
determinant and adjugate over GF(2)[z], the core of the exact decoder:
for a K x K submatrix A_I the identity A_I * adj(A_I) = det(A_I) * I
turns decoding into K exact divisions.

Determinant and adjugate come from one fraction-free (Bareiss)
Gauss-Jordan elimination on [A | I]: every division by the previous
pivot is exact, so the work stays in GF(2)[z] with O(K**3) ring
operations and no fractions; over characteristic 2 row swaps change no
sign.  A singular A takes its adjugate from the low bits of
adj(A + z**d * I), which is invertible for d above every entry degree
of adj(A).  A decoding kernel for the last K packets of build_sxor took
15 ms at K = 14 (m = 5), 0.43 s at K = 32 (m = 6) and 1.9 s at K = 32
(m = 16), with 16 MiB peak RSS (Python 3.11, 2-vCPU Xeon);
codes.MAX_K bounds K.
"""

from __future__ import annotations

from functools import reduce
from operator import xor
from typing import Callable, Iterable, Sequence

from .gf2m import FieldCtx, FieldElem, _as_poly, _mulmod, _powmod
from .gf2poly import Poly2, _divmod_masks, _exponents, _gcd_masks, _mul_masks

__all__ = [
    "FieldMatrix",
    "PolyMatrix",
    "Singular",
    "vandermonde",
    "cancel_common_factor",
]


class Singular(ValueError):
    """The matrix has no inverse over its field."""


def _check_shape(grid: Sequence[Sequence]) -> tuple[int, int]:
    # The one shape rule for a matrix: at least one row and one column, no
    # ragged rows.  Returns (rows, cols).
    if not grid or not grid[0]:
        raise ValueError("matrix must have at least one row and one column")
    width = len(grid[0])
    if any(len(row) != width for row in grid):
        raise ValueError("ragged rows")
    return len(grid), width


def _matmul_masks(a: Sequence, b: Sequence, mul: Callable[[int, int], int]) -> list[list[int]]:
    # Product of two int-mask grids over a ring whose addition is XOR and multiply is mul.
    if len(a[0]) != len(b):
        raise ValueError(f"cannot multiply {len(a)}x{len(a[0])} by {len(b)}x{len(b[0])}")
    cols = tuple(zip(*b))
    return [[reduce(xor, (mul(x, y) for x, y in zip(row, col) if x and y), 0) for col in cols]
            for row in a]


def vandermonde(ctx: FieldCtx, k: int, n: int) -> "FieldMatrix":
    """K x N Vandermonde matrix with entry (i, j) = z**(i*j), 0-based.

    Row i is the geometric progression of z**i across the N columns; any K
    columns are independent because the N points z**j are pairwise
    distinct, which needs n <= 2**m - 1.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= K <= N, got K={k} N={n}")
    if n > ctx.order:
        raise ValueError(f"N={n} exceeds the {ctx.order} distinct points of GF(2^{ctx.m})")
    return FieldMatrix._of(ctx, [[ctx.z_pow(i * j)._mask for j in range(n)] for i in range(k)])


class FieldMatrix:
    """Rectangular matrix over GF(2**m), immutable by convention."""

    __slots__ = ("ctx", "rows", "cols", "_masks")

    def __init__(self, entries: Iterable[Iterable[FieldElem]]):
        grid = tuple(tuple(row) for row in entries)
        self.rows, self.cols = _check_shape(grid)
        ctx = getattr(grid[0][0], "ctx", None)
        if not all(isinstance(e, FieldElem) and e.ctx == ctx for row in grid for e in row):
            raise ValueError("entries must be field elements of one context")
        self.ctx = ctx
        self._masks = tuple(tuple(e._mask for e in row) for row in grid)

    @classmethod
    def _of(cls, ctx: FieldCtx, masks: Iterable[Iterable[int]]) -> "FieldMatrix":
        # Wrap a grid of masks already reduced in ctx.
        mat = cls.__new__(cls)
        mat.ctx = ctx
        mat._masks = tuple(tuple(row) for row in masks)
        mat.rows, mat.cols = _check_shape(mat._masks)
        return mat

    @classmethod
    def identity(cls, ctx: FieldCtx, n: int) -> "FieldMatrix":
        return cls._of(ctx, [[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def entries(self) -> tuple[tuple[FieldElem, ...], ...]:
        """The entries as :class:`FieldElem`; they are stored as reduced masks."""
        return tuple(tuple(FieldElem(self.ctx, v) for v in row) for row in self._masks)

    def columns(self, idx: Sequence[int]) -> "FieldMatrix":
        """Select columns by 0-based index, in the order given."""
        for j in idx:
            if not 0 <= j < self.cols:
                raise ValueError(f"column index {j} out of range")
        return FieldMatrix._of(self.ctx, [[row[j] for j in idx] for row in self._masks])

    def __matmul__(self, other: "FieldMatrix") -> "FieldMatrix":
        if not isinstance(other, FieldMatrix):
            return NotImplemented
        if self.ctx != other.ctx:
            raise ValueError("field context mismatch")
        g, m = self.ctx.g.mask, self.ctx.m
        return FieldMatrix._of(self.ctx, _matmul_masks(self._masks, other._masks,
                                                       lambda a, b: _mulmod(a, b, g, m)))

    def inverse(self) -> "FieldMatrix":
        """Gauss-Jordan inverse; raises :class:`Singular` when rank-deficient."""
        if self.rows != self.cols:
            raise ValueError("only square matrices can be inverted")
        n = self.rows
        g, m = self.ctx.g.mask, self.ctx.m
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self._masks)]
        for col in range(n):
            pivot = next((r for r in range(col, n) if aug[r][col]), None)
            if pivot is None:
                raise Singular(f"no pivot in column {col}")
            aug[col], aug[pivot] = aug[pivot], aug[col]
            inv = _powmod(aug[col][col], self.ctx.order - 1, g, m)
            aug[col] = [_mulmod(e, inv, g, m) for e in aug[col]]
            for r in range(n):
                f = aug[r][col]
                if r != col and f:
                    aug[r] = [a ^ _mulmod(f, b, g, m) for a, b in zip(aug[r], aug[col])]
        return FieldMatrix._of(self.ctx, [row[n:] for row in aug])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, FieldMatrix):
            return self.ctx == other.ctx and self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx, self._masks))

    def __repr__(self) -> str:
        return f"FieldMatrix({self.rows}x{self.cols}, m={self.ctx.m})"


class PolyMatrix:
    """Rectangular matrix over GF(2)[z], stored as a grid of coefficient masks."""

    __slots__ = ("rows", "cols", "_masks")

    def __init__(self, entries: Iterable[Iterable[Poly2]]):
        self._masks = tuple(tuple(_as_poly(e).mask for e in row) for row in entries)
        self.rows, self.cols = _check_shape(self._masks)

    @classmethod
    def _of(cls, masks: Iterable[Iterable[int]]) -> "PolyMatrix":
        # Wrap a grid of nonnegative int masks.
        mat = cls.__new__(cls)
        mat._masks = tuple(tuple(row) for row in masks)
        mat.rows, mat.cols = _check_shape(mat._masks)
        return mat

    @classmethod
    def identity(cls, n: int) -> "PolyMatrix":
        return cls._of([[int(i == j) for j in range(n)] for i in range(n)])

    @property
    def entries(self) -> tuple[tuple[Poly2, ...], ...]:
        """The entries as :class:`Poly2`; they are stored as masks."""
        return tuple(tuple(Poly2(e) for e in row) for row in self._masks)

    def scale(self, p: Poly2) -> "PolyMatrix":
        """Entry-wise product with a scalar polynomial."""
        return PolyMatrix._of([[_mul_masks(p.mask, e) for e in row] for row in self._masks])

    def __matmul__(self, other: "PolyMatrix") -> "PolyMatrix":
        if not isinstance(other, PolyMatrix):
            return NotImplemented
        return PolyMatrix._of(_matmul_masks(self._masks, other._masks, _mul_masks))

    def determinant(self) -> Poly2:
        """Determinant over GF(2)[z]; zero means the columns are dependent."""
        return self.det_adjugate()[0]

    def det_adjugate(self) -> tuple[Poly2, "PolyMatrix"]:
        """Determinant and adjugate, satisfying A @ adj = adj @ A = det * I.

        No common factor is cancelled here: det stays multiplicative
        across products.  Use :func:`cancel_common_factor` when a reduced
        pair is wanted (the decoder does).
        """
        if self.rows != self.cols:
            raise ValueError("adjugate needs a square matrix")
        n = self.rows
        # Fraction-free Gauss-Jordan on [A | I]: after step k every entry is
        # a (k+1)-minor of the row-permuted [A | I] (Sylvester's identity),
        # so the division by the previous pivot is exact, and the last pivot
        # is det with adj in the right block.  Columns left of the pivot are
        # never read again, so they are not updated.
        aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(self._masks)]
        prev = 1
        for k in range(n):
            p = next((r for r in range(k, n) if aug[r][k]), None)
            if p is None:
                # adj(A + t*I) is adj(A) plus multiples of t, and det(A + t*I)
                # is monic in t.  With t = z**d, d above every entry degree of
                # adj(A), A + t*I is invertible and the low d bits of its
                # adjugate are adj(A).
                d = (n - 1) * max(e.bit_length() for row in self._masks for e in row) + 1
                shifted = PolyMatrix._of([[e ^ (int(i == j) << d) for j, e in enumerate(row)]
                                          for i, row in enumerate(self._masks)])
                return Poly2(0), PolyMatrix._of([[e & ((1 << d) - 1) for e in row]
                                                 for row in shifted.det_adjugate()[1]._masks])
            aug[k], aug[p] = aug[p], aug[k]
            _bareiss_step(aug[:k] + aug[k + 1:], aug[k], k, range(k + 1, 2 * n), prev)
            prev = aug[k][k]
        return Poly2(prev), PolyMatrix._of([row[n:] for row in aug])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PolyMatrix):
            return self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._masks)

    def __repr__(self) -> str:
        return f"PolyMatrix({self.rows}x{self.cols})"


def _bareiss_step(rows: Iterable[list[int]], top: Sequence[int], col: int, cols: Iterable[int],
                  prev: int) -> None:
    """One fraction-free elimination step on pivot ``top[col]``, in place.

    Sets row[e] = (row[e] * top[col] + top[e] * row[col]) / prev for every
    row of ``rows`` and every e in ``cols``; the caller ensures each
    division is exact.  Each product is a sum of shifts by the exponents
    of the pivot and of the row's entry, listed once per row.
    """
    pivot_exps = _exponents(top[col])
    for row in rows:
        f_exps = _exponents(row[col])
        for e in cols:
            x, y, num = row[e], top[e], 0
            for t in pivot_exps:
                num ^= x << t
            for t in f_exps:
                num ^= y << t
            row[e] = _divmod_masks(num, prev)[0] if prev != 1 else num


def cancel_common_factor(det: Poly2, adj: PolyMatrix) -> tuple[Poly2, PolyMatrix]:
    """Divide a (det, adj) pair by the gcd of det and every adj entry.

    The reduced pair still satisfies A @ adj' = det' * I and makes the
    decoder's division lengths (hence its work) as small as possible.
    det must be nonzero.
    """
    if not det:
        raise ValueError("cannot reduce a singular pair")
    g = det.mask
    for row in adj._masks:
        for e in row:
            g = _gcd_masks(g, e)
            if g == 1:
                return det, adj
    q, r = _divmod_masks(det.mask, g)
    out = [[_divmod_masks(e, g) for e in row] for row in adj._masks]
    assert not r and not any(er for row in out for _, er in row)
    return Poly2(q), PolyMatrix._of([[eq for eq, _ in row] for row in out])
