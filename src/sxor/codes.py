"""Code constructions and generator-matrix handling.

A generator matrix is K x N over GF(2)[z]: row i belongs to source packet
i, column j describes encoded packet j as a combination of shifted sources
(entry z**t means "source shifted t bits").  The per-packet storage
overhead of column j is its largest entry degree, and the encoding cost
alpha counts one XOR per term beyond the first in each column.

Three constructions are provided:

* :func:`build_sxor` - the K x N Vandermonde matrix with entries z**(i*j)
  read as polynomials.  Any K columns are invertible, overhead per packet
  stays at most ceil(log2(N+1)) - 1 bits.
* :func:`build_systematic_sxor` - same code pre-multiplied by the inverse
  of the columns named by x, so those K packets carry the sources
  verbatim; built entry by entry from its Lagrange closed form.
* :func:`builtin_zd_k3` - the fixed 3 x 6 zigzag-decodable matrix whose
  entries are all monomials, single-bit overhead, zigzag-friendly.

Matrices serialize to a small text format (one header line, one hex-mask
line per row) that round-trips spec and entries losslessly.  Two parts
load on first use, so that ``sxor encode`` and ``sxor decode`` never
compile them: that text format's reader and writer live in
:mod:`sxor.matrix_file`, whose public names this module serves through
PEP 562 ``__getattr__``, and the walk behind
:meth:`GenMatrix.check_suboptimal` lives in :mod:`sxor.analysis`.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

from .gf2m import FieldCtx, PolyLike, _as_poly, _zech_tables
from .gf2poly import Poly2
from .polymat import PolyMatrix, _check_shape

__all__ = [
    "CodeSpec",
    "GenMatrix",
    "Metrics",
    "build_sxor",
    "build_systematic_sxor",
    "builtin_zd_k3",
    "matrix_for_spec",
    "user_matrix",
    "format_fields",
]

# The names of sxor.matrix_file served here; __getattr__ loads it on first use.
_MATRIX_FILE = ("MatrixFormatError", "format_matrix", "parse_fields", "parse_matrix",
                "save_matrix", "load_matrix")


def __getattr__(name: str):
    # PEP 562: called only for names not bound here.
    if name in _MATRIX_FILE:
        return getattr(importlib.import_module(".matrix_file", __package__), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

KINDS = ("user", "sxor", "systematic", "zd3")
KIND_CODES = {name: i for i, name in enumerate(KINDS)}

# Largest K a code may have.  A decoding kernel is a K x K elimination
# whose entries grow with K and m: at K = 32 the last K packets of an
# sxor code took 0.43 s at m = 6 and 1.9 s at m = 16 (README).
MAX_K = 32

# Largest K times widest entry bit length a matrix may have: a bound on
# the cost of its decoding kernels that is known before any elimination.
# The constructed kinds reach it at K = 32, m = 16, where a kernel takes
# about 2 s; a user matrix at the limit takes as long (README).
MAX_KERNEL_BITS = MAX_K * 16

# Most column subsets check_suboptimal may walk, counted as the sum of
# C(N, j) for j = 1..K, which is what its walk over GF(2)[z] covers with
# no unit column; unit columns only shrink that walk.  The walk in
# GF(2^m) has C(N, K) - 1 minors, but a matrix it rejects falls back to
# the one over GF(2)[z], which this bounds.  (6, 31) counts 942,648; an
# sxor or systematic code there is checked in GF(2^5) in up to 0.51 s
# and 18.6 MiB, and a matrix that falls back took up to 2.0 s and
# 31 MiB (README).
MAX_CHECK_SUBSETS = 1_000_000

# Entries of the fixed 3 x 6 zigzag-decodable code, as coefficient masks.
_ZD3_ROWS = ((1, 0, 0, 1, 2, 2),
             (0, 1, 0, 2, 1, 2),
             (0, 0, 1, 2, 2, 1))


@dataclass(frozen=True)
class CodeSpec:
    """Identity of a code: kind, dimensions and (when used) the field.

    kind is one of ``user``, ``sxor``, ``systematic``, ``zd3``.  x is the
    1-based tuple of systematic packet positions and exists only for the
    systematic kind.  For kinds that do not use a field (zd3, and user
    matrices unless declared otherwise) m may be 0 and g zero.  K is at
    most ``MAX_K`` and N at most 65535, the packets a header can name.
    """

    kind: str
    k: int
    n: int
    m: int = 0
    g: Poly2 = Poly2(0)
    x: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.k < 1 or self.n < 1:
            raise ValueError("K and N must be positive")
        if self.k > MAX_K:
            raise ValueError(f"K={self.k} exceeds the limit of {MAX_K} source packets")
        if self.n > 0xFFFF:  # the most packets a header's u16 packet index can name
            raise ValueError(f"N={self.n} exceeds 65535, the limit of its 16-bit header field")
        if self.kind in ("sxor", "systematic"):
            FieldCtx(self.g, self.m)  # ValueError unless g is primitive, deg g = m <= 16
            if not self.k <= self.n <= (1 << self.m) - 1:
                raise ValueError(f"need K <= N <= 2^m - 1, got K={self.k} N={self.n} m={self.m}")
        if self.kind == "systematic":
            if self.x is None:
                raise ValueError("systematic codes need x")
            _sorted_indices("x", self.x, self.k, self.n)
        elif self.x is not None:
            raise ValueError(f"x is only meaningful for systematic codes, not {self.kind!r}")
        if self.kind == "zd3" and (self.k, self.n, self.m, self.g.mask) != (3, 6, 0, 0):
            raise ValueError("zd3 is fixed at K=3, N=6 with no field")
        if self.kind == "user" and self.m < 0:
            raise ValueError("m must be nonnegative")
        # Every packet header hashes its spec (codec._header_prefix's cache
        # key), so the fields' hash is taken once; it is the hash the
        # dataclass would compute.
        object.__setattr__(self, "_hash", hash((self.kind, self.k, self.n, self.m, self.g, self.x)))

    def __hash__(self) -> int:
        return self._hash

    def fields(self) -> dict:
        """The spec as named fields in header order: kind K N m g x.

        g is ``0x``-prefixed hex and x is None unless the code is
        systematic; :func:`format_fields` renders them as text.
        """
        return {"kind": self.kind, "K": self.k, "N": self.n, "m": self.m,
                "g": "0x" + self.g.to_hex(), "x": self.x}


def _sorted_indices(what: str, indices: Iterable[int], k: int, n: int) -> tuple[int, ...]:
    # The one rule for a set of packets that stands for the code: K
    # distinct 1-based indices in 1..N.
    idx = tuple(sorted(indices))
    if len(idx) != k or len(set(idx)) != k or idx[0] < 1 or idx[-1] > n:
        raise ValueError(f"{what} must be {k} distinct packet indices in 1..{n}, got {idx}")
    return idx


class Metrics(NamedTuple):
    """Per-code summary: worst and total column overhead, and XOR cost."""

    l_max: int
    l_sum: int
    alpha: int


def _column_overheads(masks: Sequence[Sequence[int]]) -> tuple[int, ...]:
    # Max entry degree of each column of a mask grid, 0 for a zero column.
    return tuple(max(w - 1, 0) for w in map(int.bit_length, map(max, zip(*masks))))


def _metrics(masks: Sequence[Sequence[int]]) -> Metrics:
    # GenMatrix.metrics of a mask grid.  Summed over columns,
    # max(T_j - 1, 0) is every term less one per nonzero column.
    over = _column_overheads(masks)
    alpha = sum(map(int.bit_count, chain.from_iterable(masks))) - sum(map(any, zip(*masks)))
    return Metrics(max(over), sum(over), alpha)


class GenMatrix:
    """A K x N generator matrix tied to its :class:`CodeSpec`.

    Stored as a grid of coefficient masks (``_masks``); ``entries`` wraps
    them as :class:`Poly2`.  Rows are sources, columns are encoded packets (packet indices are
    1-based at the API surface).  Instances are hashable so decoder
    kernels can be memoized per (matrix, survivor set).
    """

    __slots__ = ("spec", "_masks", "_overheads", "_metric_values", "_hash")

    def __init__(self, spec: CodeSpec, entries: Iterable[Iterable[PolyLike]]):
        # An int is its own mask; anything else goes through Poly2's checks.
        grid = tuple(tuple(e if type(e) is int else _as_poly(e).mask for e in row)
                     for row in entries)
        if _check_shape(grid) != (spec.k, spec.n):
            raise ValueError(f"entries must form a {spec.k}x{spec.n} grid")
        if min(map(min, grid)) < 0:
            raise ValueError("coefficient mask must be nonnegative")
        top = max(map(max, grid))  # the widest entry, as none is negative
        if spec.kind in ("sxor", "systematic") and top >> spec.m:
            bad = next(e for row in grid for e in row if e >> spec.m)
            raise ValueError(f"entry {Poly2(bad)} is not reduced modulo a degree-{spec.m} modulus")
        bits = top.bit_length()
        if spec.k * bits > MAX_KERNEL_BITS:
            raise ValueError(f"K={spec.k} times the largest entry's {bits} bits exceeds "
                             f"the kernel limit of {MAX_KERNEL_BITS}")
        self.spec = spec
        self._masks = grid
        self._overheads: tuple[int, ...] | None = None
        self._metric_values: Metrics | None = None
        self._hash: int | None = None

    @property
    def entries(self) -> tuple[tuple[Poly2, ...], ...]:
        """The entries as :class:`Poly2`; they are stored as masks."""
        return tuple(tuple(Poly2(e) for e in row) for row in self._masks)

    def column_overheads(self) -> tuple[int, ...]:
        """Extra bits per packet: max entry degree of each column, left to right."""
        if self._overheads is None:
            self._overheads = _column_overheads(self._masks)
        return self._overheads

    def metrics(self) -> Metrics:
        """(l_max, l_sum, alpha) for this matrix.

        alpha charges max(T_j - 1, 0) XORs to column j, where T_j is the
        column's total term count: combining T shifted streams takes T - 1
        XOR passes regardless of packet length.
        """
        if self._metric_values is None:
            self._metric_values = _metrics(self._masks)
        return self._metric_values

    def check_survivors(self, survivors: Iterable[int]) -> tuple[int, ...]:
        """The one survivor-set check: K distinct packet indices in 1..N.

        Returns them sorted; raises ValueError otherwise.
        """
        return _sorted_indices("survivors", survivors, self.spec.k, self.spec.n)

    def submatrix(self, survivors: Iterable[int]) -> PolyMatrix:
        """K x K matrix of the survivor columns (see :meth:`check_survivors`), sorted."""
        idx = self.check_survivors(survivors)
        return PolyMatrix._of([[row[j - 1] for j in idx] for row in self._masks])

    def check_suboptimal(self) -> tuple[bool, list[tuple[int, ...]]]:
        """MDS check: (True, []) when every K-subset of packets decodes.

        Returns (False, failing_subsets) otherwise, with each failing
        subset a sorted 1-based tuple whose submatrix determinant is
        zero, in ``combinations`` order.  Raises ValueError, before
        walking any subset, when the sum of C(N, j) for j = 1..K exceeds
        ``MAX_CHECK_SUBSETS``.  The walk, and how it runs in GF(2**m) and
        then in GF(2)[z], is :func:`sxor.analysis._check_suboptimal`,
        which loads on the first check.
        """
        from .analysis import _check_suboptimal

        return _check_suboptimal(self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, GenMatrix):
            return self.spec == other.spec and self._masks == other._masks
        return NotImplemented

    def __hash__(self) -> int:
        # Every kernel memo lookup hashes the matrix; the grid does not change.
        if self._hash is None:
            self._hash = hash((self.spec, self._masks))
        return self._hash

    def __repr__(self) -> str:
        return f"GenMatrix({self.spec.kind}, K={self.spec.k}, N={self.spec.n})"


def build_sxor(k: int, n: int, g: PolyLike) -> GenMatrix:
    """Vandermonde shift-and-XOR code: entry (i, j) = z**(i*j) mod g, 0-based.

    Requires K <= N <= 2**m - 1 for m = deg(g), g primitive.  Any K of the
    N packets suffice to decode (the submatrices are Vandermonde minors).
    Each entry is read from the field's table of z**e, e = i*j mod 2**m - 1;
    :func:`sxor.polymat.vandermonde` is the reference the tests check it against.
    """
    ctx = FieldCtx(g)
    spec = CodeSpec("sxor", k, n, ctx.m, ctx.g)
    exp = _zech_tables(ctx.g.mask, ctx.m)[0]
    return GenMatrix(spec, [[exp[i * j % ctx.order] for j in range(n)] for i in range(k)])


def build_systematic_sxor(k: int, n: int, g: PolyLike, x: Sequence[int]) -> GenMatrix:
    """Systematic variant: packets listed in x (1-based) carry the sources.

    The matrix is V_x**-1 * V, the Vandermonde matrix pre-multiplied by
    the inverse of its x columns, so the x columns of the result form the
    K x K identity and decodability of every K-subset is preserved.  It
    is built from its closed form (:func:`_systematic`), not by inverting.
    """
    ctx = FieldCtx(g)
    spec = CodeSpec("systematic", k, n, ctx.m, ctx.g, tuple(x))
    return GenMatrix(spec, _systematic(ctx.g.mask, ctx.m, n, spec.x))


def _systematic(g: int, m: int, n: int, x: Sequence[int]) -> list[list[int]]:
    """Mask rows of G = V_x**-1 * V, the one systematic construction.

    Column c of V is (1, a, a**2, ...) at the point a = z**c (0-based),
    so G[r][c] is the Lagrange basis polynomial of the point z**p_r over
    the points z**p_i, p_i = x_i - 1, evaluated at z**c:

        G[r][c] = prod_{i != r} (z**c + z**p_i) / (z**p_r + z**p_i).

    Column x_r is therefore the r-th unit column.  Every other entry is
    one exponent: each factor is log(z**a + z**b) = a + Z(b - a) by Zech's
    logarithm Z (:mod:`sxor.gf2m`), so an entry costs O(1) additions and
    table lookups and the matrix O(K*N), with no inverse and no matrix
    product; classify calls this once per class.  The modulus g of degree
    m must be primitive and x valid for N = n: the caller checks both.
    """
    exp, zech, _ = _zech_tables(g, m)
    order = len(exp)
    ps = [j - 1 for j in x]
    # logs[r][c] = log(z**c + z**p_r).  c - p_r lies strictly between
    # -order and order, and a negative index wraps to (c - p_r) mod order
    # as Z needs.  The entries at c = p_r stand for log 0: they cancel out
    # of den, and the x columns they spoil are overwritten as unit columns.
    logs = [[p + zech[c - p] for c in range(n)] for p in ps]
    totals = list(map(sum, zip(*logs)))
    # log G[r][c] = (totals[c] - logs[r][c]) - den[r], where the r-th
    # denominator is the numerator's sum taken at c = p_r.
    den = [totals[p] - row[p] for p, row in zip(ps, logs)]
    rows = [[exp[(t - lg - d) % order] for t, lg in zip(totals, row)]
            for row, d in zip(logs, den)]
    for r, row in enumerate(rows):
        for i, p in enumerate(ps):
            row[p] = int(i == r)
    return rows


def builtin_zd_k3() -> GenMatrix:
    """The fixed 3 x 6 zigzag-decodable code (monomial entries, overhead 1)."""
    return GenMatrix(CodeSpec("zd3", 3, 6), _ZD3_ROWS)


def matrix_for_spec(spec: CodeSpec) -> GenMatrix | None:
    """The generator matrix a spec names, or None for the user kind.

    Only a matrix file carries a user-kind code's entries; every other
    kind is rebuilt from the spec's parameters alone.
    """
    if spec.kind == "sxor":
        return build_sxor(spec.k, spec.n, spec.g)
    if spec.kind == "systematic":
        return build_systematic_sxor(spec.k, spec.n, spec.g, spec.x)
    if spec.kind == "zd3":
        return builtin_zd_k3()
    return None


def user_matrix(entries: Iterable[Iterable[PolyLike]], m: int = 0, g: PolyLike = 0) -> GenMatrix:
    """Wrap arbitrary entries as a user-kind matrix (no reduction enforced)."""
    grid = tuple(tuple(row) for row in entries)
    k, n = _check_shape(grid)
    spec = CodeSpec("user", k, n, m, _as_poly(g))
    return GenMatrix(spec, grid)


def format_fields(fields: dict) -> str:
    """``key=value`` text of named fields, such as :meth:`CodeSpec.fields`
    or a :class:`Metrics` as ``_asdict()``.

    A tuple is written comma-separated; a None value is left out.
    """
    return " ".join(f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
                    for key, v in fields.items() if v is not None)
