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
line per row) that round-trips spec and entries losslessly.
"""

from __future__ import annotations

import io
import os
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Sequence, Union

from array import array
from bisect import bisect_right
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress, count, repeat
from math import comb
from operator import add, mul, xor

from .gf2m import FieldCtx, PolyLike, _as_poly, _zech_tables, is_primitive
from .gf2poly import Poly2, _divmod_masks
from .polymat import PolyMatrix, _check_shape

__all__ = [
    "CodeSpec",
    "GenMatrix",
    "Metrics",
    "MatrixFormatError",
    "build_sxor",
    "build_systematic_sxor",
    "builtin_zd_k3",
    "matrix_for_spec",
    "user_matrix",
    "format_fields",
    "format_matrix",
    "parse_fields",
    "parse_matrix",
    "save_matrix",
    "load_matrix",
]

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


class MatrixFormatError(ValueError):
    """Malformed matrix text; carries 1-based line and field positions."""

    def __init__(self, message: str, line: int, col: int = 0):
        super().__init__(f"line {line}" + (f", field {col}" if col else "") + f": {message}")
        self.line = line
        self.col = col


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


def _unit_columns(rows: list[list[int]]) -> dict[int, int]:
    """The pivot step of :meth:`GenMatrix.check_suboptimal`'s walk over
    GF(2)[z], on a mask grid it changes in place; returns {row: column}
    of the first unit column, one with one nonzero entry, that each held
    row has.  (The field walk pivots with :func:`_field_pivots`.)

    While some column's nonzero entries are all 1 and one of them lies
    in a row that no unit column holds, that row is added to the other
    rows where the column has a 1, which makes it a unit column.  Adding
    a row to another leaves every K-subset's determinant as it was and
    makes no entry wider, and the row added is zero in every unit column,
    so those stay unit columns.  An sxor code's all-ones column 0 becomes
    one; a systematic code's unit columns already hold every row.
    """
    while True:
        nonzero = [[r for r, row in enumerate(rows) if row[c]] for c in range(len(rows[0]))]
        units = {}
        for c, rs in enumerate(nonzero):
            if len(rs) == 1:
                units.setdefault(rs[0], c)
        pivot = next(((c, p) for c, rs in enumerate(nonzero) if all(rows[r][c] == 1 for r in rs)
                      for p in rs if p not in units), None)
        if pivot is None:
            return units
        c, p = pivot
        for r in nonzero[c]:
            if r != p:
                rows[r] = [a ^ b for a, b in zip(rows[r], rows[p])]


def _field_pivots(rows: list[list[int]], exp: list[int], log: list[int]) -> dict[int, int] | None:
    """Gauss-Jordan elimination over GF(2**m) on a grid of discrete logs
    (:func:`_walk_tables`), in place: the field walk's pivot step.

    Each row in turn takes its first nonzero column as its pivot and is
    scaled so the pivot is 1; each other row nonzero in that column then
    has the row, times that entry, added to it.  Returns {row: pivot
    column}, a unit column for every row.  Row operations multiply every
    K-subset's determinant by one nonzero constant, so they leave each
    zero or not.  Returns None, with the grid part reduced, when some row
    becomes zero: the field rank is below K and every minor is zero.
    """
    zero = log[0]
    units = {}
    for p, row in enumerate(rows):
        c = next((c for c, lg in enumerate(row) if lg != zero), None)
        if c is None:
            return None
        inv = -row[c] % (zero // 2)
        rows[p] = row = [log[exp[lg + inv]] for lg in row]
        for r, other in enumerate(rows):
            lead = other[c]
            if r != p and lead != zero:
                rows[r] = [log[exp[a] ^ exp[lead + b]] for a, b in zip(other, row)]
        units[p] = c
    return units


def _lane_tables(m: int, s: int, idx: list, col: list, lazy: bool = False) -> tuple[list, list]:
    """The index tables of level s of :func:`_zero_minors`, built from
    those of level s - 1 (``idx`` and ``col``, empty at level 0).

    A level's lanes are the s-subsets of m columns in colex order.  For
    each position p < s, ``idx[p]`` holds per lane the lane of level
    s - 1 that the subset less its p-th column is, and ``col[p]`` that
    column.  The subsets whose largest column is c are one block, those
    of level s - 1 below c with c added: C(c, s - 1) lanes.  So per
    block a table is the first C(c, s - 1) entries of the one below,
    offset by C(c, s - 1) in ``idx``; at the last position it is those
    lanes in order and c.  A table is bytes when its entries fit one,
    else a 32-bit array; ``lazy`` gives one-shot iterators instead,
    which store nothing.
    """
    blocks = [comb(c, s - 1) for c in range(s - 1, m)]
    cuts = [slice(size) for size in blocks]
    lanes = comb(m, s - 1)

    def pack(parts, bound):
        parts = chain.from_iterable(parts)
        return parts if lazy else bytes(parts) if bound <= 256 else array("I", parts)

    return ([pack(map(map, [size.__add__ for size in blocks], map(t.__getitem__, cuts)), lanes)
             for t in idx] + [pack(map(range, blocks), lanes)],
            [pack(map(t.__getitem__, cuts), m) for t in col]
            + [pack(map(repeat, range(s - 1, m), blocks), m)])


def _colex(lane: int, s: int, ranks: list[list[int]]) -> list[int]:
    # The columns of lane ``lane`` of an s-subset level, largest first, in
    # the combinatorial number system: a lane is the sum of C(c, t) over
    # its t-th smallest column c, and ranks[t][c] = C(c, t).
    cols, c = [], len(ranks[0])
    for t in range(s, 0, -1):
        c = bisect_right(ranks[t], lane, 0, c) - 1
        lane -= ranks[t][c]
        cols.append(c)
    return cols


def _zero_minors(rows: list[list[int]], units: dict[int, int], n: int, combine, one,
                 zero: int) -> Iterator[list[int]]:
    """The level walk of :meth:`GenMatrix.check_suboptimal`: yields, as a
    sorted list of 0-based columns, each K-subset whose minor on the rows
    its unit columns leave is ``zero``, as the minors are computed.

    ``rows`` and ``units`` are as :func:`_unit_columns` or
    :func:`_field_pivots` leaves them, with the entries in the form the
    kernel ``combine`` reads (:func:`_exact_minors`, :func:`_field_minors`
    or :func:`_byte_minors`), and ``one`` is level 0: the empty minor's
    value alone in the kernel's lane type, list or bytes.
    """
    k = len(rows)
    held = sorted(units)
    free = [r for r in range(k) if r not in units]
    others = [c for c in range(n) if c not in units.values()]
    rows = [[row[c] for c in others] for row in rows]
    f, m = len(free), len(others)
    # Level s holds the minors on s rows, one vector per row set with a
    # lane per s-subset of the other columns (_lane_tables).  A minor
    # comes from those one row and one column smaller by expansion along
    # its first row (signs vanish over GF(2)): per position p of the
    # subset, the kernel gathers the minors of the row set less that row
    # through idx[p] and the row's entries through col[p].  Levels up to
    # len(free) hold the last s free rows; each level above adds one held
    # row, first, so its vectors are keyed by the bit set (over held) of
    # the held rows they span.  The minors of K-subsets are those on every
    # free row.  No level reads the top level or the minors on the first
    # held row, so those are checked as computed, never stored, and the
    # top level's tables and vectors stay lazy.
    top = f + min(len(held), m - f)
    level, idx, col = {0: one}, [], []
    for s in range(1, top + 1):
        last = s == top
        if not last:
            idx, col = _lane_tables(m, s, idx, col)
        sets = [(free[-s], 0, 0)] if s <= f else [
            (held[i], 1 << i, sum(rest)) for i in range(len(held))
            for rest in combinations([1 << j for j in range(i + 1, len(held))], s - f - 1)]
        kept = {}
        for r, bit, rest in sets:
            vec = combine(rows[r], level[rest], *(_lane_tables(m, s, idx, col, True) if last
                                                  else (idx, col)))
            if not last:
                vec = type(one)(vec)
                if bit != 1:
                    kept[bit | rest] = vec
            if s >= f and (last or zero in vec):
                ranks = None
                for lane in compress(count(), map(zero.__eq__, vec)):
                    ranks = ranks or [[comb(c, t) for c in range(m)] for t in range(s + 1)]
                    yield sorted([others[c] for c in _colex(lane, s, ranks)] + [
                        units[h] for j, h in enumerate(held) if not (bit | rest) >> j & 1])
        level = kept


def _exact_minors(parity, row, parent, idx, col):
    # The walk's kernel over GF(2)[z]: one row set's minors, lazily, with
    # entries and minors spread (check_suboptimal), so each product is
    # one int multiplication and the parity mask ends the sum mod 2.
    return map(parity.__and__, reduce(partial(map, add), (
        map(mul, map(row.__getitem__, cp), map(parent.__getitem__, ip))
        for ip, cp in zip(idx, col))))


def _field_minors(exp, log, row, parent, idx, col):
    # The kernel over GF(2**m) in list lanes, entries and minors held as
    # discrete logs (_walk_tables): each product is an addition and a
    # lookup.
    return map(log.__getitem__, reduce(partial(map, xor), (
        map(exp.__getitem__, map(add, map(row.__getitem__, cp), map(parent.__getitem__, ip)))
        for ip, cp in zip(idx, col))))


def _byte_minors(exp, log, row, parent, idx, col):
    # _field_minors in byte lanes, m <= 6: a vector is bytes, one log per
    # lane.  Gathers are translates when the table is bytes; two logs sum
    # to at most 4 * (2**m - 1) < 256, so one big-int addition adds every
    # lane at once, and translates through exp and log close each step.
    page = parent.ljust(256, b"\0") if len(parent) <= 256 else list(parent)  # lists index faster
    ents = bytes(row).ljust(256, b"\0")
    acc = 0
    for ip, cp in zip(idx, col):
        src = ip.translate(page) if type(ip) is bytes else bytes(map(page.__getitem__, ip))
        ent = cp.translate(ents) if type(cp) is bytes else bytes(map(row.__getitem__, cp))
        acc ^= int.from_bytes((int.from_bytes(src, "little") + int.from_bytes(ent, "little"))
                              .to_bytes(len(src), "little").translate(exp), "little")
    return acc.to_bytes(len(src), "little").translate(log)


@lru_cache(maxsize=4)
def _walk_tables(g: int, m: int) -> tuple[Sequence[int], Sequence[int]]:
    # (exp, log) for the field walk in the field of the primitive modulus
    # g of degree m, built on the first check there.  log[v] is log_z(v),
    # and log[0] is the zero log 2 * (2**m - 1); exp[i] is z**i for every
    # sum of two logs, and 0 for every sum holding the zero log.  Up to
    # m = 6 they are 256 bytes each, the translate tables of
    # _byte_minors; above, lists (6.5 MiB at m = 16, built in about
    # 11 ms), hence the small cache.
    exp, _, log = _zech_tables(g, m)
    zero = 2 * len(exp)
    exp, log = list(exp) * 2 + [0] * (zero + 1), [zero, *log[1:]]
    return (bytes(exp).ljust(256, b"\0"), bytes(log).ljust(256, b"\0")) if m <= 6 else (exp, log)


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
        ``MAX_CHECK_SUBSETS``.

        Each walk first makes unit columns (one nonzero entry) by row
        operations, which leave every K-subset's determinant zero or not,
        and keeps one unit column of each row it holds.  A K-subset's
        determinant is then the product of its kept unit entries times
        the minor of its other columns on the rows those leave.  Another
        unit column on a held row is one of the other columns: in a
        subset that keeps the row's unit column it is zero on every row
        of the minor, so the minor is zero, as the determinant is.  Only
        those minors are computed, level by level by first-row
        expansion, taking the held rows first (:func:`_zero_minors`).
        Each level is one vector per row set, a lane per column subset,
        and each expansion position adds one pass of C-level operations
        over it, not a Python step per minor.  When unit columns hold
        every row the walk has C(N, K) - 1 minors, each a product per
        column that is not a unit column; with no unit column it covers
        every j-subset of columns, j = 1..K, with a product per column.

        When the spec's g is primitive of degree m <= 16, as for every
        sxor and systematic code, the walk runs first over GF(2**m), on
        the entries reduced mod g and held as discrete logs.  There
        Gauss-Jordan elimination (:func:`_field_pivots`) gives every row
        a unit column, [I | P] up to column order, so the walk has
        C(N, K) - 1 minors: those of P.  When K > N - K it walks those of
        P's transpose instead, the dual code [P^T | I], which is MDS
        exactly when this one is: fewer row sets, longer lanes.  For
        m <= 6 lanes are bytes and a product pass is a few translates and
        one big-int addition (:func:`_byte_minors`); above, lists
        (:func:`_field_minors`).  Reduction mod g is a ring
        homomorphism, so a K-subset's determinant nonzero there is
        nonzero in GF(2)[z]: if no minor is zero the code is MDS.  A
        constructed code is Vandermonde, or V_x**-1 * V, over GF(2**m)
        and always passes there.  At the first zero, when the field rank
        is below K, or with no field, the walk runs over GF(2)[z] on the
        unit columns that row additions make (:func:`_unit_columns`,
        :func:`_exact_minors`) and gives the answer, so a matrix that is
        MDS only in GF(2)[z] costs at most both walks.
        """
        spec = self.spec
        k, n = spec.k, spec.n
        if k > n:
            raise ValueError("more sources than packets can never be MDS")
        subsets = sum(comb(n, j) for j in range(1, k + 1))
        if subsets > MAX_CHECK_SUBSETS:
            raise ValueError(f"checking K={k} of N={n} walks {subsets} column subsets, "
                             f"over the check limit of {MAX_CHECK_SUBSETS}")
        g, m = spec.g.mask, spec.m
        # CodeSpec has checked the field of every sxor and systematic spec.
        if spec.kind in ("sxor", "systematic") or 1 <= m <= 16 and is_primitive(g, m):
            exp, log = _walk_tables(g, m)
            # Only a user matrix's entries can reach z**m and need reducing.
            logs = [[log[_divmod_masks(e, g)[1] if e >> m else e] for e in row] for row in self._masks]
            units = _field_pivots(logs, exp, log)
            if units is not None and 2 * k > n:  # walk the dual code [P^T | I] instead
                logs = [[row[c] for row in logs] for c in range(n) if c not in units.values()]
                units = {r: k + r for r in range(n - k)}
            kernel, one = (_byte_minors, b"\0") if type(exp) is bytes else (_field_minors, [0])
            # The field walk stops at its first zero minor and is dropped,
            # with its levels, before the GF(2)[z] walk starts.
            if units is not None and next(_zero_minors(
                    logs, units, n, partial(kernel, exp, log), one, log[0]), None) is None:
                return True, []
        rows = [list(row) for row in self._masks]
        units = _unit_columns(rows)
        # Spread entries: coefficient t of a polynomial fills hex digits
        # d*t to d*t + d - 1.  A minor has degree below K * w, w the widest
        # entry's bits, and each coefficient sums at most K * w terms
        # before the kernel's parity mask, fewer than d digits hold, so
        # int multiplication and addition never carry between them.
        slots = k * max(map(max, rows)).bit_length() + 1
        d = slots.bit_length() // 4 + 1
        spread = {ord("0"): "0" * d, ord("1"): "0" * (d - 1) + "1"}
        rows = [[int(format(e, "b").translate(spread), 16) for e in row] for row in rows]
        parity = int(spread[ord("1")] * slots, 16)  # the low bit of each coefficient
        failing = sorted(_zero_minors(rows, units, n, partial(_exact_minors, parity), [1], 0))
        return (not failing, [tuple(c + 1 for c in sub) for sub in failing])

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


# -- text serialization ----------------------------------------------------
#
# Header:  sxorgen v1 kind=<kind> K=<int> N=<int> m=<int> g=<hex> [x=<i,j,...>]
# Body:    K lines, each N comma-separated bare hex masks (LSB = constant).
# Fields after "sxorgen v1" may appear in any order; whitespace between
# fields is free-form.  x appears exactly when kind=systematic.

# Most characters load_matrix reads of a matrix header, one line of
# format_fields text, before K and N are known.  The longest header can
# be, at K = 32 with a 32-bit g and 32 five-digit x positions, is under
# 300.
_FIELDS_LIMIT = 1024


def format_fields(fields: dict) -> str:
    """``key=value`` text of named fields, such as :meth:`CodeSpec.fields`
    or a :class:`Metrics` as ``_asdict()``.

    A tuple is written comma-separated; a None value is left out.
    """
    return " ".join(f"{key}={','.join(map(str, v)) if isinstance(v, tuple) else v}"
                    for key, v in fields.items() if v is not None)


def format_matrix(mat: GenMatrix) -> str:
    lines = ["sxorgen v1 " + format_fields(mat.spec.fields())]
    for row in mat._masks:
        lines.append(",".join(format(e, "x") for e in row))
    return "\n".join(lines) + "\n"


def parse_fields(words: Iterable[str], extra: Sequence[str] = (),
                 first: int = 1) -> tuple[CodeSpec, dict[str, str]]:
    """The reader of :func:`format_fields`: the spec the ``key=value``
    words name, and the raw values of the ``extra`` fields present.

    kind, K, N, m and g are required, x and the extra fields optional,
    each at most once.  K, N and m are decimal, g hex and x a comma list.
    Raises :class:`MatrixFormatError` at line 1, counting the words as
    fields from ``first``.
    """
    seen: dict[str, str] = {}
    for pos, word in enumerate(words, start=first):
        key, sep, value = word.partition("=")
        if not sep:
            raise MatrixFormatError(f"expected key=value, got {word!r}", 1, pos)
        if key in seen:
            raise MatrixFormatError(f"repeated field {key!r}", 1, pos)
        seen[key] = value
    for required in ("kind", "K", "N", "m", "g"):
        if required not in seen:
            raise MatrixFormatError(f"missing field {required!r}", 1)
    unknown = set(seen) - {"kind", "K", "N", "m", "g", "x", *extra}
    if unknown:
        raise MatrixFormatError(f"unknown fields {sorted(unknown)}", 1)
    try:
        k, n, m = (int(seen[key], 10) for key in ("K", "N", "m"))
        x = tuple(int(part, 10) for part in seen["x"].split(",")) if "x" in seen else None
    except ValueError:
        raise MatrixFormatError("K, N and m must be decimal integers, and x a comma list "
                                "of them", 1) from None
    try:
        spec = CodeSpec(seen["kind"], k, n, m, Poly2.from_hex(seen["g"]), x)
    except ValueError as exc:
        raise MatrixFormatError(str(exc), 1) from None
    return spec, {key: seen[key] for key in extra if key in seen}


def parse_matrix(text: str) -> GenMatrix:
    lines = text.splitlines()
    return _matrix_rows(_matrix_spec(lines[0] if lines else ""), iter(lines[1:]))


def _ascii_line(line: str, lineno: int) -> str:
    # load_matrix reads a file as ASCII with surrogateescape, so a byte b
    # over 0x7f arrives as chr(0xDC00 + b): name it and its line.
    if not line.isascii():
        for col, ch in enumerate(line, start=1):
            if "\udc80" <= ch <= "\udcff":
                raise MatrixFormatError(f"non-ASCII byte {ord(ch) - 0xDC00:#04x} "
                                        f"at column {col}", lineno)
    return line


def _matrix_spec(header: str) -> CodeSpec:
    header = _ascii_line(header, 1)
    if not header.strip():
        raise MatrixFormatError("missing header", 1)
    fields = header.split()
    if fields[:2] != ["sxorgen", "v1"]:
        raise MatrixFormatError("expected 'sxorgen v1' header", 1, 1)
    return parse_fields(fields[2:], first=3)[0]


def _matrix_rows(spec: CodeSpec, lines: Iterable[str]) -> GenMatrix:
    # The entry rows after the header line; reads lines up to the one
    # holding row K + 1, or to the end.
    k, n = spec.k, spec.n
    body = []
    lineno = 1
    for lineno, line in enumerate(lines, start=2):
        if _ascii_line(line, lineno).strip():
            if len(body) == k:
                raise MatrixFormatError(f"expected {k} entry rows, found more", lineno)
            body.append((lineno, line))
    if len(body) != k:
        raise MatrixFormatError(f"expected {k} entry rows, found {len(body)}", lineno + 1)
    grid = []
    for lineno, line in body:
        parts = line.split(",")
        if len(parts) != n:
            raise MatrixFormatError(f"expected {n} entries, found {len(parts)}", lineno)
        row = []
        for col, part in enumerate(parts, start=1):
            try:
                row.append(Poly2.from_hex(part))
            except ValueError as exc:
                raise MatrixFormatError(str(exc), lineno, col) from None
        grid.append(row)
    try:
        mat = GenMatrix(spec, grid)
    except ValueError as exc:
        raise MatrixFormatError(str(exc), 2) from None
    # A file claiming a constructed kind must actually contain that
    # construction; otherwise decoders would trust a wrong label.
    expected = matrix_for_spec(spec)
    if expected is not None and mat._masks != expected._masks:
        raise MatrixFormatError(f"entries do not match the declared {spec.kind} construction", 2)
    return mat


PathOrFile = Union[str, os.PathLike, io.TextIOBase]


def save_matrix(mat: GenMatrix, dest: PathOrFile) -> None:
    """Write the text form to a path or text file object."""
    text = format_matrix(mat)
    if hasattr(dest, "write"):
        dest.write(text)
    else:
        with open(dest, "w", encoding="ascii") as fh:
            fh.write(text)


def _rows_limit(k: int, n: int) -> int:
    # Most characters the entry rows of a valid K x N matrix file take:
    # per entry, "0x" and the hex digits of MAX_KERNEL_BITS // K bits,
    # then a comma or a line end, plus one for a CR or a blank line.
    return k * n * (-(-(MAX_KERNEL_BITS // k) // 4) + 4)


def load_matrix(src: PathOrFile) -> GenMatrix:
    """Read the text form from a path or text file object.

    Reads the header line first, at most 1024 characters of it.  A file
    whose rows hold more characters than a valid K x N matrix can take
    (``_rows_limit``) is refused once that many are read, as is one with
    a row past the K-th, so a malformed file costs bounded time and
    memory.  The budget allows each entry two characters beyond the
    widest one :func:`save_matrix` writes; within it, the result is that
    of :func:`parse_matrix` on the whole text, but a file padded further
    (leading zeros, spaces, blank lines) is refused here.
    """
    if not hasattr(src, "read"):
        with open(src, "r", encoding="ascii", errors="surrogateescape") as fh:
            return load_matrix(fh)
    first = src.readline(_FIELDS_LIMIT + 1)
    if len(first) > _FIELDS_LIMIT:
        raise MatrixFormatError(f"header is longer than {_FIELDS_LIMIT} characters", 1)
    # Lines as parse_matrix's splitlines() cuts them, which also ends a
    # line at characters readline() reads through, such as \x1c.
    header, *rest = first.splitlines() or [""]
    spec = _matrix_spec(header)
    limit = _rows_limit(spec.k, spec.n)

    def lines():
        yield from rest
        left = limit
        while line := src.readline(left + 1):
            left -= len(line)
            if left < 0:
                raise MatrixFormatError(f"the rows hold more than {limit} characters, "
                                        f"the most that K={spec.k} N={spec.n} entries take", 2)
            yield from line.splitlines()

    return _matrix_rows(spec, lines())
