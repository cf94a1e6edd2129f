"""Code-family analysis: equivalence classes, best pick, report emission.

Two systematic codes are treated as equivalent when one generator matrix
can be turned into the other by permuting rows (relabelling sources) and
permuting columns (relabelling packets): both leave every decoding set,
overhead and XOR count unchanged.  Searching all C(N, K) systematic
position tuples therefore only needs one representative per class.

When N = 2**m - 1 the Vandermonde points are the whole multiplicative
group and z**N = 1, so rotating the columns of V by s gives D_s * V with
D_s = diag(z**(i*s)).  Hence G(x + s) = V_(x+s)**-1 * V is G(x) with its
columns rotated, and sorting x + s only reorders its rows: every cyclic
shift of a position tuple gives an equivalent code.  enumerate_classes
therefore groups the tuples into shift orbits and takes each orbit's
metrics from the mask rows of one member, built from the closed form of
V_x**-1 * V (codes._systematic), so it forms neither V nor an inverse
nor a GenMatrix; matrices_equivalent, the exhaustive check, is the test
oracle.

Each report has one JSON form, its ``to_json_dict()``, and one markdown
form, from emit_report or emit_comparison; the comparison report sets
the three constructions side by side, quoting published reference
rows for the zigzag-decodable family whose matrices (heuristic searches
for K in {2,3,4}, a Hankel construction beyond) are out of scope here.

The MDS check walk behind GenMatrix.check_suboptimal lives here too.
This module loads on first use: the root package serves its names
through PEP 562 ``__getattr__``, check_suboptimal imports it at its
first call, and the CLI only for analyze --compare, classify and check,
so ``sxor encode`` and ``sxor decode`` never compile it.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import lru_cache, partial, reduce
from itertools import chain, combinations, compress, count, permutations, repeat
from math import comb
from operator import add, mul, xor
from typing import Iterable, Iterator, Sequence

from .codes import (MAX_CHECK_SUBSETS, CodeSpec, GenMatrix, Metrics, _metrics, _systematic,
                    build_sxor, build_systematic_sxor, format_fields)
from .gf2m import FieldCtx, PolyLike, _as_poly, _zech_tables, default_modulus, is_primitive
from .gf2poly import Poly2, _divmod_masks

__all__ = [
    "CodeClass",
    "ClassReport",
    "matrices_equivalent",
    "shift_sequence",
    "enumerate_classes",
    "best_systematic",
    "emit_report",
    "comparison_report",
    "emit_comparison",
    "ZD_N7_REFERENCE",
]


def matrices_equivalent(a: GenMatrix, b: GenMatrix) -> bool:
    """True when b is a row- and column-permutation of a.

    Exhaustive over the K! row orders with column multiset comparison, so
    it is a ground-truth check rather than a heuristic; K is capped at 8
    to keep the factorial honest.
    """
    if a.spec.k != b.spec.k or a.spec.n != b.spec.n:
        raise ValueError("matrices must share dimensions")
    if a.spec.k > 8:
        raise ValueError("row-permutation search is factorial; K > 8 not supported")
    target = sorted(zip(*b._masks))
    cols = list(zip(*a._masks))
    for perm in permutations(range(a.spec.k)):
        if sorted(tuple(col[i] for i in perm) for col in cols) == target:
            return True
    return False


def shift_sequence(x: Sequence[int], shift: int, n: int) -> tuple[int, ...]:
    """Cyclically advance 1-based positions by ``shift`` on the 0-based exponents.

    Position j corresponds to evaluation point z**(j-1); adding ``shift``
    modulo N to the exponent gives ((j - 1 + shift) mod N) + 1.  Requires
    1 <= shift < N.
    """
    if not 1 <= shift < n:
        raise ValueError(f"shift must be in 1..{n - 1}")
    out = []
    for j in x:
        if not 1 <= j <= n:
            raise ValueError(f"position {j} outside 1..{n}")
        out.append((j - 1 + shift) % n + 1)
    return tuple(out)


@dataclass(frozen=True)
class CodeClass:
    """One equivalence class: colex-smallest member, orbit size, shared metrics."""

    rep: tuple[int, ...]
    size: int
    metrics: Metrics


@dataclass(frozen=True)
class ClassReport:
    """Equivalence classes of systematic position tuples for one (K, N, g)."""

    k: int
    n: int
    g: Poly2
    classes: tuple[CodeClass, ...]
    total: int

    def best(self) -> CodeClass:
        """Lowest total overhead, then lowest XOR count, then smallest rep."""
        return min(self.classes, key=lambda c: (c.metrics.l_sum, c.metrics.alpha, c.rep))

    def to_json_dict(self) -> dict:
        best = self.best()
        return {
            "K": self.k,
            "N": self.n,
            "g": "0x" + self.g.to_hex(),
            "classes": [{"rep": list(c.rep), "size": c.size, **c.metrics._asdict()}
                        for c in self.classes],
            "best": {"rep": list(best.rep), **best.metrics._asdict()},
        }


# Most tuples enumerate_classes walks: every N <= 15 fits.
MAX_CLASSIFY_TUPLES = 10_000

# Most work enumerate_classes does after the walk, counted as K*N per
# matrix it builds (each entry of the closed form is O(1)): 0.8 to 1.4 us
# a unit, so (29, 32) takes about 4 s and K = 1, N = 2236, the slowest
# input under the limit, about 6 s (README).
MAX_CLASSIFY_WORK = 5_000_000


def enumerate_classes(k: int, n: int, g: PolyLike) -> ClassReport:
    """Group all C(N, K) systematic tuples into equivalence classes.

    When N = 2**m - 1 a class is the orbit of a tuple under cyclic
    shifts: G(x + s) is G(x) with its columns rotated and its rows
    reordered (module docstring), so members share the metrics of the
    class representative, which is the only matrix built.  Otherwise
    each sorted tuple stands alone.  Raises ValueError, before walking
    any tuple, when C(N, K) exceeds ``MAX_CLASSIFY_TUPLES``, and before
    building any matrix when their number times K*N exceeds
    ``MAX_CLASSIFY_WORK``.
    """
    ctx = FieldCtx(g)
    CodeSpec("systematic", k, n, ctx.m, ctx.g, tuple(range(1, k + 1)))  # validates (k, n, g)
    if comb(n, k) > MAX_CLASSIFY_TUPLES:
        raise ValueError(f"C({n}, {k}) = {comb(n, k)} position tuples exceeds the "
                         f"classify limit of {MAX_CLASSIFY_TUPLES}")
    g = ctx.g
    shifts = range(1, n) if n == ctx.order else ()

    # Each orbit is walked once, from its first tuple in combinations
    # order.  The class representative is the colex-smallest member
    # (largest position compared first): the conventional choice for
    # difference sets, and the one that names classes by their tightest
    # prefix.  Rotating by s is shift_sequence(t, s, n) inlined: t is
    # valid already, and a rotation runs once per tuple.
    sizes, seen = {}, set()
    for t in combinations(range(1, n + 1), k):
        if t not in seen:
            orbit = {t, *(tuple(sorted((j + s - 1) % n + 1 for j in t)) for s in shifts)}
            seen |= orbit
            sizes[min(orbit, key=lambda u: u[::-1])] = len(orbit)
    work = len(sizes) * k * n
    if work > MAX_CLASSIFY_WORK:
        raise ValueError(f"building {len(sizes)} matrices at K={k}, N={n} costs {work} "
                         f"(matrices * K*N), over the classify limit of {MAX_CLASSIFY_WORK}")
    classes = tuple(CodeClass(rep, size, _metrics(_systematic(g.mask, ctx.m, n, rep)))
                    for rep, size in sorted(sizes.items()))
    return ClassReport(k, n, g, classes, comb(n, k))


def best_systematic(k: int, n: int, g: PolyLike) -> tuple[tuple[int, ...], GenMatrix, Metrics]:
    """The best systematic position tuple for (K, N, g) and its matrix.

    "Best" minimizes total overhead, breaking ties by XOR count and then
    by the lexicographically smallest representative.
    """
    report = enumerate_classes(k, n, g)
    best = report.best()
    return best.rep, build_systematic_sxor(k, n, _as_poly(g), best.rep), best.metrics


def _rep(t: tuple[int, ...]) -> str:
    return "(" + ",".join(map(str, t)) + ")"


def _table(header: Sequence[str], rows: Iterable[Sequence]) -> list[str]:
    # The lines of a markdown table: header, rule, one line per row.
    def line(cells):
        return "| " + " | ".join(map(str, cells)) + " |"
    return [line(header), "|" + "---|" * len(header), *map(line, rows)]


def emit_report(report: ClassReport) -> str:
    """Render a class report as a markdown table followed by its best class."""
    best = report.best()
    lines = ["# systematic code classes", "",
             f"## K={report.k} N={report.n} g=0x{report.g.to_hex()} "
             f"({report.total} tuples, {len(report.classes)} classes)", ""]
    lines += _table(("rep", "size", *Metrics._fields),
                    ((_rep(c.rep), c.size, *c.metrics) for c in report.classes))
    lines += ["", f"best: {_rep(best.rep)} with {format_fields(best.metrics._asdict())}"]
    return "\n".join(lines) + "\n"


# -- construction comparison -------------------------------------------------

# Published reference rows for zigzag-decodable codes (same N, any K of N
# recoverable).  Keyed by K; values are (l_max, l_sum, alpha) at N = 7.
# The matrices behind them come from heuristic searches (K in {2, 3, 4})
# or a Hankel construction (K >= 5) and are intentionally not implemented.
ZD_N7_REFERENCE: dict[int, Metrics] = {
    2: Metrics(3, 8, 5),
    3: Metrics(3, 8, 8),
    4: Metrics(3, 7, 9),
    5: Metrics(3, 6, 8),
    6: Metrics(3, 3, 5),
}

# Published totals for the Vandermonde construction at N = 7; kept so the
# comparison emitter can flag any disagreement with recomputed values.
_SXOR_N7_PUBLISHED_LSUM: dict[int, int] = {2: 10, 3: 11, 4: 12, 5: 12, 6: 12}


@dataclass(frozen=True)
class ComparisonRow:
    k: int
    sxor: Metrics
    systematic: Metrics
    systematic_rep: tuple[int, ...]
    zd_reference: Metrics | None


@dataclass(frozen=True)
class ComparisonReport:
    n: int
    g: Poly2
    rows: tuple[ComparisonRow, ...]
    notes: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "g": "0x" + self.g.to_hex(),
            "rows": [{"K": r.k,
                      "sxor": r.sxor._asdict(),
                      "systematic": {**r.systematic._asdict(), "rep": list(r.systematic_rep)},
                      "zd_reference": r.zd_reference._asdict() if r.zd_reference else None}
                     for r in self.rows],
            "notes": list(self.notes),
        }


def comparison_report(n: int = 7, ks: Sequence[int] = (2, 3, 4, 5, 6)) -> ComparisonReport:
    """Side-by-side metrics of the three constructions at one packet count.

    Everything for the Vandermonde constructions is recomputed from the
    matrices; the zigzag-decodable rows are the published reference values
    (N = 7 only).  A note is attached wherever a recomputed total differs
    from the published one.  Raises ValueError when no K in ``ks`` lies
    in 1..N, which includes an empty ``ks`` and any N < 1.
    """
    if not any(1 <= k <= n for k in ks):
        raise ValueError(f"comparison at N={n} needs some K in 1..N, got K in {tuple(ks)}")
    m = n.bit_length()
    g = default_modulus(m)
    rows = []
    notes = []
    for k in ks:
        sx = build_sxor(k, n, g).metrics()
        rep, _, sys_metrics = best_systematic(k, n, g)
        zd = ZD_N7_REFERENCE.get(k) if n == 7 else None
        rows.append(ComparisonRow(k, sx, sys_metrics, rep, zd))
        published = _SXOR_N7_PUBLISHED_LSUM.get(k) if n == 7 else None
        if published is not None and published != sx.l_sum:
            notes.append(
                f"K={k}: recomputed l_sum={sx.l_sum} from the column degrees; "
                f"commonly published comparison tables list {published}.")
    return ComparisonReport(n, g, tuple(rows), tuple(notes))


def emit_comparison(report: ComparisonReport) -> str:
    """Render a comparison report as a markdown table followed by its notes."""
    rows = []
    for r in report.rows:
        rows += [(r.k, "sxor", *r.sxor), (r.k, f"systematic {_rep(r.systematic_rep)}", *r.systematic)]
        if r.zd_reference is not None:
            rows.append((r.k, "zigzag-decodable (reference)", *r.zd_reference))
    lines = [f"# construction comparison at N={report.n} g=0x{report.g.to_hex()}", ""]
    lines += _table(("K", "construction", *Metrics._fields), rows)
    for note in report.notes:
        lines += ["", f"note: {note}"]
    return "\n".join(lines) + "\n"


# -- the MDS check walk ----------------------------------------------------


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


def _check_suboptimal(mat: GenMatrix) -> tuple[bool, list[tuple[int, ...]]]:
    """The walk behind :meth:`GenMatrix.check_suboptimal`, with its answer and limit.

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
    spec = mat.spec
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
        logs = [[log[_divmod_masks(e, g)[1] if e >> m else e] for e in row] for row in mat._masks]
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
    rows = [list(row) for row in mat._masks]
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
