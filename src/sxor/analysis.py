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
therefore groups the tuples into shift orbits and builds one matrix per
orbit; matrices_equivalent, the exhaustive check, is the test oracle.

Reports render as JSON or a small markdown table; the comparison report
sets the three constructions side by side, quoting published reference
rows for the zigzag-decodable family whose matrices (heuristic searches
for K in {2,3,4}, a Hankel construction beyond) are out of scope here.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from itertools import combinations, permutations
from math import comb
from typing import Iterable, Sequence

from .codes import CodeSpec, GenMatrix, Metrics, build_sxor, build_systematic_sxor
from .gf2m import FieldCtx, PolyLike, _as_poly, default_modulus
from .gf2poly import Poly2

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
    "zd_max_overhead",
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
        return {
            "K": self.k,
            "N": self.n,
            "g": "0x" + self.g.to_hex(),
            "classes": [
                {
                    "rep": list(c.rep),
                    "size": c.size,
                    "l_max": c.metrics.l_max,
                    "l_sum": c.metrics.l_sum,
                    "alpha": c.metrics.alpha,
                }
                for c in self.classes
            ],
            "best": {
                "rep": list(self.best().rep),
                "l_max": self.best().metrics.l_max,
                "l_sum": self.best().metrics.l_sum,
                "alpha": self.best().metrics.alpha,
            },
        }


def enumerate_classes(k: int, n: int, g: PolyLike) -> ClassReport:
    """Group all C(N, K) systematic tuples into equivalence classes.

    When N = 2**m - 1 a class is the orbit of a tuple under cyclic
    shifts: G(x + s) is G(x) with its columns rotated and its rows
    reordered (module docstring), so members share the metrics of the
    class representative, which is the only matrix built.  Otherwise
    each sorted tuple stands alone.
    """
    ctx = FieldCtx(g)
    CodeSpec("systematic", k, n, ctx.m, ctx.g, tuple(range(1, k + 1)))  # validates (k, n, g)
    g = ctx.g
    shifts = range(1, n) if n == ctx.order else ()

    # The class representative is the colex-smallest member (largest
    # position compared first): the conventional choice for difference
    # sets, and the one that names classes by their tightest prefix.
    def canonical(t: tuple[int, ...]) -> tuple[int, ...]:
        orbit = [t] + [tuple(sorted(shift_sequence(t, s, n))) for s in shifts]
        return min(orbit, key=lambda u: u[::-1])

    sizes = Counter(canonical(t) for t in combinations(range(1, n + 1), k))
    classes = tuple(CodeClass(rep, sizes[rep], build_systematic_sxor(k, n, g, rep).metrics())
                    for rep in sorted(sizes))
    return ClassReport(k, n, g, classes, comb(n, k))


def best_systematic(k: int, n: int, g: PolyLike) -> tuple[tuple[int, ...], GenMatrix, Metrics]:
    """The best systematic position tuple for (K, N, g) and its matrix.

    "Best" minimizes total overhead, breaking ties by XOR count and then
    by the lexicographically smallest representative.
    """
    report = enumerate_classes(k, n, g)
    best = report.best()
    return best.rep, build_systematic_sxor(k, n, _as_poly(g), best.rep), best.metrics


def emit_report(reports: Iterable[ClassReport], fmt: str = "markdown") -> str:
    """Render class reports as ``"json"`` or ``"markdown"`` text."""
    reports = list(reports)
    if fmt == "json":
        return json.dumps({"reports": [r.to_json_dict() for r in reports]}, indent=2)
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")
    lines = ["# systematic code classes"]
    for r in reports:
        lines.append("")
        lines.append(f"## K={r.k} N={r.n} g=0x{r.g.to_hex()} ({r.total} tuples, {len(r.classes)} classes)")
        lines.append("")
        lines.append("| rep | size | l_max | l_sum | alpha |")
        lines.append("|---|---|---|---|---|")
        for c in r.classes:
            rep = ",".join(str(i) for i in c.rep)
            lines.append(f"| ({rep}) | {c.size} | {c.metrics.l_max} | {c.metrics.l_sum} | {c.metrics.alpha} |")
        b = r.best()
        rep = ",".join(str(i) for i in b.rep)
        lines.append("")
        lines.append(f"best: ({rep}) with l_max={b.metrics.l_max} l_sum={b.metrics.l_sum} alpha={b.metrics.alpha}")
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


def zd_max_overhead(k: int) -> int:
    """Published worst-case overhead for zigzag-decodable codes at N = 2K."""
    if k < 2:
        raise ValueError("zigzag-decodable reference values start at K = 2")
    return {2: 1, 3: 1, 4: 3}.get(k, k * (k - 1) // 2)


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


def emit_comparison(report: ComparisonReport, fmt: str = "markdown") -> str:
    """Render a comparison report as ``"json"`` or ``"markdown"`` text."""
    if fmt == "json":
        payload = {
            "N": report.n,
            "g": "0x" + report.g.to_hex(),
            "rows": [
                {
                    "K": r.k,
                    "sxor": r.sxor._asdict(),
                    "systematic": {**r.systematic._asdict(), "rep": list(r.systematic_rep)},
                    "zd_reference": r.zd_reference._asdict() if r.zd_reference else None,
                }
                for r in report.rows
            ],
            "notes": list(report.notes),
        }
        return json.dumps(payload, indent=2)
    if fmt != "markdown":
        raise ValueError(f"unknown format {fmt!r}")
    lines = [f"# construction comparison at N={report.n} g=0x{report.g.to_hex()}", ""]
    lines.append("| K | construction | l_max | l_sum | alpha |")
    lines.append("|---|---|---|---|---|")
    for r in report.rows:
        lines.append(f"| {r.k} | sxor | {r.sxor.l_max} | {r.sxor.l_sum} | {r.sxor.alpha} |")
        rep = ",".join(str(i) for i in r.systematic_rep)
        lines.append(f"| {r.k} | systematic ({rep}) | {r.systematic.l_max} "
                     f"| {r.systematic.l_sum} | {r.systematic.alpha} |")
        if r.zd_reference is not None:
            lines.append(f"| {r.k} | zigzag-decodable (reference) | {r.zd_reference.l_max} "
                         f"| {r.zd_reference.l_sum} | {r.zd_reference.alpha} |")
    for note in report.notes:
        lines.append("")
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"
