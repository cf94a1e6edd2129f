"""Property tests for GF(2)[z] matrices: determinant and adjugate, content
reduction, generator metrics and the MDS check.

The oracles read the entries one Poly2 at a time, so they share no code
with the mask-grid readers they check.
"""

import random
from functools import cache, partial, reduce
from itertools import combinations
from math import comb
from operator import xor

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, settings, strategies as st

from sxor import analysis, default_modulus
from sxor.codes import (build_sxor, build_systematic_sxor, format_matrix, parse_matrix,
                        user_matrix)
from sxor.gf2poly import Poly2, _gcd_masks
from sxor.polymat import PolyMatrix, cancel_common_factor

# Fixed examples, no deadline and no example database, so the suite stays
# short and leaves no .hypothesis/ directory behind.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)


@st.composite
def square_poly_matrices(draw):
    n = draw(st.integers(1, 5))
    cell = st.integers(0, 15)
    return PolyMatrix(draw(st.lists(st.lists(cell, min_size=n, max_size=n), min_size=n, max_size=n)))


def det_by_minors(rows):
    # Laplace expansion along the first row; signs vanish over GF(2).
    if not rows:
        return Poly2(1)
    total = Poly2(0)
    for j, e in enumerate(rows[0]):
        if e:
            total = total + e * det_by_minors([r[:j] + r[j + 1:] for r in rows[1:]])
    return total


@st.composite
def square_grids(draw):
    # Half the draws repeat a row, so A is singular while adj(A) is
    # usually not zero; A @ adj = 0 alone would also accept adj = 0.
    n = draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.integers(0, 15), min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        src = draw(st.integers(0, n - 1))
        grid[(src + draw(st.integers(1, n - 1))) % n] = list(grid[src])
    return grid


@PROPERTY
@given(square_grids())
def test_det_adjugate_matches_minor_expansion(grid):
    a = PolyMatrix(grid)
    rows = [[Poly2(e) for e in row] for row in grid]
    n = len(rows)
    det, adj = a.det_adjugate()
    assert det == a.determinant() == det_by_minors(rows)

    def minor(r, c):
        return det_by_minors([row[:c] + row[c + 1:] for i, row in enumerate(rows) if i != r])

    assert adj.entries == tuple(tuple(minor(r, c) for r in range(n)) for c in range(n))


@PROPERTY
@given(square_poly_matrices())
def test_cancel_common_factor_keeps_the_adjugate_identity(a):
    det, adj = a.det_adjugate()
    if not det:
        with pytest.raises(ValueError):
            cancel_common_factor(det, adj)
        return
    det2, adj2 = cancel_common_factor(det, adj)
    assert a @ adj2 == PolyMatrix.identity(a.rows).scale(det2)
    assert reduce(_gcd_masks, (e.mask for row in adj2.entries for e in row), det2.mask) == 1
    assert adj.scale(det2) == adj2.scale(det)


@st.composite
def user_grids(draw):
    k = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    grid = draw(st.lists(st.lists(st.integers(0, 255), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    for j in draw(st.sets(st.integers(0, n - 1))):  # all-zero columns
        for row in grid:
            row[j] = 0
    return grid


@PROPERTY
@given(user_grids())
def test_user_matrix_metrics_and_round_trips(grid):
    mat = user_matrix(grid)
    cols = [[Poly2(row[j]) for row in grid] for j in range(len(grid[0]))]
    over = tuple(max((e.degree() for e in col if e), default=0) for col in cols)
    alpha = sum(max(sum(e.mask.bit_count() for e in col) - 1, 0) for col in cols)
    assert mat.column_overheads() == over
    assert tuple(mat.metrics()) == (max(over), sum(over), alpha)

    again = user_matrix(mat.entries)
    assert again == mat and hash(again) == hash(mat)
    assert parse_matrix(format_matrix(mat)) == mat


@st.composite
def check_grids(draw):
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 8))
    grid = draw(st.lists(st.lists(st.integers(0, 15), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2)):  # repeated columns fail every subset holding both
        for row in grid:
            row[dst] = row[src]
    return grid


def check_by_minors(grid, g=None):
    # Every K-subset's determinant by Laplace expansion along the first
    # row, as det_by_minors, but each minor (a column tuple on the last
    # rows) is expanded once, so a failing example shrinks in seconds.
    # With a modulus g each determinant is read mod g, as in GF(2^m).
    k, n = len(grid), len(grid[0])
    rows = [[Poly2(e) for e in row] for row in grid]

    @cache
    def det(cols):
        if not cols:
            return Poly2(1)
        row = rows[k - len(cols)]
        total = Poly2(0)
        for i, c in enumerate(cols):
            if row[c]:
                total = total + row[c] * det(cols[:i] + cols[i + 1:])
        return total

    failing = [tuple(j + 1 for j in sub) for sub in combinations(range(n), k)
               if not (divmod(det(sub), g)[1] if g else det(sub))]
    return (not failing, failing)


@PROPERTY
@given(check_grids())
@example([[15, 15, 13, 15, 14, 15, 15],
          [13, 7, 14, 7, 15, 11, 11],
          [7, 15, 14, 13, 11, 11, 14],
          [7, 7, 15, 13, 15, 13, 14],
          [11, 15, 15, 13, 13, 15, 14]])  # a spread coefficient sums past 15 terms
def test_check_suboptimal_matches_minor_expansion(grid):
    assert user_matrix(grid).check_suboptimal() == check_by_minors(grid)


@st.composite
def unit_column_grids(draw):
    # Columns for each part of the walk: unit columns e_i * z^t, on rows
    # drawn from a set that may leave rows unheld and often puts two on
    # one row; columns of 0s and 1s, which the pivot step can turn into
    # unit columns; zero columns; and columns of any entries.
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 8))
    held = sorted(draw(st.sets(st.integers(0, k - 1), min_size=1)))
    grid = [[0] * n for _ in range(k)]
    for c in range(n):
        kind = draw(st.sampled_from(["unit", "ones", "zero", "any"]))
        if kind == "unit":
            grid[draw(st.sampled_from(held))][c] = 1 << draw(st.integers(0, 3))
        elif kind != "zero":
            top = 1 if kind == "ones" else 15
            for row in grid:
                row[c] = draw(st.integers(0, top))
    return grid


@PROPERTY
@given(unit_column_grids())
@example([[1, 0, 0, 1, 1, 1],
          [0, 1, 0, 1, 1, 2],
          [0, 0, 1, 1, 2, 3]])  # systematic-shaped [I | P], P with singular minors
@example([[1, 1, 0],
          [0, 0, 1]])  # two unit columns on row 1
def test_check_suboptimal_of_unit_columns_matches_minor_expansion(grid):
    assert user_matrix(grid).check_suboptimal() == check_by_minors(grid)


@st.composite
def field_grids(draw):
    # Grids checked in GF(8), g = z^3 + z + 1: entries up to 15 are often
    # wider than m = 3, and some vanish mod g, as does a planted unit
    # column's entry 0xb; repeated columns fail every subset holding both.
    k = draw(st.integers(1, 5))
    n = draw(st.integers(k, 8))
    grid = draw(st.lists(st.lists(st.integers(0, 15), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    for c in draw(st.sets(st.integers(0, n - 1), max_size=3)):  # planted unit columns
        for row in grid:
            row[c] = 0
        grid[draw(st.integers(0, k - 1))][c] = draw(st.sampled_from([1, 2, 8, 0xb]))
    for dst, src in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                                  max_size=2)):
        for row in grid:
            row[dst] = row[src]
    return grid


@PROPERTY
@given(field_grids())
@example([[2, 1],
          [3, 4]])  # det = g: zero in GF(8), so the answer comes from GF(2)[z]
@example([[0xb, 1],
          [0, 0xb]])  # field rank 1, det = g^2 in GF(2)[z]
def test_check_suboptimal_in_a_field_matches_minor_expansion(grid):
    assert user_matrix(grid, 3, 0xb).check_suboptimal() == check_by_minors(grid)


@st.composite
def field_rank_grids(draw):
    # field_grids, often with one row made zero mod g, or equal mod g to
    # another row or to the sum of two, so the field rank falls below K.
    grid = draw(field_grids())
    k, n = len(grid), len(grid[0])
    dst = draw(st.integers(0, k - 1))
    srcs = draw(st.lists(st.sampled_from([r for r in range(k) if r != dst] or [dst]),
                         max_size=2, unique=True))
    if dst not in srcs and draw(st.booleans()):
        grid[dst] = [0] * n
        for src in srcs:
            grid[dst] = [a ^ b for a, b in zip(grid[dst], grid[src])]
        grid[dst] = [e ^ draw(st.sampled_from([0, 0xb])) for e in grid[dst]]
    return grid


@PROPERTY
@given(field_rank_grids())
@example([[0xb, 1],
          [0, 0xb]])  # field rank 1
def test_field_pivots_keep_each_minor_zero_or_not(grid):
    # Gauss-Jordan elimination in GF(8) on the log grid: every K-subset's
    # determinant is zero there after it exactly when it was before, and
    # it reports rank < K (None) exactly when every K-subset's is zero.
    k, n = len(grid), len(grid[0])
    g = Poly2(0xb)
    exp, log = analysis._walk_tables(g.mask, 3)
    logs = [[log[divmod(Poly2(e), g)[1].mask] for e in row] for row in grid]
    units = analysis._field_pivots(logs, exp, log)
    after = [[exp[lg] for lg in row] for row in logs]
    zero_before = check_by_minors(grid, g)[1]
    assert check_by_minors(after, g)[1] == zero_before
    assert (units is None) == (len(zero_before) == comb(n, k))
    if units is not None:
        assert sorted(units) == list(range(k))
        for r, c in units.items():
            assert [row[c] for row in after] == [int(i == r) for i in range(k)]


@pytest.mark.parametrize("k, n", [(3, 7), (4, 15), (8, 15)])
def test_built_codes_are_certified_in_their_field(k, n, monkeypatch):
    # Each constructed code reduces mod g to an MDS matrix over GF(2^m),
    # so the field walk finds no zero minor and never falls back.
    def exact_walk(*args):
        raise AssertionError("check_suboptimal reached the GF(2)[z] walk")

    monkeypatch.setattr(analysis, "_exact_minors", exact_walk)
    g = default_modulus(n.bit_length())
    for mat in (build_sxor(k, n, g), build_systematic_sxor(k, n, g, range(1, k + 1))):
        assert mat.check_suboptimal() == (True, [])


@pytest.mark.parametrize("kind, k, minors", [("sxor", 8, 6434), ("systematic", 8, 6434),
                                             ("sxor", 10, 3002)])
def test_field_walk_has_one_minor_per_k_subset(kind, k, minors, monkeypatch):
    # Elimination gives every row a unit column, so the field walk
    # computes the minor of every K-subset but the unit columns' own:
    # C(15, K) - 1 of them, for sxor as for systematic codes.
    walked = [0]
    byte_minors = analysis._byte_minors  # GF(16) has byte lanes: one byte per minor

    def counting(*args):
        vec = byte_minors(*args)
        walked[0] += len(vec)
        return vec

    monkeypatch.setattr(analysis, "_byte_minors", counting)
    g = default_modulus(4)
    mat = (build_sxor(k, 15, g) if kind == "sxor"
           else build_systematic_sxor(k, 15, g, range(1, k + 1)))
    assert mat.check_suboptimal() == (True, [])
    assert walked[0] == minors == comb(15, k) - 1


# GF(8), GF(16) and GF(32) walk in byte lanes, GF(128) in list lanes.
WALK_FIELDS = ((3, 0xB), (4, 0x13), (5, 0x25), (7, 0x83))


def planted_grid(m, g, k, n, level, rows, cols, p, order):
    # [I | P] with the columns reordered, after making the minor of P on
    # t rows and t columns zero: its last column is the sum of the others
    # there (for t = 1, a zero entry).  t is 1, min(K, N - K), the top
    # level, or a level in between.
    size = min(k, n - k)
    t = {"first": 1, "middle": (size + 1) // 2, "top": size}[level]
    for r in rows[:t]:
        p[r][cols[t - 1]] = reduce(xor, (p[r][c] for c in cols[:t - 1]), 0)
    grid = [[int(i == r) for i in range(k)] + p[r] for r in range(k)]
    return m, g, [[row[c] for c in order] for row in grid]


@st.composite
def planted_grids(draw):
    m, g = draw(st.sampled_from(WALK_FIELDS))
    k = draw(st.integers(1, 4))
    n = draw(st.integers(k + 1, k + 6))
    p = [[draw(st.integers(1, (1 << m) - 1)) for _ in range(n - k)] for _ in range(k)]
    return planted_grid(m, g, k, n, draw(st.sampled_from(["first", "middle", "top"])),
                        draw(st.permutations(range(k))), draw(st.permutations(range(n - k))),
                        p, draw(st.permutations(range(n))))


def wide_grid(m, g, level, seed):
    # K = 5, N = 17: level 5 reads parent vectors of C(12, 4) = 495
    # lanes, past the 256 a translate gathers from.
    rng = random.Random(seed)
    p = [[rng.randrange(1, 1 << m) for _ in range(12)] for _ in range(5)]
    return planted_grid(m, g, 5, 17, level, rng.sample(range(5), 5), rng.sample(range(12), 12),
                        p, rng.sample(range(17), 17))


@settings(PROPERTY, max_examples=100)
@given(planted_grids())
@example(wide_grid(5, 0x25, "top", 1))
@example(wide_grid(7, 0x83, "middle", 2))
@example(wide_grid(5, 0x25, "first", 3))
def test_level_walk_matches_minor_expansion(case):
    # The field walk run to the end yields exactly the K-subsets whose
    # determinant is zero mod g; and check_suboptimal, with that field,
    # with the non-primitive g = z^4 + z^3 + z^2 + z + 1 and with none,
    # gives the answer of GF(2)[z], also after row additions that leave
    # rows with no unit column.
    m, g, grid = case
    k, n = len(grid), len(grid[0])
    exp, log = analysis._walk_tables(g, m)
    logs = [[log[divmod(Poly2(e), Poly2(g))[1].mask] for e in row] for row in grid]
    units = analysis._field_pivots(logs, exp, log)
    kernel, one = (analysis._byte_minors, b"\0") if m <= 6 else (analysis._field_minors, [0])
    walked = analysis._zero_minors(logs, units, n, partial(kernel, exp, log), one, log[0])
    assert sorted(tuple(c + 1 for c in sub) for sub in walked) == check_by_minors(grid, Poly2(g))[1]
    expected = check_by_minors(grid)
    for mat in (user_matrix(grid, m, g), user_matrix(grid, 4, 0x1F), user_matrix(grid)):
        assert mat.check_suboptimal() == expected
    mixed = [list(row) for row in grid]
    for r in range(1, k):
        mixed[r] = [a ^ b for a, b in zip(mixed[r], mixed[r - 1])]
    assert user_matrix(mixed).check_suboptimal() == check_by_minors(mixed)
