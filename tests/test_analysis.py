"""Tests for equivalence classification, best-code search and reports."""

import json
import random
from itertools import combinations, permutations
from math import comb

import pytest

from sxor import polymat
from sxor.analysis import (MAX_CLASSIFY_TUPLES, ZD_N7_REFERENCE, ClassReport, CodeClass,
                           best_systematic, comparison_report, emit_comparison, emit_report,
                           enumerate_classes, matrices_equivalent, shift_sequence)
from sxor.codes import GenMatrix, Metrics, build_systematic_sxor, user_matrix
from sxor.gf2poly import Poly2
from sxor.polymat import FieldMatrix


G1 = 0xB
G2 = 0xD

FIVE_REPS = ((1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5))

# Metric triples of the five representatives under each degree-3 modulus.
REP_METRICS = {
    G1: {(1, 2, 3): (2, 6, 16), (1, 2, 4): (2, 8, 18), (1, 2, 5): (2, 6, 16),
         (1, 3, 4): (2, 6, 14), (1, 3, 5): (2, 6, 16)},
    G2: {(1, 2, 3): (2, 6, 16), (1, 2, 4): (2, 6, 16), (1, 2, 5): (2, 6, 16),
         (1, 3, 4): (2, 8, 18), (1, 3, 5): (2, 6, 14)},
}


def sys37(x, g=G1):
    return build_systematic_sxor(3, 7, g, x)


def orbit_of(t, n=7):
    return {t} | {tuple(sorted(shift_sequence(t, s, n))) for s in range(1, n)}


def test_matrices_equivalent_examples():
    a = sys37((1, 3, 4))
    assert matrices_equivalent(a, sys37((1, 4, 3)))  # row permutation
    assert matrices_equivalent(a, a)
    assert not matrices_equivalent(sys37((1, 2, 3)), a)  # alpha 16 vs 14


def test_matrices_equivalent_guards():
    a = sys37((1, 3, 4))
    with pytest.raises(ValueError):
        matrices_equivalent(a, build_systematic_sxor(3, 6, 0xB, (1, 2, 3)))
    big = user_matrix([[1] * 9] * 9)
    with pytest.raises(ValueError):
        matrices_equivalent(big, big)


def test_position_permutations_are_equivalent():
    rng = random.Random(50)
    for _ in range(50):
        x = tuple(sorted(rng.sample(range(1, 8), 3)))
        sigma = list(permutations(x))[rng.randrange(6)]
        assert matrices_equivalent(sys37(x), sys37(sigma))


def test_cyclic_shifts_are_equivalent():
    for x in combinations(range(1, 8), 3):
        a = sys37(x)
        for k in range(1, 7):
            assert matrices_equivalent(a, sys37(shift_sequence(x, k, 7)))


def test_shift_sequence_examples():
    assert shift_sequence((1, 3, 4), 1, 7) == (2, 4, 5)
    assert shift_sequence((1, 3, 4), 6, 7) == (7, 2, 3)
    with pytest.raises(ValueError):
        shift_sequence((1, 3, 4), 0, 7)
    with pytest.raises(ValueError):
        shift_sequence((1, 3, 4), 7, 7)
    with pytest.raises(ValueError):
        shift_sequence((1, 8), 1, 7)


def test_shifted_positions_give_cyclic_column_shift():
    # Advancing every position by one rotates the columns one step right.
    a = sys37((1, 3, 4))
    b = sys37(shift_sequence((1, 3, 4), 1, 7))
    rotated = [list(row[-1:] + row[:-1]) for row in a.entries]
    assert [list(r) for r in b.entries] == rotated


def test_enumerate_classes_3_7():
    report = enumerate_classes(3, 7, G1)
    assert (report.k, report.n) == (3, 7)
    assert report.total == 35
    assert tuple(c.rep for c in report.classes) == FIVE_REPS
    assert [c.size for c in report.classes] == [7] * 5
    assert sum(c.size for c in report.classes) == 35


def test_class_metrics_match_reference_table():
    for g, expected in REP_METRICS.items():
        report = enumerate_classes(3, 7, g)
        got = {c.rep: tuple(c.metrics) for c in report.classes}
        assert got == expected


def test_single_source_collapses_to_one_class():
    report = enumerate_classes(1, 7, G1)
    assert len(report.classes) == 1
    assert report.classes[0].size == 7


def test_class_sizes_cover_all_tuples():
    for k in range(1, 8):
        report = enumerate_classes(k, 7, G1)
        assert report.total == comb(7, k)
        assert sum(c.size for c in report.classes) == comb(7, k)


def test_metrics_are_class_invariants():
    for k, n, g in ((3, 7, G1), (4, 15, 0x13), (4, 15, 0x19)):
        report = enumerate_classes(k, n, g)
        rep_metrics = {c.rep: c.metrics for c in report.classes}
        for t in combinations(range(1, n + 1), k):
            canon = min(orbit_of(t, n), key=lambda u: u[::-1])
            assert build_systematic_sxor(k, n, g, t).metrics() == rep_metrics[canon]


def classes_by_exhaustive_check(k, n, g):
    """The classifier that trusted no theorem: it builds every member's
    matrix and lets a tuple join a shift orbit only once
    matrices_equivalent confirms it against the orbit's colex-smallest
    member."""
    tuples = list(combinations(range(1, n + 1), k))
    mats = {t: build_systematic_sxor(k, n, g, t) for t in tuples}
    cyclic = n == (1 << mats[tuples[0]].spec.m) - 1
    groups = {}
    for t in tuples:
        canon = min(orbit_of(t, n) if cyclic else {t}, key=lambda u: u[::-1])
        assert matrices_equivalent(mats[canon], mats[t]), (t, canon)
        groups.setdefault(canon, []).append(t)
    classes = tuple(CodeClass(rep, len(groups[rep]), mats[rep].metrics()) for rep in sorted(groups))
    return ClassReport(k, n, Poly2(g), classes, len(tuples))


@pytest.mark.parametrize("k, n, g", [(k, 7, g) for g in (G1, G2) for k in range(2, 7)]
                         + [(k, 15, 0x13) for k in range(2, 5)] + [(3, 6, G1)])
def test_classes_match_the_exhaustive_check(k, n, g):
    got = enumerate_classes(k, n, g).to_json_dict()
    assert got == classes_by_exhaustive_check(k, n, g).to_json_dict()


@pytest.mark.parametrize("k, count", [(9, 335), (12, 31), (14, 1)])
def test_classes_beyond_the_exhaustive_check(k, count):
    # matrices_equivalent refuses K > 8; classification no longer needs it.
    report = enumerate_classes(k, 15, 0x13)
    assert len(report.classes) == count
    assert sum(c.size for c in report.classes) == report.total == comb(15, k)


def test_enumerate_classes_bounds_the_tuple_count():
    # C(16, 8) = 12870 is the smallest count over the limit; every N <= 15 is under it.
    assert max(comb(15, k) for k in range(16)) <= MAX_CLASSIFY_TUPLES < comb(16, 8)
    with pytest.raises(ValueError, match=rf"C\(16, 8\) = 12870 .* {MAX_CLASSIFY_TUPLES}"):
        enumerate_classes(8, 16, 0x25)


def test_enumerate_classes_forms_no_vandermonde_matrix_inverse_or_product(monkeypatch):
    # Every class's metrics come from the mask rows of the closed form of
    # V_x**-1 * V, so classify needs neither V nor an inverse nor a matrix
    # product, and wraps no class in a GenMatrix.
    def refuse(*args):
        raise AssertionError("classify built a matrix object")

    monkeypatch.setattr(polymat, "vandermonde", refuse)
    monkeypatch.setattr(GenMatrix, "__init__", refuse)
    monkeypatch.setattr(FieldMatrix, "inverse", refuse)
    monkeypatch.setattr(FieldMatrix, "__matmul__", refuse)
    report = enumerate_classes(4, 15, 0x13)
    assert len(report.classes) == 91


def test_orbits_partition_the_tuples():
    seen = set()
    for rep in FIVE_REPS:
        orb = orbit_of(rep)
        assert len(orb) == 7
        assert not orb & seen
        seen |= orb
    assert len(seen) == 35


def test_best_systematic_examples():
    rep, mat, metrics = best_systematic(3, 7, G1)
    assert rep == (1, 3, 4)
    assert metrics == Metrics(2, 6, 14)
    assert mat == sys37((1, 3, 4))
    assert best_systematic(6, 7, G1)[2] == Metrics(2, 2, 10)
    assert best_systematic(2, 7, G1)[2] == Metrics(2, 8, 12)


def test_report_json_schema():
    report = enumerate_classes(3, 7, G1)
    doc = report.to_json_dict()
    assert set(doc) == {"K", "N", "g", "classes", "best"}
    assert doc["K"] == 3 and doc["N"] == 7 and doc["g"] == "0xb"
    assert len(doc["classes"]) == 5
    for entry in doc["classes"]:
        assert set(entry) == {"rep", "size", "l_max", "l_sum", "alpha"}
    assert set(doc["best"]) == {"rep", "l_max", "l_sum", "alpha"}
    assert doc["best"]["rep"] == [1, 3, 4]
    json.dumps(doc)  # must be serializable as-is


def test_emit_report_json_and_markdown():
    report = enumerate_classes(3, 7, G1)
    doc = report.to_json_dict()
    assert {"rep": [1, 3, 4], "size": 7, "l_max": 2, "l_sum": 6, "alpha": 14} in doc["classes"]
    assert doc["best"] == {"rep": [1, 3, 4], "l_max": 2, "l_sum": 6, "alpha": 14}
    text = emit_report(report)
    assert "| (1,3,4) | 7 | 2 | 6 | 14 |" in text
    assert "best: (1,3,4) with l_max=2 l_sum=6 alpha=14" in text
    assert "35 tuples, 5 classes" in text


def test_zd_reference_values():
    assert ZD_N7_REFERENCE == {
        2: Metrics(3, 8, 5),
        3: Metrics(3, 8, 8),
        4: Metrics(3, 7, 9),
        5: Metrics(3, 6, 8),
        6: Metrics(3, 3, 5),
    }


def test_comparison_report_values():
    report = comparison_report()
    assert report.n == 7
    assert report.g == Poly2(G1)
    assert [r.k for r in report.rows] == [2, 3, 4, 5, 6]
    sxor_rows = {r.k: tuple(r.sxor) for r in report.rows}
    assert sxor_rows == {2: (2, 10, 12), 3: (2, 12, 24), 4: (2, 12, 36),
                         5: (2, 12, 48), 6: (2, 12, 60)}
    sys_rows = {r.k: tuple(r.systematic) for r in report.rows}
    assert sys_rows == {2: (2, 8, 12), 3: (2, 6, 14), 4: (2, 6, 12),
                        5: (2, 3, 12), 6: (2, 2, 10)}
    assert {r.k: r.zd_reference for r in report.rows} == ZD_N7_REFERENCE
    # One recomputed total disagrees with the commonly published row and
    # must be called out rather than silently normalized.
    assert len(report.notes) == 1
    assert "K=3" in report.notes[0]
    assert "12" in report.notes[0] and "11" in report.notes[0]


def test_comparison_report_other_n_has_no_reference():
    report = comparison_report(3, (2, 3))
    assert report.g == Poly2(0x7)
    assert all(r.zd_reference is None for r in report.rows)
    assert report.notes == ()


def test_comparison_report_needs_some_k_in_range():
    for n, ks in ((-1, (2, 3, 4, 5, 6)), (0, (2,)), (1, ()), (1, (2, 3))):
        with pytest.raises(ValueError, match=f"N={n}"):
            comparison_report(n, ks)


def test_emit_comparison_markdown_and_json():
    report = comparison_report()
    text = emit_comparison(report)
    assert "| 3 | sxor | 2 | 12 | 24 |" in text
    assert "| 3 | zigzag-decodable (reference) | 3 | 8 | 8 |" in text
    assert "note:" in text
    payload = json.loads(json.dumps(report.to_json_dict()))  # must be serializable as-is
    assert payload["N"] == 7 and payload["g"] == "0xb"
    row3 = next(r for r in payload["rows"] if r["K"] == 3)
    assert row3["sxor"] == {"l_max": 2, "l_sum": 12, "alpha": 24}
    assert row3["systematic"]["rep"] == [1, 3, 4]
    assert row3["zd_reference"] == {"l_max": 3, "l_sum": 8, "alpha": 8}
    assert payload["notes"]


def test_reports_are_deterministic():
    a, b = enumerate_classes(3, 7, G1), enumerate_classes(3, 7, G1)
    assert a.to_json_dict() == b.to_json_dict()
    assert emit_report(a) == emit_report(b)
