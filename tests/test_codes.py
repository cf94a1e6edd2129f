"""Tests for the code constructions, metrics and matrix serialization."""

import dataclasses
import io
import re
from itertools import combinations, permutations
from math import comb

import pytest

from sxor.codes import (KINDS, MAX_CHECK_SUBSETS, MAX_K, MAX_KERNEL_BITS, CodeSpec, GenMatrix,
                        MatrixFormatError, Metrics, build_sxor, build_systematic_sxor,
                        builtin_zd_k3, format_fields, format_matrix, load_matrix, parse_fields,
                        parse_matrix, save_matrix, user_matrix)
from sxor.gf2m import default_modulus
from sxor.gf2poly import Poly2


G1 = 0xB
G2 = 0xD

# Reduced entry masks of the 3x7 construction over z^3+z+1.
SXOR_3x7 = [[1, 1, 1, 1, 1, 1, 1],
            [1, 2, 4, 3, 6, 7, 5],
            [1, 4, 6, 5, 2, 3, 7]]

# Its systematic form for packet positions (1, 3, 4).
SYS_134 = [[1, 6, 0, 0, 1, 7, 6],
           [0, 5, 1, 0, 1, 4, 4],
           [0, 2, 0, 1, 1, 2, 3]]

# Systematic form for positions (1, 2, 3).
SYS_123 = [[1, 0, 0, 3, 2, 1, 3],
           [0, 1, 0, 5, 5, 1, 4],
           [0, 0, 1, 7, 6, 1, 6]]

ZD3 = [[1, 0, 0, 1, 2, 2],
       [0, 1, 0, 2, 1, 2],
       [0, 0, 1, 2, 2, 1]]


def masks(mat):
    return [[e.mask for e in row] for row in mat.entries]


def test_build_sxor_example():
    mat = build_sxor(3, 7, G1)
    assert masks(mat) == SXOR_3x7
    assert mat.spec == CodeSpec("sxor", 3, 7, 3, Poly2(G1))


def test_build_sxor_single_row():
    mat = build_sxor(1, 5, G1)
    assert masks(mat) == [[1] * 5]
    assert mat.metrics() == Metrics(0, 0, 0)


def test_build_sxor_entry_degree_bound():
    # Every entry is reduced, so no column exceeds degree m - 1 = 2.
    for k in range(2, 8):
        mat = build_sxor(k, 7, G1)
        assert max(e.degree() for row in mat.entries for e in row if e) == 2
        assert mat.metrics().l_max == 2


def test_build_sxor_bounds():
    with pytest.raises(ValueError):
        build_sxor(4, 3, G1)
    with pytest.raises(ValueError):
        build_sxor(3, 8, G1)
    with pytest.raises(ValueError):
        build_sxor(3, 7, 0x9)  # z^3+1 is not primitive
    with pytest.raises(ValueError):
        build_sxor(3, 7, 0x20009)  # primitive, but m = 17 > 16


def test_build_systematic_examples():
    assert masks(build_systematic_sxor(3, 7, G1, (1, 3, 4))) == SYS_134
    assert masks(build_systematic_sxor(3, 7, G1, (1, 2, 3))) == SYS_123


def test_systematic_identity_block_everywhere():
    for x in combinations(range(1, 8), 3):
        mat = build_systematic_sxor(3, 7, G1, x)
        for row, j in enumerate(x):
            assert [r[j - 1] for r in masks(mat)] == [1 if i == row else 0 for i in range(3)]


def test_systematic_unsorted_x_permutes_rows():
    a = build_systematic_sxor(3, 7, G1, (1, 3, 4))
    b = build_systematic_sxor(3, 7, G1, (1, 4, 3))
    assert b.entries == (a.entries[0], a.entries[2], a.entries[1])


def test_builtin_zd_k3():
    mat = builtin_zd_k3()
    assert masks(mat) == ZD3
    assert [row[3] for row in masks(mat)] == [1, 2, 2]
    assert mat.metrics().l_max == 1
    ok, failing = mat.check_suboptimal()
    assert ok and failing == []


def test_metrics_examples():
    assert build_systematic_sxor(3, 7, G1, (1, 3, 4)).metrics() == Metrics(2, 6, 14)
    assert build_sxor(4, 7, G1).metrics() == Metrics(2, 12, 36)
    ident = user_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert ident.metrics() == Metrics(0, 0, 0)


def test_metrics_zero_column():
    mat = user_matrix([[0, 1], [0, 2]])
    assert mat.column_overheads() == (0, 1)
    assert mat.metrics() == Metrics(1, 1, 1)


def test_check_suboptimal_constructions():
    assert build_sxor(3, 7, G1).check_suboptimal() == (True, [])
    assert build_systematic_sxor(3, 7, G1, (1, 3, 4)).check_suboptimal() == (True, [])


def test_check_suboptimal_duplicate_column():
    rows = [[1, 1, 0, 1, 2, 2],
            [0, 0, 0, 2, 1, 2],
            [0, 0, 1, 2, 2, 1]]  # columns 1 and 2 identical
    ok, failing = user_matrix(rows).check_suboptimal()
    assert not ok
    for j in range(3, 7):
        assert (1, 2, j) in failing
    assert all(f == tuple(sorted(f)) for f in failing)


def test_check_suboptimal_bounds_the_subset_count():
    def walked(k, n):
        return sum(comb(n, j) for j in range(1, k + 1))
    # The largest check the benchmark runs fits; (8, 31) is refused before walking.
    assert walked(8, 15) == 22818 < walked(6, 31) == 942648 <= MAX_CHECK_SUBSETS
    with pytest.raises(ValueError, match=f"walks {walked(8, 31)} .* limit of {MAX_CHECK_SUBSETS}"):
        build_sxor(8, 31, 0x25).check_suboptimal()


def test_column_and_submatrix():
    mat = build_sxor(3, 7, G1)
    sub = mat.submatrix((6, 4, 5))  # sorted, so packet 4 is column 1
    assert [[e.mask for e in row] for row in sub.entries] == [
        [1, 1, 1], [3, 6, 7], [5, 2, 3]]
    with pytest.raises(ValueError):
        mat.submatrix((0, 1, 2))
    with pytest.raises(ValueError):
        mat.submatrix((1, 1, 2))
    with pytest.raises(ValueError):
        mat.submatrix((1, 2, 9))


def test_code_spec_validation():
    g = Poly2(G1)
    with pytest.raises(ValueError):
        CodeSpec("nope", 3, 7, 3, g)
    with pytest.raises(ValueError):
        CodeSpec("sxor", 8, 7, 3, g)  # K > N
    with pytest.raises(ValueError):
        CodeSpec("sxor", 3, 9, 3, g)  # N > 2^m - 1
    with pytest.raises(ValueError):
        CodeSpec("sxor", 0, 7, 3, g)
    with pytest.raises(ValueError):
        CodeSpec("sxor", 3, 7, 3, Poly2(0x9))  # non-primitive modulus
    with pytest.raises(ValueError):
        CodeSpec("systematic", 3, 7, 3, g)  # x missing
    with pytest.raises(ValueError):
        CodeSpec("systematic", 3, 7, 3, g, (1, 2))  # wrong x length
    with pytest.raises(ValueError):
        CodeSpec("systematic", 3, 7, 3, g, (1, 2, 2))  # duplicate position
    with pytest.raises(ValueError):
        CodeSpec("systematic", 3, 7, 3, g, (1, 2, 8))  # out of range
    with pytest.raises(ValueError):
        CodeSpec("sxor", 3, 7, 3, g, (1, 2, 3))  # x forbidden here
    with pytest.raises(ValueError):
        CodeSpec("zd3", 3, 7)  # fixed shape is 3x6
    CodeSpec("user", 2, 4)  # fieldless user matrices are fine
    CodeSpec("user", MAX_K, MAX_K)
    with pytest.raises(ValueError, match=f"K={MAX_K + 1} exceeds the limit of {MAX_K}"):
        CodeSpec("sxor", MAX_K + 1, 65535, 16, Poly2(0x1100B))  # refused before the field is built


def test_n_is_at_most_the_packets_a_header_can_name(tmp_path):
    # A header's u16 fields name at most 65535 packets.  A matrix file past
    # that is refused at its header line, before any row is read.
    CodeSpec("user", 1, 65535)
    with pytest.raises(ValueError, match="^N=65536 exceeds 65535, the limit of its 16-bit header field$"):
        CodeSpec("user", 1, 65536)
    path = tmp_path / "wide.sxorgen"
    for n in (65535, 65536):
        path.write_text(f"sxorgen v1 kind=user K=1 N={n} m=0 g=0x0\n" + ",".join(["1"] * n) + "\n")
        if n == 65535:
            assert load_matrix(path).spec == CodeSpec("user", 1, n)
            continue
        with pytest.raises(MatrixFormatError, match="N=65536 exceeds 65535") as exc:
            load_matrix(path)
        assert exc.value.line == 1


def test_code_spec_hash_is_kept_and_follows_the_fields():
    g = Poly2(G1)
    spec = CodeSpec("systematic", 3, 7, 3, g, (1, 3, 4))
    twin = CodeSpec("systematic", 3, 7, 3, Poly2(G1), (1, 3, 4))
    assert spec == twin and hash(spec) == hash(twin) == hash(("systematic", 3, 7, 3, g, (1, 3, 4)))
    assert repr(spec) == repr(twin) == (f"CodeSpec(kind='systematic', k=3, n=7, m=3, g={g!r}, "
                                        "x=(1, 3, 4))")
    assert [f.name for f in dataclasses.fields(spec)] == ["kind", "k", "n", "m", "g", "x"]
    moved = dataclasses.replace(spec, x=(2, 3, 4))
    assert moved != spec and hash(moved) == hash(("systematic", 3, 7, 3, g, (2, 3, 4)))
    table = {spec: "a", moved: "b"}
    assert table[twin] == "a" and table[dataclasses.replace(twin, x=(2, 3, 4))] == "b"
    assert dataclasses.replace(moved, x=(1, 3, 4)) in table and table[spec] == "a"


def test_gen_matrix_shape_and_reduction():
    spec = CodeSpec("sxor", 3, 7, 3, Poly2(G1))
    with pytest.raises(ValueError):
        GenMatrix(spec, [[1] * 7] * 2)  # wrong row count
    bad = [row[:] for row in SXOR_3x7]
    bad[2][6] = 8  # z^3 is not reduced mod a degree-3 modulus
    with pytest.raises(ValueError):
        GenMatrix(spec, bad)
    user_matrix(bad)  # but a user matrix may carry any entries
    with pytest.raises(ValueError):
        user_matrix([])


def test_gen_matrix_entry_types():
    # Ints are masks as they stand; anything else is checked as a Poly2 is.
    assert user_matrix([[Poly2(3), 1]]) == user_matrix([[3, 1]])
    with pytest.raises(ValueError, match="nonnegative"):
        user_matrix([[3, -1]])
    with pytest.raises(TypeError):
        user_matrix([[3, True]])
    with pytest.raises(TypeError):
        user_matrix([[3, "1"]])


def test_gen_matrix_bounds_the_kernel_cost():
    # The constructed kinds reach the limit at K = MAX_K with m = 16 entries.
    g16 = default_modulus(16)
    build_sxor(MAX_K, 40, g16)
    build_systematic_sxor(MAX_K, 64, g16, range(1, MAX_K + 1))
    user_matrix([[0xFFFF] * 64] * MAX_K)
    for k, bits in ((MAX_K, 17), (2, MAX_KERNEL_BITS // 2 + 1)):
        grid = [[1] * (k + 1) for _ in range(k)]
        grid[-1][-1] = 1 << (bits - 1)
        with pytest.raises(ValueError, match=rf"K={k} .* {bits} bits .* limit of {MAX_KERNEL_BITS}"):
            user_matrix(grid)


def test_format_fields():
    spec = CodeSpec("systematic", 3, 7, 3, Poly2(G1), (1, 3, 4))
    assert format_fields(spec.fields()) == "kind=systematic K=3 N=7 m=3 g=0xb x=1,3,4"
    assert format_fields(CodeSpec("zd3", 3, 6).fields()) == "kind=zd3 K=3 N=6 m=0 g=0x0"
    assert format_fields(Metrics(2, 6, 14)._asdict()) == "l_max=2 l_sum=6 alpha=14"
    assert format_fields({"len": 12, "x": (4, 5), "m": None}) == "len=12 x=4,5"


def test_parse_fields_reads_back_format_fields():
    specs = [build_sxor(3, 7, G1).spec, builtin_zd_k3().spec,
             user_matrix([[1, 0, 1, 1], [0, 1, 1, 2]], m=5, g=0x25).spec,
             build_systematic_sxor(4, 15, 0x13, (15, 2, 9, 1)).spec]
    specs += [build_systematic_sxor(3, 7, G1, x).spec for x in permutations((1, 3, 4))]
    assert {spec.kind for spec in specs} == set(KINDS)
    for spec in specs:
        assert parse_fields(format_fields(spec.fields()).split()) == (spec, {})
        line = format_fields({"len": 12, **spec.fields()})
        assert parse_fields(line.split(), ("len",)) == (spec, {"len": "12"})
        assert parse_fields(line.split()[::-1], ("len", "pad")) == (spec, {"len": "12"})


def test_parse_fields_rejects_malformed_words():
    line = "len=12 kind=sxor K=3 N=7 m=3 g=0xb"
    for words, message in (
            (line.split(), "unknown fields ['len']"),
            (("kind=sxor", "K=3", "N=7", "m=3", "g"), "field 5: expected key=value, got 'g'"),
            (("kind=sxor", "K=3", "N=7", "m=3", "K=3"), "field 5: repeated field 'K'"),
            (("kind=sxor", "K=3", "N=7", "m=3"), "missing field 'g'"),
            (("kind=sxor", "K=", "N=7", "m=3", "g=0xb"), "K, N and m must be decimal"),
            (("kind=systematic", "K=3", "N=7", "m=3", "g=0xb", "x=1,,3"), "x a comma list"),
            (("kind=sxor", "K=3", "N=7", "m=3", "g=0xq"), "bad hex mask"),
            (("kind=sxor", "K=9", "N=7", "m=3", "g=0xb"), "need K <= N")):
        with pytest.raises(MatrixFormatError, match=re.escape(message)):
            parse_fields(words)


def test_format_parse_round_trip():
    mats = [build_sxor(3, 7, G1),
            build_sxor(2, 7, G2),
            build_systematic_sxor(3, 7, G1, (1, 3, 4)),
            builtin_zd_k3(),
            user_matrix([[1, 0, 1, 1], [0, 1, 1, 2]])]
    for mat in mats:
        again = parse_matrix(format_matrix(mat))
        assert again.spec == mat.spec
        assert again.entries == mat.entries


def test_save_load_path_and_file(tmp_path):
    mat = build_sxor(3, 7, G1)
    path = tmp_path / "code.sxorgen"
    save_matrix(mat, path)
    assert load_matrix(path) == mat
    buf = io.StringIO()
    save_matrix(mat, buf)
    assert load_matrix(io.StringIO(buf.getvalue())) == mat


def test_header_fields_order_insensitive():
    text = format_matrix(build_sxor(3, 7, G1))
    head, *rows = text.splitlines()
    fields = head.split()
    reordered = " ".join(fields[:2] + fields[2:][::-1])
    again = parse_matrix("\n".join([reordered] + rows))
    assert again == build_sxor(3, 7, G1)


def test_load_rejects_unreduced_entry_for_constructed_kind():
    text = format_matrix(build_sxor(3, 7, G1))
    tampered = text.replace("1,4,6,5,2,3,7", "1,4,6,5,2,3,8")
    with pytest.raises(MatrixFormatError):
        parse_matrix(tampered)
    # The same grid under the user kind is legal; the oversized entry just
    # shows up in the overhead.
    as_user = tampered.replace("kind=sxor", "kind=user")
    mat = parse_matrix(as_user)
    assert mat.spec.kind == "user"
    assert mat.metrics().l_max == 3


def test_load_rejects_signed_and_underscored_entries():
    # An entry, like the header's g, is a bare hex mask: '+1' is not 1
    # and 'b_1' is not 0xb1.
    for rows, line, col in (("1,0\n+1,1\n", 3, 1), ("1,b_1\n0,1\n", 2, 2)):
        text = f"sxorgen v1 kind=user K=2 N=2 m=0 g=0x0\n{rows}"
        with pytest.raises(MatrixFormatError, match="bad hex mask") as exc:
            load_matrix(io.StringIO(text))
        assert (exc.value.line, exc.value.col) == (line, col)
    with pytest.raises(MatrixFormatError, match=re.escape("line 1: bad hex mask '+b'")):
        load_matrix(io.StringIO("sxorgen v1 kind=user K=1 N=1 m=3 g=+b\n1\n"))


def test_load_fixed_zigzag_grid_as_user_matrix():
    rows = "\n".join(",".join(format(v, "x") for v in row) for row in ZD3)
    mat = parse_matrix(f"sxorgen v1 kind=user K=3 N=6 m=0 g=0x0\n{rows}\n")
    assert masks(mat) == ZD3
    assert mat.metrics().l_max == 1


def test_load_rejects_mislabeled_construction():
    text = format_matrix(build_sxor(3, 7, G1))
    tampered = text.replace("1,2,4,3,6,7,5", "1,2,4,3,6,7,1")
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(tampered)
    assert "declared" in str(exc.value)
    sys_text = format_matrix(build_systematic_sxor(3, 7, G1, (1, 3, 4)))
    with pytest.raises(MatrixFormatError):
        parse_matrix(sys_text.replace("x=1,3,4", "x=1,3,5"))


def test_parse_error_positions():
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("")
    assert exc.value.line == 1

    with pytest.raises(MatrixFormatError):
        parse_matrix("sxorgen v2 kind=sxor K=3 N=7 m=3 g=0xb\n")

    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix("sxorgen v1 kind=sxor K=3 N=7 m=3\n")  # g missing
    assert "g" in str(exc.value)

    with pytest.raises(MatrixFormatError):
        parse_matrix("sxorgen v1 kind=sxor K=3 K=3 N=7 m=3 g=0xb\n")

    with pytest.raises(MatrixFormatError):
        parse_matrix("sxorgen v1 kind=sxor K=3 N=7 m=3 g=0xb foo=1\n")

    good = format_matrix(builtin_zd_k3())
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(good.replace("0,1,0,2,1,2", "0,1,0,2,zz,2"))
    assert exc.value.line == 3
    assert exc.value.col == 5

    with pytest.raises(MatrixFormatError):
        parse_matrix(good.replace("0,1,0,2,1,2", "0,1,0,2,1"))

    head, r1, r2, r3 = good.splitlines()
    with pytest.raises(MatrixFormatError):
        parse_matrix("\n".join([head, r1, r2]) + "\n")  # a row short
    with pytest.raises(MatrixFormatError):
        parse_matrix(good + r3 + "\n")  # a row too many
