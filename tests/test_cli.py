"""Tests for the command-line interface, driven through main()."""

import json
import shutil
import subprocess
import sys
from dataclasses import replace

from sxor.cli import main
from sxor.codec import encode, read_packet, write_packet
from sxor.codes import build_sxor, parse_matrix
from sxor.gf2poly import Poly2


def run(args):
    return main(list(args))


def encode_file(tmp_path, data, extra, name="data.bin"):
    src = tmp_path / name
    src.write_bytes(data)
    out = tmp_path / "shards"
    assert run(["encode", *extra, str(src), "--out-dir", str(out)]) == 0
    return src, out


def packet_path(out, stem, index):
    return out / f"{stem}.p{index}.sxp"


def test_encode_writes_packets_and_sidecar(tmp_path):
    data = bytes(range(12))
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    files = sorted(p.name for p in out.iterdir())
    assert files == sorted([f"data.bin.p{i}.sxp" for i in range(1, 8)] + ["data.bin.sxmeta"])
    meta = (out / "data.bin.sxmeta").read_text()
    assert "len=12" in meta and "k=3" in meta and "n=7" in meta and "kind=sxor" in meta
    # 12 bytes split across 3 sources: L = 32 bits, plus the column overhead.
    overheads = [0, 2, 2, 2, 2, 2, 2]
    for i in range(1, 8):
        p = read_packet(packet_path(out, "data.bin", i))
        assert p.index == i
        assert p.source_len == 32
        assert p.bit_len == 32 + overheads[i - 1]


def test_round_trip_map_subset(tmp_path):
    data = bytes(range(251)) * 5
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    restored = tmp_path / "restored.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (4, 5, 6)]
    assert run(args + ["--out", str(restored)]) == 0
    assert restored.read_bytes() == data


def test_round_trip_systematic_identity_subset(tmp_path):
    data = b"systematic fast path?" * 9
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "7"])
    meta = (out / "data.bin.sxmeta").read_text()
    assert "x=1,2,3" in meta  # default positions
    restored = tmp_path / "r.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    assert run(args + ["--out", str(restored)]) == 0
    assert restored.read_bytes() == data


def test_round_trip_explicit_x(tmp_path):
    data = b"\x01\x02" * 40
    src, out = encode_file(
        tmp_path, data,
        ["--kind", "systematic", "--k", "3", "--n", "7", "--x", "1,3,4"])
    restored = tmp_path / "r.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (2, 6, 7)]
    assert run(args + ["--out", str(restored)]) == 0
    assert restored.read_bytes() == data


def test_round_trip_zigzag_decoder(tmp_path):
    data = bytes(reversed(range(90)))
    src, out = encode_file(tmp_path, data, ["--kind", "zd3"])
    restored = tmp_path / "r.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (4, 5, 6)]
    assert run(args + ["--out", str(restored), "--decoder", "zigzag"]) == 0
    assert restored.read_bytes() == data


def test_zigzag_decoder_rejects_a_corrupted_packet(tmp_path, capsys):
    data = bytes(reversed(range(90)))
    src, out = encode_file(tmp_path, data, ["--kind", "zd3"])
    parity = packet_path(out, "data.bin", 5)
    blob = bytearray(parity.read_bytes())
    blob[-4] ^= 1
    parity.write_bytes(blob)
    restored = tmp_path / "r.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (1, 4, 5)]
    for decoder in ("map", "zigzag"):
        assert run(args + ["--out", str(restored), "--decoder", decoder]) == 1
        assert "error:" in capsys.readouterr().err
        assert not restored.exists()


def test_round_trip_user_matrix(tmp_path):
    mfile = tmp_path / "toy.sxorgen"
    mfile.write_text("sxorgen v1 kind=user K=2 N=4 m=0 g=0x0\n1,0,1,1\n0,1,1,2\n")
    data = b"abcdef"
    src, out = encode_file(tmp_path, data, ["--kind", "user", "--matrix", str(mfile)])
    restored = tmp_path / "r.bin"
    packs = [str(packet_path(out, "data.bin", i)) for i in (3, 4)]
    assert run(["decode", *packs, "--out", str(restored), "--matrix", str(mfile)]) == 0
    assert restored.read_bytes() == data
    # Without the matrix the headers alone cannot rebuild a user-kind code.
    assert run(["decode", *packs, "--out", str(restored)]) == 2


def test_encode_user_kind_needs_matrix(tmp_path):
    src = tmp_path / "x.bin"
    src.write_bytes(b"xx")
    assert run(["encode", "--kind", "user", str(src), "--out-dir", str(tmp_path)]) == 2


def test_encode_rejects_header_overflow(tmp_path, capsys):
    # m = 256 does not fit the u8 header field: a clean error before any packet is written.
    mat = tmp_path / "wide.sxorgen"
    mat.write_text("sxorgen v1 kind=user K=1 N=2 m=256 g=0x0\n1,1\n")
    src = tmp_path / "x.bin"
    src.write_bytes(b"xx")
    out = tmp_path / "shards"
    assert run(["encode", "--matrix", str(mat), str(src), "--out-dir", str(out)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.sxp"))


def test_encode_rejects_empty_input(tmp_path):
    src = tmp_path / "empty.bin"
    src.write_bytes(b"")
    assert run(["encode", "--kind", "zd3", str(src), "--out-dir", str(tmp_path)]) == 2


def test_encode_rejects_x_for_plain_kind(tmp_path):
    src = tmp_path / "x.bin"
    src.write_bytes(b"xx")
    assert run(["encode", "--kind", "sxor", "--k", "2", "--n", "3", "--x", "1,2",
                str(src), "--out-dir", str(tmp_path)]) == 2


def test_code_flags_conflict_with_matrix_and_zd3(tmp_path, capsys):
    # A matrix file or kind zd3 fixes the whole code, so --k, --n, --g and
    # --x next to them are usage errors, not silently ignored.
    mfile = tmp_path / "m.sxorgen"
    assert run(["matrix", "print", "--kind", "sxor", "--k", "3", "--n", "7",
                "--out", str(mfile)]) == 0
    src = tmp_path / "x.bin"
    src.write_bytes(b"conflict")
    encode_to = [str(src), "--out-dir", str(tmp_path / "shards")]
    flags = {"--k": "5", "--n": "9", "--g": "0x25", "--x": "1,2"}
    every_flag = [part for item in flags.items() for part in item]
    for named in (["--kind", "zd3"], ["--matrix", str(mfile)]):
        cases = [(["analyze", *named, *every_flag], "--k"),
                 (["encode", *named, *every_flag, *encode_to], "--k")]
        cases += [(["encode", *named, flag, value, *encode_to], flag)
                  for flag, value in flags.items()]
        for args, flag in cases:
            assert run(args) == 2, args
            err = capsys.readouterr().err
            assert err.startswith("usage error:") and flag in err, (args, err)
    assert not list(tmp_path.rglob("*.sxp"))


def test_decode_wrong_packet_count(tmp_path):
    data = b"shortfall" * 4
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (4, 5)]
    assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 2


def test_decode_detects_corruption(tmp_path):
    data = b"integrity matters" * 11
    src, out = encode_file(tmp_path, data, ["--kind", "zd3"])
    target = packet_path(out, "data.bin", 4)
    p = read_packet(target)
    write_packet(replace(p, bits=Poly2(p.bits.mask ^ 1)), target)
    packs = [str(packet_path(out, "data.bin", i)) for i in (4, 5, 6)]
    assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 1


def test_decode_without_sidecar_needs_length(tmp_path):
    data = b"where did the sidecar go" * 3
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    moved = tmp_path / "moved"
    moved.mkdir()
    for i in (1, 2, 3):
        shutil.copy(packet_path(out, "data.bin", i), moved)
    packs = [str(moved / f"data.bin.p{i}.sxp") for i in (1, 2, 3)]
    restored = tmp_path / "r.bin"
    assert run(["decode", *packs, "--out", str(restored)]) == 2
    assert run(["decode", *packs, "--out", str(restored), "--length", str(len(data))]) == 0
    assert restored.read_bytes() == data


def test_decode_length_override_truncates(tmp_path):
    data = bytes(range(60))
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    restored = tmp_path / "r.bin"
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    assert run(["decode", *packs, "--out", str(restored), "--length", "5"]) == 0
    assert restored.read_bytes() == data[:5]


def test_decode_rejects_negative_length(tmp_path):
    data = bytes(range(60))
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    restored = tmp_path / "r.bin"
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    assert run(["decode", *packs, "--out", str(restored), "--length", "-5"]) == 2
    sidecar = out / "data.bin.sxmeta"
    sidecar.write_text(sidecar.read_text().replace("len=60", "len=-3"))
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert not restored.exists()


def test_decode_checks_length_before_decoding(tmp_path, capsys):
    data = bytes(range(60))
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "7"])
    parity = packet_path(out, "data.bin", 5)
    p = read_packet(parity)
    write_packet(replace(p, bits=Poly2(p.bits.mask ^ 1)), parity)
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 5)]
    restored = tmp_path / "r.bin"
    assert run(["decode", *packs, "--out", str(restored), "--length", "60"]) == 1
    assert "exceeds" not in capsys.readouterr().err  # the corruption is caught
    assert run(["decode", *packs, "--out", str(restored), "--length", "61"]) == 1
    assert "--length 61 exceeds decoded size 60" in capsys.readouterr().err
    sidecar = out / "data.bin.sxmeta"
    sidecar.write_text(sidecar.read_text().replace("len=60", "len=61"))
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert "sidecar length 61 exceeds decoded size 60" in capsys.readouterr().err
    assert not restored.exists()


def test_decode_rejects_sources_of_partial_bytes(tmp_path, capsys):
    mat = build_sxor(3, 7, 0xB)
    for p in encode(mat, [0xABC, 0x123, 0xFFF], 12)[:3]:
        write_packet(p, tmp_path / f"data.bin.p{p.index}.sxp")
    packs = [str(tmp_path / f"data.bin.p{i}.sxp") for i in (1, 2, 3)]
    restored = tmp_path / "r.bin"
    assert run(["decode", *packs, "--out", str(restored), "--length", "4"]) == 1
    assert "source length 12 is not a whole number of bytes" in capsys.readouterr().err
    assert not restored.exists()


def test_decode_rejects_sidecar_mismatch(tmp_path, capsys):
    data = b"sidecar paranoia" * 2
    mismatch = "sidecar metadata does not match"
    for kind, edit, message in (
            ("sxor", ("k=3", "k=4"), mismatch),
            ("systematic", ("x=1,2,3", "x=2,3,4"), mismatch),
            ("sxor", ("len=32", "len=1e3"), "data.bin.sxmeta: len='1e3' is not"),
            ("sxor", ("len=32", "len="), "data.bin.sxmeta: len='' is not"),
            ("sxor", ("len=32", "len=\u00e932"), "data.bin.sxmeta: non-ASCII byte 0xc3 at offset ")):
        src, out = encode_file(tmp_path, data, ["--kind", kind, "--k", "3", "--n", "7"])
        sidecar = out / "data.bin.sxmeta"
        text = sidecar.read_text(encoding="ascii")
        assert edit[0] in text
        sidecar.write_text(text.replace(*edit), encoding="utf-8")
        packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
        assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "r.bin").exists()


def test_encode_deterministic(tmp_path):
    data = bytes(range(200)) + b"tail"
    src1, out1 = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    out2 = tmp_path / "again"
    assert run(["encode", "--kind", "sxor", "--k", "3", "--n", "7",
                str(src1), "--out-dir", str(out2)]) == 0
    for i in range(1, 8):
        a = packet_path(out1, "data.bin", i).read_bytes()
        b = packet_path(out2, "data.bin", i).read_bytes()
        assert a == b


def test_analyze_markdown(tmp_path, capsys):
    assert run(["analyze", "--kind", "sxor", "--k", "4", "--n", "7", "--g", "0xB"]) == 0
    out = capsys.readouterr().out
    assert "kind=sxor K=4 N=7 m=3 g=0xb" in out
    assert "l_max=2 l_sum=12 alpha=36" in out


def test_analyze_json(capsys):
    assert run(["analyze", "--kind", "systematic", "--k", "3", "--n", "7",
                "--x", "1,3,4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "systematic"
    assert doc["x"] == [1, 3, 4]
    assert (doc["l_max"], doc["l_sum"], doc["alpha"]) == (2, 6, 14)
    assert doc["overheads"] == [0, 2, 0, 0, 0, 2, 2]


def test_analyze_compare(capsys):
    assert run(["analyze", "--compare"]) == 0
    out = capsys.readouterr().out
    assert "| 4 | sxor | 2 | 12 | 36 |" in out
    assert "zigzag-decodable (reference)" in out
    assert "note:" in out and "11" in out
    for n in ("-1", "0"):
        assert run(["analyze", "--compare", "--n", n]) == 1
        assert f"error: comparison at N={n} " in capsys.readouterr().err


def test_classify_json(capsys):
    assert run(["classify", "--k", "3", "--n", "7", "--g", "0xB",
                "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [tuple(c["rep"]) for c in doc["classes"]] == [
        (1, 2, 3), (1, 2, 4), (1, 2, 5), (1, 3, 4), (1, 3, 5)]
    assert sum(c["size"] for c in doc["classes"]) == 35
    assert doc["best"]["rep"] == [1, 3, 4]
    assert doc["best"]["alpha"] == 14


def test_classify_markdown(capsys):
    assert run(["classify", "--k", "3", "--n", "7"]) == 0
    out = capsys.readouterr().out
    assert "5 classes" in out
    assert "best: (1,3,4)" in out
    assert run(["classify", "--k", "12", "--n", "15"]) == 0  # K > 8
    assert "(455 tuples, 31 classes)" in capsys.readouterr().out


def test_check_passes_for_construction(capsys):
    assert run(["check", "--kind", "zd3"]) == 0
    assert "sub-optimal: true" in capsys.readouterr().out


def test_check_reports_failing_subsets(tmp_path, capsys):
    bad = tmp_path / "bad.sxorgen"
    bad.write_text("sxorgen v1 kind=user K=2 N=3 m=0 g=0x0\n1,1,1\n1,1,2\n")
    assert run(["check", "--matrix", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "sub-optimal: false" in out
    assert "failing: 1,2" in out


def test_matrix_print_and_load(tmp_path, capsys):
    assert run(["matrix", "print", "--kind", "systematic", "--k", "3", "--n", "7",
                "--x", "1,3,4"]) == 0
    text = capsys.readouterr().out
    mat = parse_matrix(text)
    assert mat.spec.kind == "systematic"
    assert mat.spec.x == (1, 3, 4)

    mfile = tmp_path / "m.sxorgen"
    assert run(["matrix", "print", "--kind", "sxor", "--k", "3", "--n", "7",
                "--out", str(mfile)]) == 0
    assert run(["matrix", "load", str(mfile)]) == 0
    out = capsys.readouterr().out
    assert "kind=sxor K=3 N=7 m=3 g=0xb" in out
    assert "l_max=2 l_sum=12 alpha=24" in out


def test_matrix_load_bad_file(tmp_path, capsys):
    bad = tmp_path / "bad.sxorgen"
    bad.write_text("not a matrix\n")
    assert run(["matrix", "load", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run([]) == 2
    assert run(["decode"]) == 2  # missing --out and packets
    assert run(["encode", "--kind", "sxor", "--k", "3", "--n", "7",
                str(tmp_path / "missing.bin"),
                "--out-dir", str(tmp_path)]) == 1  # unreadable input
    capsys.readouterr()


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sxor", "matrix", "print", "--kind", "zd3"],
                          capture_output=True, text=True, check=True)
    mat = parse_matrix(proc.stdout)
    assert mat.spec.kind == "zd3"
