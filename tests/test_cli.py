"""Tests for the command-line interface, driven through main()."""

import io
import json
import os
import shlex
import shutil
import stat
import subprocess
import sys
import time
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from sxor import cli
from sxor.analysis import MAX_CLASSIFY_TUPLES, MAX_CLASSIFY_WORK
from sxor.cli import _build_parser, _resolve_matrix, main
from sxor.codec import encode, packet_to_bytes, read_packet, write_packet
from sxor.codes import (MAX_CHECK_SUBSETS, MAX_K, MAX_KERNEL_BITS, MatrixFormatError, build_sxor,
                        load_matrix, parse_matrix)
from sxor.gf2poly import Poly2


SRC = str(Path(__file__).resolve().parents[1] / "src")


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
    assert meta == "len=12 kind=sxor K=3 N=7 m=3 g=0xb\n"
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


def test_round_trip_k20_from_the_last_packets(tmp_path):
    # The densest survivor set of a K = 20 code: a 20 x 20 kernel.
    data = bytes((i * 37) % 251 for i in range(2048))
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "20", "--n", "31"])
    restored = tmp_path / "restored.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in range(12, 32)]
    start = time.perf_counter()
    assert run(args + ["--out", str(restored)]) == 0
    assert time.perf_counter() - start < 5
    assert restored.read_bytes() == data


def test_encode_refuses_k_above_the_limit(tmp_path, capsys):
    src = tmp_path / "x.bin"
    src.write_bytes(b"x" * 64)
    out = tmp_path / "shards"
    assert run(["encode", "--kind", "sxor", "--k", str(MAX_K + 1), "--n", "63",
                str(src), "--out-dir", str(out)]) == 1
    assert f"limit of {MAX_K}" in capsys.readouterr().err
    assert not list(tmp_path.rglob("*.sxp"))


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


def test_round_trip_zd3(tmp_path):
    data = bytes(reversed(range(90)))
    src, out = encode_file(tmp_path, data, ["--kind", "zd3"])
    restored = tmp_path / "r.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (4, 5, 6)]
    assert run(args + ["--out", str(restored)]) == 0
    assert restored.read_bytes() == data


def test_decode_rejects_a_corrupted_zd3_parity(tmp_path, capsys):
    data = bytes(reversed(range(90)))
    src, out = encode_file(tmp_path, data, ["--kind", "zd3"])
    parity = packet_path(out, "data.bin", 5)
    blob = bytearray(parity.read_bytes())
    blob[-4] ^= 1
    parity.write_bytes(blob)
    restored = tmp_path / "r.bin"
    args = ["decode"] + [str(packet_path(out, "data.bin", i)) for i in (1, 4, 5)]
    assert run(args + ["--out", str(restored)]) == 1
    assert "error:" in capsys.readouterr().err
    assert not restored.exists()


def test_decode_refuses_survivors_that_check_lists_as_failing(tmp_path, capsys):
    # det = z^16 + z^16 = 0.  One-byte sources are short enough that zigzag
    # could still separate them, but decode and check agree on "decodable".
    mfile = tmp_path / "singular.sxorgen"
    mfile.write_text("sxorgen v1 kind=user K=2 N=2 m=0 g=0x0\n100,10000\n1,100\n")
    assert run(["check", "--matrix", str(mfile)]) == 1
    assert "failing: 1,2" in capsys.readouterr().out
    src, out = encode_file(tmp_path, b"ab", ["--matrix", str(mfile)])
    restored = tmp_path / "r.bin"
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2)]
    assert run(["decode", *packs, "--matrix", str(mfile), "--out", str(restored)]) == 1
    assert "packets (1, 2) cannot determine the sources" in capsys.readouterr().err
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


def test_user_matrix_over_the_kernel_limit_is_refused(tmp_path, capsys):
    # 17-bit entries at K = 32: each decoding kernel would take seconds.
    big = tmp_path / "big.sxorgen"
    rows = "\n".join(",".join(["1ffff"] * 64) for _ in range(MAX_K))
    big.write_text(f"sxorgen v1 kind=user K={MAX_K} N=64 m=0 g=0x0\n{rows}\n")
    src, out = encode_file(tmp_path, b"abcd", ["--kind", "sxor", "--k", "2", "--n", "3"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 3)]
    restored = tmp_path / "r.bin"
    for args in (["matrix", "load", str(big)],
                 ["decode", *packs, "--matrix", str(big), "--out", str(restored)]):
        start = time.perf_counter()
        assert run(args) == 1
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert f"17 bits exceeds the kernel limit of {MAX_KERNEL_BITS}" in err, err
    assert not restored.exists()


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


def test_explicit_kind_must_match_matrix(tmp_path, capsys):
    mfile = tmp_path / "m.sxorgen"
    assert run(["matrix", "print", "--kind", "sxor", "--k", "3", "--n", "7",
                "--out", str(mfile)]) == 0
    for kind in ("systematic", "zd3"):
        assert run(["analyze", "--matrix", str(mfile), "--kind", kind]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage error:") and kind in err and "sxor" in err, err
    for kind in ([], ["--kind", "sxor"], ["--kind", "user"]):
        assert run(["analyze", "--matrix", str(mfile), *kind]) == 0
        assert capsys.readouterr().out.startswith("kind=sxor K=3 N=7")


def test_a_fault_in_the_last_stripe_leaves_out_untouched(tmp_path, capsys):
    # Three stripes per source; the flipped bit is the last payload bit of
    # a parity packet, so only the last stripe of its division sees it.
    data = bytes(range(256)) * (3 * (2 * cli._STRIPE // 8 + 100) // 256)
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "5"])
    parity = packet_path(out, "data.bin", 4)
    head = read_packet(parity)
    blob = bytearray(parity.read_bytes())
    blob[-1] ^= 1 << (head.bit_len - 1) % 8
    parity.write_bytes(blob)
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 4)]
    restored = tmp_path / "r.bin"
    before = sorted(tmp_path.iterdir())
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert "error: source 3:" in capsys.readouterr().err
    assert not restored.exists()
    assert sorted(tmp_path.iterdir()) == before  # no temp file left behind
    restored.write_bytes(b"an older restore")
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert restored.read_bytes() == b"an older restore"
    assert sorted(tmp_path.iterdir()) == sorted(before + [restored])
    parity.write_bytes(packet_to_bytes(head))
    assert run(["decode", *packs, "--out", str(restored)]) == 0
    assert restored.read_bytes() == data


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs os.mkfifo")
def test_decode_refuses_an_out_that_is_not_a_regular_file(tmp_path, capsys):
    # Renaming the restore onto a FIFO or a directory would replace it.
    data = b"only regular files are replaced" * 3
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    fifo, folder = tmp_path / "fifo", tmp_path / "folder"
    os.mkfifo(fifo)
    folder.mkdir()
    (tmp_path / "to-fifo").symlink_to(fifo)
    before = sorted(tmp_path.iterdir())
    for target in (fifo, folder, tmp_path / "to-fifo"):
        assert run(["decode", *packs, "--out", str(target)]) == 1
        assert "is not a regular file" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == before
    assert stat.S_ISFIFO(fifo.lstat().st_mode) and folder.is_dir()
    assert (tmp_path / "to-fifo").is_symlink()


def test_decode_keeps_the_mode_of_an_existing_out(tmp_path):
    data = b"mode bits survive the rename" * 3
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 4, 6)]
    restored = tmp_path / "r.bin"
    restored.write_bytes(b"older")
    restored.chmod(0o640)
    assert run(["decode", *packs, "--out", str(restored)]) == 0
    assert restored.read_bytes() == data
    assert stat.S_IMODE(restored.stat().st_mode) == 0o640


@pytest.mark.parametrize("stripe", [8, 24, 64])
def test_striped_files_hold_the_library_bytes(tmp_path, monkeypatch, stripe):
    # With stripes of a few bytes, files span many stripes: packets are
    # packet_to_bytes of the library's encode, and every set restores.
    monkeypatch.setattr(cli, "_STRIPE", stripe)
    mfile = tmp_path / "wide.sxorgen"
    mfile.write_text("sxorgen v1 kind=user K=2 N=3 m=0 g=0x0\n"
                     f"{1 << 70:x},{1 << 72 | 1:x},1\n0,{1 << 66:x},3\n")
    data = bytes(range(7, 250)) * 2
    for flags in (["--kind", "sxor", "--k", "3", "--n", "7"],
                  ["--kind", "systematic", "--k", "4", "--n", "7"],
                  ["--kind", "zd3"], ["--matrix", str(mfile)]):
        src, out = encode_file(tmp_path, data, flags)
        mat = _resolve_matrix(_build_parser().parse_args(["encode", *flags, "x"]))
        k, chunk = mat.spec.k, -(-len(data) // mat.spec.k)
        sources = [int.from_bytes(data[i * chunk:(i + 1) * chunk], "little") for i in range(k)]
        for p in encode(mat, sources, 8 * chunk):
            assert packet_path(out, "data.bin", p.index).read_bytes() == packet_to_bytes(p)
        restored = tmp_path / "r.bin"
        for idx in combinations(range(1, mat.spec.n + 1), k):
            packs = [str(packet_path(out, "data.bin", i)) for i in idx]
            extra = ["--matrix", str(mfile)] if "--matrix" in flags else []
            assert run(["decode", *packs, "--out", str(restored), *extra]) == 0
            assert restored.read_bytes() == data, (flags, idx)


def test_decode_checks_payload_bytes_before_decoding(tmp_path, capsys):
    # A set pad bit past the payload's stated length, and a payload one
    # byte short, fail as read_packet fails on them.
    data = b"pad bits stay zero" * 5
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    target = packet_path(out, "data.bin", 5)
    head = read_packet(target)
    assert head.bit_len % 8
    good = target.read_bytes()
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 5, 7)]
    restored = tmp_path / "r.bin"
    for blob, message in ((good[:-1] + bytes([good[-1] | 0x80]),
                           "payload has set bits beyond its stated length"),
                          (good[:-1], f"payload is {(head.bit_len + 7) // 8 - 1} bytes")):
        target.write_bytes(blob)
        with pytest.raises(ValueError, match=message):
            read_packet(target)
        assert run(["decode", *packs, "--out", str(restored)]) == 1
        assert message in capsys.readouterr().err
        assert not restored.exists()


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
    for kind, edit, *messages in (
            ("sxor", ("K=3", "K=4"), mismatch, "data.bin.sxmeta differs in K"),
            ("systematic", ("x=1,2,3", "x=2,3,4"), mismatch, "data.bin.sxmeta differs in x"),
            ("sxor", ("g=0xb", "g=0xd"), mismatch, "data.bin.sxmeta differs in g"),
            ("sxor", ("len=32", "len=1e3"), "data.bin.sxmeta: len='1e3' is not"),
            ("sxor", ("len=32", "len="), "data.bin.sxmeta: len='' is not"),
            ("sxor", ("len=32", "len=\u00e932"), "data.bin.sxmeta: non-ASCII byte 0xc3 at offset "),
            ("sxor", ("len=32", "len=32 len=5"),
             "data.bin.sxmeta: line 1, field 2: repeated field 'len'"),
            ("sxor", ("K=3", "K=3x"), "data.bin.sxmeta: line 1: K, N and m must be decimal"),
            ("sxor", ("K=3", "K=3 k=3"), "data.bin.sxmeta: line 1: unknown fields ['k']"),
            ("sxor", ("len=32", "32"), "data.bin.sxmeta: line 1, field 1: expected key=value"),
            ("sxor", ("\n", "\nK=3\n"),
             "data.bin.sxmeta: line 2: a sidecar holds one line of fields")):
        src, out = encode_file(tmp_path, data, ["--kind", kind, "--k", "3", "--n", "7"])
        sidecar = out / "data.bin.sxmeta"
        text = sidecar.read_text(encoding="ascii")
        assert edit[0] in text
        sidecar.write_text(text.replace(*edit), encoding="utf-8")
        packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
        assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 1
        err = capsys.readouterr().err
        assert all(message in err for message in messages), err
        assert not (tmp_path / "r.bin").exists()


def test_decode_refuses_an_oversized_sidecar(tmp_path, capsys):
    data = b"a sidecar is one short line" * 2
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    os.truncate(out / "data.bin.sxmeta", 1 << 30)  # sparse: no GiB is written
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    start = time.perf_counter()
    assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 1
    assert time.perf_counter() - start < 1
    assert "data.bin.sxmeta: larger than the limit of 1024 bytes" in capsys.readouterr().err
    assert not (tmp_path / "r.bin").exists()


def test_decode_compares_sidecar_fields_as_values(tmp_path):
    data = b"hex digits have two cases" * 2
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "7"])
    sidecar = out / "data.bin.sxmeta"
    sidecar.write_text(sidecar.read_text().replace("g=0xb", "g=0xB"))
    restored = tmp_path / "r.bin"
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 5, 7)]
    assert run(["decode", *packs, "--out", str(restored)]) == 0
    assert restored.read_bytes() == data


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


def test_compare_rejects_code_flags(capsys):
    for extra, flag in ((["--n", "15", "--g", "0x19"], "--g"),
                        (["--kind", "zd3"], "--kind"),
                        (["--k", "3"], "--k"),
                        (["--x", "1,2"], "--x"),
                        (["--matrix", "/nonexistent"], "--matrix")):
        assert run(["analyze", "--compare", *extra]) == 2
        captured = capsys.readouterr()
        assert f"usage error: {flag} cannot be combined with --compare" in captured.err
        assert not captured.out


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


def test_classify_rejects_too_many_tuples(capsys):
    start = time.perf_counter()
    assert run(["classify", "--k", "15", "--n", "31"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "C(31, 15) = 300540195" in err and str(MAX_CLASSIFY_TUPLES) in err, err


def test_classify_rejects_too_much_work(capsys):
    # C(3000, 1) = 3000 tuples pass the tuple limit, but N = 3000 is not
    # 2^m - 1, so each would build its own 1 x 3000 matrix.
    start = time.perf_counter()
    assert run(["classify", "--k", "1", "--n", "3000", "--g", "0x1053"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "building 3000 matrices" in err and str(MAX_CLASSIFY_WORK) in err, err


def test_check_rejects_too_many_subsets(capsys):
    start = time.perf_counter()
    assert run(["check", "--k", "8", "--n", "31", "--g", "0x25"]) == 1
    assert time.perf_counter() - start < 1
    err = capsys.readouterr().err
    assert "walks 11460948 column subsets" in err and str(MAX_CHECK_SUBSETS) in err, err


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


def test_floods_of_matrix_text_are_refused_at_once(tmp_path):
    # Under a 1 x 1 header: 3 MiB of rows, refused after the second, and
    # one 16 MiB row, refused after 133 characters of it; and a 16 MiB
    # header line, refused after 1025.
    head = "sxorgen v1 kind=user K=1 N=1 m=0 g=0x0\n"
    rows, row, header = (tmp_path / f"{name}.sxorgen" for name in ("rows", "row", "header"))
    rows.write_text(head + "ab\n" * (1 << 20))
    row.write_text(head + "0" * (16 << 20) + "1\n")
    header.write_text(head[:-1] + " " * (16 << 20) + "\n1\n")
    # A fresh interpreter times one call, then traces a second one's
    # allocations: a child's ru_maxrss would start at this process's peak.
    probe = ("import sys, time, tracemalloc\n"
             "from sxor.cli import main\n"
             "start = time.perf_counter()\n"
             "code = main(['matrix', 'load', sys.argv[1]])\n"
             "seconds = time.perf_counter() - start\n"
             "tracemalloc.start()\n"
             "main(['matrix', 'load', sys.argv[1]])\n"
             "print(code, seconds, tracemalloc.get_traced_memory()[1] / 2**20)\n")
    for path, message in ((rows, "line 3: expected 1 entry rows, found more"),
                          (row, "line 2: the rows hold more than 132 characters"),
                          (header, "line 1: header is longer than 1024 characters")):
        proc = subprocess.run([sys.executable, "-c", probe, str(path)], capture_output=True,
                              text=True, check=True, env=dict(os.environ, PYTHONPATH=SRC))
        code, seconds, peak_mib = proc.stdout.split()
        assert code == "1"
        assert message in proc.stderr
        assert float(seconds) < 0.05
        assert float(peak_mib) < 5
        with pytest.raises(MatrixFormatError, match=message):
            load_matrix(io.StringIO(path.read_text()))


def test_usage_errors_exit_two(tmp_path, capsys):
    assert run([]) == 2
    assert run(["decode"]) == 2  # missing --out and packets
    assert run(["decode", "a.p1.sxp", "--out", "r.bin", "--decoder", "zigzag"]) == 2  # no such option
    assert run(["encode", "--kind", "sxor", "--k", "3", "--n", "7",
                str(tmp_path / "missing.bin"),
                "--out-dir", str(tmp_path)]) == 1  # unreadable input
    capsys.readouterr()


GOLDEN = Path(__file__).resolve().parent / "golden"


@pytest.mark.parametrize("golden, args", [
    ("analyze-sxor.txt", ["analyze", "--kind", "sxor", "--k", "4", "--n", "7", "--g", "0xB"]),
    ("analyze-systematic.json", ["analyze", "--kind", "systematic", "--k", "3", "--n", "7",
                                 "--x", "1,3,4", "--format", "json"]),
    ("analyze-zd3.json", ["analyze", "--kind", "zd3", "--format", "json"]),
    ("compare.md", ["analyze", "--compare"]),
    ("compare.json", ["analyze", "--compare", "--format", "json"]),
    ("compare-n3.md", ["analyze", "--compare", "--n", "3"]),
    ("classify.md", ["classify", "--k", "3", "--n", "7", "--g", "0xB"]),
    ("classify.json", ["classify", "--k", "3", "--n", "7", "--g", "0xB", "--format", "json"]),
    ("matrix-load.txt", ["matrix", "load", str(GOLDEN / "sxor-3-7.sxorgen")]),
    ("sxor-3-7.sxorgen", ["matrix", "print", "--kind", "sxor", "--k", "3", "--n", "7"]),
    ("classify-4-15.json", ["classify", "--k", "4", "--n", "15", "--g", "0x13",
                            "--format", "json"]),
    ("systematic-10-14.sxorgen", ["matrix", "print", "--kind", "systematic",
                                  "--k", "10", "--n", "14"]),
])
def test_stdout_matches_golden(golden, args, capsys):
    # Each file holds a command's whole stdout, byte for byte.
    assert run(args) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text(encoding="ascii")


def test_matrix_print_header_matches_golden(capsys):
    assert run(["matrix", "print", "--kind", "systematic", "--k", "3", "--n", "7",
                "--x", "1,3,4"]) == 0
    header = capsys.readouterr().out.splitlines(keepends=True)[0]
    assert header == (GOLDEN / "matrix-print-header.txt").read_text(encoding="ascii")


def test_readme_cli_examples_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [words[1:] for words in lines if words[:1] == ["sxor"]]
    assert len(commands) >= 8
    parser = _build_parser()
    for words in commands:
        parser.parse_args(words)  # argparse exits on an unknown flag


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sxor", "matrix", "print", "--kind", "zd3"],
                          capture_output=True, text=True, check=True)
    mat = parse_matrix(proc.stdout)
    assert mat.spec.kind == "zd3"
