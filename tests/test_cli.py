"""Tests for the command-line interface, driven through main()."""

import io
import json
import os
import shlex
import shutil
import stat
import struct
import subprocess
import sys
import time
import zlib
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import pytest

from sxor import cli, codec
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
    assert meta == "len=12 kind=sxor K=3 N=7 m=3 g=0xb crc32=9270c965\n"
    # 12 bytes split across 3 sources: L = 32 bits, plus the column overhead.
    overheads = [0, 2, 2, 2, 2, 2, 2]
    for i in range(1, 8):
        p = read_packet(packet_path(out, "data.bin", i))
        assert p.index == i
        assert p.source_len == 32
        assert p.bit_len == 32 + overheads[i - 1]


def test_sidecar_crc32_of_a_file_shorter_than_k(tmp_path):
    # Five bytes over K = 8 sources of one byte: the last three are only
    # zero padding, and the crc32 covers the file's bytes alone.
    data = b"short"
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "8", "--n", "15"])
    assert (out / "data.bin.sxmeta").read_text().endswith(f" crc32={zlib.crc32(data):08x}\n")
    restored = tmp_path / "r.bin"
    assert run(["decode", *(str(packet_path(out, "data.bin", i)) for i in range(8, 16)),
                "--out", str(restored)]) == 0
    assert restored.read_bytes() == data


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
    data = bytes(range(256)) * (3 * (2 * codec._STRIPE // 8 + 100) // 256)
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
    # packet_to_bytes of the library's encode, with the file's length and
    # crc32 in their headers, and every set restores.
    monkeypatch.setattr(codec, "_STRIPE", stripe)
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
            p = replace(p, file_len=len(data), crc32=zlib.crc32(data))
            assert packet_path(out, "data.bin", p.index).read_bytes() == packet_to_bytes(p)
        restored = tmp_path / "r.bin"
        for idx in combinations(range(1, mat.spec.n + 1), k):
            packs = [str(packet_path(out, "data.bin", i)) for i in idx]
            extra = ["--matrix", str(mfile)] if "--matrix" in flags else []
            assert run(["decode", *packs, "--out", str(restored), *extra]) == 0
            assert restored.read_bytes() == data, (flags, idx)


@pytest.mark.parametrize("stripe", [8, 24, 1 << 19])
def test_verbatim_streams_hold_the_library_bytes(tmp_path, monkeypatch, stripe):
    # Unit columns are written from the source bytes as read, and a source
    # whose packet survived is copied; the last source is short, and the
    # sources are no whole number of stripes.  A decode from the packets
    # at x makes no int at all.
    monkeypatch.setattr(codec, "_STRIPE", stripe)
    pushed = []

    class Run(codec._Run):
        def push(self, chunks, bits, final=False):
            pushed.append(list(chunks))
            return super().push(chunks, bits, final)

    monkeypatch.setattr(codec, "_Run", Run)
    flags = ["--kind", "systematic", "--k", "3", "--n", "7", "--x", "2,4,5"]
    data = bytes(range(3, 256)) * 3 + b"!"  # 760 bytes: sources of 254, 254 and 252
    src, out = encode_file(tmp_path, data, flags)
    mat = _resolve_matrix(_build_parser().parse_args(["encode", *flags, "x"]))
    sources = [int.from_bytes(data[i * 254:(i + 1) * 254], "little") for i in range(3)]
    for p in encode(mat, sources, 8 * 254):
        p = replace(p, file_len=len(data), crc32=zlib.crc32(data))
        assert packet_path(out, "data.bin", p.index).read_bytes() == packet_to_bytes(p)
    restored = tmp_path / "r.bin"
    for survivors in ((2, 4, 5), (1, 3, 6), (3, 6, 7), (2, 6, 7), (1, 4, 7)):
        pushed.clear()
        packs = [str(packet_path(out, "data.bin", i)) for i in survivors]
        assert run(["decode", *packs, "--out", str(restored)]) == 0
        assert restored.read_bytes() == data, survivors
        assert (survivors == (2, 4, 5)) == all(c is None for chunks in pushed for c in chunks)


def test_header_errors_name_the_packet_file(tmp_path, capsys):
    data = bytes(range(200)) * 3
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "5"])
    packs = [packet_path(out, "data.bin", i) for i in (1, 2, 4)]
    bad_magic = packs[1]
    bad_magic.write_bytes(b"XXXX" + bad_magic.read_bytes()[4:])
    short = tmp_path / "short.sxp"
    short.write_bytes(packs[0].read_bytes()[:10])
    restored = tmp_path / "r.bin"
    for files, message in ((packs, f"error: {bad_magic}: bad magic b'XXXX'"),
                           ([short, *packs[2:]], f"error: {short}: truncated header")):
        assert run(["decode", *map(str, files), "--out", str(restored)]) == 1
        assert message in capsys.readouterr().err
        assert not restored.exists()


def test_decode_names_the_packet_whose_header_breaks_a_field_rule(tmp_path, capsys):
    # _open_packet checks the fields packet_from_bytes checks: index 0 and
    # N + 1, L = 0, and payload_bits below L, each with a payload of the
    # stated length, fail with the field's message after the packet's path.
    data = b"header fields" * 7
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    target = packet_path(out, "data.bin", 5)
    blob = target.read_bytes()
    index, x_len, length, bits = struct.unpack_from("<HHQQ", blob, 15)
    assert (index, x_len) == (5, 0)
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 5, 7)]
    restored = tmp_path / "r.bin"
    for fields, message in (((0, length, bits), "packet index 0 outside 1..7"),
                            ((8, length, bits), "packet index 8 outside 1..7"),
                            ((5, 0, bits), "source length must be positive"),
                            ((5, length, length - 1),
                             "payload length cannot be shorter than the source length")):
        target.write_bytes(blob[:15] + struct.pack("<HHQQ", fields[0], 0, *fields[1:])
                           + blob[35:47 + (fields[2] + 7) // 8])
        assert run(["decode", *packs, "--out", str(restored)]) == 1
        assert f"error: {target}: {message}\n" in capsys.readouterr().err
        assert not restored.exists()


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


@pytest.mark.parametrize("change, survivors", [(-100, (1, 2, 3)), (-100, (1, 4, 5)),
                                               (10, (1, 2, 3)), (10, (1, 4, 5))])
def test_decode_reads_exactly_the_payload_its_header_states(tmp_path, monkeypatch, capsys,
                                                            change, survivors):
    # Packet 1 loses its last 100 bytes, or gains 10, after it was opened
    # and checked: a short payload fails naming the packet and leaves no
    # --out, and bytes past the stated payload are not read.
    data = bytes(range(256)) * 1172
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "5"])
    target = packet_path(out, "data.bin", 1)
    size = target.stat().st_size
    opened = cli._open_packet

    def open_then_change(path):
        fh, head = opened(path)
        if Path(path) == target:
            if change < 0:
                os.truncate(target, size + change)
            else:
                with open(target, "ab") as fa:
                    fa.write(bytes(range(1, change + 1)))
        return fh, head

    monkeypatch.setattr(cli, "_open_packet", open_then_change)
    restored = tmp_path / "r.bin"
    before = sorted(tmp_path.iterdir())
    code = run(["decode", *(str(packet_path(out, "data.bin", i)) for i in survivors),
                "--out", str(restored)])
    if change < 0:
        assert code == 1
        assert f"error: packet 1 ({target}) ended early" in capsys.readouterr().err
        assert sorted(tmp_path.iterdir()) == before
    else:
        assert code == 0
        assert restored.read_bytes() == data


def test_encode_of_an_input_that_shrinks_fails_naming_it(tmp_path, monkeypatch, capsys):
    # The failed encode writes nothing: packets of the same name from an
    # earlier encode stay as they were, and no new file is left behind.
    flags = ["--kind", "systematic", "--k", "3", "--n", "5"]
    src, out = encode_file(tmp_path, b"an earlier object" * 9, flags)
    (out / "data.bin.sxmeta").unlink()
    umask = os.umask(0)
    os.umask(umask)
    assert {stat.S_IMODE(f.stat().st_mode) for f in out.iterdir()} == {0o666 & ~umask}
    before = {f.name: f.read_bytes() for f in out.iterdir()}
    data = bytes(range(256)) * 1172
    src.write_bytes(data)
    encode_stream = cli._encode_file

    def shrink_then_encode(mat, fh, size, dests):
        os.truncate(src, size - 100)
        return encode_stream(mat, fh, size, dests)

    monkeypatch.setattr(cli, "_encode_file", shrink_then_encode)
    assert run(["encode", *flags, str(src), "--out-dir", str(out)]) == 1
    assert f"error: input file {src} ended early" in capsys.readouterr().err
    assert {f.name: f.read_bytes() for f in out.iterdir()} == before


def test_encode_holds_only_its_input_open(tmp_path):
    # A child lowers its own soft limit to 64 open files and holds 20 more
    # descriptors: 100 packets and the sidecar still encode, since each
    # packet is open only while a stripe is written to it, and any two of
    # them restore the input.
    pytest.importorskip("resource")
    src = tmp_path / "object.bin"
    data = bytes(range(256)) * 4
    src.write_bytes(data)
    out = tmp_path / "packets"
    probe = ("import os, resource, sys\n"
             "from sxor.cli import main\n"
             "hard = resource.getrlimit(resource.RLIMIT_NOFILE)[1]\n"
             "resource.setrlimit(resource.RLIMIT_NOFILE, (64, hard))\n"
             "held = [os.open(os.devnull, os.O_RDONLY) for _ in range(20)]\n"
             "sys.exit(main(sys.argv[1:]))\n")
    proc = subprocess.run([sys.executable, "-c", probe, "encode", "--kind", "sxor", "--k", "2",
                           "--n", "100", str(src), "--out-dir", str(out)],
                          capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(f.name for f in out.iterdir()) == sorted(
        [f"object.bin.p{j}.sxp" for j in range(1, 101)] + ["object.bin.sxmeta"])
    restored = tmp_path / "r.bin"
    for pair in ((1, 2), (37, 100)):
        assert run(["decode", *(str(packet_path(out, "object.bin", j)) for j in pair),
                    "--out", str(restored)]) == 0
        assert restored.read_bytes() == data


def test_decode_wrong_packet_count(tmp_path):
    data = b"shortfall" * 4
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (4, 5)]
    assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 2


def test_decode_names_the_packets_whose_code_differs(tmp_path, capsys):
    # Every header bit of packet 1 whose flip leaves a valid header of
    # another code: decode compares the K codes before it reads K or the
    # kind from any one packet, so each flip exits 1 naming the packets
    # under each code, not 2 for a packet count or a missing --matrix.
    data = bytes((i * 73 + 11) % 256 for i in range(40))
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "5"])
    target = packet_path(out, "data.bin", 1)
    clean = target.read_bytes()
    fh, head = codec._open_packet(target)
    fh.close()
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    restored = tmp_path / "r.bin"
    differing = set()
    for bit in range(8 * head.offset):
        damaged = bytearray(clean)
        damaged[bit // 8] ^= 1 << bit % 8
        target.write_bytes(damaged)
        try:
            fh, flipped = codec._open_packet(target)
        except ValueError:
            continue  # refused naming the packet file
        fh.close()
        if flipped.spec == head.spec:
            continue
        fields = flipped.spec.fields()
        differing.update(key for key, v in head.spec.fields().items() if fields[key] != v)
        assert run(["decode", *packs, "--out", str(restored)]) == 1, bit
        err = capsys.readouterr().err
        assert err.startswith("error: the packets disagree on spec: "), (bit, err)
        assert " in packet 1; " in err and err.endswith(" in packets 2, 3\n"), (bit, err)
    target.write_bytes(clean)
    assert {"kind", "K"} <= differing
    assert not restored.exists()


def test_decode_detects_corruption(tmp_path):
    data = b"integrity matters" * 11
    src, out = encode_file(tmp_path, data, ["--kind", "zd3"])
    target = packet_path(out, "data.bin", 4)
    p = read_packet(target)
    write_packet(replace(p, bits=Poly2(p.bits.mask ^ 1)), target)
    packs = [str(packet_path(out, "data.bin", i)) for i in (4, 5, 6)]
    assert run(["decode", *packs, "--out", str(tmp_path / "r.bin")]) == 1


def test_decode_needs_no_sidecar(tmp_path):
    # The headers hold the file's length and crc32, so packets moved away
    # from the sidecar, or renamed without the .pN.sxp suffix, restore it.
    data = b"where did the sidecar go" * 3
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    moved = tmp_path / "moved"
    moved.mkdir()
    for i in (1, 2, 3):
        shutil.copy(packet_path(out, "data.bin", i), moved)
    for i in (4, 5, 6):
        shutil.copy(packet_path(out, "data.bin", i), out / f"part{i}")
    (out / "data.bin.sxmeta").unlink()
    for packs in ([str(moved / f"data.bin.p{i}.sxp") for i in (1, 2, 3)],
                  [str(out / f"part{i}") for i in (4, 5, 6)]):
        restored = tmp_path / "r.bin"
        assert run(["decode", *packs, "--out", str(restored)]) == 0
        assert restored.read_bytes() == data
        restored.unlink()


def test_decode_has_no_length_option(tmp_path, capsys):
    # The length comes from the headers alone: --length is an unknown
    # option, a usage error before any packet is read.
    data = bytes(range(60))
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    restored = tmp_path / "r.bin"
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    for length in ("5", "60", "-5"):
        assert run(["decode", *packs, "--out", str(restored), "--length", length]) == 2
        assert "unrecognized arguments: --length" in capsys.readouterr().err
    assert not restored.exists()


def set_file_fields(path, **fields):
    # Rewrite a packet file with other file_len or crc32 header fields.
    write_packet(replace(read_packet(path), **fields), path)


def test_decode_checks_length_before_decoding(tmp_path, capsys):
    data = bytes(range(60))
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "7"])
    parity = packet_path(out, "data.bin", 5)
    p = read_packet(parity)
    write_packet(replace(p, bits=Poly2(p.bits.mask ^ 1)), parity)
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 5)]
    restored = tmp_path / "r.bin"
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert "exceeds" not in capsys.readouterr().err  # the corruption is caught
    for path in packs:
        set_file_fields(path, file_len=61)
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert capsys.readouterr().err == "error: file_len=61 exceeds decoded size 60\n"
    assert not restored.exists()


def test_decode_rejects_sources_of_partial_bytes(tmp_path, capsys):
    mat = build_sxor(3, 7, 0xB)
    for p in encode(mat, [0xABC, 0x123, 0xFFF], 12)[:3]:
        write_packet(replace(p, file_len=4), tmp_path / f"data.bin.p{p.index}.sxp")
    packs = [str(tmp_path / f"data.bin.p{i}.sxp") for i in (1, 2, 3)]
    restored = tmp_path / "r.bin"
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert "source length 12 is not a whole number of bytes" in capsys.readouterr().err
    assert not restored.exists()


def test_decode_refuses_packets_that_disagree_on_the_file(tmp_path, capsys):
    # Packets of one code and source length, but of two files: the error
    # names the field and the packets under each value.  Packets that hold
    # no file (the library's, file_len=0) are refused too.
    flags = ["--kind", "sxor", "--k", "3", "--n", "7"]
    for name in "abc":
        (tmp_path / name).mkdir()
    first = encode_file(tmp_path / "a", b"first file, 60 bytes long!" * 2 + b"12345678", flags)[1]
    same_size = encode_file(tmp_path / "b", b"other file, 60 bytes long!" * 2 + b"12345678", flags)[1]
    shorter = encode_file(tmp_path / "c", b"first file, 59 bytes long!" * 2 + b"1234567", flags)[1]
    restored = tmp_path / "r.bin"
    crcs = [f"{read_packet(packet_path(d, 'data.bin', 1)).crc32:08x}" for d in (first, same_size)]
    for dirs, message in (((first, first, same_size),
                           f"the packets disagree on crc32: crc32={crcs[0]} in packets 1, 2; "
                           f"crc32={crcs[1]} in packet 3"),
                          ((shorter, first, first),
                           "the packets disagree on file_len: file_len=59 in packet 1; "
                           "file_len=60 in packets 2, 3")):
        packs = [str(packet_path(d, "data.bin", i)) for i, d in enumerate(dirs, 1)]
        assert run(["decode", *packs, "--out", str(restored)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    packs = [str(packet_path(first, "data.bin", i)) for i in (1, 2, 3)]
    for path in packs:
        set_file_fields(path, file_len=0, crc32=0)
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert capsys.readouterr().err == ("error: the packets hold no file (file_len=0): "
                                       "sxor encode did not write them\n")
    assert not restored.exists()


def test_decode_checks_the_restored_bytes_against_the_header_crc32(tmp_path, capsys):
    # A flipped bit in a systematic packet decodes to other bytes: the
    # headers' crc32 catches them, and --out stays as it was.
    data = bytes(range(100))
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "7"])
    target = packet_path(out, "data.bin", 2)
    p = read_packet(target)
    write_packet(replace(p, bits=Poly2(p.bits.mask ^ 1 << 40)), target)
    wrong = bytearray(data)
    wrong[34 + 5] ^= 1  # source 2 starts at byte ceil(100 / 3)
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    restored = tmp_path / "r.bin"
    restored.write_bytes(b"before")
    assert run(["decode", *packs, "--out", str(restored)]) == 1
    assert capsys.readouterr().err == (
        f"error: the restored bytes have crc32={zlib.crc32(wrong):08x}, but the packet headers "
        f"state crc32={zlib.crc32(data):08x}\n")
    assert restored.read_bytes() == b"before"


def test_decode_ignores_the_sidecar(tmp_path):
    # Decode never opens the sidecar: a 1 GiB one, one with other fields,
    # or none at all changes nothing.
    data = b"a sidecar is one short line" * 2
    src, out = encode_file(tmp_path, data, ["--kind", "systematic", "--k", "3", "--n", "7"])
    sidecar = out / "data.bin.sxmeta"
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 5, 7)]
    restored = tmp_path / "r.bin"
    for change in (lambda: os.truncate(sidecar, 1 << 30),  # sparse: no GiB is written
                   lambda: sidecar.write_text("len=5 kind=sxor K=4 N=7 m=3 g=0xd crc32=z\n"),
                   sidecar.unlink):
        change()
        start = time.perf_counter()
        assert run(["decode", *packs, "--out", str(restored)]) == 0
        assert time.perf_counter() - start < 1
        assert restored.read_bytes() == data
        restored.unlink()


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
    bad.write_text("sxorgen v1 kind=user K=3 N=2 m=0 g=0x0\n1,0\n0,1\n1,1\n")
    assert run(["check", "--matrix", str(bad)]) == 1
    assert capsys.readouterr().err == "error: more sources than packets can never be MDS\n"


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
    for text, message in (("not a matrix\n", "line 1, field 1: expected 'sxorgen v1' header"),
                          ("sxorgen v1 kind=user K=1 N=2 m=-1 g=0x0\n1,1\n",
                           "line 1: m must be nonnegative")):
        bad.write_text(text)
        assert run(["matrix", "load", str(bad)]) == 1
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"


def test_matrix_file_with_a_non_ascii_byte_is_refused_naming_it(tmp_path, capsys):
    bad = tmp_path / "bad.sxorgen"
    bad.write_bytes(b"sxorgen v1 kind=user K=2 N=3 m=0 g=0x0\n1,1,0\n0,\xff,1\n")
    src, out = encode_file(tmp_path, b"abcd", ["--kind", "sxor", "--k", "2", "--n", "3"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (2, 3)]
    for args in (["matrix", "load", str(bad)], ["check", "--matrix", str(bad)],
                 ["analyze", "--matrix", str(bad)],
                 ["decode", *packs, "--matrix", str(bad), "--out", str(tmp_path / "r.bin")]):
        assert run(args) == 1
        err = capsys.readouterr().err
        assert err == f"error: {bad}: line 3: non-ASCII byte 0xff at column 3\n", (args, err)
    assert not (tmp_path / "r.bin").exists()


def test_decode_names_the_fields_a_matrix_file_differs_in(tmp_path, capsys):
    data = b"which matrix was it" * 3
    src, out = encode_file(tmp_path, data, ["--kind", "sxor", "--k", "3", "--n", "7"])
    packs = [str(packet_path(out, "data.bin", i)) for i in (1, 2, 3)]
    mfile = tmp_path / "m.sxorgen"
    restored = tmp_path / "r.bin"
    for code, fields in ((["--k", "4", "--n", "7"], "K"), (["--k", "3", "--n", "7", "--g", "0xd"], "g"),
                         (["--k", "3", "--n", "5"], "N")):
        assert run(["matrix", "print", "--kind", "sxor", *code, "--out", str(mfile)]) == 0
        assert run(["decode", *packs, "--matrix", str(mfile), "--out", str(restored)]) == 1
        assert capsys.readouterr().err == ("error: --matrix does not match the packet headers: "
                                           f"{mfile} differs in {fields}\n")
    assert not restored.exists()
    assert run(["matrix", "print", "--kind", "sxor", "--k", "3", "--n", "7", "--out", str(mfile)]) == 0
    assert run(["decode", *packs, "--matrix", str(mfile), "--out", str(restored)]) == 0
    assert restored.read_bytes() == data


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
    src = tmp_path / "x.bin"
    src.write_bytes(b"xx")
    encode_to = [str(src), "--out-dir", str(tmp_path)]
    for args, message in (
            (["--kind", "systematic", "--k", "3", "--n", "7", "--x", "1,a,3"],
             "--x must be comma-separated integers, got '1,a,3'"),
            (["--kind", "sxor", "--k", "3"], "kind sxor needs --k and --n (or --matrix)")):
        assert run(["encode", *args, *encode_to]) == 2
        assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not list(tmp_path.rglob("*.sxp"))
    assert run([]) == 2
    assert run(["decode"]) == 2  # missing --out and packets
    assert run(["decode", "a.p1.sxp", "--out", "r.bin", "--decoder", "zigzag"]) == 2  # no such option
    assert run(["encode", "--kind", "sxor", "--k", "3", "--n", "7",
                str(tmp_path / "missing.bin"),
                "--out-dir", str(tmp_path)]) == 1  # unreadable input
    capsys.readouterr()


@pytest.mark.parametrize("command", [["classify"], ["check", "--kind", "sxor"]])
def test_malformed_g_is_a_usage_error(command, capsys):
    # A --g that is not a hex mask is a bad invocation; a hex mask that is
    # not a primitive modulus is a runtime error.
    for g, code, err in (("zz", 2, "usage error: --g must be a hex mask, got 'zz'\n"),
                         ("0x", 2, "usage error: --g must be a hex mask, got '0x'\n"),
                         ("+b", 2, "usage error: --g must be a hex mask, got '+b'\n"),
                         ("0x9", 1, "error: z^3+1 is not a primitive polynomial of degree 3\n")):
        assert run([*command, "--k", "3", "--n", "7", "--g", g]) == code
        assert capsys.readouterr().err == err


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


PARSE_CASES = [
    ["encode", "--help"], ["encode", "x.bin", "--kind", "bad"], ["encode", "x.bin", "--k", "two"],
    ["encode"], ["encode", "x.bin", "--bogus"],
    ["decode", "-h"], ["decode", "a.sxp"], ["decode"], ["decode", "a.sxp", "--out", "r", "--length", "3"],
    ["analyze", "--help"], ["analyze", "--format", "xml"], ["analyze", "--compare", "extra"],
    ["classify", "--help"], ["classify", "--k", "3"], ["classify", "--k", "3", "--n", "x"],
    ["check", "--help"], ["check", "--n"], ["check", "--kind", "sxor", "--zz"],
    ["matrix", "--help"], ["matrix"], ["matrix", "show"], ["matrix", "print", "--help"],
    ["matrix", "print", "--k", "x"], ["matrix", "load", "--help"], ["matrix", "load"],
    ["matrix", "load", "a", "b"],
]


@pytest.mark.parametrize("argv", PARSE_CASES, ids=" ".join)
def test_each_command_parses_as_the_full_tree(argv, capsys, monkeypatch):
    # main builds only the invoked command's parser; its help and its
    # errors for bad arguments are the full tree's, byte for byte.
    with pytest.raises(SystemExit) as full:
        _build_parser().parse_args(argv)
    want = capsys.readouterr()
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command)
                        or _build_parser(command))
    assert run(argv) == full.value.code
    assert capsys.readouterr() == want
    assert built == [argv[0]]


@pytest.mark.parametrize("argv", [[], ["-h"], ["--help"], ["bogus"], ["Encode"], ["--", "encode"]])
def test_no_or_unknown_command_parses_with_the_full_tree(argv, capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "_build_parser", lambda command=None: built.append(command)
                        or _build_parser(command))
    code = run(argv)
    got = capsys.readouterr()
    assert built == [None]
    with pytest.raises(SystemExit) as full:
        _build_parser().parse_args(argv)
    assert (code, got) == (full.value.code, capsys.readouterr())


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
