"""The file contract of ``sxor encode`` and ``sxor decode``.

Small files are encoded in process through ``cli.main``, and each packet
is copied into a directory of its own, with no sidecar anywhere:

- every K-subset of the packets restores the file byte for byte, for
  sxor 3/5 and 4/7, systematic 2/3 and 10/14, and zd3;
- every single-bit flip of every byte of a packet (header, payload and
  pad bits) makes decode exit non-zero and leaves an existing ``--out``
  as it was, for sxor 3/5 and systematic 2/3.  Bit b of a packet is
  flipped in the (b mod m)-th of the m K-subsets that hold the packet,
  so the flips of each packet spread over all of its subsets.
"""

import io
import shutil
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest

from sxor import cli

DATA = bytes((i * 73 + 11) % 256 for i in range(40))

CODES = {
    "sxor 3/5": ["--kind", "sxor", "--k", "3", "--n", "5"],
    "sxor 4/7": ["--kind", "sxor", "--k", "4", "--n", "7"],
    "systematic 2/3": ["--kind", "systematic", "--k", "2", "--n", "3"],
    "systematic 10/14": ["--kind", "systematic", "--k", "10", "--n", "14"],
    "zd3": ["--kind", "zd3"],
}


def quiet(argv):
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(argv)
    assert "Traceback" not in err.getvalue()
    return code


def spread(tmp_path, code):
    # Encode DATA, then copy packet j alone into directory p<j>: the
    # packet paths by index, and K.
    src = tmp_path / "data.bin"
    src.write_bytes(DATA)
    out = tmp_path / "encoded"
    assert quiet(["encode", *CODES[code], str(src), "--out-dir", str(out)]) == 0
    paths = {}
    for packet in out.glob("data.bin.p*.sxp"):
        j = int(packet.name.split(".")[2][1:])
        (tmp_path / f"p{j}").mkdir()
        paths[j] = tmp_path / f"p{j}" / packet.name
        shutil.copy(packet, paths[j])
    shutil.rmtree(out)
    k = int(CODES[code][CODES[code].index("--k") + 1]) if "--k" in CODES[code] else 3
    return paths, k


@pytest.mark.parametrize("code", list(CODES))
def test_any_k_packets_restore_the_file(tmp_path, code):
    paths, k = spread(tmp_path, code)
    restored = tmp_path / "restored.bin"
    for subset in combinations(sorted(paths), k):
        assert quiet(["decode", *(str(paths[j]) for j in subset), "--out", str(restored)]) == 0
        assert restored.read_bytes() == DATA, subset


@pytest.mark.parametrize("code", ["sxor 3/5", "systematic 2/3"])
def test_every_single_bit_flip_of_a_survivor_is_refused(tmp_path, code):
    paths, k = spread(tmp_path, code)
    restored = tmp_path / "restored.bin"
    restored.write_bytes(b"an older restore")
    before = sorted(tmp_path.iterdir())
    subsets = list(combinations(sorted(paths), k))
    for j, path in paths.items():
        clean = path.read_bytes()
        holding = [subset for subset in subsets if j in subset]
        for bit in range(8 * len(clean)):
            damaged = bytearray(clean)
            damaged[bit // 8] ^= 1 << bit % 8
            path.write_bytes(damaged)
            subset = holding[bit % len(holding)]
            argv = ["decode", *(str(paths[i]) for i in subset), "--out", str(restored)]
            assert quiet(argv) != 0, (j, bit, subset)
            assert restored.read_bytes() == b"an older restore"
        path.write_bytes(clean)
    assert sorted(tmp_path.iterdir()) == before  # no temp file left behind
