"""Check that `sxor encode` and `sxor decode` peak RSS does not grow with the file.

    PYTHONPATH=src python tools/memory_roundtrip.py [--dir DIR]

For each code below and each of SIZES (MiB), this writes a seeded random
file, encodes it with `python -m sxor encode`, loses the listed packets,
decodes the rest with `python -m sxor decode`, and compares the restore
with the input byte for byte.  Each child's peak RSS is its `ru_maxrss`
from `os.wait4`.  The check fails when a restore differs, a child fails,
or a child's peak at 64 MiB is more than 1.1 times its peak at 16 MiB.  This process holds 1 MiB at a time, so that it stays
below the children it measures.
"""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tempfile
import time
from pathlib import Path

MIB = 1 << 20
SIZES = (16, 64)  # MiB; a peak at the second may be at most RATIO times one at the first
RATIO = 1.1

# (kind, K, N, lost packets): the codes of the README's memory figures.
CASES = (("systematic", 10, 14, (1, 3, 5, 7)), ("sxor", 4, 7, (1, 2, 3)))


def child(argv: list[str]) -> tuple[float, float]:
    """Run `python -m sxor argv`; returns (seconds, peak RSS in MiB)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "sxor", *argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    err = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.stderr.close()
    if os.waitstatus_to_exitcode(status):
        sys.exit(f"sxor {' '.join(argv)} failed: {err.decode(errors='replace')}")
    return time.perf_counter() - start, usage.ru_maxrss / 1024


def same_bytes(a: Path, b: Path) -> bool:
    with a.open("rb") as fa, b.open("rb") as fb:
        while True:
            chunk = fa.read(MIB)
            if chunk != fb.read(MIB):
                return False
            if not chunk:
                return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--dir", help="work directory (default: a new temporary one)")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(dir=args.dir) as tmp:
        work = Path(tmp)
        peaks: dict[tuple[str, str, int], float] = {}
        failed = False
        for kind, k, n, lost in CASES:
            code = f"{kind} {k}/{n}"
            for size in SIZES:
                src = work / "object.bin"
                rng = random.Random(size)
                with src.open("wb") as fh:
                    for _ in range(size):
                        fh.write(rng.randbytes(MIB))
                packets = work / "packets"
                enc_s, peaks[code, "encode", size] = child(
                    ["encode", "--kind", kind, "--k", str(k), "--n", str(n), str(src),
                     "--out-dir", str(packets)])
                survivors = [i for i in range(1, n + 1) if i not in lost][:k]
                restored = work / "restored.bin"
                dec_s, peaks[code, "decode", size] = child(
                    ["decode", *(str(packets / f"object.bin.p{i}.sxp") for i in survivors),
                     "--out", str(restored)])
                same = same_bytes(src, restored)
                failed |= not same
                print(f"{code}, lost {','.join(map(str, lost))}, {size} MiB: "
                      f"encode {enc_s:.2f} s {peaks[code, 'encode', size]:.1f} MiB, "
                      f"decode {dec_s:.2f} s {peaks[code, 'decode', size]:.1f} MiB, "
                      f"restore {'identical' if same else 'DIFFERS'}")
                for f in (src, restored, *packets.iterdir()):
                    f.unlink()
            for op in ("encode", "decode"):
                small, large = (peaks[code, op, size] for size in SIZES)
                if large > RATIO * small:
                    print(f"{code}: {op} peak {large:.1f} MiB at {SIZES[1]} MiB is over "
                          f"{RATIO} x {small:.1f} MiB at {SIZES[0]} MiB")
                    failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
