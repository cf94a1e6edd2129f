"""Print the cost of `zigzag_decode` over all 20 survivor sets of zd3; check every restore.

    PYTHONPATH=src python tools/zigzag_cost.py [--repeats R]

An object is three seeded random sources of a third of its size each,
encoded with the zd3 code, as in perfbench's zigzag-zd3 workload.  For
each survivor set the script prints:

- ``us``: microseconds per ``zigzag_decode`` of a 3 KiB object, the
  least of R calls;
- ``stage``: ``word`` when every source is solved word-wide (peeled
  whole, or two left sources solved by one division), ``per-bit`` when
  the decode reaches the per-bit stage.

Then, each in a fresh child process (this script, run with ``--rss``),
the sets (1, 4, 5) and (4, 5, 6) decode a 96 KiB object, and the script
prints the child's peak RSS (``ru_maxrss``) and how far decoding raised
it above the child's peak before the call.  It exits 1 when any restore
differs from its sources, and never on a timing.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import subprocess
import sys
import time
from itertools import combinations
from pathlib import Path

from sxor import codec, codes

SIZE = 3072  # bytes per object in the timed table
RSS_SIZE = 96 * 1024  # bytes per object in the RSS children
RSS_SETS = ((1, 4, 5), (4, 5, 6))
SETS = tuple(combinations(range(1, 7), 3))


def object_packets(mat: codes.GenMatrix, size: int) -> tuple[list[int], list[codec.Packet]]:
    rng = random.Random(size)
    length = 8 * (size // 3)
    sources = [rng.getrandbits(length) for _ in range(3)]
    return sources, codec.encode(mat, sources, length)


def restores(mat, chosen, sources) -> bool:
    return [s.mask for s in codec.zigzag_decode(mat, chosen)] == sources


def run_rss(survivors: tuple[int, ...]) -> dict:
    mat = codes.builtin_zd_k3()
    sources, packets = object_packets(mat, RSS_SIZE)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ok = restores(mat, [packets[j - 1] for j in survivors], sources)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {"ok": ok, "peak": peak / 1024, "rise": (peak - before) / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="timed calls per set (default 5)")
    parser.add_argument("--rss", type=int, help=argparse.SUPPRESS)  # decode one RSS set here
    args = parser.parse_args(argv)
    if args.rss is not None:
        print(json.dumps(run_rss(RSS_SETS[args.rss])))
        return 0
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    mat = codes.builtin_zd_k3()
    sources, packets = object_packets(mat, SIZE)
    peel_bits = codec._peel_bits
    per_bit = []

    def counting(*a):
        per_bit.append(True)
        return peel_bits(*a)

    wrong = 0
    print(f"zd3, {SIZE}-byte objects, µs per zigzag_decode, least of {args.repeats}")
    print(f"{'survivors':10} {'us':>10} {'stage':>8}")
    for survivors in SETS:
        chosen = [packets[j - 1] for j in survivors]
        per_bit.clear()
        codec._peel_bits = counting
        try:
            ok = restores(mat, chosen, sources)
        finally:
            codec._peel_bits = peel_bits
        times = []
        for _ in range(args.repeats):
            start = time.perf_counter()
            codec.zigzag_decode(mat, chosen)
            times.append(time.perf_counter() - start)
        wrong += not ok
        print(f"{','.join(map(str, survivors)):10} {min(times) * 1e6:10.1f} "
              f"{'per-bit' if per_bit else 'word':>8}{'' if ok else '  RESTORE DIFFERS'}")
    print(f"{RSS_SIZE}-byte objects, one decode per child")
    print(f"{'survivors':10} {'rss MiB':>10} {'+MiB':>8}")
    for case, survivors in enumerate(RSS_SETS):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--rss", str(case)],
                             check=True, capture_output=True, text=True).stdout
        row = json.loads(out)
        wrong += not row["ok"]
        print(f"{','.join(map(str, survivors)):10} {row['peak']:10.1f} {row['rise']:8.1f}"
              f"{'' if row['ok'] else '  RESTORE DIFFERS'}")
    if wrong:
        return 1
    print("all restores match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
