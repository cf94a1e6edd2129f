"""Print the per-call cost of each stage of a library round trip, and check every restore.

    PYTHONPATH=src python tools/roundtrip_cost.py [--repeats R]

For each object size below, the object is split into K = 5 sources of
ceil(size / 5) bytes (the last zero-padded), as perfbench's small-objects
workload splits it, and encoded with the systematic 5/7 code at the
default modulus.  Each of the 21 sets of two lost packets is parsed from
bytes and decoded with a warm kernel memo.  Times are microseconds per
call, the least of R repeats:

- ``encode``: one call, all seven packets;
- ``to_bytes``: ``packet_to_bytes``, per packet;
- ``from_bytes``: ``packet_from_bytes``, per packet;
- ``map_decode``: per call, over the 21 survivor sets;
- ``div_low``: ``exact_div_low`` per call, replayed with the arguments
  those decodes passed it with a divisor other than 1 (a division by 1
  returns at once);
- ``roundtrip``: encode, serialise all seven, parse five and decode,
  per object, over the 21 sets.

The script exits 1 when any restore differs from its object, and never
on a timing.
"""

from __future__ import annotations

import argparse
import random
import sys
import time
from itertools import combinations

from sxor import codec, codes, default_modulus
from sxor.gf2poly import exact_div_low

K, N = 5, 7
SIZES = (40, 4096, 16384, 65536)  # bytes per object
LOSSES = tuple(combinations(range(1, N + 1), N - K))
COLUMNS = ("encode", "to_bytes", "from_bytes", "map_decode", "div_low", "roundtrip")


def best(fn, calls, repeats: int) -> float:
    """Least over ``repeats`` of the mean time of ``fn(*args)`` over ``calls``, in µs."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - start)
    return min(times) / len(calls) * 1e6


def division_calls(mat, survivor_sets) -> list[tuple]:
    # The arguments map_decode passes exact_div_low over every set, for a
    # divisor other than 1.
    calls = []

    def record(b, h, out_len):
        if h.mask != 1:
            calls.append((b, h, out_len))
        return exact_div_low(b, h, out_len)

    codec.exact_div_low = record
    try:
        for packets in survivor_sets:
            codec.map_decode(mat, packets)
    finally:
        codec.exact_div_low = exact_div_low
    return calls


def measure(mat, size: int, rng: random.Random, repeats: int) -> dict[str, float]:
    data = rng.randbytes(size)
    chunk = -(-size // K)
    length = 8 * chunk
    sources = [int.from_bytes(data[i * chunk:(i + 1) * chunk], "little") for i in range(K)]
    packets = codec.encode(mat, sources, length)
    blobs = [codec.packet_to_bytes(p) for p in packets]
    survivor_sets = [[codec.packet_from_bytes(b) for j, b in enumerate(blobs, 1) if j not in lost]
                     for lost in LOSSES]
    for got in survivor_sets:
        if [s.mask for s in codec.map_decode(mat, got)] != sources:
            sys.exit(f"{size}-byte object: restore without packets "
                     f"{sorted(set(range(1, N + 1)) - {p.index for p in got})} differs")

    def roundtrip(lost):
        wire = [codec.packet_to_bytes(p) for p in codec.encode(mat, sources, length)]
        codec.map_decode(mat, [codec.packet_from_bytes(b) for j, b in enumerate(wire, 1) if j not in lost])

    divisions = division_calls(mat, survivor_sets)
    return {"encode": best(codec.encode, [(mat, sources, length)], repeats),
            "to_bytes": best(codec.packet_to_bytes, [(p,) for p in packets], repeats),
            "from_bytes": best(codec.packet_from_bytes, [(b,) for b in blobs], repeats),
            "map_decode": best(codec.map_decode, [(mat, s) for s in survivor_sets], repeats),
            "div_low": best(exact_div_low, divisions, repeats),
            "roundtrip": best(roundtrip, [(lost,) for lost in LOSSES], repeats)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5, help="repeats per figure (default 5)")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    mat = codes.build_systematic_sxor(K, N, default_modulus(3), range(1, K + 1))
    for survivors in combinations(range(1, N + 1), K):
        codec.map_kernel(mat, survivors)
    rng = random.Random(24)
    print(f"systematic {K}/{N}, µs per call, least of {args.repeats}")
    print(f"{'bytes':>6} " + " ".join(f"{name:>10}" for name in COLUMNS))
    for size in SIZES:
        row = measure(mat, size, rng, args.repeats)
        print(f"{size:>6} " + " ".join(f"{row[name]:10.1f}" for name in COLUMNS))
    print("all restores match")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
