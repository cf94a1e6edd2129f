"""Print the cost of `check_suboptimal` on the benchmark's and README's matrices; check each answer.

    PYTHONPATH=src python tools/check_cost.py [--repeats R]

Each matrix below is checked in a fresh child process (this script, run
with ``--case``), so its peak RSS (``ru_maxrss``) is that of one check.
The child prints:

- ``ms``: milliseconds per ``check_suboptimal`` call, the least of R;
- ``field`` and ``exact``: the minors walked in GF(2^m) and in GF(2)[z],
  counted in one more call as the lanes of every vector the walk asks a
  kernel for;
- ``rss``: the child's peak RSS in MiB.

The matrices are the seven of perfbench's code-analysis workload, sxor
and systematic (6, 31) and sxor (3, 100), all MDS, and the README's
fallback matrix: sxor (6, 31) with g added to each entry of packet 30 to
make packet 31, so the two are equal mod g but not in GF(2)[z].  Its
failing subsets are those holding packets 1, 30 and 31, as packet 1 is
all ones.  The script exits 1 when any (ok, failing) answer differs from
that, and never on a timing.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from itertools import combinations
from math import comb
from pathlib import Path

from sxor import codes, default_modulus

# (kind, K, N): code-analysis's CHECKS, then the README's larger checks.
SPECS = (("zd3", 3, 6), ("sxor", 3, 7), ("systematic", 3, 7), ("sxor", 4, 15),
         ("systematic", 6, 15), ("systematic", 8, 15), ("sxor", 8, 15),
         ("sxor", 6, 31), ("systematic", 6, 31), ("sxor", 3, 100), ("fallback", 6, 31))
KERNELS = {"_byte_minors": "field", "_field_minors": "field", "_exact_minors": "exact"}


def matrix(kind: str, k: int, n: int) -> codes.GenMatrix:
    g = default_modulus(n.bit_length())
    if kind == "zd3":
        return codes.builtin_zd_k3()
    if kind == "systematic":
        return codes.build_systematic_sxor(k, n, g, range(1, k + 1))
    mat = codes.build_sxor(k, n, g)
    if kind == "fallback":
        rows = [row[:n - 1] + (row[n - 2] ^ g.mask,) for row in mat._masks]
        mat = codes.user_matrix(rows, mat.spec.m, g)
    return mat


def expected(kind: str, k: int, n: int) -> tuple[bool, list[tuple[int, ...]]]:
    if kind != "fallback":
        return True, []
    return False, [(1, *rest, n - 1, n) for rest in combinations(range(2, n - 1), k - 3)]


def run_case(kind: str, k: int, n: int, repeats: int) -> dict:
    mat = matrix(kind, k, n)
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        ok, failing = mat.check_suboptimal()
        times.append(time.perf_counter() - start)
    # One more call, counting each kernel call's lanes: C(columns, rows)
    # for a row restricted to the walked columns and one table per row.
    walked = {"field": 0, "exact": 0}
    for name, walk in KERNELS.items():
        def counting(*args, kernel=getattr(codes, name), walk=walk):
            row, idx = args[-4], args[-2]
            walked[walk] += comb(len(row), len(idx))
            return kernel(*args)
        setattr(codes, name, counting)
    mat.check_suboptimal()
    return {"ok": ok, "failing": failing, "ms": min(times) * 1e3, **walked,
            "rss": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed calls per matrix (default 3)")
    parser.add_argument("--case", type=int, help=argparse.SUPPRESS)  # run one matrix here
    args = parser.parse_args(argv)
    if args.case is not None:
        print(json.dumps(run_case(*SPECS[args.case], args.repeats)))
        return 0
    wrong = 0
    print(f"{'matrix':18} {'ok':>5} {'failing':>7} {'ms':>9} {'field':>8} {'exact':>8} "
          f"{'rss MiB':>8}")
    for case, spec in enumerate(SPECS):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--case", str(case),
                              "--repeats", str(args.repeats)], check=True, capture_output=True,
                             text=True).stdout
        row = json.loads(out)
        answer = (row["ok"], [tuple(sub) for sub in row["failing"]])
        mark = "" if answer == expected(*spec) else "  WRONG ANSWER"
        wrong += bool(mark)
        print(f"{'%s %d/%d' % spec:18} {str(row['ok']):>5} {len(row['failing']):7} "
              f"{row['ms']:9.2f} {row['field']:8} {row['exact']:8} {row['rss']:8.1f}{mark}")
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
