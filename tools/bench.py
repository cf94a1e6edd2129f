"""Measure sxor stage by stage, check every answer, and record the figures in BENCH_<n>.json.

    PYTHONPATH=src python tools/bench.py [--repeats R]

Every case below runs in a fresh child process (this script, run with
the hidden ``--child SECTION:CASE``), and the harness reads the child's
peak RSS (``ru_maxrss``) from ``os.wait4`` as the row's ``rss_mib``;
``wait4`` counts in the peaks of the child's own children, so a memory
case's ``rss_mib`` is the greatest of its CLI children's.  A child
starts from its parent's peak at ``exec``, so the harness imports no
part of sxor and holds only the rows, to stay below the children it
measures.  The roundtrip, check and zigzag times are the least of R
repeats.

- ``memory``: ``python -m sxor encode`` of a seeded random 16 or 64 MiB
  file, then ``decode`` of it after losing the listed packets, for
  systematic 10/14 and sxor 4/7, each command run R times: the median of
  its seconds (``_s``) with their least and most, and its greatest peak
  RSS, read as the harness reads its own children.  Every restore is
  compared with the file.  The case child writes the file 64 KiB at a
  time, so that it too stays below them.
- ``roundtrip``: µs per call of each stage of a library round trip with
  the systematic 5/7 code at the default modulus, per object size.  The
  object is split into K = 5 sources of ceil(size / 5) bytes, the last
  zero-padded, as perfbench's small-objects workload splits it.  Each of
  the 21 sets of two lost packets is parsed from bytes and decoded with
  a warm kernel memo.  ``encode``: one call, all seven packets;
  ``to_bytes`` and ``from_bytes``: per packet; ``map_decode``: per call;
  ``div_low``: ``exact_div_low`` per call, replayed with the arguments
  those decodes passed it with a divisor other than 1; ``roundtrip``:
  encode, serialise all seven, parse five and decode, per object.
- ``check``: ms per ``check_suboptimal`` call, and the minors walked in
  GF(2^m) (``field``) and in GF(2)[z] (``exact``), counted in one more
  call as the lanes of every vector the walk asks a kernel for.  The
  matrices are the seven of perfbench's code-analysis workload, sxor
  and systematic (6, 31) and sxor (3, 100), all MDS, and the README's
  fallback matrix: sxor (6, 31) with g added to each entry of packet 30
  to make packet 31, so the two are equal mod g but not in GF(2)[z].
  Its failing subsets are those holding packets 1, 30 and 31, as packet
  1 is all ones.
- ``division``: µs per ``gf2poly._div_low`` of one 2**19-bit stripe, the
  file driver's width, with its all-ones mask passed as the stripe core
  passes it, for the feedback of one decode step: each distinct feedback
  of perfbench's file-roundtrip sets (systematic 10/14 at the default
  modulus, the first ten packets left after the lost ones), then the
  first step of sxor 16/31 and of systematic 32/40 from their last K
  packets, whose orders are far past the bound.  ``P`` is the order of z
  modulo the feedback (0 past ``gf2poly._ORDER_BOUND``), ``u_terms`` the
  terms of u = (1 + z^P) / h, and ``path`` ``binomial`` or ``taps``.  The
  stripe is the low bits of h * s plus a carry below z^(deg h), for a
  seeded random s; the quotient must be s, which ``exact_div_low``
  re-multiplies, and the carry out the product's bits past the stripe.
- ``zigzag``: for each of zd3's 20 survivor sets, how far one
  ``zigzag_decode`` of a 96 KiB object raised the child's peak
  (``rise_mib``), then µs per decode of a 3 KiB object.  ``stage`` is
  ``word`` when the set runs the MAP network, ``per-bit`` when the
  decode reaches the per-bit peel.  Each object is three seeded random
  sources, encoded with zd3, as in perfbench's zigzag-zd3 workload.
- ``startup``: ms to ``import sxor`` and to ``import sxor.cli`` in a
  fresh interpreter started with this tree's ``src`` as PYTHONPATH, R
  times each way: the median with its least and most.  ``cold``
  compiles the package, with bytecode writing off and no cached
  bytecode of it, as perfbench's set-up samples and every ``python -m
  sxor`` of a fresh checkout do; ``cached`` reads it from bytecode.
  Both read the standard library's bytecode from one private
  PYTHONPYCACHEPREFIX in a temporary directory, filled by one untimed
  import, so only the package's own compiling differs; the tree's
  ``__pycache__`` is never read or written.  ``modules`` lists the
  package's modules the import loaded, which must come from this tree
  and hold none of those that load on first use (``LAZY``).

The harness prints one table per section, its columns the row's keys,
and writes every row, with provenance, to ``BENCH_<n>.json`` at the
repository root, n the next free integer.  It exits 1, writing nothing,
when a restore, a ``check`` answer or a division's quotient or carry
differs, or an import loads a module meant for first use or sxor from
elsewhere (``correct`` is False),
when a child fails, or when a CLI child's peak at 64 MiB is more than
1.1 times its peak at 16 MiB; never on a timing.
"""

from __future__ import annotations

import argparse
import filecmp
import json
import os
import platform
import random
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from itertools import combinations
from math import comb
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIB = 1 << 20
BLOCK = 1 << 16  # bytes a memory case child writes at once, so that its peak stays low
RATIO = 1.1  # most a CLI child's peak at 64 MiB may be, times its peak at 16 MiB
# The package's modules that load on first use: importing sxor or sxor.cli loads none.
LAZY = ("sxor.analysis", "sxor.matrix_file", "sxor.zigzag")


def run(args: list[str], env: dict | None = None) -> tuple[str, float, float]:
    """Run ``python args``, in ``env`` if given: its stdout, seconds and peak RSS in MiB.

    A child that fails ends this process with the child's stderr.
    """
    start = time.perf_counter()
    with subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        out, err = proc.stdout.read(), proc.stderr.read()  # each child writes little
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode:
        sys.exit(f"python {' '.join(args)} failed:\n{err.decode(errors='replace')}")
    return out.decode(), time.perf_counter() - start, usage.ru_maxrss / 1024


def best(fn, calls, repeats: int) -> float:
    """Least over ``repeats`` of the mean seconds of ``fn(*args)`` over ``calls``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        for args in calls:
            fn(*args)
        times.append(time.perf_counter() - start)
    return min(times) / len(calls)


def spread(name: str, values: list[float]) -> dict:
    """The median of ``values`` as ``name``, with their least and most as ``name``'s min and max."""
    values = sorted(values)
    stem, _, unit = name.rpartition("_")
    return {name: (values[(len(values) - 1) // 2] + values[len(values) // 2]) / 2,
            f"{stem}_min_{unit}": values[0], f"{stem}_max_{unit}": values[-1]}


def memory(kind: str, k: int, n: int, lost: tuple[int, ...], mib: int, repeats: int) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        src, packets, restored = (Path(tmp, name) for name in ("object.bin", "packets", "out.bin"))
        rng = random.Random(mib)
        with src.open("wb") as fh:
            for _ in range(mib * MIB // BLOCK):
                fh.write(rng.randbytes(BLOCK))
        survivors = [j for j in range(1, n + 1) if j not in lost][:k]
        commands = {"encode": ["encode", "--kind", kind, "--k", str(k), "--n", str(n), str(src),
                               "--out-dir", str(packets)],
                    "decode": ["decode", "--out", str(restored),
                               *(str(packets / f"object.bin.p{j}.sxp") for j in survivors)]}
        row, correct = {"code": f"{kind} {k}/{n}", "lost": ",".join(map(str, lost)), "mib": mib}, True
        for op, args in commands.items():
            seconds, rss = [], 0.0
            for _ in range(repeats):
                _, s, peak = run(["-m", "sxor", *args])
                seconds.append(s)
                rss = max(rss, peak)
                if op == "decode":
                    correct &= filecmp.cmp(src, restored, shallow=False)
                    restored.unlink()
            row.update({**spread(f"{op}_s", seconds), f"{op}_rss_mib": rss})
        return {**row, "correct": correct}


def roundtrip(size: int, repeats: int) -> dict:
    from sxor import codec, codes, default_modulus
    from sxor.gf2poly import exact_div_low

    k, n = 5, 7
    mat = codes.build_systematic_sxor(k, n, default_modulus(3), range(1, k + 1))
    for survivors in combinations(range(1, n + 1), k):
        codec.map_kernel(mat, survivors)
    data = random.Random(size).randbytes(size)
    chunk = -(-size // k)
    length = 8 * chunk
    sources = [int.from_bytes(data[i * chunk:(i + 1) * chunk], "little") for i in range(k)]
    packets = codec.encode(mat, sources, length)
    blobs = [codec.packet_to_bytes(p) for p in packets]
    losses = list(combinations(range(1, n + 1), n - k))
    sets = [[codec.packet_from_bytes(b) for j, b in enumerate(blobs, 1) if j not in lost]
            for lost in losses]
    divisions = []  # exact_div_low's arguments in the decodes, for a divisor other than 1

    def record(b, h, out_len):
        if h.mask != 1:
            divisions.append((b, h, out_len))
        return exact_div_low(b, h, out_len)

    codec.exact_div_low = record
    correct = all([[s.mask for s in codec.map_decode(mat, got)] == sources for got in sets])
    codec.exact_div_low = exact_div_low

    def trip(lost):
        wire = [codec.packet_to_bytes(p) for p in codec.encode(mat, sources, length)]
        codec.map_decode(mat, [codec.packet_from_bytes(b) for j, b in enumerate(wire, 1)
                               if j not in lost])

    stages = {"encode_us": (codec.encode, [(mat, sources, length)]),
              "to_bytes_us": (codec.packet_to_bytes, [(p,) for p in packets]),
              "from_bytes_us": (codec.packet_from_bytes, [(b,) for b in blobs]),
              "map_decode_us": (codec.map_decode, [(mat, s) for s in sets]),
              "div_low_us": (exact_div_low, divisions),
              "roundtrip_us": (trip, [(lost,) for lost in losses])}
    return {"bytes": size, **{key: best(fn, calls, repeats) * 1e6
                              for key, (fn, calls) in stages.items()}, "correct": correct}


def check(kind: str, k: int, n: int, repeats: int) -> dict:
    from sxor import analysis, codes, default_modulus

    g = default_modulus(n.bit_length())
    if kind == "zd3":
        mat = codes.builtin_zd_k3()
    elif kind == "systematic":
        mat = codes.build_systematic_sxor(k, n, g, range(1, k + 1))
    else:
        mat = codes.build_sxor(k, n, g)
        if kind == "fallback":
            rows = [row[:n - 1] + (row[n - 2] ^ g.mask,) for row in mat._masks]
            mat = codes.user_matrix(rows, mat.spec.m, g)
    ms = best(mat.check_suboptimal, [()], repeats) * 1e3
    # One more call, counting each kernel call's lanes: C(columns, rows)
    # for a row restricted to the walked columns and one table per row.
    walked = {"field": 0, "exact": 0}
    for name, walk in (("_byte_minors", "field"), ("_field_minors", "field"),
                       ("_exact_minors", "exact")):
        def counting(*args, kernel=getattr(analysis, name), walk=walk):
            row, idx = args[-4], args[-2]
            walked[walk] += comb(len(row), len(idx))
            return kernel(*args)
        setattr(analysis, name, counting)
    ok, failing = mat.check_suboptimal()
    expected = (True, []) if kind != "fallback" else (
        False, [(1, *rest, n - 1, n) for rest in combinations(range(2, n - 1), k - 3)])
    return {"matrix": f"{kind} {k}/{n}", "ok": ok, "failing": len(failing), "ms": ms, **walked,
            "correct": (ok, failing) == expected}


def division(kind: str, k: int, n: int, lost: tuple[int, ...], source: int, repeats: int) -> dict:
    from sxor import codec, codes, default_modulus, gf2poly
    from sxor.gf2poly import Poly2, exact_div_low

    g = default_modulus(n.bit_length())
    mat = (codes.build_sxor(k, n, g) if kind == "sxor"
           else codes.build_systematic_sxor(k, n, g, range(1, k + 1)))
    survivors = [j for j in range(1, n + 1) if j not in lost][:k]
    h = next(step.feedback for step in codec.map_kernel(mat, survivors).steps
             if step.source == source - 1)
    width = 1 << 19
    mask = (1 << width) - 1
    rng = random.Random(h.mask)
    s = rng.getrandbits(width)
    carry = rng.getrandbits(h.degree())
    product = (h * Poly2(s)).mask ^ carry
    stripe = product & mask
    period, u = gf2poly._binomial(h.mask)
    taps = [t for t in gf2poly._exponents(h.mask ^ 1) if t < width]
    got = gf2poly._div_low(stripe, h.mask, width, carry, mask)
    correct = (got == (s, product >> width)
               and exact_div_low(Poly2(product ^ carry), h, width).mask == got[0])
    return {"code": f"{kind} {k}/{n}",
            "lost": ",".join(map(str, lost)) if len(lost) < 5 else f"{lost[0]}-{lost[-1]}",
            "source": source, "feedback": h.to_text() if h.degree() < 10 else f"degree {h.degree()}",
            "taps": len(taps), "P": period, "u_terms": u.bit_count(),
            "path": "binomial" if period and gf2poly._binomial_pays(period, u, taps, width)
            else "taps",
            "us": best(gf2poly._div_low, [(stripe, h.mask, width, carry, mask)], repeats) * 1e6,
            "correct": correct}


def zigzag(survivors: tuple[int, ...], repeats: int) -> dict:
    from sxor import codec, codes, zigzag

    mat = codes.builtin_zd_k3()
    peel_bits, per_bit = zigzag._peel_bits, []

    def decodes(size: int) -> tuple[list, bool, float]:
        # The survivors' packets of a size-byte object, whether they restore
        # it, and how far decoding them raised this process's peak, in MiB.
        rng = random.Random(size)
        length = 8 * (size // 3)
        sources = [rng.getrandbits(length) for _ in range(3)]
        chosen = [codec.encode(mat, sources, length)[j - 1] for j in survivors]
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        zigzag._peel_bits = lambda *a: per_bit.append(True) or peel_bits(*a)
        ok = [s.mask for s in zigzag.zigzag_decode(mat, chosen)] == sources
        zigzag._peel_bits = peel_bits
        return chosen, ok, (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - before) / 1024

    _, large, rise = decodes(96 * 1024)
    chosen, small, _ = decodes(3072)
    return {"survivors": ",".join(map(str, survivors)),
            "us": best(zigzag.zigzag_decode, [(mat, chosen)], repeats) * 1e6,
            "stage": "per-bit" if per_bit else "word", "rise_mib": rise, "correct": large and small}


# One timed import in a fresh interpreter: its seconds, then the sxor
# modules loaded and where sxor came from, taken after the clock stops.
_IMPORT = """\
import time
t0 = time.perf_counter()
import {module}
seconds = time.perf_counter() - t0
import json, sys
print(json.dumps([seconds, sorted(m for m in sys.modules if m.partition(".")[0] == "sxor"),
                  sys.modules["sxor"].__file__]))
"""


def startup(module: str, repeats: int) -> dict:
    src = ROOT / "src"
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONPYCACHEPREFIX=cache)
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        program = _IMPORT.format(module=module)
        subprocess.run([sys.executable, "-c", program], env=env, check=True, capture_output=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
        cached = [json.loads(run(["-c", program], env)[0]) for _ in range(repeats)]
        # The prefix mirrors each source directory: dropping the package's
        # leaves the standard library's bytecode alone.
        shutil.rmtree(cache + str(src / "sxor"))
        cold = [json.loads(run(["-c", program], env)[0]) for _ in range(repeats)]
    runs = cold + cached
    modules = runs[0][1]
    correct = (all(Path(path).resolve().parent == src / "sxor" and loaded == modules
                   for _, loaded, path in runs) and not set(LAZY) & set(modules))
    return {"import": module, **spread("cold_ms", [1e3 * s for s, _, _ in cold]),
            **spread("cached_ms", [1e3 * s for s, _, _ in cached]),
            "modules": ",".join(m.partition(".")[2] or m for m in modules), "correct": correct}


# Each section's case function, and the arguments of each of its cases.
SECTIONS = {
    "memory": (memory, [(kind, k, n, lost, mib) for kind, k, n, lost in
                        (("systematic", 10, 14, (1, 3, 5, 7)), ("sxor", 4, 7, (1, 2, 3)))
                        for mib in (16, 64)]),
    "roundtrip": (roundtrip, [(size,) for size in (40, 4096, 16384, 65536)]),
    # code-analysis's CHECKS, then the README's larger checks.
    "check": (check, [("zd3", 3, 6), ("sxor", 3, 7), ("systematic", 3, 7), ("sxor", 4, 15),
                      ("systematic", 6, 15), ("systematic", 8, 15), ("sxor", 8, 15),
                      ("sxor", 6, 31), ("systematic", 6, 31), ("sxor", 3, 100),
                      ("fallback", 6, 31)]),
    # Each distinct feedback of perfbench's FileRoundtrip.LOST, by the
    # survivor set and source it first divides, then two of large order.
    "division": (division, [("systematic", 10, 14, lost, source) for lost, source in
                            (((8,), 8), ((3, 10), 3), ((1, 7, 12), 1), ((3, 6, 9), 3),
                             ((2, 5, 7, 10), 5), ((2, 5, 7, 10), 2), ((2, 5, 7, 10), 7))]
                 + [("sxor", 16, 31, tuple(range(1, 16)), 2),
                    ("systematic", 32, 40, tuple(range(1, 9)), 1)]),
    "zigzag": (zigzag, [(s,) for s in combinations(range(1, 7), 3)]),
    "startup": (startup, [("sxor",), ("sxor.cli",)]),
}


def table(rows: list[dict]) -> str:
    cells = [list(rows[0])] + [[f"{v:.2f}" if isinstance(v, float) else str(v)
                                for v in row.values()] for row in rows]
    widths = [max(map(len, column)) for column in zip(*cells)]
    return "\n".join(" ".join(c.ljust(w) if i == 0 else c.rjust(w)
                              for i, (c, w) in enumerate(zip(line, widths))) for line in cells)


def peak_growth(rows: list[dict]) -> list[str]:
    # The memory rows come in pairs of one code, 16 then 64 MiB.
    failed = []
    for small, large in zip(rows[::2], rows[1::2]):
        for op in ("encode", "decode"):
            a, b = small[f"{op}_rss_mib"], large[f"{op}_rss_mib"]
            if b > RATIO * a:
                failed.append(f"memory, {small['code']}: {op} peak {b:.1f} MiB at "
                              f"{large['mib']} MiB is over {RATIO} x {a:.1f} MiB at "
                              f"{small['mib']} MiB")
    return failed


def write_record(root: Path, sections: dict, repeats: int, load_before: tuple) -> Path:
    """Write ``sections``' rows and provenance to ``root / BENCH_<n>.json``, n the next free one.

    A tree with uncommitted changes is named by its commit, ``-dirty``,
    and the sha256 of ``git diff HEAD`` (``git_diff_sha256``, else None).
    """
    import hashlib  # here, not at the top: it adds 3.5 MiB to the children's starting peak

    revision = diff = None
    try:
        git = subprocess.run(["git", "-C", str(ROOT), "describe", "--always", "--dirty",
                              "--abbrev=40"], capture_output=True, text=True, check=True)
        revision = git.stdout.strip()
        if revision.endswith("-dirty"):
            changes = subprocess.run(["git", "-C", str(ROOT), "diff", "HEAD"], capture_output=True,
                                     check=True)
            diff = hashlib.sha256(changes.stdout).hexdigest()
    except (OSError, subprocess.CalledProcessError):  # no git, or not a checkout
        pass
    record = {"provenance": {"git": revision, "git_diff_sha256": diff,
                             "python": platform.python_version(),
                             "platform": platform.platform(), "cpu_count": os.cpu_count(),
                             "loadavg_before": list(load_before),
                             "loadavg_after": list(os.getloadavg()), "repeats": repeats},
              "sections": sections}
    n = 1
    while (root / f"BENCH_{n}.json").exists():
        n += 1
    path = root / f"BENCH_{n}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed calls per figure: the least kept, or for a CLI command "
                             "the median and range (default 5)")
    parser.add_argument("--child", help=argparse.SUPPRESS)  # SECTION:CASE, run here
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be at least 1")
    if args.child:
        name, case = args.child.split(":")
        fn, cases = SECTIONS[name]
        print(json.dumps(fn(*cases[int(case)], args.repeats)))
        return 0
    load = os.getloadavg()
    sections, failed = {}, []
    for name, (_, cases) in SECTIONS.items():
        rows = sections[name] = []
        for case in range(len(cases)):
            out, _, rss = run([str(Path(__file__).resolve()), "--child", f"{name}:{case}",
                               "--repeats", str(args.repeats)])
            row = json.loads(out)
            row["rss_mib"] = rss
            row["correct"] = row.pop("correct")  # the last column
            rows.append(row)
            if not row["correct"]:
                what = {"check": "answer", "division": "quotient", "startup": "import"}.get(
                    name, "restore")
                failed.append(f"{name}:{case}: {what} differs")
        print(f"{name}:\n{table(rows)}\n")
    failed += peak_growth(sections["memory"])
    if failed:
        print("\n".join(failed))
        return 1
    print(f"wrote {write_record(ROOT, sections, args.repeats, load)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
