"""The benchmark's four workloads and the record of what a run measured.

Load is one client in a closed loop: each operation starts when the one
before it has finished, and CLI children run one at a time.  A workload
is a fixed list of operations, a *cycle*, repeated until the run's time
is up; only whole cycles run, so every run on every seed does the same
mix of work and only the seeded data and order differ.  Cycle ``c`` draws
its inputs from ``random.Random(f"{seed}:{c}")``, so the same seed and
cycle give the same inputs in an untraced and a traced pass.

sxor is called through its module attributes (``codec.map_decode``, not
a name bound at import) so that :mod:`tracing` sees every call.
"""

from __future__ import annotations

import io
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import defaultdict
from contextlib import nullcontext, redirect_stdout
from itertools import combinations
from pathlib import Path

import sxor
from sxor import analysis, cli, codec, codes

MIB = 1 << 20


class Recorder:
    """What one pass measured: operation latencies, phase totals, checks.

    Latencies are 8 bytes each in an ``array`` and phases keep only their
    totals, so the benchmark's own memory hardly grows with throughput
    and the in-process ``peak_rss_mib`` stays the program's.
    ``between``, if given, is called after every operation.
    """

    def __init__(self, tracer=None, between=None):
        self.tracer = tracer
        self.between = between
        self.latency = array("d")  # seconds per closed-loop operation
        self.phase_s: dict[str, float] = defaultdict(float)
        self.phase_bytes: dict[str, int] = defaultdict(int)
        self.peak_rss_mib: dict[str, float] = defaultdict(float)
        self.stored_bytes = 0  # packets (and sidecars) written
        self.input_bytes = 0  # bytes those packets encode
        self.attempted = 0
        self.failed = 0

    def op(self, kind: str):
        """Root span of one operation when tracing; nothing otherwise."""
        return self.tracer.op(kind) if self.tracer else nullcontext()

    def untraced(self):
        """The benchmark's own input generation: never traced."""
        return self.tracer.paused() if self.tracer else nullcontext()

    def add(self, phase: str, seconds: float, nbytes: int = 0) -> None:
        self.phase_s[phase] += seconds
        self.phase_bytes[phase] += nbytes

    def attempt(self, what: str, check) -> None:
        """Run one checked operation; ``check()`` returns True when its output is right."""
        try:
            ok = check()
        except Exception:  # a crash is one failed operation, not the end of the run
            traceback.print_exc(file=sys.stderr)
            ok = False
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: wrong or failed: {what}", file=sys.stderr)
        if self.between:
            self.between()


def measure(workload, seconds: float, rec: Recorder, cycles: int | None = None) -> int:
    """Run whole cycles until ``seconds`` have passed (at least one), or exactly ``cycles``."""
    start = time.perf_counter()
    done = 0
    while True:
        workload.cycle(done, rec)
        done += 1
        if cycles is not None:
            if done == cycles:
                return done
        elif time.perf_counter() - start >= seconds:
            return done


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 100]."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def _mib_s(rec: Recorder, phase: str) -> float:
    return rec.phase_bytes[phase] / MIB / rec.phase_s[phase]


def _cycle_rng(seed: int, c: int) -> random.Random:
    return random.Random(f"{seed}:{c}")


def _split(data: bytes, k: int) -> tuple[list[int], int]:
    # The CLI's layout: K equal chunks, the last zero-padded.
    chunk = -(-len(data) // k)
    return [int.from_bytes(data[i * chunk:(i + 1) * chunk], "little") for i in range(k)], chunk


def _join(sources, chunk: int, size: int) -> bytes:
    return b"".join(s.mask.to_bytes(chunk, "little") for s in sources)[:size]


def _same_bytes(a: Path, b: Path) -> bool:
    with a.open("rb") as fa, b.open("rb") as fb:
        while True:
            chunk = fa.read(MIB)
            if chunk != fb.read(MIB):
                return False
            if not chunk:
                return True


def _cold_start() -> None:
    # A CLI process starts with empty memo caches; an in-process main()
    # call gets the same by clearing every lru_cache in the package.
    for mod in list(sys.modules.values()):
        if mod is not None and mod.__name__.split(".")[0] == "sxor":
            for value in list(vars(mod).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


class Workload:
    name = ""
    inputs = ""  # human-readable input sizes, for provenance
    setup_code = ""  # run in a fresh interpreter after ``import sxor``; timed as setup_s

    def __init__(self, seed: int, workdir: Path, in_process: bool = False):
        self.seed = seed
        self.workdir = workdir
        self.in_process = in_process

    def cycle(self, c: int, rec: Recorder) -> None:
        raise NotImplementedError

    def peak_rss_mib(self, rec: Recorder) -> float:
        """Peak RSS of the process that ran sxor: this one, for in-process workloads."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def metrics(self, rec: Recorder, cycles: int) -> dict[str, tuple[float, str]]:
        """This workload's own metrics, by the names the roadmap uses; printed, not gated."""
        out = {}
        if rec.input_bytes:
            out["stored_bytes_per_byte"] = (rec.stored_bytes / rec.input_bytes, "B/B")
        out["failure_share"] = (rec.failed / rec.attempted, "ratio")
        return out


class FileRoundtrip(Workload):
    """``sxor encode`` then ``sxor decode`` over degraded survivor sets, as CLI children."""

    name = "file-roundtrip"
    K, N = 10, 14
    SIZE = 16 * MIB
    # Lost packets per decode.  The sets are fixed and only their order is
    # seeded: decode cost follows the taps of the survivor set's feedback
    # polynomial, which spans 0..9 within one loss count, so a seeded draw
    # of a handful of sets would make runs incomparable.  Each set has the
    # median tap count of all C(14, 10) sets with as many parity survivors
    # (1, 2, 2, 3, 4); the last is parity-heavy: every parity packet is used.
    LOST = ((8,), (3, 10), (1, 7, 12), (3, 6, 9), (2, 5, 7, 10))
    inputs = f"{SIZE} byte file, systematic K=10 N=14, {len(LOST)} decodes per encode"
    setup_code = ("import sxor.cli\n"
                  "sxor.codes.build_systematic_sxor(10, 14, sxor.default_modulus(4), range(1, 11))")

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        # The input is written, and restores checked, 1 MiB at a time.  A
        # child's ru_maxrss starts at this process's peak RSS, which exec
        # carries over, so this process must stay smaller than the
        # children it measures.
        rng = random.Random(seed)
        self.src = workdir / "object.bin"
        with self.src.open("wb") as fh:
            for _ in range(self.SIZE // MIB):
                fh.write(rng.randbytes(MIB))
        self.packet_dir = workdir / "packets"
        self.restored = workdir / "restored.bin"
        self.env = dict(os.environ, PYTHONPATH=str(Path(sxor.__file__).parents[1]))

    def _packet(self, i: int) -> Path:
        return self.packet_dir / f"{self.src.name}.p{i}.sxp"

    def _run(self, rec: Recorder, kind: str, argv: list[str]) -> int:
        if self.in_process:
            _cold_start()
        with rec.op(kind):
            start = time.perf_counter()
            if self.in_process:
                with redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
            else:
                proc = subprocess.Popen([sys.executable, "-m", "sxor", *argv], env=self.env,
                                        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
                try:
                    err = proc.stderr.read()
                    _, status, usage = os.wait4(proc.pid, 0)
                except BaseException:
                    proc.kill()
                    proc.wait()
                    raise
                finally:
                    proc.stderr.close()
                proc.returncode = code = os.waitstatus_to_exitcode(status)
                rec.peak_rss_mib[kind] = max(rec.peak_rss_mib[kind], usage.ru_maxrss / 1024)
                sys.stderr.write(err.decode(errors="replace"))
            seconds = time.perf_counter() - start
        rec.latency.append(seconds)
        rec.add(kind, seconds, self.SIZE)
        return code

    def _encode(self, rec: Recorder) -> bool:
        code = self._run(rec, "encode", ["encode", "--kind", "systematic", "--k", str(self.K),
                                         "--n", str(self.N), str(self.src),
                                         "--out-dir", str(self.packet_dir)])
        files = [self._packet(i) for i in range(1, self.N + 1)]
        files.append(self.packet_dir / f"{self.src.name}.sxmeta")
        rec.stored_bytes += sum(f.stat().st_size for f in files)
        rec.input_bytes += self.SIZE
        return code == 0

    def _decode(self, rec: Recorder, lost: tuple[int, ...]) -> bool:
        survivors = [i for i in range(1, self.N + 1) if i not in lost][:self.K]
        code = self._run(rec, "decode", ["decode", *(str(self._packet(i)) for i in survivors),
                                         "--out", str(self.restored)])
        ok = code == 0 and _same_bytes(self.restored, self.src)
        self.restored.unlink(missing_ok=True)
        return ok

    def cycle(self, c, rec):
        order = list(self.LOST)
        _cycle_rng(self.seed, c).shuffle(order)
        rec.attempt("encode", lambda: self._encode(rec))
        for lost in order:
            rec.attempt(f"decode without packets {lost}", lambda: self._decode(rec, lost))

    def peak_rss_mib(self, rec):
        return max(rec.peak_rss_mib.values())

    def metrics(self, rec, cycles):
        out = {"encode_mib_s": (_mib_s(rec, "encode"), "MiB/s"),
               "decode_mib_s": (_mib_s(rec, "decode"), "MiB/s")}
        if not self.in_process:
            out["encode_peak_rss_mib"] = (rec.peak_rss_mib["encode"], "MiB")
            out["decode_peak_rss_mib"] = (rec.peak_rss_mib["decode"], "MiB")
            out["runner_peak_rss_mib"] = (super().peak_rss_mib(rec), "MiB")  # must stay below both
        return out | super().metrics(rec, cycles)


class SmallObjects(Workload):
    """Many small objects through the library: encode, serialise, lose two, parse, decode."""

    name = "small-objects"
    K, N = 5, 7
    SIZES = (4096, 16384, 65536)
    # A cycle is stratified: every size with every pair of lost packets,
    # 3 x 21 = 63 objects in seeded order.  A random draw would put the
    # median latency on the cliff between one and two lost source packets
    # of 16 KiB objects; with each kind once per cycle it is always the
    # same kind of object, whatever the number of cycles.
    LOSSES = tuple(combinations(range(1, N + 1), 2))
    inputs = f"objects of {SIZES} bytes, systematic K=5 N=7, each 2 of 7 packets dropped"
    setup_code = "sxor.codes.build_systematic_sxor(5, 7, sxor.default_modulus(3), range(1, 6))"

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.mat = codes.build_systematic_sxor(self.K, self.N, sxor.default_modulus(3),
                                               range(1, self.K + 1))
        # A long-lived library user decodes with a warm kernel memo.
        for survivors in combinations(range(1, self.N + 1), self.K):
            codec.map_kernel(self.mat, survivors)

    def _roundtrip(self, rec, data, lost) -> bool:
        sources, chunk = _split(data, self.K)
        with rec.op("roundtrip"):
            t0 = time.perf_counter()
            blobs = [codec.packet_to_bytes(p) for p in codec.encode(self.mat, sources, chunk * 8)]
            t1 = time.perf_counter()
            packets = [codec.packet_from_bytes(b) for i, b in enumerate(blobs, 1) if i not in lost]
            restored = codec.map_decode(self.mat, packets)
            t2 = time.perf_counter()
        rec.latency.append(t2 - t0)
        rec.add("encode", t1 - t0, len(data))
        rec.add("decode", t2 - t1, len(data))
        rec.stored_bytes += sum(map(len, blobs))
        rec.input_bytes += len(data)
        return _join(restored, chunk, len(data)) == data

    def cycle(self, c, rec):
        rng = _cycle_rng(self.seed, c)
        kinds = [(size, lost) for size in self.SIZES for lost in self.LOSSES]
        rng.shuffle(kinds)
        for size, lost in kinds:
            data = rng.randbytes(size)
            rec.attempt(f"{size} byte object without packets {lost}",
                        lambda: self._roundtrip(rec, data, lost))

    def metrics(self, rec, cycles):
        return {"encode_mib_s": (_mib_s(rec, "encode"), "MiB/s"),
                "decode_mib_s": (_mib_s(rec, "decode"), "MiB/s"),
                "roundtrip_p50_ms": (statistics.median(rec.latency) * 1e3, "ms"),
                "roundtrip_p99_ms": (percentile(rec.latency, 99) * 1e3, "ms"),
                } | super().metrics(rec, cycles)


class ZigzagZd3(Workload):
    """One seeded object per cycle, zigzag-decoded from all 20 survivor sets of zd3."""

    name = "zigzag-zd3"
    SIZE = 3072  # 1 KiB per source: about 0.1 s per decode at Theta(L^2)
    inputs = f"{SIZE} byte objects, zd3 K=3 N=6, all 20 survivor sets"
    setup_code = "sxor.codes.builtin_zd_k3()"

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.mat = codes.builtin_zd_k3()

    def _decode(self, rec, packets, data) -> bool:
        with rec.op("decode"):
            start = time.perf_counter()
            restored = codec.zigzag_decode(self.mat, packets)
            seconds = time.perf_counter() - start
        rec.latency.append(seconds)
        rec.add("decode", seconds, len(data))
        return _join(restored, len(data) // 3, len(data)) == data

    def cycle(self, c, rec):
        rng = _cycle_rng(self.seed, c)
        data = rng.randbytes(self.SIZE)
        sources, chunk = _split(data, 3)
        with rec.untraced():
            packets = codec.encode(self.mat, sources, chunk * 8)
        sets = list(combinations(range(6), 3))
        rng.shuffle(sets)
        for s in sets:
            rec.attempt(f"zigzag from packets {[i + 1 for i in s]}",
                        lambda: self._decode(rec, [packets[i] for i in s], data))

    def metrics(self, rec, cycles):
        return {"decode_mib_s": (_mib_s(rec, "decode"), "MiB/s")} | super().metrics(rec, cycles)


class CodeAnalysis(Workload):
    """Equivalence classes, MDS checks and the comparison report; no codec work."""

    name = "code-analysis"
    CLASSIFY = (4, 15, 0x13)  # 91 classes covering all C(15, 4) = 1365 tuples
    CLASSES, TUPLES = 91, 1365
    # An odd number of operations per cycle keeps the median operation the
    # same one however many cycles fit in a run: the systematic (6, 15)
    # check, about 7x the next cheaper operation and half the next dearer,
    # so noise cannot swap it with a neighbour.
    CHECKS = (("zd3", 3, 6), ("sxor", 3, 7), ("systematic", 3, 7), ("sxor", 4, 15),
              ("systematic", 6, 15), ("systematic", 8, 15), ("sxor", 8, 15))
    inputs = f"classify{CLASSIFY}, {len(CHECKS)} MDS checks, comparison_report(7)"
    setup_code = ("for kind, k, n in " + repr(CHECKS) + ":\n"
                  "    g = sxor.default_modulus(n.bit_length())\n"
                  "    if kind == 'sxor': sxor.codes.build_sxor(k, n, g)\n"
                  "    elif kind == 'systematic': sxor.codes.build_systematic_sxor(k, n, g, range(1, k + 1))\n"
                  "    else: sxor.codes.builtin_zd_k3()")

    def __init__(self, seed, workdir, in_process=False):
        super().__init__(seed, workdir, in_process)
        self.mats = []
        for kind, k, n in self.CHECKS:
            g = sxor.default_modulus(n.bit_length())
            if kind == "sxor":
                self.mats.append(codes.build_sxor(k, n, g))
            elif kind == "systematic":
                self.mats.append(codes.build_systematic_sxor(k, n, g, range(1, k + 1)))
            else:
                self.mats.append(codes.builtin_zd_k3())

    def _timed(self, rec, phase, call):
        with rec.op(phase):
            start = time.perf_counter()
            result = call()
            seconds = time.perf_counter() - start
        rec.latency.append(seconds)
        rec.add(phase, seconds)
        return result

    def _classify(self, rec) -> bool:
        report = self._timed(rec, "classify", lambda: analysis.enumerate_classes(*self.CLASSIFY))
        return (len(report.classes) == self.CLASSES and report.total == self.TUPLES
                and sum(c.size for c in report.classes) == self.TUPLES)

    def _check(self, rec, mat) -> bool:
        ok, failing = self._timed(rec, "check", mat.check_suboptimal)
        return ok is True and failing == []

    def _report(self, rec) -> bool:
        report = self._timed(rec, "report", lambda: analysis.comparison_report(7))
        return ([r.k for r in report.rows] == [2, 3, 4, 5, 6]
                and all(len(r.systematic_rep) == r.k for r in report.rows))

    def cycle(self, c, rec):
        ops = [("classify(4, 15, 0x13)", lambda: self._classify(rec)),
               ("comparison_report(7)", lambda: self._report(rec))]
        ops += [(f"check_suboptimal {spec}", lambda m=m: self._check(rec, m))
                for spec, m in zip(self.CHECKS, self.mats)]
        _cycle_rng(self.seed, c).shuffle(ops)
        for what, op in ops:
            rec.attempt(what, op)

    def metrics(self, rec, cycles):
        return {"classify_s": (rec.phase_s["classify"] / cycles, "s"),
                "check_s": (rec.phase_s["check"] / cycles, "s"),
                "report_s": (rec.phase_s["report"] / cycles, "s"),
                } | super().metrics(rec, cycles)


WORKLOADS = {w.name: w for w in (FileRoundtrip, SmallObjects, ZigzagZd3, CodeAnalysis)}
