"""Run one workload of the sxor benchmark and print its metrics.

    python3 perfbench/run.py --workload small-objects --seed 1 --seconds 10 --trace 0

Run it from a source tree of this repository: the code under test is the
tree's ``src/sxor``, imported in-process and started as ``python -m
sxor`` children.  Without it the run fails before measuring anything.

``--trace 0`` times the workload untraced and reports the end-to-end
metrics.  ``--trace 1`` runs the same cycles twice, untraced and then
with spans recorded around every call into the package's layers, and
reports the per-layer metrics plus the tracing overhead.  Lines before
the last describe the run (provenance and every workload metric, by
name and unit); the last line is one JSON object.  Results and spans
are also written to ``.perfbench_out/`` and scratch files go to
``.perfbench_work/``, both in the tree.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SAMPLES = 15  # fresh-interpreter set-up samples per untraced run, spread over it

# One sample: ``import sxor`` + the workload's ``{setup}``; interpreter
# start-up itself is not counted.
_SETUP_PROGRAM = """\
import time
t0 = time.perf_counter()
import sxor
{setup}
print(time.perf_counter() - t0)
"""


class SetupSampler:
    """Set-up times in fresh interpreters, spread over a run.

    The host is shared, and its speed moves in phases of seconds to
    minutes.  Sampling between operations through the whole run, not in
    one burst before it, gives a median over every phase the run saw.
    """

    def __init__(self, setup: str, seconds: float):
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SXOR_DEFAULT_G", None)
        self.program = _SETUP_PROGRAM.format(setup=setup)
        self.interval = seconds / SAMPLES
        self.samples: list[float] = []
        self._take()  # fills the bytecode cache; not counted
        self.samples.clear()
        self._due = time.perf_counter()

    def _take(self) -> None:
        out = subprocess.run([sys.executable, "-c", self.program], env=self.env, check=True,
                             capture_output=True, text=True).stdout
        self.samples.append(float(out.split()[-1]))

    def between(self) -> None:
        """Called after each operation: one sample per interval."""
        if time.perf_counter() >= self._due:
            self._take()
            self._due = time.perf_counter() + self.interval

    def median(self) -> float:
        """Median of SAMPLES samples; those the run left untaken are taken now."""
        while len(self.samples) < SAMPLES:  # runs with few, long operations
            self._take()
        return statistics.median(self.samples)


def provenance(wl, seed: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "sxor").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    prov = {
        "python": platform.python_version(),
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "git_rev": git_rev(),
        "src_sha256": digest.hexdigest()[:16],
        "seed": seed,
        "inputs": wl.inputs,
    }
    if wl.name == "file-roundtrip":
        prov["note"] = ("packet files are read back from the OS page cache, so file figures "
                        "are this machine's memory and CPU, not a disk's")
    return prov


def git_rev() -> str:
    if not (ROOT / ".git").exists():  # git would find an enclosing repository
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def end_to_end(wl, rec, setup_s: float) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json gates, named alike on every workload.

    With one client in a closed loop, 1 / ops_per_s is the mean operation
    latency; the median and tail are printed but not gated, as their
    run-to-run spread on a shared host is wider than any usable bound.
    """
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (len(rec.latency) / sum(rec.latency), "1/s"),
        "peak_rss_mib": (wl.peak_rss_mib(rec), "MiB"),
    }


def layer_metrics(tracer, cycles: int, overhead: float, import_s: float,
                  stored: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of a traced pass; times and counts are per cycle."""
    totals = tracer.totals()

    def row(name: str) -> dict[str, float]:
        return totals.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})

    def per_cycle(value: float) -> float:
        return value / cycles

    kernel_calls = row("codec.map_kernel")["calls"]
    kernel_builds = tracer.child_calls("polymat.det_adjugate", "codec.map_kernel")
    decode_s = row("codec.map_decode")["s"]
    return {
        "gf2poly.exact_div_low_s": (per_cycle(row("gf2poly.exact_div_low")["s"]), "s"),
        "gf2poly.exact_div_low_calls": (per_cycle(row("gf2poly.exact_div_low")["calls"]), "count"),
        "gf2poly.divided_bits": (per_cycle(tracer.counts["gf2poly.exact_div_low"]), "bit"),
        "gf2poly.exact_div_low_share": (row("gf2poly.exact_div_low")["s"] / decode_s if decode_s else 0.0,
                                        "ratio"),
        "codec.map_decode_s": (per_cycle(decode_s), "s"),
        "codec.map_decode.self_s": (per_cycle(row("codec.map_decode")["self_s"]), "s"),
        "codec.map_kernel_s": (per_cycle(row("codec.map_kernel")["s"]), "s"),
        "codec.map_kernel_calls": (per_cycle(kernel_calls), "count"),
        "codec.kernel_builds": (per_cycle(kernel_builds), "count"),
        "codec.kernel_hit_ratio": ((kernel_calls - kernel_builds) / kernel_calls if kernel_calls else 0.0,
                                   "ratio"),
        "polymat.det_adjugate_s": (per_cycle(row("polymat.det_adjugate")["s"]), "s"),
        "codec.encode_s": (per_cycle(row("codec.encode")["s"]), "s"),
        "codec.encode_xors": (per_cycle(tracer.counts["codec.encode"]), "count"),
        "codec.packet_to_bytes_s": (per_cycle(row("codec.packet_to_bytes")["s"]), "s"),
        "codec.packet_from_bytes_s": (per_cycle(row("codec.packet_from_bytes")["s"]), "s"),
        "codec.packet_from_bytes_calls": (per_cycle(row("codec.packet_from_bytes")["calls"]), "count"),
        "codec.stored_bytes_per_byte": (stored, "B/B"),
        "gf2m.is_primitive_s": (per_cycle(row("gf2m.is_primitive")["s"]), "s"),
        "gf2m.is_primitive_calls": (per_cycle(row("gf2m.is_primitive")["calls"]), "count"),
        "codec.zigzag_schedule_s": (per_cycle(row("codec.zigzag_schedule")["s"]), "s"),
        "codec.zigzag_apply_s": (per_cycle(row("codec.zigzag_decode")["self_s"]), "s"),
        "codec.zigzag_bits": (per_cycle(tracer.counts["codec.zigzag_schedule"]), "bit"),
        "codes.build_s": (per_cycle(row("codes.build")["s"]), "s"),
        "codes.check_suboptimal_s": (per_cycle(row("codes.check_suboptimal")["s"]), "s"),
        "analysis.enumerate_classes_s": (per_cycle(row("analysis.enumerate_classes")["s"]), "s"),
        "analysis.matrices_equivalent_s": (per_cycle(row("analysis.matrices_equivalent")["s"]), "s"),
        "analysis.matrices_equivalent_calls": (per_cycle(row("analysis.matrices_equivalent")["calls"]),
                                               "count"),
        "analysis.comparison_report_s": (per_cycle(row("analysis.comparison_report")["s"]), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.encode.self_s": (per_cycle(row("cli.encode")["self_s"]), "s"),
        "cli.decode.self_s": (per_cycle(row("cli.decode")["self_s"]), "s"),
        "cli.read_packet_s": (per_cycle(row("cli.read_packet")["s"]), "s"),
        "cli.write_packet_s": (per_cycle(row("cli.write_packet")["s"]), "s"),
        "trace.overhead_share": (overhead, "ratio"),
    }


def _print_metrics(title: str, metrics: dict[str, tuple[float, str]]) -> None:
    print(f"  {title}")
    for name, (value, unit) in metrics.items():
        print(f"    {name:36s} {value:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so the scratch directory goes too

    if not (SRC / "sxor" / "__init__.py").is_file():
        print(f"perfbench: no sxor package at {SRC / 'sxor'}; run from a source tree",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SXOR_DEFAULT_G", None)  # the CLI's modulus must not depend on the caller
    import sxor
    if Path(sxor.__file__).resolve().parent != SRC / "sxor":
        print(f"perfbench: imported sxor from {sxor.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import tracing
    from workloads import WORKLOADS, Recorder, measure, percentile
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    cls = WORKLOADS[args.workload]
    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    outdir.mkdir(exist_ok=True)
    try:
        wl = cls(args.seed, workdir, in_process=bool(args.trace))
        sampler = None if args.trace else SetupSampler(cls.setup_code, args.seconds)
        rec = Recorder(between=sampler and sampler.between)
        cycles = measure(wl, args.seconds / (2 if args.trace else 1), rec)
        if sampler:
            setup_s = sampler.median()
        if args.trace:
            tracer = tracing.Tracer()
            traced = Recorder(tracer)
            tracer.install()
            try:
                measure(wl, 0, traced, cycles=cycles)
            finally:
                tracer.remove()
            import_s = SetupSampler("import sxor.cli", 0).median()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run's scratch directory is still there

    prov = provenance(wl, args.seed)
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    for key, value in prov.items():
        print(f"  {key}: {value}")
    lat = rec.latency
    print(f"  {cycles} cycles, {len(lat)} operations: latency p50 {statistics.median(lat) * 1e3:.4g} ms,"
          f" p99 {percentile(lat, 99) * 1e3:.4g} ms")
    detail = wl.metrics(rec, cycles)
    result = {"provenance": prov, "cycles": cycles, "operations": len(lat), "workload": detail}
    if args.trace:
        overhead = sum(traced.latency) / sum(lat) - 1
        stored = rec.stored_bytes / rec.input_bytes if rec.input_bytes else 0.0
        metrics = layer_metrics(tracer, cycles, overhead, import_s, stored)
        traced_detail = wl.metrics(traced, cycles)
        _print_metrics("untraced pass (in-process)", detail)
        _print_metrics("traced pass", traced_detail)
        decode_s = metrics["codec.map_decode_s"][0]
        if decode_s:
            parts = sum(metrics[k][0] for k in ("codec.map_kernel_s", "gf2poly.exact_div_low_s",
                                                "codec.map_decode.self_s"))
            print(f"  map_kernel + exact_div_low + map_decode.self = {parts / decode_s:.6f} of map_decode")
        if tracer.missing:
            print(f"  not traced (not found): {', '.join(tracer.missing)}")
        spans_path = outdir / f"{stem}-spans.jsonl.gz"
        tracer.write(spans_path)
        print(f"  {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
        result["traced_workload"] = traced_detail
        attempted = rec.attempted + traced.attempted
        failed = rec.failed + traced.failed
    else:
        metrics = end_to_end(wl, rec, setup_s)
        _print_metrics("workload metrics", detail)
        attempted, failed = rec.attempted, rec.failed
    _print_metrics("per-layer metrics (per cycle)" if args.trace else "end-to-end metrics", metrics)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (outdir / f"{stem}.json").write_text(json.dumps(result, indent=2) + "\n")

    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
