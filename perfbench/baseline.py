"""Repeat the benchmark over several seeds and summarise every metric.

    python3 perfbench/baseline.py --seeds 1-10

Runs ``BENCHMARK.json``'s command once per (workload, seed) for every
workload, one run at a time, with its ``run_seconds`` and ``--trace 0``,
as the gate does.  Prints, per workload and metric, the
median, the first and third quartiles (``statistics.quantiles(n=4)``)
and the spread (Q3 - Q1) / median, as markdown; for end-to-end metrics
the spread is also given as a share of the metric's bound.  Metrics in
parentheses are the workload's own, which are printed but not gated.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, required=True, help="at least two, e.g. 1-10")
    args = parser.parse_args(argv)
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {}
        units: dict[str, str] = {}
        failed = 0
        for seed in args.seeds:
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if proc.returncode:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit code {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            saved = ROOT / ".perfbench_out" / f"{workload}-seed{seed}-trace0.json"
            for name, (value, unit) in json.loads(saved.read_text())["workload"].items():
                values.setdefault(f"({name})", []).append(value)
                units[f"({name})"] = unit
            print(f"<!-- {workload} seed {seed}: "
                  + json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()})
                  + " -->", flush=True)
        print(f"\n**{workload}** (seeds {args.seeds[0]}-{args.seeds[-1]}, {seconds} s runs, "
              f"{failed} failed operations)\n")
        print("| metric | unit | median | Q1 | Q3 | spread | spread / bound |")
        print("|---|---|---|---|---|---|---|")
        for name, vals in values.items():
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med if med else 0.0
            share = f"{spread / bounds[name]:.2f}" if name in bounds else ""
            print(f"| {name} | {units[name]} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f} | {share} |")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
