"""The record that tools/bench.py writes: its keys, its provenance and its numbering.

No section runs here: canned rows go through the script's writer.
"""

import importlib.util
import json
import platform
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "tools" / "bench.py"


def test_record_holds_the_rows_and_provenance_under_the_next_free_number(tmp_path):
    spec = importlib.util.spec_from_file_location("bench", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    sections = {"check": [{"matrix": "sxor 3/7", "ok": True, "failing": 0, "ms": 0.2,
                           "field": 34, "exact": 0, "rss_mib": 16.8, "correct": True}],
                "zigzag": []}
    first = bench.write_record(tmp_path, sections, 3, (0.5, 0.25, 0.125))
    second = bench.write_record(tmp_path, sections, 1, (0.0, 0.0, 0.0))
    assert (first.name, second.name) == ("BENCH_1.json", "BENCH_2.json")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_1.json", "BENCH_2.json"]
    record = json.loads(first.read_text(encoding="utf-8"))
    assert list(record) == ["provenance", "sections"]
    assert record["sections"] == sections
    provenance = record["provenance"]
    assert list(provenance) == ["git", "git_diff_sha256", "python", "platform", "cpu_count",
                                "loadavg_before", "loadavg_after", "repeats"]
    assert provenance["git"] is None or provenance["git"]  # None off a git checkout
    dirty = (provenance["git"] or "").endswith("-dirty")
    assert (provenance["git_diff_sha256"] is not None) == dirty
    assert provenance["git_diff_sha256"] is None or len(provenance["git_diff_sha256"]) == 64
    assert provenance["python"] == platform.python_version()
    assert provenance["cpu_count"] >= 1
    assert provenance["loadavg_before"] == [0.5, 0.25, 0.125]
    assert len(provenance["loadavg_after"]) == 3
    assert provenance["repeats"] == 3
    assert json.loads(second.read_text(encoding="utf-8"))["provenance"]["repeats"] == 1
