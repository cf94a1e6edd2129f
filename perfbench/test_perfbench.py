"""Self-test of the benchmark's correctness checks.

    python3 -m pytest -q perfbench/test_perfbench.py

A restored object with one wrong byte and a classify result with one
class missing must each count as a failed operation; the same workload
without the corruption must count none.  Corruption is injected the way
tracing is: by replacing a package function at its module attributes.
"""

from __future__ import annotations

import dataclasses
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

import tracing  # noqa: E402
from sxor import analysis, codec  # noqa: E402
from sxor.gf2poly import Poly2  # noqa: E402
from workloads import CodeAnalysis, Recorder, SmallObjects, measure  # noqa: E402


def failure_share(workload) -> float:
    rec = Recorder()
    measure(workload, 0, rec)  # one cycle
    return rec.failed / rec.attempted


@pytest.fixture
def patch():
    undo = []
    yield lambda target, replacement: undo.extend(tracing.patch(target, replacement))
    tracing.unpatch(undo)


def test_a_wrong_restored_byte_is_a_failure(tmp_path, patch):
    clean = failure_share(SmallObjects(1, tmp_path))
    original = codec.map_decode
    corrupted = []

    def decode_with_one_bad_byte(mat, packets):
        sources = original(mat, packets)
        if not corrupted:
            sources[0] = Poly2(sources[0].mask ^ 0x100)  # restored byte 1
            corrupted.append(True)
        return sources

    patch(original, decode_with_one_bad_byte)
    assert clean == 0
    assert failure_share(SmallObjects(1, tmp_path)) > clean
    assert corrupted


def test_a_wrong_classify_result_is_a_failure(tmp_path, patch):
    clean = failure_share(CodeAnalysis(1, tmp_path))
    original = analysis.enumerate_classes

    def classify_missing_a_class(*args):
        report = original(*args)
        return dataclasses.replace(report, classes=report.classes[1:])

    patch(original, classify_missing_a_class)
    assert clean == 0
    assert failure_share(CodeAnalysis(1, tmp_path)) > clean


def test_tracing_restores_the_package(tmp_path):
    before = (codec.map_decode, codec.exact_div_low, analysis.enumerate_classes)
    workload = SmallObjects(1, tmp_path)  # warms the kernel memo untraced
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert codec.map_decode is not before[0]
        rec = Recorder(tracer)
        measure(workload, 0, rec)
    finally:
        tracer.remove()
    assert (codec.map_decode, codec.exact_div_low, analysis.enumerate_classes) == before
    assert not tracer.missing
    totals = tracer.totals()
    decode = totals["codec.map_decode"]
    parts = (totals["codec.map_kernel"]["s"] + totals["gf2poly.exact_div_low"]["s"]
             + decode["self_s"])
    assert parts == pytest.approx(decode["s"])
    assert totals["op.roundtrip"]["calls"] == rec.attempted
