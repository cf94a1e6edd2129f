"""The package imports nothing outside the standard library, and some modules only on first use."""

import importlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import sxor

# The modules sxor loads on first use, which neither ``import sxor`` nor
# sxor encode and decode may load.
LAZY = ["sxor.analysis", "sxor.matrix_file", "sxor.zigzag"]

# -S keeps site (and whatever it imports from site-packages) out of the
# child, so that only modules the package itself loads appear; -E keeps
# PYTHONPATH and the like out, so the source directory is put on the path
# by hand.
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import sxor, sxor.cli
new = set(sys.modules) - before
print(json.dumps([sorted({name.partition(".")[0] for name in new}), sorted(new)]))
"""


def test_import_loads_only_the_standard_library():
    src = str(Path(sxor.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-S", "-E", "-c", PROBE, src],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr  # e.g. a module only site-packages has
    loaded, modules = json.loads(child.stdout)
    assert "sxor" in loaded
    outside = [name for name in loaded if name != "sxor" and name not in sys.stdlib_module_names]
    assert not outside, f"importing sxor loaded modules outside the standard library: {outside}"
    assert not set(LAZY) & set(modules), "importing sxor loaded a module meant for first use"


CODEC_PROBE = """
import sys
sys.path.insert(0, sys.argv[1])
from sxor.cli import main
work = sys.argv[2]
with open(work + "/obj.bin", "wb") as fh:
    fh.write(bytes(range(256)) * 40)
packets = [f"{work}/obj.bin.p{i}.sxp" for i in (1, 3, 4, 5)]
codes = (main(["encode", "--kind", "systematic", "--k", "4", "--n", "6", work + "/obj.bin",
               "--out-dir", work]),
         main(["decode", *packets, "--out", work + "/back.bin"]))
print(codes, sorted(name for name in sys.modules if name in sys.argv[3:] or name == "json"))
"""


def test_encode_and_decode_load_no_lazy_module_and_no_json(tmp_path):
    src = str(Path(sxor.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-S", "-E", "-c", CODEC_PROBE, src, str(tmp_path),
                            *LAZY], capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split("\n")[-2] == "(0, 0) []"
    assert (tmp_path / "back.bin").read_bytes() == bytes(range(256)) * 40


@pytest.mark.parametrize("old, new, name", [
    ("sxor.codec", "sxor.zigzag", "zigzag_decode"),
    ("sxor.codec", "sxor.zigzag", "zigzag_schedule"),
    ("sxor.codec", "sxor.zigzag", "MAX_PEEL_BITS"),
    ("sxor.codec", "sxor.zigzag", "MAX_SCHEDULE_BITS"),
    ("sxor", "sxor.zigzag", "zigzag_decode"),
    ("sxor", "sxor.zigzag", "zigzag_schedule"),
    *((module, "sxor.matrix_file", name) for module in ("sxor.codes", "sxor")
      for name in ("MatrixFormatError", "format_matrix", "parse_fields", "parse_matrix",
                   "save_matrix", "load_matrix"))])
def test_moved_names_are_one_object_at_the_old_and_the_new_path(old, new, name):
    old, new = importlib.import_module(old), importlib.import_module(new)
    assert getattr(old, name) is getattr(new, name)
