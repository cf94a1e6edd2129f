"""The package imports nothing outside the standard library."""

import json
import subprocess
import sys
from pathlib import Path

import sxor

# -S keeps site (and whatever it imports from site-packages) out of the
# child, so that only modules the package itself loads appear; -E keeps
# PYTHONPATH and the like out, so the source directory is put on the path
# by hand.
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import sxor, sxor.cli
print(json.dumps(sorted({name.partition(".")[0] for name in set(sys.modules) - before})))
"""


def test_import_loads_only_the_standard_library():
    src = str(Path(sxor.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-S", "-E", "-c", PROBE, src],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr  # e.g. a module only site-packages has
    loaded = json.loads(child.stdout)
    assert "sxor" in loaded
    outside = [name for name in loaded if name != "sxor" and name not in sys.stdlib_module_names]
    assert not outside, f"importing sxor loaded modules outside the standard library: {outside}"


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
print(codes, "sxor.analysis" in sys.modules, "json" in sys.modules)
"""


def test_encode_and_decode_load_neither_analysis_nor_json(tmp_path):
    src = str(Path(sxor.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-S", "-E", "-c", CODEC_PROBE, src, str(tmp_path)],
                           capture_output=True, text=True, timeout=60)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split("\n")[-2] == "(0, 0) False False"
    assert (tmp_path / "back.bin").read_bytes() == bytes(range(256)) * 40
