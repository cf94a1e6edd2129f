"""Shift-and-XOR erasure codes over GF(2**m).

Encode K source packets into N >= K packets using only bit shifts and
XORs; any K surviving packets recover the sources exactly, at the price
of a few extra bits per packet instead of full finite-field multiplies.
See :mod:`sxor.codes` for the constructions, :mod:`sxor.codec` for the
encoder, the MAP decoder and the packet format, :mod:`sxor.zigzag` for
the zigzag decoder, :mod:`sxor.matrix_file` for matrix files, and
:mod:`sxor.analysis` for code-family analysis, reports and the MDS
check walk.  Those last three load on first use: the names they export,
and ``__all__``, are served here through PEP 562 ``__getattr__``, so
``sxor encode`` and ``sxor decode`` never import them.
"""

import importlib

from . import codec, codes, gf2m, gf2poly, polymat
from .gf2poly import *
from .gf2m import *
from .polymat import *
from .codes import *
from .codec import *

__version__ = "0.1.0"

# The modules that load on first use, each after the module whose names it took.
_LAZY = ("matrix_file", "zigzag", "analysis")


def _load(name: str):
    # import_module, since ``from . import analysis`` would look the name up here again.
    return importlib.import_module("." + name, __name__)


def __getattr__(name: str):
    # PEP 562: called only for names not bound here.
    if name in _LAZY:
        return _load(name)
    if name == "__all__":
        # The root API is each module's own __all__, so no list is kept here twice.
        return [name for module in (gf2poly, gf2m, polymat, codes, codec, *map(_load, _LAZY))
                for name in module.__all__] + ["__version__"]
    module = _load("matrix_file" if name in codes._MATRIX_FILE
                   else "zigzag" if name in codec._ZIGZAG else "analysis")
    if name in module.__all__:
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
