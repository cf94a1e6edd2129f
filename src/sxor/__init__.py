"""Shift-and-XOR erasure codes over GF(2**m).

Encode K source packets into N >= K packets using only bit shifts and
XORs; any K surviving packets recover the sources exactly, at the price
of a few extra bits per packet instead of full finite-field multiplies.
See :mod:`sxor.codes` for the constructions, :mod:`sxor.codec` for the
encoder and the two decoders, and :mod:`sxor.analysis` for code-family
analysis and reports.  :mod:`sxor.analysis`, the names it exports and
``__all__`` load on first use, so ``sxor encode`` and ``sxor decode``
never import it.
"""

import importlib

from . import codec, codes, gf2m, gf2poly, polymat
from .gf2poly import *
from .gf2m import *
from .polymat import *
from .codes import *
from .codec import *

__version__ = "0.1.0"


def __getattr__(name: str):
    # PEP 562: called only for names not bound here.  import_module, since
    # ``from . import analysis`` would look the name up here again.
    analysis = importlib.import_module(".analysis", __name__)
    if name == "analysis":
        return analysis
    if name == "__all__":
        # The root API is each module's own __all__, so no list is kept here twice.
        return [name for module in (gf2poly, gf2m, polymat, codes, codec, analysis)
                for name in module.__all__] + ["__version__"]
    if name in analysis.__all__:
        return getattr(analysis, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
